//! The load generator: one connection, one sender (the calling thread) and
//! one receiver thread.
//!
//! With a schedule, every op is sent at its due time regardless of how
//! many replies are outstanding (open loop), and latency is measured from
//! the due time, so a stall is charged to every request queued behind it.
//! Without one, ops are pipelined behind a fixed window (the preparation
//! phase, which is not timed).

use qdelay_journal::frame::{self, Check};
use qdelay_json::Json;
use qdelay_predict::admission::Decision;
use qdelay_serve::proto::{self, BinResponse};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which listener the connection speaks to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Json,
    Bin,
}

/// One partition key as the wire carries it.
#[derive(Clone, Debug)]
pub struct Key {
    pub site: String,
    pub queue: String,
    pub procs: u32,
}

/// The `predicted_bmbp` an observe carries.
#[derive(Clone, Copy, Debug)]
pub enum Echo {
    /// No feedback.
    None,
    /// A bound known before the phase started (served in an earlier phase).
    Value(Option<f64>),
    /// The BMBP bound served to the predict at this op index of the same
    /// phase; the sender waits for that reply if it has not arrived.
    Op(usize),
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Predict { part: u32 },
    Admit { part: u32, budget: f64 },
    Observe { part: u32, wait: f64, echo: Echo },
}

impl Op {
    pub fn part(&self) -> usize {
        match *self {
            Op::Predict { part } | Op::Admit { part, .. } | Op::Observe { part, .. } => {
                part as usize
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Observe {
        seq: u64,
    },
    Predict {
        n: u64,
        seq: u64,
        bmbp: Option<f64>,
        lognormal: Option<f64>,
    },
    Admit {
        n: u64,
        seq: u64,
        decision: Decision,
    },
    Error(String),
}

/// What one phase produced, indexed by op.
pub struct Outcome {
    pub replies: Vec<Reply>,
    /// The feedback each observe actually carried (`None` for other ops).
    pub echoed: Vec<Option<f64>>,
    /// Reply time minus due time (scheduled) or send time (unscheduled).
    pub latency_ns: Vec<u64>,
    /// Send time minus due time; zero when unscheduled.
    pub lateness_ns: Vec<u64>,
    pub elapsed: Duration,
}

const PENDING: u64 = u64::MAX;
const NO_BOUND: u64 = u64::MAX - 1;
/// Most ops coalesced into one `write` when the sender is behind.
const MAX_BATCH: usize = 64;
/// Sleep between polls while waiting on a reply (window full, or an echo
/// still in flight).
const IDLE: Duration = Duration::from_micros(20);

/// Opens the phase's single connection.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(s)
}

/// Drives `ops` over `stream`: at `schedule[i]` nanoseconds after the
/// start when a schedule is given, else keeping at most `window` requests
/// outstanding.
pub fn drive(
    stream: &TcpStream,
    wire: Wire,
    keys: &[Key],
    ops: &[Op],
    schedule: Option<&[u64]>,
    window: usize,
) -> Result<Outcome, String> {
    let n = ops.len();
    let served: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(PENDING)).collect();
    let received = AtomicUsize::new(0);
    let dead = AtomicBool::new(false);
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut writer = stream;
    let mut send_ns = vec![0u64; n];
    let mut echoed = vec![None; n];
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;

    let (recv, send_result) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let r = receive(&mut reader, wire, ops, &served, &received, t0);
            if r.is_err() {
                dead.store(true, Ordering::SeqCst);
            }
            r
        });
        let send = (|| -> Result<(), String> {
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut i = 0;
            while i < n {
                match schedule {
                    Some(s) => pace(s[i], &ns),
                    None => {
                        while i - received.load(Ordering::Acquire) >= window {
                            stalled(&dead)?;
                            std::thread::sleep(IDLE);
                        }
                    }
                }
                let now = ns();
                let mut j = i;
                while j < n && j - i < MAX_BATCH {
                    let ready = match schedule {
                        Some(s) => s[j] <= now,
                        None => j - received.load(Ordering::Acquire) < window,
                    };
                    if j > i && !ready {
                        break;
                    }
                    let echo = match ops[j] {
                        Op::Observe {
                            echo: Echo::Op(k), ..
                        } => loop {
                            match served[k].load(Ordering::Acquire) {
                                PENDING if j > i => break None,
                                PENDING => {
                                    stalled(&dead)?;
                                    std::thread::sleep(IDLE);
                                }
                                NO_BOUND => break Some(None),
                                bits => break Some(Some(f64::from_bits(bits))),
                            }
                        },
                        Op::Observe {
                            echo: Echo::Value(v),
                            ..
                        } => Some(v),
                        _ => Some(None),
                    };
                    // An echo still in flight ends the batch; it is sent
                    // once the reply lands.
                    let Some(echo) = echo else { break };
                    echoed[j] = echo;
                    encode(&mut buf, wire, keys, j as u64 + 1, &ops[j], echo);
                    j += 1;
                }
                writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
                buf.clear();
                let sent = ns();
                send_ns[i..j].fill(sent);
                i = j;
            }
            Ok(())
        })();
        if send.is_err() {
            dead.store(true, Ordering::SeqCst);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        (receiver.join().expect("receiver thread panicked"), send)
    });
    send_result?;
    let (replies, recv_ns) = recv?;
    let elapsed = t0.elapsed();
    let due = |i: usize| schedule.map_or(send_ns[i], |s| s[i]);
    let latency_ns = (0..n).map(|i| recv_ns[i].saturating_sub(due(i))).collect();
    let lateness_ns = (0..n).map(|i| send_ns[i].saturating_sub(due(i))).collect();
    Ok(Outcome {
        replies,
        echoed,
        latency_ns,
        lateness_ns,
        elapsed,
    })
}

fn stalled(dead: &AtomicBool) -> Result<(), String> {
    if dead.load(Ordering::SeqCst) {
        Err("receiver stopped before every reply arrived".into())
    } else {
        Ok(())
    }
}

/// Sleeps until `due` ns after the start. The sender never spins: on a
/// host with few CPUs a spinning generator takes a core from the server.
fn pace(due: u64, ns: &impl Fn() -> u64) {
    let now = ns();
    if due > now {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// Asks the kernel to wake this process's sleeps within 1 µs of their
/// deadline instead of the default 50 µs timer slack, so a paced send is
/// not late by the slack.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // touches no memory of ours; failure leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

pub fn encode(buf: &mut Vec<u8>, wire: Wire, keys: &[Key], id: u64, op: &Op, echo: Option<f64>) {
    let k = &keys[op.part()];
    match wire {
        Wire::Json => {
            let head = format!(
                r#"{{"id":{id},"site":"{}","queue":"{}","procs":{}"#,
                k.site, k.queue, k.procs
            );
            let line = match *op {
                Op::Predict { .. } => format!(r#"{head},"method":"predict"}}"#),
                Op::Admit { budget, .. } => {
                    format!(r#"{head},"method":"admit","budget":{}}}"#, json_num(budget))
                }
                Op::Observe { wait, .. } => match echo {
                    Some(p) => format!(
                        r#"{head},"method":"observe","wait":{},"predicted_bmbp":{}}}"#,
                        json_num(wait),
                        json_num(p)
                    ),
                    None => {
                        format!(r#"{head},"method":"observe","wait":{}}}"#, json_num(wait))
                    }
                },
            };
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        Wire::Bin => match *op {
            Op::Predict { .. } => proto::encode_predict_req(buf, id, &k.site, &k.queue, k.procs),
            Op::Admit { budget, .. } => {
                proto::encode_admit_req(buf, id, &k.site, &k.queue, k.procs, budget, None)
            }
            Op::Observe { wait, .. } => {
                proto::encode_observe_req(buf, id, &k.site, &k.queue, k.procs, wait, echo, None)
            }
        },
    }
}

/// A float in the JSON form `qdelay-json` prints: shortest round-trip.
fn json_num(x: f64) -> String {
    Json::Num(x).to_string_compact()
}

type Received = (Vec<Reply>, Vec<u64>);

fn receive(
    stream: &mut TcpStream,
    wire: Wire,
    ops: &[Op],
    served: &[AtomicU64],
    received: &AtomicUsize,
    t0: Instant,
) -> Result<Received, String> {
    let n = ops.len();
    let mut sink = Sink {
        replies: vec![None; n],
        recv_ns: vec![0u64; n],
        count: 0,
        served,
        received,
        t0,
    };
    match wire {
        Wire::Json => {
            let mut r = BufReader::with_capacity(256 * 1024, stream);
            let mut line = Vec::with_capacity(512);
            while sink.count < n {
                line.clear();
                let got = r
                    .read_until(b'\n', &mut line)
                    .map_err(|e| format!("recv: {e}"))?;
                if got == 0 {
                    return Err(format!(
                        "server closed the connection after {}/{n} replies",
                        sink.count
                    ));
                }
                let text = std::str::from_utf8(&line).map_err(|_| "reply not UTF-8".to_string())?;
                let v = Json::parse(text.trim_end()).map_err(|e| format!("reply JSON: {e}"))?;
                let id = v
                    .get("id")
                    .and_then(Json::as_usize)
                    .ok_or("reply without id")? as u64;
                let op = ops
                    .get((id as usize).wrapping_sub(1))
                    .ok_or("reply id out of range")?;
                sink.store(id, json_reply(&v, op))?;
            }
        }
        Wire::Bin => {
            let mut buf = vec![0u8; 0];
            let mut chunk = vec![0u8; 256 * 1024];
            let mut pos = 0usize;
            while sink.count < n {
                match frame::check(&buf[pos..], proto::MAX_RESP_PAYLOAD) {
                    Check::Complete { start, end, next } => {
                        let (id, resp) = proto::decode_response(&buf[pos + start..pos + end])?;
                        sink.store(id, bin_reply(resp))?;
                        pos += next;
                    }
                    Check::Incomplete => {
                        buf.drain(..pos);
                        pos = 0;
                        let got = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
                        if got == 0 {
                            return Err(format!(
                                "server closed the connection after {}/{n} replies",
                                sink.count
                            ));
                        }
                        buf.extend_from_slice(&chunk[..got]);
                    }
                    Check::Damaged(why) => return Err(format!("damaged reply frame: {why}")),
                }
            }
        }
    }
    let replies = sink
        .replies
        .into_iter()
        .map(|r| r.expect("every id answered"))
        .collect();
    Ok((replies, sink.recv_ns))
}

/// The receiver's bookkeeping: replies by op index, their arrival times,
/// and the bounds the sender may be waiting to echo.
struct Sink<'a> {
    replies: Vec<Option<Reply>>,
    recv_ns: Vec<u64>,
    count: usize,
    served: &'a [AtomicU64],
    received: &'a AtomicUsize,
    t0: Instant,
}

impl Sink<'_> {
    fn store(&mut self, id: u64, reply: Reply) -> Result<(), String> {
        let at = self.t0.elapsed().as_nanos() as u64;
        let i = usize::try_from(id)
            .ok()
            .and_then(|id| id.checked_sub(1))
            .filter(|&i| i < self.replies.len())
            .ok_or_else(|| format!("reply carries unknown id {id}: {reply:?}"))?;
        if self.replies[i].is_some() {
            return Err(format!("second reply for id {id}"));
        }
        if let Reply::Predict { bmbp, .. } = reply {
            self.served[i].store(bmbp.map_or(NO_BOUND, f64::to_bits), Ordering::Release);
        }
        self.replies[i] = Some(reply);
        self.recv_ns[i] = at;
        self.count += 1;
        self.received.store(self.count, Ordering::Release);
        Ok(())
    }
}

fn opt_num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn json_reply(v: &Json, op: &Op) -> Reply {
    if v.get("ok") != Some(&Json::Bool(true)) {
        let code = v.get("error").and_then(Json::as_str).unwrap_or("?");
        let msg = v.get("message").and_then(Json::as_str).unwrap_or("");
        return Reply::Error(format!("{code}: {msg}"));
    }
    let num = |k: &str| v.get(k).and_then(Json::as_usize).map(|x| x as u64);
    let (Some(seq), n) = (num("seq"), num("n")) else {
        return Reply::Error("reply without seq".into());
    };
    match op {
        Op::Observe { .. } => Reply::Observe { seq },
        Op::Predict { .. } => Reply::Predict {
            n: n.unwrap_or(u64::MAX),
            seq,
            bmbp: opt_num(v, "bmbp"),
            lognormal: opt_num(v, "lognormal"),
        },
        Op::Admit { .. } => {
            let bound = opt_num(v, "bound").unwrap_or(f64::NAN);
            let margin = opt_num(v, "margin").unwrap_or(f64::NAN);
            let decision = match v.get("decision").and_then(Json::as_str) {
                Some("admit") => Decision::Admit { bound, margin },
                Some("reject") => Decision::Reject { bound, margin },
                Some("defer") => Decision::Defer {
                    retry_hint: num("retry_hint").unwrap_or(0),
                },
                other => return Reply::Error(format!("unknown decision {other:?}")),
            };
            Reply::Admit {
                n: n.unwrap_or(u64::MAX),
                seq,
                decision,
            }
        }
    }
}

fn bin_reply(resp: BinResponse) -> Reply {
    match resp {
        BinResponse::Observe { seq, .. } => Reply::Observe { seq },
        BinResponse::Predict {
            n,
            seq,
            bmbp,
            lognormal,
            ..
        } => Reply::Predict {
            n,
            seq,
            bmbp,
            lognormal,
        },
        BinResponse::Admit {
            n, seq, decision, ..
        } => Reply::Admit { n, seq, decision },
        BinResponse::Error { code, message } => Reply::Error(format!("{code}: {message}")),
        other => Reply::Error(format!("unexpected reply {other:?}")),
    }
}

/// One request/reply exchange of a control method over the JSON listener
/// (`stats`, `metrics`, `snapshot`), on its own short-lived connection.
pub fn control(addr: SocketAddr, request: &str) -> Result<Json, String> {
    let mut s = connect(addr)?;
    s.write_all(request.as_bytes())
        .and_then(|_| s.write_all(b"\n"))
        .map_err(|e| format!("send {request}: {e}"))?;
    let mut line = String::new();
    BufReader::new(&s)
        .read_line(&mut line)
        .map_err(|e| format!("reply to {request}: {e}"))?;
    let v = Json::parse(line.trim_end()).map_err(|e| format!("reply to {request}: {e}"))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{request} failed: {}", line.trim_end()));
    }
    Ok(v)
}
