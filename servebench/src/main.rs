//! Open-loop service benchmark for `qdelay serve`.
//!
//! ```text
//! servebench --workload <read_json|write_bin|cold_capacity_bin> --seed N --seconds S --trace 0|1
//! servebench compare <runs-dir-A> <runs-dir-B>
//! ```
//!
//! Run from the repository root (see README.md). A run builds the release
//! `qdelay` CLI, prepares the workload's state, times set-up over several
//! boots, drives a seeded Poisson schedule at a fixed rate for `S` seconds
//! over one connection, checks every reply independently, and prints the
//! metrics; the last stdout line is the result as one JSON object.

mod check;
mod child;
mod compare;
mod gen;
mod layers;
mod load;
mod stats;

use check::{Phase, Report};
use child::Server;
use gen::Workload;
use load::{Key, Op, Outcome, Wire};
use qdelay_json::Json;
use qdelay_rng::StdRng;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Boots timed per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 3;
/// The benchmark's own directory, relative to the repository root.
const BENCH_DIR: &str = "servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (read_json, write_bin, cold_capacity_bin)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    progress("start");
    load::tighten_timer_slack();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// A timestamped progress line on stderr (stdout carries the results).
fn progress(msg: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64();
    eprintln!("servebench [{t:7.2}s] {msg}");
}

/// Builds the release CLI (a no-op when it is up to date) and returns its
/// path under Cargo's target directory.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "qdelay-cli"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qdelay-cli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    Ok(target.join("release").join("qdelay"))
}

fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything one workload run measured.
struct Measured {
    setup_s: Vec<f64>,
    wire: Wire,
    phase: PhaseRun,
    report: Report,
    /// Problems that make the run's own verification incomplete: failed
    /// preparation checks, a boot that restored the wrong state.
    broken: Vec<String>,
    env: Vec<(&'static str, String)>,
}

/// The measured phase as the server and the host saw it.
struct PhaseRun {
    outcome: Outcome,
    /// Lower quartile of the quarter-second slices' median latencies, µs.
    quiet_p50_us: f64,
    /// Server user+system CPU seconds over the phase.
    cpu_s: f64,
    /// Machine-wide CPU steal over the phase.
    steal_ms: f64,
    hwm_kb: u64,
    threads: u64,
    /// The server's `metrics` before and after the phase.
    metrics_before: Json,
    metrics_after: Json,
}

fn run(a: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli is missing here)".into());
    }
    let qdelay = build_cli(&root)?;
    progress("qdelay CLI built");
    let work = root.join(BENCH_DIR).join("work").join(format!(
        "{}-{}",
        a.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(a, &root, &qdelay, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(a: &Args, root: &Path, qdelay: &Path, work: &Path) -> Result<(), String> {
    // Layer timings first: they time the first use of process-wide tables.
    let layer_metrics = if a.trace {
        layers::measure(a.seed, work)?
    } else {
        Vec::new()
    };
    if a.trace {
        progress("in-process layer timings done");
    }
    let boots = if a.trace { 1 } else { SETUP_BOOTS };
    let mut rng = StdRng::seed_from_u64(a.seed);
    let ops_target = (a.workload.rate() * a.seconds as f64).round() as usize;
    let ctx = Ctx {
        qdelay,
        work,
        boots,
    };
    let m = match a.workload {
        Workload::ReadJson => read_json(&ctx, &mut rng, ops_target)?,
        Workload::WriteBin => write_bin(&ctx, &mut rng, ops_target)?,
        Workload::ColdCapacityBin => cold_capacity(&ctx, &mut rng, ops_target)?,
    };
    progress("measured phase checked");
    report(a, root, &m, &layer_metrics)
}

struct Ctx<'a> {
    qdelay: &'a Path,
    work: &'a Path,
    boots: usize,
}

impl Ctx<'_> {
    fn start(&self, args: &[String], tag: &str) -> Result<(Server, f64, Json), String> {
        Server::start(self.qdelay, args, &self.work.join(format!("{tag}.log")))
    }

    /// Times `boots` starts of the server from fresh copies of the
    /// prepared state (`args_for(k)` makes the copy for boot `k`), checks
    /// each boot's `stats` with `expect`, and keeps the last server.
    /// Each boot's state lives under `state_of(k)`, which is deleted once
    /// that server is gone.
    fn boots(
        &self,
        state_of: impl Fn(usize) -> PathBuf,
        args_for: impl Fn(&Path) -> Result<Vec<String>, String>,
        expect: impl Fn(&Json) -> Result<(), String>,
    ) -> Result<(Server, Vec<f64>, Vec<String>), String> {
        let mut setup = Vec::new();
        let mut broken = Vec::new();
        for k in 0..self.boots {
            let state = state_of(k);
            let (server, secs, stats) = self.start(&args_for(&state)?, &format!("boot{k}"))?;
            if let Err(e) = expect(&stats) {
                broken.push(format!("boot {k} restored the wrong state: {e}"));
            }
            setup.push(secs);
            progress(&format!("boot {k} answered after {secs:.3} s"));
            if k + 1 == self.boots {
                return Ok((server, setup, broken));
            }
            server.kill();
            remove(&state);
        }
        unreachable!("boots is at least 1")
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Flushes every file the run has written so far (prepared state, boot
/// copies, the server's spill files) before the measured phase, so the
/// kernel's writeback of set-up's bytes does not land inside it.
fn settle(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            settle(&path)?;
        } else if let Ok(f) = std::fs::File::open(&path) {
            f.sync_all()
                .map_err(|e| format!("sync {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn stat_num(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_usize)
        .unwrap_or(usize::MAX) as u64
}

fn expect_totals(parts: usize, observations: usize) -> impl Fn(&Json) -> Result<(), String> {
    move |s: &Json| {
        let (p, o) = (stat_num(s, "partitions"), stat_num(s, "observations"));
        if (p, o) == (parts as u64, observations as u64) {
            Ok(())
        } else {
            Err(format!(
                "{p} partitions / {o} observations, prepared {parts} / {observations}"
            ))
        }
    }
}

/// Copies the prepared snapshot file into a fresh boot directory (a
/// capped server spills beside it) and returns the copy's path.
fn copy_into(file: &Path, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let to = dir.join("snapshot.json");
    std::fs::copy(file, &to).map_err(|e| format!("{}: {e}", to.display()))?;
    Ok(to)
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// The measured phase: `ops` at their due times over one connection to
/// `server`, with the server's CPU time read around it; `tail` runs last,
/// inside the CPU window (cold_capacity_bin's closing snapshot).
#[allow(clippy::too_many_arguments)]
fn measure<T>(
    ctx: &Ctx<'_>,
    server: Server,
    wire: Wire,
    keys: &[Key],
    ops: &[Op],
    schedule: &[u64],
    tail: impl FnOnce(&Server) -> Result<T, String>,
) -> Result<(PhaseRun, T), String> {
    let addr = match wire {
        Wire::Json => server.json_addr,
        Wire::Bin => server.bin_addr.ok_or("server has no binary listener")?,
    };
    settle(ctx.work)?;
    let metrics = || load::control(server.json_addr, r#"{"method":"metrics"}"#);
    let metrics_before = metrics()?;
    let stream = load::connect(addr)?;
    progress(&format!(
        "measured phase starts; server VmHWM {} kB",
        server.status_field("VmHWM")?
    ));
    let cpu0 = server.cpu_ticks()?;
    let steal0 = steal_ms();
    let outcome = load::drive(&stream, wire, keys, ops, Some(schedule), usize::MAX)?;
    let t = tail(&server)?;
    let cpu_s = (server.cpu_ticks()? - cpu0) as f64 / child::clock_ticks_per_sec();
    let steal_ms = steal_ms() - steal0;
    progress("measured phase done");
    // Read after the CPU window, so they cost the phase nothing.
    let metrics_after = metrics()?;
    let (hwm_kb, threads) = (
        server.status_field("VmHWM")?,
        server.status_field("Threads")?,
    );
    server.kill();
    let run = PhaseRun {
        quiet_p50_us: quiet_p50_us(&outcome.latency_ns, schedule),
        outcome,
        cpu_s,
        steal_ms,
        hwm_kb,
        threads,
        metrics_before,
        metrics_after,
    };
    Ok((run, t))
}

fn read_json(ctx: &Ctx<'_>, rng: &mut StdRng, n: usize) -> Result<Measured, String> {
    let (reg, medians) = gen::read_json(rng);
    let observes: Vec<Op> = reg
        .history
        .iter()
        .enumerate()
        .flat_map(|(p, h)| {
            h.iter().map(move |&w| Op::Observe {
                part: p as u32,
                wait: w,
                echo: load::Echo::None,
            })
        })
        .collect();
    // Preparation: feed every history through a server, snapshot it to a
    // file, and boot the timed servers from copies of that file.
    let prep_file = ctx.work.join("prep.json");
    let (prep_server, _, _) = ctx.start(&[], "prep")?;
    let prep = load::drive(
        &load::connect(prep_server.json_addr)?,
        Wire::Json,
        &reg.keys,
        &observes,
        None,
        256,
    )?;
    let req = format!(
        r#"{{"method":"snapshot","path":{}}}"#,
        Json::Str(path_arg(&prep_file)).to_string_compact()
    );
    load::control(prep_server.json_addr, &req)?;
    prep_server.kill();
    progress("preparation done");

    let total: usize = reg.history.iter().map(Vec::len).sum();
    let (server, setup_s, mut broken) = ctx.boots(
        |k| ctx.work.join(format!("boot{k}")),
        |dir| {
            Ok(vec![
                "--snapshot-path".into(),
                path_arg(&copy_into(&prep_file, dir)?),
            ])
        },
        expect_totals(reg.keys.len(), total),
    )?;
    let ops = gen::read_json_ops(rng, &medians, n);
    let schedule = gen::poisson_schedule(rng, ops.len(), Workload::ReadJson.rate());
    let (phase, ()) = measure(ctx, server, Wire::Json, &reg.keys, &ops, &schedule, |_| {
        Ok(())
    })?;

    let empty = vec![Vec::new(); reg.keys.len()];
    let phases = [
        Phase {
            ops: &observes,
            outcome: &prep,
            measured: false,
        },
        Phase {
            ops: &ops,
            outcome: &phase.outcome,
            measured: true,
        },
    ];
    let (report, prep_failures) = check::check(&empty, &phases, false);
    if prep_failures > 0 {
        broken.push(format!(
            "{prep_failures} preparation ops failed their checks"
        ));
    }
    Ok(Measured {
        setup_s,
        wire: Wire::Json,
        phase,
        report,
        broken,
        env: vec![
            ("partitions", reg.keys.len().to_string()),
            ("history", "200-299 waits, no feedback".into()),
            ("op_mix", "75% predict, 25% admit".into()),
        ],
    })
}

fn write_bin(ctx: &Ctx<'_>, rng: &mut StdRng, n: usize) -> Result<Measured, String> {
    let parts = gen::WRITE_PARTS;
    let prep_jobs = gen::WRITE_PREP_JOBS;
    // Whole rounds only: every partition runs the same number of jobs.
    let rounds = (n / (2 * parts)).max(1);
    let (keys, waits) = gen::write_bin(prep_jobs + rounds);
    let image = ctx.work.join("prep-journal");
    let journal_args = |dir: &Path| -> Vec<String> {
        [
            "--listen-binary",
            "127.0.0.1:0",
            "--journal-path",
            &path_arg(dir),
            "--fsync",
            "interval",
        ]
        .map(String::from)
        .to_vec()
    };
    // The harness-order replay needs the change-point table; build it
    // while the preparation server boots.
    let prep_server = std::thread::scope(|s| {
        s.spawn(qdelay_predict::changepoint::ThresholdTable::default_table);
        ctx.start(&journal_args(&image), "prep")
    })?
    .0;
    let prep_ops = gen::write_bin_ops(rng, &waits, 0, prep_jobs, &[]);
    let bin = prep_server
        .bin_addr
        .ok_or("server has no binary listener")?;
    let prep = load::drive(&load::connect(bin)?, Wire::Bin, &keys, &prep_ops, None, 512)?;
    // The crash image: whatever the journal holds at SIGKILL.
    prep_server.kill();
    progress("preparation done");
    // Bounds served in preparation, per partition in job order: the first
    // measured observes echo them.
    let mut prior = vec![Vec::new(); parts];
    for (op, reply) in prep_ops.iter().zip(&prep.replies) {
        if let (Op::Predict { part }, load::Reply::Predict { bmbp, .. }) = (op, reply) {
            prior[*part as usize].push(*bmbp);
        }
    }

    let (server, setup_s, mut broken) = ctx.boots(
        |k| ctx.work.join(format!("boot{k}")),
        |dir| {
            copy_dir(&image, dir)?;
            Ok(journal_args(dir))
        },
        expect_totals(parts, parts * (prep_jobs - gen::WRITE_LAG)),
    )?;
    let ops = gen::write_bin_ops(rng, &waits, prep_jobs, prep_jobs + rounds, &prior);
    let schedule = gen::poisson_schedule(rng, ops.len(), Workload::WriteBin.rate());
    let (phase, ()) = measure(ctx, server, Wire::Bin, &keys, &ops, &schedule, |_| Ok(()))?;

    let empty = vec![Vec::new(); parts];
    let phases = [
        Phase {
            ops: &prep_ops,
            outcome: &prep,
            measured: false,
        },
        Phase {
            ops: &ops,
            outcome: &phase.outcome,
            measured: true,
        },
    ];
    let (report, prep_failures) = check::check(&empty, &phases, true);
    if prep_failures > 0 {
        broken.push(format!(
            "{prep_failures} preparation ops failed their checks"
        ));
    }
    Ok(Measured {
        setup_s,
        wire: Wire::Bin,
        phase,
        report,
        broken,
        env: vec![
            ("partitions", parts.to_string()),
            (
                "jobs",
                format!("{prep_jobs} prepared + {rounds} measured per partition"),
            ),
            (
                "op_mix",
                "50% predict, 50% observe echoing the bound served 4 jobs earlier".into(),
            ),
            (
                "level_shifts",
                "every 25-55 jobs: 1-55x base or back to base".into(),
            ),
            (
                "journal",
                "fsync=interval, boot from a SIGKILL image".into(),
            ),
        ],
    })
}

fn cold_capacity(ctx: &Ctx<'_>, rng: &mut StdRng, n: usize) -> Result<Measured, String> {
    let reg = gen::cold_capacity(rng);
    // Preparation writes the boot snapshot in-process, through the same
    // registry and snapshot code the server runs.
    let snaps = reg
        .keys
        .iter()
        .zip(&reg.history)
        .map(|(k, h)| {
            let mut p = qdelay_serve::registry::Partition::new();
            for &w in h {
                p.observe(w, None, None);
            }
            p.to_snapshot(&qdelay_serve::registry::PartitionKey::for_request(
                &k.site, &k.queue, k.procs,
            ))
        })
        .collect();
    let prep_file = ctx.work.join("prep.json");
    let text = qdelay_serve::snapshot::encode(snaps, Vec::new()).to_string_compact();
    std::fs::write(&prep_file, text).map_err(|e| format!("{}: {e}", prep_file.display()))?;
    progress("preparation done");
    let total: usize = reg.history.iter().map(Vec::len).sum();
    let cap = gen::COLD_CAP_PER_SHARD.to_string();
    let (server, setup_s, mut broken) = ctx.boots(
        |k| ctx.work.join(format!("boot{k}")),
        |dir| {
            let f = path_arg(&copy_into(&prep_file, dir)?);
            Ok([
                "--listen-binary",
                "127.0.0.1:0",
                "--snapshot-path",
                &f,
                "--max-resident",
                &cap,
            ]
            .map(String::from)
            .to_vec())
        },
        expect_totals(reg.keys.len(), total),
    )?;
    let ops = gen::cold_ops(rng, reg.keys.len(), n);
    let schedule = gen::poisson_schedule(rng, ops.len(), Workload::ColdCapacityBin.rate());
    let final_file = ctx.work.join("final.json");
    let req = format!(
        r#"{{"method":"snapshot","path":{}}}"#,
        Json::Str(path_arg(&final_file)).to_string_compact()
    );
    let (phase, snapshot_reply) = measure(
        ctx,
        server,
        Wire::Bin,
        &reg.keys,
        &ops,
        &schedule,
        |server| Ok(load::control(server.json_addr, &req)),
    )?;

    let phases = [Phase {
        ops: &ops,
        outcome: &phase.outcome,
        measured: true,
    }];
    let (mut report, prep_failures) = check::check(&reg.history, &phases, false);
    if prep_failures > 0 {
        broken.push(format!(
            "{prep_failures} preparation ops failed their checks"
        ));
    }
    // The closing snapshot is one more op: it fails unless every
    // partition's retained history is the tail of what was sent.
    report.attempted += 1;
    if let Err(e) =
        snapshot_reply.and_then(|_| check::snapshot_tails(&final_file, &reg.keys, &reg.history))
    {
        report.failed += 1;
        report.fail("final_snapshot", e);
    }
    Ok(Measured {
        setup_s,
        wire: Wire::Bin,
        phase,
        report,
        broken,
        env: vec![
            ("partitions", reg.keys.len().to_string()),
            ("history", "60-79 waits, no feedback".into()),
            (
                "op_mix",
                "100% predict, uniform over the registry, then one file snapshot".into(),
            ),
            (
                "max_resident",
                format!("{} per shard x 4 shards", gen::COLD_CAP_PER_SHARD),
            ),
        ],
    })
}

/// Length of the slices `quiet_p50_us` compares.
const SLICE_NS: u64 = 250_000_000;

/// The lower quartile, over the phase's quarter-second slices (by due
/// time, at least 50 requests each), of each slice's median latency, in µs.
///
/// On a shared host the hypervisor steals CPU time in bursts; a phase
/// with 4-5 s of steal (a quarter of two CPUs) had two to ten times the
/// whole-phase median of a quiet one. Slices a burst lands in rank high
/// and fall out of the lower quartile, which still moves with the
/// server's per-request cost: every slice pays it.
fn quiet_p50_us(latency_ns: &[u64], schedule: &[u64]) -> f64 {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for (&l, &due) in latency_ns.iter().zip(schedule) {
        let i = (due / SLICE_NS) as usize;
        if slices.len() <= i {
            slices.resize(i + 1, Vec::new());
        }
        slices[i].push(l as f64 / 1e3);
    }
    let medians: Vec<f64> = slices
        .iter()
        .filter(|s| s.len() >= 50)
        .map(|s| stats::median(s))
        .collect();
    stats::quartiles(&medians).0
}

/// Steal time of the whole machine so far, in ms (from `/proc/stat`).
fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks * 1e3 / child::clock_ticks_per_sec())
}

fn histogram_p50(metrics: &Json, name: &str) -> Option<f64> {
    metrics
        .get("current")?
        .get("histograms")?
        .get(name)?
        .get("p50")?
        .as_f64()
}

fn counter(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("current")
        .and_then(|c| c.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn report(
    a: &Args,
    root: &Path,
    m: &Measured,
    layer_metrics: &[layers::Metric],
) -> Result<(), String> {
    let w = a.workload;
    let us = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64 / 1e3).collect() };
    let p = &m.phase;
    let latency = stats::Tail::of(&us(&p.outcome.latency_ns));
    let lateness = stats::Tail::of(&us(&p.outcome.lateness_ns));
    let completed = p
        .outcome
        .replies
        .iter()
        .filter(|r| !matches!(r, load::Reply::Error(_)))
        .count();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(&str, String)> = vec![
        ("workload", w.name().into()),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", (a.trace as u8).to_string()),
        ("cpus", cpus.to_string()),
        ("git_rev", git_rev(root)),
        ("profile", "release".into()),
        ("wire", format!("{:?}", m.wire).to_lowercase()),
        ("rate_per_s", w.rate().to_string()),
        ("ops", p.outcome.replies.len().to_string()),
        ("shards", "4".into()),
        ("connections", "1 (1 sender + 1 receiver thread)".into()),
        ("setup_boots", m.setup_s.len().to_string()),
        ("steal_ms_during_phase", format!("{:.0}", p.steal_ms)),
    ];
    env.extend(m.env.iter().cloned());
    println!("== servebench {} ==", w.name());
    for (k, v) in &env {
        println!("env {k}: {v}");
    }
    println!("setup_s samples: {:?}", m.setup_s);
    println!("latency from scheduled send: {}", latency.line("us"));
    println!(
        "latency_p50_us (lower quartile of quarter-second medians): {:.1} us",
        p.quiet_p50_us
    );
    println!(
        "offered {:.0}/s, achieved {:.0}/s over {:.2} s; generator lateness p99 {:.1} us, max {:.1} us",
        w.rate(),
        p.outcome.replies.len() as f64 / p.outcome.elapsed.as_secs_f64(),
        p.outcome.elapsed.as_secs_f64(),
        lateness.p99,
        lateness.max
    );
    println!(
        "server: cpu {:.3} s over {completed} completed ops, VmHWM {} kB, {} threads",
        p.cpu_s, p.hwm_kb, p.threads
    );
    println!("checks: {}", m.report.summary());
    if m.report.echoed_observes > 0 {
        println!(
            "windows shorter than the history sent (trims fired): {}; observes echoing a bound: {}",
            m.report.trimmed_windows, m.report.echoed_observes
        );
    }
    let delta = |name: &str| counter(&p.metrics_after, name) - counter(&p.metrics_before, name);
    println!(
        "server counters over the phase: spill compactions {}, restores {}, evictions {}, journal commits {}, fsyncs {}",
        delta("serve.hibernate.spill_compactions"),
        delta("serve.hibernate.restores"),
        delta("serve.hibernate.evictions"),
        delta("journal.commits"),
        delta("journal.fsyncs"),
    );
    if m.report.replay_compared > 0 {
        println!(
            "harness-order replay: {} of {} measured bounds differ ({} in preparation)",
            m.report.replay_mismatched, m.report.replay_compared, m.report.prep_replay_mismatched
        );
    }
    for e in &m.report.examples {
        println!("  e.g. {e}");
    }
    for b in &m.broken {
        println!("VERIFICATION BROKEN: {b}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if a.trace {
        for &(name, v, unit) in layer_metrics {
            metrics.push((name.into(), v, unit));
        }
        let after = &p.metrics_after;
        let proto = match m.wire {
            Wire::Json => "json",
            Wire::Bin => "bin",
        };
        let mut stage_sum = 0.0;
        for stage in ["decode", "queue", "handle", "reply"] {
            let v = histogram_p50(after, &format!("serve.stage.{proto}.{stage}_ns")).unwrap_or(0.0);
            stage_sum += v;
            metrics.push((format!("server.stage.{stage}_ns_p50"), v, "ns"));
        }
        metrics.push((
            "server.batch_size_p50".into(),
            histogram_p50(after, "serve.batch_size").unwrap_or(0.0),
            "count",
        ));
        metrics.push(("server.threads".into(), p.threads as f64, "count"));
        let restores = delta("serve.hibernate.restores");
        metrics.push((
            "hibernate.resident_hit_ratio".into(),
            1.0 - restores / completed.max(1) as f64,
            "ratio",
        ));
        metrics.push(("reconcile.layer_sum_us".into(), stage_sum / 1e3, "us"));
        metrics.push(("latency_p50_us".into(), p.quiet_p50_us, "us"));
        println!(
            "reconcile: layer_sum_us {:.1} (server stage p50s) beside latency_p50_us {:.1}",
            stage_sum / 1e3,
            p.quiet_p50_us
        );
    } else {
        metrics.push(("setup_s".into(), stats::median(&m.setup_s), "s"));
        metrics.push((
            "server_cpu_us_per_op".into(),
            p.cpu_s * 1e6 / completed.max(1) as f64,
            "us",
        ));
        metrics.push(("server_rss_peak_mb".into(), p.hwm_kb as f64 / 1024.0, "MB"));
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v:.4} {unit}");
    }

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    );
    let correct = m.broken.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(m.report.attempted as f64)),
        ("failed".into(), Json::Num(m.report.failed as f64)),
        ("metrics".into(), metrics_json),
    ]);
    let mut record = match &result {
        Json::Obj(members) => members.clone(),
        _ => unreachable!(),
    };
    record.push((
        "env".into(),
        Json::Obj(
            env.iter()
                .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                .collect(),
        ),
    ));
    record.push((
        "latency_us".into(),
        Json::Obj(vec![
            ("p50".into(), Json::Num(latency.p50)),
            ("p90".into(), Json::Num(latency.p90)),
            ("p99".into(), Json::Num(latency.p99)),
            (latency.tail_label.into(), Json::Num(latency.tail)),
            ("beyond".into(), Json::Num(latency.beyond as f64)),
            ("max".into(), Json::Num(latency.max)),
        ]),
    ));
    record.push((
        "lateness_us".into(),
        Json::Obj(vec![
            ("p99".into(), Json::Num(lateness.p99)),
            ("max".into(), Json::Num(lateness.max)),
        ]),
    ));
    record.push((
        "checks".into(),
        Json::Obj(
            m.report
                .by_check
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                .collect(),
        ),
    ));
    write_record(root, w, a, &Json::Obj(record))?;
    println!("{}", result.to_string_compact());
    Ok(())
}

/// Keeps every run's result, with its environment, for `compare`.
fn write_record(root: &Path, w: Workload, a: &Args, record: &Json) -> Result<(), String> {
    let dir = root.join(BENCH_DIR).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!(
        "{ms}-{}-seed{}-trace{}.json",
        w.name(),
        a.seed,
        a.trace as u8
    ));
    std::fs::write(&path, record.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
