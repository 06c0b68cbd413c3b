//! `qdelay serve` as a child process: spawn, time set-up to the first
//! successful reply, read its CPU time and memory from `/proc`, stop it.

use crate::load;
use qdelay_json::Json;
use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a server may take to come up before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(150);

pub struct Server {
    child: Child,
    pub pid: u32,
    pub json_addr: SocketAddr,
    pub bin_addr: Option<SocketAddr>,
}

impl Server {
    /// Spawns `qdelay serve <args>` on ephemeral loopback ports with its
    /// stderr in `log`, and returns once a `stats` request succeeds:
    /// the server, the seconds from spawn to that reply (set-up time, which
    /// includes restoring whatever state `args` point it at), and the reply.
    pub fn start(
        qdelay: &Path,
        args: &[String],
        log: &Path,
    ) -> Result<(Server, f64, Json), String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let child = Command::new(qdelay)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", qdelay.display()))?;
        let pid = child.id();
        // Dropping `server` on any error below kills and reaps the child.
        let mut server = Server {
            child,
            pid,
            json_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            bin_addr: None,
        };
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(line) = text.lines().find(|l| l.contains("serving on ")) {
                let (json, bin) = parse_banner(line)?;
                server.json_addr = json;
                server.bin_addr = bin;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("qdelay serve exited with {status} at boot: {text}"));
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err(format!(
                    "qdelay serve did not come up in {BOOT_TIMEOUT:?}: {text}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = load::control(server.json_addr, r#"{"method":"stats"}"#)?;
        let setup = t0.elapsed().as_secs_f64();
        Ok((server, setup, stats))
    }

    /// Server user+system CPU time so far, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("/proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| {
            f.get(i)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or("malformed stat")
        };
        Ok(num(11)? + num(12)?)
    }

    /// A numeric field of `/proc/<pid>/status` (`VmHWM`, `Threads`, ...).
    pub fn status_field(&self, name: &str) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("no {name} in /proc/{}/status", self.pid))
    }

    /// Ends the server with SIGKILL and waits for it. Every workload's
    /// state lives in files the benchmark already holds, so there is
    /// nothing for a graceful shutdown to save.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Parses `qdelay: serving on A (binary on B) ...`.
fn parse_banner(line: &str) -> Result<(SocketAddr, Option<SocketAddr>), String> {
    let addr = |s: &str| -> Result<SocketAddr, String> {
        let tok: String = s
            .chars()
            .take_while(|c| !c.is_whitespace() && *c != ')')
            .collect();
        tok.parse()
            .map_err(|e| format!("bad address {tok:?} in {line:?}: {e}"))
    };
    let json = addr(
        line.split("serving on ")
            .nth(1)
            .ok_or("no address in banner")?,
    )?;
    let bin = match line.split("(binary on ").nth(1) {
        Some(rest) => Some(addr(rest)?),
        None => None,
    };
    Ok((json, bin))
}

/// Clock ticks per second of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer selector and has no memory-safety
    // preconditions; _SC_CLK_TCK is 2 on Linux.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_addresses_parse() {
        let (j, b) = parse_banner(
            "qdelay: serving on 127.0.0.1:37875 (binary on 127.0.0.1:34779) (4 shards)",
        )
        .unwrap();
        assert_eq!(j.port(), 37875);
        assert_eq!(b.unwrap().port(), 34779);
        let (_, b) =
            parse_banner("qdelay: serving on 127.0.0.1:1 (4 shards, snapshots at x)").unwrap();
        assert!(b.is_none());
    }
}
