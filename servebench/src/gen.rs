//! The three workloads' inputs, generated from the run's seed.
//!
//! | workload | wire | partitions | history | measured ops |
//! |---|---|---|---|---|
//! | `read_json` | JSON | 300 | 200-299 waits | 75% predict, 25% admit |
//! | `write_bin` | binary | 2000 | level-shift series, 150 prepared jobs | predict + observe per job |
//! | `cold_capacity_bin` | binary | 20000 | 60-79 waits | predict, uniform over the registry |

use crate::load::{Echo, Key, Op};
use qdelay_rng::{Distribution, Exp1, Rng, StandardNormal, StdRng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadJson,
    WriteBin,
    ColdCapacityBin,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadJson,
        Workload::WriteBin,
        Workload::ColdCapacityBin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadJson => "read_json",
            Workload::WriteBin => "write_bin",
            Workload::ColdCapacityBin => "cold_capacity_bin",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered load of the measured phase, in requests per second.
    pub fn rate(self) -> f64 {
        match self {
            // About a quarter of one JSON connection's saturation on a
            // 2-CPU host.
            Workload::ReadJson => 10_000.0,
            Workload::WriteBin => 4_000.0,
            // Nearly every request restores one partition and evicts
            // another. 25 000 touches in 10 s pass every shard's compaction
            // trigger once, and the stalls drain without filling the shard
            // queues (1024 each).
            Workload::ColdCapacityBin => 2_500.0,
        }
    }
}

pub const READ_PARTS: usize = 300;
pub const WRITE_PARTS: usize = 2000;
/// Jobs each write_bin partition runs before the measured phase.
pub const WRITE_PREP_JOBS: usize = 150;
/// Jobs predicted between a job's predict and its observe.
pub const WRITE_LAG: usize = 4;
pub const COLD_PARTS: usize = 20_000;
/// `--max-resident` (per shard) for cold_capacity_bin: with the server's
/// default 4 shards, 200 resident partitions, 1% of the registry.
pub const COLD_CAP_PER_SHARD: usize = 50;
/// Base of the seed every write_bin partition's wait series is drawn
/// from. The series do not depend on `--seed` (see `write_bin`).
const WRITE_SERIES_SEED: u64 = 0x5752_4954_455f_4249;

/// A workload's partitions and the waits observed before the run.
pub struct Registry {
    pub keys: Vec<Key>,
    /// Waits already observed per partition before the measured phase,
    /// oldest first.
    pub history: Vec<Vec<f64>>,
}

fn lognormal_wait(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    let z: f64 = StandardNormal.sample(rng);
    (median * (sigma * z).exp()).round()
}

/// Poisson arrivals at `rate` per second: due times in ns from the start.
pub fn poisson_schedule(rng: &mut StdRng, n: usize, rate: f64) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let gap: f64 = Exp1.sample(rng);
            t += gap / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// read_json: a few hundred partitions, each with 200-299 log-normal waits
/// (median 30 s to 10 min), so every bound is served and every predict is
/// clean. `medians` is each partition's median wait, used to size budgets.
pub fn read_json(rng: &mut StdRng) -> (Registry, Vec<f64>) {
    let mut keys = Vec::with_capacity(READ_PARTS);
    let mut history = Vec::with_capacity(READ_PARTS);
    let mut medians = Vec::with_capacity(READ_PARTS);
    for i in 0..READ_PARTS {
        let procs = 1u32 << rng.gen_range(0..8);
        keys.push(Key {
            site: format!("rj{i:03}"),
            queue: ["normal", "express", "long"][i % 3].to_string(),
            procs,
        });
        let median = 30.0 * (3.0 * rng.gen_f64()).exp();
        let sigma = 0.5 + rng.gen_f64();
        let len = 200 + rng.gen_range(0..100);
        history.push(
            (0..len)
                .map(|_| lognormal_wait(rng, median, sigma))
                .collect(),
        );
        medians.push(median);
    }
    (Registry { keys, history }, medians)
}

/// read_json's measured ops: uniform partitions, a quarter of them admit
/// checks whose budgets straddle the partition's bound.
pub fn read_json_ops(rng: &mut StdRng, medians: &[f64], n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let part = rng.gen_range(0..medians.len());
            if rng.gen_bool(0.25) {
                let budget = (medians[part] * (4.0 * rng.gen_f64()).exp()).round();
                Op::Admit {
                    part: part as u32,
                    budget,
                }
            } else {
                Op::Predict { part: part as u32 }
            }
        })
        .collect()
}

/// write_bin's partitions and every job's wait.
///
/// Each partition's level changes every 25-55 jobs (per-partition period
/// and phase): half the time it jumps to 1-55 times its base, otherwise it
/// returns to the base. A jump above everything in the history produces
/// the consecutive misses that fire §4.1 trims.
///
/// The series are drawn from `WRITE_SERIES_SEED`, not from the run's seed:
/// the server's harness-order mismatches on them are then a fixed count
/// for a given number of jobs, which keeps the failed share of every run
/// equal. The run's seed sets arrival times and how partitions interleave.
pub fn write_bin(jobs: usize) -> (Vec<Key>, Vec<Vec<f64>>) {
    let mut keys = Vec::with_capacity(WRITE_PARTS);
    let mut waits = Vec::with_capacity(WRITE_PARTS);
    for p in 0..WRITE_PARTS {
        let mut rng = StdRng::seed_from_u64(WRITE_SERIES_SEED ^ p as u64);
        keys.push(Key {
            site: format!("wb{p:04}"),
            queue: "batch".to_string(),
            procs: 1 + (p % 64) as u32,
        });
        let base = 30.0 * (3.0 * rng.gen_f64()).exp();
        let period = 25 + 10 * (p % 4);
        let phase = p % period;
        let mut level = base;
        let mut series = Vec::with_capacity(jobs);
        for j in 0..jobs {
            if (j + phase) % period == 0 {
                level = if rng.gen_bool(0.5) {
                    base * (4.0 * rng.gen_f64()).exp()
                } else {
                    base
                };
            }
            series.push(lognormal_wait(&mut rng, level, 0.5));
        }
        waits.push(series);
    }
    (keys, waits)
}

/// write_bin's op stream for jobs `first..last`: in round `r` every
/// partition observes job `r - WRITE_LAG`, echoing the BMBP bound served
/// to that job's predict, then predicts job `r`. The lag stands for the
/// queue wait itself: a job's wait is revealed only after later jobs were
/// predicted. The seeded shuffle interleaves partitions but keeps each
/// partition's observe before its predict, so each partition's op
/// sequence is the same in every run.
///
/// `prior[p][job]` is the bound served to `job` of partition `p` in an
/// earlier phase (every job before `first`).
pub fn write_bin_ops(
    rng: &mut StdRng,
    waits: &[Vec<f64>],
    first: usize,
    last: usize,
    prior: &[Vec<Option<f64>>],
) -> Vec<Op> {
    let parts = waits.len();
    let mut ops = Vec::with_capacity((last - first) * parts * 2);
    // Op index of each partition's predict of each job of this phase.
    let mut predict_op = vec![vec![usize::MAX; last - first]; parts];
    for r in first..last {
        let mut slots: Vec<u32> = if r < WRITE_LAG {
            (0..parts as u32).collect()
        } else {
            (0..parts as u32).flat_map(|p| [p, p]).collect()
        };
        shuffle(rng, &mut slots);
        let mut observed = vec![r < WRITE_LAG; parts];
        for p in slots {
            let pi = p as usize;
            if !observed[pi] {
                observed[pi] = true;
                let job = r - WRITE_LAG;
                let echo = if job >= first {
                    Echo::Op(predict_op[pi][job - first])
                } else {
                    Echo::Value(prior[pi][job])
                };
                ops.push(Op::Observe {
                    part: p,
                    wait: waits[pi][job],
                    echo,
                });
            } else {
                predict_op[pi][r - first] = ops.len();
                ops.push(Op::Predict { part: p });
            }
        }
    }
    ops
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// cold_capacity_bin: 20k partitions with 60-79 waits each.
pub fn cold_capacity(rng: &mut StdRng) -> Registry {
    let mut keys = Vec::with_capacity(COLD_PARTS);
    let mut history = Vec::with_capacity(COLD_PARTS);
    for i in 0..COLD_PARTS {
        keys.push(Key {
            site: format!("cc{i:05}"),
            queue: format!("q{}", i % 8),
            procs: 1 + rng.gen_range(0..128) as u32,
        });
        let median = 30.0 * (3.0 * rng.gen_f64()).exp();
        let len = 60 + rng.gen_range(0..20);
        history.push((0..len).map(|_| lognormal_wait(rng, median, 0.8)).collect());
    }
    Registry { keys, history }
}

/// cold_capacity_bin's measured ops: predicts spread uniformly.
pub fn cold_ops(rng: &mut StdRng, parts: usize, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| Op::Predict {
            part: rng.gen_range(0..parts) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_rounds_keep_per_partition_order() {
        let (_, waits) = write_bin(7);
        let waits: Vec<Vec<f64>> = waits.into_iter().take(5).collect();
        let ops = write_bin_ops(&mut StdRng::seed_from_u64(1), &waits, 0, 7, &[]);
        assert_eq!(ops.len(), 4 * 5 + 3 * 5 * 2);
        for p in 0..5 {
            let kinds: Vec<bool> = ops
                .iter()
                .filter(|o| o.part() == p)
                .map(|o| matches!(o, Op::Predict { .. }))
                .collect();
            assert_eq!(
                kinds,
                [true, true, true, true, false, true, false, true, false, true]
            );
        }
    }

    #[test]
    fn series_ignore_the_run_seed_but_schedules_do_not() {
        assert_eq!(write_bin(10).1, write_bin(10).1);
        let a = poisson_schedule(&mut StdRng::seed_from_u64(1), 10, 100.0);
        let b = poisson_schedule(&mut StdRng::seed_from_u64(2), 10, 100.0);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod fault {
    use super::*;
    use qdelay_predict::bmbp::Bmbp;
    use qdelay_predict::QuantilePredictor;

    /// write_bin's series must fire trims, and the server's order
    /// (outcome, then observe) must then serve bounds the harness order
    /// (observe, then outcome) does not: that fault is what the workload
    /// keeps visible.
    #[test]
    fn series_trim_and_expose_the_feedback_order() {
        let jobs = WRITE_PREP_JOBS + 10;
        let (_, waits) = write_bin(jobs);
        let (mut trims, mut differ) = (0, 0);
        for w in waits.iter().take(200) {
            let (mut server, mut harness) = (Bmbp::with_defaults(), Bmbp::with_defaults());
            let mut served = vec![None; jobs];
            for j in 0..jobs {
                if j >= WRITE_LAG {
                    let o = j - WRITE_LAG;
                    if let Some(b) = served[o] {
                        server.record_outcome(b, w[o]);
                    }
                    server.observe(w[o]);
                    harness.observe(w[o]);
                    if let Some(b) = served[o] {
                        harness.record_outcome(b, w[o]);
                    }
                }
                server.refit();
                harness.refit();
                served[j] = server.current_bound().value();
                if served[j].map(f64::to_bits) != harness.current_bound().value().map(f64::to_bits)
                {
                    differ += 1;
                }
            }
            trims += server.trims();
        }
        assert!(
            trims > 0 && differ > 0,
            "{trims} trims, {differ} differing bounds"
        );
    }
}
