//! Independent output checks, computed from the benchmark's own log of
//! what it sent, never from the server's code paths.
//!
//! * A served BMBP bound is the k-th smallest of the partition's most
//!   recent `n` waits (`n` from the reply). `k` is the smallest index with
//!   `P[Bin(n, q) <= k-1] >= C`, summed here for n < 200, and
//!   `ceil(nq + z_C·sqrt(nq(1-q)))` from 200 on (the paper appendix's rule).
//! * An admit means bound <= budget with margin exactly budget - bound; a
//!   reject the reverse.
//! * A log-normal bound is at least exp(mean ln(w+1)) - 1 over the
//!   partition's waits (no run feeds the log-normal predictor outcomes,
//!   so its window is the whole history).
//! * A reply's `seq` equals the count of observes this benchmark has sent
//!   to that partition.
//! * write_bin only: each partition is replayed through
//!   `qdelay_predict::bmbp::Bmbp` in the offline harness's order (observe,
//!   then `record_outcome`); a served bound differing in any bit fails.

use crate::load::{Key, Op, Outcome, Reply};
use qdelay_json::Json;
use qdelay_predict::admission::Decision;
use qdelay_predict::bmbp::Bmbp;
use qdelay_predict::QuantilePredictor;
use qdelay_serve::registry::PartitionKey;
use qdelay_serve::snapshot;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

const Q: f64 = 0.95;
const C: f64 = 0.95;
/// Φ⁻¹(0.95), the one-sided 95% normal quantile.
const Z_C: f64 = 1.644_853_626_951_472_7;
/// n from which the appendix's normal approximation replaces the exact
/// binomial sum (n·(1-q) >= 10).
const APPROX_FROM: usize = 200;

/// 1-based order-statistic index of the 95/95 upper bound, or `None` when
/// `n` is too small for one.
pub fn upper_index(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let k = if n >= APPROX_FROM {
        let nf = n as f64;
        (nf * Q + Z_C * (nf * Q * (1.0 - Q)).sqrt()).ceil() as usize
    } else {
        // P[Bin(n,q) = j] built up from j = 0 in log space.
        let ln_q = Q.ln();
        let ln_p = (1.0 - Q).ln();
        let mut ln_choose = 0.0f64;
        let mut cdf = 0.0f64;
        let mut k = n + 1;
        for j in 0..=n {
            if j > 0 {
                ln_choose += ((n - j + 1) as f64).ln() - (j as f64).ln();
            }
            cdf += (ln_choose + j as f64 * ln_q + (n - j) as f64 * ln_p).exp();
            if cdf >= C {
                k = j + 1;
                break;
            }
        }
        k
    };
    (k <= n).then_some(k)
}

/// The expected BMBP bound over `window` (the most recent n waits).
pub fn expected_bmbp(window: &[f64]) -> Option<f64> {
    let k = upper_index(window.len())?;
    let mut w = window.to_vec();
    w.sort_by(f64::total_cmp);
    Some(w[k - 1])
}

/// Failure counts by check, over the ops a run attempted.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub by_check: BTreeMap<&'static str, u64>,
    pub examples: Vec<String>,
    /// Harness-order replay: bounds compared and mismatches in the measured
    /// phase, and mismatches in the preparation phase (printed only).
    pub replay_compared: u64,
    pub replay_mismatched: u64,
    pub prep_replay_mismatched: u64,
    /// Measured bound replies whose window is shorter than the history
    /// sent: evidence that change-point trims fired.
    pub trimmed_windows: u64,
    /// Measured observes that carried a served bound back.
    pub echoed_observes: u64,
}

impl Report {
    pub fn fail(&mut self, check: &'static str, detail: String) {
        *self.by_check.entry(check).or_default() += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("{check}: {detail}"));
        }
    }

    fn failed_checks(&self) -> u64 {
        self.by_check.values().sum()
    }

    pub fn summary(&self) -> String {
        let mut s = format!("attempted {} failed {}", self.attempted, self.failed);
        for (check, n) in &self.by_check {
            s.push_str(&format!("  [{check}: {n}]"));
        }
        s
    }
}

/// One phase of ops against one server, in send order.
pub struct Phase<'a> {
    pub ops: &'a [Op],
    pub outcome: &'a Outcome,
    /// Whether the phase's ops count as attempted (the measured phase);
    /// preparation ops are checked the same way but reported apart.
    pub measured: bool,
}

/// Per-partition running state of the checker.
struct PartLog {
    waits: Vec<f64>,
    /// Prefix sums of ln(w+1), for the log-normal floor.
    ln_sum: Vec<f64>,
}

/// Walks every phase in send order, checking each reply against the
/// benchmark's own log. `history[p]` is what partition `p` held before
/// the first phase. Returns the report over the measured phases and the
/// number of failures seen in preparation phases.
pub fn check(history: &[Vec<f64>], phases: &[Phase<'_>], replay: bool) -> (Report, u64) {
    let mut logs: Vec<PartLog> = history
        .iter()
        .map(|h| {
            let mut ln_sum = vec![0.0];
            for w in h {
                ln_sum.push(ln_sum.last().unwrap() + (w + 1.0).ln());
            }
            PartLog {
                waits: h.clone(),
                ln_sum,
            }
        })
        .collect();
    let mut report = Report::default();
    let mut prep = Report::default();
    let mut memo: HashMap<(usize, usize, usize), Option<f64>> = HashMap::new();
    // Per-partition replay predictors in harness order (write_bin only).
    let mut replayers: Vec<Option<Bmbp>> = (0..history.len()).map(|_| None).collect();
    if replay {
        for (p, h) in history.iter().enumerate() {
            let mut b = Bmbp::with_defaults();
            for &w in h {
                b.observe(w);
            }
            replayers[p] = Some(b);
        }
    }
    for phase in phases {
        let r = if phase.measured {
            &mut report
        } else {
            &mut prep
        };
        for (i, op) in phase.ops.iter().enumerate() {
            if phase.measured {
                r.attempted += 1;
            }
            let reply = &phase.outcome.replies[i];
            let log = &mut logs[op.part()];
            let before = r.failed_checks();
            match (op, reply) {
                (_, Reply::Error(e)) => r.fail("error_reply", format!("op {i}: {e}")),
                (Op::Observe { wait, .. }, Reply::Observe { seq }) => {
                    if phase.outcome.echoed[i].is_some() {
                        r.echoed_observes += 1;
                    }
                    log.ln_sum
                        .push(log.ln_sum.last().unwrap() + (wait + 1.0).ln());
                    log.waits.push(*wait);
                    if *seq != log.waits.len() as u64 {
                        r.fail(
                            "observe_seq",
                            format!("op {i}: seq {seq}, sent {}", log.waits.len()),
                        );
                    }
                    if let Some(b) = replayers[op.part()].as_mut() {
                        b.observe(*wait);
                        if let Some(p) = phase.outcome.echoed[i] {
                            b.record_outcome(p, *wait);
                        }
                    }
                }
                (
                    Op::Predict { .. },
                    Reply::Predict {
                        n,
                        seq,
                        bmbp,
                        lognormal,
                    },
                ) => {
                    let expected = bound_checks(r, &mut memo, op.part(), log, i, *n, *seq);
                    if let Some(expected) = expected {
                        if bmbp.map(f64::to_bits) != expected.map(f64::to_bits) {
                            r.fail(
                                "bmbp_kth",
                                format!("op {i}: served {bmbp:?}, k-th smallest {expected:?}"),
                            );
                        }
                    }
                    lognormal_floor(r, log, i, *seq, *lognormal);
                    if let Some(b) = replayers[op.part()].as_mut() {
                        b.refit();
                        let mine = b.current_bound().value();
                        if mine.map(f64::to_bits) != bmbp.map(f64::to_bits) {
                            r.replay_mismatched += 1;
                            if phase.measured {
                                r.fail(
                                    "harness_order",
                                    format!("op {i}: served {bmbp:?}, harness order {mine:?}"),
                                );
                            }
                        }
                        r.replay_compared += 1;
                    }
                }
                (Op::Admit { budget, .. }, Reply::Admit { n, seq, decision }) => {
                    let expected = bound_checks(r, &mut memo, op.part(), log, i, *n, *seq);
                    admit_checks(r, i, *budget, decision, expected.flatten());
                }
                (op, reply) => r.fail("reply_kind", format!("op {i}: {op:?} answered {reply:?}")),
            }
            if r.failed_checks() > before {
                r.failed += 1;
            }
        }
    }
    report.prep_replay_mismatched = prep.replay_mismatched;
    (report, prep.failed)
}

/// Checks `seq` and `n` of a bound-carrying reply and returns the BMBP
/// bound the log predicts (`None` when they are inconsistent).
fn bound_checks(
    r: &mut Report,
    memo: &mut HashMap<(usize, usize, usize), Option<f64>>,
    part: usize,
    log: &PartLog,
    i: usize,
    n: u64,
    seq: u64,
) -> Option<Option<f64>> {
    let sent = log.waits.len();
    if seq != sent as u64 {
        r.fail("predict_seq", format!("op {i}: seq {seq}, sent {sent}"));
        return None;
    }
    if n > seq {
        r.fail("window", format!("op {i}: n {n} > seq {seq}"));
        return None;
    }
    if n < seq {
        r.trimmed_windows += 1;
    }
    let (n, seq) = (n as usize, seq as usize);
    Some(
        *memo
            .entry((part, seq, n))
            .or_insert_with(|| expected_bmbp(&log.waits[seq - n..seq])),
    )
}

fn lognormal_floor(r: &mut Report, log: &PartLog, i: usize, seq: u64, served: Option<f64>) {
    let seq = seq as usize;
    if seq >= log.ln_sum.len() {
        return; // already failed predict_seq
    }
    match served {
        None if seq >= 2 => r.fail(
            "lognormal_missing",
            format!("op {i}: no bound at {seq} waits"),
        ),
        None => {}
        Some(b) => {
            let floor = (log.ln_sum[seq] / seq as f64).exp() - 1.0;
            if b.is_nan() || b < floor * (1.0 - 1e-9) {
                r.fail(
                    "lognormal_floor",
                    format!("op {i}: {b} below exp(mean log) - 1 = {floor}"),
                );
            }
        }
    }
}

fn admit_checks(r: &mut Report, i: usize, budget: f64, d: &Decision, expected: Option<f64>) {
    let Some(expected) = expected else {
        if !matches!(d, Decision::Defer { .. }) {
            r.fail(
                "admit_decision",
                format!("op {i}: {d:?} with no bound to decide on"),
            );
        }
        return;
    };
    match *d {
        Decision::Admit { bound, margin } => {
            if bound.is_nan() || bound > budget || margin.to_bits() != (budget - bound).to_bits() {
                r.fail(
                    "admit_margin",
                    format!("op {i}: admit bound {bound} budget {budget} margin {margin}"),
                );
            }
            if bound.to_bits() != expected.to_bits() {
                r.fail(
                    "admit_bound",
                    format!("op {i}: bound {bound}, k-th smallest {expected}"),
                );
            }
        }
        Decision::Reject { bound, margin } => {
            if bound.is_nan() || bound <= budget || margin.to_bits() != (bound - budget).to_bits() {
                r.fail(
                    "admit_margin",
                    format!("op {i}: reject bound {bound} budget {budget} margin {margin}"),
                );
            }
            if bound.to_bits() != expected.to_bits() {
                r.fail(
                    "admit_bound",
                    format!("op {i}: bound {bound}, k-th smallest {expected}"),
                );
            }
        }
        Decision::Defer { .. } => r.fail(
            "admit_decision",
            format!("op {i}: defer although a bound exists"),
        ),
    }
}

/// Checks the file snapshot a run ended with: every partition present,
/// its cursor equal to the waits sent, and both predictors' retained
/// histories equal to the tail of that log.
pub fn snapshot_tails(path: &Path, keys: &[Key], log: &[Vec<f64>]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("snapshot JSON: {e}"))?;
    let (parts, _) = snapshot::decode(&doc)?;
    if parts.len() != keys.len() {
        return Err(format!(
            "snapshot holds {} partitions, sent to {}",
            parts.len(),
            keys.len()
        ));
    }
    let index: HashMap<String, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            (
                PartitionKey::for_request(&k.site, &k.queue, k.procs).label(),
                i,
            )
        })
        .collect();
    for s in &parts {
        let label = PartitionKey {
            site: s.site.clone(),
            queue: s.queue.clone(),
            range: s.range,
        }
        .label();
        let sent = &log[*index
            .get(&label)
            .ok_or_else(|| format!("unknown partition {label}"))?];
        let tail_of =
            |kept: &[f64]| kept.len() <= sent.len() && kept == &sent[sent.len() - kept.len()..];
        if s.seq != sent.len() as u64 || !tail_of(&s.bmbp.waits) || !tail_of(&s.lognormal.waits) {
            return Err(format!(
                "{label}: seq {} with {}/{} retained waits is not the tail of the {} sent",
                s.seq,
                s.bmbp.waits.len(),
                s.lognormal.waits.len(),
                sent.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_paper_values() {
        assert_eq!(upper_index(58), None);
        assert_eq!(upper_index(59), Some(59));
        // Exact and approximate indices agree with the predictor crate.
        for n in 1..400 {
            let spec = qdelay_predict::bound::BoundSpec::paper_default();
            let theirs = qdelay_predict::bound::upper_index(
                n,
                spec,
                qdelay_predict::bound::BoundMethod::Auto,
            );
            assert_eq!(upper_index(n), theirs, "n = {n}");
        }
    }

    #[test]
    fn kth_smallest_of_window() {
        let w: Vec<f64> = (0..59).rev().map(f64::from).collect();
        assert_eq!(expected_bmbp(&w), Some(58.0));
        assert_eq!(expected_bmbp(&w[..58]), None);
    }
}
