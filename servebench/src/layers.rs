//! The traced run's in-process layer timings: each public function a
//! request crosses, run on the inputs of the workload that exercises it.
//! Timed from the benchmark's own code around each call; the server's
//! own stage histograms come over the wire (see `main.rs`).

use crate::gen::{self, COLD_CAP_PER_SHARD, WRITE_LAG, WRITE_PARTS, WRITE_PREP_JOBS};
use crate::load::{self, Key, Op, Wire};
use crate::stats;
use qdelay_journal::{JournalWriter, Record, RecoverMode};
use qdelay_json::Json;
use qdelay_predict::admission;
use qdelay_predict::changepoint::ThresholdTable;
use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay_rng::{Rng, StdRng};
use qdelay_serve::hibernate::PartitionStore;
use qdelay_serve::registry::{Partition, PartitionKey};
use qdelay_serve::snapshot::{self, PartitionSnapshot};
use qdelay_serve::{proto, protocol};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Shards of a default `qdelay serve`, for routing and the per-shard
/// share of the cold registry.
const SHARDS: usize = 4;
/// Records per group commit in the journal timing: write_bin's server
/// drains about this many observes per shard wakeup at its rate.
const COMMIT_GROUP: usize = 4;
const BATCHES: usize = 7;

/// One named per-layer value.
pub type Metric = (&'static str, f64, &'static str);

/// Median over `BATCHES` batches of `iters` calls of the per-call time.
fn per_call_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f(i);
            i += 1;
        }
        per.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&per)
}

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn pkey(k: &Key) -> PartitionKey {
    PartitionKey::for_request(&k.site, &k.queue, k.procs)
}

fn build(history: &[f64]) -> Partition {
    let mut p = Partition::new();
    for &w in history {
        p.observe(w, None, None);
    }
    p
}

/// Every in-process layer metric. Must run before anything else in the
/// process touches the K-factor or threshold tables: their first use is
/// what `predict.*` times. `seed` drives the inputs; `work` is scratch.
pub fn measure(seed: u64, work: &Path) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4c41_5945_5253);

    let t = Instant::now();
    LogNormalPredictor::prewarm_k_factors(&LogNormalConfig::trim());
    out.push((
        "predict.kfactor_prewarm_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    let t = Instant::now();
    black_box(ThresholdTable::default_table());
    out.push(("predict.threshold_table_s", t.elapsed().as_secs_f64(), "s"));

    // write_bin's registry, built the way the server builds it: each job
    // predicts, then observes with the bound it was served.
    let (wkeys, waits) = gen::write_bin(WRITE_PREP_JOBS + BATCHES);
    let rss0 = rss_kb();
    let mut wparts: Vec<Partition> = (0..WRITE_PARTS).map(|_| Partition::new()).collect();
    let mut served = vec![Vec::new(); WRITE_PARTS];
    let mut records = Vec::with_capacity(WRITE_PARTS * WRITE_PREP_JOBS);
    for j in 0..WRITE_PREP_JOBS {
        for (p, part) in wparts.iter_mut().enumerate() {
            if j >= WRITE_LAG {
                let o = j - WRITE_LAG;
                let seq = part.observe(waits[p][o], served[p][o], None);
                records.push(record(&wkeys[p], seq, waits[p][o], served[p][o]));
            }
            served[p].push(part.predict().bmbp);
        }
    }
    let observations = records.len() as f64;
    let grown = rss_kb().saturating_sub(rss0) as f64 * 1024.0;
    out.push(("registry.bytes_per_observation", grown / observations, "B"));

    // Observe with feedback, then the dirty predict that refits.
    let mut observe_ns = Vec::new();
    let mut refit_ns = Vec::new();
    for j in WRITE_PREP_JOBS..WRITE_PREP_JOBS + BATCHES {
        let o = j - WRITE_LAG;
        let t = Instant::now();
        for (p, part) in wparts.iter_mut().enumerate() {
            black_box(part.observe(waits[p][o], served[p][o], None));
        }
        observe_ns.push(t.elapsed().as_nanos() as f64 / WRITE_PARTS as f64);
        let t = Instant::now();
        for (p, part) in wparts.iter_mut().enumerate() {
            served[p].push(black_box(part.predict()).bmbp);
        }
        refit_ns.push(t.elapsed().as_nanos() as f64 / WRITE_PARTS as f64);
    }
    out.push(("registry.observe_ns", stats::median(&observe_ns), "ns"));
    out.push(("registry.refit_ns", stats::median(&refit_ns), "ns"));
    drop(wparts);

    // read_json: JSON codec and clean predicts.
    let (reg, medians) = gen::read_json(&mut rng);
    let rops = gen::read_json_ops(&mut rng, &medians, 4096);
    let mut rparts: Vec<Partition> = reg.history.iter().map(|h| build(h)).collect();
    let labels: Vec<String> = reg.keys.iter().map(|k| pkey(k).label()).collect();
    let preds: Vec<_> = rparts.iter_mut().map(|p| p.predict()).collect();
    out.push((
        "registry.predict_clean_ns",
        per_call_ns(4096, |i| {
            let n = rparts.len();
            black_box(rparts[i % n].predict());
        }),
        "ns",
    ));
    let lines: Vec<String> = rops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut buf = Vec::new();
            load::encode(&mut buf, Wire::Json, &reg.keys, i as u64 + 1, op, None);
            String::from_utf8(buf)
                .expect("JSON is UTF-8")
                .trim_end()
                .to_string()
        })
        .collect();
    let json_decode = per_call_ns(4096, |i| {
        let v = Json::parse(&lines[i % lines.len()]).expect("request parses");
        black_box(protocol::parse_request(&v).1.expect("request validates"));
    });
    out.push(("protocol.decode_ns", json_decode, "ns"));
    let json_encode = per_call_ns(4096, |i| {
        let op = &rops[i % rops.len()];
        let p = &preds[op.part()];
        let id = Json::Num((i + 1) as f64);
        let line = match *op {
            Op::Admit { budget, .. } => {
                let d = admission::decide(p.bmbp, p.lognormal, p.n as u64, budget);
                protocol::admit_line(Some(&id), &labels[op.part()], p.n, p.seq, &d)
            }
            _ => protocol::predict_line(
                Some(&id),
                &labels[op.part()],
                p.n,
                p.seq,
                p.bmbp,
                p.lognormal,
            ),
        };
        black_box(line);
    });
    out.push(("protocol.encode_ns", json_encode, "ns"));
    drop(rparts);

    // Binary codec on write_bin's and cold_capacity_bin's requests.
    let wops = gen::write_bin_ops(&mut rng, &waits, 0, WRITE_LAG + 1, &[]);
    let mut frames: Vec<Vec<u8>> = wops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut buf = Vec::new();
            load::encode(&mut buf, Wire::Bin, &wkeys, i as u64 + 1, op, Some(120.0));
            buf
        })
        .collect();
    let creg = gen::cold_capacity(&mut rng);
    for (i, op) in gen::cold_ops(&mut rng, creg.keys.len(), 2048)
        .iter()
        .enumerate()
    {
        let mut buf = Vec::new();
        load::encode(&mut buf, Wire::Bin, &creg.keys, i as u64 + 1, op, None);
        frames.push(buf);
    }
    let bin_decode = per_call_ns(4096, |i| {
        let f = &frames[i % frames.len()];
        black_box(
            proto::decode_request(&f[qdelay_journal::frame::PREFIX_LEN..])
                .1
                .expect("request decodes"),
        );
    });
    out.push(("proto.decode_ns", bin_decode, "ns"));
    let mut buf = Vec::with_capacity(256);
    let bin_encode = per_call_ns(4096, |i| {
        buf.clear();
        if i % 2 == 0 {
            proto::encode_predict_resp(
                &mut buf,
                i as u64,
                "wb0001/batch/1-4",
                88,
                120,
                Some(1234.0),
                Some(2345.5),
            );
        } else {
            proto::encode_observe_resp(&mut buf, i as u64, "wb0001/batch/1-4", 121);
        }
        black_box(&buf);
    });
    out.push(("proto.encode_ns", bin_encode, "ns"));

    let all_keys: Vec<&Key> = reg.keys.iter().chain(&wkeys).chain(&creg.keys).collect();
    out.push((
        "registry.route_ns",
        per_call_ns(8192, |i| {
            let k = all_keys[i % all_keys.len()];
            black_box(PartitionKey::for_request(&k.site, &k.queue, k.procs).shard_index(SHARDS));
        }),
        "ns",
    ));

    out.extend(hibernate_and_snapshot(&creg, &mut rng, work)?);
    out.extend(journal(&records, work)?);
    Ok(out)
}

fn record(k: &Key, seq: u64, wait: f64, predicted_bmbp: Option<f64>) -> Record {
    Record {
        site: k.site.clone(),
        queue: k.queue.clone(),
        range: qdelay_trace::ProcRange::for_procs(k.procs)
            .label()
            .to_string(),
        seq,
        wait,
        predicted_bmbp,
        predicted_lognormal: None,
        tombstone: false,
    }
}

/// Snapshot encode/decode over the whole cold registry, then one shard's
/// share of it in a capped `PartitionStore`: restore on touch, evict to
/// the cap, and the spill compaction the touches make due.
fn hibernate_and_snapshot(
    creg: &gen::Registry,
    rng: &mut StdRng,
    work: &Path,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let snaps: Vec<PartitionSnapshot> = creg
        .keys
        .iter()
        .zip(&creg.history)
        .map(|(k, h)| build(h).to_snapshot(&pkey(k)))
        .collect();
    let t = Instant::now();
    let text = snapshot::encode(snaps.clone(), Vec::new()).to_string_compact();
    out.push(("snapshot.encode_ms", t.elapsed().as_secs_f64() * 1e3, "ms"));
    let path = work.join("layers-snapshot.json");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    out.push(("snapshot.bytes", text.len() as f64, "B"));
    drop(text);
    let t = Instant::now();
    let read = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&read).map_err(|e| format!("snapshot JSON: {e}"))?;
    let (decoded, _) = snapshot::decode(&doc)?;
    out.push(("snapshot.decode_ms", t.elapsed().as_secs_f64() * 1e3, "ms"));
    if decoded.len() != snaps.len() {
        return Err(format!(
            "snapshot decoded {} of {} partitions",
            decoded.len(),
            snaps.len()
        ));
    }
    drop((read, doc, decoded));
    let _ = std::fs::remove_file(&path);

    let share: Vec<PartitionSnapshot> = snaps.into_iter().take(gen::COLD_PARTS / SHARDS).collect();
    let keys: Vec<PartitionKey> = share
        .iter()
        .map(|s| PartitionKey {
            site: s.site.clone(),
            queue: s.queue.clone(),
            range: s.range,
        })
        .collect();
    let spill = work.join("layers-spill");
    let mut store = PartitionStore::new(Some(COLD_CAP_PER_SHARD), Some(spill.clone()))
        .map_err(|e| format!("spill store: {e}"))?;
    store
        .install_snapshots(share, Vec::new())
        .map_err(|e| format!("install: {e}"))?;
    out.push((
        "hibernate.spill_bytes_per_partition",
        store.spill_disk_bytes() as f64 / store.hibernated_count() as f64,
        "B",
    ));
    let (mut restore, mut evict, mut sweep) = (Vec::new(), Vec::new(), Vec::new());
    // Enough cold touches for the garbage to pass half the spill file.
    for _ in 0..keys.len() + keys.len() / 5 {
        let key = keys[rng.gen_range(0..keys.len())].clone();
        let cold = store.hibernated_count();
        let t = Instant::now();
        black_box(store.touch(key).map_err(|e| format!("restore: {e}"))?.seq());
        let dt = t.elapsed().as_nanos() as f64;
        if store.hibernated_count() < cold {
            restore.push(dt);
        }
        let t = Instant::now();
        store.enforce_cap().map_err(|e| format!("evict: {e}"))?;
        evict.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        if store.sweep().map_err(|e| format!("sweep: {e}"))? {
            sweep.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if sweep.is_empty() {
        return Err("the cold touches never made a spill compaction due".into());
    }
    out.push(("hibernate.restore_ns", stats::median(&restore), "ns"));
    out.push(("hibernate.evict_ns", stats::median(&evict), "ns"));
    out.push(("hibernate.sweep_ms", stats::median(&sweep), "ms"));
    drop(store);
    let _ = std::fs::remove_file(&spill);
    Ok(out)
}

/// Journal append, group commit (fsync every 100 ms, as write_bin's
/// server runs) and recovery over write_bin's preparation records.
fn journal(records: &[Record], work: &Path) -> Result<Vec<Metric>, String> {
    let dir = work.join("layers-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let policy = qdelay_journal::FsyncPolicy::Interval(std::time::Duration::from_millis(100));
    let mut w = JournalWriter::open(&dir, 1, 0, 4 << 20, policy, None)
        .map_err(|e| format!("journal open: {e}"))?;
    let (mut append, mut commit) = (Vec::new(), Vec::new());
    for group in records.chunks(COMMIT_GROUP) {
        let t = Instant::now();
        for r in group {
            black_box(w.append(r));
        }
        append.push(t.elapsed().as_nanos() as f64 / group.len() as f64);
        let t = Instant::now();
        w.commit().map_err(|e| format!("journal commit: {e}"))?;
        commit.push(t.elapsed().as_secs_f64() * 1e6);
    }
    w.close().map_err(|e| format!("journal close: {e}"))?;
    let t = Instant::now();
    let rec = qdelay_journal::recover(&dir, RecoverMode::ReadOnly)
        .map_err(|e| format!("journal recover: {e}"))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    if rec.records.len() != records.len() {
        return Err(format!(
            "recovered {} of {} records",
            rec.records.len(),
            records.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        ("journal.append_ns", stats::median(&append), "ns"),
        ("journal.commit_us", stats::median(&commit), "us"),
        (
            "journal.bytes_per_op",
            frame_bytes(records) as f64 / records.len() as f64,
            "B",
        ),
        ("journal.recover_ms", recover_ms, "ms"),
    ])
}

/// Bytes the journal frames of `records` occupy on disk.
fn frame_bytes(records: &[Record]) -> usize {
    let mut buf = Vec::new();
    records
        .iter()
        .map(|r| {
            buf.clear();
            qdelay_journal::encode_frame(r, &mut buf);
            buf.len()
        })
        .sum()
}
