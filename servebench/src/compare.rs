//! Compare mode: two sets of runs (for example a parent commit and a
//! change, run in alternating pairs), per workload and end-to-end metric.
//!
//! ```text
//! servebench compare <dir-A> <dir-B>
//! ```
//!
//! Each directory holds result files written by runs (`servebench/results`
//! by default; move them into one directory per side). Runs pair up in
//! file-name order, which is start-time order. Verdicts, with A the base:
//! * `worse`: B's median is worse than A's by more than the metric's bound;
//! * `unresolved`: either side's spread (interquartile range over median)
//!   is wider than the bound;
//! * `better`: B wins at least 9 of every 10 pairs and the medians differ
//!   by more than A's interquartile range;
//! * `same` otherwise.

use crate::stats;
use qdelay_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload -> metric -> values in run order (untraced runs only).
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let env = doc
            .get("env")
            .ok_or_else(|| format!("{}: no env block", f.display()))?;
        if env.get("trace").and_then(Json::as_str) != Some("0") {
            continue;
        }
        let workload = env
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        for (name, m) in doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: servebench compare <dir-A> <dir-B>".into());
    };
    let bounds = load_bounds(Path::new("BENCHMARK.json"))?;
    let (ra, rb) = (load_runs(Path::new(a))?, load_runs(Path::new(b))?);
    println!(
        "{:<18} {:<22} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "A q1/median/q3", "B q1/median/q3", "B wins"
    );
    let mut worse = 0;
    for (workload, ma) in &ra {
        let Some(mb) = rb.get(workload) else { continue };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (ma.get(&bound.name), mb.get(&bound.name)) else {
                continue;
            };
            let (a1, am, a3) = stats::quartiles(va);
            let (b1, bm, b3) = stats::quartiles(vb);
            let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
            let pairs = va.len().min(vb.len());
            let wins = va.iter().zip(vb).filter(|(&x, &y)| better(y, x)).count();
            let worse_by = if bound.lower_is_better {
                bm - am
            } else {
                am - bm
            } / am.abs();
            let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
            let verdict = if worse_by > bound.bound {
                worse += 1;
                "worse"
            } else if spread > bound.bound {
                "unresolved"
            } else if wins * 10 >= pairs * 9 && (bm - am).abs() > a3 - a1 && better(bm, am) {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<18} {:<22} {:>30} {:>30} {:>3}/{:<3}  {verdict} (bound {:.0}%, spread {:.1}%, B {:+.1}%)",
                bound.name,
                format!("{a1:.4}/{am:.4}/{a3:.4}"),
                format!("{b1:.4}/{bm:.4}/{b3:.4}"),
                wins,
                pairs,
                bound.bound * 100.0,
                spread * 100.0,
                (bm - am) / am.abs() * 100.0,
            );
        }
    }
    println!("{worse} metric(s) worse");
    Ok(())
}
