//! `cfpd-benchmark compare A B`: two results files (one JSON run per
//! line, as `--out` appends them), one row per workload and end-to-end
//! metric, with a verdict by the metric's bound and the quartile spread.

use crate::api::{parse_json, JsonValue};
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// Untraced, non-quick runs of one file: metric values by workload and
/// metric, and the reference digest by workload and seed.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, &'static str), Vec<f64>>,
    digests: BTreeMap<(String, u64), String>,
    failed_runs: usize,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let flag = |k: &str| run.get(k).and_then(JsonValue::as_bool).unwrap_or(false);
        if flag("trace") || flag("quick") {
            continue; // per-layer and smoke runs carry nothing comparable
        }
        let Some(workload) = run.get("workload").and_then(JsonValue::as_str) else {
            return Err(format!("{path}:{}: run without a workload", i + 1));
        };
        if !flag("correct") {
            side.failed_runs += 1;
        }
        for d in &END_TO_END {
            let v = run
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"));
            if let Some(v) = v.and_then(JsonValue::as_f64) {
                side.values
                    .entry((workload.to_string(), d.name))
                    .or_default()
                    .push(v);
            }
        }
        if let (Some(seed), Some(digest)) = (
            run.get("seed").and_then(JsonValue::as_u64),
            run.get("digest").and_then(JsonValue::as_str),
        ) {
            side.digests
                .insert((workload.to_string(), seed), digest.to_string());
        }
    }
    Ok(side)
}

/// Verdict for a lower-is-better metric. `a` is the parent, `b` the
/// change. Where either side's quartile spread exceeds the bound the
/// medians cannot be told apart — *unresolved* — unless every run of one
/// side reads better than every run of the other. Otherwise *worse*
/// beyond the bound, *better* when the medians differ by more than the
/// parent's own quartile distance, else *unchanged*.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    if (a3 - a1) / am > bound || (b3 - b1) / bm > bound {
        return if max(b) < min(a) {
            "better"
        } else if min(b) > max(a) {
            "worse"
        } else {
            "unresolved"
        };
    }
    if bm > am * (1.0 + bound) {
        "worse"
    } else if am - bm > (a3 - a1) && bm < am {
        "better"
    } else {
        "unchanged"
    }
}

pub fn run(a_path: &str, b_path: &str) -> Result<String, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut out = format!("A = {a_path}\nB = {b_path}\n");
    out.push_str(&format!(
        "{:<16} {:<12} {:>3} {:>30} {:>3} {:>30} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "nA",
        "A median [q1, q3]",
        "nB",
        "B median [q1, q3]",
        "B/A-1",
        "bound"
    ));
    for ((workload, metric), av) in &a.values {
        let Some(bv) = b.values.get(&(workload.clone(), *metric)) else {
            continue;
        };
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == *metric)
            .and_then(|d| d.bound)
            .expect("only end-to-end metrics are loaded");
        let (a1, am, a3) = quartiles(av);
        let (b1, bm, b3) = quartiles(bv);
        out.push_str(&format!(
            "{workload:<16} {metric:<12} {:>3} {:>30} {:>3} {:>30} {:>+8.3} {bound:>6.2}  {}\n",
            av.len(),
            format!("{am:.4} [{a1:.4}, {a3:.4}]"),
            bv.len(),
            format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
            bm / am - 1.0,
            verdict(av, bv, bound),
        ));
    }
    for (key, da) in &a.digests {
        match b.digests.get(key) {
            Some(db) if db != da => out.push_str(&format!(
                "note: {} seed {}: document digest changed {da} -> {db}\n",
                key.0, key.1
            )),
            _ => {}
        }
    }
    if a.failed_runs + b.failed_runs > 0 {
        out.push_str(&format!(
            "note: {} run(s) of A and {} of B reported incorrect outputs\n",
            a.failed_runs, b.failed_runs
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let shifted = |f: f64| a.iter().map(|x| x * f).collect::<Vec<_>>();
        assert_eq!(verdict(&a, &a, 0.10), "unchanged");
        assert_eq!(verdict(&a, &shifted(1.005), 0.10), "unchanged");
        assert_eq!(verdict(&a, &shifted(1.20), 0.10), "worse");
        assert_eq!(verdict(&a, &shifted(0.90), 0.10), "better");
        // Spread wider than the bound: only a clean separation decides.
        let noisy = [0.8, 1.3, 0.9, 1.2, 1.0, 1.1, 0.85, 1.25, 0.95, 1.15];
        assert_eq!(verdict(&noisy, &shifted(1.05), 0.10), "unresolved");
        assert_eq!(verdict(&noisy, &shifted(0.5), 0.10), "better");
        assert_eq!(verdict(&noisy, &shifted(2.0), 0.10), "worse");
    }

    #[test]
    fn compare_reads_result_lines_and_notes_digest_changes() {
        let dir = std::env::temp_dir().join(format!("cfpd-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |wall: f64, digest: &str, trace: bool| {
            format!(
                "{{\"workload\":\"fluid_serial\",\"seed\":1,\"trace\":{trace},\"quick\":false,\
                 \"correct\":true,\"digest\":\"{digest}\",\"metrics\":{{\"run_wall_s\":\
                 {{\"value\":{wall},\"unit\":\"s\"}}}}}}\n"
            )
        };
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(
            &a,
            line(1.0, "aa", false) + &line(1.1, "aa", false) + &line(9.0, "aa", true),
        )
        .unwrap();
        std::fs::write(&b, line(2.0, "bb", false) + &line(2.2, "bb", false)).unwrap();
        let report = run(a.to_str().unwrap(), b.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(report.contains("fluid_serial"), "{report}");
        assert!(report.contains("worse"), "{report}");
        assert!(report.contains("digest changed aa -> bb"), "{report}");
        assert!(!report.contains("9.0"), "traced runs are skipped: {report}");
    }
}
