//! Drives the built binary the way the driver does, on `--quick` inputs:
//! every workload, untraced and traced. Checks the contract of the last
//! line and that what is printed is exactly what `BENCHMARK.json`
//! declares.

use cfpd_testkit::{parse_json, JsonValue};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(doc: &JsonValue, section: &str) -> BTreeSet<String> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section of BENCHMARK.json")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &JsonValue) -> BTreeSet<String> {
    match obj {
        JsonValue::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn quick_runs_print_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let manifest = parse_json(&manifest).expect("BENCHMARK.json parses");
    let results =
        std::env::temp_dir().join(format!("cfpd-bench-smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&results);

    let mut measured_somewhere = BTreeSet::new();
    for workload in names(&manifest, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_cfpd-benchmark"))
                .current_dir(&root)
                .args([
                    "--workload",
                    &workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .args(["--quick", "--out"])
                .arg(&results)
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a last line");
            let line =
                parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
            let want: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(keys(&line), want, "{workload} --trace {trace}");
            assert_eq!(
                line.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(
                line.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            let metrics = line.get("metrics").expect("metrics");
            assert_eq!(
                keys(metrics),
                names(&manifest, section),
                "{workload} --trace {trace}"
            );
            for name in keys(metrics) {
                let m = metrics.get(&name).unwrap();
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                assert!(
                    m.get("unit").and_then(JsonValue::as_str).is_some(),
                    "{name} has a unit"
                );
                if section == "end_to_end" {
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end metric {name} reads {value}"
                    );
                }
            }
        }
    }

    // The results file says which metrics each run measured and which do
    // not apply to its workload: together they must cover every declared
    // metric, and every declared metric must be measured by some workload.
    let declared: BTreeSet<String> = names(&manifest, "end_to_end")
        .union(&names(&manifest, "per_layer"))
        .cloned()
        .collect();
    let text = std::fs::read_to_string(&results).expect("results file written");
    let _ = std::fs::remove_file(&results);
    assert_eq!(text.lines().count(), 8);
    for run in text
        .lines()
        .map(|l| parse_json(l).expect("result line parses"))
    {
        assert!(
            run.get("host").and_then(|h| h.get("nproc")).is_some(),
            "host block"
        );
        assert_eq!(run.get("quick").and_then(JsonValue::as_bool), Some(true));
        let measured = keys(run.get("metrics").expect("metrics"));
        let not_applicable: BTreeSet<String> = run
            .get("not_applicable")
            .and_then(JsonValue::as_array)
            .expect("not_applicable")
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        let traced = run.get("trace").and_then(JsonValue::as_bool).unwrap();
        let section = names(&manifest, if traced { "per_layer" } else { "end_to_end" });
        let missing: Vec<_> = section
            .iter()
            .filter(|n| !measured.contains(*n) && !not_applicable.contains(*n))
            .collect();
        assert!(
            missing.is_empty(),
            "{:?}: applicable but not measured: {missing:?}",
            run.get("workload")
        );
        assert!(measured.is_subset(&declared), "undeclared metric printed");
        measured_somewhere.extend(measured);
    }
    assert_eq!(
        measured_somewhere, declared,
        "a declared metric is measured on no workload"
    );
}
