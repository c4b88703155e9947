//! Strict lint for the Prometheus text exposition format, in the same
//! spirit as `cfpd_testkit`'s RFC 8259 JSON parser: `/metrics` output
//! is only trusted after passing a real parser, not a smoke `grep`.
//!
//! Checks, beyond line-shape:
//! * every sample's base name (with `_bucket`/`_sum`/`_count` stripped
//!   for histograms) has a preceding `# TYPE`, declared exactly once;
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names
//!   `[a-zA-Z_][a-zA-Z0-9_]*`, label values are quoted with no raw
//!   control characters and only the legal escapes (`\\`, `\"`, `\n`);
//! * sample values parse as *finite* f64 — `+Inf`/`-Inf`/`NaN` sample
//!   values are rejected (our renderers never emit them; a NaN gauge is
//!   always an upstream bug). `le="+Inf"` is a label *value* and stays
//!   legal;
//! * histogram `_bucket` series are cumulative (non-decreasing), end
//!   with `le="+Inf"`, and agree with `_count`;
//! * the document ends with a newline.

use std::collections::BTreeMap;

/// Validate a Prometheus text document. `Ok(samples)` returns the
/// number of sample lines; `Err` pinpoints the first offending line.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    if text.is_empty() {
        return Err("empty document".to_string());
    }
    if !text.ends_with('\n') {
        return Err("document does not end with a newline".to_string());
    }

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // Per-histogram bucket bookkeeping: (last cumulative, saw +Inf, inf value).
    let mut buckets: BTreeMap<String, (f64, bool, f64)> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut samples = 0usize;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let fail = |msg: String| Err(format!("line {lineno}: {msg} in {line:?}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut toks = rest.splitn(3, ' ');
            match toks.next() {
                Some("TYPE") => {
                    let (Some(name), Some(kind)) = (toks.next(), toks.next()) else {
                        return fail("malformed TYPE line".to_string());
                    };
                    if !valid_metric_name(name) {
                        return fail(format!("bad metric name {name:?}"));
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return fail(format!("unknown metric type {kind:?}"));
                    }
                    if types.insert(name.to_string(), kind.to_string()).is_some() {
                        return fail(format!("duplicate TYPE for {name:?}"));
                    }
                }
                Some("HELP") => {}
                _ => return fail("unknown comment directive".to_string()),
            }
            continue;
        }

        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return fail("sample line has no value".to_string()),
        };
        // Rust's f64 parser accepts "inf"/"NaN" spellings, so non-finite
        // results must be caught after the parse, not before.
        let value: f64 = match value.parse() {
            Ok(x) if f64::is_finite(x) => x,
            Ok(_) => return fail(format!("non-finite sample value {value:?}")),
            Err(_) => return fail(format!("unparseable value {value:?}")),
        };
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => match rest.strip_suffix('}') {
                Some(inner) => (n, Some(inner)),
                None => return fail("unbalanced label braces".to_string()),
            },
            None => (name_labels, None),
        };
        if !valid_metric_name(name) {
            return fail(format!("bad metric name {name:?}"));
        }
        let mut le: Option<&str> = None;
        if let Some(inner) = labels {
            for pair in split_labels(inner) {
                let Some((lname, lvalue)) = pair.split_once('=') else {
                    return fail(format!("label {pair:?} is not key=\"value\""));
                };
                if !valid_label_name(lname) {
                    return fail(format!("bad label name {lname:?}"));
                }
                let Some(unquoted) =
                    lvalue.strip_prefix('"').and_then(|v| v.strip_suffix('"'))
                else {
                    return fail(format!("label value {lvalue:?} is not quoted"));
                };
                if unquoted.chars().any(|c| c.is_control()) {
                    return fail("raw control character in label value".to_string());
                }
                let mut chars = unquoted.chars();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('\\' | '"' | 'n') => {}
                            other => {
                                return fail(format!(
                                    "illegal escape \\{} in label value",
                                    other.map(String::from).unwrap_or_default()
                                ))
                            }
                        },
                        '"' => {
                            return fail("unescaped quote in label value".to_string())
                        }
                        _ => {}
                    }
                }
                if lname == "le" {
                    le = Some(unquoted);
                }
            }
        }

        // Type resolution: histogram series use suffixed sample names.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        let Some(kind) = types.get(base) else {
            return fail(format!("sample {name:?} has no preceding TYPE"));
        };
        if kind == "histogram" && name.ends_with("_bucket") {
            let Some(le) = le else {
                return fail("histogram bucket without an le label".to_string());
            };
            let entry = buckets.entry(base.to_string()).or_insert((f64::NEG_INFINITY, false, 0.0));
            if entry.1 {
                return fail("bucket after le=\"+Inf\"".to_string());
            }
            if value < entry.0 {
                return fail(format!(
                    "bucket counts must be cumulative ({value} < {})",
                    entry.0
                ));
            }
            entry.0 = value;
            if le == "+Inf" {
                entry.1 = true;
                entry.2 = value;
            }
        }
        if kind == "histogram" && name.ends_with("_count") {
            counts.insert(base.to_string(), value);
        }
        samples += 1;
    }

    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let Some((_, saw_inf, inf)) = buckets.get(name) else {
            return Err(format!("histogram {name:?} has no bucket samples"));
        };
        if !saw_inf {
            return Err(format!("histogram {name:?} is missing the le=\"+Inf\" bucket"));
        }
        match counts.get(name) {
            Some(c) if *c == *inf => {}
            Some(c) => {
                return Err(format!(
                    "histogram {name:?}: _count {c} != +Inf bucket {inf}"
                ))
            }
            None => return Err(format!("histogram {name:?} has no _count sample")),
        }
    }
    Ok(samples)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Split `a="x",b="y"` on commas outside quotes, honouring backslash
/// escapes inside quoted values: `a="x\",\"y"` is ONE label whose value
/// contains a quote and a comma, not two.
fn split_labels(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_quote = false;
    let mut escaped = false;
    let mut start = 0;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => escaped = true,
            '"' => in_quote = !in_quote,
            ',' if !in_quote => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < inner.len() {
        out.push(&inner[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_document() {
        let doc = "\
# TYPE cfpd_jobs counter
cfpd_jobs 3
# TYPE cfpd_depth gauge
cfpd_depth -1
# TYPE cfpd_wait histogram
cfpd_wait_bucket{le=\"1\"} 2
cfpd_wait_bucket{le=\"7\"} 3
cfpd_wait_bucket{le=\"+Inf\"} 3
cfpd_wait_sum 9
cfpd_wait_count 3
# TYPE cfpd_phase gauge
cfpd_phase{phase=\"mpi\",rank=\"0\"} 0.25
";
        assert_eq!(lint_prometheus(doc), Ok(8));
    }

    #[test]
    fn rejects_structural_violations() {
        for (doc, needle) in [
            ("cfpd_x 1\n", "no preceding TYPE"),
            ("# TYPE cfpd_x counter\ncfpd_x nope\n", "unparseable value"),
            ("# TYPE cfpd_x counter\ncfpd_x 1", "end with a newline"),
            ("# TYPE cfpd_x counter\n# TYPE cfpd_x counter\ncfpd_x 1\n", "duplicate TYPE"),
            ("# TYPE 9bad counter\n9bad 1\n", "bad metric name"),
            (
                "# TYPE cfpd_h histogram\ncfpd_h_bucket{le=\"1\"} 5\n\
                 cfpd_h_bucket{le=\"+Inf\"} 3\ncfpd_h_sum 1\ncfpd_h_count 3\n",
                "cumulative",
            ),
            (
                "# TYPE cfpd_h histogram\ncfpd_h_bucket{le=\"1\"} 1\n\
                 cfpd_h_sum 1\ncfpd_h_count 1\n",
                "+Inf",
            ),
            (
                "# TYPE cfpd_h histogram\ncfpd_h_bucket{le=\"+Inf\"} 3\n\
                 cfpd_h_sum 1\ncfpd_h_count 2\n",
                "_count 2 != +Inf bucket 3",
            ),
            ("# TYPE cfpd_x gauge\ncfpd_x{l=unquoted} 1\n", "not quoted"),
        ] {
            let err = lint_prometheus(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
    }

    #[test]
    fn non_finite_sample_values_are_rejected() {
        for value in ["NaN", "+Inf", "-Inf", "inf", "-inf", "nan"] {
            let doc = format!("# TYPE cfpd_x gauge\ncfpd_x {value}\n");
            let err = lint_prometheus(&doc).expect_err(&doc);
            assert!(err.contains("non-finite"), "{value:?} -> {err}");
        }
        // `le="+Inf"` is a label value, not a sample value: still legal
        // (exercised by every histogram in accepts_a_well_formed_document).
    }

    #[test]
    fn illegal_escapes_and_bare_quotes_in_label_values_are_rejected() {
        let doc = "# TYPE cfpd_x gauge\ncfpd_x{l=\"a\\tb\"} 1\n";
        let err = lint_prometheus(doc).unwrap_err();
        assert!(err.contains("illegal escape"), "{err}");
        // A quoted value containing an escaped comma+quote is ONE label.
        let doc = "# TYPE cfpd_x gauge\ncfpd_x{l=\"x\\\",\\\"y\"} 1\n";
        assert_eq!(lint_prometheus(doc), Ok(1));
    }

    #[test]
    fn the_real_renderer_passes_the_lint() {
        // Record through the live registry, snapshot, render, lint.
        cfpd_telemetry::set_enabled(true);
        cfpd_telemetry::count!("prom.lint.smoke", 5);
        cfpd_telemetry::gauge_add!("prom.lint.depth", 2);
        cfpd_telemetry::observe!("prom.lint.wait", 3);
        cfpd_telemetry::observe!("prom.lint.wait", 900);
        cfpd_telemetry::set_enabled(false);
        let doc = cfpd_telemetry::snapshot().render_prometheus();
        let n = lint_prometheus(&doc).expect("renderer output must lint clean");
        assert!(n >= 3, "expected at least our three metrics, got {n} samples");
        assert!(doc.contains("cfpd_prom_lint_smoke 5\n"));
    }
}
