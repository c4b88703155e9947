//! Campaign-engine suite: property tests for the declarative DSL and
//! the matrix expander, the differential golden matrix (every campaign
//! cell digest-matches its single-run `cfpd golden` counterpart), the
//! concurrency-determinism contract (pool sizes 1/2/8 produce
//! byte-identical aggregate reports), and the layout-by-name contract
//! of the DSL key and the `cfpd golden --layout` flag.
//!
//! The blessed aggregate report of `examples/campaigns/small.campaign`
//! lives at `tests/golden/campaign_small.golden`. Regenerate after an
//! *intended* physics change:
//! `CFPD_BLESS=1 cargo test -p cfpd-campaign --test campaign_matrix`

use cfpd_campaign::dsl::{self, RawDoc, RawPair, RawSection};
use cfpd_campaign::{
    expand, full_matrix_size, run_campaign, CampaignSpec, CanonMetrics, CellMetrics,
    MAX_MATRIX_CELLS,
};
use cfpd_core::{golden_config, run_scenario, ExecutionMode, LayoutPlan, Scenario};
use cfpd_testkit::digest::digest_bytes;
use cfpd_testkit::prop::{check, usize_range, Gen, PropConfig};
use cfpd_testkit::rng::Rng;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

// ---------------------------------------------------------------------
// DSL properties (satellite: round-trip, rejection with line spans)
// ---------------------------------------------------------------------

/// Generator of structurally valid documents: sections from a fixed
/// name pool, per-section keys drawn without repetition, free-text
/// values. Shrinks by dropping the last section, then trailing pairs.
struct ArbDoc;

const SECTION_POOL: &[&str] = &["campaign", "scenario", "matrix", "exclude", "extras_1"];
const KEY_POOL: &[&str] = &["mode", "layout", "dlb", "seed", "steps", "name", "jobs", "k_9"];
const VALUE_POOL: &[&str] =
    &["sync", "coupled:1+1", "off, on", "1e-6", "free text with spaces", "42", "a, b, c"];

impl Gen for ArbDoc {
    type Value = RawDoc;

    fn generate(&self, rng: &mut Rng) -> RawDoc {
        let n_sections = rng.range_usize(1, 5);
        let mut sections = Vec::new();
        for _ in 0..n_sections {
            let name = SECTION_POOL[rng.range_usize(0, SECTION_POOL.len())].to_string();
            // Draw a subset of the key pool (keys unique per section —
            // a duplicate would not be a valid document).
            let mut pairs = Vec::new();
            for key in KEY_POOL {
                if rng.range_usize(0, 3) == 0 {
                    pairs.push(RawPair {
                        key: key.to_string(),
                        value: VALUE_POOL[rng.range_usize(0, VALUE_POOL.len())].to_string(),
                        line: 0,
                    });
                }
            }
            sections.push(RawSection { name, line: 0, pairs });
        }
        RawDoc { sections }
    }

    fn shrink(&self, value: &RawDoc) -> Vec<RawDoc> {
        let mut out = Vec::new();
        if value.sections.len() > 1 {
            let mut d = value.clone();
            d.sections.pop();
            out.push(d);
        }
        for (i, s) in value.sections.iter().enumerate() {
            if !s.pairs.is_empty() {
                let mut d = value.clone();
                d.sections[i].pairs.pop();
                out.push(d);
            }
        }
        out
    }
}

/// The sections and pairs of `doc` without their source lines (a
/// render/reparse moves every line number).
fn structure(doc: &RawDoc) -> Vec<(&str, Vec<(&str, &str)>)> {
    doc.sections
        .iter()
        .map(|s| (s.name.as_str(), s.pairs.iter().map(|p| (p.key.as_str(), p.value.as_str())).collect()))
        .collect()
}

/// parse(render(doc)) is the identity on structure, and render is a
/// fixpoint: rendering the reparse reproduces the exact same text.
#[test]
fn prop_dsl_render_parse_round_trips() {
    check("dsl round-trip", PropConfig::cases(200), &ArbDoc, |doc| {
        let text = dsl::render(doc);
        let reparsed = dsl::parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(structure(doc), structure(&reparsed), "round-trip changed structure:\n{text}");
        assert_eq!(dsl::render(&reparsed), text, "render is not a fixpoint");
    });
}

/// Duplicating any pair of a valid document right below itself makes
/// parsing fail *at the inserted line*, and the error names the
/// original line.
#[test]
fn prop_dsl_duplicate_key_errors_are_line_accurate() {
    let gen = (ArbDoc, usize_range(0, 1 << 16));
    check("duplicate-key rejection", PropConfig::cases(200), &gen, |(doc, pick)| {
        let text = dsl::render(doc);
        // Line numbers of every pair, as the parser assigns them.
        let parsed = dsl::parse(&text).unwrap();
        let pair_lines: Vec<usize> = parsed
            .sections
            .iter()
            .flat_map(|s| s.pairs.iter().map(|p| p.line))
            .collect();
        if pair_lines.is_empty() {
            return; // nothing to duplicate in this document
        }
        let target = pair_lines[pick % pair_lines.len()];
        let mut lines: Vec<&str> = text.lines().collect();
        let dup = lines[target - 1];
        lines.insert(target, dup); // duplicate immediately below itself
        let err = dsl::parse(&lines.join("\n"))
            .expect_err("duplicate key must be rejected");
        assert_eq!(err.line, target + 1, "error should anchor to the duplicate: {err}");
        assert!(
            err.message.contains(&format!("first defined at line {target}")),
            "error should name the original line: {err}"
        );
    });
}

/// Injecting one malformed line anywhere into a valid document fails
/// parsing at exactly that line.
#[test]
fn prop_dsl_malformed_lines_fail_at_their_line() {
    const MALFORMED: &[&str] = &["[unterminated", "no equals sign here", "9bad = 1", "[B@d]"];
    let gen = (ArbDoc, usize_range(0, MALFORMED.len()), usize_range(0, 1 << 16));
    check("malformed-line rejection", PropConfig::cases(200), &gen, |(doc, bad, pos)| {
        let text = dsl::render(doc);
        let mut lines: Vec<&str> = text.lines().collect();
        let at = pos % (lines.len() + 1);
        lines.insert(at, MALFORMED[*bad]);
        let err = dsl::parse(&lines.join("\n")).expect_err("malformed line must be rejected");
        assert_eq!(err.line, at + 1, "error should anchor to the bad line: {err}");
    });
}

// ---------------------------------------------------------------------
// Expander property (satellite: count = axis product minus excludes)
// ---------------------------------------------------------------------

/// Generator of random campaign documents with numeric axes and
/// exclude groups; the value is the document text (readable in
/// counterexample reports).
struct ArbCampaign;

impl Gen for ArbCampaign {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        const AXIS_KEYS: &[&str] = &["seed", "steps", "particles", "subdomains"];
        let n_axes = rng.range_usize(1, AXIS_KEYS.len() + 1);
        let mut text = String::from("[campaign]\nname = prop\n\n[matrix]\n");
        let mut axes: Vec<(&str, Vec<String>)> = Vec::new();
        for key in &AXIS_KEYS[..n_axes] {
            let n_values = rng.range_usize(1, 5);
            // Distinct numeric values; every axis key accepts positive
            // integers, so offset by 1 to keep steps >= 1.
            // i+1 is below 10 and the offset is a multiple of 10, so
            // every value is distinct (axes reject duplicate values).
            let values: Vec<String> = (0..n_values)
                .map(|i| (i as u64 + 1 + rng.bounded_u64(3) * 10).to_string())
                .collect();
            text.push_str(&format!("{key} = {}\n", values.join(", ")));
            axes.push((key, values));
        }
        for _ in 0..rng.range_usize(0, 3) {
            text.push_str("\n[exclude]\n");
            // A nonempty subset of axes, one declared value each.
            let first = rng.range_usize(0, axes.len());
            for (i, (key, values)) in axes.iter().enumerate() {
                if i == first || rng.range_usize(0, 2) == 0 {
                    let v = &values[rng.range_usize(0, values.len())];
                    text.push_str(&format!("{key} = {v}\n"));
                }
            }
        }
        text
    }
}

/// Expansion size equals the brute-force count: cross-product of the
/// axes minus the cells matched by any exclude group. Cell ids are
/// unique and indexed in expansion order.
#[test]
fn prop_expansion_count_is_product_minus_excludes() {
    check("expansion count", PropConfig::cases(150), &ArbCampaign, |text| {
        let spec = CampaignSpec::from_text(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let cells = expand(&spec).expect("validated spec expands");

        // Independent oracle: enumerate every index tuple and apply the
        // exclusion semantics directly.
        let total = full_matrix_size(&spec);
        let mut expected = 0usize;
        let mut odo = vec![0usize; spec.axes.len()];
        for _ in 0..total {
            let assignment: Vec<(&str, &str)> = spec
                .axes
                .iter()
                .zip(&odo)
                .map(|(a, &i)| (a.key.as_str(), a.values[i].as_str()))
                .collect();
            let dropped = spec.excludes.iter().any(|group| {
                group.iter().all(|c| {
                    assignment.iter().any(|(k, v)| *k == c.key && *v == c.value)
                })
            });
            if !dropped {
                expected += 1;
            }
            for d in (0..odo.len()).rev() {
                odo[d] += 1;
                if odo[d] < spec.axes[d].values.len() {
                    break;
                }
                odo[d] = 0;
            }
        }
        assert_eq!(cells.len(), expected, "expansion count mismatch for:\n{text}");
        assert!(cells.len() <= total);

        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i, "cells must be indexed in expansion order");
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len(), "cell ids must be unique:\n{text}");
    });
}

/// A matrix of `axes` (key, value count), each axis counting from 1.
fn matrix_text(axes: &[(&str, usize)]) -> String {
    let mut text = String::from("[campaign]\nname = big\n\n[matrix]\n");
    for (key, n) in axes {
        let values: Vec<String> = (1..=*n).map(|v| v.to_string()).collect();
        text.push_str(&format!("{key} = {}\n", values.join(", ")));
    }
    text
}

/// A matrix may ask for at most `MAX_MATRIX_CELLS` cells (the product
/// of its axes, before excludes); one more and the spec is refused at
/// its `[matrix]` line (line 4), before anything is expanded.
#[test]
fn a_matrix_above_the_cell_cap_is_refused_at_its_line() {
    assert_eq!(MAX_MATRIX_CELLS, 1024);
    let at_cap = CampaignSpec::from_text(&matrix_text(&[("seed", 32), ("particles", 32)]));
    assert_eq!(expand(&at_cap.unwrap()).unwrap().len(), 1024);
    for (axes, cells) in [
        (&[("seed", 25), ("particles", 41)][..], "1025"),
        (&[("seed", 40), ("particles", 40), ("steps", 40)][..], "64000"),
    ] {
        let err = CampaignSpec::from_text(&matrix_text(axes)).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert_eq!(err.message, format!("[matrix] asks for {cells} cells, more than 1024"));
    }
}

/// The 64 000-cell spec (under 600 bytes) is refused by `cfpd campaign
/// expand` (exit 2, naming the `[matrix]` line) and by `POST /jobs`
/// (400): the daemon admits no job and logs nothing for it.
#[test]
fn an_oversized_matrix_is_refused_by_the_cli_and_the_daemon() {
    use cfpd_serve::wal::{replay, WalRecord};
    use cfpd_serve::{http_call, Daemon, ServeConfig};
    let text = matrix_text(&[("seed", 40), ("particles", 40), ("steps", 40)]);
    assert!(text.len() < 600, "{} bytes", text.len());
    let dir = std::env::temp_dir().join(format!("cfpd-campaign-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let file = dir.join("big.campaign");
    std::fs::write(&file, &text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
        .args(["campaign", "expand", file.to_str().unwrap()])
        .output()
        .expect("spawn cfpd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("big.campaign:4: [matrix] asks for 64000 cells"), "{stderr}");
    assert!(out.stdout.is_empty());

    let data = dir.join("serve-data");
    let daemon = Daemon::start(ServeConfig { data_dir: data.clone(), ..Default::default() });
    let daemon = daemon.unwrap();
    let addr = daemon.addr().to_string();
    let (code, body) = http_call(&addr, "POST", "/jobs", &text).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("64000 cells"), "{body}");
    assert_eq!(http_call(&addr, "GET", "/jobs/1", "").unwrap().0, 404);
    daemon.kill();
    let log = replay(&data.join("wal.log"));
    let submits = log.records.iter().filter(|r| matches!(r, WalRecord::Submit { .. }));
    assert_eq!(submits.count(), 0, "{:?}", log.records);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Differential golden matrix + blessed campaign report
// ---------------------------------------------------------------------

fn metrics_of<'a>(cells: &'a [Result<CellMetrics, cfpd_campaign::CellFailure>], id: &str) -> &'a CanonMetrics {
    cells
        .iter()
        .filter_map(|c| c.as_ref().ok())
        .find(|m| m.id == id)
        .map(|m| &m.canon)
        .unwrap_or_else(|| panic!("no cell {id:?}"))
}

fn assert_matches_golden(actual: &str, path: &PathBuf) {
    if std::env::var_os("CFPD_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with CFPD_BLESS=1", path.display())
    });
    assert_eq!(actual, expected, "campaign report drifted from {}", path.display());
}

/// The tentpole gate, one matrix run asserting four things:
///
/// 1. **Differential vs the checked-in single-run goldens**: the
///    (sync, default) and (sync, opt) cells' physics digests equal the
///    FNV-1a digests of `tests/golden/sync_small*.golden` byte-for-byte
///    — a campaign cell *is* a `cfpd golden` run.
/// 2. **Differential vs an independent construction**: the coupled
///    cells match a `run_scenario` invocation built by hand from
///    `golden_config()`, bypassing the DSL entirely.
/// 3. **DLB invisibility**: every `dlb=on` cell digest-matches its
///    `dlb=off` sibling (load balancing must not move physics bits).
/// 4. **Opt-layout tolerance**: opt and default layouts agree exactly
///    on particle censuses and deposition fractions; their field
///    digests legitimately differ (documented in DESIGN.md §12).
///
/// Finally the aggregate canonical JSON must equal the blessed
/// `tests/golden/campaign_small.golden`.
#[test]
fn differential_golden_matrix_pins_the_full_small_campaign() {
    let text = std::fs::read_to_string(repo_path("examples/campaigns/small.campaign")).unwrap();
    let spec = CampaignSpec::from_text(&text).unwrap();
    let cells = expand(&spec).unwrap();
    assert_eq!(cells.len(), 8, "small.campaign is the full 2x2x2 matrix");

    let report = run_campaign(&spec, Some(4));
    assert_eq!(report.failures(), 0);

    // 1. The sync cells against the checked-in single-run goldens.
    for (id, golden) in [
        ("mode=sync,layout=default,dlb=off", "tests/golden/sync_small.golden"),
        ("mode=sync,layout=opt,dlb=off", "tests/golden/sync_small_opt.golden"),
    ] {
        let file = std::fs::read(repo_path(golden)).unwrap();
        assert_eq!(
            metrics_of(&report.cells, id).digest,
            digest_bytes(&file),
            "campaign cell {id} diverged from checked-in {golden}"
        );
    }

    // 2. The coupled cells against a hand-built scenario that never
    //    touches the DSL or the expander.
    for (layout, id) in [
        (LayoutPlan::disabled(), "mode=coupled:1+1,layout=default,dlb=off"),
        (LayoutPlan::optimized(), "mode=coupled:1+1,layout=opt,dlb=off"),
    ] {
        let mut cfg = golden_config();
        cfg.mode = ExecutionMode::Coupled { fluid: 1, particles: 1 };
        cfg.layout = layout;
        let independent = run_scenario(&Scenario::deterministic(cfg, 2));
        assert_eq!(
            metrics_of(&report.cells, id).digest,
            independent.digest,
            "campaign cell {id} diverged from its independent single run"
        );
    }

    // 3. DLB never moves physics bits: on/off siblings digest-match.
    for m in report.cells.iter().filter_map(|c| c.as_ref().ok()) {
        if m.id.ends_with("dlb=on") {
            let sibling = m.id.replace("dlb=on", "dlb=off");
            assert_eq!(
                m.canon.digest,
                metrics_of(&report.cells, &sibling).digest,
                "dlb=on changed the physics of {sibling}"
            );
        }
    }

    // 4. Opt vs default layout: censuses and deposition fractions are
    //    bit-identical; the sync field digests provably differ (the two
    //    checked-in goldens are distinct files).
    for mode in ["sync", "coupled:1+1"] {
        let d = metrics_of(&report.cells, &format!("mode={mode},layout=default,dlb=off"));
        let o = metrics_of(&report.cells, &format!("mode={mode},layout=opt,dlb=off"));
        assert_eq!(d.census, o.census, "layout=opt moved the {mode} particle census");
        assert_eq!(
            d.deposited_frac_bits, o.deposited_frac_bits,
            "layout=opt moved the {mode} deposition fraction"
        );
    }
    let sync_default = metrics_of(&report.cells, "mode=sync,layout=default,dlb=off");
    let sync_opt = metrics_of(&report.cells, "mode=sync,layout=opt,dlb=off");
    assert_ne!(
        sync_default.digest, sync_opt.digest,
        "the opt layout is supposed to reorder fields (distinct goldens)"
    );

    // The blessed N-cell golden: the canonical aggregate report.
    assert_matches_golden(&report.render_json(), &repo_path("tests/golden/campaign_small.golden"));
}

// ---------------------------------------------------------------------
// Concurrency determinism (satellite: pool sizes 1, 2, 8)
// ---------------------------------------------------------------------

/// The canonical report is a pure function of the campaign document:
/// worker-pool size must not leak into a single byte of it.
#[test]
fn aggregate_reports_are_byte_identical_across_pool_sizes() {
    const DOC: &str = "\
[campaign]
name = pools

[scenario]
ranks = 2
generations = 1
particles = 40
steps = 1

[matrix]
mode = sync, coupled:1+1
dlb = off, on
";
    let spec = CampaignSpec::from_text(DOC).unwrap();
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| run_campaign(&spec, Some(jobs)))
        .collect();
    for r in &reports {
        assert_eq!(r.failures(), 0);
    }
    let canonical = reports[0].render_json();
    assert!(!canonical.is_empty());
    for (r, jobs) in reports.iter().zip([1, 2, 8]).skip(1) {
        assert_eq!(r.render_json(), canonical, "pool size {jobs} changed the JSON report");
        assert_eq!(
            r.render_table(),
            reports[0].render_table(),
            "pool size {jobs} changed the table"
        );
    }
}

// ---------------------------------------------------------------------
// Layout by name (the DSL key and the CLI flag; nothing else picks one)
// ---------------------------------------------------------------------

/// A layout is chosen by naming it — `default` or `opt`, through the
/// pure `LayoutPlan::parse` — in a campaign's `layout` key or with
/// `cfpd golden --layout`; the process environment plays no part, so
/// this test reads and writes none of it.
#[test]
fn layouts_are_chosen_by_name_in_the_dsl_and_on_the_command_line() {
    assert_eq!(LayoutPlan::parse("default"), Ok(LayoutPlan::disabled()));
    assert_eq!(LayoutPlan::parse("opt"), Ok(LayoutPlan::optimized()));
    assert!(LayoutPlan::parse("fast").is_err());

    // The DSL key goes through it; a bad name is an error at its line.
    let doc = |name: &str| format!("[campaign]\nname = named\n\n[scenario]\nlayout = {name}\n");
    for (name, layout) in [("default", LayoutPlan::disabled()), ("opt", LayoutPlan::optimized())] {
        let cells = expand(&CampaignSpec::from_text(&doc(name)).unwrap()).unwrap();
        assert_eq!(cells[0].scenario.config.layout, layout, "layout = {name}");
    }
    let err = CampaignSpec::from_text(&doc("fast")).unwrap_err();
    assert_eq!(err.line, 5, "{err}");
    assert!(err.message.contains("\"fast\""), "{err}");

    // End to end: each name produces its own golden document, no name
    // the reference one, and an unknown name is a usage error.
    let golden = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
            .args(["golden", "--ranks", "2"])
            .args(args)
            .output()
            .expect("spawn cfpd")
    };
    for (args, file) in [
        (&["--layout", "default"][..], "tests/golden/sync_small.golden"),
        (&["--layout", "opt"][..], "tests/golden/sync_small_opt.golden"),
        (&[][..], "tests/golden/sync_small.golden"),
    ] {
        let out = golden(args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout == std::fs::read(repo_path(file)).unwrap(), "{args:?} is not {file}");
    }
    let out = golden(&["--layout", "fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown layout"));
}

// ---------------------------------------------------------------------
// CLI exit codes (satellite: nonzero exit on injected regression)
// ---------------------------------------------------------------------

/// `cfpd campaign report` exits 0 against a pristine baseline and 1
/// against a baseline with an injected digest delta.
#[test]
fn campaign_report_exits_nonzero_on_injected_regression() {
    let campaign = repo_path("examples/campaigns/tiny.campaign");
    let campaign = campaign.to_str().unwrap();

    // Produce the pristine baseline with `campaign run --json`.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
        .args(["campaign", "run", campaign, "--json"])
        .output()
        .expect("spawn cfpd");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let pristine = String::from_utf8(out.stdout).unwrap();
    assert!(pristine.contains("\"campaign\":\"tiny\""), "{pristine}");

    let dir = std::env::temp_dir();
    let base = dir.join(format!("cfpd-campaign-base-{}.json", std::process::id()));
    let tampered = dir.join(format!("cfpd-campaign-tampered-{}.json", std::process::id()));
    std::fs::write(&base, &pristine).unwrap();

    // Inject a regression: flip the first digest in the baseline.
    let needle = "\"digest\":\"";
    let at = pristine.find(needle).expect("report carries digests") + needle.len();
    let mut bytes = pristine.into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(&tampered, &bytes).unwrap();

    let report = |baseline: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cfpd"))
            .args(["campaign", "report", campaign, "--baseline", baseline.to_str().unwrap()])
            .output()
            .expect("spawn cfpd")
    };
    let clean = report(&base);
    let dirty = report(&tampered);
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&tampered).ok();

    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("zero regressions"));
    assert_eq!(dirty.status.code(), Some(1), "injected delta must fail the gate");
    assert!(String::from_utf8_lossy(&dirty.stdout).contains("regression(s)"));
}
