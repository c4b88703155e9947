//! The size ledger of a checkout: `loc [--write] [ROOT]`.
//!
//! Prints the production code lines per crate under `ROOT/crates`
//! (default: the current directory) as JSON, counted by the rule of
//! `cfpd_testkit::loc`. With `--write` it also writes the document to
//! `ROOT/results/loc.json` and appends its provenance line to
//! `ROOT/results/trajectory.jsonl`.

#![forbid(unsafe_code)]

use std::path::PathBuf;

fn main() {
    let mut write = false;
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" => write = true,
            _ => root = PathBuf::from(arg),
        }
    }
    let ledger = cfpd_testkit::loc::count_workspace(&root).unwrap_or_else(|e| {
        eprintln!("loc: cannot read {}/crates: {e}", root.display());
        std::process::exit(2)
    });
    let json = cfpd_testkit::loc::render_json(&ledger);
    if write {
        let results = root.join("results");
        let written = std::fs::create_dir_all(&results)
            .and_then(|()| cfpd_testkit::record::write_atomic(&results.join("loc.json"), json.as_bytes()))
            .and_then(|()| cfpd_testkit::bench::append_trajectory(&results, "loc", &json));
        if let Err(e) = written {
            eprintln!("loc: cannot write {}: {e}", results.display());
            std::process::exit(2)
        }
    }
    print!("{json}");
}
