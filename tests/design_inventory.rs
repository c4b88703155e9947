//! DESIGN.md §3 ("Crate inventory") against the workspace: every
//! package under `crates/` is listed there, with its directory, and the
//! section lists no crate that does not exist.

use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `(directory, package name)` of every `crates/*/Cargo.toml`.
fn workspace_crates() -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let name = toml
            .lines()
            .skip_while(|l| l.trim() != "[package]")
            .find_map(|l| l.trim().strip_prefix("name = "))
            .unwrap_or_else(|| panic!("{} has no package name", dir.display()))
            .trim_matches('"')
            .to_string();
        out.insert((dir.file_name().unwrap().to_string_lossy().into_owned(), name));
    }
    out
}

/// `(directory, package name)` of every `  dir/   cfpd-name ...` row of
/// the §3 code block.
fn inventory() -> BTreeSet<(String, String)> {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("3. Crate inventory"))
        .expect("DESIGN.md has a section 3, Crate inventory");
    let block = section.split("```").nth(1).expect("section 3 holds a code block");
    block
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let dir = words.next()?.strip_suffix('/')?;
            let name = words.next().filter(|n| n.starts_with("cfpd-"))?;
            Some((dir.to_string(), name.to_string()))
        })
        .collect()
}

#[test]
fn design_section_3_lists_exactly_the_workspace_crates() {
    let crates = workspace_crates();
    let listed = inventory();
    assert!(crates.len() >= 10, "found only {crates:?}");
    let missing: Vec<_> = crates.difference(&listed).collect();
    let phantom: Vec<_> = listed.difference(&crates).collect();
    assert!(missing.is_empty(), "crates DESIGN.md section 3 does not list: {missing:?}");
    assert!(phantom.is_empty(), "DESIGN.md section 3 lists crates that do not exist: {phantom:?}");
}
