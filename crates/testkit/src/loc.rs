//! The size ledger: production code lines per crate, counted by one rule.
//!
//! A line of a `.rs` file under `crates/<crate>/src` (recursively) counts
//! when it holds code — a character outside whitespace, `//` line
//! comments and `/* */` block comments — and lies outside every item
//! annotated `#[cfg(test)]`. Such an item starts at the line whose code
//! begins with `#[cfg(test)]` and ends at the line that closes its first
//! `{ }` block or, before one opens, at the first `;` or `,` outside any
//! bracket (a `use`, a field, a `let`).
//! String and character literals are code, and the braces inside them
//! do not count. Blank lines, comment-only lines (doc comments too) and
//! test items do not count; `tests/`, `benches/` and `examples/` are not
//! under `src` and are not read.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Production code lines of one source text, by the module's rule.
pub fn count_source(text: &str) -> usize {
    let mut lexer = Lexer::default();
    let mut test_item: Option<Item> = None;
    let mut counted = 0;
    for line in text.lines() {
        let code = lexer.code_of(line);
        if test_item.is_none() && code.trim_start().starts_with("#[cfg(test)]") {
            test_item = Some(Item::default());
        }
        match &mut test_item {
            Some(item) => {
                if item.ends_in(&code) {
                    test_item = None;
                }
            }
            None => counted += usize::from(!code.trim().is_empty()),
        }
    }
    counted
}

/// Production code lines per crate of the workspace at `root`, keyed by
/// the crate's directory name under `crates/`.
pub fn count_workspace(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut ledger = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.join("src").is_dir() {
            let name = dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
            ledger.insert(name, count_dir(&dir.join("src"))?);
        }
    }
    Ok(ledger)
}

fn count_dir(dir: &Path) -> io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            total += count_dir(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += count_source(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

/// The ledger as a JSON document: the rule, each crate, the total.
pub fn render_json(ledger: &BTreeMap<String, usize>) -> String {
    let rows: Vec<String> = ledger.iter().map(|(name, n)| format!("    \"{name}\": {n}")).collect();
    format!(
        "{{\n  \"rule\": \"non-blank, non-comment lines of crates/*/src outside #[cfg(test)] items\",\n  \
         \"crates\": {{\n{}\n  }},\n  \"total\": {}\n}}\n",
        rows.join(",\n"),
        ledger.values().sum::<usize>()
    )
}

/// Where the scan stands between lines.
#[derive(Default)]
struct Lexer {
    /// Nesting depth of `/* */` comments.
    comment: usize,
    /// Inside a string literal: `Some(hashes)` of a raw string, `None`
    /// of an escaped one.
    string: Option<Option<usize>>,
}

impl Lexer {
    /// The code characters of `line`, comments dropped.
    fn code_of(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut i = 0;
        while i < chars.len() {
            let (c, next) = (chars[i], chars.get(i + 1).copied());
            if self.comment > 0 {
                if (c, next) == ('*', Some('/')) {
                    self.comment -= 1;
                    i += 1;
                } else if (c, next) == ('/', Some('*')) {
                    self.comment += 1;
                    i += 1;
                }
            } else if let Some(raw) = self.string {
                // A string's characters are code but never delimiters.
                code.push('"');
                match raw {
                    None if c == '\\' => i += 1,
                    None if c == '"' => self.string = None,
                    Some(hashes) if c == '"' && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes => {
                        self.string = None;
                        i += hashes;
                    }
                    _ => {}
                }
            } else if c == '/' && next == Some('/') {
                break;
            } else if c == '/' && next == Some('*') {
                self.comment = 1;
                i += 1;
            } else if c == '"' {
                code.push('"');
                self.string = Some(None);
            } else if c == 'r' && matches!(next, Some('"' | '#')) && !ident_before(&chars, i) {
                let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
                if chars.get(i + 1 + hashes) == Some(&'"') {
                    code.push('"');
                    self.string = Some(Some(hashes));
                    i += hashes + 1;
                } else {
                    code.push(c);
                }
            } else if c == '\'' {
                // A char literal ('x', '\n', '\u{7b}') becomes a quote; a
                // lifetime stays a quote followed by its name.
                let close = match next {
                    Some('\\') => chars.get(i + 3..).and_then(|rest| rest.iter().position(|&q| q == '\'')).map(|p| i + 3 + p),
                    Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
                    _ => None,
                };
                code.push('\'');
                if let Some(close) = close {
                    i = close;
                }
            } else {
                code.push(c);
            }
            i += 1;
        }
        code
    }
}

fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Bracket depths inside one `#[cfg(test)]` item.
#[derive(Default)]
struct Item {
    /// `{` depth once the first one opened.
    braces: usize,
    /// `(`, `[` and generic `<` depth before it.
    other: usize,
    opened: bool,
}

impl Item {
    /// Feed one line of code; true when the item ends on it.
    fn ends_in(&mut self, code: &str) -> bool {
        let mut prev = ' ';
        for c in code.chars() {
            match c {
                '{' => {
                    self.braces += 1;
                    self.opened = true;
                }
                '}' if self.braces > 0 => self.braces -= 1,
                // An enclosing item closes: the test item ended before it.
                '}' => return true,
                _ if self.opened => {}
                '(' | '[' | '<' => self.other += 1,
                '>' if matches!(prev, '-' | '=') => {}
                ')' | ']' | '>' => self.other = self.other.saturating_sub(1),
                ';' | ',' if self.other == 0 => return true,
                _ => {}
            }
            if self.opened && self.braces == 0 {
                return true;
            }
            prev = c;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_counts_code_outside_comments_and_test_items() {
        let src = r####"//! Module doc.

/// Doc.
pub fn f() -> &'static str { // trailing comment
    let brace = '{';
    let escaped = '\'';
    /* a block
       comment */ let after = 1;
    "a } string // not a comment"
}
#[cfg(test)]
use std::fmt;
#[cfg(test)]
const T: [u8; 2] = [0; 2];
struct S {
    #[cfg(test)]
    flag: bool,
    #[cfg(test)]
    map: std::collections::HashMap<u8, u8>,
    kept: u8,
}
#[cfg(test)]
#[allow(dead_code)]
fn helper() {
    let s = "}";
}
const R: &str = r#"raw " } "#;
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let c = '}'; }
}
"####;
        // `pub fn`, `brace`, `escaped`, `after`, the string line, `}`,
        // `struct S`, `kept`, its `}`, `R`.
        assert_eq!(count_source(src), 10);
    }

    #[test]
    fn the_json_lists_every_crate_and_the_total() {
        let ledger = BTreeMap::from([("a".to_string(), 3), ("b".to_string(), 4)]);
        let doc = crate::parse_json(&render_json(&ledger)).unwrap();
        let crates = doc.get("crates").unwrap();
        assert_eq!([crates.get("a"), crates.get("b")].map(|n| n.and_then(|n| n.as_u64())), [Some(3), Some(4)]);
        assert_eq!(doc.get("total").and_then(|n| n.as_u64()), Some(7));
    }
}
