//! The declarative campaign format: a strict line-oriented
//! `key = value` + `[section]` DSL with real error spans.
//!
//! Grammar (one construct per line, `#` starts a comment):
//!
//! ```text
//! campaign := line*
//! line     := blank | comment | section | pair
//! section  := '[' name ']'            # name: [a-z_][a-z0-9_]*
//! pair     := key '=' value           # key:  [a-z_][a-z0-9_]*
//! ```
//!
//! Values are free text to end of line (trimmed); list-valued keys
//! (matrix axes) split on `,`. There is no quoting, no escaping, no
//! line continuation — the format is deliberately small enough that
//! "parse → render → parse" is exactly the identity on structure, which
//! the property suite pins.
//!
//! Strictness rules (all reported with 1-based line numbers):
//! * a pair before any `[section]` header is an error,
//! * a duplicate key within one section instance is an error that
//!   names **both** lines,
//! * section names and keys must match `[a-z_][a-z0-9_]*`,
//! * a `[` line must close with `]`, a pair line must contain `=`.
//!
//! Sections may repeat (the typed layer decides which ones are allowed
//! to — `[exclude]` is, the others are not).

use std::fmt;

/// A parse or validation error carrying its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line number the error anchors to (0 = whole document).
    pub line: usize,
    pub message: String,
}

impl DslError {
    pub fn at(line: usize, message: impl Into<String>) -> DslError {
        DslError { line, message: message.into() }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

/// One `key = value` pair with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawPair {
    pub key: String,
    pub value: String,
    pub line: usize,
}

/// One `[section]` instance with its pairs, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSection {
    pub name: String,
    pub line: usize,
    pub pairs: Vec<RawPair>,
}

impl RawSection {
    /// The value of `key` in this section, if present.
    pub fn get(&self, key: &str) -> Option<&RawPair> {
        self.pairs.iter().find(|p| p.key == key)
    }
}

/// A parsed campaign document: sections in source order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawDoc {
    pub sections: Vec<RawSection>,
}

impl RawDoc {
    /// All section instances named `name`, in source order.
    pub fn sections_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a RawSection> {
        let name = name.to_string();
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// The single section named `name`; `Err` if it appears twice,
    /// `Ok(None)` if absent.
    pub fn unique_section(&self, name: &str) -> Result<Option<&RawSection>, DslError> {
        let mut found: Option<&RawSection> = None;
        for s in self.sections_named(name) {
            if let Some(first) = found {
                return Err(DslError::at(
                    s.line,
                    format!("duplicate [{name}] section (first defined at line {})", first.line),
                ));
            }
            found = Some(s);
        }
        Ok(found)
    }
}

fn valid_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Parse a campaign document. Errors carry the offending line number.
pub fn parse(input: &str) -> Result<RawDoc, DslError> {
    let mut doc = RawDoc::default();
    for (idx, raw_line) in input.lines().enumerate() {
        let lineno = idx + 1;
        // Strip comments (no quoting in the grammar, so '#' anywhere
        // starts a comment) and surrounding whitespace.
        let line = match raw_line.find('#') {
            Some(i) => &raw_line[..i],
            None => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(DslError::at(lineno, format!("unterminated section header {line:?}")));
            };
            let name = name.trim();
            if !valid_ident(name) {
                return Err(DslError::at(
                    lineno,
                    format!("invalid section name {name:?} (expected [a-z_][a-z0-9_]*)"),
                ));
            }
            doc.sections.push(RawSection { name: name.to_string(), line: lineno, pairs: Vec::new() });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(DslError::at(
                lineno,
                format!("expected 'key = value' or '[section]', got {line:?}"),
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        if !valid_ident(key) {
            return Err(DslError::at(
                lineno,
                format!("invalid key {key:?} (expected [a-z_][a-z0-9_]*)"),
            ));
        }
        let Some(section) = doc.sections.last_mut() else {
            return Err(DslError::at(
                lineno,
                format!("key {key:?} before any [section] header"),
            ));
        };
        if let Some(first) = section.pairs.iter().find(|p| p.key == key) {
            return Err(DslError::at(
                lineno,
                format!(
                    "duplicate key {key:?} in [{}] (first defined at line {})",
                    section.name, first.line
                ),
            ));
        }
        section.pairs.push(RawPair {
            key: key.to_string(),
            value: value.to_string(),
            line: lineno,
        });
    }
    Ok(doc)
}

/// Render a document back to canonical text: one blank line between
/// sections, `key = value` pairs, no comments. `parse(render(d))` is
/// structurally identical to `d` modulo line numbers — the round-trip
/// property the test suite pins.
pub fn render(doc: &RawDoc) -> String {
    let mut out = String::new();
    for (i, s) in doc.sections.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push('[');
        out.push_str(&s.name);
        out.push_str("]\n");
        for p in &s.pairs {
            out.push_str(&p.key);
            out.push_str(" = ");
            out.push_str(&p.value);
            out.push('\n');
        }
    }
    out
}

/// Split a list value on commas, trimming each element. Empty elements
/// (leading/trailing/doubled commas) are an error.
pub fn split_list(pair: &RawPair) -> Result<Vec<String>, DslError> {
    let mut out = Vec::new();
    for part in pair.value.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(DslError::at(
                pair.line,
                format!("empty element in list value for {:?}", pair.key),
            ));
        }
        out.push(part.to_string());
    }
    if out.is_empty() {
        return Err(DslError::at(pair.line, format!("empty list value for {:?}", pair.key)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_pairs_and_comments() {
        let doc = parse("# header\n[campaign]\nname = small # trailing\n\n[matrix]\nmode = sync, coupled:1+1\n").unwrap();
        assert_eq!(doc.sections.len(), 2);
        assert_eq!(doc.sections[0].name, "campaign");
        assert_eq!(doc.sections[0].pairs[0].value, "small");
        assert_eq!(doc.sections[0].pairs[0].line, 3);
        assert_eq!(doc.sections[1].get("mode").unwrap().value, "sync, coupled:1+1");
    }

    #[test]
    fn duplicate_key_names_both_lines() {
        let err = parse("[a]\nx = 1\ny = 2\nx = 3\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("first defined at line 2"), "{err}");
    }

    #[test]
    fn pair_before_section_is_an_error() {
        let err = parse("x = 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("before any [section]"), "{err}");
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        assert_eq!(parse("[a\n").unwrap_err().line, 1);
        assert_eq!(parse("[a]\nnonsense\n").unwrap_err().line, 2);
        assert_eq!(parse("[a]\n9bad = 1\n").unwrap_err().line, 2);
        assert_eq!(parse("[B@d]\n").unwrap_err().line, 1);
    }

    #[test]
    fn render_round_trips() {
        let text = "[campaign]\nname = x\n\n[matrix]\nmode = sync, coupled:1+1\ndlb = off, on\n";
        let doc = parse(text).unwrap();
        assert_eq!(render(&doc), text);
        // Canonical text reparses to the same document, line numbers too.
        assert_eq!(parse(&render(&doc)).unwrap(), doc);
    }

    #[test]
    fn split_list_rejects_empty_elements() {
        let pair = RawPair { key: "mode".into(), value: "sync,,opt".into(), line: 7 };
        assert_eq!(split_list(&pair).unwrap_err().line, 7);
        let ok = RawPair { key: "mode".into(), value: " a , b ".into(), line: 1 };
        assert_eq!(split_list(&ok).unwrap(), vec!["a", "b"]);
    }
}
