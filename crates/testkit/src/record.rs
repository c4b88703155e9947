//! The one grammar of the workspace's digest-guarded text records: the
//! checkpoint, the daemon's snapshot and write-ahead log and the flight
//! dump read and write through it. A magic line names the format; a
//! `digest <16 hex>` line guards it; integers are decimal with no sign
//! and no leading zero, words exactly sixteen lower-case hex digits;
//! `key=value` fields come in a fixed order; sections are line-counted
//! and their counts bounded; strings are percent-encoded; files are
//! replaced whole (DESIGN.md §8, "Record codec"). Every reader accepts
//! exactly what its writer writes, so text that parses renders back to
//! the same bytes.

use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The sixteen lower-case hex digits of `bits`, most significant first,
/// computed eight abreast in a word: each nibble spread to a byte of its
/// own, then `'0'` added, and `'a' - '0' - 10` more where it is above 9.
#[inline]
fn hex_digits(bits: u64) -> [u8; 16] {
    let spread = |half: u32| {
        let x = half as u64;
        let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
        let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f
    };
    let ascii = |n: u64| {
        let above_nine = ((n + 0x0606_0606_0606_0606) >> 4) & 0x0101_0101_0101_0101;
        n + 0x3030_3030_3030_3030 + above_nine * (b'a' - b'0' - 10) as u64
    };
    let mut out = [0; 16];
    out[..8].copy_from_slice(&ascii(spread((bits >> 32) as u32)).to_be_bytes());
    out[8..].copy_from_slice(&ascii(spread(bits as u32)).to_be_bytes());
    out
}

#[inline]
fn nibble(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// Append `prefix` and the space-separated 16-digit hex bit patterns of
/// `vals`, then a newline: one codec line, written in place (a snapshot
/// holds ~10⁵ of these; one `String` per value was most of its cost).
#[inline]
pub fn push_hex_line(out: &mut Vec<u8>, prefix: &[u8], vals: &[f64]) {
    out.extend_from_slice(prefix);
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        out.extend_from_slice(&hex_digits(v.to_bits()));
    }
    out.push(b'\n');
}

/// Sixteen lowercase hex digits as a `u64`; `None` for anything else
/// (a sign, an upper-case digit, another width), so that what parses is
/// what [`push_hex_line`] writes. No early exit: the loop stays
/// branch-free, and a snapshot holds ~10⁵ of these.
#[inline]
pub fn hex16(tok: &[u8]) -> Option<u64> {
    let tok: &[u8; 16] = tok.try_into().ok()?;
    let (mut bits, mut seen) = (0u64, 0u8);
    for &b in tok {
        let v = nibble(b).unwrap_or(0xff);
        seen |= v;
        bits = bits << 4 | (v & 0xf) as u64;
    }
    (seen <= 0xf).then_some(bits)
}

/// [`hex16`] of a token, with an error that names it.
pub fn parse_hex(tok: &str, what: &str) -> Result<u64, String> {
    hex16(tok.as_bytes()).ok_or_else(|| format!("bad {what} {tok:?}: not 16 lower-case hex digits"))
}

/// A decimal integer as the writer renders it: no sign, no leading zero.
pub fn parse_int<T: FromStr>(tok: &str, what: &str) -> Result<T, String>
where
    T::Err: Display,
{
    if tok.starts_with('+') || (tok.len() > 1 && tok.starts_with('0')) {
        return Err(format!("bad {what} {tok:?}: not in canonical form"));
    }
    tok.parse().map_err(|e| format!("bad {what} {tok:?}: {e}"))
}

/// The space-separated tokens of a line, read in order: each `key=value`
/// token must carry the key asked for, and [`Fields::end`] that none is
/// left. A doubled space is an empty token, and refused.
pub struct Fields<'a> {
    toks: std::str::Split<'a, char>,
}

/// [`Fields`] over `tokens`.
pub fn fields(tokens: &str) -> Fields<'_> {
    Fields { toks: tokens.split(' ') }
}

impl<'a> Fields<'a> {
    /// The next token, bare.
    pub fn word(&mut self, what: &str) -> Result<&'a str, String> {
        self.toks.next().ok_or_else(|| format!("missing {what}"))
    }

    /// The value of the next token, which must be `key=value`.
    pub fn get(&mut self, key: &str) -> Result<&'a str, String> {
        let tok = self.word(key)?;
        let val = tok.strip_prefix(key).and_then(|r| r.strip_prefix('='));
        val.ok_or_else(|| format!("expected {key}=..., got {tok:?}"))
    }

    pub fn int<T: FromStr>(&mut self, key: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        parse_int(self.get(key)?, key)
    }

    pub fn hex(&mut self, key: &str) -> Result<u64, String> {
        parse_hex(self.get(key)?, key)
    }

    /// Nothing after the last token.
    pub fn end(mut self) -> Result<(), String> {
        match self.toks.next() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected {extra:?} after the last field")),
        }
    }
}

/// Number of newline-terminated lines in `text`: newlines summed in `u8`
/// lanes (255 at a time cannot overflow one), which compiles to vector
/// compares — twelve times the speed of `filter().count()` on the 1.2 MB
/// of a parked cell.
pub fn count_lines(text: &str) -> usize {
    let lanes = |c: &[u8]| c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize;
    text.as_bytes().chunks(255).map(lanes).sum()
}

/// `text` split after its `n`-th newline: the `n` lines and the rest.
/// All of `text` — a snapshot's checkpoint section, the bulk of the file —
/// is told by its count alone; anything less is walked line by line.
pub fn split_lines(text: &str, n: usize) -> Option<(&str, &str)> {
    if text.ends_with('\n') && count_lines(text) == n {
        return Some((text, ""));
    }
    let end = match n {
        0 => 0,
        _ => text.match_indices('\n').nth(n - 1)?.0 + 1,
    };
    Some(text.split_at(end))
}

/// A count declared by codec text with `remaining` bytes left to back
/// it: an entry is at least two bytes (one character and its newline),
/// so a larger count is corrupt or hostile, and is refused before any
/// entry is read.
pub fn bounded_count(n: usize, remaining: usize, what: &str) -> Result<usize, String> {
    if n > remaining / 2 {
        return Err(format!(
            "declared {what} count {n} exceeds what the {remaining} remaining bytes can hold \
             (corrupt or hostile length prefix)"
        ));
    }
    Ok(n)
}

/// A `digest <16 hex>` line, without its newline: the digest it states.
pub fn digest_line(line: &str) -> Result<u64, String> {
    let digest = line.strip_prefix("digest ").and_then(|h| hex16(h.as_bytes()));
    digest.ok_or_else(|| format!("bad digest line {line:?}"))
}

/// `text` without its last line, a [`digest_line`] trailer: the body
/// and the digest the trailer states.
pub fn digest_trailer(text: &str) -> Result<(&str, u64), String> {
    let lines = text.strip_suffix('\n').ok_or("missing digest trailer")?;
    let at = lines.rfind('\n').map_or(0, |i| i + 1);
    Ok((&text[..at], digest_line(&lines[at..])?))
}

pub fn check_digest(what: &str, stated: u64, actual: u64) -> Result<(), String> {
    if stated != actual {
        return Err(format!("{what} digest mismatch: stated {stated:016x}, actual {actual:016x}"));
    }
    Ok(())
}

/// Read position in record text.
#[derive(Clone, Copy)]
pub struct Cursor<'a> {
    pub rest: &'a str,
}

impl<'a> Cursor<'a> {
    /// The text up to the next `sep`, which is consumed.
    pub fn until(&mut self, sep: char, what: &str) -> Result<&'a str, String> {
        let (tok, rest) =
            self.rest.split_once(sep).ok_or_else(|| format!("truncated: missing {what}"))?;
        self.rest = rest;
        Ok(tok)
    }

    /// The magic line, which must be `want`; `what` names the format.
    pub fn magic(&mut self, want: &str, what: &str) -> Result<(), String> {
        let magic = self.until('\n', "magic line")?;
        if magic != want {
            return Err(format!("unsupported {what} format {magic:?}: want {want:?}"));
        }
        Ok(())
    }

    /// A `{tag} …` line: the [`Fields`] after the tag.
    pub fn fields(&mut self, tag: &str) -> Result<Fields<'a>, String> {
        let line = self.until('\n', tag)?;
        let tokens = line.strip_prefix(tag).and_then(|r| r.strip_prefix(' '));
        tokens.map(fields).ok_or_else(|| format!("expected {tag} line, got {line:?}"))
    }

    /// A section — `"{name} {n}"`, then `n` lines — sliced out of the
    /// text where it lies.
    pub fn section(&mut self, name: &str) -> Result<&'a str, String> {
        let mut header = self.fields(name)?;
        let n = bounded_count(parse_int(header.word("line count")?, name)?, self.rest.len(), name)?;
        header.end()?;
        let (section, rest) = split_lines(self.rest, n)
            .ok_or_else(|| format!("{name} section truncated: fewer than {n} lines"))?;
        self.rest = rest;
        Ok(section)
    }

    /// One [`push_hex_line`] line: `prefix`, then `N` values at fixed
    /// offsets, single spaces between them and a newline after the last.
    pub fn hex_line<const N: usize>(&mut self, prefix: &str) -> Result<[f64; N], String> {
        let width = prefix.len() + 17 * N;
        let bad = || format!("truncated or malformed {prefix:?} line of {N} values");
        let line = self.rest.as_bytes().get(..width).ok_or_else(bad)?;
        if !line.starts_with(prefix.as_bytes()) {
            return Err(bad());
        }
        let mut vals = [0.0; N];
        for (k, v) in vals.iter_mut().enumerate() {
            let at = prefix.len() + 17 * k;
            let sep = if k + 1 == N { b'\n' } else { b' ' };
            match hex16(&line[at..at + 16]) {
                Some(bits) if line[at + 16] == sep => *v = f64::from_bits(bits),
                _ => return Err(bad()),
            }
        }
        // Every byte of `line` was matched against ASCII.
        self.rest = &self.rest[width..];
        Ok(vals)
    }
}

/// A byte [`enc`] writes as itself.
fn unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')
}

/// Percent-encode every byte outside `[A-Za-z0-9._-]` as `%xx`, lower
/// case, so that any string is one token. The empty string is `-`, and
/// so is `-` itself: both read back as empty.
pub fn enc(s: &str) -> String {
    let esc = |b: u8| if unreserved(b) { (b as char).to_string() } else { format!("%{b:02x}") };
    match s {
        "" => "-".to_string(),
        _ => s.bytes().map(esc).collect(),
    }
}

/// Inverse of [`enc`], and of nothing else: an escape is `%` and two
/// lower-case hex digits of a byte `enc` escapes, and every other byte
/// is one it keeps.
pub fn dec(s: &str) -> Result<String, String> {
    if s == "-" {
        return Ok(String::new());
    }
    let bad = || format!("{s:?} is not percent-encoded as the writer encodes");
    let (mut out, mut bytes) = (Vec::with_capacity(s.len()), s.bytes());
    while let Some(b) = bytes.next() {
        out.push(match b {
            b'%' => match (bytes.next().and_then(nibble), bytes.next().and_then(nibble)) {
                (Some(hi), Some(lo)) if !unreserved(hi << 4 | lo) => hi << 4 | lo,
                _ => return Err(bad()),
            },
            b if unreserved(b) => b,
            _ => return Err(bad()),
        });
    }
    if out.is_empty() {
        return Err(bad());
    }
    String::from_utf8(out).map_err(|_| format!("decoded {s:?} is not UTF-8"))
}

/// Replace `path` by `bytes` whole: write a `.tmp` sibling and rename it
/// over `path`, so that a reader — or a crash — finds the old file or the
/// new one, never part of one. A tmp the rename could not move is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_counted_and_split_at_newlines() {
        let long: String = (0..3000).map(|i| format!("line {i}\n")).collect();
        assert_eq!(count_lines(&long), 3000);
        assert_eq!(count_lines("a\nb"), 1, "an unterminated tail is not a line");
        for n in [0, 1, 2, 511, 512, 2999, 3000] {
            let (head, tail) = split_lines(&long, n).unwrap();
            assert_eq!((head.lines().count(), tail.lines().count()), (n, 3000 - n));
            assert_eq!(format!("{head}{tail}"), long);
        }
        assert_eq!(split_lines(&long, 3001), None);
        assert_eq!(split_lines("", 0), Some(("", "")));
        assert_eq!(split_lines("no newline", 1), None);
    }

    #[test]
    fn enc_dec_round_trips_hostile_strings() {
        for s in ["", "plain", "with space", "näme\n=x%", "a=b c=d"] {
            assert_eq!(dec(&enc(s)).unwrap(), s);
        }
        assert!(!enc("a b").contains(' '));
        assert!(!enc("k=v").contains('='));
        assert_eq!(enc("a/b"), "a%2fb");
    }

    /// `dec` reads `enc`'s spelling and no other: upper-case or short
    /// escapes, an escaped byte `enc` keeps, a raw byte it escapes.
    #[test]
    fn dec_refuses_what_enc_never_writes() {
        for bad in ["a%2Fb", "a%2", "a%", "%2d", "%41", "a b", "a=b", "", "%zz"] {
            assert!(dec(bad).is_err(), "{bad:?} decoded");
        }
        assert_eq!(dec("a%2fb").unwrap(), "a/b");
    }

    /// The word-wide digit computation against one `format!` per value,
    /// on every nibble value in every position and on random words.
    #[test]
    fn hex_lines_match_the_formatter() {
        let mut words: Vec<u64> = (0..16u64).map(|n| n * 0x1111_1111_1111_1111).collect();
        words.extend((0..64).map(|k| 1u64 << k));
        let mut rng = crate::SplitMix64::new(7);
        words.extend((0..1000).map(|_| rng.next_u64()));
        for w in words {
            let v = f64::from_bits(w);
            let mut out = Vec::new();
            push_hex_line(&mut out, b"P ", &[v, -v]);
            let want = format!("P {w:016x} {:016x}\n", (-v).to_bits());
            assert_eq!(String::from_utf8(out).unwrap(), want);
            assert_eq!(hex16(format!("{w:016x}").as_bytes()), Some(w));
        }
    }

    #[test]
    fn integers_hex_and_fields_are_canonical() {
        assert_eq!(parse_int::<u64>("0", "n"), Ok(0));
        assert_eq!(parse_int::<u64>("17", "n"), Ok(17));
        for bad in ["+7", "07", "", " 7", "7 ", "-1"] {
            assert!(parse_int::<u64>(bad, "n").is_err(), "{bad:?} parsed");
        }
        assert_eq!(parse_hex("00000000000000ff", "h"), Ok(0xff));
        for bad in ["00000000000000FF", "ff", "000000000000000ff", "+0000000000000ff"] {
            assert!(parse_hex(bad, "h").is_err(), "{bad:?} parsed");
        }
        let ab = |line: &str| -> Result<(u64, u64), String> {
            let mut f = fields(line);
            let ab = (f.int("a")?, f.int("b")?);
            f.end().map(|()| ab)
        };
        assert_eq!(ab("a=1 b=2"), Ok((1, 2)));
        let bad = ["b=2 a=1", "a=1  b=2", "a=1 b=2 ", "a=1 b=2 c=3", "a=1", "a=1 a=1", "a=01 b=2"];
        for bad in bad {
            assert!(ab(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn digest_lines_headers_and_trailers() {
        assert_eq!(digest_line("digest 00000000000000aa"), Ok(0xaa));
        assert!(digest_line("digest 00000000000000AA").is_err());
        assert_eq!(digest_trailer("x\ny\ndigest 0000000000000001\n"), Ok(("x\ny\n", 1)));
        assert!(digest_trailer("x\ndigest 0000000000000001").is_err());
        assert!(digest_trailer("x\ndigest 0000000000000001\n\n").is_err());
        assert!(check_digest("t", 1, 2).unwrap_err().contains("digest mismatch"));
        let mut cur = Cursor { rest: "fmt v1\n" };
        assert!(cur.magic("fmt v2", "test").unwrap_err().contains("unsupported test format"));
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("cfpd-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let taken = dir.join("taken");
        std::fs::create_dir_all(&taken).unwrap();
        assert!(write_atomic(&taken, b"x").is_err(), "a directory is not replaced");
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names.len(), 2, "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
