//! Per-cell progress snapshots — what turns the daemon's segment loop
//! into *bit-identical* resume.
//!
//! A checkpointable cell runs as a chain of `stop_after` segments (see
//! `cfpd_core::RunOptions`). At every boundary the worker persists a
//! snapshot holding (a) the golden event text produced so far, (b) the
//! metrics accumulator over those events, and (c) the full
//! `cfpd_core::checkpoint` hex-text for the physics state. A restarted
//! daemon reloads the snapshot, restores the checkpoint, runs the
//! remaining steps, and stitches `header + events + summary` into a
//! document byte-equal to the uninterrupted run's — same digest, same
//! canonical report.
//!
//! The file format follows the checkpoint codec: versioned magic, a
//! whole-body digest line, then line-counted sections whose declared
//! counts are bounded by the input size (hostile length prefixes are
//! rejected before allocation, mirroring `Checkpoint::from_text`).

use crate::wal::{KeyValues, PersistGate};
use cfpd_campaign::CellAcc;
use cfpd_testkit::digest_bytes;
use std::fmt::Write as _;
use std::path::Path;

pub const SNAP_MAGIC: &str = "cfpd serve snapshot v1";

/// A cell parked mid-flight: accumulator + partial event text + the
/// physics checkpoint, all digest-guarded in one file.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    pub job: u64,
    pub cell: usize,
    pub attempt: u32,
    /// First step the resumed segment executes.
    pub next_step: usize,
    pub acc: CellAcc,
    /// Golden event lines produced so far (newline-terminated).
    pub events_text: String,
    /// `Checkpoint::to_text` of the parked physics state.
    pub checkpoint_text: String,
}

impl CellSnapshot {
    /// The one place the snapshot text is produced: header, then the
    /// body written once into a buffer sized for it, then the body's
    /// digest patched into the header.
    pub fn to_text(&self) -> String {
        const DIGEST_HEX: usize = 16;
        let mut out = String::with_capacity(
            SNAP_MAGIC.len() + 256 + self.events_text.len() + self.checkpoint_text.len(),
        );
        out.push_str(SNAP_MAGIC);
        out.push_str("\ndigest ");
        let digest_at = out.len();
        out.push_str("0000000000000000\n");
        let body_at = out.len();
        // Writing to a `String` cannot fail.
        writeln!(
            out,
            "meta job={} cell={} attempt={} next_step={}",
            self.job, self.cell, self.attempt, self.next_step
        )
        .unwrap();
        writeln!(
            out,
            "acc events={} iters={} itersp={} elems={}",
            self.acc.events,
            self.acc.iters_total,
            self.acc.iters_poisson,
            render_elems(&self.acc.elems),
        )
        .unwrap();
        writeln!(out, "events {}", self.events_text.lines().count()).unwrap();
        out.push_str(&self.events_text);
        writeln!(out, "checkpoint {}", self.checkpoint_text.lines().count()).unwrap();
        out.push_str(&self.checkpoint_text);
        let digest = format!("{:016x}", digest_bytes(&out.as_bytes()[body_at..]));
        out.replace_range(digest_at..digest_at + DIGEST_HEX, &digest);
        out
    }

    /// Digest of the serialized snapshot — what the WAL `ckpt` record
    /// pins, so replay can detect a snapshot file the crash tore.
    pub fn digest(&self) -> u64 {
        digest_bytes(self.to_text().as_bytes())
    }

    pub fn from_text(text: &str) -> Result<CellSnapshot, String> {
        let total_lines = text.lines().count();
        let bounded = |n: usize, what: &str| -> Result<usize, String> {
            if n > total_lines {
                Err(format!(
                    "declared {what} count {n} exceeds the {total_lines} lines of input \
                     (corrupt or hostile length prefix)"
                ))
            } else {
                Ok(n)
            }
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(SNAP_MAGIC) => {}
            other => return Err(format!("bad snapshot magic: {other:?}")),
        }
        let digest_line = lines.next().ok_or("missing digest line")?;
        let stated = digest_line
            .strip_prefix("digest ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad digest line {digest_line:?}"))?;
        let body_at = text
            .find("\ndigest ")
            .and_then(|i| text[i + 1..].find('\n').map(|j| i + 1 + j + 1))
            .ok_or("cannot locate snapshot body")?;
        let body = &text[body_at..];
        let actual = digest_bytes(body.as_bytes());
        if stated != actual {
            return Err(format!("snapshot digest mismatch: stated {stated:016x}, actual {actual:016x}"));
        }

        let mut key_values = |name: &'static str| -> Result<KeyValues, String> {
            let line = lines.next().ok_or_else(|| format!("missing {name} line"))?;
            let tokens = line
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| format!("bad {name} line"))?;
            KeyValues::parse(name, tokens)
        };
        let meta = key_values("meta")?;
        let (job, cell, attempt, next_step) = (
            meta.int("job")?,
            meta.int("cell")? as usize,
            meta.int("attempt")? as u32,
            meta.int("next_step")? as usize,
        );
        let acc = key_values("acc")?;
        let acc = CellAcc {
            events: acc.int("events")?,
            iters_total: acc.int("iters")?,
            iters_poisson: acc.int("itersp")?,
            elems: parse_elems(acc.get("elems")?)?,
        };

        let mut read_section = |name: &str| -> Result<String, String> {
            let header = lines.next().ok_or_else(|| format!("missing {name} section"))?;
            let n: usize = header
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .and_then(|r| r.parse().ok())
                .ok_or_else(|| format!("bad {name} section header {header:?}"))?;
            let n = bounded(n, name)?;
            let mut out = String::new();
            for i in 0..n {
                let line =
                    lines.next().ok_or_else(|| format!("{name} section truncated at line {i}"))?;
                out.push_str(line);
                out.push('\n');
            }
            Ok(out)
        };
        let events_text = read_section("events")?;
        let checkpoint_text = read_section("checkpoint")?;
        Ok(CellSnapshot { job, cell, attempt, next_step, acc, events_text, checkpoint_text })
    }

    /// Atomic, gated write (tmp+rename). `false` means the persistence
    /// gate froze — the simulated crash ate this snapshot.
    pub fn write(&self, path: &Path, gate: &PersistGate) -> bool {
        write_text(&self.to_text(), path, gate)
    }

    /// [`CellSnapshot::digest`] and [`CellSnapshot::write`] of one
    /// serialization: the text is built once, digested, and those bytes
    /// are written. Returns `(digest, written)`.
    pub fn write_digest(&self, path: &Path, gate: &PersistGate) -> (u64, bool) {
        let text = self.to_text();
        (digest_bytes(text.as_bytes()), write_text(&text, path, gate))
    }
}

fn render_elems(elems: &[(usize, u64)]) -> String {
    if elems.is_empty() {
        return "-".to_string();
    }
    elems.iter().map(|(r, e)| format!("{r}:{e}")).collect::<Vec<_>>().join(",")
}

fn parse_elems(s: &str) -> Result<Vec<(usize, u64)>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|tok| {
            let (r, e) = tok.split_once(':').ok_or_else(|| format!("bad elem {tok:?}"))?;
            Ok((
                r.parse().map_err(|_| format!("bad rank in {tok:?}"))?,
                e.parse().map_err(|_| format!("bad count in {tok:?}"))?,
            ))
        })
        .collect()
}

fn write_text(text: &str, path: &Path, gate: &PersistGate) -> bool {
    if !gate.admit() {
        return false;
    }
    let tmp = path.with_extension("snap.tmp");
    let ok = std::fs::write(&tmp, text).and_then(|_| std::fs::rename(&tmp, path)).is_ok();
    if ok {
        cfpd_telemetry::count!("serve.checkpoints");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_core::LogicalEvent;

    fn sample() -> CellSnapshot {
        let mut acc = CellAcc::default();
        acc.absorb(&[
            LogicalEvent::Assembly { step: 0, rank: 0, elements: 120 },
            LogicalEvent::Assembly { step: 0, rank: 1, elements: 100 },
            LogicalEvent::Solve {
                step: 0,
                rank: 0,
                system: 3,
                iterations: 17,
                residual_bits: 42,
                converged: true,
            },
        ]);
        CellSnapshot {
            job: 3,
            cell: 1,
            attempt: 2,
            next_step: 4,
            acc,
            events_text: "step 0 rank 0 assembly elements=120\nstep 0 rank 1 x\n".into(),
            checkpoint_text: "cfpd checkpoint v1\nfake body line\n".into(),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let s = sample();
        let text = s.to_text();
        let back = CellSnapshot::from_text(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text);
        assert_eq!(back.acc.iters_total, 17);
        assert_eq!(back.acc.iters_poisson, 17);
        assert_eq!(back.acc.elems, vec![(0, 120), (1, 100)]);
        assert!((back.acc.lb_assembly() - (220.0 / 240.0)).abs() < 1e-12);
    }

    /// Format v1, byte for byte, and one serialization serving text,
    /// digest and file alike.
    #[test]
    fn text_is_what_the_v1_writer_wrote_and_is_written_once() {
        let s = sample();
        let body = format!(
            "meta job=3 cell=1 attempt=2 next_step=4\n\
             acc events=3 iters=17 itersp=17 elems=0:120,1:100\n\
             events 2\n{}checkpoint 2\n{}",
            s.events_text, s.checkpoint_text
        );
        let want =
            format!("{SNAP_MAGIC}\ndigest {:016x}\n{body}", digest_bytes(body.as_bytes()));
        assert_eq!(s.to_text(), want);
        assert_eq!(s.digest(), digest_bytes(want.as_bytes()));

        let dir = std::env::temp_dir().join(format!("cfpd-snap-once-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        let (digest, written) = s.write_digest(&path, &PersistGate::unlimited());
        assert!(written);
        assert_eq!(digest, s.digest());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        // A frozen gate eats the file, not the digest the WAL would pin.
        assert_eq!(s.write_digest(&path, &PersistGate::kill_after(0)), (digest, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_hostile_prefixes_are_rejected() {
        let s = sample();
        let text = s.to_text();
        // Flip one byte of the events payload: digest guard trips.
        let bad = text.replace("elements=120", "elements=121");
        assert!(CellSnapshot::from_text(&bad).unwrap_err().contains("digest mismatch"));
        // Hostile section count: rejected by the bound, not an OOM.
        // (Recompute the digest so only the length prefix is at fault.)
        let hostile_body = text
            .splitn(3, '\n')
            .nth(2)
            .unwrap()
            .replace("events 2", "events 99999999999999");
        let hostile = format!(
            "{SNAP_MAGIC}\ndigest {:016x}\n{hostile_body}",
            digest_bytes(hostile_body.as_bytes())
        );
        assert!(CellSnapshot::from_text(&hostile).unwrap_err().contains("exceeds"));
        assert!(CellSnapshot::from_text("junk\n").unwrap_err().contains("magic"));
    }

    #[test]
    fn gated_write_simulates_a_torn_disk() {
        let dir = std::env::temp_dir().join(format!("cfpd-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        let s = sample();
        let gate = PersistGate::kill_after(1);
        assert!(s.write(&path, &gate));
        assert!(!s.write(&path, &gate), "second write must hit the frozen gate");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(CellSnapshot::from_text(&on_disk).unwrap(), s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
