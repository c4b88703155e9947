//! Per-cell progress snapshots — what turns the daemon's segment loop
//! into *bit-identical* resume.
//!
//! Every cell runs as a chain of `stop_after` segments (see
//! `cfpd_core::RunOptions`). At every boundary the worker persists a
//! snapshot holding (a) the golden event text produced so far, (b) the
//! metrics accumulator over those events, and (c) the full
//! `cfpd_core::checkpoint` hex-text for the physics state. A restarted
//! daemon reloads the snapshot, restores the checkpoint, runs the
//! remaining steps, and stitches `header + events + summary` into a
//! document byte-equal to the uninterrupted run's — same digest, same
//! canonical report.
//!
//! The file format (`cfpd serve snapshot v2`) is written in
//! `cfpd_testkit::record`'s grammar: versioned magic, a digest line, the
//! ordered `meta` and `acc` fields, then line-counted sections whose
//! declared counts are bounded by the input size (hostile length
//! prefixes are rejected before allocation). The digest line holds the
//! one word-wide digest of everything below it, computed once when the
//! text is produced: it is the file's self-check *and* the value the WAL
//! `ckpt` record pins, so a boundary reads the parked state once and
//! recovery reads the file once.

use crate::wal::PersistGate;
use cfpd_campaign::CellAcc;
use cfpd_testkit::digest_wide;
use cfpd_testkit::record::{check_digest, count_lines, digest_line, parse_int, write_atomic, Cursor};
use std::fmt::Write as _;
use std::path::Path;

pub const SNAP_MAGIC: &str = "cfpd serve snapshot v2";

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
    /// digest patched into the header. Returns the text and that digest.
    fn render(&self) -> (String, u64) {
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
        writeln!(out, "events {}", count_lines(&self.events_text)).unwrap();
        out.push_str(&self.events_text);
        writeln!(out, "checkpoint {}", count_lines(&self.checkpoint_text)).unwrap();
        out.push_str(&self.checkpoint_text);
        let digest = digest_wide(&out.as_bytes()[body_at..]);
        out.replace_range(digest_at..digest_at + DIGEST_HEX, &format!("{digest:016x}"));
        (out, digest)
    }

    pub fn to_text(&self) -> String {
        self.render().0
    }

    pub fn from_text(text: &str) -> Result<CellSnapshot, String> {
        Self::decode(text, None)
    }

    /// [`CellSnapshot::from_text`] of the file a WAL `ckpt` record pins:
    /// the digest the header states must be `pin` — the file is the one
    /// the record was written for — and the body must have it — the file
    /// is whole. One pass over the text serves both.
    pub fn from_pinned_text(text: &str, pin: u64) -> Result<CellSnapshot, String> {
        Self::decode(text, Some(pin))
    }

    fn decode(text: &str, pin: Option<u64>) -> Result<CellSnapshot, String> {
        let mut cur = Cursor { rest: text };
        cur.magic(SNAP_MAGIC, "snapshot")?;
        let stated = digest_line(cur.until('\n', "digest line")?)?;
        if let Some(pin) = pin.filter(|&pin| pin != stated) {
            return Err(format!("snapshot states digest {stated:016x}, the WAL pins {pin:016x}"));
        }
        check_digest("snapshot", stated, digest_wide(cur.rest.as_bytes()))?;

        let mut meta = cur.fields("meta")?;
        let (job, cell) = (meta.int("job")?, meta.int("cell")?);
        let (attempt, next_step) = (meta.int("attempt")?, meta.int("next_step")?);
        meta.end()?;
        let mut fields = cur.fields("acc")?;
        let acc = CellAcc {
            events: fields.int("events")?,
            iters_total: fields.int("iters")?,
            iters_poisson: fields.int("itersp")?,
            elems: parse_elems(fields.get("elems")?)?,
        };
        fields.end()?;
        let events_text = cur.section("events")?.to_string();
        let checkpoint_text = cur.section("checkpoint")?.to_string();
        if !cur.rest.is_empty() {
            return Err(format!("{} bytes after the checkpoint section", cur.rest.len()));
        }
        Ok(CellSnapshot { job, cell, attempt, next_step, acc, events_text, checkpoint_text })
    }

    /// Atomic, gated write (tmp+rename). `false` means the persistence
    /// gate froze — the simulated crash ate this snapshot.
    pub fn write(&self, path: &Path, gate: &PersistGate) -> bool {
        self.write_digest(path, gate).1
    }

    /// [`CellSnapshot::write`], returning with it the digest the file's
    /// header states — what the WAL `ckpt` record pins, so replay can
    /// tell a snapshot the crash tore or a later boundary replaced.
    /// Returns `(digest, written)`.
    pub fn write_digest(&self, path: &Path, gate: &PersistGate) -> (u64, bool) {
        let (text, digest) = self.render();
        let written = gate.admit() && write_atomic(path, text.as_bytes()).is_ok();
        if written {
            cfpd_telemetry::count!("serve.checkpoints");
        }
        (digest, written)
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
            Ok((parse_int(r, "elem rank")?, parse_int(e, "elem count")?))
        })
        .collect()
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
            checkpoint_text: "cfpd checkpoint v2\nfake body line\n".into(),
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

    /// Format v2, byte for byte, and one serialization, one digest: what
    /// the header states is what `write_digest` returns for the WAL pin
    /// is what `from_pinned_text` accepts.
    #[test]
    fn text_is_format_v2_byte_for_byte_and_is_written_once() {
        let s = sample();
        let body = format!(
            "meta job=3 cell=1 attempt=2 next_step=4\n\
             acc events=3 iters=17 itersp=17 elems=0:120,1:100\n\
             events 2\n{}checkpoint 2\n{}",
            s.events_text, s.checkpoint_text
        );
        let stated = digest_wide(body.as_bytes());
        assert_eq!(stated, 0x5b06178d90b30342, "the digest is part of the format");
        let want = format!("{SNAP_MAGIC}\ndigest {stated:016x}\n{body}");
        assert_eq!(SNAP_MAGIC, "cfpd serve snapshot v2");
        assert_eq!(s.to_text(), want);

        let dir = std::env::temp_dir().join(format!("cfpd-snap-once-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        assert_eq!(s.write_digest(&path, &PersistGate::unlimited()), (stated, true));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, want);
        assert_eq!(CellSnapshot::from_pinned_text(&on_disk, stated).unwrap(), s);
        let err = CellSnapshot::from_pinned_text(&on_disk, stated ^ 1).unwrap_err();
        assert!(err.contains("the WAL pins"), "{err}");
        // A frozen gate eats the file, not the digest the WAL would pin.
        assert_eq!(s.write_digest(&path, &PersistGate::kill_after(0)), (stated, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No v1 reader survives: the magic line refuses the file, by name.
    #[test]
    fn a_v1_file_is_refused_by_name() {
        let v1 = sample().to_text().replacen("v2", "v1", 1);
        let err = CellSnapshot::from_text(&v1).unwrap_err();
        assert!(err.contains("unsupported snapshot format"), "{err}");
        assert!(err.contains("cfpd serve snapshot v1"), "{err}");
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
            digest_wide(hostile_body.as_bytes())
        );
        assert!(CellSnapshot::from_text(&hostile).unwrap_err().contains("exceeds"));
        assert!(CellSnapshot::from_text("junk\n").unwrap_err().contains("unsupported snapshot format"));
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
