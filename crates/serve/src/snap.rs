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
//! recovery reads the file once. [`SnapshotParts`] is the one writer: a
//! boundary hands it the live checkpoint, which it encodes straight into
//! the worker's buffer; a [`CellSnapshot`] hands it the checkpoint text.

use crate::wal::PersistGate;
use cfpd_campaign::CellAcc;
use cfpd_core::Checkpoint;
use cfpd_testkit::digest_wide;
use cfpd_testkit::record::{check_digest, count_lines, digest_line, parse_int, write_atomic, Cursor};
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

/// The checkpoint section of a snapshot, in either form the writer takes.
#[derive(Debug, Clone, Copy)]
pub enum CheckpointSection<'a> {
    /// [`Checkpoint::to_text`] already rendered: what recovery decodes
    /// into a [`CellSnapshot`].
    Text(&'a str),
    /// The live checkpoint of a segment boundary, encoded straight into
    /// the snapshot's buffer.
    Live(&'a Checkpoint),
}

/// What a snapshot file holds, borrowed: the input of the one writer.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotParts<'a> {
    pub job: u64,
    pub cell: usize,
    pub attempt: u32,
    pub next_step: usize,
    pub acc: &'a CellAcc,
    pub events_text: &'a str,
    pub checkpoint: CheckpointSection<'a>,
}

impl SnapshotParts<'_> {
    /// The one place the snapshot text is produced, in one pass over
    /// `out` (cleared first): header, then the body written once, then
    /// the body's digest patched into the header. Returns that digest.
    fn render_into(&self, out: &mut Vec<u8>) -> u64 {
        use std::io::Write;
        const DIGEST_HEX: usize = 16;
        out.clear();
        out.extend_from_slice(SNAP_MAGIC.as_bytes());
        out.extend_from_slice(b"\ndigest ");
        let digest_at = out.len();
        out.extend_from_slice(b"0000000000000000\n");
        let body_at = out.len();
        // Writing to a `Vec<u8>` cannot fail.
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
        writeln!(out, "events {}", count_lines(self.events_text)).unwrap();
        out.extend_from_slice(self.events_text.as_bytes());
        match self.checkpoint {
            CheckpointSection::Text(text) => {
                writeln!(out, "checkpoint {}", count_lines(text)).unwrap();
                out.extend_from_slice(text.as_bytes());
            }
            CheckpointSection::Live(cp) => {
                writeln!(out, "checkpoint {}", cp.text_lines()).unwrap();
                cp.write_text(out);
            }
        }
        let digest = digest_wide(&out[body_at..]);
        out[digest_at..digest_at + DIGEST_HEX].copy_from_slice(format!("{digest:016x}").as_bytes());
        digest
    }

    /// Render into `buf` and replace `path` by it, atomically and gated.
    /// Returns the digest the file's header states — what the WAL `ckpt`
    /// record pins, so replay can tell a snapshot the crash tore or a
    /// later boundary replaced — and whether the file was written
    /// (`false`: the persistence gate froze, the simulated crash ate it).
    pub fn write(&self, path: &Path, gate: &PersistGate, buf: &mut Vec<u8>) -> (u64, bool) {
        let digest = self.render_into(buf);
        let written = gate.admit() && write_atomic(path, buf).is_ok();
        if written {
            cfpd_telemetry::count!("serve.checkpoints");
        }
        (digest, written)
    }
}

impl CellSnapshot {
    fn parts(&self) -> SnapshotParts<'_> {
        SnapshotParts {
            job: self.job,
            cell: self.cell,
            attempt: self.attempt,
            next_step: self.next_step,
            acc: &self.acc,
            events_text: &self.events_text,
            checkpoint: CheckpointSection::Text(&self.checkpoint_text),
        }
    }

    pub fn to_text(&self) -> String {
        let mut out = Vec::with_capacity(
            SNAP_MAGIC.len() + 256 + self.events_text.len() + self.checkpoint_text.len(),
        );
        self.parts().render_into(&mut out);
        String::from_utf8(out).expect("the codec writes UTF-8")
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
        self.parts().write(path, gate, &mut Vec::new()).1
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
    use cfpd_core::{LogicalEvent, RankCheckpoint};
    use cfpd_mesh::Vec3;
    use cfpd_particles::{ParticleProps, ParticleSet, ParticleState};
    use cfpd_testkit::prop::{check, Gen, PropConfig};
    use cfpd_testkit::Rng;

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

    /// Checkpoints of every shape a boundary parks: synchronous ranks
    /// (fields and particles) or coupled ones (fields or particles), any
    /// section possibly empty, particles in every state, and values that
    /// are arbitrary bit patterns (NaNs, infinities, `-0.0`) half the time.
    struct Checkpoints;

    impl Gen for Checkpoints {
        type Value = Checkpoint;

        fn generate(&self, rng: &mut Rng) -> Checkpoint {
            let value = |rng: &mut Rng| match rng.bounded_u64(2) {
                0 => f64::from_bits(rng.next_u64()),
                _ => rng.range_f64(-2.0, 2.0),
            };
            let vec3 = |rng: &mut Rng| Vec3::new(value(rng), value(rng), value(rng));
            let len = |rng: &mut Rng| match rng.bounded_u64(3) {
                0 => 0,
                _ => rng.range_usize(1, 40),
            };
            let n_ranks = rng.range_usize(1, 4);
            let coupled_fluid = match rng.bounded_u64(2) {
                0 => None,
                _ => Some(rng.range_usize(0, n_ranks + 1)),
            };
            let states = [
                ParticleState::Active,
                ParticleState::Deposited,
                ParticleState::Escaped,
                ParticleState::Lost,
            ];
            let ranks = (0..n_ranks)
                .map(|rank| {
                    let (fields, particles) = match coupled_fluid {
                        None => (true, true),
                        Some(fluid) => (rank < fluid, rank >= fluid),
                    };
                    let (nodes, points) =
                        if fields { (len(rng), len(rng)) } else { (0, 0) };
                    let mut set = ParticleSet::default();
                    for i in 0..if particles { len(rng) } else { 0 } {
                        set.pos.push(vec3(rng));
                        set.vel.push(vec3(rng));
                        set.acc.push(vec3(rng));
                        set.elem.push(rng.next_u64() as u32);
                        set.state.push(states[(i + rng.range_usize(0, 4)) % 4]);
                        set.props.push(ParticleProps { diameter: value(rng), density: value(rng) });
                    }
                    RankCheckpoint {
                        rank,
                        velocity: (0..nodes).map(|_| vec3(rng)).collect(),
                        pressure: (0..nodes).map(|_| value(rng)).collect(),
                        sgs: (0..points).map(|_| vec3(rng)).collect(),
                        particles: set,
                    }
                })
                .collect();
            Checkpoint {
                next_step: rng.range_usize(0, 1000),
                n_ranks,
                seed: rng.next_u64(),
                config_digest: rng.next_u64(),
                ranks,
            }
        }
    }

    /// The writer fed the live checkpoint writes the bytes it writes from
    /// the checkpoint's text, and states the checkpoint's line count as
    /// the text has it; the digest it returns is the one the file states.
    #[test]
    fn a_live_checkpoint_writes_the_bytes_of_its_text() {
        let s = sample();
        check("live == text snapshot", PropConfig::cases(200), &Checkpoints, |cp| {
            let text = cp.to_text();
            assert_eq!(cp.text_lines(), count_lines(&text));
            let want = CellSnapshot { checkpoint_text: text.clone(), ..s.clone() }.to_text();
            let mut buf = b"stale bytes of an earlier boundary".to_vec();
            let parts = SnapshotParts { checkpoint: CheckpointSection::Live(cp), ..s.parts() };
            let digest = parts.render_into(&mut buf);
            assert!(buf == want.as_bytes(), "live rendering differs from the text one");
            let back = CellSnapshot::from_pinned_text(&want, digest).expect("pinned snapshot");
            // Bits, not `==`: a NaN value is not equal to itself.
            let restored = Checkpoint::from_text(&back.checkpoint_text).expect("checkpoint");
            assert!(restored.to_text() == text, "the checkpoint section does not restore");
        });
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
    /// the header states is what the writer returns for the WAL pin is
    /// what `from_pinned_text` accepts.
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
        assert_eq!(s.parts().write(&path, &PersistGate::unlimited(), &mut Vec::new()), (stated, true));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, want);
        assert_eq!(CellSnapshot::from_pinned_text(&on_disk, stated).unwrap(), s);
        let err = CellSnapshot::from_pinned_text(&on_disk, stated ^ 1).unwrap_err();
        assert!(err.contains("the WAL pins"), "{err}");
        // A frozen gate eats the file, not the digest the WAL would pin.
        assert_eq!(s.parts().write(&path, &PersistGate::kill_after(0), &mut Vec::new()), (stated, false));
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
