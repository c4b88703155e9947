//! The digest-guarded write-ahead log behind the job supervisor.
//!
//! Written in `cfpd_testkit::record`'s grammar, as the checkpoint is:
//! line-oriented, human-readable, every record carrying an FNV-1a digest
//! so replay can trust exactly the valid prefix and ignore a torn or
//! corrupted tail. Format:
//!
//! ```text
//! cfpd serve wal v1
//! r <seq> <digest16> <kind> key=value ...
//! ```
//!
//! `digest16` is `digest_bytes("{seq} {body}")`; `seq` starts at 1 and
//! increments by one, so replay also detects spliced or reordered
//! records. Bodies are `kind` and its `key=value` fields in a fixed
//! order; free-form strings (names, failure reasons) are
//! percent-encoded to keep the format strictly line- and
//! space-delimited.
//!
//! All persistence — appends here, spec and snapshot files in
//! [`crate::daemon`] — funnels through a [`PersistGate`], which the
//! fault plan can freeze after N appends: from that instant nothing
//! reaches disk, which is byte-for-byte what a `kill -9` at that point
//! leaves behind. The crash-recovery sweep drives restarts through
//! every cut point without ever killing the test process.

use cfpd_campaign::CanonMetrics;
use cfpd_testkit::digest_bytes;
use cfpd_testkit::record::{check_digest, dec, enc, fields, parse_hex, parse_int};
use cfpd_testkit::record::{write_atomic, Cursor};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub const WAL_MAGIC: &str = "cfpd serve wal v1";

/// One supervisor state transition. What each kind does to a job is
/// written once, in [`crate::state::Store::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Job admitted; its spec text lives in `job-<id>.campaign` (written
    /// before this record), pinned by `spec_digest`.
    Submit { job: u64, name: String, spec_digest: u64 },
    /// A worker started (or resumed) cell `cell` of the job.
    Start { job: u64, cell: usize, attempt: u32 },
    /// Segment boundary: snapshot `job-<id>-cell-<cell>.snap` persisted
    /// (digest `snap_digest`), next unexecuted step is `step`.
    Ckpt { job: u64, cell: usize, step: usize, snap_digest: u64 },
    /// Cell finished; canonical metrics inline, so a replayed daemon
    /// rebuilds the cell's report entry without re-running it.
    CellDone { job: u64, cell: usize, rec: CanonMetrics },
    /// Cell failed terminally (retries exhausted / timeout).
    CellFail { job: u64, cell: usize, reason: String },
    /// Attempt failed; retrying after `backoff_ms`.
    Retry { job: u64, cell: usize, attempt: u32, backoff_ms: u64, reason: String },
    /// Job parked on its checkpoint (preemption or drain).
    Preempt { job: u64, cell: usize },
    Done { job: u64 },
    Fail { job: u64, reason: String },
    Cancel { job: u64 },
}

impl WalRecord {
    /// Stable numeric kind for the flight-recorder mirror (the dump's
    /// `wal kind#<code>` events; order matches the enum).
    pub fn kind_code(&self) -> u32 {
        match self {
            WalRecord::Submit { .. } => 1,
            WalRecord::Start { .. } => 2,
            WalRecord::Ckpt { .. } => 3,
            WalRecord::CellDone { .. } => 4,
            WalRecord::CellFail { .. } => 5,
            WalRecord::Retry { .. } => 6,
            WalRecord::Preempt { .. } => 7,
            WalRecord::Done { .. } => 8,
            WalRecord::Fail { .. } => 9,
            WalRecord::Cancel { .. } => 10,
        }
    }

    /// The record's subject job.
    pub fn job_id(&self) -> u64 {
        match self {
            WalRecord::Submit { job, .. }
            | WalRecord::Start { job, .. }
            | WalRecord::Ckpt { job, .. }
            | WalRecord::CellDone { job, .. }
            | WalRecord::CellFail { job, .. }
            | WalRecord::Retry { job, .. }
            | WalRecord::Preempt { job, .. }
            | WalRecord::Done { job }
            | WalRecord::Fail { job, .. }
            | WalRecord::Cancel { job } => *job,
        }
    }

    /// The space-delimited record body (everything after the digest).
    pub fn render_body(&self) -> String {
        match self {
            WalRecord::Submit { job, name, spec_digest } => {
                format!("submit job={job} name={} spec={spec_digest:016x}", enc(name))
            }
            WalRecord::Start { job, cell, attempt } => {
                format!("start job={job} cell={cell} attempt={attempt}")
            }
            WalRecord::Ckpt { job, cell, step, snap_digest } => {
                format!("ckpt job={job} cell={cell} step={step} snap={snap_digest:016x}")
            }
            WalRecord::CellDone { job, cell, rec } => {
                let [ca, cd, ce, cl] = rec.census;
                let (events, iters, itersp) = (rec.events, rec.iters_total, rec.iters_poisson);
                format!(
                    "celldone job={job} cell={cell} digest={:016x} events={events} iters={iters} \
                     itersp={itersp} ca={ca} cd={cd} ce={ce} cl={cl} dfrac={:016x} lb={:016x}",
                    rec.digest, rec.deposited_frac_bits, rec.lb_assembly_bits,
                )
            }
            WalRecord::CellFail { job, cell, reason } => {
                format!("cellfail job={job} cell={cell} reason={}", enc(reason))
            }
            WalRecord::Retry { job, cell, attempt, backoff_ms, reason } => format!(
                "retry job={job} cell={cell} attempt={attempt} backoff_ms={backoff_ms} \
                 reason={}",
                enc(reason),
            ),
            WalRecord::Preempt { job, cell } => format!("preempt job={job} cell={cell}"),
            WalRecord::Done { job } => format!("done job={job}"),
            WalRecord::Fail { job, reason } => {
                format!("fail job={job} reason={}", enc(reason))
            }
            WalRecord::Cancel { job } => format!("cancel job={job}"),
        }
    }

    /// Parse a record body: its kind, then that kind's fields in the
    /// order [`WalRecord::render_body`] writes them.
    pub fn parse_body(body: &str) -> Result<WalRecord, String> {
        let mut f = fields(body);
        let rec = match f.word("record kind")? {
            "submit" => WalRecord::Submit {
                job: f.int("job")?,
                name: dec(f.get("name")?)?,
                spec_digest: f.hex("spec")?,
            },
            "start" => WalRecord::Start {
                job: f.int("job")?,
                cell: f.int("cell")?,
                attempt: f.int("attempt")?,
            },
            "ckpt" => WalRecord::Ckpt {
                job: f.int("job")?,
                cell: f.int("cell")?,
                step: f.int("step")?,
                snap_digest: f.hex("snap")?,
            },
            "celldone" => WalRecord::CellDone {
                job: f.int("job")?,
                cell: f.int("cell")?,
                rec: CanonMetrics {
                    digest: f.hex("digest")?,
                    events: f.int("events")?,
                    iters_total: f.int("iters")?,
                    iters_poisson: f.int("itersp")?,
                    census: [f.int("ca")?, f.int("cd")?, f.int("ce")?, f.int("cl")?],
                    deposited_frac_bits: f.hex("dfrac")?,
                    lb_assembly_bits: f.hex("lb")?,
                },
            },
            "cellfail" => WalRecord::CellFail {
                job: f.int("job")?,
                cell: f.int("cell")?,
                reason: dec(f.get("reason")?)?,
            },
            "retry" => WalRecord::Retry {
                job: f.int("job")?,
                cell: f.int("cell")?,
                attempt: f.int("attempt")?,
                backoff_ms: f.int("backoff_ms")?,
                reason: dec(f.get("reason")?)?,
            },
            "preempt" => WalRecord::Preempt { job: f.int("job")?, cell: f.int("cell")? },
            "done" => WalRecord::Done { job: f.int("job")? },
            "fail" => WalRecord::Fail { job: f.int("job")?, reason: dec(f.get("reason")?)? },
            "cancel" => WalRecord::Cancel { job: f.int("job")? },
            other => return Err(format!("unknown record kind {other:?}")),
        };
        f.end()?;
        Ok(rec)
    }
}

/// Freezes all persistence after a budgeted number of WAL appends —
/// the crash simulator. `u64::MAX` budget means unlimited.
#[derive(Debug)]
pub struct PersistGate {
    budget: AtomicU64,
    frozen: AtomicBool,
}

impl PersistGate {
    pub fn unlimited() -> Arc<PersistGate> {
        Arc::new(PersistGate { budget: AtomicU64::new(u64::MAX), frozen: AtomicBool::new(false) })
    }

    /// Freeze after `n` more admitted appends (0 freezes immediately).
    pub fn kill_after(n: u64) -> Arc<PersistGate> {
        Arc::new(PersistGate { budget: AtomicU64::new(n), frozen: AtomicBool::new(false) })
    }

    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Consume one persistence slot; `false` once frozen.
    pub fn admit(&self) -> bool {
        if self.frozen() {
            return false;
        }
        let mut cur = self.budget.load(Ordering::Relaxed);
        if cur == u64::MAX {
            return true;
        }
        loop {
            if cur == 0 {
                self.frozen.store(true, Ordering::Release);
                return false;
            }
            match self.budget.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

/// Append handle over the WAL file. Replay happens before opening
/// ([`replay`]), which also truncates any corrupt tail so appends
/// always extend a valid prefix.
pub struct Wal {
    file: Mutex<File>,
    seq: AtomicU64,
    gate: Arc<PersistGate>,
}

impl Wal {
    /// Rewrite `path` to exactly the replayed valid prefix (atomic
    /// tmp+rename) and open it for appending; `next_seq` continues the
    /// record numbering.
    pub fn open(
        path: &Path,
        valid_text: &str,
        next_seq: u64,
        gate: Arc<PersistGate>,
    ) -> std::io::Result<Wal> {
        write_atomic(path, format!("{WAL_MAGIC}\n{valid_text}").as_bytes())?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Wal { file: Mutex::new(file), seq: AtomicU64::new(next_seq), gate })
    }

    /// Append one record. `false` means the gate is frozen (simulated
    /// crash): nothing was written and nothing later will be.
    pub fn append(&self, rec: &WalRecord) -> bool {
        // Serialize concurrent appenders first so the gate's budget maps
        // to a deterministic on-disk prefix.
        let mut file = self.file.lock().unwrap();
        if !self.gate.admit() {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let body = rec.render_body();
        let digest = digest_bytes(format!("{seq} {body}").as_bytes());
        let line = format!("r {seq} {digest:016x} {body}\n");
        let ok = file.write_all(line.as_bytes()).and_then(|_| file.flush()).is_ok();
        if ok {
            cfpd_telemetry::count!("serve.wal_appends");
            // Mirror the append into the flight ring so a post-mortem
            // dump's tail lines up with the WAL's final records.
            cfpd_flight::record(
                cfpd_flight::EventKind::Wal,
                rec.job_id() as u32,
                rec.kind_code(),
                seq,
                0,
            );
        }
        ok
    }
}

/// Result of scanning a WAL file.
pub struct Replay {
    /// The valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Raw text of the valid records (header excluded) — [`Wal::open`]
    /// rewrites the file to exactly this.
    pub valid_text: String,
    /// Sequence number the next append should use.
    pub next_seq: u64,
    /// Whether a corrupt/torn tail was discarded.
    pub corrupt_tail: bool,
}

/// Scan a WAL file, stopping at the first record whose digest or
/// sequence number does not verify. A missing file is an empty (fresh)
/// log; a missing or wrong magic line discards everything.
pub fn replay(path: &Path) -> Replay {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut cur = Cursor { rest: &text };
    let mut corrupt_tail = !text.is_empty() && cur.magic(WAL_MAGIC, "WAL").is_err();
    let (log, mut records) = (cur.rest, Vec::new());
    while !corrupt_tail && !cur.rest.is_empty() {
        let mut next = cur;
        let line = next.until('\n', "record line");
        match line.and_then(|line| verify_line(line, records.len() as u64 + 1)) {
            Ok(rec) => {
                records.push(rec);
                cur = next;
            }
            Err(_) => corrupt_tail = true,
        }
    }
    cfpd_telemetry::count!("serve.wal_replayed", records.len() as u64);
    let valid_text = log[..log.len() - cur.rest.len()].to_string();
    Replay { next_seq: records.len() as u64 + 1, records, valid_text, corrupt_tail }
}

/// One `r <seq> <digest16> <body>` line, verified: `seq` is the one
/// expected and `digest16` is `digest_bytes("{seq} {body}")`.
fn verify_line(line: &str, expected_seq: u64) -> Result<WalRecord, String> {
    let mut cur = Cursor { rest: line.strip_prefix("r ").ok_or("not a record line")? };
    let seq: u64 = parse_int(cur.until(' ', "digest")?, "seq")?;
    if seq != expected_seq {
        return Err(format!("sequence gap: expected {expected_seq}, found {seq}"));
    }
    let stated = parse_hex(cur.until(' ', "body")?, "digest")?;
    check_digest("record", stated, digest_bytes(format!("{seq} {}", cur.rest).as_bytes()))?;
    WalRecord::parse_body(cur.rest)
}

/// Spec file path for a job id.
pub fn spec_path(dir: &Path, job: u64) -> PathBuf {
    dir.join(format!("job-{job}.campaign"))
}

/// Snapshot file path for a (job, cell).
pub fn snap_path(dir: &Path, job: u64, cell: usize) -> PathBuf {
    dir.join(format!("job-{job}-cell-{cell}.snap"))
}

/// Post-mortem flight-recorder dump path for a job (next to its WAL).
pub fn flight_path(dir: &Path, job: u64) -> PathBuf {
    dir.join(format!("job-{job}.flight"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Submit { job: 1, name: "tiny run #1".into(), spec_digest: 0xabc },
            WalRecord::Start { job: 1, cell: 0, attempt: 0 },
            WalRecord::Ckpt { job: 1, cell: 0, step: 2, snap_digest: 0xdef },
            WalRecord::Retry {
                job: 1,
                cell: 0,
                attempt: 1,
                backoff_ms: 50,
                reason: "injected: seeded crash (50%)".into(),
            },
            WalRecord::CellDone {
                job: 1,
                cell: 0,
                rec: CanonMetrics {
                    digest: 0x1122,
                    events: 30,
                    iters_total: 400,
                    iters_poisson: 100,
                    census: [10, 20, 30, 0],
                    deposited_frac_bits: 0.25f64.to_bits(),
                    lb_assembly_bits: 1.0f64.to_bits(),
                },
            },
            WalRecord::CellFail { job: 1, cell: 1, reason: "timeout: exceeded 1s".into() },
            WalRecord::Preempt { job: 1, cell: 2 },
            WalRecord::Done { job: 1 },
            WalRecord::Fail { job: 2, reason: "deadline exceeded".into() },
            WalRecord::Cancel { job: 3 },
        ]
    }

    #[test]
    fn record_bodies_round_trip() {
        for rec in sample_records() {
            let body = rec.render_body();
            assert_eq!(WalRecord::parse_body(&body).expect(&body), rec, "{body}");
        }
    }

    #[test]
    fn append_replay_round_trips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("cfpd-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let wal = Wal::open(&path, "", 1, PersistGate::unlimited()).unwrap();
        let records = sample_records();
        for rec in &records {
            assert!(wal.append(rec));
        }
        drop(wal);
        let rp = replay(&path);
        assert_eq!(rp.records, records);
        assert!(!rp.corrupt_tail);
        assert_eq!(rp.next_seq, records.len() as u64 + 1);

        // Flip one digest nibble in the middle: replay keeps the prefix.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let mid = 1 + records.len() / 2;
        lines[mid] = {
            let mut l = lines[mid].clone();
            let at = 10;
            let orig = l.as_bytes()[at];
            let flip = if orig == b'0' { '1' } else { '0' };
            l.replace_range(at..at + 1, &flip.to_string());
            l
        };
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let rp = replay(&path);
        assert!(rp.corrupt_tail);
        assert!(rp.records.len() < records.len());
        assert_eq!(rp.records[..], records[..rp.records.len()]);

        // Reopening truncates the corrupt tail; appends extend cleanly.
        let wal = Wal::open(&path, &rp.valid_text, rp.next_seq, PersistGate::unlimited())
            .unwrap();
        assert!(wal.append(&WalRecord::Done { job: 9 }));
        drop(wal);
        let rp2 = replay(&path);
        assert!(!rp2.corrupt_tail);
        assert_eq!(rp2.records.len(), rp.records.len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_gate_freezes_the_log_mid_flight() {
        let dir = std::env::temp_dir().join(format!("cfpd-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let gate = PersistGate::kill_after(2);
        let wal = Wal::open(&path, "", 1, Arc::clone(&gate)).unwrap();
        assert!(wal.append(&WalRecord::Done { job: 1 }));
        assert!(wal.append(&WalRecord::Done { job: 2 }));
        assert!(!wal.append(&WalRecord::Done { job: 3 }), "third append must freeze");
        assert!(gate.frozen());
        assert!(!wal.append(&WalRecord::Done { job: 4 }));
        drop(wal);
        let rp = replay(&path);
        assert_eq!(rp.records.len(), 2, "disk holds exactly the pre-freeze prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
