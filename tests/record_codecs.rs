//! The four digest-guarded text formats — checkpoint, snapshot, WAL and
//! flight dump — against the one grammar they share
//! (`cfpd_testkit::record`). For each format:
//!
//! 1. render → parse → render is byte-identical;
//! 2. truncation at a line boundary and seeded bit flips are refused,
//!    never a panic;
//! 3. a spelling the writer never produces is refused even with the
//!    digest recomputed, so that only the spelling is at fault.
//!
//! Plus the spec file a submission writes: a disk that refuses it admits
//! nothing, and a restart over a WAL whose spec is gone says so. Its own
//! test binary, because that last check reads the process-global
//! `serve.specs_refused` counter.

use cfpd_core::{Checkpoint, RankCheckpoint};
use cfpd_flight::{parse_dump, render_dump, EventKind, FlightEvent};
use cfpd_mesh::Vec3;
use cfpd_particles::{ParticleProps, ParticleSet, ParticleState};
use cfpd_serve::http::http_call;
use cfpd_serve::wal::{self, replay, PersistGate, Wal, WalRecord};
use cfpd_serve::{CellAcc, CellSnapshot, Daemon, ServeConfig};
use cfpd_testkit::prop::{check, usize_range, PropConfig};
use cfpd_testkit::{digest_bytes, digest_wide};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cfpd-records-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One format under test: a sample text, its reader (`Ok` holds the
/// text rendered back from what was read) and how to recompute the
/// digest of an edited text.
struct Format {
    name: &'static str,
    text: String,
    parse: fn(&str) -> Result<String, String>,
    reseal: fn(&str) -> String,
    /// The WAL is a log: cut at a line boundary it is a shorter log, and
    /// replay keeps that prefix. Every other format is refused whole.
    prefix_is_valid: bool,
}

impl Format {
    /// Round trip, truncations, bit flips, then each `(canonical,
    /// variant)` edit resealed, and each one left unsealed (an edit of
    /// the digest itself).
    fn check(&self, resealed: &[(&str, &str)], unsealed: &[(&str, &str)]) {
        let name = self.name;
        assert_eq!((self.parse)(&self.text).as_deref(), Ok(self.text.as_str()), "{name}");

        for (cut, _) in self.text.match_indices('\n') {
            let torn = &self.text[..cut];
            assert!((self.parse)(torn).is_err(), "{name}: a torn last line at byte {cut} read");
            let whole = &self.text[..cut + 1];
            if cut + 1 < self.text.len() {
                match (self.parse)(whole) {
                    Ok(back) if self.prefix_is_valid => assert_eq!(back, whole, "{name}"),
                    Ok(_) => panic!("{name}: truncation at byte {} read", cut + 1),
                    Err(e) => assert!(!self.prefix_is_valid, "{name}: cut at {}: {e}", cut + 1),
                }
            }
        }

        let bytes = self.text.as_bytes();
        let flips = (usize_range(0, bytes.len()), usize_range(0, 8));
        let what = format!("{name} refuses a flipped bit");
        check(&what, PropConfig::cases(300), &flips, |&(at, bit)| {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= 1 << bit;
            // Every reader takes text: a file that is not UTF-8 is refused
            // where it is read.
            if let Ok(damaged) = std::str::from_utf8(&damaged) {
                assert!((self.parse)(damaged).is_err(), "bit {bit} of byte {at} read");
            }
        });

        let edits = resealed.iter().map(|e| (e, true)).chain(unsealed.iter().map(|e| (e, false)));
        for (&(canonical, variant), reseal) in edits {
            let edited = self.text.replacen(canonical, variant, 1);
            assert_ne!(edited, self.text, "{name}: {canonical:?} must occur");
            let edited = if reseal { (self.reseal)(&edited) } else { edited };
            assert!((self.parse)(&edited).is_err(), "{name}: {variant:?} read");
        }
    }
}

fn checkpoint() -> Checkpoint {
    let mut particles = ParticleSet::default();
    particles.pos.push(Vec3::new(0.001, -0.002, 0.5));
    particles.vel.push(Vec3::new(1.5, 0.0, -0.25));
    particles.acc.push(Vec3::new(0.0, -9.81, f64::EPSILON));
    particles.elem.push(42);
    particles.state.push(ParticleState::Deposited);
    particles.props.push(ParticleProps { diameter: 5e-6, density: 1000.0 });
    Checkpoint {
        next_step: 2,
        n_ranks: 1,
        seed: 20260807,
        config_digest: 0x0000_beef_1234_5678,
        ranks: vec![RankCheckpoint {
            rank: 0,
            velocity: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-0.5, 0.0, 1e-300)],
            pressure: vec![101325.0, -0.0],
            sgs: vec![Vec3::new(1e-9, -1e-9, 0.0)],
            particles,
        }],
    }
}

#[test]
fn checkpoint_reads_only_what_it_writes() {
    let format = Format {
        name: "checkpoint",
        text: checkpoint().to_text(),
        parse: |t| Checkpoint::from_text(t).map(|c| c.to_text()),
        // The digest is over values, not text: a respelling keeps it.
        reseal: |t| t.to_string(),
        prefix_is_valid: false,
    };
    format.check(
        &[
            ("Q 42 1 ", "Q +42 1 "),
            ("particles=1\n", "particles=01\n"),
            ("P 40f8bcd000000000", "P 40F8BCD000000000"),
            ("config=0000beef12345678", "config=beef12345678"),
            ("seed=20260807 config", "seed=20260807  config"),
            ("next_step=2 ranks=1", "ranks=1 next_step=2"),
            ("config=0000beef12345678\n", "config=0000beef12345678 config=0000beef12345678\n"),
            ("config=0000beef12345678\n", "config=0000beef12345678 extra=1\n"),
        ],
        &[],
    );
}

fn snapshot() -> CellSnapshot {
    CellSnapshot {
        job: 3,
        cell: 1,
        attempt: 2,
        next_step: 4,
        acc: CellAcc {
            events: 3,
            iters_total: 17,
            iters_poisson: 9,
            elems: vec![(0, 120), (1, 100)],
        },
        events_text: "step 0 rank 0 assembly elements=120\nstep 0 rank 1 x\n".into(),
        checkpoint_text: checkpoint().to_text(),
    }
}

/// A snapshot's digest covers everything below its digest line.
fn reseal_snapshot(text: &str) -> String {
    let mut parts = text.splitn(3, '\n');
    let (magic, _, body) = (parts.next().unwrap(), parts.next(), parts.next().unwrap());
    format!("{magic}\ndigest {:016x}\n{body}", digest_wide(body.as_bytes()))
}

#[test]
fn snapshot_reads_only_what_it_writes() {
    let text = snapshot().to_text();
    let digest = text.lines().nth(1).unwrap().to_string();
    let upper = format!("digest {}", digest["digest ".len()..].to_uppercase());
    let long = digest.replace("digest ", "digest 0");
    let format = Format {
        name: "snapshot",
        text,
        parse: |t| CellSnapshot::from_text(t).map(|s| s.to_text()),
        reseal: reseal_snapshot,
        prefix_is_valid: false,
    };
    format.check(
        &[
            ("job=3", "job=+3"),
            ("cell=1", "cell=01"),
            ("events 2\n", "events 02\n"),
            ("elems=0:120", "elems=0:0120"),
            ("elems=0:120", "elems=+0:120"),
            ("job=3 cell=1", "job=3  cell=1"),
            ("job=3 cell=1", "cell=1 job=3"),
            ("next_step=4\n", "next_step=4 next_step=4\n"),
            ("1:100\n", "1:100 extra=1\n"),
        ],
        &[(&digest, &upper), (&digest, &long)],
    );
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Submit { job: 1, name: "runs/a b".into(), spec_digest: 0xabc },
        WalRecord::Start { job: 1, cell: 0, attempt: 0 },
        WalRecord::Ckpt { job: 1, cell: 0, step: 2, snap_digest: 0xdef },
        WalRecord::CellFail { job: 1, cell: 1, reason: "timeout".into() },
        WalRecord::Done { job: 1 },
        WalRecord::Cancel { job: 3 },
    ]
}

/// The WAL file the log writes for `records`.
fn render_wal(records: &[WalRecord]) -> String {
    let dir = tmp_dir("wal-render");
    let path = dir.join("wal.log");
    let log = Wal::open(&path, "", 1, PersistGate::unlimited()).unwrap();
    assert!(records.iter().all(|r| log.append(r)));
    drop(log);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Replay of `text`: `Err` when it stopped at a record it refused.
fn parse_wal(text: &str) -> Result<String, String> {
    let dir = tmp_dir("wal-parse");
    let path = dir.join("wal.log");
    std::fs::write(&path, text).unwrap();
    let r = replay(&path);
    let _ = std::fs::remove_dir_all(&dir);
    match r.corrupt_tail {
        true => Err(format!("stopped after {} records", r.records.len())),
        false => Ok(render_wal(&r.records)),
    }
}

/// Every record line's digest recomputed over `"{seq} {body}"`.
fn reseal_wal(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.strip_prefix("r ").map(|r| r.splitn(3, ' ').collect::<Vec<_>>()) {
            Some(t) => {
                let seq: u64 = t[0].parse().unwrap();
                let digest = digest_bytes(format!("{seq} {}", t[2]).as_bytes());
                out += &format!("r {} {digest:016x} {}\n", t[0], t[2]);
            }
            None => out += &format!("{line}\n"),
        }
    }
    out
}

#[test]
fn wal_reads_only_what_it_writes() {
    let text = render_wal(&wal_records());
    assert!(text.contains(" name=runs%2fa%20b "), "{text}");
    let first_digest = text.lines().nth(1).unwrap().split(' ').nth(2).unwrap().to_string();
    let upper = first_digest.to_uppercase();
    assert_ne!(upper, first_digest, "the digest must hold a hex letter");
    let format = Format {
        name: "WAL",
        text,
        parse: parse_wal,
        reseal: reseal_wal,
        prefix_is_valid: true,
    };
    format.check(
        &[
            ("submit job=1", "submit job=+1"),
            ("r 2 ", "r 02 "),
            ("step=2", "step=02"),
            ("spec=0000000000000abc", "spec=0000000000000ABC"),
            ("spec=0000000000000abc", "spec=abc"),
            ("start job=1 cell", "start job=1  cell"),
            ("cell=0 attempt=0", "attempt=0 cell=0"),
            ("done job=1", "done job=1 job=1"),
            ("cancel job=3", "cancel job=3 extra=1"),
            ("runs%2fa", "runs%2Fa"),
            ("runs%2fa", "runs/a"),
            ("timeout", "%74imeout"),
        ],
        &[(&first_digest, &upper)],
    );
}

fn flight_events() -> Vec<FlightEvent> {
    vec![
        FlightEvent {
            seq: 1,
            t_ns: 1500,
            rank: 1,
            kind: EventKind::Phase,
            code: 2,
            a: 0.5f64.to_bits(),
            b: 0.75f64.to_bits(),
        },
        FlightEvent { seq: 2, t_ns: 2500, rank: 42, kind: EventKind::Wal, code: 3, a: 17, b: 0 },
    ]
}

/// A dump's digest trailer covers every line above it.
fn reseal_dump(text: &str) -> String {
    let body = &text[..text.trim_end_matches('\n').rfind('\n').unwrap() + 1];
    format!("{body}digest {:016x}\n", digest_bytes(body.as_bytes()))
}

#[test]
fn flight_dump_reads_only_what_it_writes() {
    let text = render_dump(&flight_events(), 0);
    let trailer = text.lines().last().unwrap().to_string();
    let upper = format!("digest {}", trailer["digest ".len()..].to_uppercase());
    let format = Format {
        name: "flight dump",
        text,
        parse: |t| parse_dump(t).map(|d| render_dump(&d.events, d.dropped)),
        reseal: reseal_dump,
        prefix_is_valid: false,
    };
    format.check(
        &[
            ("events=2", "events=1"),
            ("events=2", "events=3"),
            ("e 1 ", "e +1 "),
            ("dropped=0", "dropped=00"),
            ("3fe0000000000000", "3FE0000000000000"),
            ("0000000000000011", "11"),
            ("e 2 2500", "e 2  2500"),
            ("events=2 dropped=0", "dropped=0 events=2"),
            ("dropped=0", "dropped=0 dropped=0"),
            ("capacity=65536", "capacity=65536 extra=1"),
        ],
        &[(&trailer, &upper), (&trailer, &format!("{trailer}\n"))],
    );
}

/// A submission whose spec file the disk refuses is answered 500 and
/// leaves no trace: no job, no `submit` record. A `submit` record whose
/// spec file is gone drops its job on restart, counted.
#[test]
fn a_spec_file_is_written_whole_or_the_job_is_not_admitted() {
    let spec = "[campaign]\nname = lost\n[scenario]\nranks = 1\ngenerations = 1\n\
                particles = 10\nsteps = 1\n";
    let start = |dir: &PathBuf| {
        let cfg = ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            http_threads: 1,
            ..Default::default()
        };
        Daemon::start(cfg).unwrap()
    };

    let dir = tmp_dir("spec-refused");
    std::fs::create_dir_all(wal::spec_path(&dir, 1)).unwrap();
    let daemon = start(&dir);
    let addr = daemon.addr().to_string();
    let (code, body) = http_call(&addr, "POST", "/jobs", spec).unwrap();
    assert_eq!(code, 500, "{body}");
    assert!(body.contains("spec file not written"), "{body}");
    let (code, body) = http_call(&addr, "GET", "/jobs/1", "").unwrap();
    assert_eq!(code, 404, "a refused submission must not be a job: {body}");
    daemon.kill();
    let records = replay(&dir.join("wal.log")).records;
    assert!(!records.iter().any(|r| matches!(r, WalRecord::Submit { .. })), "{records:?}");

    let dir = tmp_dir("spec-gone");
    let log = Wal::open(&dir.join("wal.log"), "", 1, PersistGate::unlimited()).unwrap();
    let submit = WalRecord::Submit {
        job: 1,
        name: "lost".into(),
        spec_digest: digest_bytes(spec.as_bytes()),
    };
    assert!(log.append(&submit));
    drop(log);
    let daemon = start(&dir);
    let addr = daemon.addr().to_string();
    let (code, body) = http_call(&addr, "GET", "/jobs/1", "").unwrap();
    assert_eq!(code, 404, "a job whose spec is gone must not come back: {body}");
    let (_, metrics) = http_call(&addr, "GET", "/metrics", "").unwrap();
    let refused = metrics.lines().find_map(|l| l.strip_prefix("cfpd_serve_specs_refused "));
    assert_eq!(refused, Some("1"), "{metrics}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
