//! # cfpd-testkit — the zero-dependency verification stack
//!
//! Every crate in this workspace must build and test **fully offline**:
//! the paper's claim structure rests on measured, reproducible runtime
//! behavior, and a harness that cannot resolve its dependencies cannot
//! produce numbers at all. This crate therefore replaces the handful of
//! external crates the seed depended on with small, deterministic,
//! in-repo implementations:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256++ PRNG with the
//!   distributions the simulation uses (uniform, normal via Box–Muller,
//!   Fisher–Yates shuffle). Replaces `rand`.
//! * [`prop`] — a shrinking property-test runner covering the
//!   `proptest` patterns used by the top-level test suites.
//! * [`bench`] — a warmup + median bench timer with text report
//!   emission compatible with the `results/*.txt` layout. Replaces
//!   `criterion`.
//! * [`sync`] — `Mutex`/`Condvar` with the `parking_lot` call shapes
//!   (no `Result`-wrapped guards, `Condvar::wait(&mut guard)`), built
//!   on `std::sync`. Replaces `parking_lot`; the former `crossbeam`
//!   channel/scope niches are covered by `std::sync::mpsc` and
//!   `std::thread::scope` directly.
//! * [`digest`] — FNV-1a digests over raw `f64` bit patterns, the
//!   primitive of the golden-trace regression suite (bit-identical
//!   physics gate), and the word-wide digest that guards bulk state
//!   (checkpoints, snapshots).
//! * [`record`] — the one grammar of the digest-guarded text records
//!   (checkpoint, snapshot, WAL, flight dump): magic and digest lines,
//!   canonical integers and hex, ordered `key=value` fields, bounded
//!   line-counted sections, percent-encoded strings, tmp + rename.
//! * [`loc`] — the size ledger: production code lines per crate by one
//!   rule (`src/bin/loc.rs` writes it to `results/loc.json`).
//! * [`json`] — a strict RFC 8259 parser, the read-side counterpart of
//!   `cfpd-telemetry`'s `JsonWriter`, so tests and `verify.sh` validate
//!   emitted Chrome-trace / report JSON structurally.
//!
//! External registry dependencies are banned workspace-wide; CI
//! (`scripts/verify.sh`) builds with `--offline` and fails on any
//! warning from this crate.

#![forbid(unsafe_code)]

pub mod bench;
pub mod digest;
pub mod json;
pub mod loc;
pub mod prop;
pub mod record;
pub mod rng;
pub mod sync;

pub use bench::{Bench, BenchConfig, BenchStats};
pub use digest::{digest_bytes, digest_f64s, digest_wide, Digest};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use prop::{check, f64_range, map, panic_message, usize_range, vec_of, Gen, PropConfig};
pub use rng::{Rng, SplitMix64};
