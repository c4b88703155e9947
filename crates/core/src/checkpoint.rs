//! Step-granular checkpoint/restart for the synchronous simulation.
//!
//! A [`Checkpoint`] captures, at a step boundary, *exactly* the state
//! that persists across steps: the velocity and pressure fields, the
//! SGS quadrature-point vectors, and the per-rank particle populations
//! (full SoA, including deposited/escaped particles so the final census
//! survives the restart). The injection RNG only runs at step 0, so the
//! seed in the header is documentation, not replayed state.
//!
//! The text codec renders every `f64` as its `to_bits` hex pattern and
//! carries an FNV-1a digest of the structural content in the header; a
//! checkpoint that round-trips through text restores *bit-identical*
//! state, and a corrupted file is rejected on load instead of silently
//! resuming from garbage.

use crate::config::SimulationConfig;
use cfpd_mesh::Vec3;
use cfpd_particles::{ParticleProps, ParticleSet, ParticleState};
use cfpd_testkit::digest::{digest_bytes, Digest};

/// Per-rank persistent state at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCheckpoint {
    pub rank: usize,
    /// Nodal velocity field of this rank's replicated solve.
    pub velocity: Vec<Vec3>,
    /// Nodal pressure field.
    pub pressure: Vec<f64>,
    /// SGS quadrature-point vectors (`SgsField::values`).
    pub sgs: Vec<Vec3>,
    /// This rank's particle population (full SoA snapshot).
    pub particles: ParticleSet,
}

/// A whole-universe checkpoint taken before step `next_step`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// First step the restored run executes.
    pub next_step: usize,
    pub n_ranks: usize,
    /// Injection seed of the original run (informational; injection
    /// happens only at step 0).
    pub seed: u64,
    /// Digest of the originating [`SimulationConfig`]; a restore under a
    /// different configuration is rejected.
    pub config_digest: u64,
    /// One entry per rank, in rank order.
    pub ranks: Vec<RankCheckpoint>,
}

/// Which bits a configuration computes, beyond what the configuration
/// says: bumped by a change that moves them on purpose, so that a
/// checkpoint cut before it is refused by digest (with
/// [`Checkpoint::validate_for`]'s message) instead of being resumed into
/// a document no uninterrupted run produces. Revision 2: shared rows are
/// summed in colour-numbered subdomain order (PR 21).
const SUMMATION_REVISION: u32 = 2;

/// Digest the configuration a checkpoint belongs to. Hashing the full
/// `Debug` rendering covers every knob (mesh spec, solver tolerances,
/// strategy, mode) without enumerating fields here;
/// [`SUMMATION_REVISION`] covers what no knob names.
pub fn config_digest(config: &SimulationConfig) -> u64 {
    digest_bytes(format!("{config:?} summation_revision={SUMMATION_REVISION}").as_bytes())
}

fn state_code(s: ParticleState) -> u8 {
    match s {
        ParticleState::Active => 0,
        ParticleState::Deposited => 1,
        ParticleState::Escaped => 2,
        ParticleState::Lost => 3,
    }
}

fn state_from_code(c: u8) -> Result<ParticleState, String> {
    Ok(match c {
        0 => ParticleState::Active,
        1 => ParticleState::Deposited,
        2 => ParticleState::Escaped,
        3 => ParticleState::Lost,
        _ => return Err(format!("invalid particle state code {c}")),
    })
}

/// Append `prefix` and the space-separated 16-digit hex bit patterns of
/// `vals`, then a newline: one codec line, written in place (a snapshot
/// holds ~10⁵ of these; one `String` per value was most of its cost).
fn push_hex_line(out: &mut Vec<u8>, prefix: &[u8], vals: &[f64]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.extend_from_slice(prefix);
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        let bits = v.to_bits();
        out.extend((0..16).map(|d| DIGITS[(bits >> (60 - 4 * d)) as usize & 0xf]));
    }
    out.push(b'\n');
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bit pattern {tok:?}: {e}"))
}

fn parse_int<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    tok.parse().map_err(|e| format!("bad {what} {tok:?}: {e}"))
}

/// Pull `key=value` off a header token.
fn field<'a>(tok: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let tok = tok.ok_or_else(|| format!("missing field {key}"))?;
    tok.strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))
}

impl Checkpoint {
    /// Structural FNV-1a digest over every value the checkpoint carries.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.update_u64(self.next_step as u64)
            .update_u64(self.n_ranks as u64)
            .update_u64(self.seed)
            .update_u64(self.config_digest);
        for r in &self.ranks {
            d.update_u64(r.rank as u64);
            for v in &r.velocity {
                d.update_f64(v.x).update_f64(v.y).update_f64(v.z);
            }
            d.update_f64s(&r.pressure);
            for v in &r.sgs {
                d.update_f64(v.x).update_f64(v.y).update_f64(v.z);
            }
            let p = &r.particles;
            for i in 0..p.len() {
                d.update_u64(p.elem[i] as u64)
                    .update_u64(state_code(p.state[i]) as u64)
                    .update_f64(p.pos[i].x)
                    .update_f64(p.pos[i].y)
                    .update_f64(p.pos[i].z)
                    .update_f64(p.vel[i].x)
                    .update_f64(p.vel[i].y)
                    .update_f64(p.vel[i].z)
                    .update_f64(p.acc[i].x)
                    .update_f64(p.acc[i].y)
                    .update_f64(p.acc[i].z)
                    .update_f64(p.props[i].diameter)
                    .update_f64(p.props[i].density);
            }
        }
        d.finish()
    }

    /// Serialize to the canonical text form (hex `f64` bit patterns; see
    /// module docs). Line-oriented and diffable.
    pub fn to_text(&self) -> String {
        use std::io::Write;
        let size: usize = self
            .ranks
            .iter()
            .map(|r| {
                80 + 53 * (r.velocity.len() + r.sgs.len())
                    + 19 * r.pressure.len()
                    + 220 * r.particles.len()
            })
            .sum();
        let mut out: Vec<u8> = Vec::with_capacity(128 + size);
        let w = &mut out;
        // Writing to a `Vec<u8>` cannot fail.
        writeln!(w, "cfpd checkpoint v1").unwrap();
        writeln!(w, "digest {:016x}", self.digest()).unwrap();
        writeln!(
            w,
            "meta next_step={} ranks={} seed={} config={:016x}",
            self.next_step, self.n_ranks, self.seed, self.config_digest,
        )
        .unwrap();
        for r in &self.ranks {
            writeln!(
                w,
                "rank {} velocity={} pressure={} sgs={} particles={}",
                r.rank,
                r.velocity.len(),
                r.pressure.len(),
                r.sgs.len(),
                r.particles.len(),
            )
            .unwrap();
            for v in &r.velocity {
                push_hex_line(w, b"V ", &[v.x, v.y, v.z]);
            }
            for &p in &r.pressure {
                push_hex_line(w, b"P ", &[p]);
            }
            for v in &r.sgs {
                push_hex_line(w, b"S ", &[v.x, v.y, v.z]);
            }
            let p = &r.particles;
            for i in 0..p.len() {
                write!(w, "Q {} {} ", p.elem[i], state_code(p.state[i])).unwrap();
                let (pos, vel, acc) = (p.pos[i], p.vel[i], p.acc[i]);
                push_hex_line(
                    w,
                    b"",
                    &[
                        pos.x,
                        pos.y,
                        pos.z,
                        vel.x,
                        vel.y,
                        vel.z,
                        acc.x,
                        acc.y,
                        acc.z,
                        p.props[i].diameter,
                        p.props[i].density,
                    ],
                );
            }
        }
        String::from_utf8(out).expect("the codec writes ASCII")
    }

    /// Parse the text form, verifying the embedded digest.
    ///
    /// Hostile-input hardening: every declared count (`ranks=`, the
    /// per-rank `velocity=`/`pressure=`/`sgs=`/`particles=` lengths) is
    /// validated against the number of lines actually present *before*
    /// any allocation sized by it. Each entry occupies at least one
    /// line, so a count larger than the remaining input is corrupt by
    /// construction — it returns `Err` instead of attempting a huge
    /// `Vec` reservation. This matters once checkpoints arrive over
    /// the network (`cfpd serve`), where the length prefix is
    /// attacker-controlled.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        // Upper bound on every declared count: one entry needs one line.
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
            Some("cfpd checkpoint v1") => {}
            other => return Err(format!("bad checkpoint magic: {other:?}")),
        }
        let digest_line = lines.next().ok_or("missing digest line")?;
        let stated: u64 = {
            let tok = digest_line
                .strip_prefix("digest ")
                .ok_or_else(|| format!("expected digest line, got {digest_line:?}"))?;
            u64::from_str_radix(tok, 16).map_err(|e| format!("bad digest {tok:?}: {e}"))?
        };
        let meta = lines.next().ok_or("missing meta line")?;
        let mut toks = meta
            .strip_prefix("meta ")
            .ok_or_else(|| format!("expected meta line, got {meta:?}"))?
            .split_whitespace();
        let next_step = parse_int(field(toks.next(), "next_step")?, "next_step")?;
        let n_ranks: usize =
            bounded(parse_int(field(toks.next(), "ranks")?, "ranks")?, "rank")?;
        let seed = parse_int(field(toks.next(), "seed")?, "seed")?;
        let config_tok = field(toks.next(), "config")?;
        let config_digest = u64::from_str_radix(config_tok, 16)
            .map_err(|e| format!("bad config digest {config_tok:?}: {e}"))?;

        let mut ranks = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let header = lines.next().ok_or("truncated: missing rank header")?;
            let mut toks = header
                .strip_prefix("rank ")
                .ok_or_else(|| format!("expected rank header, got {header:?}"))?
                .split_whitespace();
            let rank: usize =
                parse_int(toks.next().ok_or("missing rank id")?, "rank id")?;
            let nv: usize =
                bounded(parse_int(field(toks.next(), "velocity")?, "velocity count")?, "velocity")?;
            let np: usize =
                bounded(parse_int(field(toks.next(), "pressure")?, "pressure count")?, "pressure")?;
            let ns: usize = bounded(parse_int(field(toks.next(), "sgs")?, "sgs count")?, "sgs")?;
            let nq: usize =
                bounded(parse_int(field(toks.next(), "particles")?, "particle count")?, "particle")?;

            let mut vec3_line = |prefix: &str| -> Result<Vec3, String> {
                let line = lines
                    .next()
                    .ok_or_else(|| format!("truncated: missing {prefix} line"))?;
                let mut t = line
                    .strip_prefix(prefix)
                    .ok_or_else(|| format!("expected {prefix} line, got {line:?}"))?
                    .split_whitespace();
                let mut next = || parse_f64(t.next().ok_or("short vector line")?);
                Ok(Vec3::new(next()?, next()?, next()?))
            };
            let velocity: Vec<Vec3> =
                (0..nv).map(|_| vec3_line("V ")).collect::<Result<_, _>>()?;
            let pressure: Vec<f64> = (0..np)
                .map(|_| {
                    let line = lines.next().ok_or("truncated: missing P line")?;
                    parse_f64(
                        line.strip_prefix("P ")
                            .ok_or_else(|| format!("expected P line, got {line:?}"))?,
                    )
                })
                .collect::<Result<_, _>>()?;
            let mut vec3_line = |prefix: &str| -> Result<Vec3, String> {
                let line = lines
                    .next()
                    .ok_or_else(|| format!("truncated: missing {prefix} line"))?;
                let mut t = line
                    .strip_prefix(prefix)
                    .ok_or_else(|| format!("expected {prefix} line, got {line:?}"))?
                    .split_whitespace();
                let mut next = || parse_f64(t.next().ok_or("short vector line")?);
                Ok(Vec3::new(next()?, next()?, next()?))
            };
            let sgs: Vec<Vec3> = (0..ns).map(|_| vec3_line("S ")).collect::<Result<_, _>>()?;

            let mut particles = ParticleSet::default();
            for _ in 0..nq {
                let line = lines.next().ok_or("truncated: missing Q line")?;
                let mut t = line
                    .strip_prefix("Q ")
                    .ok_or_else(|| format!("expected Q line, got {line:?}"))?
                    .split_whitespace();
                let elem: u32 = parse_int(t.next().ok_or("short Q line")?, "elem")?;
                let code: u8 = parse_int(t.next().ok_or("short Q line")?, "state")?;
                let mut next = || parse_f64(t.next().ok_or("short Q line")?);
                let pos = Vec3::new(next()?, next()?, next()?);
                let vel = Vec3::new(next()?, next()?, next()?);
                let acc = Vec3::new(next()?, next()?, next()?);
                let diameter = next()?;
                let density = next()?;
                particles.pos.push(pos);
                particles.vel.push(vel);
                particles.acc.push(acc);
                particles.elem.push(elem);
                particles.state.push(state_from_code(code)?);
                particles.props.push(ParticleProps { diameter, density });
            }
            ranks.push(RankCheckpoint { rank, velocity, pressure, sgs, particles });
        }

        let cp = Checkpoint { next_step, n_ranks, seed, config_digest, ranks };
        let actual = cp.digest();
        if actual != stated {
            return Err(format!(
                "checkpoint digest mismatch: header says {stated:016x}, content is {actual:016x}",
            ));
        }
        Ok(cp)
    }

    /// Reject restoring under a configuration or universe shape other
    /// than the one the checkpoint was taken with.
    pub fn validate_for(&self, config: &SimulationConfig, n_ranks: usize) -> Result<(), String> {
        if self.n_ranks != n_ranks {
            return Err(format!(
                "checkpoint has {} ranks, run has {n_ranks}",
                self.n_ranks
            ));
        }
        let want = config_digest(config);
        if self.config_digest != want {
            return Err(format!(
                "checkpoint config digest {:016x} does not match run config {want:016x}",
                self.config_digest
            ));
        }
        if self.next_step > config.steps {
            return Err(format!(
                "checkpoint next_step {} beyond run's {} steps",
                self.next_step, config.steps
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut particles = ParticleSet::default();
        particles.pos.push(Vec3::new(0.001, -0.002, 0.5));
        particles.vel.push(Vec3::new(1.5, 0.0, -0.25));
        particles.acc.push(Vec3::new(0.0, -9.81, f64::EPSILON));
        particles.elem.push(42);
        particles.state.push(ParticleState::Active);
        particles.props.push(ParticleProps { diameter: 5e-6, density: 1000.0 });
        particles.pos.push(Vec3::new(-0.0, 0.125, 3.0));
        particles.vel.push(Vec3::new(0.0, 0.0, 0.0));
        particles.acc.push(Vec3::new(0.0, 0.0, 0.0));
        particles.elem.push(7);
        particles.state.push(ParticleState::Deposited);
        particles.props.push(ParticleProps { diameter: 2e-6, density: 998.2 });
        Checkpoint {
            next_step: 2,
            n_ranks: 2,
            seed: 20260807,
            config_digest: 0xDEAD_BEEF_1234_5678,
            ranks: vec![
                RankCheckpoint {
                    rank: 0,
                    velocity: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-0.5, 0.0, 1e-300)],
                    pressure: vec![101325.0, -0.0],
                    sgs: vec![Vec3::new(1e-9, -1e-9, 0.0)],
                    particles,
                },
                RankCheckpoint {
                    rank: 1,
                    velocity: vec![],
                    pressure: vec![],
                    sgs: vec![],
                    particles: ParticleSet::default(),
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_bit_identical() {
        let cp = sample();
        let text = cp.to_text();
        let back = Checkpoint::from_text(&text).expect("parse");
        assert_eq!(back, cp);
        // Re-serializing the parsed checkpoint is byte-identical.
        assert_eq!(back.to_text(), text);
    }

    /// Format v1, byte for byte: the writer it was defined by rendered
    /// one `format!` per value. Snapshots and WALs on disk were written
    /// that way and must keep loading.
    #[test]
    fn text_is_what_the_v1_writer_wrote() {
        let cp = sample();
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let vec3 = |tag: &str, v: &Vec3| format!("{tag} {} {} {}\n", hex(v.x), hex(v.y), hex(v.z));
        let mut want = format!(
            "cfpd checkpoint v1\ndigest {:016x}\nmeta next_step={} ranks={} seed={} config={:016x}\n",
            cp.digest(),
            cp.next_step,
            cp.n_ranks,
            cp.seed,
            cp.config_digest
        );
        for r in &cp.ranks {
            want += &format!(
                "rank {} velocity={} pressure={} sgs={} particles={}\n",
                r.rank,
                r.velocity.len(),
                r.pressure.len(),
                r.sgs.len(),
                r.particles.len()
            );
            want.extend(r.velocity.iter().map(|v| vec3("V", v)));
            want.extend(r.pressure.iter().map(|&p| format!("P {}\n", hex(p))));
            want.extend(r.sgs.iter().map(|v| vec3("S", v)));
            let p = &r.particles;
            for i in 0..p.len() {
                let fields = [
                    p.pos[i].x,
                    p.pos[i].y,
                    p.pos[i].z,
                    p.vel[i].x,
                    p.vel[i].y,
                    p.vel[i].z,
                    p.acc[i].x,
                    p.acc[i].y,
                    p.acc[i].z,
                    p.props[i].diameter,
                    p.props[i].density,
                ];
                let fields: Vec<String> = fields.iter().map(|&v| hex(v)).collect();
                want += &format!(
                    "Q {} {} {}\n",
                    p.elem[i],
                    state_code(p.state[i]),
                    fields.join(" ")
                );
            }
        }
        assert_eq!(cp.to_text(), want);
    }

    #[test]
    fn corruption_is_detected_by_the_digest() {
        let cp = sample();
        let text = cp.to_text();
        // Flip one hex digit of a velocity payload.
        let line = text.lines().position(|l| l.starts_with("V ")).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let corrupted = lines[line].replace('3', "4");
        assert_ne!(corrupted, lines[line], "test must actually corrupt");
        lines[line] = corrupted;
        let err = Checkpoint::from_text(&(lines.join("\n") + "\n")).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_before_allocation() {
        let text = sample().to_text();

        // A rank count far beyond the input must fail fast with a
        // bounded-count error, not a multi-gigabyte Vec reservation.
        let huge_ranks = text.replace("ranks=2", "ranks=99999999999");
        let err = Checkpoint::from_text(&huge_ranks).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // Same for each per-rank payload length prefix.
        for (field, hostile) in [
            ("velocity=2", "velocity=18446744073709551615"),
            ("pressure=2", "pressure=4000000000"),
            ("sgs=1", "sgs=123456789012"),
            ("particles=2", "particles=987654321098"),
        ] {
            let corrupt = text.replace(field, hostile);
            assert_ne!(corrupt, text, "replacement for {field} must apply");
            let err = Checkpoint::from_text(&corrupt).unwrap_err();
            assert!(err.contains("exceeds"), "{field}: {err}");
        }

        // Counts merely larger than the remaining (but within the line
        // budget) still fail through the ordinary truncation path.
        let off_by_some = text.replace("particles=2", "particles=5");
        assert!(Checkpoint::from_text(&off_by_some).is_err());
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let cp = sample();
        let text = cp.to_text();
        let cut: String = text.lines().take(6).map(|l| format!("{l}\n")).collect();
        assert!(Checkpoint::from_text(&cut).is_err());
        assert!(Checkpoint::from_text("not a checkpoint\n").is_err());
    }

    #[test]
    fn validate_checks_shape_and_config() {
        let config = SimulationConfig::default();
        let mut cp = sample();
        cp.config_digest = config_digest(&config);
        cp.next_step = 2;
        assert!(cp.validate_for(&config, 2).is_ok());
        assert!(cp.validate_for(&config, 3).unwrap_err().contains("ranks"));
        let other = SimulationConfig { seed: 999, ..config.clone() };
        assert!(cp.validate_for(&other, 2).unwrap_err().contains("config digest"));
        cp.next_step = config.steps + 1;
        assert!(cp.validate_for(&config, 2).unwrap_err().contains("beyond"));
    }

    /// Checkpoints cut before shared rows were summed in colour order
    /// carry the digest of the `Debug` rendering alone (`4bc2799f74ef0f5c`
    /// for the golden configuration, the value the old snapshot fixture
    /// held). Their state continues another summation order, so they are
    /// refused — an `Err` with both digests, not a panic.
    #[test]
    fn a_checkpoint_cut_before_the_summation_order_change_is_refused() {
        let config = crate::golden::golden_config();
        let mut cp = sample();
        cp.config_digest = digest_bytes(format!("{config:?}").as_bytes());
        assert_eq!(cp.config_digest, 0x4bc2799f74ef0f5c);
        let err = cp.validate_for(&config, 2).unwrap_err();
        assert!(err.contains("config digest 4bc2799f74ef0f5c does not match"), "{err}");
    }
}
