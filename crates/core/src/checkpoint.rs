//! Step-granular checkpoint/restart for the simulation.
//!
//! A [`Checkpoint`] captures, at a step boundary, *exactly* the state
//! that persists across steps: the velocity and pressure fields, the
//! SGS quadrature-point vectors, and the per-rank particle populations
//! (full SoA, including deposited/escaped particles so the final census
//! survives the restart). Each rank section carries what that rank
//! holds: a coupled-mode fluid rank has no particles, a particle rank no
//! fields. The injection RNG only runs at step 0, so the
//! seed in the header is documentation, not replayed state.
//!
//! The text codec (`cfpd checkpoint v2`, in `cfpd_testkit::record`'s
//! grammar) renders every `f64` as its
//! `to_bits` pattern in 16 lowercase hex digits and carries a word-wide
//! digest of the structural content in the header; a checkpoint that
//! round-trips through text restores *bit-identical* state, and a
//! corrupted file — or one in another format version — is rejected on
//! load instead of silently resuming from garbage. The reader accepts
//! exactly what the writer produces, so text that parses re-serializes
//! to the same bytes.

use crate::config::SimulationConfig;
use cfpd_mesh::Vec3;
use cfpd_particles::{ParticleProps, ParticleSet, ParticleState};
use cfpd_testkit::digest::{digest_bytes, Digest};
use cfpd_testkit::record::{bounded_count, check_digest, digest_line, parse_int};
use cfpd_testkit::record::{push_hex_line, Cursor};

const MAGIC: &str = "cfpd checkpoint v2";

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
/// summed in colour-numbered subdomain order. Revision 3: the k-way
/// partition seeds part 0 at the far end of one walk from vertex 0 and
/// every later part at the lowest free vertex. Revision 4: the Multidep
/// subdomains are cut on the face graph of lane blocks, then of
/// elements, not on the node-sharing element graph.
const SUMMATION_REVISION: u32 = 4;

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

impl Checkpoint {
    /// Structural digest over every value the checkpoint carries, one
    /// [`Digest::update_word`] step per value.
    pub fn digest(&self) -> u64 {
        fn vec3s(d: &mut Digest, vs: &[Vec3]) {
            for v in vs {
                d.update_word(v.x.to_bits()).update_word(v.y.to_bits()).update_word(v.z.to_bits());
            }
        }
        let mut d = Digest::new();
        d.update_word(self.next_step as u64)
            .update_word(self.n_ranks as u64)
            .update_word(self.seed)
            .update_word(self.config_digest);
        for r in &self.ranks {
            d.update_word(r.rank as u64);
            vec3s(&mut d, &r.velocity);
            for p in &r.pressure {
                d.update_word(p.to_bits());
            }
            vec3s(&mut d, &r.sgs);
            let p = &r.particles;
            for i in 0..p.len() {
                d.update_word(p.elem[i] as u64).update_word(state_code(p.state[i]) as u64);
                vec3s(&mut d, &[p.pos[i], p.vel[i], p.acc[i]]);
                d.update_word(p.props[i].diameter.to_bits())
                    .update_word(p.props[i].density.to_bits());
            }
        }
        d.finish()
    }

    /// Serialize to the canonical text form (hex `f64` bit patterns; see
    /// module docs). Line-oriented and diffable.
    pub fn to_text(&self) -> String {
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
        self.write_text(&mut out);
        String::from_utf8(out).expect("the codec writes ASCII")
    }

    /// Append [`Checkpoint::to_text`] to `out`: the text encoded in place,
    /// for a writer that embeds it in a larger record.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        let w = out;
        // Writing to a `Vec<u8>` cannot fail.
        writeln!(w, "{MAGIC}\ndigest {:016x}", self.digest()).unwrap();
        let (step, n, seed, cfg) = (self.next_step, self.n_ranks, self.seed, self.config_digest);
        writeln!(w, "meta next_step={step} ranks={n} seed={seed} config={cfg:016x}").unwrap();
        for r in &self.ranks {
            let (v, p, s, q) = (r.velocity.len(), r.pressure.len(), r.sgs.len(), r.particles.len());
            writeln!(w, "rank {} velocity={v} pressure={p} sgs={s} particles={q}", r.rank).unwrap();
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
                let (x, v, a, q) = (p.pos[i], p.vel[i], p.acc[i], p.props[i]);
                let vals = [x.x, x.y, x.z, v.x, v.y, v.z, a.x, a.y, a.z, q.diameter, q.density];
                push_hex_line(w, b"", &vals);
            }
        }
    }

    /// The number of lines [`Checkpoint::to_text`] writes, from the
    /// checkpoint's shape: magic, digest and meta, then per rank its
    /// header and one line per value entry.
    pub fn text_lines(&self) -> usize {
        let rank = |r: &RankCheckpoint| {
            1 + r.velocity.len() + r.pressure.len() + r.sgs.len() + r.particles.len()
        };
        3 + self.ranks.iter().map(rank).sum::<usize>()
    }

    /// Parse the text form, verifying the embedded digest.
    ///
    /// Hostile-input hardening: every declared count (`ranks=`, the
    /// per-rank `velocity=`/`pressure=`/`sgs=`/`particles=` lengths) is
    /// checked against the bytes that remain ([`bounded_count`]) and
    /// nothing is allocated by it: vectors grow as lines parse. This
    /// matters once checkpoints arrive over the network (`cfpd serve`),
    /// where the length prefix is attacker-controlled. One pass: value
    /// lines are read at fixed offsets, nothing is pre-counted or copied.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut cur = Cursor { rest: text };
        cur.magic(MAGIC, "checkpoint")?;
        let stated = digest_line(cur.until('\n', "digest line")?)?;
        let mut meta = cur.fields("meta")?;
        let next_step = meta.int("next_step")?;
        let n_ranks = bounded_count(meta.int("ranks")?, cur.rest.len(), "rank")?;
        let (seed, config_digest) = (meta.int("seed")?, meta.hex("config")?);
        meta.end()?;

        let mut ranks = Vec::new();
        for _ in 0..n_ranks {
            let mut header = cur.fields("rank")?;
            let rank: usize = parse_int(header.word("rank id")?, "rank id")?;
            let left = cur.rest.len();
            let mut count = |key| bounded_count(header.int(key)?, left, key);
            let (nv, np, ns, nq) =
                (count("velocity")?, count("pressure")?, count("sgs")?, count("particles")?);
            header.end()?;

            let vec3 = |[x, y, z]: [f64; 3]| Vec3::new(x, y, z);
            let velocity: Vec<Vec3> =
                (0..nv).map(|_| cur.hex_line("V ").map(vec3)).collect::<Result<_, _>>()?;
            let pressure: Vec<f64> =
                (0..np).map(|_| cur.hex_line("P ").map(|[p]| p)).collect::<Result<_, _>>()?;
            let sgs: Vec<Vec3> =
                (0..ns).map(|_| cur.hex_line("S ").map(vec3)).collect::<Result<_, _>>()?;

            let mut particles = ParticleSet::default();
            for _ in 0..nq {
                if cur.until(' ', "Q line")? != "Q" {
                    return Err("expected Q line".to_string());
                }
                let elem: u32 = parse_int(cur.until(' ', "Q line")?, "elem")?;
                let code: u8 = parse_int(cur.until(' ', "Q line")?, "state")?;
                let [px, py, pz, vx, vy, vz, ax, ay, az, diameter, density] = cur.hex_line("")?;
                particles.pos.push(Vec3::new(px, py, pz));
                particles.vel.push(Vec3::new(vx, vy, vz));
                particles.acc.push(Vec3::new(ax, ay, az));
                particles.elem.push(elem);
                particles.state.push(state_from_code(code)?);
                particles.props.push(ParticleProps { diameter, density });
            }
            ranks.push(RankCheckpoint { rank, velocity, pressure, sgs, particles });
        }

        let cp = Checkpoint { next_step, n_ranks, seed, config_digest, ranks };
        check_digest("checkpoint", stated, cp.digest())?;
        Ok(cp)
    }

    /// Reject restoring under a configuration or universe shape other
    /// than the one the checkpoint was taken with. `n_ranks` counts as in
    /// [`SimulationConfig::total_ranks`]: a coupled run has
    /// `fluid + particles` ranks whatever it says.
    pub fn validate_for(&self, config: &SimulationConfig, n_ranks: usize) -> Result<(), String> {
        let n_ranks = config.total_ranks(n_ranks);
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
        assert_eq!(cp.text_lines(), cfpd_testkit::record::count_lines(&text));
    }

    /// Format v2, byte for byte, against one `format!` per value, with
    /// the structural digest pinned by value: a change to either is a
    /// new format version, not an edit.
    #[test]
    fn text_is_format_v2_byte_for_byte() {
        let cp = sample();
        assert_eq!(cp.digest(), 0xca4613170096a2fc);
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let vec3 = |tag: &str, v: &Vec3| format!("{tag} {} {} {}\n", hex(v.x), hex(v.y), hex(v.z));
        let mut want = format!(
            "cfpd checkpoint v2\ndigest {:016x}\nmeta next_step={} ranks={} seed={} config={:016x}\n",
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

    /// No v1 reader survives: a file in the old format is refused by its
    /// magic line, and the message names the format it is in.
    #[test]
    fn a_v1_file_is_refused_by_name() {
        let v1 = sample().to_text().replacen("v2", "v1", 1);
        let err = Checkpoint::from_text(&v1).unwrap_err();
        assert!(err.contains("unsupported checkpoint format"), "{err}");
        assert!(err.contains("cfpd checkpoint v1"), "{err}");
    }

    /// What parses is what the writer writes: a sign, a leading zero,
    /// upper-case or short hex and a doubled or trailing space are errors
    /// (a digest guards values, not their spelling).
    #[test]
    fn non_canonical_spellings_are_rejected() {
        let text = sample().to_text();
        assert!(text.contains("\nP 40f8bcd000000000\n"));
        for (canonical, variant) in [
            ("P 40f8bcd000000000", "P 40F8BCD000000000"),
            ("P 40f8bcd000000000", "P +0f8bcd000000000"),
            ("P 8000000000000000", "P 800000000000000"),
            ("P 8000000000000000", "P  8000000000000000"),
            ("V 3ff0000000000000 4000", "V 3ff0000000000000  4000"),
            ("Q 42 0 ", "Q 042 0 "),
            ("Q 42 0 ", "Q +42 0 "),
            ("seed=20260807 config", "seed=20260807  config"),
            ("particles=2\n", "particles=2 \n"),
            ("particles=2\n", "particles=02\n"),
        ] {
            let bad = text.replacen(canonical, variant, 1);
            assert_ne!(bad, text, "{canonical:?} must occur");
            assert!(Checkpoint::from_text(&bad).is_err(), "{variant:?} parsed");
        }
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
