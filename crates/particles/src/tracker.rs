//! Lagrangian particle transport: Newmark time integration of Newton's
//! second law (eq. 3) under drag/gravity/buoyancy, with element-walk
//! relocation, wall deposition and outlet escape.
//!
//! Particles are injected through the nasal/mouth inlet — which places
//! all of them in one or few MPI subdomains at injection time and causes
//! the extreme particle-phase load imbalance (L₉₆ = 0.02) reported in
//! Table 1 of the paper.

use crate::forces::ParticleProps;
use crate::locator::{Locator, WalkResult};
use cfpd_mesh::{BoundaryKind, Vec3};
use cfpd_solver::lanes::{Lane, LANES};
use cfpd_solver::simd::F64x8;
use cfpd_testkit::rng::Rng;
use std::array::from_fn;

/// Life-cycle state of a particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticleState {
    /// Being transported; `elem` is valid.
    Active,
    /// Stuck to an airway wall (therapeutically: lost dose... unless the
    /// wall was the target site).
    Deposited,
    /// Left through a distal outlet (reached the deeper lung).
    Escaped,
    /// Walk failed and global relocation found no element.
    Lost,
}

/// Structure-of-arrays particle storage (cache-friendly for the per-step
/// sweep, as a production tracking code uses).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ParticleSet {
    pub pos: Vec<Vec3>,
    pub vel: Vec<Vec3>,
    pub acc: Vec<Vec3>,
    pub elem: Vec<u32>,
    pub state: Vec<ParticleState>,
    pub props: Vec<ParticleProps>,
}

/// Aggregate counts per state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParticleCensus {
    pub active: usize,
    pub deposited: usize,
    pub escaped: usize,
    pub lost: usize,
}

impl ParticleSet {
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    pub fn census(&self) -> ParticleCensus {
        let mut c = ParticleCensus::default();
        for s in &self.state {
            match s {
                ParticleState::Active => c.active += 1,
                ParticleState::Deposited => c.deposited += 1,
                ParticleState::Escaped => c.escaped += 1,
                ParticleState::Lost => c.lost += 1,
            }
        }
        c
    }

    fn reserve(&mut self, additional: usize) {
        self.pos.reserve(additional);
        self.vel.reserve(additional);
        self.acc.reserve(additional);
        self.elem.reserve(additional);
        self.state.reserve(additional);
        self.props.reserve(additional);
    }

    fn push(&mut self, pos: Vec3, vel: Vec3, elem: u32, props: ParticleProps) {
        self.pos.push(pos);
        self.vel.push(vel);
        self.acc.push(Vec3::ZERO);
        self.elem.push(elem);
        self.state.push(ParticleState::Active);
        self.props.push(props);
    }
}

/// Inject `count` particles uniformly over the inlet disc (radius
/// `inlet_radius` around `inlet_center`, moving at `initial_speed` along
/// `direction`). Deterministic for a given `seed`.
#[allow(clippy::too_many_arguments)]
pub fn inject_at_inlet(
    set: &mut ParticleSet,
    locator: &Locator,
    inlet_center: Vec3,
    inlet_direction: Vec3,
    inlet_radius: f64,
    initial_speed: f64,
    props: ParticleProps,
    count: usize,
    seed: u64,
) -> usize {
    let dir = inlet_direction.normalized();
    let mut injected = 0usize;
    set.reserve(count);
    for p in inlet_points(inlet_center, inlet_direction, inlet_radius, seed).take(count) {
        if let Some(e) = locator.locate_global(p) {
            set.push(p, dir * initial_speed, e, props);
            injected += 1;
        }
    }
    injected
}

/// The points [`inject_at_inlet`] tries, in order.
pub(crate) fn inlet_points(center: Vec3, direction: Vec3, radius: f64, seed: u64) -> impl Iterator<Item = Vec3> {
    let mut rng = Rng::new(seed);
    let dir = direction.normalized();
    let u = dir.any_orthogonal();
    let v = dir.cross(u);
    // Offset slightly inside the mesh so injection points land in
    // elements rather than exactly on the inlet plane.
    let base = center + dir * (radius * 0.1);
    std::iter::repeat_with(move || {
        // Uniform over the disc (sqrt radial distribution), shrunk to
        // 90 % of the radius to avoid the wall edge.
        let r = radius * 0.9 * rng.f64().sqrt();
        let a = rng.f64() * std::f64::consts::TAU;
        base + u * (r * a.cos()) + v * (r * a.sin())
    })
}

/// Per-step statistics of the transport sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    pub moved: usize,
    pub deposited: usize,
    pub escaped: usize,
    pub lost: usize,
    /// Wall exits and lost walks that [`Locator::locate_global`] found an
    /// element for (the junction cones overlap, DESIGN.md §7).
    pub relocated: usize,
    /// Wall exits rescued only by [`Locator::locate_forward`], the hop
    /// across a junction void.
    pub hopped: usize,
}

/// Newmark parameters (γ = 1/2, β = 1/4: the unconditionally stable
/// average-acceleration variant; the paper uses Newmark with dt = 1e-4 s).
pub(crate) const NEWMARK_GAMMA: f64 = 0.5;
pub(crate) const NEWMARK_BETA: f64 = 0.25;
/// Fixed-point iterations for the implicit acceleration (drag depends on
/// the end-of-step velocity).
pub(crate) const NEWMARK_PICARD: usize = 3;

/// Advance all active particles of `set` by `dt`.
///
/// `fluid_velocity` is the nodal fluid velocity field; `fluid_density`
/// and `fluid_viscosity` the fluid properties; `gravity` the gravity
/// acceleration vector.
///
/// The set is walked in blocks of [`LANES`] active particles, in set
/// order, each block through three stages: **gather** (per particle,
/// scalar, in particle order), **solve** (the Newmark/Picard drag solve,
/// eight particles per [`F64x8`] operation, [`solve_block`]) and
/// **relocate** (per particle, scalar, [`relocate`]). A particle reads
/// the fluid field and its own columns only, never another particle, so
/// solving seven particles ahead of the first one's relocation changes
/// no value: the result is the scalar sweep's ([`crate::oracle`]) bit
/// for bit.
pub fn step_particles(
    set: &mut ParticleSet,
    locator: &Locator,
    fluid_velocity: &[Vec3],
    fluid_density: f64,
    fluid_viscosity: f64,
    gravity: Vec3,
    dt: f64,
) -> StepStats {
    let mut sweep = Sweep {
        set,
        locator,
        fluid_velocity,
        fluid_density,
        fluid_viscosity,
        gravity,
        dt,
        species: None,
        stats: StepStats::default(),
    };
    let mut block = [0usize; LANES];
    let mut filled = 0;
    for i in 0..sweep.set.len() {
        // A block only ever changes the state of its own particles.
        if sweep.set.state[i] != ParticleState::Active {
            continue;
        }
        block[filled] = i;
        filled += 1;
        if filled == LANES {
            sweep.advance(&block);
            filled = 0;
        }
    }
    if filled > 0 {
        sweep.advance(&block[..filled]);
    }
    let stats = sweep.stats;
    cfpd_telemetry::count!("particles.steps");
    cfpd_telemetry::count!("particles.advected", stats.moved as u64);
    cfpd_telemetry::count!("particles.deposited", stats.deposited as u64);
    cfpd_telemetry::count!("particles.escaped", stats.escaped as u64);
    cfpd_telemetry::count!("particles.lost", stats.lost as u64);
    cfpd_telemetry::count!("particles.relocated", stats.relocated as u64);
    cfpd_telemetry::count!("particles.hopped", stats.hopped as u64);
    stats
}

/// One vector quantity of a lane block: a stack array per component.
type Lane3 = [Lane; 3];

fn put3(a: &mut Lane3, l: usize, v: Vec3) {
    a[0][l] = v.x;
    a[1][l] = v.y;
    a[2][l] = v.z;
}

fn at3(a: &Lane3, l: usize) -> Vec3 {
    Vec3::new(a[0][l], a[1][l], a[2][l])
}

fn load3(a: &Lane3) -> [F64x8; 3] {
    from_fn(|c| F64x8::load(&a[c]))
}

fn store3(v: [F64x8; 3]) -> Lane3 {
    v.map(F64x8::to_array)
}

/// What the solve stage reads of one particle.
#[derive(Clone, Copy)]
struct LaneInputs {
    /// Fluid velocity seen at the particle.
    uf: Vec3,
    x0: Vec3,
    v0: Vec3,
    a0: Vec3,
    /// Every force but drag.
    f_body: Vec3,
    mass: f64,
    diameter: f64,
}

/// [`LaneInputs`] of a block, structure-of-lanes.
#[derive(Default)]
struct BlockInputs {
    uf: Lane3,
    x0: Lane3,
    v0: Lane3,
    a0: Lane3,
    f_body: Lane3,
    mass: Lane,
    diameter: Lane,
}

impl BlockInputs {
    fn set(&mut self, l: usize, p: &LaneInputs) {
        put3(&mut self.uf, l, p.uf);
        put3(&mut self.x0, l, p.x0);
        put3(&mut self.v0, l, p.v0);
        put3(&mut self.a0, l, p.a0);
        put3(&mut self.f_body, l, p.f_body);
        self.mass[l] = p.mass;
        self.diameter[l] = p.diameter;
    }
}

/// End-of-step position, velocity and acceleration of a block.
struct BlockOutputs {
    x1: Lane3,
    v1: Lane3,
    a1: Lane3,
}

/// Newmark-β with a *semi-implicit* drag solve, eight particles per
/// operation: the drag force is linear in the end-of-step velocity given
/// the drag coefficient k = (π/8) µ d C_D Re, so v₁ solves
///   v₁ (1 + dtγk/m) = v₀ + dt(1−γ)a₀ + (dtγ/m)(k u_f + F_body).
/// Only k (a weak function of |u_f − v₁|) is Picard-iterated; this stays
/// stable for dt far beyond the particle relaxation time
/// τ = ρ_p d²/(18µ), where a naive explicit update diverges.
///
/// Every lane evaluates the operation tree of the scalar source
/// ([`crate::forces::particle_reynolds`], [`crate::forces::ganser_cd`],
/// the `Vec3` expressions of [`crate::oracle`]) — same grouping, no
/// fused multiply-add — which is what makes the block bit-identical to
/// eight scalar solves. What one particle pays as a serially dependent
/// sqrt → div → `pow` → div chain per iteration, a block pays once for
/// eight.
fn solve_block(inp: &BlockInputs, fluid_density: f64, fluid_viscosity: f64, dt: f64) -> BlockOutputs {
    let s = F64x8::splat;
    let (uf, x0, v0, a0) = (load3(&inp.uf), load3(&inp.x0), load3(&inp.v0), load3(&inp.a0));
    let f_body = load3(&inp.f_body);
    let (mass, diameter) = (F64x8::load(&inp.mass), F64x8::load(&inp.diameter));
    let one = s(1.0);
    let c = s(dt * NEWMARK_GAMMA) / mass;
    let rho_d = s(fluid_density) * diameter;
    let stokes = s(std::f64::consts::PI / 8.0 * fluid_viscosity) * diameter;
    let explicit = s(dt * (1.0 - NEWMARK_GAMMA));
    let mut v1 = v0;
    let mut k = F64x8::zero();
    for _ in 0..NEWMARK_PICARD {
        let rel: [F64x8; 3] = from_fn(|j| uf[j] - v1[j]);
        let rel_speed = (rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2]).sqrt();
        let re = rho_d * rel_speed / s(fluid_viscosity);
        // The clamp and the power leave the vector, as eight scalar calls:
        // `f64::max` answers a NaN with its other operand, which no
        // compare-and-select of `F64x8` does, and `powf` is libm's `pow`,
        // the arithmetic the goldens pin. Eight independent `pow`s still
        // overlap where one particle's chain could not.
        let clamped = re.to_array().map(|r| r.max(1e-12));
        let power = clamped.map(|r| r.powf(0.6567));
        let (re_c, power) = (F64x8::load(&clamped), F64x8::load(&power));
        let cd = s(24.0) / re_c * (one + s(0.1118) * power) + s(0.4305) / (one + s(3305.0) / re_c);
        // With the un-clamped Re, like the scalar source.
        k = stokes * cd * re;
        let denominator = one + c * k;
        v1 = from_fn(|j| (v0[j] + a0[j] * explicit + (uf[j] * k + f_body[j]) * c) / denominator);
    }
    let a1: [F64x8; 3] = from_fn(|j| ((uf[j] - v1[j]) * k + f_body[j]) / mass);
    let x1 = from_fn(|j| {
        x0[j] + v0[j] * s(dt) + (a0[j] * s(0.5 - NEWMARK_BETA) + a1[j] * s(NEWMARK_BETA)) * s(dt * dt)
    });
    BlockOutputs { x1: store3(x1), v1: store3(v1), a1: store3(a1) }
}

/// `props.mass()` and the gravity + buoyancy force of one species —
/// three `powi` and four divisions a particle, computed once per run of
/// bit-equal `props` instead.
#[derive(Clone, Copy)]
struct Species {
    props: ParticleProps,
    mass: f64,
    f_body: Vec3,
}

/// The arguments of one [`step_particles`] call and what it
/// accumulates.
struct Sweep<'a, 'm> {
    set: &'a mut ParticleSet,
    locator: &'a Locator<'m>,
    fluid_velocity: &'a [Vec3],
    fluid_density: f64,
    fluid_viscosity: f64,
    gravity: Vec3,
    dt: f64,
    species: Option<Species>,
    stats: StepStats,
}

impl Sweep<'_, '_> {
    /// Gather, solve and relocate the active particles `block` (at most
    /// [`LANES`], in set order).
    fn advance(&mut self, block: &[usize]) {
        let mut inputs = BlockInputs::default();
        for (l, &i) in block.iter().enumerate() {
            let lane = self.gather(i);
            inputs.set(l, &lane);
            // A short last block is padded with copies of its lane 0,
            // whose results are dropped.
            if l == 0 {
                for idle in block.len()..LANES {
                    inputs.set(idle, &lane);
                }
            }
        }
        let out = solve_block(&inputs, self.fluid_density, self.fluid_viscosity, self.dt);
        for (l, &i) in block.iter().enumerate() {
            self.set.pos[i] = at3(&out.x1, l);
            self.set.vel[i] = at3(&out.v1, l);
            self.set.acc[i] = at3(&out.a1, l);
            relocate(self.set, i, self.locator, &mut self.stats);
        }
        self.stats.moved += block.len();
    }

    /// Everything the solve needs of particle `i`.
    fn gather(&mut self, i: usize) -> LaneInputs {
        let props = self.set.props[i];
        let same = |s: &Species| {
            s.props.diameter.to_bits() == props.diameter.to_bits()
                && s.props.density.to_bits() == props.density.to_bits()
        };
        let species = match self.species {
            Some(s) if same(&s) => s,
            _ => *self.species.insert(Species {
                props,
                mass: props.mass(),
                f_body: crate::forces::gravity_force(props, self.gravity)
                    + crate::forces::buoyancy_force(props, self.fluid_density, self.gravity),
            }),
        };
        let e = self.set.elem[i] as usize;
        let (x0, v0, a0) = (self.set.pos[i], self.set.vel[i], self.set.acc[i]);
        let uf = self.locator.interpolate(e, x0, self.fluid_velocity);
        LaneInputs { uf, x0, v0, a0, f_body: species.f_body, mass: species.mass, diameter: props.diameter }
    }
}

/// Find the element of particle `i` at its new position, or retire it:
/// deposited on a wall, escaped through an outlet, lost.
pub(crate) fn relocate(set: &mut ParticleSet, i: usize, locator: &Locator, stats: &mut StepStats) {
    let (x1, v1) = (set.pos[i], set.vel[i]);
    match locator.walk(set.elem[i], x1, 256) {
        WalkResult::Inside(ne) => set.elem[i] = ne,
        WalkResult::ExitedBoundary(last, kind) => {
            set.elem[i] = last;
            match kind {
                BoundaryKind::Wall => {
                    // The walk crossed an exterior face tagged Wall —
                    // but the junction fills of the airway mesh are
                    // star-shaped cones that overlap geometrically
                    // while sharing only the hub node topologically
                    // (DESIGN.md §7), so "through a wall face" can
                    // still be *inside* the overlapping neighbor
                    // region. Only a position no element contains is
                    // a true wall hit.
                    let global = locator.locate_global(x1);
                    let relocated = global.or_else(|| {
                        // Hop across the thin junction void along the
                        // direction of motion (true wall hits keep
                        // heading outside the mesh and still fail).
                        let speed = v1.norm();
                        if speed > 1e-12 {
                            let h = locator.elem_size(last as usize);
                            locator.locate_forward(x1, v1 / speed, h)
                        } else {
                            None
                        }
                    });
                    match relocated {
                        Some(ne) => {
                            set.elem[i] = ne;
                            if global.is_some() {
                                stats.relocated += 1;
                            } else {
                                stats.hopped += 1;
                            }
                        }
                        None => {
                            set.state[i] = ParticleState::Deposited;
                            stats.deposited += 1;
                        }
                    }
                }
                BoundaryKind::Outlet | BoundaryKind::Inlet => {
                    set.state[i] = ParticleState::Escaped;
                    stats.escaped += 1;
                }
            }
        }
        WalkResult::Lost => match locator.locate_global(x1) {
            Some(ne) => {
                set.elem[i] = ne;
                stats.relocated += 1;
            }
            None => {
                set.state[i] = ParticleState::Lost;
                stats.lost += 1;
            }
        },
    }
}

/// Count active particles per element owner — the per-rank particle load
/// profile that drives the particle-phase imbalance (`elem_owner[e]` is
/// the rank owning element `e`).
pub fn particles_per_owner(set: &ParticleSet, elem_owner: &[u32], num_owners: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_owners];
    for i in 0..set.len() {
        if set.state[i] == ParticleState::Active {
            counts[elem_owner[set.elem[i] as usize] as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec, ElementKind};
    use cfpd_testkit::prop::{check, usize_range, PropConfig};
    use std::cell::Cell;

    const AIR_RHO: f64 = 1.14;
    const AIR_MU: f64 = 1.9e-5;

    fn airway() -> cfpd_mesh::AirwayMesh {
        generate_airway(&AirwaySpec::small()).unwrap()
    }

    /// A locator over `am` and `count` particles of `props` injected at
    /// `speed` through its inlet.
    fn inject(am: &cfpd_mesh::AirwayMesh, speed: f64, props: ParticleProps, count: usize, seed: u64) -> (Locator<'_>, ParticleSet) {
        let (loc, mut set) = (Locator::new(&am.mesh), ParticleSet::default());
        let n = inject_at_inlet(&mut set, &loc, am.inlet_center, am.inlet_direction, am.inlet_radius, speed, props, count, seed);
        assert_eq!(n, set.len(), "injected count");
        (loc, set)
    }

    fn bits(column: &[Vec3]) -> Vec<[u64; 3]> {
        column.iter().map(|v| [v.x, v.y, v.z].map(f64::to_bits)).collect()
    }

    /// The block sweep against [`crate::oracle::step_particles`] on
    /// a clone, after every step of a short run, on the bits: random
    /// sets on the small airway whose active particles sit between holes
    /// of retired ones (blocks straddle gaps; `n mod 8 != 0`, `n < 8`,
    /// `n = 0` and all-inactive sets occur), of two or three species
    /// interleaved at random — two of them one ulp of one field away
    /// from a third, which the per-species cache must tell apart —
    /// seeded in tets, pyramids and prisms, moving through fields and
    /// time steps that take some of them across several elements, out
    /// through walls into junction overlaps, over a void, onto a wall and
    /// out of an outlet. Two particles are planted: one exactly on a mesh
    /// node at exactly the fluid velocity there (`interpolate`'s
    /// early return, and Re = 0: the one place the `1e-12` clamp decides
    /// a bit) and one with a NaN velocity (`f64::max` semantics).
    #[test]
    fn lane_blocks_match_the_scalar_oracle_bit_for_bit() {
        let am = airway();
        let mesh = &am.mesh;
        let loc = Locator::new(mesh);
        let of_kind = |kind: ElementKind| -> Vec<usize> {
            (0..mesh.num_elements()).filter(|&e| mesh.kinds[e] == kind).collect()
        };
        let by_kind = [ElementKind::Tet4, ElementKind::Pyr5, ElementKind::Pri6].map(of_kind);
        assert!(by_kind.iter().all(|elems| !elems.is_empty()));
        let base = ParticleProps::default();
        let next = |x: f64| f64::from_bits(x.to_bits() + 1);
        let all_species = [
            base,
            ParticleProps { diameter: next(base.diameter), ..base },
            ParticleProps { density: next(base.density), ..base },
            ParticleProps { diameter: 50e-6, density: 2000.0 },
        ];
        let gravity = Vec3::new(0.0, 0.0, -9.81);
        // Depositions, escapes, overlap rescues and forward hops seen.
        let reached = Cell::new([0usize; 4]);
        let (blocks_short, sets_idle) = (Cell::new(0usize), Cell::new(0usize));

        check("lane blocks == scalar oracle", PropConfig::cases(96), &usize_range(0, 1 << 30), |&seed| {
            let mut rng = Rng::new(seed as u64);
            let n = match rng.range_usize(0, 8) {
                0 => 0,
                1 => rng.range_usize(1, 8),
                _ => rng.range_usize(8, 80),
            };
            let dt = [1e-4, 1e-3, 1e-2][rng.range_usize(0, 3)];
            let speed = [0.3, 3.0, 30.0][rng.range_usize(0, 3)];
            let (kx, ky) = (rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0));
            let field: Vec<Vec3> = mesh
                .coords
                .iter()
                .map(|p| {
                    Vec3::new(kx + (90.0 * p.z).sin(), ky + (70.0 * p.x).cos(), -1.0 + (50.0 * p.y).sin())
                        * speed
                })
                .collect();
            let mut species = all_species;
            rng.shuffle(&mut species);
            let species = &species[..rng.range_usize(2, 4)];
            let all_idle = rng.range_usize(0, 12) == 0;

            let mut set = ParticleSet::default();
            for _ in 0..n {
                let elems = &by_kind[rng.range_usize(0, 3)];
                let e = elems[rng.range_usize(0, elems.len())];
                let nodes = mesh.elem_nodes(e);
                let weights: Vec<f64> = nodes.iter().map(|_| rng.range_f64(0.05, 1.0)).collect();
                let total: f64 = weights.iter().sum();
                let mut pos = Vec3::ZERO;
                for (&v, w) in nodes.iter().zip(&weights) {
                    pos += mesh.coords[v as usize] * (w / total);
                }
                let vel = field[nodes[0] as usize] * rng.range_f64(0.0, 2.0);
                set.push(pos, vel, e as u32, species[rng.range_usize(0, species.len())]);
                let i = set.len() - 1;
                set.acc[i] = Vec3::new(rng.range_f64(-9.0, 9.0), rng.range_f64(-9.0, 9.0), 0.0);
                set.state[i] = match rng.range_usize(0, if all_idle { 3 } else { 10 }) {
                    0 => ParticleState::Deposited,
                    1 => ParticleState::Escaped,
                    2 => ParticleState::Lost,
                    _ => ParticleState::Active,
                };
            }
            if n >= 2 && !all_idle {
                let (on_node, nan) = (rng.range_usize(0, n), rng.range_usize(0, n));
                let v = mesh.elem_nodes(set.elem[on_node] as usize)[0] as usize;
                set.pos[on_node] = mesh.coords[v];
                set.vel[on_node] = field[v];
                set.state[on_node] = ParticleState::Active;
                set.vel[nan].y = f64::NAN;
                set.state[nan] = ParticleState::Active;
            }
            let active = set.census().active;
            blocks_short.set(blocks_short.get() + usize::from(active % LANES != 0));
            sets_idle.set(sets_idle.get() + usize::from(active == 0));

            let (mut lanes, mut scalar) = (set.clone(), set.clone());
            for step in 0..5 {
                let got = step_particles(&mut lanes, &loc, &field, AIR_RHO, AIR_MU, gravity, dt);
                let want = crate::oracle::step_particles(&mut scalar, &loc, &field, AIR_RHO, AIR_MU, gravity, dt);
                let at = format!("step {step}");
                assert_eq!(got, want, "StepStats, {at}");
                assert_eq!(bits(&lanes.pos), bits(&scalar.pos), "pos, {at}");
                assert_eq!(bits(&lanes.vel), bits(&scalar.vel), "vel, {at}");
                assert_eq!(bits(&lanes.acc), bits(&scalar.acc), "acc, {at}");
                assert_eq!(lanes.elem, scalar.elem, "elem, {at}");
                assert_eq!(lanes.state, scalar.state, "state, {at}");
                let seen = [got.deposited, got.escaped, got.relocated, got.hopped];
                let mut sums = reached.get();
                sums.iter_mut().zip(seen).for_each(|(sum, n)| *sum += n);
                reached.set(sums);
            }
        });
        // The sample reached what the doc comment names.
        assert!(reached.get().iter().all(|&n| n > 0), "relocation paths not all reached: {:?}", reached.get());
        assert!(blocks_short.get() > 0 && sets_idle.get() > 0, "no short block or no idle set");
    }

    #[test]
    fn injection_places_particles_in_elements() {
        let am = airway();
        let (_, set) = inject(&am, 1.0, ParticleProps::default(), 200, 42);
        let n = set.len();
        assert!(n >= 190, "only {n}/200 injected");
        assert_eq!(set.census().active, n);
        // All in valid elements near the inlet.
        for i in 0..set.len() {
            assert!((set.elem[i] as usize) < am.mesh.num_elements());
            assert!(set.pos[i].z > -0.02, "injected too deep: {:?}", set.pos[i]);
        }
    }

    #[test]
    fn injection_concentrates_in_few_elements() {
        // The cause of the paper's particle imbalance: at injection all
        // particles sit in a tiny fraction of the mesh.
        let am = airway();
        let (_, set) = inject(&am, 1.0, ParticleProps::default(), 300, 1);
        let distinct: std::collections::HashSet<u32> = set.elem.iter().copied().collect();
        assert!(
            distinct.len() * 20 < am.mesh.num_elements(),
            "{} elements host all particles (of {})",
            distinct.len(),
            am.mesh.num_elements()
        );
    }

    #[test]
    fn particles_follow_downward_flow() {
        let am = airway();
        let (loc, mut set) = inject(&am, 0.5, ParticleProps::default(), 100, 3);
        // Uniform downward flow (rapid inhalation along -z).
        let flow = vec![Vec3::new(0.0, 0.0, -2.0); am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        let z_before: f64 = set.pos.iter().map(|p| p.z).sum::<f64>() / set.len() as f64;
        for _ in 0..100 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-4);
        }
        let z_after: f64 = set.pos.iter().map(|p| p.z).sum::<f64>() / set.len() as f64;
        assert!(z_after < z_before, "particles must move down: {z_before} -> {z_after}");
        let c = set.census();
        assert_eq!(c.active + c.deposited + c.escaped + c.lost, set.len());
        assert_eq!(c.lost, 0, "no particle should be lost in a clean tube");
    }

    #[test]
    fn crossflow_deposits_particles_on_walls() {
        let am = airway();
        // Large, heavy particles in a strong sideways flow deposit fast.
        let (loc, mut set) = inject(&am, 0.1, ParticleProps { diameter: 50e-6, density: 2000.0 }, 100, 9);
        let flow = vec![Vec3::new(3.0, 0.0, -0.2); am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        for _ in 0..200 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-3);
        }
        let c = set.census();
        assert!(c.deposited > 50, "crossflow should deposit most particles: {c:?}");
    }

    #[test]
    fn particles_per_owner_counts() {
        let am = airway();
        let (_, set) = inject(&am, 1.0, ParticleProps::default(), 100, 5);
        // Two owners: split elements in half.
        let half = am.mesh.num_elements() / 2;
        let owner: Vec<u32> = (0..am.mesh.num_elements())
            .map(|e| if e < half { 0 } else { 1 })
            .collect();
        let counts = particles_per_owner(&set, &owner, 2);
        assert_eq!(counts.iter().sum::<usize>(), set.census().active);
    }

    #[test]
    fn still_fluid_settling_matches_terminal_velocity() {
        // One particle in still air inside the trachea settles at the
        // Stokes terminal velocity (integration + forces together).
        let (am, mut set) = (airway(), ParticleSet::default());
        let loc = Locator::new(&am.mesh);
        let props = ParticleProps::default();
        let start = am.inlet_center + am.inlet_direction * 0.02;
        let e = loc.locate_global(start).expect("start inside trachea");
        set.push(start, Vec3::ZERO, e, props);
        let flow = vec![Vec3::ZERO; am.mesh.num_nodes()];
        let g = Vec3::new(0.0, 0.0, -9.81);
        for _ in 0..400 {
            step_particles(&mut set, &loc, &flow, AIR_RHO, AIR_MU, g, 1e-4);
            if set.state[0] != ParticleState::Active {
                break;
            }
        }
        let vt = crate::forces::stokes_terminal_velocity(props, AIR_RHO, AIR_MU, 9.81);
        assert!(
            (set.vel[0].z.abs() - vt).abs() / vt < 0.05,
            "settling velocity {} vs analytic {}",
            set.vel[0].z.abs(),
            vt
        );
    }
}
