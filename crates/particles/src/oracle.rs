//! The reference implementation the bit-identity test and the `hotpath`
//! bin compare against; no run reaches it.
//!
//! [`step_particles`] is the transport sweep that
//! [`crate::tracker::step_particles`] replaced: one particle at a time
//! through interpolation and the Newmark/Picard drag solve, every
//! intermediate a scalar — the exact arithmetic every lane of the block
//! sweep must reproduce. Relocation is scalar on both sides, so both call
//! the tracker's own `relocate`.
//!
//! It is `pub`, not `#[cfg(test)]`, for the reason `cfpd_solver::oracle`
//! is: the `particles/step-oracle` row of the `hotpath` bin sits in
//! another crate, and test-only items do not cross crate boundaries.

use crate::locator::Locator;
use crate::tracker::{
    relocate, ParticleSet, ParticleState, StepStats, NEWMARK_BETA, NEWMARK_GAMMA, NEWMARK_PICARD,
};
use cfpd_mesh::Vec3;

/// Advance all active particles of `set` by `dt`, one at a time.
pub fn step_particles(
    set: &mut ParticleSet,
    locator: &Locator,
    fluid_velocity: &[Vec3],
    fluid_density: f64,
    fluid_viscosity: f64,
    gravity: Vec3,
    dt: f64,
) -> StepStats {
    let mut stats = StepStats::default();
    for i in 0..set.len() {
        if set.state[i] != ParticleState::Active {
            continue;
        }
        let props = set.props[i];
        let mass = props.mass();
        let e = set.elem[i] as usize;
        let uf = locator.interpolate(e, set.pos[i], fluid_velocity);

        let (x0, v0, a0) = (set.pos[i], set.vel[i], set.acc[i]);
        let f_body = crate::forces::gravity_force(props, gravity)
            + crate::forces::buoyancy_force(props, fluid_density, gravity);
        let mut v1 = v0;
        let mut k = 0.0;
        for _ in 0..NEWMARK_PICARD {
            let rel_speed = (uf - v1).norm();
            let re = crate::forces::particle_reynolds(
                fluid_density,
                fluid_viscosity,
                props.diameter,
                rel_speed,
            );
            k = std::f64::consts::PI / 8.0
                * fluid_viscosity
                * props.diameter
                * crate::forces::ganser_cd(re)
                * re;
            let c = dt * NEWMARK_GAMMA / mass;
            v1 = (v0 + a0 * (dt * (1.0 - NEWMARK_GAMMA)) + (uf * k + f_body) * c)
                / (1.0 + c * k);
        }
        let a1 = ((uf - v1) * k + f_body) / mass;
        let x1 = x0 + v0 * dt + (a0 * (0.5 - NEWMARK_BETA) + a1 * NEWMARK_BETA) * (dt * dt);
        set.pos[i] = x1;
        set.vel[i] = v1;
        set.acc[i] = a1;
        stats.moved += 1;
        relocate(set, i, locator, &mut stats);
    }
    stats
}
