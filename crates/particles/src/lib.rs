//! # cfpd-particles — Lagrangian aerosol transport (§2.1)
//!
//! Implements the particle physics of the paper: Newton's second law
//! (eq. 3) under drag with Ganser's correlation (eqs. 6–8), gravity and
//! buoyancy (eqs. 4–5), integrated with Newmark's method at dt = 1e-4 s,
//! over the unstructured hybrid mesh via an element-walk locator.
//!
//! The module also exposes the *load profile* of the particle phase
//! ([`tracker::particles_per_owner`]): all particles enter through the
//! inlet, so at injection the entire particle workload lands on the few
//! ranks owning inlet elements — the paper's L₉₆ = 0.02 imbalance.

#![forbid(unsafe_code)]

pub mod forces;
pub mod locator;
pub mod oracle;
pub mod tracker;

pub use forces::{
    buoyancy_force, drag_force, ganser_cd, gravity_force, particle_reynolds,
    stokes_terminal_velocity, total_force, ParticleProps,
};
pub use locator::{Locator, LocatorGeometry, WalkResult};
pub use tracker::{
    inject_at_inlet, particles_per_owner, step_particles, ParticleCensus, ParticleSet,
    ParticleState, StepStats,
};
