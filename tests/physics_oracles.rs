//! Physics oracles: the simulation against closed-form solutions, with
//! the measured error printed (`cargo test --test physics_oracles --
//! --nocapture`).
//!
//! * One particle settling in still air, moved by `step_particles_with`
//!   (a block of one, padded, through the lane solve): it relaxes on the
//!   Stokes time ρ_p d²/(18 µ) and settles at the terminal velocity of
//!   the force balance with Ganser's drag correction at the Reynolds
//!   number it reaches.

use cfpd_mesh::{generate_airway, AirwaySpec, Vec3};
use cfpd_particles::{
    ganser_cd, particle_reynolds, step_particles_with, stokes_terminal_velocity, DispersionRng,
    Locator, ParticleProps, ParticleSet, ParticleState, TransportModel,
};
use cfpd_solver::FluidProps;

const G: f64 = 9.81;

/// Settling speed of one particle released from rest at the airway's
/// inlet centre, after each of `steps` steps of `dt`.
fn settle(props: ParticleProps, air: FluidProps, dt: f64, steps: usize) -> Vec<f64> {
    let airway = generate_airway(&AirwaySpec::small()).unwrap();
    let locator = Locator::new(&airway.mesh);
    let start = airway.inlet_center + airway.inlet_direction.normalized() * airway.inlet_radius;
    let elem = locator.locate_global(start).expect("the inlet centre is inside the mesh");
    // Newmark needs the acceleration at rest, gravity less buoyancy: an
    // injected particle starts from zero, which delays the whole curve
    // by about half a step (+1.9e-3 of τ at dt = τ/200).
    let a0 = Vec3::new(0.0, 0.0, -G * (1.0 - air.density / props.density));
    let mut set = ParticleSet {
        pos: vec![start],
        vel: vec![Vec3::ZERO],
        acc: vec![a0],
        elem: vec![elem],
        state: vec![ParticleState::Active],
        props: vec![props],
    };
    let still = vec![Vec3::ZERO; airway.mesh.num_nodes()];
    let (model, mut rng) = (TransportModel::paper_baseline(), DispersionRng::new(0));
    let gravity = Vec3::new(0.0, 0.0, -G);
    (0..steps)
        .map(|_| {
            let (d, mu) = (air.density, air.viscosity);
            step_particles_with(&mut set, &locator, &still, d, mu, gravity, dt, &model, &mut rng);
            assert_eq!(set.state[0], ParticleState::Active, "the particle left the air");
            assert!(set.vel[0].x == 0.0 && set.vel[0].y == 0.0, "still air drives only z");
            -set.vel[0].z
        })
        .collect()
}

/// The terminal velocity of the force balance (ρ_p − ρ_f) g π d³/6 =
/// (π/8) µ d C_D(Re) Re v, i.e. v = v_Stokes · 24 / (C_D Re), solved by
/// fixed point from the Stokes value; and the Re it settles at.
fn corrected_terminal(props: ParticleProps, air: FluidProps) -> (f64, f64) {
    let stokes = stokes_terminal_velocity(props, air.density, air.viscosity, G);
    let (mut v, mut re) = (stokes, 0.0);
    for _ in 0..100 {
        re = particle_reynolds(air.density, air.viscosity, props.diameter, v);
        v = stokes * 24.0 / (ganser_cd(re) * re);
    }
    (v, re)
}

#[test]
fn one_particle_relaxes_on_the_stokes_time_and_settles_at_the_corrected_terminal_velocity() {
    let air = FluidProps::default();
    for diameter in [5e-6, 20e-6] {
        let props = ParticleProps { diameter, density: 1000.0 };
        let tau = props.density * diameter * diameter / (18.0 * air.viscosity);
        let (dt, steps) = (tau / 200.0, 200 * 25);
        let speed = settle(props, air, dt, steps);
        let (terminal, re) = corrected_terminal(props, air);
        let stokes = stokes_terminal_velocity(props, air.density, air.viscosity, G);

        // The time the speed from rest crosses (1 − 1/e) of its terminal
        // value, interpolated between steps.
        let mark = terminal * (1.0 - (-1.0f64).exp());
        let k = speed.iter().position(|&v| v >= mark).expect("the speed crosses the mark");
        let before = if k == 0 { 0.0 } else { speed[k - 1] };
        let crossed = dt * (k as f64 + (mark - before) / (speed[k] - before));
        let tau_error = crossed / tau - 1.0;
        // Ganser's correction makes the drag grow faster with the slip
        // than Stokes' does: near the terminal Re by d(C_D Re²)/dRe / 24,
        // which bounds how much faster than τ the particle relaxes.
        let drag = |re: f64| ganser_cd(re) * re * re / 24.0;
        let correction = (drag(re * 1.001) - drag(re * 0.999)) / (0.002 * re) - 1.0;

        let settled = *speed.last().unwrap();
        let terminal_error = settled / terminal - 1.0;
        let stokes_error = settled / stokes - 1.0;
        println!(
            "d = {:.0} µm, Re = {re:.2e}: relaxation {crossed:.4e} s vs ρ_p d²/(18 µ) = {tau:.4e} s \
             ({tau_error:+.2e}; the drag slope of Ganser at this Re: {correction:+.2e}); terminal {settled:.6e} m/s vs \
             corrected {terminal:.6e} ({terminal_error:+.2e}), vs Stokes {stokes:.6e} ({stokes_error:+.2e})",
            diameter * 1e6
        );
        assert!(
            tau_error <= 1e-3 && tau_error >= -(correction + 1e-3),
            "relaxation time off by {tau_error:e}"
        );
        assert!(terminal_error.abs() < 1e-9, "terminal velocity off by {terminal_error:e}");
    }
}
