//! What a global lookup builds: `particles.locator_lists_built` counts
//! candidate lists, one per sub-box a query lands in,
//! `particles.locator_cells_built` the grid cells those sub-boxes lie
//! in, and `particles.locator_plane_blocks_built` the blocks of 64
//! elements whose face planes a query read. The counters are
//! process-global, so this file runs in a process of its own and holds
//! one test.

use cfpd_mesh::{generate_airway, AirwaySpec, Vec3};
use cfpd_particles::{inject_at_inlet, step_particles, Locator, ParticleProps, ParticleSet};
use cfpd_solver::FluidProps;

#[test]
fn one_query_on_a_fresh_geometry_builds_exactly_one_list() {
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let loc = Locator::new(&am.mesh);
    let read = |name| cfpd_telemetry::counter(name).value();
    let built = || (read("particles.locator_lists_built"), read("particles.locator_cells_built"));
    cfpd_telemetry::set_enabled(true);
    assert_eq!(built(), (0, 0), "building the geometry builds no list");
    assert_eq!(read("particles.locator_plane_blocks_built"), 0, "nor a face plane");
    let p = am.mesh.centroid(am.mesh.num_elements() / 2);
    let found = loc.locate_global(p);
    assert!(found.is_some(), "a centroid lies in the mesh");
    assert_eq!(built(), (1, 1), "one query, one list in one cell");
    assert_eq!(loc.locate_global(p), found);
    assert_eq!(built(), (1, 1), "the second query reads the list the first built");

    // The particle phase of the golden configuration (200 particles of
    // seed 20260807 at 1.5 m/s, three steps of 1e-4 s) on a fresh
    // geometry, through a plug flow along the inlet axis: every particle
    // stays by the inlet, and so do the planes it reads.
    let blocks = am.mesh.num_elements().div_ceil(64);
    assert_eq!(blocks, 66);
    let before = read("particles.locator_plane_blocks_built");
    let loc = Locator::new(&am.mesh);
    let (air, dir) = (FluidProps::default(), am.inlet_direction.normalized());
    let mut set = ParticleSet::default();
    let props = ParticleProps::default();
    inject_at_inlet(&mut set, &loc, am.inlet_center, dir, am.inlet_radius, 1.5, props, 200, 20260807);
    let velocity = vec![dir * 1.5; am.mesh.num_nodes()];
    for _ in 0..3 {
        step_particles(&mut set, &loc, &velocity, air.density, air.viscosity, Vec3::new(0.0, 0.0, -9.81), 1e-4);
    }
    let read_by_run = read("particles.locator_plane_blocks_built") - before;
    assert!((1..=4).contains(&read_by_run), "the run built {read_by_run} of {blocks} plane blocks");
    cfpd_telemetry::set_enabled(false);
}
