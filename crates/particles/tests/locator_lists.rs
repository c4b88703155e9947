//! What a global lookup builds: `particles.locator_lists_built` counts
//! candidate lists, one per sub-box a query lands in, and
//! `particles.locator_cells_built` the grid cells those sub-boxes lie
//! in. The counters are process-global, so this file runs in a process
//! of its own and holds one test.

use cfpd_mesh::{generate_airway, AirwaySpec};
use cfpd_particles::Locator;

#[test]
fn one_query_on_a_fresh_geometry_builds_exactly_one_list() {
    let am = generate_airway(&AirwaySpec::small()).unwrap();
    let loc = Locator::new(&am.mesh);
    let built = || {
        let read = |name| cfpd_telemetry::counter(name).value();
        (read("particles.locator_lists_built"), read("particles.locator_cells_built"))
    };
    cfpd_telemetry::set_enabled(true);
    assert_eq!(built(), (0, 0), "building the geometry builds no list");
    let p = am.mesh.centroid(am.mesh.num_elements() / 2);
    let found = loc.locate_global(p);
    assert!(found.is_some(), "a centroid lies in the mesh");
    assert_eq!(built(), (1, 1), "one query, one list in one cell");
    assert_eq!(loc.locate_global(p), found);
    assert_eq!(built(), (1, 1), "the second query reads the list the first built");
    cfpd_telemetry::set_enabled(false);
}
