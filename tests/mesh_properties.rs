//! Property-based tests of the mesh substrate: conformity, positive
//! volumes, boundary classification and locator invariants over
//! randomized airway geometries. Runs on the in-repo `cfpd-testkit`
//! property runner (no external dependencies).

use cfpd_mesh::{generate_airway, AirwaySpec, BoundaryKind, TubeParams};
use cfpd_particles::Locator;
use cfpd_testkit::prop::{check, f64_range, map, usize_range, Gen, PropConfig};

fn spec_gen(min_generations: usize) -> impl Gen<Value = AirwaySpec> {
    let raw = (
        usize_range(min_generations, 3), // generations ..=2
        usize_range(5, 13),              // n_theta 5..=12
        usize_range(1, 4),               // n_bl_layers 1..=3
        usize_range(1, 4),               // n_core_rings 1..=3
        f64_range(0.1, 0.5),             // bl thickness fraction
        f64_range(1.2, 2.0),             // bl growth
        f64_range(0.7, 0.99),            // taper
    );
    map(raw, |(generations, n_theta, n_bl, n_core, bl_frac, bl_growth, taper)| AirwaySpec {
        generations,
        tube: TubeParams {
            n_theta,
            n_bl_layers: n_bl,
            n_core_rings: n_core,
            bl_thickness_frac: bl_frac,
            bl_growth,
        },
        axial_segments_per_radius: 1.0,
        taper,
        ..AirwaySpec::default()
    })
}

fn arb_spec() -> impl Gen<Value = AirwaySpec> {
    spec_gen(0)
}

/// Every generated element has strictly positive volume.
#[test]
fn volumes_always_positive() {
    check("volumes_always_positive", PropConfig::cases(12), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let mesh = &airway.mesh;
        assert!((0..mesh.num_elements()).all(|e| mesh.volume(e) > 0.0));
    });
}

/// Conformity: interior faces pair exactly; total face count checks
/// out (2·interior + exterior = Σ faces).
#[test]
fn faces_pair_consistently() {
    check("faces_pair_consistently", PropConfig::cases(12), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let mesh = &airway.mesh;
        let fns = mesh.face_neighbors();
        let mut interior = 0usize;
        let mut exterior = 0usize;
        for e in 0..mesh.num_elements() {
            for (f, nb) in fns.faces(e).iter().enumerate() {
                match nb {
                    Some(other) => {
                        // Symmetry: the neighbor must point back at us.
                        let back = fns
                            .faces(*other as usize)
                            .iter()
                            .flatten()
                            .any(|&x| x as usize == e);
                        assert!(back, "face ({e},{f}) asymmetric");
                        interior += 1;
                    }
                    None => exterior += 1,
                }
            }
        }
        let total: usize = (0..mesh.num_elements())
            .map(|e| mesh.kinds[e].num_faces())
            .sum();
        assert_eq!(interior + exterior, total);
        assert_eq!(interior % 2, 0);
        // Every exterior face is classified on the boundary list.
        assert_eq!(mesh.boundary.len(), exterior);
    });
}

/// The element mix always contains all three families once there is
/// at least one junction (generations >= 1, enforced by the generator —
/// the testkit analogue of `prop_assume!`).
#[test]
fn hybrid_mix_present() {
    check("hybrid_mix_present", PropConfig::cases(12), &spec_gen(1), |spec| {
        let airway = generate_airway(spec).unwrap();
        let s = airway.mesh.stats();
        assert!(s.num_tets > 0);
        assert!(s.num_prisms > 0);
        assert!(s.num_pyramids > 0);
    });
}

/// Boundary kinds: inlet exists, walls dominate, and with ≥1
/// generation there are multiple outlet regions.
#[test]
fn boundary_classification_sane() {
    check("boundary_classification_sane", PropConfig::cases(12), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let inlet = airway.mesh.boundary.iter().filter(|b| b.2 == BoundaryKind::Inlet).count();
        let wall = airway.mesh.boundary.iter().filter(|b| b.2 == BoundaryKind::Wall).count();
        let outlet = airway.mesh.boundary.iter().filter(|b| b.2 == BoundaryKind::Outlet).count();
        assert!(inlet > 0);
        assert!(outlet > 0);
        assert!(wall > inlet + outlet);
    });
}

/// Locator invariant: the centroid of any element is found inside
/// that element (or an element containing the same point).
#[test]
fn locator_finds_centroids() {
    check("locator_finds_centroids", PropConfig::cases(12), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let locator = Locator::new(&airway.mesh);
        let ne = airway.mesh.num_elements();
        for e in (0..ne).step_by((ne / 23).max(1)) {
            let c = airway.mesh.centroid(e);
            let found = locator.locate_global(c);
            assert!(found.is_some(), "centroid of {e} not found");
            let f = found.unwrap() as usize;
            let h = airway.mesh.volume(f).abs().cbrt();
            assert!(locator.contains(f, c, 1e-6 * h));
        }
    });
}

/// Mesh statistics are internally consistent.
#[test]
fn stats_consistent() {
    check("stats_consistent", PropConfig::cases(12), &arb_spec(), |spec| {
        let airway = generate_airway(spec).unwrap();
        let s = airway.mesh.stats();
        assert_eq!(s.num_tets + s.num_pyramids + s.num_prisms, s.num_elements);
        assert!(s.total_volume > 0.0);
        assert!(s.min_volume > 0.0);
        assert!(s.max_volume >= s.min_volume);
    });
}
