//! Set-up, done once per mesh instead of once per run: everything a run
//! derives from its [`PrepareKey`] — the mesh, the partition, the
//! particle locator and each fluid rank's solver structure — built by
//! [`prepare`] into one immutable [`Prepared`] that any number of runs
//! share by `Arc`.
//!
//! The key is the whole input of `prepare`: airway spec, layout,
//! strategy, subdomain count, mode and rank counts. What a run may vary
//! on one `Prepared` is everything else — seed, particle count, steps,
//! inflow, `dt`, tolerances, threads, DLB and the other [`RunOptions`]
//! (`crate::simulation::RunOptions`). The segments of a served cell,
//! the seeds of a campaign matrix and the jobs of a daemon therefore
//! pay for one set-up per distinct key ([`PrepareMemo`]).

use crate::config::{ExecutionMode, SimulationConfig};
use crate::fluid::{FluidStructure, MeshStructure, PressureOperator, Schedule};
use cfpd_mesh::{generate_airway, AirwayMesh, AirwaySpec, Csr, Mesh};
use cfpd_particles::{Locator, LocatorGeometry};
use cfpd_partition::{partition_kway_covered, Graph, NodeCliques};
use cfpd_solver::{AssemblyStrategy, AssemblyUnits, CsrMatrix, LayoutPlan, SellStructure};
use cfpd_testkit::digest::digest_bytes;
use std::sync::{Arc, Mutex, OnceLock};

/// The inputs of [`prepare`], and nothing else of a run's configuration.
#[derive(Debug, Clone)]
pub struct PrepareKey {
    airway: AirwaySpec,
    layout: LayoutPlan,
    strategy: AssemblyStrategy,
    subdomains_per_rank: usize,
    mode: ExecutionMode,
    /// Total ranks: the run's rank count in synchronous mode,
    /// `fluid + particles` in coupled mode.
    ranks: usize,
}

impl PrepareKey {
    /// The key of a run of `config` on `n_ranks` base ranks (ignored in
    /// coupled mode, like everywhere else).
    pub fn of(config: &SimulationConfig, n_ranks: usize) -> PrepareKey {
        PrepareKey {
            airway: config.airway.clone(),
            layout: config.layout,
            strategy: config.strategy,
            subdomains_per_rank: config.subdomains_per_rank,
            mode: config.mode,
            ranks: config.total_ranks(n_ranks),
        }
    }

    /// Digest of the `Debug` rendering, which covers every field without
    /// enumerating them here (the convention of
    /// [`crate::checkpoint::config_digest`]).
    pub fn digest(&self) -> u64 {
        digest_bytes(format!("{self:?}").as_bytes())
    }

    /// `(fluid parts, particle parts)` the mesh is partitioned into.
    fn parts(&self) -> (usize, usize) {
        match self.mode {
            ExecutionMode::Synchronous => (self.ranks, self.ranks),
            ExecutionMode::Coupled { fluid, particles } => (fluid, particles),
        }
    }
}

/// What [`prepare`] built from a [`PrepareKey`]. Immutable, except that
/// the first run to assemble the pressure operator publishes it here for
/// every later one.
pub struct Prepared {
    key_digest: u64,
    ranks: usize,
    /// The mesh, RCM-renumbered when the layout asks for it.
    pub(crate) airway: AirwayMesh,
    /// Element → particle part that owns it.
    pub(crate) owner: Vec<u32>,
    locator: Arc<LocatorGeometry>,
    /// One structure per fluid rank, over that rank's part.
    pub(crate) fluid: Vec<Arc<FluidStructure>>,
    /// The reduced pressure operator: a function of the mesh and of the
    /// order the parts are summed in, both fixed by the key.
    pub(crate) pressure_op: OnceLock<Arc<PressureOperator>>,
}

impl Prepared {
    /// [`PrepareKey::digest`] of the key this was built from.
    pub fn key_digest(&self) -> u64 {
        self.key_digest
    }

    /// Total ranks of a run on this set-up.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    pub fn airway(&self) -> &AirwayMesh {
        &self.airway
    }

    /// Element count of the mesh (the golden document's header prints it).
    pub fn elements(&self) -> usize {
        self.airway.mesh.num_elements()
    }

    /// Node count of the mesh.
    pub fn nodes(&self) -> usize {
        self.airway.mesh.num_nodes()
    }

    /// A particle locator over the mesh, on the shared geometry.
    pub(crate) fn locator(&self) -> Locator<'_> {
        Locator::with_geometry(&self.airway.mesh, Arc::clone(&self.locator))
    }

    /// Solver structure of fluid rank `rank`.
    pub fn fluid_structure(&self, rank: usize) -> &Arc<FluidStructure> {
        &self.fluid[rank]
    }
}

/// Partition all mesh elements into `n` cost-weighted parts: each part's
/// elements and the element → part map.
fn partition(mesh: &Mesh, n2e: &Csr, n: usize) -> (Vec<Vec<u32>>, Vec<u32>) {
    let ne = mesh.num_elements();
    if n == 1 {
        // The one part owns everything: no graph to build.
        return (vec![(0..ne as u32).collect()], vec![0; ne]);
    }
    let g = Graph::from_csr(&mesh.element_adjacency(n2e), mesh.cost_weights());
    let part = partition_kway_covered(&g, &NodeCliques::of_mesh(mesh, n2e), n, 4);
    (part.part_members(), part.parts)
}

/// Renumber the nodes of `mesh` — by reverse Cuthill–McKee when `rcm`
/// holds (the locality layout), else by the identity — on node tables
/// built once, before: RCM reads that adjacency, and the renumbered
/// mesh's tables are these relabelled. Returns its node→element table
/// (the same rows, moved), the adjacency from before and the
/// permutation (`perm[old] = new`), which
/// [`CsrMatrix::from_adjacency`] turns into its sparsity pattern.
fn renumber(mesh: &mut Mesh, rcm: bool) -> (Csr, Csr, Vec<u32>) {
    let n2e = mesh.node_to_elements();
    let adj = mesh.node_adjacency_of(&n2e);
    let n = mesh.num_nodes();
    let perm: Vec<u32> = if rcm { cfpd_partition::rcm_perm(&adj) } else { (0..n as u32).collect() };
    mesh.renumber_nodes(&perm);
    (n2e.permute_rows(&perm), adj, perm)
}

/// `$body`, its wall time observed in the histogram
/// `core.prepare_us.$stage` (microseconds; threads that work side by
/// side each record their own). A histogram because it is a timing:
/// `cfpd report --baseline` compares counters.
macro_rules! stage {
    ($stage:literal, $body:expr) => {{
        let t0 = std::time::Instant::now();
        let value = $body;
        cfpd_telemetry::observe!(
            concat!("core.prepare_us.", $stage),
            t0.elapsed().as_micros() as u64
        );
        value
    }};
}

/// Build everything a run on `key` needs before its first step. The
/// fluid ranks' assembly schedules are built side by side on scoped
/// threads, like the rank threads of a run would; beside them one more
/// thread shapes the SELL structure the schedules scatter into, then
/// builds the locator geometry (whose face planes wait for the first
/// query) and what the mesh alone decides ([`MeshStructure`]), built
/// once and shared by every rank.
pub fn prepare(key: &PrepareKey) -> Result<Arc<Prepared>, String> {
    let (fluid_parts, particle_parts) = key.parts();
    if fluid_parts == 0 || particle_parts == 0 {
        return Err(format!("a run needs fluid and particle ranks, got {:?}", key.mode));
    }
    cfpd_telemetry::count!("core.prepare_builds");
    let mut airway = stage!("mesh", generate_airway(&key.airway))
        .map_err(|e| format!("invalid airway spec: {e}"))?;
    // Before anything derives data from node ids (CSR patterns,
    // partitions, boundary sets), so every downstream structure sees the
    // final order.
    let (n2e, adj, perm) = stage!("rcm", renumber(&mut airway.mesh, key.layout.rcm));
    let mesh = &airway.mesh;
    let (members, owner) = stage!("partition", {
        let (members, fluid_owner) = partition(mesh, &n2e, fluid_parts);
        let owner = if particle_parts == fluid_parts {
            fluid_owner
        } else {
            partition(mesh, &n2e, particle_parts).1
        };
        (members, owner)
    });

    // The mesh tables every rank's plan, SGS layout and the locator read.
    let (pattern, sizes): (_, Arc<[f64]>) =
        stage!("structure", (CsrMatrix::from_adjacency(&adj, &perm), mesh.element_sizes().into()));
    // Freed before the plans are built, which then reuse the memory.
    drop((n2e, adj, perm));
    // The SELL structure both matrices share, which the plans' scatter
    // indices name. The side thread shapes it first; a plan reaches it
    // only after its units (tens of milliseconds), so it rarely waits,
    // and whichever thread asks first builds it.
    let sell = OnceLock::new();
    let shape = || sell.get_or_init(|| Arc::new(SellStructure::from_csr(&pattern)));
    let (strategy, n_sub) = (key.strategy, key.subdomains_per_rank);
    let schedule = |elems: Vec<u32>| {
        stage!("plan", {
            let units = AssemblyUnits::new(mesh, elems, strategy, n_sub);
            Schedule::build(mesh, units, shape(), &sizes, key.layout)
        })
    };
    let (locator, fluid) = std::thread::scope(|scope| {
        fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
            handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
        }
        let side = scope.spawn(|| {
            let sell = stage!("structure", Arc::clone(shape()));
            let faces = Arc::clone(&airway.face_neighbors);
            let locator =
                stage!("locator", Arc::new(LocatorGeometry::new(mesh, faces, Arc::clone(&sizes))));
            let shared =
                stage!("structure", Arc::new(MeshStructure::build(mesh, &pattern, sell, &sizes)));
            (locator, shared)
        });
        let mut members = members.into_iter();
        let first = members.next().expect("at least one fluid part");
        let rest: Vec<_> = members.map(|elems| scope.spawn(|| schedule(elems))).collect();
        let mut schedules = vec![schedule(first)];
        schedules.extend(rest.into_iter().map(join));
        let (locator, shared) = join(side);
        let fluid: Vec<Arc<FluidStructure>> =
            schedules.into_iter().map(|own| Arc::new(own.on(Arc::clone(&shared)))).collect();
        (locator, fluid)
    });

    Ok(Arc::new(Prepared {
        key_digest: key.digest(),
        ranks: key.ranks,
        airway,
        owner,
        locator,
        fluid,
        pressure_op: OnceLock::new(),
    }))
}

/// Entries a [`PrepareMemo`] keeps. Two, because a campaign matrix or a
/// job typically alternates between two keys (the reference and the
/// optimized layout of one mesh) and a third distinct key is a new
/// mesh, whose set-up is then the smaller part of what follows.
pub const MEMO_ENTRIES: usize = 2;

type Slot = Arc<OnceLock<Result<Arc<Prepared>, String>>>;

/// The [`MEMO_ENTRIES`] most recently used [`Prepared`] values, by
/// [`PrepareKey::digest`]. Owned by whoever runs several cells in a row
/// (a campaign pool, a daemon) — never a process global, so a restarted
/// owner starts cold.
#[derive(Default)]
pub struct PrepareMemo {
    /// Most recently used first.
    slots: Mutex<Vec<(u64, Slot)>>,
}

impl PrepareMemo {
    pub fn new() -> PrepareMemo {
        PrepareMemo::default()
    }

    /// The `Prepared` of `key`, built now if neither kept nor being
    /// built: callers racing for one key wait for a single build.
    pub fn get(&self, key: &PrepareKey) -> Result<Arc<Prepared>, String> {
        let digest = key.digest();
        let slot = {
            let mut slots = self.slots.lock().expect("no panic while the memo is locked");
            let slot = match slots.iter().position(|(d, _)| *d == digest) {
                Some(i) => slots.remove(i).1,
                None => Slot::default(),
            };
            slots.insert(0, (digest, Arc::clone(&slot)));
            slots.truncate(MEMO_ENTRIES);
            slot
        };
        let mut built = false;
        let result = slot.get_or_init(|| {
            built = true;
            prepare(key)
        });
        if !built {
            cfpd_telemetry::count!("core.prepare_hits");
        }
        result.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::AirwaySpec;

    fn config(generations: usize) -> SimulationConfig {
        SimulationConfig {
            airway: AirwaySpec { generations, ..AirwaySpec::small() },
            ..Default::default()
        }
    }

    #[test]
    fn key_ignores_what_prepare_cannot_read() {
        let base = config(1);
        let key = PrepareKey::of(&base, 2).digest();
        let same = [
            SimulationConfig { seed: 99, ..base.clone() },
            SimulationConfig { num_particles: 7, ..base.clone() },
            SimulationConfig { steps: 1, ..base.clone() },
            SimulationConfig { inflow_speed: 0.3, ..base.clone() },
            SimulationConfig { dt: 5e-5, ..base.clone() },
            SimulationConfig { solver_tol: 1e-9, solver_max_iters: 9, ..base.clone() },
        ];
        for c in &same {
            assert_eq!(PrepareKey::of(c, 2).digest(), key, "{c:?}");
        }
        let coupled = ExecutionMode::Coupled { fluid: 1, particles: 1 };
        let different = [
            config(2),
            SimulationConfig { layout: LayoutPlan::optimized(), ..base.clone() },
            SimulationConfig { strategy: AssemblyStrategy::Coloring, ..base.clone() },
            SimulationConfig { subdomains_per_rank: 3, ..base.clone() },
            SimulationConfig { mode: coupled, ..base.clone() },
        ];
        for c in &different {
            assert_ne!(PrepareKey::of(c, 2).digest(), key, "{c:?}");
        }
        assert_ne!(PrepareKey::of(&base, 3).digest(), key, "rank count");
        // Coupled mode ignores the base rank count.
        let c = SimulationConfig { mode: coupled, ..base };
        assert_eq!(PrepareKey::of(&c, 2).digest(), PrepareKey::of(&c, 5).digest());
    }

    // `LayoutPlan`'s `Debug` rendering is part of two durable formats:
    // every checkpoint carries `config_digest` and is refused under
    // another, and a `Prepared` is found again by its key digest. These
    // are the values of the golden configuration on either layout as the
    // snapshots on disk carry them; a change to that rendering moves all
    // four, a bump of the checkpoint's summation revision the first two.
    #[test]
    fn digests_of_both_layouts_are_the_ones_on_disk() {
        use crate::checkpoint::config_digest;
        let reference = crate::golden::golden_config();
        let fast = SimulationConfig { layout: LayoutPlan::optimized(), ..reference.clone() };
        assert_eq!(config_digest(&reference), 0x450eae6202d26dae);
        assert_eq!(config_digest(&fast), 0x3cf71078816169b9);
        assert_eq!(PrepareKey::of(&reference, 2).digest(), 0xc2f4c2785266a222);
        assert_eq!(PrepareKey::of(&fast, 2).digest(), 0x1000280474f09759);
    }

    /// The face table the generator keeps, which the locator is built on,
    /// is the one the RCM-renumbered mesh gives: it names elements only.
    #[test]
    fn the_generators_face_table_survives_rcm() {
        for generations in [2, 4] {
            let c = SimulationConfig { layout: LayoutPlan::optimized(), ..config(generations) };
            let prepared = prepare(&PrepareKey::of(&c, 1)).unwrap();
            let airway = prepared.airway();
            assert_ne!(airway.mesh.conn, generate_airway(&c.airway).unwrap().mesh.conn);
            assert_eq!(*airway.face_neighbors, airway.mesh.face_neighbors());
        }
    }

    /// The node tables built once, before renumbering, are the renumbered
    /// mesh's own: relabelled, the node→element table is its
    /// `node_to_elements()` and the adjacency its `from_mesh` pattern —
    /// with RCM and with the identity.
    #[test]
    fn node_tables_built_before_renumbering_are_the_renumbered_meshes() {
        for generations in 0..=3 {
            for rcm in [false, true] {
                let mut mesh = generate_airway(&config(generations).airway).unwrap().mesh;
                let (n2e, adj, perm) = renumber(&mut mesh, rcm);
                let identity = perm.iter().enumerate().all(|(v, &p)| v == p as usize);
                assert_eq!(identity, !rcm, "generations {generations}");
                let at = format!("generations {generations}, rcm {rcm}");
                let want = mesh.node_to_elements();
                assert_eq!((&n2e.offsets, &n2e.targets), (&want.offsets, &want.targets), "{at}");
                let got = CsrMatrix::from_adjacency(&adj, &perm);
                let want = CsrMatrix::from_mesh(&mesh, &want);
                assert_eq!((&got.row_ptr, &got.col_idx), (&want.row_ptr, &want.col_idx), "{at}");
                assert_eq!(got.values.len(), want.nnz());
            }
        }
    }

    #[test]
    fn memo_keeps_the_two_most_recently_used() {
        let memo = PrepareMemo::new();
        let keys: Vec<PrepareKey> = (0..3).map(|g| PrepareKey::of(&config(g), 1)).collect();
        let a = memo.get(&keys[0]).unwrap();
        let b = memo.get(&keys[1]).unwrap();
        assert!(Arc::ptr_eq(&a, &memo.get(&keys[0]).unwrap()), "kept");
        // A third key evicts the least recently used, which is now b.
        let c = memo.get(&keys[2]).unwrap();
        assert!(Arc::ptr_eq(&a, &memo.get(&keys[0]).unwrap()), "a was used after b");
        assert!(Arc::ptr_eq(&c, &memo.get(&keys[2]).unwrap()));
        let b2 = memo.get(&keys[1]).unwrap();
        assert!(!Arc::ptr_eq(&b, &b2), "b was evicted and is built again");
        assert_eq!(b.key_digest(), b2.key_digest());
    }

    #[test]
    fn racing_callers_share_one_build() {
        let memo = PrepareMemo::new();
        let key = PrepareKey::of(&config(1), 2);
        let got: Vec<Arc<Prepared>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..4).map(|_| scope.spawn(|| memo.get(&key).unwrap())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
    }

    #[test]
    fn an_invalid_spec_is_an_error() {
        let mut bad = config(1);
        bad.airway.trachea_radius = -1.0;
        let err = prepare(&PrepareKey::of(&bad, 1)).err().expect("rejected");
        assert!(err.contains("invalid airway spec"), "{err}");
        let none = SimulationConfig {
            mode: ExecutionMode::Coupled { fluid: 0, particles: 1 },
            ..config(1)
        };
        assert!(prepare(&PrepareKey::of(&none, 1)).is_err());
    }
}
