//! The incompressible-flow stepper: a fractional-step (pressure
//! projection) scheme whose phases map one-to-one onto the paper's
//! profile (Table 1): matrix assembly → momentum solve (Solver1) →
//! pressure solve and velocity correction (Solver2) → subgrid scale
//! (SGS).

use cfpd_mesh::{BoundaryKind, Csr, Mesh, Vec3};
use cfpd_runtime::ThreadPool;
use cfpd_solver::{
    assemble_divergence, assemble_momentum, assemble_poisson, assemble_pressure_gradient,
    bicgstab3, compute_sgs, AssemblyPlan, AssemblyStats, AssemblyStrategy, AssemblyUnits,
    Bicgstab3Workspace, CsrMatrix, Deflation, DeflationStructure, ElementOrder, FluidProps,
    LayoutPlan, RefElement, SellMatrix, SellStructure, SgsField, SgsLayout, SgsStats, SolveStats,
};
#[cfg(test)]
use cfpd_solver::oracle;
use std::sync::Arc;

/// Boundary conditions extracted from the mesh's tagged exterior faces.
#[derive(Debug, Clone, Default)]
pub struct BoundaryConditions {
    /// Nodes with prescribed velocity (inlet): value = inflow vector.
    pub inlet_nodes: Vec<u32>,
    /// No-slip wall nodes.
    pub wall_nodes: Vec<u32>,
    /// Outlet nodes (pressure pinned to zero).
    pub outlet_nodes: Vec<u32>,
}

impl BoundaryConditions {
    /// Collect the boundary node sets from the mesh tags. Inlet wins
    /// over wall on shared rim nodes (so the inflow profile is applied
    /// on the whole inlet disc).
    pub fn from_mesh(mesh: &Mesh) -> BoundaryConditions {
        let (mut inlet, mut wall, mut outlet) = (Vec::new(), Vec::new(), Vec::new());
        for &(e, f, kind) in &mesh.boundary {
            let nodes = mesh.elem_nodes(e as usize);
            let face = mesh.kinds[e as usize].faces()[f as usize];
            let set = match kind {
                BoundaryKind::Inlet => &mut inlet,
                BoundaryKind::Wall => &mut wall,
                BoundaryKind::Outlet => &mut outlet,
            };
            set.extend(face.iter().map(|&li| nodes[li]));
        }
        for set in [&mut inlet, &mut wall, &mut outlet] {
            set.sort_unstable();
            set.dedup();
        }
        // Rim nodes belong to both; give the inlet precedence.
        wall.retain(|v| inlet.binary_search(v).is_err());
        BoundaryConditions { inlet_nodes: inlet, wall_nodes: wall, outlet_nodes: outlet }
    }
}

/// Timings (in seconds of real execution) and solver statistics of one
/// fluid step.
#[derive(Debug, Clone, Default)]
pub struct FluidStepReport {
    pub t_assembly: f64,
    pub t_solver1: f64,
    /// The whole projection: Poisson right-hand side, pressure solve and
    /// velocity correction.
    pub t_solver2: f64,
    pub t_sgs: f64,
    /// Statistics of the momentum assembly.
    pub assembly: Option<AssemblyStats>,
    pub solver1: Option<[SolveStats; 3]>,
    pub solver2: Option<SolveStats>,
    pub sgs: Option<SgsStats>,
}

/// What a [`FluidStructure`] derives from the mesh alone — matrix
/// structure, boundary sets, coarse space, lumped mass — and therefore
/// the same for every rank and every strategy: `prepare` builds one and
/// all its fluid ranks hold it.
pub struct MeshStructure {
    refs: [RefElement; 3],
    /// The SELL structure the momentum and pressure matrices share:
    /// assembly scatters into it and both Krylov solves sweep it.
    sell: Arc<SellStructure>,
    /// Where each row's diagonal entry sits in the value array.
    diag_pos: Vec<u32>,
    /// Coarse space of the pressure solve.
    deflation: Arc<DeflationStructure>,
    bc: BoundaryConditions,
    /// Lumped mass over the whole mesh.
    lumped_mass: Vec<f64>,
}

impl MeshStructure {
    /// `pattern` is `CsrMatrix::from_mesh(mesh, ..)`, whose values are not
    /// read, `sell` its SELL shape and `sizes` `mesh.element_sizes()`.
    /// Nothing of `pattern` is kept.
    pub fn build(
        mesh: &Mesh,
        pattern: &CsrMatrix,
        sell: Arc<SellStructure>,
        sizes: &[f64],
    ) -> MeshStructure {
        let diag = |i| sell.position(i, i).expect("the pattern lists the diagonal") as u32;
        let diag_pos = (0..pattern.n).map(diag).collect();
        let bc = BoundaryConditions::from_mesh(mesh);
        let deflation =
            Arc::new(DeflationStructure::new(pattern, &bc.inlet_nodes, &bc.outlet_nodes));
        let refs = RefElement::all();
        let lumped_mass = cfpd_solver::batch::lumped_mass(&refs, mesh, sizes);
        MeshStructure { refs, sell, diag_pos, deflation, bc, lumped_mass }
    }
}

/// Everything a [`FluidSolver`] derives from the mesh, its element list,
/// the strategy and the layout, and never changes afterwards: what the
/// mesh alone decides ([`MeshStructure`]) and, over this solver's
/// elements, the assembly schedule and the SGS layout. A solver holds it
/// by `Arc`, so any number of solvers over the same inputs — the
/// segments of a run, the cells of a campaign — share one.
pub struct FluidStructure {
    mesh: Arc<MeshStructure>,
    /// Assembly schedule over this solver's elements, its batches cut in
    /// the layout's element order.
    plan: AssemblyPlan,
    sgs: Arc<SgsLayout>,
}

impl FluidStructure {
    /// Build the structure for a solver assembling `elems` of `mesh`;
    /// `n2e` is `mesh.node_to_elements()`. For callers that hold only the
    /// mesh: the face table the Multidep decomposition cuts on is built
    /// here (`prepare` passes the generator's instead).
    pub fn build(
        mesh: &Mesh,
        n2e: &Csr,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
        layout: LayoutPlan,
    ) -> FluidStructure {
        let (pattern, sizes) = (CsrMatrix::from_mesh(mesh, n2e), mesh.element_sizes().into());
        let sell = Arc::new(SellStructure::from_csr(&pattern));
        let faces = mesh.face_neighbors();
        let units = AssemblyUnits::new(mesh, &faces, elems, strategy, n_subdomains);
        let own = Schedule::build(mesh, units, &sell, &sizes, layout);
        own.on(Arc::new(MeshStructure::build(mesh, &pattern, sell, &sizes)))
    }
}

/// The per-solver half of a [`FluidStructure`]: `prepare` builds one per
/// fluid rank, side by side, and joins each with the one
/// [`MeshStructure`].
pub(crate) struct Schedule {
    plan: AssemblyPlan,
    sgs: Arc<SgsLayout>,
}

impl Schedule {
    /// The plan of `units` scattering into matrices on `sell`, and its
    /// SGS layout; `sizes` is `mesh.element_sizes()`, which both share.
    pub(crate) fn build(
        mesh: &Mesh,
        units: AssemblyUnits,
        sell: &SellStructure,
        sizes: &Arc<[f64]>,
        layout: LayoutPlan,
    ) -> Schedule {
        // The one place a solver reads the layout (its node order is
        // already in `mesh`): the reference layout cuts each unit's
        // batches in list order, the fast one grouped by kind. Nothing
        // downstream asks again — the plan's schedule is in that order.
        let order =
            if layout.is_default() { ElementOrder::List } else { ElementOrder::KindGrouped };
        let plan = AssemblyPlan::schedule(units, mesh, sell, order, sizes);
        let sgs = Arc::new(SgsLayout::new(mesh, &plan.elems, Arc::clone(sizes)));
        Schedule { plan, sgs }
    }

    pub(crate) fn on(self, mesh: Arc<MeshStructure>) -> FluidStructure {
        FluidStructure { mesh, plan: self.plan, sgs: self.sgs }
    }
}

/// The pressure operator `∫∇N_i·∇N_j`, summed over all ranks, with
/// identity rows at the outlets — assembled straight into the SELL
/// storage the solve sweeps — and the deflation values loaded from it.
/// It depends on the geometry alone: the first step of the first solver
/// over a mesh assembles it, and every later step, of that solver or of
/// any other given the same `Arc`, only reads it.
pub struct PressureOperator {
    matrix: SellMatrix,
    deflation: Deflation,
}

/// Single-address-space fluid solver over (a subset of) the mesh: the
/// shared [`FluidStructure`] plus the values this solver owns.
pub struct FluidSolver<'m> {
    pub mesh: &'m Mesh,
    s: Arc<FluidStructure>,
    props: FluidProps,
    dt: f64,
    tol: f64,
    max_iters: usize,
    /// The momentum matrix, on the structure the pressure operator uses:
    /// assembly scatters into it and Solver1 sweeps it.
    matrix_u: SellMatrix,
    /// Diagonal of `matrix_u` (Solver1's Jacobi preconditioner).
    diag_u: Vec<f64>,
    pressure_op: Option<Arc<PressureOperator>>,
    rhs_u: Vec<Vec<f64>>,
    /// Solver1's unknowns, component `c` of node `i` at `3 i + c`: the
    /// velocity on entry, the intermediate velocity u* on return.
    ustar: Vec<f64>,
    solver1: Bicgstab3Workspace,
    /// Solve the three components one by one with the scalar oracle.
    #[cfg(test)]
    scalar_solver1: bool,
    /// Sweep the SGS with the strategy-following scalar oracle.
    #[cfg(test)]
    scalar_sgs: bool,
    /// Assemble with the element-at-a-time oracle loops.
    #[cfg(test)]
    scalar_assembly: bool,
    rhs_p: Vec<f64>,
    /// Weak nodal pressure gradient of the correction, component `c` of
    /// node `i` at `3 i + c` (one buffer, one cross-rank reduction).
    grad_p: Vec<f64>,
    pub inflow: Vec3,
    /// Nodal velocity (the field particles are advected by).
    pub velocity: Vec<Vec3>,
    /// Nodal pressure.
    pub pressure: Vec<f64>,
    /// Subgrid-scale storage.
    pub sgs: SgsField,
    gravity: Vec3,
}

impl<'m> FluidSolver<'m> {
    /// Create a solver assembling `elems` (usually the rank's partition;
    /// pass all elements for a serial run) with the given strategy.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mesh: &'m Mesh,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
        props: FluidProps,
        dt: f64,
        inflow: Vec3,
        tol: f64,
        max_iters: usize,
    ) -> FluidSolver<'m> {
        FluidSolver::new_with_layout(
            mesh,
            elems,
            strategy,
            n_subdomains,
            props,
            dt,
            inflow,
            tol,
            max_iters,
            LayoutPlan::default(),
        )
    }

    /// [`FluidSolver::new`] with an explicit [`LayoutPlan`], which here
    /// decides the element order of the plan's batches. The node order is
    /// whatever `mesh` carries (`prepare` renumbers it first).
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_layout(
        mesh: &'m Mesh,
        elems: Vec<u32>,
        strategy: AssemblyStrategy,
        n_subdomains: usize,
        props: FluidProps,
        dt: f64,
        inflow: Vec3,
        tol: f64,
        max_iters: usize,
        layout: LayoutPlan,
    ) -> FluidSolver<'m> {
        let n2e = mesh.node_to_elements();
        let s = FluidStructure::build(mesh, &n2e, elems, strategy, n_subdomains, layout);
        FluidSolver::on(mesh, Arc::new(s), props, dt, inflow, tol, max_iters, None)
    }

    /// A solver over `mesh` on a structure built from it, with zero
    /// fields. Allocates values only. With `pressure_op` (a solver's
    /// [`FluidSolver::pressure_operator`] after its first step, on the
    /// same mesh and rank set) no step assembles the operator; without,
    /// the first one does.
    #[allow(clippy::too_many_arguments)]
    pub fn on(
        mesh: &'m Mesh,
        s: Arc<FluidStructure>,
        props: FluidProps,
        dt: f64,
        inflow: Vec3,
        tol: f64,
        max_iters: usize,
        pressure_op: Option<Arc<PressureOperator>>,
    ) -> FluidSolver<'m> {
        let n = mesh.num_nodes();
        assert_eq!(n, s.mesh.diag_pos.len(), "structure of another mesh");
        FluidSolver {
            mesh,
            props,
            dt,
            tol,
            max_iters,
            matrix_u: SellMatrix::zeros(Arc::clone(&s.mesh.sell)),
            diag_u: vec![0.0; n],
            pressure_op,
            rhs_u: vec![vec![0.0; n]; 3],
            ustar: vec![0.0; 3 * n],
            solver1: Bicgstab3Workspace::new(n),
            #[cfg(test)]
            scalar_solver1: false,
            #[cfg(test)]
            scalar_sgs: false,
            #[cfg(test)]
            scalar_assembly: false,
            rhs_p: vec![0.0; n],
            grad_p: vec![0.0; 3 * n],
            inflow,
            velocity: vec![Vec3::ZERO; n],
            pressure: vec![0.0; n],
            sgs: SgsField::on(Arc::clone(&s.sgs)),
            gravity: Vec3::new(0.0, 0.0, -9.81),
            s,
        }
    }

    /// The assembly plan (for inspection: colors, subdomains, ...).
    pub fn plan(&self) -> &AssemblyPlan {
        &self.s.plan
    }

    /// The boundary node sets of the mesh.
    pub fn bc(&self) -> &BoundaryConditions {
        &self.s.mesh.bc
    }

    /// The momentum system the last step assembled and solved: the
    /// matrix with its Dirichlet rows and the three right-hand sides
    /// (for inspection and benches).
    pub fn momentum_system(&self) -> (&SellMatrix, &[Vec<f64>]) {
        (&self.matrix_u, &self.rhs_u)
    }

    /// The pressure operator: `None` until a step built it (or the
    /// constructor was given one).
    pub fn pressure_operator(&self) -> Option<&Arc<PressureOperator>> {
        self.pressure_op.as_ref()
    }

    fn apply_velocity_bcs(&mut self) {
        for &v in &self.s.mesh.bc.wall_nodes {
            self.velocity[v as usize] = Vec3::ZERO;
        }
        for &v in &self.s.mesh.bc.inlet_nodes {
            self.velocity[v as usize] = self.inflow;
        }
    }

    /// Assemble the pressure operator, sum it across ranks, pin the
    /// outlets and load the deflation from it. Needs the caller's
    /// `reduce`, hence not in the constructor.
    fn build_pressure_operator(
        &self,
        pool: &ThreadPool,
        reduce: &mut dyn FnMut(&mut [f64]),
    ) -> PressureOperator {
        let (s, m) = (&*self.s, &*self.s.mesh);
        let mut matrix = SellMatrix::zeros(Arc::clone(&m.sell));
        #[cfg(test)]
        let assemble_poisson =
            if self.scalar_assembly { oracles::assemble_poisson } else { assemble_poisson };
        assemble_poisson(pool, &m.refs, self.mesh, &s.plan, &mut matrix);
        reduce(matrix.values_mut());
        for &v in &m.bc.outlet_nodes {
            matrix.set_dirichlet_row(v as usize);
        }
        let mut deflation = Deflation::on(Arc::clone(&m.deflation));
        deflation.refresh(&matrix);
        PressureOperator { matrix, deflation }
    }

    /// Make the next step assemble the pressure operator again: a
    /// solver that does so before every step is the oracle the kept
    /// operator is tested against.
    #[cfg(test)]
    fn forget_pressure_operator(&mut self) {
        self.pressure_op = None;
    }

    /// Solver1: `velocity` ← u*, the solution of the momentum system
    /// assembled in `matrix_u` / `rhs_u`, starting from `velocity`. One
    /// block solve for the three components, sweeping the values this
    /// step's assembly scattered.
    fn solve_momentum(&mut self, pool: &ThreadPool) -> [SolveStats; 3] {
        #[cfg(test)]
        if self.scalar_solver1 {
            return self.solve_momentum_scalar();
        }
        let values = self.matrix_u.values();
        for (d, &at) in self.diag_u.iter_mut().zip(&self.s.mesh.diag_pos) {
            *d = values[at as usize];
        }
        for (x, v) in self.ustar.chunks_exact_mut(3).zip(&self.velocity) {
            x.copy_from_slice(&[v.x, v.y, v.z]);
        }
        let stats = bicgstab3(
            &self.matrix_u,
            &self.diag_u,
            [&self.rhs_u[0], &self.rhs_u[1], &self.rhs_u[2]],
            &mut self.ustar,
            self.tol,
            self.max_iters,
            pool,
            &mut self.solver1,
        );
        for (v, x) in self.velocity.iter_mut().zip(self.ustar.chunks_exact(3)) {
            *v = Vec3::new(x[0], x[1], x[2]);
        }
        stats
    }

    /// What [`FluidSolver::solve_momentum`] replaced: three scalar
    /// solves on the CSR matrix, one per component — the oracle the
    /// block solve is compared with.
    #[cfg(test)]
    fn solve_momentum_scalar(&mut self) -> [SolveStats; 3] {
        let matrix = self.matrix_u.to_csr();
        let mut columns: [Vec<f64>; 3] =
            std::array::from_fn(|c| self.velocity.iter().map(|v| [v.x, v.y, v.z][c]).collect());
        let stats = std::array::from_fn(|c| {
            oracle::bicgstab(
                &matrix,
                &self.rhs_u[c],
                &mut columns[c],
                self.tol,
                self.max_iters,
            )
        });
        for (i, v) in self.velocity.iter_mut().enumerate() {
            *v = Vec3::new(columns[0][i], columns[1][i], columns[2][i]);
        }
        stats
    }

    /// The SGS phase: one sweep over this solver's elements.
    fn sweep_sgs(&mut self, pool: &ThreadPool) -> SgsStats {
        let (max_iters, tol) = (5, 1e-6);
        let s = &*self.s;
        #[cfg(test)]
        if self.scalar_sgs {
            return oracle::compute_sgs(
                pool,
                &s.mesh.refs,
                self.mesh,
                &s.plan,
                &self.velocity,
                self.props,
                &mut self.sgs,
                max_iters,
                tol,
            );
        }
        compute_sgs(
            pool,
            &s.mesh.refs,
            self.mesh,
            &self.velocity,
            self.props,
            &mut self.sgs,
            max_iters,
            tol,
        )
    }

    /// Advance the flow by one time step, reporting per-phase timings.
    pub fn step(&mut self, pool: &ThreadPool) -> FluidStepReport {
        self.step_reduced(pool, &mut |_| {})
    }

    /// Like [`FluidSolver::step`], but `reduce` is applied to every
    /// element-partial buffer (matrix values, RHS vectors, correction
    /// gradient) right after its local assembly. A distributed run
    /// passes an MPI allreduce(sum) here, so each rank assembles only
    /// its own elements yet solves the identical global system — the
    /// standard replicated-solve miniaturization (DESIGN.md §7).
    pub fn step_reduced(
        &mut self,
        pool: &ThreadPool,
        reduce: &mut dyn FnMut(&mut [f64]),
    ) -> FluidStepReport {
        let mut report = FluidStepReport::default();
        self.apply_velocity_bcs();
        let s = Arc::clone(&self.s);
        let m = &*s.mesh;
        // A test can have the step assemble through the loops the batch
        // engine replaced: the names below then mean the oracle's.
        #[cfg(test)]
        let assemble_momentum =
            if self.scalar_assembly { oracles::assemble_momentum } else { assemble_momentum };
        #[cfg(test)]
        let assemble_divergence =
            if self.scalar_assembly { oracle::assemble_divergence } else { assemble_divergence };
        #[cfg(test)]
        let assemble_pressure_gradient = if self.scalar_assembly {
            oracle::assemble_pressure_gradient
        } else {
            assemble_pressure_gradient
        };

        // ---- Phase: matrix assembly (momentum; on the first step also
        // the pressure operator) ----------------------------------------
        let t0 = std::time::Instant::now();
        self.matrix_u.values_mut().fill(0.0);
        for r in &mut self.rhs_u {
            r.iter_mut().for_each(|x| *x = 0.0);
        }
        // Non-incremental (Chorin) splitting: the momentum step sees no
        // pressure and the Poisson step recovers the full field. On this
        // equal-order discretization the incremental variant amplifies
        // junction overshoots (no PSPG damping), so the classical
        // splitting is the robust choice: the momentum kernels take no
        // pressure.
        let stats_m = assemble_momentum(
            pool,
            &m.refs,
            self.mesh,
            &s.plan,
            &self.velocity,
            self.props,
            self.dt,
            self.gravity,
            &mut self.matrix_u,
            &mut self.rhs_u,
        );
        // Combine element-partial sums across ranks before applying
        // boundary conditions.
        reduce(self.matrix_u.values_mut());
        for r in &mut self.rhs_u {
            reduce(r);
        }
        if self.pressure_op.is_none() {
            self.pressure_op = Some(Arc::new(self.build_pressure_operator(pool, reduce)));
        }
        // Momentum Dirichlet rows: walls (0) and inlet (inflow).
        for &v in m.bc.wall_nodes.iter().chain(&m.bc.inlet_nodes) {
            self.matrix_u.set_dirichlet_row(v as usize);
        }
        for (c, comp) in [self.inflow.x, self.inflow.y, self.inflow.z].iter().enumerate() {
            for &v in &m.bc.wall_nodes {
                self.rhs_u[c][v as usize] = 0.0;
            }
            for &v in &m.bc.inlet_nodes {
                self.rhs_u[c][v as usize] = *comp;
            }
        }
        report.t_assembly = t0.elapsed().as_secs_f64();
        report.assembly = Some(stats_m);

        // ---- Phase: Solver1 (momentum: one BiCGSTAB over the three
        // velocity components, which share the matrix) ------------------
        let t0 = std::time::Instant::now();
        let s1 = self.solve_momentum(pool);
        report.t_solver1 = t0.elapsed().as_secs_f64();
        report.solver1 = Some(s1);

        // ---- Phase: Solver2 (projection: pressure by deflated CG, then
        // the velocity correction) -------------------------------------
        let t0 = std::time::Instant::now();
        // Poisson right-hand side: the weak divergence of u*.
        self.rhs_p.fill(0.0);
        assemble_divergence(
            pool,
            &m.refs,
            self.mesh,
            &s.plan,
            &self.velocity,
            self.props,
            self.dt,
            &mut self.rhs_p,
        );
        reduce(&mut self.rhs_p);
        for &v in &m.bc.outlet_nodes {
            self.rhs_p[v as usize] = 0.0;
        }
        let op = self.pressure_op.as_deref().expect("built during assembly");
        let s2 = op.deflation.solve(
            &op.matrix,
            &self.rhs_p,
            &mut self.pressure,
            self.tol,
            self.max_iters,
            pool,
        );
        report.solver2 = Some(s2);

        // Velocity correction: u = u* − (dt/ρ) M_L⁻¹ ∫ N ∇p, in place
        // (`velocity` holds u* since Solver1).
        self.grad_p.fill(0.0);
        assemble_pressure_gradient(
            pool,
            &m.refs,
            self.mesh,
            &s.plan,
            &self.pressure,
            &mut self.grad_p,
        );
        reduce(&mut self.grad_p);
        let coef = self.dt / self.props.density;
        for (i, g) in self.grad_p.chunks_exact(3).enumerate() {
            let ml = m.lumped_mass[i];
            if ml > 0.0 {
                self.velocity[i] -= Vec3::new(g[0], g[1], g[2]) * (coef / ml);
            }
        }
        self.apply_velocity_bcs();
        report.t_solver2 = t0.elapsed().as_secs_f64();

        // ---- Phase: SGS ------------------------------------------------
        let t0 = std::time::Instant::now();
        let stats_sgs = self.sweep_sgs(pool);
        report.t_sgs = t0.elapsed().as_secs_f64();
        report.sgs = Some(stats_sgs);

        report
    }

    /// Mean velocity magnitude over all nodes (diagnostic).
    pub fn mean_speed(&self) -> f64 {
        self.velocity.iter().map(|v| v.norm()).sum::<f64>() / self.velocity.len() as f64
    }

    /// Maximum velocity magnitude (stability diagnostic).
    pub fn max_speed(&self) -> f64 {
        self.velocity.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }
}

/// The element-at-a-time assembly loops on the solver's SELL matrices,
/// for the tests that hold a step to them: each adds into the matrix's
/// CSR view and loads the sums back.
#[cfg(test)]
mod oracles {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    pub(super) fn assemble_momentum(
        pool: &ThreadPool,
        refs: &[RefElement; 3],
        mesh: &Mesh,
        plan: &AssemblyPlan,
        velocity: &[Vec3],
        props: FluidProps,
        dt: f64,
        body_force: Vec3,
        matrix: &mut SellMatrix,
        rhs: &mut [Vec<f64>],
    ) -> AssemblyStats {
        let mut csr = matrix.to_csr();
        let stats = oracle::assemble_momentum(
            pool, refs, mesh, plan, velocity, props, dt, body_force, &mut csr, rhs,
        );
        *matrix = SellMatrix::from_csr(&csr);
        stats
    }

    pub(super) fn assemble_poisson(
        pool: &ThreadPool,
        refs: &[RefElement; 3],
        mesh: &Mesh,
        plan: &AssemblyPlan,
        matrix: &mut SellMatrix,
    ) -> AssemblyStats {
        let mut csr = matrix.to_csr();
        let stats = oracle::assemble_poisson(pool, refs, mesh, plan, &mut csr);
        *matrix = SellMatrix::from_csr(&csr);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};

    fn solver_on<'m>(mesh: &'m Mesh, strategy: AssemblyStrategy) -> FluidSolver<'m> {
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        FluidSolver::new(
            mesh,
            elems,
            strategy,
            8,
            FluidProps::default(),
            1e-3,
            Vec3::new(0.0, 0.0, -1.0),
            1e-8,
            2000,
        )
    }

    #[test]
    fn boundary_conditions_cover_all_kinds() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let bc = BoundaryConditions::from_mesh(&am.mesh);
        assert!(!bc.inlet_nodes.is_empty());
        assert!(!bc.wall_nodes.is_empty());
        assert!(!bc.outlet_nodes.is_empty());
        // Inlet and wall sets are disjoint (rim given to the inlet).
        let walls: std::collections::HashSet<_> = bc.wall_nodes.iter().collect();
        assert!(bc.inlet_nodes.iter().all(|v| !walls.contains(v)));
    }

    #[test]
    fn flow_develops_from_inlet() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mut fs = solver_on(&am.mesh, AssemblyStrategy::Multidep);
        let pool = ThreadPool::new(2);
        let mut last = FluidStepReport::default();
        for _ in 0..3 {
            last = fs.step(&pool);
        }
        // Momentum and pressure solves converged.
        assert!(last.solver1.unwrap().iter().all(|s| s.converged));
        assert!(last.solver2.unwrap().converged);
        // The flow moves (driven by the inlet) and stays bounded.
        assert!(fs.mean_speed() > 1e-4, "mean speed {}", fs.mean_speed());
        assert!(fs.max_speed() < 50.0, "max speed {} (instability?)", fs.max_speed());
        // Walls are no-slip.
        for &v in fs.bc().wall_nodes.iter().take(50) {
            assert_eq!(fs.velocity[v as usize], Vec3::ZERO);
        }
        // Phase timings were measured.
        assert!(last.t_assembly > 0.0 && last.t_solver1 > 0.0);
    }

    #[test]
    fn strategies_give_same_flow() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let pool = ThreadPool::new(4);
        let mut a = solver_on(&am.mesh, AssemblyStrategy::Serial);
        let mut b = solver_on(&am.mesh, AssemblyStrategy::Multidep);
        for _ in 0..2 {
            a.step(&pool);
            b.step(&pool);
        }
        let mut max_diff = 0.0f64;
        for (va, vb) in a.velocity.iter().zip(&b.velocity) {
            max_diff = max_diff.max((*va - *vb).norm());
        }
        assert!(
            max_diff < 1e-5 * a.max_speed().max(1.0),
            "strategy changed the physics: diff {max_diff}"
        );
    }

    fn solver_with_layout<'m>(
        mesh: &'m Mesh,
        strategy: AssemblyStrategy,
        layout: LayoutPlan,
    ) -> FluidSolver<'m> {
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        FluidSolver::new_with_layout(
            mesh,
            elems,
            strategy,
            8,
            FluidProps::default(),
            1e-3,
            Vec3::new(0.0, 0.0, -1.0),
            1e-8,
            2000,
            layout,
        )
    }

    fn step_twice(fs: &mut FluidSolver, pool: &ThreadPool) -> (Vec<Vec3>, Vec<f64>) {
        fs.step(pool);
        fs.step(pool);
        (fs.velocity.clone(), fs.pressure.clone())
    }

    fn assert_state_bits_equal(a: &(Vec<Vec3>, Vec<f64>), b: &(Vec<Vec3>, Vec<f64>), what: &str) {
        for (i, (va, vb)) in a.0.iter().zip(&b.0).enumerate() {
            assert_eq!(va.x.to_bits(), vb.x.to_bits(), "{what}: velocity[{i}].x");
            assert_eq!(va.y.to_bits(), vb.y.to_bits(), "{what}: velocity[{i}].y");
            assert_eq!(va.z.to_bits(), vb.z.to_bits(), "{what}: velocity[{i}].z");
        }
        for (i, (pa, pb)) in a.1.iter().zip(&b.1).enumerate() {
            assert_eq!(pa.to_bits(), pb.to_bits(), "{what}: pressure[{i}]");
        }
    }

    // SELL sweeps, lane kernels and the batched SGS sweep are not
    // switches any more; what is left to compare a step with are the
    // scalar oracles they replaced. Here: the block momentum solve on
    // two workers against three scalar solves on the CSR matrix
    // (`assert_steps_match` covers both layouts, the cross-rank
    // reduction and the SGS oracle).
    #[test]
    fn raw_speed_switches_are_bit_identical() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let pool = ThreadPool::new(2);
        let solver = || solver_with_layout(&am.mesh, AssemblyStrategy::Serial, LayoutPlan::optimized());
        let want = step_twice(&mut solver(), &pool);
        let mut scalar = solver();
        scalar.scalar_solver1 = true;
        assert_state_bits_equal(&step_twice(&mut scalar, &pool), &want, "scalar Solver1");
    }

    // What `prepare` relies on: a second solver on the first one's
    // structure, handed its pressure operator, repeats a fresh solver's
    // bits without assembling anything of its own.
    #[test]
    fn a_solver_on_shared_structure_and_operator_repeats_a_fresh_one() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let pool = ThreadPool::new(1);
        for layout in [LayoutPlan::default(), LayoutPlan::optimized()] {
            let mut first = solver_with_layout(&am.mesh, AssemblyStrategy::Multidep, layout);
            let want = step_twice(&mut first, &pool);
            let op = first.pressure_operator().expect("built by the first step");
            let mut second = FluidSolver::on(
                &am.mesh,
                Arc::clone(&first.s),
                FluidProps::default(),
                1e-3,
                Vec3::new(0.0, 0.0, -1.0),
                1e-8,
                2000,
                Some(Arc::clone(op)),
            );
            let got = step_twice(&mut second, &pool);
            assert_state_bits_equal(&got, &want, layout.label());
            assert!(Arc::ptr_eq(second.pressure_operator().unwrap(), op), "loaded, not rebuilt");
        }
    }

    /// Five steps on `ranks` ranks (rank `r` assembles every element
    /// `e ≡ r (mod ranks)` and sums through an allreduce, like a sync
    /// run); every rank's velocity, pressure and SGS bits and the
    /// iteration counts and residual bits of its momentum solves after
    /// every step. The `oracle` is what every step did before: it
    /// forgets the pressure operator before each step (`Reassemble`),
    /// solves the three velocity components with the scalar BiCGSTAB
    /// (`ScalarSolver1`), sweeps the SGS element by element under the
    /// plan's strategy (`ScalarSgs`), or assembles element by element in
    /// list order (`ScalarAssembly`, on `Multidep` subdomains as a run
    /// has them: what the reference layout did before the batch engine).
    fn stepped_states(
        ranks: usize,
        strategy: AssemblyStrategy,
        layout: LayoutPlan,
        oracle: Option<Oracle>,
    ) -> Vec<Vec<Vec<u64>>> {
        use cfpd_simmpi::{ReduceOp, Universe};
        Universe::run(ranks, move |comm| {
            let am = generate_airway(&AirwaySpec::small()).unwrap();
            let elems = (0..am.mesh.num_elements() as u32)
                .filter(|e| *e as usize % ranks == comm.rank())
                .collect();
            let mut fs = FluidSolver::new_with_layout(
                &am.mesh,
                elems,
                strategy,
                8,
                FluidProps::default(),
                1e-3,
                Vec3::new(0.0, 0.0, -1.0),
                1e-8,
                2000,
                layout,
            );
            fs.scalar_solver1 = oracle == Some(Oracle::ScalarSolver1);
            fs.scalar_sgs = oracle == Some(Oracle::ScalarSgs);
            fs.scalar_assembly = oracle == Some(Oracle::ScalarAssembly);
            let pool = ThreadPool::new(1);
            (0..5)
                .map(|_| {
                    if oracle == Some(Oracle::Reassemble) {
                        fs.forget_pressure_operator();
                    }
                    let report = fs.step_reduced(&pool, &mut |buf: &mut [f64]| {
                        comm.allreduce_slice_f64(buf, ReduceOp::Sum)
                    });
                    assert!(report.solver2.unwrap().converged);
                    let solves = report.solver1.unwrap();
                    assert!(solves.iter().all(|s| s.converged));
                    let vectors = fs.velocity.iter().chain(&fs.sgs.values);
                    vectors
                        .flat_map(|v| [v.x, v.y, v.z])
                        .chain(fs.pressure.iter().copied())
                        .map(f64::to_bits)
                        .chain(solves.iter().flat_map(|s| [s.iterations as u64, s.residual.to_bits()]))
                        .collect()
                })
                .collect()
        })
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Oracle {
        Reassemble,
        ScalarSolver1,
        ScalarSgs,
        ScalarAssembly,
    }

    /// `stepped_states` with and without `oracle`, on one rank and
    /// through the cross-rank reduction, on both layouts (the list-order
    /// assembly oracle: on the layout that sums in list order): every
    /// rank must carry the oracle's bits after every step.
    fn assert_steps_match(oracle: Oracle, what: &str) {
        let both = [LayoutPlan::disabled(), LayoutPlan::optimized()];
        let (strategy, layouts) = match oracle {
            Oracle::ScalarAssembly => (AssemblyStrategy::Multidep, &both[..1]),
            _ => (AssemblyStrategy::Serial, &both[..]),
        };
        for ranks in [1, 2] {
            for &layout in layouts {
                let got = stepped_states(ranks, strategy, layout, None);
                let want = stepped_states(ranks, strategy, layout, Some(oracle));
                for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
                    for (step, (gs, ws)) in g.iter().zip(w).enumerate() {
                        assert!(
                            gs == ws,
                            "{ranks} ranks, layout {}: rank {rank} differs from {what} after \
                             step {step}",
                            layout.label()
                        );
                    }
                    assert_ne!(g[0], g[4], "the flow must move between steps");
                    // By the last step the flow has developed: the three
                    // components no longer need the same iteration count.
                    let iterations = |c: usize| g[4][g[4].len() - 6 + 2 * c];
                    assert!(iterations(0) != iterations(2) || iterations(1) != iterations(2));
                }
            }
        }
    }

    // The pressure operator is assembled by the first step and kept.
    // Steps 2…N must carry the bits of a solver that assembles it before
    // every step.
    #[test]
    fn kept_pressure_operator_matches_reassembling_every_step() {
        assert_steps_match(Oracle::Reassemble, "reassembling the pressure operator");
    }

    // The momentum system is one block solve. Every step must carry the
    // bits — fields, iteration counts, residuals — of a solver that
    // still runs three scalar solves on the CSR matrix.
    #[test]
    fn block_solver1_matches_three_scalar_solves() {
        assert_steps_match(Oracle::ScalarSolver1, "three scalar momentum solves");
    }

    // The SGS phase is the kind-batched lane sweep on both layouts. Every
    // step must carry the SGS bits of a solver that sweeps element by
    // element with the scalar kernel.
    #[test]
    fn lane_sgs_matches_the_scalar_element_sweep() {
        assert_steps_match(Oracle::ScalarSgs, "the scalar SGS sweep");
    }

    // The reference layout assembles through the batch engine with its
    // batches cut in list order. Every step must carry the bits of a
    // solver that still walks its subdomains one element at a time and
    // its two right-hand-side loops serially.
    #[test]
    fn list_order_batches_match_the_element_at_a_time_assembly() {
        assert_steps_match(Oracle::ScalarAssembly, "element-at-a-time assembly");
    }

    #[test]
    fn sgs_computed_each_step() {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mut fs = solver_on(&am.mesh, AssemblyStrategy::Atomics);
        let pool = ThreadPool::new(2);
        let r = fs.step(&pool);
        let sgs = r.sgs.unwrap();
        assert_eq!(sgs.elements, am.mesh.num_elements());
    }
}
