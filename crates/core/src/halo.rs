//! True distributed-memory linear algebra: node ownership, halo
//! exchange and a distributed CG — the production-style alternative to
//! the replicated solve used by [`crate::fluid`] (DESIGN.md §7 lists
//! the replicated solve as a miniaturization; this module removes it
//! for the solver phase and is validated against the serial solution).
//!
//! Decomposition follows standard FEM practice:
//! * each element belongs to one rank (the mesh partition);
//! * each *node* is owned by the lowest rank whose elements touch it;
//! * a rank's matrix rows are its owned nodes; assembling its elements
//!   also produces contributions to rows owned by neighbors, which are
//!   shipped to the owners once per assembly (the "assembly exchange");
//! * SpMV needs the x-values of *ghost* nodes (referenced, not owned),
//!   refreshed by a neighbor halo exchange each iteration;
//! * dot products reduce owned entries with an allreduce.

use cfpd_mesh::Mesh;
use cfpd_simmpi::{Comm, ReduceOp};
use std::collections::HashMap;

/// Distributed decomposition of the node space for one rank.
#[derive(Debug)]
pub struct HaloMap {
    /// My rank in the solver communicator.
    pub rank: usize,
    /// Global ids of the nodes I own (sorted).
    pub owned: Vec<u32>,
    /// Global ids of ghost nodes (referenced by my elements, owned
    /// elsewhere; sorted).
    pub ghosts: Vec<u32>,
    /// global node id -> local index (owned first, then ghosts).
    local_of: HashMap<u32, u32>,
    /// Owner rank of each of my ghosts (aligned with `ghosts`).
    ghost_owner: Vec<u32>,
    /// For each neighbor rank: the list of *my owned* nodes (local
    /// indices) whose values I must send them each halo exchange.
    send_lists: Vec<(usize, Vec<u32>)>,
    /// For each neighbor rank: how many ghost values I receive and the
    /// local ghost indices they land in (in their sorted order).
    recv_lists: Vec<(usize, Vec<u32>)>,
}

const TAG_HALO: u64 = 40;
const TAG_ROWS: u64 = 41;

impl HaloMap {
    /// Number of local nodes (owned + ghosts).
    pub fn num_local(&self) -> usize {
        self.owned.len() + self.ghosts.len()
    }

    /// Local index of a global node id (panics if not local).
    pub fn local(&self, global: u32) -> usize {
        self.local_of[&global] as usize
    }

    /// Global id of a local index (owned first, then ghosts).
    pub fn global(&self, local: usize) -> u32 {
        if local < self.owned.len() {
            self.owned[local]
        } else {
            self.ghosts[local - self.owned.len()]
        }
    }

    /// Per-neighbor send lists as *global* node ids, in send order:
    /// the owned nodes whose values this rank ships to each neighbor on
    /// every halo exchange.
    pub fn send_globals(&self) -> Vec<(usize, Vec<u32>)> {
        self.send_lists
            .iter()
            .map(|(r, locals)| (*r, locals.iter().map(|&l| self.global(l as usize)).collect()))
            .collect()
    }

    /// Per-neighbor receive lists as *global* node ids, in receive
    /// order: the ghost nodes this rank refreshes from each neighbor.
    pub fn recv_globals(&self) -> Vec<(usize, Vec<u32>)> {
        self.recv_lists
            .iter()
            .map(|(r, locals)| (*r, locals.iter().map(|&l| self.global(l as usize)).collect()))
            .collect()
    }

    /// Build the halo map. `elem_owner[e]` assigns each element to a
    /// rank; every rank calls this collectively with the same input
    /// (the mesh is globally replicated in this virtual cluster, but
    /// only *ownership metadata* is derived globally — values flow
    /// strictly through the exchanges).
    pub fn build(mesh: &Mesh, elem_owner: &[u32], comm: &Comm) -> HaloMap {
        let me = comm.rank() as u32;
        // Node owner = min rank of touching elements (locally computable
        // and globally consistent).
        let mut node_owner = vec![u32::MAX; mesh.num_nodes()];
        for e in 0..mesh.num_elements() {
            let o = elem_owner[e];
            for &v in mesh.elem_nodes(e) {
                node_owner[v as usize] = node_owner[v as usize].min(o);
            }
        }
        // My local node space must cover (a) every node of my own
        // elements (I assemble contributions into those rows/columns)
        // and (b) every node of any element touching one of my owned
        // nodes — neighbors assembling such elements ship me row
        // contributions whose *columns* are those second-ring nodes.
        let n2e = mesh.node_to_elements();
        let mut referenced: Vec<u32> = (0..mesh.num_elements())
            .filter(|&e| elem_owner[e] == me)
            .flat_map(|e| mesh.elem_nodes(e).iter().copied())
            .collect();
        referenced.sort_unstable();
        referenced.dedup();
        let mut local_set: std::collections::BTreeSet<u32> = referenced.iter().copied().collect();
        for &v in &referenced {
            if node_owner[v as usize] == me {
                for &e in n2e.row(v as usize) {
                    local_set.extend(mesh.elem_nodes(e as usize).iter().copied());
                }
            }
        }
        let mut owned = Vec::new();
        let mut ghosts = Vec::new();
        for v in local_set {
            if node_owner[v as usize] == me {
                owned.push(v);
            } else {
                ghosts.push(v);
            }
        }
        let mut local_of = HashMap::with_capacity(owned.len() + ghosts.len());
        for (i, &v) in owned.iter().chain(ghosts.iter()).enumerate() {
            local_of.insert(v, i as u32);
        }
        let ghost_owner: Vec<u32> = ghosts.iter().map(|&v| node_owner[v as usize]).collect();

        // Tell each owner which of their nodes I need (alltoall).
        let n = comm.size();
        let mut needs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (g, &o) in ghosts.iter().zip(&ghost_owner) {
            needs[o as usize].push(*g);
        }
        let requested = comm.alltoall(needs.clone());
        // Build send lists (owned local indices, in the requester's
        // sorted global order) and recv lists (ghost local indices).
        let mut send_lists = Vec::new();
        for (rank, req) in requested.into_iter().enumerate() {
            if rank != me as usize && !req.is_empty() {
                let locals = req.iter().map(|&g| local_of[&g]).collect();
                send_lists.push((rank, locals));
            }
        }
        let mut recv_lists = Vec::new();
        for (rank, need) in needs.into_iter().enumerate() {
            if rank != me as usize && !need.is_empty() {
                let locals = need.iter().map(|&g| local_of[&g]).collect();
                recv_lists.push((rank, locals));
            }
        }

        HaloMap { rank: me as usize, owned, ghosts, local_of, ghost_owner, send_lists, recv_lists }
    }

    /// Refresh the ghost entries of a local vector from their owners.
    pub fn exchange(&self, comm: &Comm, x: &mut [f64]) {
        assert_eq!(x.len(), self.num_local());
        for (rank, locals) in &self.send_lists {
            let payload: Vec<f64> = locals.iter().map(|&l| x[l as usize]).collect();
            comm.send(*rank, TAG_HALO, payload);
        }
        for (rank, locals) in &self.recv_lists {
            let payload: Vec<f64> = comm.recv(*rank, TAG_HALO);
            assert_eq!(payload.len(), locals.len());
            for (&l, v) in locals.iter().zip(payload) {
                x[l as usize] = v;
            }
        }
    }

    /// Sum contributions assembled into *ghost rows* back onto their
    /// owners, then zero the ghost rows locally (assembly exchange).
    /// `rows[l]` holds (global_col, value) pairs for local row `l`;
    /// `rhs` is the matching local right-hand side.
    pub fn accumulate_rows(
        &self,
        comm: &Comm,
        rows: &mut [Vec<(u32, f64)>],
        rhs: &mut [f64],
    ) {
        let n_owned = self.owned.len();
        // Bucket ghost-row contributions by owner.
        let mut outgoing: HashMap<usize, Vec<(u32, Vec<(u32, f64)>, f64)>> = HashMap::new();
        for (gi, (&gnode, &gowner)) in self.ghosts.iter().zip(&self.ghost_owner).enumerate() {
            let l = n_owned + gi;
            if rows[l].is_empty() && rhs[l] == 0.0 {
                continue;
            }
            outgoing
                .entry(gowner as usize)
                .or_default()
                .push((gnode, std::mem::take(&mut rows[l]), rhs[l]));
            rhs[l] = 0.0;
        }
        // Every neighbor pair exchanges (possibly empty) batches; the
        // neighbor sets of the halo are symmetric by construction.
        let mut neighbors: Vec<usize> = self
            .send_lists
            .iter()
            .map(|(r, _)| *r)
            .chain(self.recv_lists.iter().map(|(r, _)| *r))
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        for &r in &neighbors {
            let batch = outgoing.remove(&r).unwrap_or_default();
            comm.send(r, TAG_ROWS, batch);
        }
        for &r in &neighbors {
            let batch: Vec<(u32, Vec<(u32, f64)>, f64)> = comm.recv(r, TAG_ROWS);
            for (gnode, cols, b) in batch {
                let l = self.local(gnode);
                debug_assert!(l < n_owned, "received row for a node we don't own");
                rows[l].extend(cols);
                rhs[l] += b;
            }
        }
    }
}

/// A distributed CSR matrix: rows = owned nodes (local order), columns
/// indexed by *local* ids (owned + ghosts).
#[derive(Debug)]
pub struct DistMatrix {
    pub row_ptr: Vec<u32>,
    pub col_idx: Vec<u32>,
    pub values: Vec<f64>,
    pub n_owned: usize,
    pub n_local: usize,
}

impl DistMatrix {
    /// Build from per-row (global_col, value) contribution lists
    /// (post-assembly-exchange), sorting and merging duplicate columns.
    pub fn from_rows(halo: &HaloMap, rows: &[Vec<(u32, f64)>]) -> DistMatrix {
        let n_owned = halo.owned.len();
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in rows.iter().take(n_owned) {
            let mut entries: Vec<(u32, f64)> = row
                .iter()
                .map(|&(gc, v)| (halo.local(gc) as u32, v))
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
            for (c, v) in entries {
                match merged.last_mut() {
                    Some((lc, lv)) if *lc == c => *lv += v,
                    _ => merged.push((c, v)),
                }
            }
            for (c, v) in merged {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        DistMatrix { row_ptr, col_idx, values, n_owned, n_local: halo.num_local() }
    }

    /// y(owned) = A x(local); ghosts of `x` must be current.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_local);
        for row in 0..self.n_owned {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[row] = acc;
        }
    }

    /// Replace an owned row with identity (Dirichlet).
    pub fn set_dirichlet_row(&mut self, row: usize) {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        for k in lo..hi {
            self.values[k] = if self.col_idx[k] as usize == row { 1.0 } else { 0.0 };
        }
    }

    /// Diagonal of the owned block.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n_owned)
            .map(|row| {
                let lo = self.row_ptr[row] as usize;
                let hi = self.row_ptr[row + 1] as usize;
                (lo..hi)
                    .find(|&k| self.col_idx[k] as usize == row)
                    .map_or(0.0, |k| self.values[k])
            })
            .collect()
    }
}

/// Distributed Jacobi-preconditioned CG. `x` is a local vector (owned +
/// ghosts) holding the initial guess; on return its owned part is the
/// solution (ghosts refreshed). `b` covers owned rows.
pub fn dist_cg(
    comm: &Comm,
    halo: &HaloMap,
    a: &DistMatrix,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iters: usize,
) -> crate::DistSolveStats {
    let n_owned = a.n_owned;
    let diag = a.diagonal();
    let dot = |u: &[f64], v: &[f64]| -> f64 {
        let local: f64 = u[..n_owned].iter().zip(&v[..n_owned]).map(|(a, b)| a * b).sum();
        comm.allreduce_f64(local, ReduceOp::Sum)
    };
    halo.exchange(comm, x);
    let mut r = vec![0.0; n_owned];
    a.spmv(x, &mut r);
    for i in 0..n_owned {
        r[i] = b[i] - r[i];
    }
    let b_norm = {
        let local: f64 = b.iter().map(|v| v * v).sum();
        comm.allreduce_f64(local, ReduceOp::Sum).sqrt().max(1e-300)
    };
    let jacobi = |r: &[f64], z: &mut [f64]| {
        for i in 0..n_owned {
            let d = diag[i];
            z[i] = if d.abs() > 1e-300 { r[i] / d } else { r[i] };
        }
    };
    let mut z = vec![0.0; n_owned];
    jacobi(&r, &mut z);
    // p is a *local* vector (needs ghosts for SpMV).
    let mut p = vec![0.0; halo.num_local()];
    p[..n_owned].copy_from_slice(&z);
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n_owned];
    for it in 0..max_iters {
        let res = {
            let local: f64 = r.iter().map(|v| v * v).sum();
            comm.allreduce_f64(local, ReduceOp::Sum).sqrt() / b_norm
        };
        if res < tol {
            halo.exchange(comm, x);
            return crate::DistSolveStats { iterations: it, residual: res, converged: true };
        }
        halo.exchange(comm, &mut p);
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            return crate::DistSolveStats { iterations: it, residual: res, converged: false };
        }
        let alpha = rz / pap;
        for i in 0..n_owned {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        jacobi(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n_owned {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = {
        let local: f64 = r.iter().map(|v| v * v).sum();
        comm.allreduce_f64(local, ReduceOp::Sum).sqrt() / b_norm
    };
    halo.exchange(comm, x);
    crate::DistSolveStats { iterations: max_iters, residual: res, converged: res < tol }
}

/// Assemble the pressure-Poisson system distributedly over `my` elements
/// and solve it with [`dist_cg`]; returns (owned globals, owned values).
/// Used by tests and by the distributed-solver demonstration path.
#[allow(clippy::too_many_arguments)]
pub fn assemble_and_solve_poisson(
    mesh: &Mesh,
    elem_owner: &[u32],
    comm: &Comm,
    velocity: &[cfpd_mesh::Vec3],
    props: cfpd_solver::FluidProps,
    dt: f64,
    dirichlet: &[u32],
    tol: f64,
    max_iters: usize,
) -> (Vec<u32>, Vec<f64>, crate::DistSolveStats) {
    use cfpd_solver::kernels::{divergence_kernel, poisson_kernel};
    use cfpd_solver::{ElementScratch, RefElement};

    let halo = HaloMap::build(mesh, elem_owner, comm);
    let me = comm.rank() as u32;
    let refs = RefElement::all();
    let mut scratch = ElementScratch::default();
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); halo.num_local()];
    let mut rhs = vec![0.0; halo.num_local()];
    for e in 0..mesh.num_elements() {
        if elem_owner[e] != me {
            continue;
        }
        let (kind, nn) = scratch.load(mesh, velocity, e);
        let lp = poisson_kernel(&refs, &scratch, kind, nn);
        let div = divergence_kernel(&refs, &scratch, kind, props, dt);
        if let (Some(lp), Some(div)) = (lp, div) {
            let nodes = mesh.elem_nodes(e);
            for i in 0..nn {
                let li = halo.local(nodes[i]);
                for j in 0..nn {
                    rows[li].push((nodes[j], lp.l[i][j]));
                }
                rhs[li] += div[i];
            }
        }
    }
    halo.accumulate_rows(comm, &mut rows, &mut rhs);
    let mut a = DistMatrix::from_rows(&halo, &rows);
    // Dirichlet rows on owned boundary nodes.
    let dirichlet_set: std::collections::HashSet<u32> = dirichlet.iter().copied().collect();
    for (l, &g) in halo.owned.iter().enumerate() {
        if dirichlet_set.contains(&g) {
            a.set_dirichlet_row(l);
            rhs[l] = 0.0;
        }
    }
    let mut x = vec![0.0; halo.num_local()];
    let stats = dist_cg(comm, &halo, &a, &rhs[..halo.owned.len()], &mut x, tol, max_iters);
    (halo.owned.clone(), x[..halo.owned.len()].to_vec(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec, BoundaryKind};
    use cfpd_partition::{partition_kway, Graph};
    use cfpd_simmpi::Universe;
    use std::sync::Arc;

    fn setup() -> (Arc<cfpd_mesh::AirwayMesh>, Arc<Vec<u32>>) {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let n2e = am.mesh.node_to_elements();
        let adj = am.mesh.element_adjacency(&n2e);
        let g = Graph::from_csr_unit(&adj);
        let part = partition_kway(&g, 3, 3);
        (Arc::new(am), Arc::new(part.parts))
    }

    #[test]
    fn ownership_partitions_the_node_space() {
        let (am, owner) = setup();
        let am2 = Arc::clone(&am);
        let ow2 = Arc::clone(&owner);
        let results = Universe::run(3, move |comm| {
            let halo = HaloMap::build(&am2.mesh, &ow2, &comm);
            (halo.owned.clone(), halo.ghosts.clone())
        });
        // Owned sets are disjoint and cover all nodes.
        let mut seen = vec![false; am.mesh.num_nodes()];
        for (owned, _) in &results {
            for &v in owned {
                assert!(!seen[v as usize], "node {v} owned twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node must be owned");
        // Ghosts are never owned by the same rank.
        for (owned, ghosts) in &results {
            let set: std::collections::HashSet<_> = owned.iter().collect();
            assert!(ghosts.iter().all(|g| !set.contains(g)));
        }
    }

    #[test]
    fn halo_exchange_delivers_owner_values() {
        let (am, owner) = setup();
        let am2 = Arc::clone(&am);
        let ow2 = Arc::clone(&owner);
        Universe::run(3, move |comm| {
            let halo = HaloMap::build(&am2.mesh, &ow2, &comm);
            // Every owner writes f(global id); ghosts start poisoned.
            let mut x = vec![f64::NAN; halo.num_local()];
            for (l, &g) in halo.owned.iter().enumerate() {
                x[l] = g as f64 * 0.5;
            }
            halo.exchange(&comm, &mut x);
            for (gi, &g) in halo.ghosts.iter().enumerate() {
                let v = x[halo.owned.len() + gi];
                assert_eq!(v, g as f64 * 0.5, "ghost {g} wrong");
            }
        });
    }

    /// The headline validation: the distributed Poisson solve equals the
    /// serial one on every owned node.
    #[test]
    fn distributed_poisson_matches_serial() {
        let (am, owner) = setup();
        // Serial reference.
        let mesh = &am.mesh;
        let n2e = mesh.node_to_elements();
        let mut a_ser = cfpd_solver::CsrMatrix::from_mesh(mesh, &n2e);
        let n = mesh.num_nodes();
        let mut rhs_ser = vec![0.0; n];
        let velocity: Vec<cfpd_mesh::Vec3> = mesh
            .coords
            .iter()
            .map(|p| cfpd_mesh::Vec3::new(p.z, -p.x, p.y))
            .collect();
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let plan = cfpd_solver::AssemblyPlan::new(
            mesh,
            elems,
            cfpd_solver::AssemblyStrategy::Serial,
            1,
        );
        let pool = cfpd_runtime::ThreadPool::new(1);
        let refs = cfpd_solver::RefElement::all();
        cfpd_solver::assemble_poisson(&pool, &refs, mesh, &plan, &mut a_ser);
        cfpd_solver::assemble_divergence(
            &pool,
            &refs,
            mesh,
            &plan,
            &velocity,
            cfpd_solver::FluidProps::default(),
            1e-3,
            &mut rhs_ser,
        );
        // Dirichlet on outlet nodes.
        let outlet: Vec<u32> = {
            use std::collections::BTreeSet;
            let mut s = BTreeSet::new();
            for &(e, f, kind) in &mesh.boundary {
                if kind == BoundaryKind::Outlet {
                    let nodes = mesh.elem_nodes(e as usize);
                    for &li in mesh.kinds[e as usize].faces()[f as usize] {
                        s.insert(nodes[li]);
                    }
                }
            }
            s.into_iter().collect()
        };
        for &v in &outlet {
            a_ser.set_dirichlet_row(v as usize);
            rhs_ser[v as usize] = 0.0;
        }
        let mut x_ser = vec![0.0; n];
        let s = cfpd_solver::cg(&a_ser, &rhs_ser, &mut x_ser, 1e-10, 4000);
        assert!(s.converged, "serial reference did not converge: {s:?}");

        // Distributed solve on 3 ranks.
        let am2 = Arc::clone(&am);
        let ow2 = Arc::clone(&owner);
        let vel2 = Arc::new(velocity);
        let out2 = Arc::new(outlet);
        let results = Universe::run(3, move |comm| {
            assemble_and_solve_poisson(
                &am2.mesh,
                &ow2,
                &comm,
                &vel2,
                cfpd_solver::FluidProps::default(),
                1e-3,
                &out2,
                1e-10,
                4000,
            )
        });
        let scale = x_ser.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
        for (owned, values, stats) in results {
            assert!(stats.converged, "{stats:?}");
            for (&g, &v) in owned.iter().zip(&values) {
                let diff = (v - x_ser[g as usize]).abs();
                assert!(
                    diff < 1e-6 * scale,
                    "node {g}: dist {v} vs serial {}",
                    x_ser[g as usize]
                );
            }
        }
    }
}
