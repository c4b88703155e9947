//! Matrix-free momentum operator: assemble-lite + 0-ULP row-wise apply.
//!
//! The momentum system is rebuilt every time step, so the classical
//! pipeline pays for the full CSR scatter (an `entry_index` search per
//! local-matrix entry) only to read the values back a few hundred times
//! in BiCGSTAB. This module keeps the element integrals in a flat
//! per-element store instead ("assembly-lite": kernels + RHS scatter,
//! no matrix scatter) and applies the operator row by row.
//!
//! **Bit-exactness contract.** `MatFreeMomentum::apply` reproduces the
//! assembled `CsrMatrix::spmv` *to the bit*, provided the reference
//! matrix was assembled serially over the same element list:
//!
//! * per row, incident-element contributions are accumulated into a
//!   per-slot scratch in element-list order — exactly the order the
//!   serial scatter adds them into `values[idx]`;
//! * the row dot then walks the slots in CSR column order, matching the
//!   `acc += values[k] * x[col_idx[k]]` sequence of `spmv`;
//! * Dirichlet rows replay the post-`set_dirichlet_row` 0/1 pattern
//!   (including the `0.0 * x[col]` products, which matter for signed
//!   zeros) rather than short-circuiting to `x[row]`.
//!
//! The operator covers only the elements it was built with, so the
//! matrix-free path is a single-address-space optimization; distributed
//! (replicated-solve) runs keep the assembled momentum matrix.

use cfpd_mesh::{Mesh, Vec3};

use crate::csr::CsrMatrix;
use crate::kernels::{momentum_kernel, ElementScratch, FluidProps};
use crate::krylov::LinearOperator;
use crate::shape::RefElement;

/// Matrix-free momentum operator over a fixed mesh + element list.
///
/// Structure (apply lists, CSR pattern mirror) is built once; values
/// (`local`, the flat per-element matrices) are refilled by
/// [`MatFreeMomentum::assemble`] every time step.
#[derive(Debug)]
pub struct MatFreeMomentum {
    /// Number of rows/columns (mesh nodes).
    pub n: usize,
    /// Element ids in assembly order (the plan's element list).
    elems: Vec<u32>,
    /// Per-element offset into `local` (`nn*nn` entries each).
    elem_off: Vec<u32>,
    /// Flat local matrices, refilled by `assemble`.
    local: Vec<f64>,
    /// CSR pattern mirror: the row dot walks columns in this order.
    row_ptr: std::sync::Arc<[u32]>,
    col_idx: std::sync::Arc<[u32]>,
    /// Per-row contribution lists, ordered by element position (= serial
    /// assembly order): flat index into `local` and slot within the row.
    apply_ptr: Vec<u32>,
    apply_src: Vec<u32>,
    apply_slot: Vec<u32>,
    /// Slot of the diagonal entry within each row.
    diag_slot: Vec<u32>,
    /// Rows replaced by the identity (boundary conditions).
    dirichlet: Vec<bool>,
    /// Longest row (scratch size for the per-row slot accumulator).
    max_row: usize,
}

impl MatFreeMomentum {
    /// Build the apply structure for `elems` against the sparsity
    /// `pattern` (the momentum matrix the element list would assemble
    /// into). Values are all zero until [`MatFreeMomentum::assemble`].
    pub fn new(mesh: &Mesh, pattern: &CsrMatrix, elems: &[u32]) -> MatFreeMomentum {
        let n = pattern.n;
        // Per-node incidence as positions into `elems`, ordered by
        // position — the serial assembly order seen by each row.
        let mut inc_cnt = vec![0u32; n];
        for &e in elems {
            for &v in mesh.elem_nodes(e as usize) {
                inc_cnt[v as usize] += 1;
            }
        }
        let mut inc_ptr = vec![0u32; n + 1];
        for i in 0..n {
            inc_ptr[i + 1] = inc_ptr[i] + inc_cnt[i];
        }
        let mut inc_pos = vec![0u32; inc_ptr[n] as usize];
        let mut inc_ki = vec![0u8; inc_ptr[n] as usize];
        let mut cursor: Vec<u32> = inc_ptr[..n].to_vec();
        let mut elem_off = Vec::with_capacity(elems.len());
        let mut local_len = 0u32;
        for (pe, &e) in elems.iter().enumerate() {
            elem_off.push(local_len);
            let nodes = mesh.elem_nodes(e as usize);
            local_len += (nodes.len() * nodes.len()) as u32;
            for (ki, &v) in nodes.iter().enumerate() {
                let c = cursor[v as usize];
                inc_pos[c as usize] = pe as u32;
                inc_ki[c as usize] = ki as u8;
                cursor[v as usize] = c + 1;
            }
        }

        let mut apply_ptr = Vec::with_capacity(n + 1);
        let mut apply_src = Vec::new();
        let mut apply_slot = Vec::new();
        let mut diag_slot = vec![0u32; n];
        let mut max_row = 0usize;
        apply_ptr.push(0u32);
        for row in 0..n {
            let lo = pattern.row_ptr[row] as usize;
            let hi = pattern.row_ptr[row + 1] as usize;
            let cols = &pattern.col_idx[lo..hi];
            max_row = max_row.max(cols.len());
            if let Some(s) = cols.iter().position(|&c| c as usize == row) {
                diag_slot[row] = s as u32;
            }
            for k in inc_ptr[row]..inc_ptr[row + 1] {
                let pe = inc_pos[k as usize] as usize;
                let ki = inc_ki[k as usize] as usize;
                let nodes = mesh.elem_nodes(elems[pe] as usize);
                let nn = nodes.len();
                for (kj, &cj) in nodes.iter().enumerate() {
                    let slot = cols
                        .iter()
                        .position(|&c| c == cj)
                        .expect("element column missing from pattern");
                    apply_src.push(elem_off[pe] + (ki * nn + kj) as u32);
                    apply_slot.push(slot as u32);
                }
            }
            apply_ptr.push(apply_src.len() as u32);
        }

        MatFreeMomentum {
            n,
            elems: elems.to_vec(),
            elem_off,
            local: vec![0.0; local_len as usize],
            row_ptr: pattern.row_ptr.clone(),
            col_idx: pattern.col_idx.clone(),
            apply_ptr,
            apply_src,
            apply_slot,
            diag_slot,
            dirichlet: vec![false; n],
            max_row,
        }
    }

    /// Assemble-lite: run the momentum kernels over the element list in
    /// order, storing each local matrix flat (no CSR scatter) and
    /// accumulating the RHS exactly like the serial assembly. Clears
    /// previous Dirichlet markings, mirroring a matrix re-assembly.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        &mut self,
        refs: &[RefElement; 3],
        mesh: &Mesh,
        velocity: &[Vec3],
        pressure: &[f64],
        props: FluidProps,
        dt: f64,
        body_force: Vec3,
        rhs: &mut [Vec<f64>],
    ) {
        self.dirichlet.iter_mut().for_each(|d| *d = false);
        let mut scratch = ElementScratch::default();
        for (pe, &e) in self.elems.iter().enumerate() {
            let e = e as usize;
            let (kind, nn) = scratch.load_with_pressure(mesh, velocity, pressure, e);
            let h = mesh.volume(e).abs().cbrt();
            let lm = momentum_kernel(refs, &scratch, kind, nn, props, dt, h, body_force)
                .expect("degenerate element");
            let base = self.elem_off[pe] as usize;
            for i in 0..nn {
                for j in 0..nn {
                    self.local[base + i * nn + j] = lm.a[i][j];
                }
            }
            let nodes = mesh.elem_nodes(e);
            for i in 0..nn {
                let gi = nodes[i] as usize;
                for (c, r) in rhs.iter_mut().enumerate() {
                    r[gi] += lm.b[i][c];
                }
            }
        }
    }

    /// Replace `row` by the identity row, like
    /// [`CsrMatrix::set_dirichlet_row`].
    pub fn set_dirichlet_row(&mut self, row: usize) {
        self.dirichlet[row] = true;
    }

    /// y = A x, bit-identical to the serially-assembled CSR `spmv`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        cfpd_telemetry::count!("solver.matfree_apply_calls");
        let mut scratch = vec![0.0f64; self.max_row];
        for row in 0..self.n {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let cols = &self.col_idx[lo..hi];
            if self.dirichlet[row] {
                // Replay the 0/1 pattern the assembled path dots with.
                let mut acc = 0.0;
                for &c in cols {
                    let v = if c as usize == row { 1.0 } else { 0.0 };
                    acc += v * x[c as usize];
                }
                y[row] = acc;
                continue;
            }
            let s = &mut scratch[..cols.len()];
            s.iter_mut().for_each(|v| *v = 0.0);
            for a in self.apply_ptr[row]..self.apply_ptr[row + 1] {
                s[self.apply_slot[a as usize] as usize] += self.local[self.apply_src[a as usize] as usize];
            }
            let mut acc = 0.0;
            for (k, &c) in cols.iter().enumerate() {
                acc += s[k] * x[c as usize];
            }
            y[row] = acc;
        }
    }

    /// Diagonal entries, bit-identical to the assembled matrix's
    /// `diagonal()` (Dirichlet rows give 1.0).
    pub fn diag(&self) -> Vec<f64> {
        let mut scratch = vec![0.0f64; self.max_row];
        let mut d = vec![0.0; self.n];
        for row in 0..self.n {
            if self.dirichlet[row] {
                d[row] = 1.0;
                continue;
            }
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let s = &mut scratch[..hi - lo];
            s.iter_mut().for_each(|v| *v = 0.0);
            for a in self.apply_ptr[row]..self.apply_ptr[row + 1] {
                s[self.apply_slot[a as usize] as usize] += self.local[self.apply_src[a as usize] as usize];
            }
            d[row] = s[self.diag_slot[row] as usize];
        }
        d
    }

    /// Total stored local-matrix entries (vs `nnz` of the assembled
    /// matrix — the redundancy factor of the element store).
    pub fn local_len(&self) -> usize {
        self.local.len()
    }
}

impl LinearOperator for MatFreeMomentum {
    fn size(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        MatFreeMomentum::apply(self, x, y)
    }
    fn diagonal(&self) -> Vec<f64> {
        self.diag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble_momentum, AssemblyPlan, AssemblyStrategy};
    use crate::krylov::bicgstab;
    use cfpd_mesh::{generate_airway, AirwaySpec};
    use cfpd_runtime::ThreadPool;
    use cfpd_testkit::prop::{self, PropConfig};
    use cfpd_testkit::Rng;

    struct Fixture {
        mesh: cfpd_mesh::Mesh,
        refs: [RefElement; 3],
        velocity: Vec<Vec3>,
        assembled: CsrMatrix,
        rhs_csr: Vec<Vec<f64>>,
        mf: MatFreeMomentum,
        rhs_mf: Vec<Vec<f64>>,
    }

    fn fixture() -> Fixture {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let mesh = am.mesh;
        let refs = RefElement::all();
        let n = mesh.num_nodes();
        let velocity: Vec<Vec3> =
            mesh.coords.iter().map(|p| Vec3::new(p.z * 2.0, p.x, -p.y * 0.5)).collect();
        let pressure = vec![0.0; n];
        let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let n2e = mesh.node_to_elements();
        let mut assembled = CsrMatrix::from_mesh(&mesh, &n2e);
        let plan = AssemblyPlan::new(&mesh, elems.clone(), AssemblyStrategy::Serial, 4);
        let pool = ThreadPool::new(1);
        let props = FluidProps::default();
        let dt = 1e-3;
        let gravity = Vec3::new(0.0, 0.0, -9.81);
        let mut rhs_csr = vec![vec![0.0; n]; 3];
        assemble_momentum(
            &pool, &refs, &mesh, &plan, &velocity, &pressure, props, dt, gravity, &mut assembled,
            &mut rhs_csr,
        );
        let mut mf = MatFreeMomentum::new(&mesh, &assembled, &elems);
        let mut rhs_mf = vec![vec![0.0; n]; 3];
        mf.assemble(&refs, &mesh, &velocity, &pressure, props, dt, gravity, &mut rhs_mf);
        Fixture { mesh, refs, velocity, assembled, rhs_csr, mf, rhs_mf }
    }

    fn probe(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let v = rng.range_f64(-3.0, 3.0);
                // Sprinkle signed zeros to exercise the 0.0-product paths.
                if rng.range_usize(0, 16) == 0 {
                    if v < 0.0 {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn matfree_matches_assembled_rhs_and_diagonal() {
        let f = fixture();
        for c in 0..3 {
            for i in 0..f.mesh.num_nodes() {
                assert_eq!(
                    f.rhs_csr[c][i].to_bits(),
                    f.rhs_mf[c][i].to_bits(),
                    "rhs[{c}][{i}]"
                );
            }
        }
        let da = f.assembled.diagonal();
        let dm = f.mf.diag();
        for i in 0..f.mesh.num_nodes() {
            assert_eq!(da[i].to_bits(), dm[i].to_bits(), "diag[{i}]");
        }
    }

    #[test]
    fn prop_matfree_apply_bit_identical_to_assembled_spmv() {
        let mut f = fixture();
        let n = f.mesh.num_nodes();
        // Random Dirichlet rows, applied to both sides identically.
        let mut rng = Rng::new(0x5eed);
        for _ in 0..32 {
            let row = rng.range_usize(0, n);
            f.assembled.set_dirichlet_row(row);
            f.mf.set_dirichlet_row(row);
        }
        let assembled = &f.assembled;
        let mf = &f.mf;
        prop::check(
            "matfree apply bit-identical to assembled spmv",
            PropConfig::cases(25),
            &prop::usize_range(0, 1 << 30),
            |&seed| {
                let x = probe(n, seed as u64);
                let mut ya = vec![0.0; n];
                let mut ym = vec![0.0; n];
                assembled.spmv(&x, &mut ya);
                mf.apply(&x, &mut ym);
                for i in 0..n {
                    assert_eq!(ya[i].to_bits(), ym[i].to_bits(), "row {i} (seed {seed})");
                }
            },
        );
    }

    #[test]
    fn matfree_bicgstab_bit_identical_to_assembled() {
        let mut f = fixture();
        let n = f.mesh.num_nodes();
        // Dirichlet-close the system like the fluid stepper does.
        for row in (0..n).step_by(7) {
            f.assembled.set_dirichlet_row(row);
            f.mf.set_dirichlet_row(row);
            for c in 0..3 {
                f.rhs_csr[c][row] = 0.0;
            }
        }
        for c in 0..3 {
            let x0: Vec<f64> =
                f.velocity.iter().map(|v| [v.x, v.y, v.z][c]).collect();
            let mut xa = x0.clone();
            let mut xm = x0;
            let sa = bicgstab(&f.assembled, &f.rhs_csr[c], &mut xa, 1e-10, 200);
            let sm = bicgstab(&f.mf, &f.rhs_csr[c], &mut xm, 1e-10, 200);
            assert_eq!(sa.iterations, sm.iterations, "component {c}");
            assert_eq!(sa.residual.to_bits(), sm.residual.to_bits(), "component {c}");
            assert!(sa.converged, "component {c}: {sa:?}");
            for i in 0..n {
                assert_eq!(xa[i].to_bits(), xm[i].to_bits(), "x[{i}] component {c}");
            }
        }
    }

    #[test]
    fn reassembly_refreshes_values_and_clears_dirichlet() {
        let mut f = fixture();
        let n = f.mesh.num_nodes();
        f.mf.set_dirichlet_row(3);
        // New velocity field → new operator; re-assemble both sides.
        let velocity: Vec<Vec3> =
            f.mesh.coords.iter().map(|p| Vec3::new(-p.y, p.z, p.x * 0.25)).collect();
        let pressure = vec![0.0; n];
        let elems: Vec<u32> = (0..f.mesh.num_elements() as u32).collect();
        let plan = AssemblyPlan::new(&f.mesh, elems, AssemblyStrategy::Serial, 4);
        let pool = ThreadPool::new(1);
        f.assembled.clear();
        let mut rhs = vec![vec![0.0; n]; 3];
        assemble_momentum(
            &pool,
            &f.refs,
            &f.mesh,
            &plan,
            &velocity,
            &pressure,
            FluidProps::default(),
            1e-3,
            Vec3::new(0.0, 0.0, -9.81),
            &mut f.assembled,
            &mut rhs,
        );
        let mut rhs_mf = vec![vec![0.0; n]; 3];
        f.mf.assemble(
            &f.refs,
            &f.mesh,
            &velocity,
            &pressure,
            FluidProps::default(),
            1e-3,
            Vec3::new(0.0, 0.0, -9.81),
            &mut rhs_mf,
        );
        let x = probe(n, 42);
        let mut ya = vec![0.0; n];
        let mut ym = vec![0.0; n];
        f.assembled.spmv(&x, &mut ya);
        f.mf.apply(&x, &mut ym);
        for i in 0..n {
            assert_eq!(ya[i].to_bits(), ym[i].to_bits(), "row {i} after reassembly");
        }
    }
}
