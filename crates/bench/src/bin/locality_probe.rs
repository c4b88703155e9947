//! Gather-locality probe for the pressure-system SpMV: why serial CSR
//! prefers the native node order while SELL prefers RCM.
//!
//! The matrix and solution vector are LLC-resident on the bench host,
//! so SpMV cost is governed by x-gather *cache-line* behaviour, not
//! DRAM bandwidth. For the native and RCM orderings this prints:
//!
//! * `distinct-x-lines/row` — Σ over rows of distinct 64-byte x lines
//!   the row's gather touches (spatial footprint: smaller = the
//!   bandwidth reduction RCM is built for);
//! * `line-breaks-in-row` — column steps that cross a line boundary
//!   within a row;
//! * `lines-shared-with-prev-row` — lines also touched by the previous
//!   row (temporal reuse: the row-serial CSR loop finds these L1-hot).
//!
//! See EXPERIMENTS.md "Why serial CG preferred the native order": the
//! native ring-by-ring generation order wins the temporal metric, RCM
//! wins the spatial one, and CSR-row-serial vs SELL-chunk traversal
//! pick opposite winners.

#![forbid(unsafe_code)]

use cfpd_mesh::{generate_airway, AirwaySpec};
use cfpd_partition::rcm_perm;
use cfpd_solver::CsrMatrix;

fn stats(m: &CsrMatrix) {
    let mut lines_per_row = 0usize;
    let mut line_breaks = 0usize;
    let mut shared_with_prev = 0usize;
    let mut prev: Vec<u32> = Vec::new();
    let mut nnz = 0usize;
    for r in 0..m.n {
        let cols = &m.col_idx[m.row_ptr[r] as usize..m.row_ptr[r + 1] as usize];
        nnz += cols.len();
        for w in cols.windows(2) {
            if w[1] / 8 != w[0] / 8 {
                line_breaks += 1;
            }
        }
        let mut lines: Vec<u32> = cols.iter().map(|&c| c / 8).collect();
        lines.sort_unstable();
        lines.dedup();
        lines_per_row += lines.len();
        shared_with_prev += lines.iter().filter(|l| prev.binary_search(l).is_ok()).count();
        prev = lines;
    }
    println!(
        "  nnz={nnz} distinct-x-lines/row(sum)={lines_per_row} \
         line-breaks-in-row={line_breaks} lines-shared-with-prev-row={shared_with_prev}"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick { AirwaySpec::small() } else { AirwaySpec::default() };
    let airway = generate_airway(&spec).expect("airway mesh");
    let mesh = airway.mesh;
    let n2e = mesh.node_to_elements();
    let m = CsrMatrix::from_mesh(&mesh, &n2e);
    println!("native order (n={}):", m.n);
    stats(&m);

    let adj = mesh.node_adjacency();
    let perm = rcm_perm(&adj);
    let mut mesh_rcm = mesh;
    mesh_rcm.renumber_nodes(&perm);
    let n2e = mesh_rcm.node_to_elements();
    let m = CsrMatrix::from_mesh(&mesh_rcm, &n2e);
    println!("rcm order:");
    stats(&m);
}
