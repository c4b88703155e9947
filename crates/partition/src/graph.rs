//! Weighted undirected graphs in CSR form (the Metis input format).

use cfpd_mesh::Csr;

/// An undirected graph with vertex weights, stored CSR-style.
///
/// For mesh partitioning the vertices are elements and edges connect
/// elements sharing at least one mesh node; vertex weights are the
/// per-element assembly cost (heterogeneous across the hybrid element
/// types, which is one organic source of the paper's assembly-phase
/// imbalance).
#[derive(Debug, Clone)]
pub struct Graph {
    pub xadj: Vec<u32>,
    pub adjncy: Vec<u32>,
    pub vwgt: Vec<f64>,
}

impl Graph {
    /// Build from a CSR adjacency and per-vertex weights.
    pub fn from_csr(adj: &Csr, vwgt: Vec<f64>) -> Graph {
        assert_eq!(adj.len(), vwgt.len(), "one weight per vertex");
        Graph { xadj: adj.offsets.clone(), adjncy: adj.targets.clone(), vwgt }
    }

    /// Build with unit weights.
    pub fn from_csr_unit(adj: &Csr) -> Graph {
        let n = adj.len();
        Graph::from_csr(adj, vec![1.0; n])
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len().saturating_sub(1)
    }

    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// A vertex far from `start` (last vertex reached by BFS) — a cheap
    /// pseudo-peripheral vertex, used to seed partition growth.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        let n = self.num_vertices();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        // Breadth-first order; `head` is the next vertex to expand.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(start as u32);
        seen[start] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in self.neighbors(v as usize) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    order.push(w);
                }
            }
        }
        order[order.len() - 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    pub(crate) fn path4() -> Graph {
        Graph {
            xadj: vec![0, 1, 3, 5, 6],
            adjncy: vec![1, 0, 2, 1, 3, 2],
            vwgt: vec![1.0; 4],
        }
    }

    #[test]
    fn basics() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    fn pseudo_peripheral_finds_far_end() {
        let g = path4();
        assert_eq!(g.pseudo_peripheral(0), 3);
        assert_eq!(g.pseudo_peripheral(3), 0);
    }
}
