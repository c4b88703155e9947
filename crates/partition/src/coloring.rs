//! Greedy mesh/graph coloring (Farhat & Crivelli 1989, ref. [7] of the
//! paper): elements sharing a node get different colors so that all
//! elements of one color can be assembled in parallel without atomics.
//! The cost — analyzed in the paper (§3.1, Fig. 6) — is lost spatial
//! locality, because consecutive elements end up in different colors.

use crate::graph::Graph;

/// A vertex coloring: `colors[v]` in `0..num_colors`.
#[derive(Debug, Clone)]
pub struct Coloring {
    pub colors: Vec<u32>,
    pub num_colors: usize,
}

impl Coloring {
    /// Vertex lists grouped by color, each sorted ascending.
    pub fn color_classes(&self) -> Vec<Vec<u32>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (v, &c) in self.colors.iter().enumerate() {
            classes[c as usize].push(v as u32);
        }
        classes
    }

    /// Verify no two adjacent vertices share a color.
    #[cfg(test)]
    pub fn is_valid(&self, g: &Graph) -> bool {
        (0..g.num_vertices())
            .all(|v| g.neighbors(v).iter().all(|&w| self.colors[w as usize] != self.colors[v]))
    }

    /// Mean distance between consecutive vertices within each color
    /// class — a proxy for the spatial-locality loss coloring causes
    /// (element ids are generated in spatial order, so large id jumps
    /// mean cache-unfriendly strides). A plain sequential sweep scores 1.
    #[cfg(test)]
    pub fn mean_stride(&self) -> f64 {
        let classes = self.color_classes();
        let mut jumps = 0.0f64;
        let mut count = 0usize;
        for class in &classes {
            for w in class.windows(2) {
                jumps += (w[1] - w[0]) as f64;
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            jumps / count as f64
        }
    }
}

/// Greedy coloring in largest-degree-first order — the classical
/// heuristic; bounded by max_degree + 1 colors.
pub fn greedy_coloring(g: &Graph) -> Coloring {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as usize)));

    let mut colors = vec![u32::MAX; n];
    let max_deg = (0..n).map(|v| g.degree(v)).max().unwrap_or(0);
    // Scratch: forbidden[c] == v marks color c used by a neighbor of v.
    let mut forbidden = vec![u32::MAX; max_deg + 2];
    let mut num_colors = 0usize;
    for &v in &order {
        for &w in g.neighbors(v as usize) {
            let c = colors[w as usize];
            if c != u32::MAX {
                forbidden[c as usize] = v;
            }
        }
        let mut c = 0u32;
        while forbidden[c as usize] == v {
            c += 1;
        }
        colors[v as usize] = c;
        num_colors = num_colors.max(c as usize + 1);
    }
    Coloring { colors, num_colors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for v in 0..n {
            adjncy.push(((v + n - 1) % n) as u32);
            adjncy.push(((v + 1) % n) as u32);
            xadj.push(adjncy.len() as u32);
        }
        Graph { xadj, adjncy, vwgt: vec![1.0; n] }
    }

    #[test]
    fn even_cycle_two_colors() {
        let g = cycle(10);
        let c = greedy_coloring(&g);
        assert!(c.is_valid(&g));
        assert!(c.num_colors <= 3); // greedy may use 3, optimum is 2
    }

    #[test]
    fn odd_cycle_three_colors() {
        let g = cycle(7);
        let c = greedy_coloring(&g);
        assert!(c.is_valid(&g));
        assert!(c.num_colors >= 3);
        assert!(c.num_colors <= 3);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let n = 5;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for v in 0..n {
            for w in 0..n {
                if w != v {
                    adjncy.push(w as u32);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        let g = Graph { xadj, adjncy, vwgt: vec![1.0; n] };
        let c = greedy_coloring(&g);
        assert!(c.is_valid(&g));
        assert_eq!(c.num_colors, n);
    }

    #[test]
    fn color_classes_cover_all_vertices() {
        let g = cycle(12);
        let c = greedy_coloring(&g);
        let total: usize = c.color_classes().iter().map(|cl| cl.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn coloring_on_airway_mesh_is_valid() {
        let am = cfpd_mesh::generate_airway(&cfpd_mesh::AirwaySpec::small()).unwrap();
        let n2e = am.mesh.node_to_elements();
        let adj = am.mesh.element_adjacency(&n2e);
        let g = Graph::from_csr_unit(&adj);
        let c = greedy_coloring(&g);
        assert!(c.is_valid(&g));
        // Mesh coloring destroys locality: mean stride well above 1.
        assert!(c.mean_stride() > 2.0, "stride {}", c.mean_stride());
    }

    #[test]
    fn empty_graph() {
        let g = Graph { xadj: vec![0], adjncy: vec![], vwgt: vec![] };
        let c = greedy_coloring(&g);
        assert_eq!(c.num_colors, 0);
        assert!(c.is_valid(&g));
        assert_eq!(c.mean_stride(), 1.0);
    }
}
