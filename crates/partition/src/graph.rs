//! Weighted undirected graphs in CSR form (the Metis input format).

use cfpd_mesh::{Csr, Mesh};

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
    /// pseudo-peripheral vertex, used to seed partition growth. Graphs
    /// that come from a mesh ask [`NodeCliques::pseudo_peripheral`], which
    /// returns the same vertex from a tenth of the visits; this walk is
    /// its oracle, and what hand-built graphs use.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        self.bfs_order(start).last().map_or(0, |&v| v as usize)
    }

    /// The vertices reachable from `start` in breadth-first order,
    /// neighbors ascending; empty on the empty graph.
    fn bfs_order(&self, start: usize) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut seen = vec![false; n];
        // `head` is the next vertex to expand.
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
        order
    }
}

/// The element graph of a mesh as a union of cliques, one per mesh
/// node: two elements are adjacent exactly when some node lists both.
/// On the airway the cliques hold a tenth of the entries of the explicit
/// adjacency (0.2 M incidences against 2 M directed edges), so a search
/// that only needs to *reach* every vertex walks these instead.
pub struct NodeCliques<'a> {
    mesh: &'a Mesh,
    /// Vertex `v` is element `elems[v]`; `None` when it is element `v`.
    elems: Option<&'a [u32]>,
    /// Node → the vertices around it, ascending.
    node_elems: &'a Csr,
}

impl<'a> NodeCliques<'a> {
    /// The cover of [`Mesh::element_adjacency`]; `n2e` is
    /// `mesh.node_to_elements()`.
    pub fn of_mesh(mesh: &'a Mesh, n2e: &'a Csr) -> NodeCliques<'a> {
        NodeCliques { mesh, elems: None, node_elems: n2e }
    }

    /// The cover of [`Mesh::listed_adjacency`] of `elems`; `node_elems`
    /// is `mesh.node_to_listed(elems)`.
    pub fn of_listed(mesh: &'a Mesh, elems: &'a [u32], node_elems: &'a Csr) -> NodeCliques<'a> {
        NodeCliques { mesh, elems: Some(elems), node_elems }
    }

    pub fn num_vertices(&self) -> usize {
        self.elems.map_or(self.mesh.num_elements(), |elems| elems.len())
    }

    /// [`Graph::pseudo_peripheral`] of the covered graph.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        self.bfs_order(start).last().map_or(0, |&v| v as usize)
    }

    /// [`Graph::bfs_order`] of the covered graph, vertex for vertex:
    /// expanding `v` opens each clique of `v` that no earlier vertex
    /// opened and takes its unseen members — a clique opened before has
    /// none left — then sorts what `v` discovered, which is the
    /// ascending order `v`'s adjacency row lists them in.
    fn bfs_order(&self, start: usize) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut seen = vec![false; n];
        let mut opened = vec![false; self.node_elems.len()];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(start as u32);
        seen[start] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            let found = order.len();
            let e = self.elems.map_or(v, |elems| elems[v] as usize);
            for &node in self.mesh.elem_nodes(e) {
                if std::mem::replace(&mut opened[node as usize], true) {
                    continue;
                }
                for &w in self.node_elems.row(node as usize) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        order.push(w);
                    }
                }
            }
            order[found..].sort_unstable();
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_testkit::prop::{check, Gen, PropConfig};
    use cfpd_testkit::Rng;

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

    /// Elements as node lists over `nodes` nodes, and possibly a list of
    /// some of them in any order — what `decompose_subdomains` gets
    /// from a rank.
    #[derive(Debug, Clone)]
    struct CoverCase {
        nodes: usize,
        elems: Vec<Vec<u32>>,
        listed: Option<Vec<u32>>,
    }

    impl CoverCase {
        /// Connectivity only: the walks read nothing else of a mesh.
        fn mesh(&self) -> Mesh {
            let mut offsets = vec![0u32];
            for e in &self.elems {
                offsets.push(offsets[offsets.len() - 1] + e.len() as u32);
            }
            Mesh {
                coords: vec![cfpd_mesh::Vec3::ZERO; self.nodes],
                kinds: vec![cfpd_mesh::ElementKind::Tet4; self.elems.len()],
                offsets,
                conn: self.elems.concat(),
                boundary: Vec::new(),
            }
        }
    }

    /// The explicit graph of a mesh's (listed) elements against its
    /// clique cover: the same visiting order from `starts`, hence the
    /// same far vertex.
    fn assert_walks_agree(
        mesh: &Mesh,
        listed: Option<&[u32]>,
        starts: impl Iterator<Item = usize>,
    ) {
        let all: Vec<u32> = (0..mesh.num_elements() as u32).collect();
        let elems = listed.unwrap_or(&all);
        let node_elems = mesh.node_to_listed(elems.iter().copied());
        let g = Graph::from_csr_unit(&mesh.listed_adjacency(elems.iter().copied(), &node_elems));
        let cover = match listed {
            Some(listed) => NodeCliques::of_listed(mesh, listed, &node_elems),
            None => NodeCliques::of_mesh(mesh, &node_elems),
        };
        assert_eq!(cover.num_vertices(), g.num_vertices());
        assert_eq!(cover.pseudo_peripheral(0), g.pseudo_peripheral(0), "also when empty");
        for start in starts {
            assert_eq!(cover.bfs_order(start), g.bfs_order(start), "from {start}");
        }
    }

    /// Mutually unconnected blocks of elements with one to four nodes
    /// each; with more nodes than a block's elements use, some cliques
    /// hold one element and some none.
    struct RandomCovers;

    impl Gen for RandomCovers {
        type Value = CoverCase;

        fn generate(&self, rng: &mut Rng) -> CoverCase {
            let mut case = CoverCase { nodes: 0, elems: Vec::new(), listed: None };
            for _ in 0..rng.range_usize(1, 4) {
                let nodes = rng.range_usize(4, 14);
                for _ in 0..rng.range_usize(0, 16) {
                    let mut pick: Vec<u32> = (0..nodes as u32).collect();
                    rng.shuffle(&mut pick);
                    pick.truncate(rng.range_usize(1, 5));
                    case.elems.push(pick.iter().map(|v| case.nodes as u32 + v).collect());
                }
                case.nodes += nodes;
            }
            if rng.bounded_u64(2) == 0 {
                let mut listed: Vec<u32> = (0..case.elems.len() as u32).collect();
                rng.shuffle(&mut listed);
                listed.truncate(rng.range_usize(0, listed.len() + 1));
                case.listed = Some(listed);
            }
            case
        }

        fn shrink(&self, value: &CoverCase) -> Vec<CoverCase> {
            match &value.listed {
                Some(listed) => (0..listed.len())
                    .map(|i| {
                        let mut next = value.clone();
                        next.listed.as_mut().unwrap().remove(i);
                        next
                    })
                    .collect(),
                None => (0..value.elems.len())
                    .map(|i| {
                        let mut next = value.clone();
                        next.elems.remove(i);
                        next
                    })
                    .collect(),
            }
        }
    }

    #[test]
    fn cover_walk_equals_the_graph_walk_on_random_covers() {
        check("cover walk == graph walk", PropConfig::cases(300), &RandomCovers, |case| {
            let mesh = case.mesh();
            let n = case.listed.as_ref().map_or(case.elems.len(), |l| l.len());
            assert_walks_agree(&mesh, case.listed.as_deref(), 0..n);
        });
    }

    #[test]
    fn cover_walk_equals_the_graph_walk_on_the_airway() {
        use cfpd_mesh::{generate_airway, AirwaySpec};
        for (generations, stride) in [(2, 53), (4, 499)] {
            let mesh =
                generate_airway(&AirwaySpec { generations, ..AirwaySpec::small() }).unwrap().mesh;
            let n = mesh.num_elements();
            assert_walks_agree(&mesh, None, (0..n).step_by(stride));
            // The upper half of the elements, as a rank would hold them.
            let half: Vec<u32> = (n as u32 / 2..n as u32).collect();
            assert_walks_agree(&mesh, Some(&half), (0..half.len()).step_by(stride));
        }
    }
}
