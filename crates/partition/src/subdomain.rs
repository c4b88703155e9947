//! Subdomain decomposition for the multidependences scheme (§3.1).
//!
//! The paper partitions each MPI domain into subdomains with Metis and
//! maps each subdomain to an OpenMP task; subdomains that *share at
//! least one mesh node* are "incompatible" (the paper links their tasks
//! with `mutexinoutset` so they never run concurrently; this solver
//! orders them, see [`SubdomainDecomposition::colour_numbered`]), while
//! non-adjacent subdomains run in parallel without atomics.

use crate::coloring::greedy_coloring;
use crate::graph::Graph;
use crate::kway::{partition_kway, Grown, Partition};
use cfpd_mesh::{Csr, FaceNeighbors, Mesh};

/// Elements per lane block: the width of the assembly's vector lanes.
const LANE: usize = 8;

/// A decomposition of a set of elements into subdomains plus the
/// subdomain adjacency needed to build the dependences between them.
#[derive(Debug, Clone)]
pub struct SubdomainDecomposition {
    /// For each subdomain, the (global) element ids it owns, ascending.
    pub members: Vec<Vec<u32>>,
    /// For each subdomain, the subdomains sharing ≥ 1 mesh node with it
    /// (excluding itself), ascending.
    pub adjacency: Vec<Vec<u32>>,
    /// Node → positions in the decomposed element list of the elements
    /// touching it (`mesh.node_to_listed(elems)`), which the
    /// decomposition builds and a caller may reuse.
    pub node_elems: Csr,
}

impl SubdomainDecomposition {
    pub fn num_subdomains(&self) -> usize {
        self.members.len()
    }

    /// The same decomposition with subdomains renumbered by (colour of a
    /// greedy colouring of the adjacency graph, old index).
    ///
    /// The k-way partitioner numbers subdomains along the airway tree,
    /// so "lower index first" chains almost all of them into one path.
    /// After this renumbering no two subdomains of one colour are
    /// adjacent, every adjacency edge runs from a lower to a higher
    /// colour, and a lower-index-first orientation of the edges is a DAG
    /// no deeper than the number of colours.
    pub fn colour_numbered(self) -> SubdomainDecomposition {
        let n = self.num_subdomains();
        let mut xadj = vec![0u32];
        for neigh in &self.adjacency {
            xadj.push(xadj[xadj.len() - 1] + neigh.len() as u32);
        }
        let graph = Graph { xadj, adjncy: self.adjacency.concat(), vwgt: vec![1.0; n] };
        let colours = greedy_coloring(&graph).colors;
        // order[new] = old; the sort is stable, so old index breaks ties.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&old| colours[old as usize]);
        let mut new_of = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as u32;
        }
        let SubdomainDecomposition { mut members, adjacency, node_elems } = self;
        SubdomainDecomposition {
            node_elems,
            members: order.iter().map(|&old| std::mem::take(&mut members[old as usize])).collect(),
            adjacency: order
                .iter()
                .map(|&old| {
                    let mut neigh: Vec<u32> =
                        adjacency[old as usize].iter().map(|&t| new_of[t as usize]).collect();
                    neigh.sort_unstable();
                    neigh
                })
                .collect(),
        }
    }
}

/// Decompose the element set `elems` (global element ids into `mesh`)
/// into `n_sub` subdomains, balancing per-element `weights`
/// (`weights[i]` corresponds to `elems[i]`); `faces` is the mesh's face
/// table ([`Mesh::face_neighbors`]), the graph the parts are cut on.
///
/// Like Metis's mesh interface, the partition reads the dual graph whose
/// edges join elements sharing a face, in two levels: parts grown and
/// refined on the face graph of the list's lane blocks (its elements of
/// equal `id >> 3`: the generator lists same-kind runs in whole
/// multiples of eight, so a block is one eight-wide unit of assembly),
/// then projected onto the elements and refined once more on their face
/// graph. A list of fewer lane blocks than subdomains, or one the two
/// levels leave a subdomain of empty, is cut into `n_sub` runs of equal
/// length instead, so with `n_sub <= elems.len()` no subdomain is empty.
///
/// Returns the members (global ids) and the node-sharing adjacency
/// between subdomains: what orders their tasks stays the relation the
/// scatter races on.
pub fn decompose_subdomains(
    mesh: &Mesh,
    faces: &FaceNeighbors,
    elems: &[u32],
    weights: &[f64],
    n_sub: usize,
) -> SubdomainDecomposition {
    assert_eq!(elems.len(), weights.len());
    // node -> local elements touching it: the subdomain adjacency below
    // reads it, and so does the plan's scatter pass.
    let node_elems = mesh.node_to_listed(elems.iter().copied());
    if elems.is_empty() {
        return SubdomainDecomposition {
            members: vec![Vec::new(); n_sub],
            adjacency: vec![Vec::new(); n_sub],
            node_elems,
        };
    }

    let graphs = FaceGraphs::new(mesh.num_elements(), faces, elems, weights);
    let mut parts = Vec::new();
    if graphs.blocks.num_vertices() >= n_sub {
        parts = graphs.partition(n_sub).parts;
    }
    let mut filled = vec![false; n_sub];
    parts.iter().for_each(|&p| filled[p as usize] = true);
    if filled.contains(&false) {
        parts = (0..elems.len()).map(|i| (i * n_sub / elems.len()) as u32).collect();
    }

    // Members in global element ids.
    let mut members = vec![Vec::new(); n_sub];
    for (li, &p) in parts.iter().enumerate() {
        members[p as usize].push(elems[li]);
    }
    for m in &mut members {
        m.sort_unstable();
    }

    // Subdomain adjacency: two subdomains sharing ≥ 1 node. Only nodes
    // on a subdomain boundary see more than one part, so the ordered
    // pair list stays tiny; sorted and deduplicated it lists every
    // subdomain's neighbours in ascending order.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut here: Vec<u32> = Vec::new();
    for v in 0..node_elems.len() {
        here.clear();
        here.extend(node_elems.row(v).iter().map(|&l| parts[l as usize]));
        here.sort_unstable();
        here.dedup();
        for &a in &here {
            pairs.extend(here.iter().filter(|&&b| b != a).map(|&b| (a, b)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut adjacency = vec![Vec::new(); n_sub];
    for (a, b) in pairs {
        adjacency[a as usize].push(b);
    }

    SubdomainDecomposition { members, adjacency, node_elems }
}

/// The two face graphs [`decompose_subdomains`] cuts a list of elements
/// on.
#[derive(Debug, Clone)]
pub struct FaceGraphs {
    /// One vertex per lane block of the list (its elements of equal
    /// `id >> 3`), in ascending `id >> 3`, weighing what its elements
    /// weigh; two blocks are joined when an element of one shares a face
    /// with an element of the other.
    pub blocks: Graph,
    /// One vertex per list position; two are joined when their elements
    /// share a face.
    pub elements: Graph,
    /// List position → its lane block.
    pub block: Vec<u32>,
}

impl FaceGraphs {
    /// The face graphs of `elems` (ids below `num_elements`) on the face
    /// table `faces`, weighted by `weights` (`weights[i]` is `elems[i]`'s).
    pub fn new(
        num_elements: usize,
        faces: &FaceNeighbors,
        elems: &[u32],
        weights: &[f64],
    ) -> FaceGraphs {
        let mut position = vec![u32::MAX; num_elements];
        let mut block_of_key = vec![u32::MAX; num_elements.div_ceil(LANE)];
        for (at, &e) in elems.iter().enumerate() {
            position[e as usize] = at as u32;
            block_of_key[e as usize / LANE] = 0;
        }
        let mut blocks = 0;
        for b in block_of_key.iter_mut().filter(|b| **b != u32::MAX) {
            *b = blocks;
            blocks += 1;
        }
        let block: Vec<u32> = elems.iter().map(|&e| block_of_key[e as usize / LANE]).collect();
        // The listed face neighbors of `e`, by list position.
        let listed = |e: u32| {
            faces
                .faces(e as usize)
                .iter()
                .flatten()
                .map(|&f| position[f as usize])
                .filter(|&at| at != u32::MAX)
        };

        let mut elements = Graph {
            xadj: vec![0],
            adjncy: Vec::with_capacity(4 * elems.len()),
            vwgt: weights.to_vec(),
        };
        for &e in elems {
            let start = elements.adjncy.len();
            elements.adjncy.extend(listed(e));
            elements.adjncy[start..].sort_unstable();
            elements.xadj.push(elements.adjncy.len() as u32);
        }

        let members =
            Csr::group(blocks as usize, block.iter().enumerate().map(|(at, &b)| (b, at as u32)));
        let mut graph =
            Graph { xadj: vec![0], adjncy: Vec::new(), vwgt: Vec::with_capacity(blocks as usize) };
        let mut row: Vec<u32> = Vec::new();
        for b in 0..blocks {
            row.clear();
            let mut w = 0.0;
            for &at in members.row(b as usize) {
                w += weights[at as usize];
                row.extend(
                    listed(elems[at as usize]).map(|at| block[at as usize]).filter(|&o| o != b),
                );
            }
            row.sort_unstable();
            row.dedup();
            graph.adjncy.extend_from_slice(&row);
            graph.xadj.push(graph.adjncy.len() as u32);
            graph.vwgt.push(w);
        }
        FaceGraphs { blocks: graph, elements, block }
    }

    /// The two-level partition into `k` parts: grown and refined on the
    /// blocks, projected onto the elements and refined once there.
    pub fn partition(&self, k: usize) -> Partition {
        let coarse = partition_kway(&self.blocks, k, 4);
        let projected = self.block.iter().map(|&b| coarse.parts[b as usize]).collect();
        Grown::from_parts(&self.elements, projected, k).refine(&self.elements, 1)
    }
}

/// Build the element graph restricted to `elems` (local ids are
/// positions in `elems`; edges connect elements sharing ≥ 1 mesh node) —
/// the graph both the coloring strategy and the subdomain decomposition
/// operate on inside one MPI domain.
pub fn local_element_graph(mesh: &Mesh, elems: &[u32], weights: &[f64]) -> Graph {
    element_graph(mesh, elems, weights, &mesh.node_to_listed(elems.iter().copied()))
}

/// [`local_element_graph`] over the already built
/// `mesh.node_to_listed(elems)`.
fn element_graph(mesh: &Mesh, elems: &[u32], weights: &[f64], node_elems: &Csr) -> Graph {
    let adj = mesh.listed_adjacency(elems.iter().copied(), node_elems);
    Graph { xadj: adj.offsets, adjncy: adj.targets, vwgt: weights.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_mesh::{generate_airway, AirwaySpec};
    use cfpd_testkit::prop::{check, Gen, PropConfig};
    use cfpd_testkit::Rng;
    use std::collections::{BTreeSet, HashMap};

    /// The graph build this module replaced, kept as the oracle: a
    /// hashed node → elements map and one ordered set per element.
    fn local_element_graph_oracle(mesh: &Mesh, elems: &[u32], weights: &[f64]) -> Graph {
        let mut node_elems: HashMap<u32, Vec<u32>> = HashMap::new();
        for (li, &e) in elems.iter().enumerate() {
            for &v in mesh.elem_nodes(e as usize) {
                node_elems.entry(v).or_default().push(li as u32);
            }
        }
        let mut adj_sets: Vec<BTreeSet<u32>> = vec![Default::default(); elems.len()];
        for locals in node_elems.values() {
            for i in 0..locals.len() {
                for j in i + 1..locals.len() {
                    adj_sets[locals[i] as usize].insert(locals[j]);
                    adj_sets[locals[j] as usize].insert(locals[i]);
                }
            }
        }
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for s in &adj_sets {
            adjncy.extend(s.iter().copied());
            xadj.push(adjncy.len() as u32);
        }
        Graph { xadj, adjncy, vwgt: weights.to_vec() }
    }

    /// Distinct element ids out of `0..n` in random order, from empty
    /// to nearly everything; shrinks by dropping elements.
    struct ElementSubset {
        n: usize,
    }

    impl Gen for ElementSubset {
        type Value = Vec<u32>;

        fn generate(&self, rng: &mut Rng) -> Vec<u32> {
            let mut all: Vec<u32> = (0..self.n as u32).collect();
            rng.shuffle(&mut all);
            // A third of the cases are tiny (0, 1, 2 elements).
            let len = if rng.bounded_u64(3) == 0 {
                rng.range_usize(0, 3)
            } else {
                rng.range_usize(0, self.n + 1)
            };
            all.truncate(len);
            if rng.bounded_u64(2) == 0 {
                all.sort_unstable();
            }
            all
        }

        fn shrink(&self, value: &Vec<u32>) -> Vec<Vec<u32>> {
            let half = value.len() / 2;
            let mut out = Vec::new();
            if half > 0 {
                out.push(value[..half].to_vec());
                out.push(value[half..].to_vec());
            }
            for i in 0..value.len().min(16) {
                let mut next = value.clone();
                next.remove(i);
                out.push(next);
            }
            out
        }
    }

    #[test]
    fn element_graph_equals_the_set_based_oracle() {
        let (mesh, all, _) = demo();
        let same = |elems: &[u32]| {
            let weights: Vec<f64> =
                elems.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).collect();
            let got = local_element_graph(&mesh, elems, &weights);
            let want = local_element_graph_oracle(&mesh, elems, &weights);
            assert_eq!(got.xadj, want.xadj);
            assert_eq!(got.adjncy, want.adjncy);
            assert_eq!(got.vwgt, want.vwgt);
        };
        same(&[]);
        same(&all);
        // Ascending lists keep a row's ids close (the bit-set rows);
        // a descending one spreads them (the gathered, sorted rows).
        same(&all.iter().rev().copied().collect::<Vec<u32>>());
        for e in (0..all.len() as u32).step_by(97) {
            same(&[e]);
        }
        check(
            "element graph == oracle on random subsets",
            PropConfig::cases(48),
            &ElementSubset { n: all.len() },
            |elems| same(elems),
        );
    }

    /// The face graphs by sets, kept as the oracle of [`FaceGraphs`]:
    /// list positions grouped by the sorted node set of each of their
    /// faces (not by the face table), blocks numbered by an ordered set
    /// of `id >> 3`, one ordered neighbor set per vertex and block
    /// weights summed in list order.
    fn face_graphs_oracle(mesh: &Mesh, elems: &[u32], weights: &[f64]) -> FaceGraphs {
        let mut by_face: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (at, &e) in elems.iter().enumerate() {
            let nodes = mesh.elem_nodes(e as usize);
            for face in mesh.kinds[e as usize].faces() {
                let mut key: Vec<u32> = face.iter().map(|&l| nodes[l]).collect();
                key.sort_unstable();
                by_face.entry(key).or_default().push(at);
            }
        }
        let keys: BTreeSet<u32> = elems.iter().map(|&e| e >> 3).collect();
        let block_of = |e: u32| keys.iter().position(|&k| k == e >> 3).unwrap();
        let mut element_sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); elems.len()];
        let mut block_sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); keys.len()];
        for sharing in by_face.values() {
            for &a in sharing {
                for &b in sharing.iter().filter(|&&b| b != a) {
                    element_sets[a].insert(b as u32);
                    let (ba, bb) = (block_of(elems[a]), block_of(elems[b]));
                    if ba != bb {
                        block_sets[ba].insert(bb as u32);
                    }
                }
            }
        }
        let mut block_weights = vec![0.0; keys.len()];
        for (at, &e) in elems.iter().enumerate() {
            block_weights[block_of(e)] += weights[at];
        }
        let graph = |sets: Vec<BTreeSet<u32>>, vwgt: Vec<f64>| {
            let mut xadj = vec![0u32];
            let mut adjncy = Vec::new();
            for set in sets {
                adjncy.extend(set);
                xadj.push(adjncy.len() as u32);
            }
            Graph { xadj, adjncy, vwgt }
        };
        FaceGraphs {
            blocks: graph(block_sets, block_weights),
            elements: graph(element_sets, weights.to_vec()),
            block: elems.iter().map(|&e| block_of(e) as u32).collect(),
        }
    }

    #[test]
    fn face_graphs_equal_the_set_based_oracle() {
        let (mesh, all, _) = demo();
        let faces = mesh.face_neighbors();
        let same = |elems: &[u32]| {
            let weights: Vec<f64> =
                elems.iter().map(|&e| mesh.kinds[e as usize].cost_weight()).collect();
            let got = FaceGraphs::new(mesh.num_elements(), &faces, elems, &weights);
            let want = face_graphs_oracle(&mesh, elems, &weights);
            assert_eq!(got.block, want.block);
            for (got, want) in [(&got.blocks, &want.blocks), (&got.elements, &want.elements)] {
                assert_eq!(got.xadj, want.xadj);
                assert_eq!(got.adjncy, want.adjncy);
                assert_eq!(got.vwgt, want.vwgt);
            }
        };
        same(&[]);
        same(&all);
        same(&all.iter().rev().copied().collect::<Vec<u32>>());
        // Every other lane block, its elements listed odd ones first.
        let unsorted: Vec<u32> = (0..all.len() as u32)
            .filter(|e| e / 8 % 2 == 0)
            .map(|e| e ^ 1)
            .filter(|&e| (e as usize) < all.len())
            .collect();
        same(&unsorted);
        check(
            "face graphs == oracle on random subsets",
            PropConfig::cases(48),
            &ElementSubset { n: all.len() },
            |elems| same(elems),
        );
    }

    /// Whatever the list, every element lands in exactly one subdomain,
    /// and with the subdomain count capped at the list's length (as
    /// `AssemblyUnits::new` caps it) none is empty: random subsets, and
    /// lists of fewer lane blocks than subdomains, which cannot keep
    /// their blocks whole.
    #[test]
    fn every_list_fills_every_subdomain_once() {
        let (mesh, all, weights) = demo();
        let faces = mesh.face_neighbors();
        let holds = |elems: &[u32]| {
            let n_sub = 16.min(elems.len().max(1));
            let w: Vec<f64> = elems.iter().map(|&e| weights[e as usize]).collect();
            let d = decompose_subdomains(&mesh, &faces, elems, &w, n_sub);
            assert_eq!(d.num_subdomains(), n_sub);
            let mut got: Vec<u32> = d.members.concat();
            got.sort_unstable();
            let mut want = elems.to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "members are not the list");
            if !elems.is_empty() {
                assert!(d.members.iter().all(|m| !m.is_empty()), "an empty subdomain");
            }
        };
        for len in [1, 2, 7, 9, 15, 16, 17, 40, 100, 120] {
            let w = &weights[..len];
            let graphs = FaceGraphs::new(mesh.num_elements(), &faces, &all[..len], w);
            assert!(graphs.blocks.num_vertices() < 16, "{len} elements");
            holds(&all[..len]);
            holds(&all[all.len() - len..].iter().rev().copied().collect::<Vec<u32>>());
        }
        // Fifteen blocks of eight, and sixteen blocks of one element.
        holds(&(0..120).map(|e| e * 7 % 120).collect::<Vec<u32>>());
        holds(&(0..16).map(|b| b * 8 + 3).collect::<Vec<u32>>());
        check(
            "every subset fills every subdomain once",
            PropConfig::cases(48),
            &ElementSubset { n: all.len() },
            |elems| holds(elems),
        );
    }

    /// [`decompose_subdomains`] on the mesh's own face table.
    fn decompose(
        mesh: &Mesh,
        elems: &[u32],
        weights: &[f64],
        n_sub: usize,
    ) -> SubdomainDecomposition {
        decompose_subdomains(mesh, &mesh.face_neighbors(), elems, weights, n_sub)
    }

    fn demo() -> (cfpd_mesh::Mesh, Vec<u32>, Vec<f64>) {
        let am = generate_airway(&AirwaySpec::small()).unwrap();
        let n = am.mesh.num_elements();
        let elems: Vec<u32> = (0..n as u32).collect();
        let weights = am.mesh.cost_weights();
        (am.mesh, elems, weights)
    }

    #[test]
    fn members_partition_elements() {
        let (mesh, elems, weights) = demo();
        let d = decompose(&mesh, &elems, &weights, 8);
        let total: usize = d.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, elems.len());
        let mut seen = vec![false; elems.len()];
        for m in &d.members {
            for &e in m {
                assert!(!seen[e as usize]);
                seen[e as usize] = true;
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let (mesh, elems, weights) = demo();
        let d = decompose(&mesh, &elems, &weights, 8);
        for (s, neigh) in d.adjacency.iter().enumerate() {
            assert!(neigh.windows(2).all(|w| w[0] < w[1]), "adjacency of {s} not ascending");
            for &t in neigh {
                assert_ne!(t as usize, s, "self adjacency");
                assert!(
                    d.adjacency[t as usize].contains(&(s as u32)),
                    "asymmetric adjacency {s} -> {t}"
                );
            }
        }
    }

    #[test]
    fn adjacent_subdomains_share_a_node_nonadjacent_dont() {
        let (mesh, elems, weights) = demo();
        let d = decompose(&mesh, &elems, &weights, 6);
        // Collect node sets per subdomain.
        let node_sets: Vec<std::collections::HashSet<u32>> = d
            .members
            .iter()
            .map(|m| {
                m.iter()
                    .flat_map(|&e| mesh.elem_nodes(e as usize).iter().copied())
                    .collect()
            })
            .collect();
        for s in 0..d.num_subdomains() {
            for t in s + 1..d.num_subdomains() {
                let shares = !node_sets[s].is_disjoint(&node_sets[t]);
                let adj = d.adjacency[s].contains(&(t as u32));
                assert_eq!(shares, adj, "subdomains {s},{t}: shares={shares} adj={adj}");
            }
        }
    }

    /// Renumbering by colour permutes the subdomains and their adjacency
    /// consistently, and leaves the lower-index-first DAG as shallow as
    /// the colouring: on the airway tree the native numbering chains
    /// most subdomains, the colour numbering at most a handful. On the
    /// airways the goldens and the benchmark cut (2, 4 and 5 generations)
    /// the sixteen subdomains also keep what any seed rule must: none is
    /// empty and the heaviest is within refinement's 3 % of the mean.
    #[test]
    fn colour_numbering_permutes_and_flattens() {
        // Depth (in tasks) of the lower-index-first DAG.
        let depth = |d: &SubdomainDecomposition| {
            let mut level = vec![1usize; d.num_subdomains()];
            for t in 0..d.num_subdomains() {
                for &s in d.adjacency[t].iter().filter(|&&s| (s as usize) < t) {
                    level[t] = level[t].max(level[s as usize] + 1);
                }
            }
            level.into_iter().max().unwrap()
        };
        for generations in [2, 4, 5] {
            let mesh = generate_airway(&AirwaySpec { generations, ..AirwaySpec::small() })
                .unwrap()
                .mesh;
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let weights = mesh.cost_weights();
            let d = decompose(&mesh, &elems, &weights, 16);
            let c = d.clone().colour_numbered();
            let sorted = |d: &SubdomainDecomposition| {
                let mut m = d.members.clone();
                m.sort();
                m
            };
            assert_eq!(sorted(&d), sorted(&c));
            for (s, neigh) in c.adjacency.iter().enumerate() {
                assert!(neigh.windows(2).all(|w| w[0] < w[1]), "adjacency of {s} not ascending");
                let old = d.members.iter().position(|m| *m == c.members[s]).unwrap();
                let old_neigh: Vec<&Vec<u32>> =
                    d.adjacency[old].iter().map(|&t| &d.members[t as usize]).collect();
                for &t in neigh {
                    assert!(old_neigh.contains(&&c.members[t as usize]), "{s} -> {t} is no old edge");
                }
                assert_eq!(neigh.len(), old_neigh.len());
            }
            let load: Vec<f64> = c
                .members
                .iter()
                .map(|m| m.iter().map(|&e| weights[e as usize]).sum())
                .collect();
            let mean = load.iter().sum::<f64>() / 16.0;
            let heaviest = load.iter().cloned().fold(0.0, f64::max);
            assert!(c.members.iter().all(|m| !m.is_empty()), "an empty part at {generations}");
            assert!(heaviest <= 1.03 * mean, "heaviest / mean {} at {generations}", heaviest / mean);
            assert!(depth(&d) >= 8, "native numbering is {} deep at {generations}", depth(&d));
            assert!(depth(&c) <= 4, "colour numbering is {} deep at {generations}", depth(&c));
        }
    }

    /// The partition every golden, fixture and benchmark digest rests
    /// on, pinned by value on the golden configuration's mesh: a set-up
    /// change that moves it fails here, not in a golden diff. The fast
    /// layout's RCM node order renames nodes, not elements or the faces
    /// between them, so on the generator's face table (the one `prepare`
    /// passes) it has to give the same sixteen lists.
    #[test]
    fn the_sixteen_subdomains_of_the_golden_mesh_are_pinned() {
        use cfpd_testkit::digest::Digest;
        let airway = generate_airway(&AirwaySpec::small()).unwrap();
        let digest = |mesh: &Mesh| {
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let weights = mesh.cost_weights();
            let d = decompose_subdomains(mesh, &airway.face_neighbors, &elems, &weights, 16)
                .colour_numbered();
            let mut digest = Digest::new();
            for members in &d.members {
                digest.update_u64(members.len() as u64);
                for &e in members {
                    digest.update_u64(e as u64);
                }
            }
            digest.finish()
        };
        let mut mesh = airway.mesh.clone();
        assert_eq!(digest(&mesh), 0xdd387428d4a71a09, "generator order");
        let perm = crate::rcm::rcm_perm(&mesh.node_adjacency());
        mesh.renumber_nodes(&perm);
        assert_eq!(digest(&mesh), 0xdd387428d4a71a09, "RCM order");
    }

    #[test]
    fn subset_of_elements_supported() {
        // Decompose only half the mesh (as a rank-local domain would).
        let (mesh, elems, weights) = demo();
        let half = elems.len() / 2;
        let d = decompose(&mesh, &elems[..half], &weights[..half], 4);
        let total: usize = d.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, half);
    }

    #[test]
    fn empty_input() {
        let (mesh, _, _) = demo();
        let d = decompose(&mesh, &[], &[], 4);
        assert_eq!(d.num_subdomains(), 4);
        assert!(d.members.iter().all(|m| m.is_empty()));
    }
}
