//! Subdomain decomposition for the multidependences scheme (§3.1).
//!
//! The paper partitions each MPI domain into subdomains with Metis and
//! maps each subdomain to an OpenMP task; subdomains that *share at
//! least one mesh node* are "incompatible" (the paper links their tasks
//! with `mutexinoutset` so they never run concurrently; this solver
//! orders them, see [`SubdomainDecomposition::colour_numbered`]), while
//! non-adjacent subdomains run in parallel without atomics.

use crate::coloring::greedy_coloring;
use crate::graph::{Graph, NodeCliques};
use crate::kway::{partition_kway_covered, Partition};
use cfpd_mesh::{Csr, Mesh};

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
/// (`weights[i]` corresponds to `elems[i]`).
///
/// Returns the members (global ids) and the node-sharing adjacency
/// between subdomains.
pub fn decompose_subdomains(
    mesh: &Mesh,
    elems: &[u32],
    weights: &[f64],
    n_sub: usize,
) -> SubdomainDecomposition {
    assert_eq!(elems.len(), weights.len());
    // node -> local elements touching it: the graph's rows, the seed
    // searches' cover and the subdomain adjacency below all read it.
    let node_elems = mesh.node_to_listed(elems.iter().copied());
    if elems.is_empty() {
        return SubdomainDecomposition {
            members: vec![Vec::new(); n_sub],
            adjacency: vec![Vec::new(); n_sub],
            node_elems,
        };
    }

    let g = element_graph(mesh, elems, weights, &node_elems);
    let cover = NodeCliques::of_listed(mesh, elems, &node_elems);
    let part: Partition = partition_kway_covered(&g, &cover, n_sub, 4);

    // Members in global element ids.
    let mut members = vec![Vec::new(); n_sub];
    for (li, &p) in part.parts.iter().enumerate() {
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
        here.extend(node_elems.row(v).iter().map(|&l| part.parts[l as usize]));
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
        let d = decompose_subdomains(&mesh, &elems, &weights, 8);
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
        let d = decompose_subdomains(&mesh, &elems, &weights, 8);
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
        let d = decompose_subdomains(&mesh, &elems, &weights, 6);
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
    /// most subdomains, the colour numbering at most a handful.
    #[test]
    fn colour_numbering_permutes_and_flattens() {
        let (mesh, elems, weights) = demo();
        let d = decompose_subdomains(&mesh, &elems, &weights, 16);
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
        assert!(depth(&d) >= 8, "native numbering is {} deep", depth(&d));
        assert!(depth(&c) <= 4, "colour numbering is {} deep", depth(&c));
    }

    /// The partition every golden, fixture and benchmark digest rests
    /// on, pinned by value on the golden configuration's mesh: a set-up
    /// change that moves it fails here, not in a golden diff. The fast
    /// layout's RCM node order renames the cliques, not the elements, so
    /// it has to give the same sixteen lists.
    #[test]
    fn the_sixteen_subdomains_of_the_golden_mesh_are_pinned() {
        use cfpd_testkit::digest::Digest;
        let digest = |mesh: &Mesh| {
            let elems: Vec<u32> = (0..mesh.num_elements() as u32).collect();
            let d = decompose_subdomains(mesh, &elems, &mesh.cost_weights(), 16).colour_numbered();
            let mut digest = Digest::new();
            for members in &d.members {
                digest.update_u64(members.len() as u64);
                for &e in members {
                    digest.update_u64(e as u64);
                }
            }
            digest.finish()
        };
        let (mut mesh, _, _) = demo();
        assert_eq!(digest(&mesh), 0x44d30c2b15b00508, "generator order");
        let perm = crate::rcm::rcm_perm(&mesh.node_adjacency());
        mesh.renumber_nodes(&perm);
        assert_eq!(digest(&mesh), 0x44d30c2b15b00508, "RCM order");
    }

    /// Seed searches over the cover leave the partition where the
    /// searches over the graph put it.
    #[test]
    fn covered_partition_equals_the_plain_one() {
        use crate::kway::partition_kway;
        let (mesh, elems, weights) = demo();
        let upper = elems.len() / 3..elems.len();
        for (elems, weights) in
            [(&elems[..], &weights[..]), (&elems[upper.clone()], &weights[upper])]
        {
            let node_elems = mesh.node_to_listed(elems.iter().copied());
            let g = element_graph(&mesh, elems, weights, &node_elems);
            let cover = NodeCliques::of_listed(&mesh, elems, &node_elems);
            for k in [2, 3, 16] {
                assert_eq!(
                    partition_kway_covered(&g, &cover, k, 4).parts,
                    partition_kway(&g, k, 4).parts,
                    "{} elements, k = {k}",
                    elems.len()
                );
            }
        }
    }

    #[test]
    fn subset_of_elements_supported() {
        // Decompose only half the mesh (as a rank-local domain would).
        let (mesh, elems, weights) = demo();
        let half = elems.len() / 2;
        let d = decompose_subdomains(&mesh, &elems[..half], &weights[..half], 4);
        let total: usize = d.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, half);
    }

    #[test]
    fn empty_input() {
        let (mesh, _, _) = demo();
        let d = decompose_subdomains(&mesh, &[], &[], 4);
        assert_eq!(d.num_subdomains(), 4);
        assert!(d.members.iter().all(|m| m.is_empty()));
    }
}
