//! K-way graph partitioning by greedy graph growing with boundary
//! refinement — the workspace's stand-in for Metis (used by the paper
//! both for MPI domain decomposition and for carving each MPI domain
//! into the OpenMP-task subdomains of the multidependences scheme).

use crate::graph::{Graph, NodeCliques};

/// Result of a k-way partition: `parts[v]` is the part of vertex `v`.
#[derive(Debug, Clone)]
pub struct Partition {
    pub parts: Vec<u32>,
    pub num_parts: usize,
}

impl Partition {
    /// Weight of each part.
    pub fn part_weights(&self, g: &Graph) -> Vec<f64> {
        let mut w = vec![0.0; self.num_parts];
        for (v, &p) in self.parts.iter().enumerate() {
            w[p as usize] += g.vwgt[v];
        }
        w
    }

    /// Load-balance metric over parts, matching the paper's Lₙ (eq. 9):
    /// `sum(w_i) / (n * max(w_i))`. 1.0 = perfectly balanced.
    pub fn load_balance(&self, g: &Graph) -> f64 {
        let w = self.part_weights(g);
        let max = w.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return 1.0;
        }
        w.iter().sum::<f64>() / (self.num_parts as f64 * max)
    }

    /// Number of cut edges (each undirected edge counted once).
    pub fn edge_cut(&self, g: &Graph) -> usize {
        let mut cut = 0;
        for v in 0..g.num_vertices() {
            for &w in g.neighbors(v) {
                if (w as usize) > v && self.parts[w as usize] != self.parts[v] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Vertex lists per part (indices sorted ascending, preserving the
    /// generator's spatial locality within each part).
    pub fn part_members(&self) -> Vec<Vec<u32>> {
        let mut members = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.parts.iter().enumerate() {
            members[p as usize].push(v as u32);
        }
        members
    }
}

/// Partition `g` into `k` parts.
///
/// Algorithm: greedy graph growing (Karypis-Kumar style initial phase) —
/// parts are grown one at a time by a weight-bounded BFS from a
/// pseudo-peripheral seed, preferring frontier vertices with the most
/// neighbors already in the growing part (minimizes perimeter) — followed
/// by `refine_passes` of greedy boundary refinement that moves boundary
/// vertices to reduce edge cut without violating a 3 % balance tolerance.
pub fn partition_kway(g: &Graph, k: usize, refine_passes: usize) -> Partition {
    grow_seeded(g, k, |from| g.pseudo_peripheral(from)).refine(g, refine_passes)
}

/// [`partition_kway`] of a mesh's element graph `g`, with the seed
/// searches walking `cover` (the node cliques `g` was built from)
/// instead of `g`: the same partition from a tenth of the edge visits.
pub fn partition_kway_covered(
    g: &Graph,
    cover: &NodeCliques,
    k: usize,
    refine_passes: usize,
) -> Partition {
    grow_kway_covered(g, cover, k).refine(g, refine_passes)
}

/// The growth stage of [`partition_kway_covered`] alone.
pub fn grow_kway_covered(g: &Graph, cover: &NodeCliques, k: usize) -> Grown {
    assert_eq!(cover.num_vertices(), g.num_vertices(), "cover of another graph");
    grow_seeded(g, k, |from| cover.pseudo_peripheral(from))
}

/// A grown, not yet refined, partition.
#[derive(Debug, Clone)]
pub struct Grown {
    part: Partition,
    /// Holds for every vertex with a neighbor in another part (and may
    /// hold for others): what refinement has to look at.
    boundary: Vec<bool>,
}

/// `far_from(v)` is `g.pseudo_peripheral(v)`, however computed.
fn grow_seeded(g: &Graph, k: usize, far_from: impl Fn(usize) -> usize) -> Grown {
    assert!(k >= 1, "k must be >= 1");
    let n = g.num_vertices();
    if k == 1 || n == 0 {
        return Grown {
            part: Partition { parts: vec![0; n], num_parts: k },
            boundary: vec![false; n],
        };
    }
    let (parts, boundary) = grow_parts(g, k, far_from);
    Grown { part: Partition { parts, num_parts: k }, boundary }
}

/// The frontier of one growing part: a max-priority queue on the number
/// of neighbors already inside the part, first-in first-out among equal
/// gains. One FIFO bucket per gain value (its entries and the index of
/// the next to pop) makes push and pop constant time; a vertex is pushed
/// again whenever its gain rises, and its stale lower-gain entries are
/// skipped by the caller once it has been assigned.
struct Frontier {
    buckets: Vec<(Vec<u32>, usize)>,
    /// No bucket above this index holds an entry.
    top: usize,
}

impl Frontier {
    fn push(&mut self, gain: usize, v: u32) {
        if gain >= self.buckets.len() {
            self.buckets.resize_with(gain + 1, Default::default);
        }
        self.buckets[gain].0.push(v);
        self.top = self.top.max(gain);
    }

    fn pop(&mut self) -> Option<u32> {
        loop {
            let (bucket, head) = self.buckets.get_mut(self.top)?;
            if let Some(&v) = bucket.get(*head) {
                *head += 1;
                return Some(v);
            }
            (bucket.clear(), *head = 0);
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }

    fn clear(&mut self) {
        for (bucket, head) in self.buckets.iter_mut().take(self.top + 1) {
            (bucket.clear(), *head = 0);
        }
        self.top = 0;
    }
}

/// Lowest-numbered unassigned vertex at or after `*from`, which it
/// advances: assignments are never undone, so the scan never restarts.
fn next_free(parts: &[u32], from: &mut usize) -> Option<usize> {
    while *from < parts.len() && parts[*from] != u32::MAX {
        *from += 1;
    }
    (*from < parts.len()).then_some(*from)
}

/// Greedy graph growing: the initial assignment of every vertex of the
/// simple undirected graph `g` to one of `k >= 2` parts, and which
/// vertices ended up beside another part — every vertex looks at its
/// neighbors when it is assigned, and of two neighbors in different
/// parts the later one sees the earlier. `far_from` is the seed search,
/// `g.pseudo_peripheral`.
fn grow_parts(
    g: &Graph,
    k: usize,
    far_from: impl Fn(usize) -> usize,
) -> (Vec<u32>, Vec<bool>) {
    let n = g.num_vertices();
    let mut parts = vec![u32::MAX; n];
    let mut boundary = vec![false; n];
    let mut remaining = g.total_weight();
    let mut seed = far_from(0);
    let mut free = 0usize;
    let mut frontier = Frontier { buckets: Vec::new(), top: 0 };
    // `in_part[w]` counts the neighbors of `w` inside part `counted_for[w]`.
    let mut in_part = vec![0u32; n];
    let mut counted_for = vec![u32::MAX; n];

    for p in 0..k as u32 {
        let parts_left = k as u32 - p;
        let target = remaining / parts_left as f64;
        if p == k as u32 - 1 {
            // Last part takes everything left.
            for v in 0..n {
                if parts[v] == u32::MAX {
                    parts[v] = p;
                    for &w in g.neighbors(v) {
                        let pw = parts[w as usize];
                        if pw != u32::MAX && pw != p {
                            boundary[v] = true;
                            boundary[w as usize] = true;
                        }
                    }
                }
            }
            break;
        }
        let mut grown = 0.0f64;
        if parts[seed] != u32::MAX {
            // Seed already taken — the common case from the third part
            // on, see below: start at the lowest free vertex.
            seed = next_free(&parts, &mut free).expect("earlier parts left a vertex to seed from");
        }
        frontier.clear();
        frontier.push(0, seed as u32);
        while grown < target {
            let v = loop {
                match frontier.pop() {
                    Some(v) if parts[v as usize] == u32::MAX => break Some(v as usize),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let v = match v {
                Some(v) => v,
                // Frontier exhausted (disconnected component): restart
                // from any unassigned vertex.
                None => match next_free(&parts, &mut free) {
                    Some(v) => v,
                    None => break,
                },
            };
            parts[v] = p;
            grown += g.vwgt[v];
            for &w in g.neighbors(v) {
                let w = w as usize;
                if parts[w] == u32::MAX {
                    if counted_for[w] != p {
                        counted_for[w] = p;
                        in_part[w] = 0;
                    }
                    in_part[w] += 1;
                    frontier.push(in_part[w] as usize, w as u32);
                } else if parts[w] != p {
                    boundary[v] = true;
                    boundary[w] = true;
                }
            }
        }
        remaining -= grown;
        if p + 2 < k as u32 {
            // Next seed: the far end of a walk over the *whole* graph
            // from this one (the last part is filled without one). The
            // walk does not look at assignments, so it is not "far from
            // what has been grown": on a tree-shaped mesh its answers
            // alternate between the two ends of the tree, and once both
            // are assigned every later part takes the branch above.
            seed = far_from(seed);
        }
    }
    (parts, boundary)
}

impl Grown {
    /// Greedy boundary refinement: move boundary vertices to the
    /// neighboring part where they have strictly more connections, if
    /// the move keeps the destination part within `1 + TOL` of the
    /// average weight and does not empty the source part.
    ///
    /// A vertex whose neighbors all share its part cannot move, so a
    /// pass looks only at the vertices growth or an earlier pass found
    /// on a part boundary, and at the neighbors of every vertex moved
    /// since.
    pub fn refine(self, g: &Graph, passes: usize) -> Partition {
        let Grown { mut part, mut boundary } = self;
        const TOL: f64 = 0.03;
        let n = g.num_vertices();
        let k = part.num_parts;
        let avg = g.total_weight() / k as f64;
        let max_w = avg * (1.0 + TOL);
        let mut weights = part.part_weights(g);

        let mut counts: Vec<(usize, usize)> = Vec::with_capacity(4);
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n {
                if !boundary[v] {
                    continue;
                }
                let pv = part.parts[v] as usize;
                // Count connections per neighboring part.
                let mut best_part = pv;
                let mut here = 0usize;
                let mut best = 0usize;
                counts.clear();
                for &w in g.neighbors(v) {
                    let pw = part.parts[w as usize] as usize;
                    if pw == pv {
                        here += 1;
                        continue;
                    }
                    match counts.iter_mut().find(|(p, _)| *p == pw) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((pw, 1)),
                    }
                }
                boundary[v] = !counts.is_empty();
                for &(p, c) in &counts {
                    if c > best {
                        best = c;
                        best_part = p;
                    }
                }
                if best_part != pv
                    && best > here
                    && weights[best_part] + g.vwgt[v] <= max_w
                    && weights[pv] - g.vwgt[v] > 0.0
                {
                    part.parts[v] = best_part as u32;
                    weights[pv] -= g.vwgt[v];
                    weights[best_part] += g.vwgt[v];
                    moved += 1;
                    for &w in g.neighbors(v) {
                        boundary[w as usize] = true;
                    }
                }
            }
            if moved == 0 {
                break;
            }
        }
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_testkit::prop::{check, Gen, PropConfig};
    use cfpd_testkit::Rng;
    use std::collections::BinaryHeap;

    /// The growth loop [`grow_parts`] replaced, kept as the oracle: every
    /// push recounts the in-part neighbors of the pushed vertex, and a
    /// binary heap orders the frontier by (gain, insertion counter).
    fn grow_parts_oracle(g: &Graph, k: usize) -> Vec<u32> {
        let n = g.num_vertices();
        let mut parts = vec![u32::MAX; n];
        let mut remaining = g.total_weight();
        let mut seed = g.pseudo_peripheral(0);
        for p in 0..k as u32 {
            let parts_left = k as u32 - p;
            let target = remaining / parts_left as f64;
            if p == k as u32 - 1 {
                for v in 0..n {
                    if parts[v] == u32::MAX {
                        parts[v] = p;
                    }
                }
                break;
            }
            let mut heap: BinaryHeap<(i64, std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
            let mut counter = 0u64;
            let mut grown = 0.0f64;
            if parts[seed] != u32::MAX {
                seed = (0..n).find(|&v| parts[v] == u32::MAX).unwrap();
            }
            heap.push((0, std::cmp::Reverse(counter), seed as u32));
            while grown < target {
                let v = loop {
                    match heap.pop() {
                        Some((_, _, v)) if parts[v as usize] == u32::MAX => break Some(v),
                        Some(_) => continue,
                        None => break None,
                    }
                };
                let v = match v {
                    Some(v) => v as usize,
                    None => match (0..n).find(|&v| parts[v] == u32::MAX) {
                        Some(v) => v,
                        None => break,
                    },
                };
                parts[v] = p;
                grown += g.vwgt[v];
                for &w in g.neighbors(v) {
                    if parts[w as usize] == u32::MAX {
                        let gain = g
                            .neighbors(w as usize)
                            .iter()
                            .filter(|&&x| parts[x as usize] == p)
                            .count() as i64;
                        counter += 1;
                        heap.push((gain, std::cmp::Reverse(counter), w));
                    }
                }
            }
            remaining -= grown;
            seed = g.pseudo_peripheral(seed);
        }
        parts
    }

    /// The refinement [`Grown::refine`] replaced, kept as the oracle:
    /// every pass scans every vertex.
    fn refine_oracle(g: &Graph, part: &mut Partition, passes: usize) {
        const TOL: f64 = 0.03;
        let n = g.num_vertices();
        let k = part.num_parts;
        let avg = g.total_weight() / k as f64;
        let max_w = avg * (1.0 + TOL);
        let mut weights = part.part_weights(g);

        let mut counts: Vec<(usize, usize)> = Vec::with_capacity(4);
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n {
                let pv = part.parts[v] as usize;
                let mut best_part = pv;
                let mut here = 0usize;
                let mut best = 0usize;
                counts.clear();
                for &w in g.neighbors(v) {
                    let pw = part.parts[w as usize] as usize;
                    if pw == pv {
                        here += 1;
                        continue;
                    }
                    match counts.iter_mut().find(|(p, _)| *p == pw) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((pw, 1)),
                    }
                }
                for &(p, c) in &counts {
                    if c > best {
                        best = c;
                        best_part = p;
                    }
                }
                if best_part != pv
                    && best > here
                    && weights[best_part] + g.vwgt[v] <= max_w
                    && weights[pv] - g.vwgt[v] > 0.0
                {
                    part.parts[v] = best_part as u32;
                    weights[pv] -= g.vwgt[v];
                    weights[best_part] += g.vwgt[v];
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// Growth and the refined partition must equal the oracles'; where
    /// the growth oracle gives up (mixed weights can let the early parts
    /// eat every vertex, leaving a late part without a seed) so must we.
    /// What growth reports as the part boundary must be exactly the
    /// vertices with a neighbor in another part. Refinement is also held
    /// to its oracle pass by pass, from a start that leaves it more to
    /// move than a grown partition does.
    fn assert_same_as_oracle(g: &Graph, k: usize) {
        let grow = |g: &Graph, k: usize| grow_parts(g, k, |from| g.pseudo_peripheral(from));
        let grown = std::panic::catch_unwind(|| grow_parts_oracle(g, k)).ok();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| grow(g, k))).ok();
        assert_eq!(got.as_ref().map(|(parts, _)| parts), grown.as_ref(), "growth differs, k = {k}");
        let (Some(parts), Some((_, boundary))) = (grown, got) else { return };
        for v in 0..g.num_vertices() {
            let beside = g.neighbors(v).iter().any(|&w| parts[w as usize] != parts[v]);
            assert_eq!(boundary[v], beside, "boundary flag of vertex {v} at k = {k}");
        }
        let mut want = Partition { parts, num_parts: k };
        refine_oracle(g, &mut want, 4);
        assert_eq!(partition_kway(g, k, 4).parts, want.parts, "partition differs at k = {k}");

        let n = g.num_vertices();
        let striped = Partition { parts: (0..n).map(|v| (v % k) as u32).collect(), num_parts: k };
        for passes in 0..=5 {
            let mut want = striped.clone();
            refine_oracle(g, &mut want, passes);
            // Every stripe borders the next: all flags set is a valid start.
            let got = Grown { part: striped.clone(), boundary: vec![true; n] }.refine(g, passes);
            assert_eq!(got.parts, want.parts, "{passes} passes from stripes differ at k = {k}");
        }
    }

    /// A simple undirected graph as an edge list over `n` vertices with
    /// a few distinct vertex weights, and a part count `2 <= k <= n`.
    #[derive(Debug, Clone)]
    struct Case {
        n: usize,
        edges: Vec<(u32, u32)>,
        k: usize,
    }

    impl Case {
        fn graph(&self) -> Graph {
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.n];
            for &(a, b) in &self.edges {
                rows[a as usize].push(b);
                rows[b as usize].push(a);
            }
            let mut xadj = vec![0u32];
            let mut adjncy = Vec::new();
            for row in &mut rows {
                row.sort_unstable();
                row.dedup();
                adjncy.extend_from_slice(row);
                xadj.push(adjncy.len() as u32);
            }
            let vwgt = (0..self.n).map(|v| [1.0, 1.5, 2.0][v % 3]).collect();
            Graph { xadj, adjncy, vwgt }
        }
    }

    /// Random graphs of `components` mutually unconnected blocks.
    struct RandomGraphs {
        components: usize,
    }

    impl Gen for RandomGraphs {
        type Value = Case;

        fn generate(&self, rng: &mut Rng) -> Case {
            let mut n = 0usize;
            let mut edges = Vec::new();
            for _ in 0..self.components {
                let size = rng.range_usize(2, 24);
                let density = rng.range_f64(0.05, 0.6);
                for a in 0..size {
                    for b in a + 1..size {
                        if rng.f64() < density {
                            edges.push(((n + a) as u32, (n + b) as u32));
                        }
                    }
                }
                n += size;
            }
            Case { n, edges, k: rng.range_usize(2, n + 1) }
        }

        fn shrink(&self, value: &Case) -> Vec<Case> {
            let mut out = Vec::new();
            if value.k > 2 {
                out.push(Case { k: value.k - 1, ..value.clone() });
            }
            let half = value.edges.len() / 2;
            if half > 0 {
                out.push(Case { edges: value.edges[..half].to_vec(), ..value.clone() });
                out.push(Case { edges: value.edges[half..].to_vec(), ..value.clone() });
            }
            for i in 0..value.edges.len().min(16) {
                let mut next = value.clone();
                next.edges.remove(i);
                out.push(next);
            }
            out
        }
    }

    #[test]
    fn growth_equals_the_heap_oracle_on_random_graphs() {
        for (name, components) in [("connected-ish", 1), ("disconnected", 3)] {
            check(
                &format!("bucket growth == heap oracle ({name})"),
                PropConfig::cases(200),
                &RandomGraphs { components },
                |case| assert_same_as_oracle(&case.graph(), case.k),
            );
        }
    }

    #[test]
    fn growth_equals_the_heap_oracle_on_the_airway_graph() {
        use cfpd_mesh::{generate_airway, AirwaySpec};
        let element_graph = |spec: &AirwaySpec, weighted: bool| {
            let mesh = generate_airway(spec).unwrap().mesh;
            let adj = mesh.element_adjacency(&mesh.node_to_elements());
            if weighted {
                Graph::from_csr(&adj, mesh.cost_weights())
            } else {
                Graph::from_csr_unit(&adj)
            }
        };
        let g = element_graph(&AirwaySpec::small(), true);
        assert_eq!(partition_kway(&g, 1, 4).parts, vec![0; g.num_vertices()]);
        for k in [2, 3, 16] {
            assert_same_as_oracle(&g, k);
        }
        // The production growth: seed walks over the node cliques.
        let mesh = generate_airway(&AirwaySpec::small()).unwrap().mesh;
        let n2e = mesh.node_to_elements();
        for k in [2, 3, 16] {
            let grown = grow_kway_covered(&g, &NodeCliques::of_mesh(&mesh, &n2e), k);
            assert_eq!(grown.part.parts, grow_parts_oracle(&g, k), "covered growth, k = {k}");
        }
        // One part per vertex costs one seed search per vertex: a
        // single-generation airway keeps that affordable.
        let g = element_graph(&AirwaySpec { generations: 1, ..AirwaySpec::small() }, false);
        assert_same_as_oracle(&g, g.num_vertices());
    }

    /// Grid graph of `nx * ny` vertices (4-neighborhood).
    fn grid(nx: usize, ny: usize) -> Graph {
        let idx = |x: usize, y: usize| (y * nx + x) as u32;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x > 0 {
                    adjncy.push(idx(x - 1, y));
                }
                if x + 1 < nx {
                    adjncy.push(idx(x + 1, y));
                }
                if y > 0 {
                    adjncy.push(idx(x, y - 1));
                }
                if y + 1 < ny {
                    adjncy.push(idx(x, y + 1));
                }
                xadj.push(adjncy.len() as u32);
            }
        }
        Graph { xadj, adjncy, vwgt: vec![1.0; nx * ny] }
    }

    #[test]
    fn every_vertex_assigned_exactly_one_part() {
        let g = grid(10, 10);
        let p = partition_kway(&g, 4, 4);
        assert_eq!(p.parts.len(), 100);
        assert!(p.parts.iter().all(|&x| (x as usize) < 4));
    }

    #[test]
    fn parts_reasonably_balanced() {
        let g = grid(16, 16);
        let p = partition_kway(&g, 8, 6);
        let lb = p.load_balance(&g);
        assert!(lb > 0.85, "load balance {lb} too poor");
    }

    #[test]
    fn edge_cut_much_smaller_than_total_edges() {
        let g = grid(20, 20);
        let p = partition_kway(&g, 4, 6);
        let total_edges = g.adjncy.len() / 2;
        let cut = p.edge_cut(&g);
        assert!(
            cut * 4 < total_edges,
            "cut {cut} should be far below {total_edges}"
        );
    }

    #[test]
    fn single_part_trivial() {
        let g = grid(5, 5);
        let p = partition_kway(&g, 1, 3);
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.load_balance(&g), 1.0);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn k_equals_n_each_vertex_its_own_part() {
        let g = grid(3, 3);
        let p = partition_kway(&g, 9, 2);
        let w = p.part_weights(&g);
        // All parts non-empty.
        assert!(w.iter().all(|&x| x > 0.0), "{w:?}");
    }

    #[test]
    fn weighted_balance_accounts_for_weights() {
        // Two heavy vertices must not land in the same part when k = 2
        // and everything else is light.
        let mut g = grid(8, 8);
        g.vwgt[0] = 20.0;
        g.vwgt[63] = 20.0;
        let p = partition_kway(&g, 2, 6);
        assert_ne!(p.parts[0], p.parts[63]);
        assert!(p.load_balance(&g) > 0.8);
    }

    #[test]
    fn handles_disconnected_graph() {
        // Two disjoint triangles.
        let g = Graph {
            xadj: vec![0, 2, 4, 6, 8, 10, 12],
            adjncy: vec![1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4],
            vwgt: vec![1.0; 6],
        };
        let p = partition_kway(&g, 2, 2);
        assert!(p.parts.iter().all(|&x| x < 2));
        let w = p.part_weights(&g);
        assert!(w[0] > 0.0 && w[1] > 0.0);
    }

    #[test]
    fn part_members_partition_the_vertex_set() {
        let g = grid(7, 9);
        let p = partition_kway(&g, 5, 3);
        let members = p.part_members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 63);
        let mut seen = vec![false; 63];
        for m in &members {
            for &v in m {
                assert!(!seen[v as usize], "vertex {v} in two parts");
                seen[v as usize] = true;
            }
        }
    }
}
