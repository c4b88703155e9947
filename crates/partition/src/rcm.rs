//! Reverse Cuthill–McKee node reordering.
//!
//! The airway generator numbers nodes in extrusion order (ring by ring,
//! branch by branch), which leaves the node-node CSR pattern with a
//! bandwidth proportional to the tube circumference × branch count. RCM
//! renumbers nodes by a breadth-first sweep from a pseudo-peripheral
//! start (neighbors visited in increasing-degree order, final order
//! reversed), clustering each node's stencil into a narrow index band —
//! the classic locality transform for FEM matrices (George & Liu).
//!
//! The permutation convention throughout is `perm[old] = new`; the
//! element order is untouched, so partitions, colorings and subdomain
//! decompositions built on element adjacency are unaffected.

use cfpd_mesh::Csr;

/// Visit order of an RCM sweep: `order[new] = old`. Every connected
/// component is swept from its own pseudo-peripheral start; components
/// are taken in order of their minimum node index, so the result is
/// deterministic.
fn rcm_order(adj: &Csr) -> Vec<u32> {
    let n = adj.len();
    let degree = |v: usize| adj.row(v).len();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut component = Vec::new();
    let mut neighbors: Vec<u32> = Vec::new();

    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let start = pseudo_peripheral(adj, seed);
        // BFS from `start`, queueing each node's unvisited neighbors in
        // increasing-degree order (ties by index, for determinism).
        component.clear();
        component.push(start as u32);
        visited[start] = true;
        let mut head = 0;
        while head < component.len() {
            let v = component[head] as usize;
            head += 1;
            neighbors.clear();
            neighbors.extend(adj.row(v).iter().copied().filter(|&w| !visited[w as usize]));
            neighbors.sort_unstable_by_key(|&w| (degree(w as usize), w));
            for &w in &neighbors {
                visited[w as usize] = true;
                component.push(w);
            }
        }
        // Reverse within the component (the "R" in RCM).
        order.extend(component.iter().rev());
    }
    order
}

/// Pseudo-peripheral node of `seed`'s component: repeat BFS from the
/// minimum-degree node of the deepest level until the eccentricity
/// stops growing (George–Liu heuristic, deterministic tie-breaks).
fn pseudo_peripheral(adj: &Csr, seed: usize) -> usize {
    let mut start = seed;
    let mut level = vec![u32::MAX; adj.len()];
    let mut frontier = Vec::new();
    let mut depth_prev = 0u32;
    for _ in 0..4 {
        // BFS recording levels; only the component of `start` is touched.
        for &v in &frontier {
            level[v as usize] = u32::MAX;
        }
        frontier.clear();
        frontier.push(start as u32);
        level[start] = 0;
        let mut head = 0;
        let mut depth = 0u32;
        while head < frontier.len() {
            let v = frontier[head] as usize;
            head += 1;
            depth = level[v];
            for &w in adj.row(v) {
                if level[w as usize] == u32::MAX {
                    level[w as usize] = level[v] + 1;
                    frontier.push(w);
                }
            }
        }
        // Minimum-degree node in the deepest level, smallest index first.
        let next = frontier
            .iter()
            .filter(|&&v| level[v as usize] == depth)
            .min_by_key(|&&v| (adj.row(v as usize).len(), v))
            .map(|&v| v as usize)
            .unwrap_or(start);
        if depth <= depth_prev && depth_prev > 0 {
            break;
        }
        depth_prev = depth;
        start = next;
    }
    start
}

/// RCM node permutation, `perm[old] = new`. Guaranteed never worse than
/// the identity: if the RCM sweep does not shrink the bandwidth of
/// `adj` (possible on already well-ordered graphs), the identity
/// permutation is returned instead.
pub fn rcm_perm(adj: &Csr) -> Vec<u32> {
    let order = rcm_order(adj);
    let perm = invert_perm(&order);
    if bandwidth_under_perm(adj, &perm) <= csr_bandwidth(adj) {
        perm
    } else {
        (0..adj.len() as u32).collect()
    }
}

/// Invert a permutation: if `p[a] = b` then `invert_perm(p)[b] = a`.
pub fn invert_perm(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (a, &b) in perm.iter().enumerate() {
        inv[b as usize] = a as u32;
    }
    inv
}

/// Bandwidth of a CSR adjacency: `max |i - j|` over all stored edges
/// (0 for a diagonal-only or empty pattern).
pub fn csr_bandwidth(adj: &Csr) -> usize {
    let mut bw = 0usize;
    for i in 0..adj.len() {
        for &j in adj.row(i) {
            bw = bw.max(i.abs_diff(j as usize));
        }
    }
    bw
}

/// Bandwidth the pattern would have after renumbering with
/// `perm[old] = new`.
pub fn bandwidth_under_perm(adj: &Csr, perm: &[u32]) -> usize {
    let mut bw = 0usize;
    for i in 0..adj.len() {
        let pi = perm[i] as usize;
        for &j in adj.row(i) {
            bw = bw.max(pi.abs_diff(perm[j as usize] as usize));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-...-(n-1) but numbered so the natural order is
    /// terrible: node i sits at position (i * stride) mod n.
    fn scrambled_path(n: usize, stride: usize) -> Csr {
        assert_eq!(gcd(n, stride), 1, "stride must be coprime with n");
        let pos: Vec<usize> = (0..n).map(|i| (i * stride) % n).collect();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n - 1 {
            let (a, b) = (pos[i], pos[i + 1]);
            rows[a].push(b as u32);
            rows[b].push(a as u32);
        }
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for mut r in rows {
            r.sort_unstable();
            targets.extend_from_slice(&r);
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 { a } else { gcd(b, a % b) }
    }

    #[test]
    fn path_graph_reaches_bandwidth_one() {
        let adj = scrambled_path(101, 37);
        assert!(csr_bandwidth(&adj) > 1);
        let perm = rcm_perm(&adj);
        assert_eq!(bandwidth_under_perm(&adj, &perm), 1);
    }

    #[test]
    fn order_and_perm_are_inverse_bijections() {
        let adj = scrambled_path(53, 24);
        let order = rcm_order(&adj);
        let perm = invert_perm(&order);
        let mut seen = vec![false; 53];
        for &v in &perm {
            assert!(!seen[v as usize], "duplicate image {v}");
            seen[v as usize] = true;
        }
        for (new, &old) in order.iter().enumerate() {
            assert_eq!(perm[old as usize] as usize, new);
        }
    }

    #[test]
    fn disconnected_components_all_covered() {
        // Two disjoint triangles.
        let offsets = vec![0u32, 2, 4, 6, 8, 10, 12];
        let targets = vec![1u32, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4];
        let adj = Csr { offsets, targets };
        let order = rcm_order(&adj);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<u32>>());
    }

    #[test]
    fn never_worse_than_identity() {
        // Already optimally ordered path: identity must be kept or matched.
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        let n = 40;
        for i in 0..n {
            if i > 0 {
                targets.push(i as u32 - 1);
            }
            if i + 1 < n {
                targets.push(i as u32 + 1);
            }
            offsets.push(targets.len() as u32);
        }
        let adj = Csr { offsets, targets };
        let perm = rcm_perm(&adj);
        assert!(bandwidth_under_perm(&adj, &perm) <= csr_bandwidth(&adj));
    }
}
