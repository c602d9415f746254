//! Emission-ordering strategies.
//!
//! The commutation freedom of graph-state CZs lets photons be emitted in any
//! order (paper §II.A); the order drives the height function and therefore
//! the emitter count, the number of time-reversed measurements, and the
//! emitter-emitter CNOT count. This module provides the deterministic
//! strategies plus the connectivity-respecting random sampler that seeds
//! the subgraph compiler's extra orderings.

use rand::seq::SliceRandom;
use rand::Rng;

use epgs_graph::Graph;

/// Natural ordering `0..n`.
pub fn natural(g: &Graph) -> Vec<usize> {
    (0..g.vertex_count()).collect()
}

/// Breadth-first order from the lowest-index vertex of each component.
pub fn bfs(g: &Graph) -> Vec<usize> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in g.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

/// Depth-first order that always descends into the lowest-degree unvisited
/// neighbor first — the paper's §IV.B heuristic ("prioritizing the reduction
/// of lower-degree vertices"), read forward.
pub fn degree_dfs(g: &Graph) -> Vec<usize> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Start from a minimum-degree vertex of each component.
    let mut starts: Vec<usize> = (0..n).collect();
    starts.sort_by_key(|&v| g.degree(v));
    for &start in &starts {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            order.push(v);
            let mut nbrs: Vec<usize> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| !seen[w])
                .collect();
            // Highest degree deepest in the stack → lowest degree popped first.
            nbrs.sort_by_key(|&w| std::cmp::Reverse(g.degree(w)));
            for w in nbrs {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    order
}

/// A random *connectivity-respecting* order: grows a connected front,
/// picking the next photon uniformly among neighbors of the emitted prefix.
/// These orders keep the height function low on sparse graphs.
pub fn random_connected<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Vec<usize> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut frontier: Vec<usize> = Vec::new();
    while order.len() < n {
        let v = if frontier.is_empty() {
            // New component: uniformly random unvisited vertex.
            let choices: Vec<usize> = (0..n).filter(|&v| !seen[v]).collect();
            *choices.choose(rng).expect("unvisited vertices remain")
        } else {
            let idx = rng.gen_range(0..frontier.len());
            frontier.swap_remove(idx)
        };
        if seen[v] {
            continue;
        }
        seen[v] = true;
        order.push(v);
        for &w in g.neighbors(v) {
            if !seen[w] {
                frontier.push(w);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_permutation(order: &[usize], n: usize) {
        let mut seen = vec![false; n];
        assert_eq!(order.len(), n);
        for &v in order {
            assert!(v < n && !seen[v], "not a permutation: {order:?}");
            seen[v] = true;
        }
    }

    #[test]
    fn all_strategies_give_permutations() {
        let g = generators::lattice(3, 4);
        let mut rng = StdRng::seed_from_u64(5);
        assert_permutation(&natural(&g), 12);
        assert_permutation(&bfs(&g), 12);
        assert_permutation(&degree_dfs(&g), 12);
        assert_permutation(&random_connected(&g, &mut rng), 12);
    }

    #[test]
    fn bfs_starts_at_zero_and_expands() {
        let g = generators::path(5);
        assert_eq!(bfs(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn degree_dfs_starts_at_a_leaf() {
        let g = generators::star(5);
        let order = degree_dfs(&g);
        assert_ne!(order[0], 0, "hub has max degree, must not start there");
    }

    #[test]
    fn random_connected_prefixes_are_connected() {
        let g = generators::lattice(3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let order = random_connected(&g, &mut rng);
            assert_permutation(&order, 9);
            for j in 1..order.len() {
                let (sub, _) = g.induced_subgraph(&order[..j]);
                assert!(sub.is_connected(), "prefix {j} of {order:?} disconnected");
            }
        }
    }

    #[test]
    fn disconnected_graphs_are_covered() {
        let mut g = generators::path(3);
        let v = g.add_vertex();
        assert_eq!(v, 3);
        let mut rng = StdRng::seed_from_u64(3);
        assert_permutation(&bfs(&g), 4);
        assert_permutation(&degree_dfs(&g), 4);
        assert_permutation(&random_connected(&g, &mut rng), 4);
    }
}
