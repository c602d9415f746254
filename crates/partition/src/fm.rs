//! Fiduccia–Mattheyses-style local search for the partition objective.
//!
//! Multi-restart greedy vertex moves: from a seeded assignment, repeatedly
//! relocate the vertex with the best cut-gain to another block with spare
//! capacity, until no positive-gain move exists, with a pairwise swap pass
//! for capacity-saturated partitions. A move pass is O(n · Δ) but a swap
//! pass visits every vertex pair, so a refinement is O(passes · n²). This
//! is the anytime workhorse above exact-search sizes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs_graph::{metrics, Graph};

/// Greedy BFS seeding: grow blocks of ≤ `g_max` vertices by breadth-first
/// expansion, which respects locality on lattices and meshes.
pub fn bfs_seed(g: &Graph, num_blocks: usize, g_max: usize) -> Vec<usize> {
    let n = g.vertex_count();
    let mut assign = vec![usize::MAX; n];
    let mut block = 0usize;
    let mut size = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if assign[start] != usize::MAX {
            continue;
        }
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            if assign[v] != usize::MAX {
                continue;
            }
            if size == g_max {
                block = (block + 1).min(num_blocks - 1);
                size = 0;
            }
            assign[v] = block;
            size += 1;
            for &w in g.neighbors(v) {
                if assign[w] == usize::MAX {
                    queue.push_back(w);
                }
            }
        }
    }
    assign
}

/// Flattened (CSR) adjacency: `neighbors[offsets[v]..offsets[v + 1]]` are
/// `v`'s neighbors in ascending order — the same order [`Graph::neighbors`]
/// iterates, but as one contiguous slice per vertex. The refinement passes
/// sweep neighborhoods millions of times per partition search; slice
/// iteration instead of `BTreeSet` pointer-chasing is a multi-× win there.
struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
}

impl Csr {
    fn new(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in 0..n {
            neighbors.extend(g.neighbors(v).iter().copied());
            offsets.push(neighbors.len());
        }
        Csr { offsets, neighbors }
    }

    #[inline]
    fn nbrs(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// One greedy improvement pass; returns whether any move was made.
fn improve_pass(
    csr: &Csr,
    assign: &mut [usize],
    sizes: &mut [usize],
    g_max: usize,
    order: &[usize],
    cost: &mut [isize],
) -> bool {
    let num_blocks = sizes.len();
    let mut moved = false;
    for &v in order {
        let from = assign[v];
        // Cost of v under each block = edges from v to other blocks, i.e.
        // degree minus the in-block neighbor count.
        let nbrs = csr.nbrs(v);
        cost.fill(nbrs.len() as isize);
        for &w in nbrs {
            cost[assign[w]] -= 1;
        }
        let mut best_b = from;
        let mut best_cost = cost[from];
        for b in 0..num_blocks {
            if b != from && sizes[b] < g_max && cost[b] < best_cost {
                best_b = b;
                best_cost = cost[b];
            }
        }
        if best_b != from {
            sizes[from] -= 1;
            sizes[best_b] += 1;
            assign[v] = best_b;
            moved = true;
        }
    }
    moved
}

/// Multi-restart FM-style search. Returns `(block_of, cut)`.
pub fn fm_partition(
    g: &Graph,
    num_blocks: usize,
    g_max: usize,
    restarts: usize,
    seed: u64,
) -> (Vec<usize>, usize) {
    let n = g.vertex_count();
    let csr = Csr::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best_assign = bfs_seed(g, num_blocks, g_max);
    let mut scratch = RefineScratch::new(n, num_blocks);
    refine(
        &csr,
        &mut best_assign,
        num_blocks,
        g_max,
        &mut rng,
        &mut scratch,
    );
    let mut best_cut = metrics::cut_edges(g, &best_assign);
    let mut assign = vec![0usize; n];
    for _ in 0..restarts {
        // Random balanced seed.
        let perm = &mut scratch.perm;
        perm.clear();
        perm.extend(0..n);
        perm.shuffle(&mut rng);
        for (i, &v) in perm.iter().enumerate() {
            assign[v] = (i / g_max).min(num_blocks - 1);
        }
        refine(&csr, &mut assign, num_blocks, g_max, &mut rng, &mut scratch);
        let cut = metrics::cut_edges(g, &assign);
        if cut < best_cut {
            best_cut = cut;
            std::mem::swap(&mut best_assign, &mut assign);
        }
    }
    (best_assign, best_cut)
}

/// One greedy swap pass (handles capacity-saturated partitions where single
/// moves are blocked); returns whether any swap was made.
///
/// The pair gain is evaluated in O(1) from `cnt` — `cnt[v·nb + b]` counts
/// `v`'s neighbors in block `b` under the current assignment (the caller
/// builds it; accepted swaps maintain it). Swapping `v ∈ bv` with
/// `w ∈ bw` lowers the cut by `(cnt[v][bw] − cnt[v][bv]) + (cnt[w][bv] −
/// cnt[w][bw]) − 2·adj`, where `adj = 1` iff `v ~ w` (that edge stays cut,
/// yet each endpoint's count places the other in its new block). The
/// adjacency term only lowers the gain, so a pair whose gain is already
/// ≤ 0 without it is rejected before the `binary_search`; the same swaps
/// are accepted in the same order as when every pair paid for the search.
fn swap_pass(csr: &Csr, assign: &mut [usize], cnt: &mut [isize], num_blocks: usize) -> bool {
    let n = assign.len();
    let mut swapped = false;
    for v in 0..n {
        for w in (v + 1)..n {
            let (bv, bw) = (assign[v], assign[w]);
            if bv == bw {
                continue;
            }
            let gain = (cnt[v * num_blocks + bw] - cnt[v * num_blocks + bv])
                + (cnt[w * num_blocks + bv] - cnt[w * num_blocks + bw]);
            if gain <= 0 {
                continue;
            }
            let adj = csr.nbrs(v).binary_search(&w).is_ok() as isize;
            if gain - 2 * adj > 0 {
                swapped = true;
                assign[v] = bw;
                assign[w] = bv;
                for &u in csr.nbrs(v) {
                    cnt[u * num_blocks + bv] -= 1;
                    cnt[u * num_blocks + bw] += 1;
                }
                for &u in csr.nbrs(w) {
                    cnt[u * num_blocks + bw] -= 1;
                    cnt[u * num_blocks + bv] += 1;
                }
            }
        }
    }
    swapped
}

/// Buffers reused across [`refine`] runs of one partition search.
struct RefineScratch {
    sizes: Vec<usize>,
    order: Vec<usize>,
    perm: Vec<usize>,
    cost: Vec<isize>,
    /// Per-vertex neighbors-per-block counts for [`swap_pass`].
    cnt: Vec<isize>,
}

impl RefineScratch {
    fn new(n: usize, num_blocks: usize) -> Self {
        RefineScratch {
            sizes: vec![0; num_blocks],
            order: Vec::with_capacity(n),
            perm: Vec::with_capacity(n),
            cost: vec![0; num_blocks],
            cnt: vec![0; n * num_blocks],
        }
    }
}

fn refine(
    csr: &Csr,
    assign: &mut [usize],
    num_blocks: usize,
    g_max: usize,
    rng: &mut StdRng,
    scratch: &mut RefineScratch,
) {
    let n = assign.len();
    let sizes = &mut scratch.sizes;
    sizes.clear();
    sizes.resize(num_blocks, 0);
    for &b in assign.iter() {
        sizes[b] += 1;
    }
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n);
    for _ in 0..8 {
        order.shuffle(rng);
        let moved = improve_pass(csr, assign, sizes, g_max, order, &mut scratch.cost);
        // Rebuild the neighbors-per-block counts after the move pass, then
        // let swap_pass maintain them incrementally.
        let cnt = &mut scratch.cnt;
        cnt.clear();
        cnt.resize(n * num_blocks, 0);
        for v in 0..n {
            for &w in csr.nbrs(v) {
                cnt[v * num_blocks + assign[w]] += 1;
            }
        }
        let swapped = swap_pass(csr, assign, cnt, num_blocks);
        if !moved && !swapped {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_cut;
    use epgs_graph::generators;

    #[test]
    fn bfs_seed_respects_capacity() {
        let g = generators::lattice(3, 4);
        let assign = bfs_seed(&g, 2, 6);
        let mut sizes = vec![0usize; 2];
        for &b in &assign {
            sizes[b] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 6), "{sizes:?}");
    }

    #[test]
    fn fm_matches_exact_on_small_graphs() {
        for (g, blocks, cap) in [
            (generators::path(8), 2, 4),
            (generators::cycle(8), 2, 4),
            (generators::lattice(2, 4), 2, 4),
            (generators::tree(9, 2), 3, 3),
        ] {
            let (_, exact) = exact_min_cut(&g, blocks, cap);
            let (assign, fm) = fm_partition(&g, blocks, cap, 10, 1);
            assert_eq!(fm, metrics::cut_edges(&g, &assign));
            assert!(
                fm <= exact + 1,
                "fm={fm} exact={exact} on {} vertices",
                g.vertex_count()
            );
        }
    }

    #[test]
    fn fm_capacity_respected() {
        let g = generators::lattice(4, 4);
        let (assign, _) = fm_partition(&g, 3, 6, 5, 2);
        let mut sizes = vec![0usize; 3];
        for &b in &assign {
            sizes[b] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 6), "{sizes:?}");
    }

    #[test]
    fn fm_is_deterministic_per_seed() {
        let g = generators::lattice(3, 5);
        let a = fm_partition(&g, 3, 5, 6, 9);
        let b = fm_partition(&g, 3, 5, 6, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn improves_over_naive_split_on_lattice() {
        let g = generators::lattice(4, 6);
        // Naive contiguous split by index.
        let naive: Vec<usize> = (0..24).map(|v| v / 8).collect();
        let naive_cut = metrics::cut_edges(&g, &naive);
        let (_, fm) = fm_partition(&g, 3, 8, 10, 3);
        assert!(fm <= naive_cut, "fm={fm} naive={naive_cut}");
    }
}
