//! Fiduccia–Mattheyses-style local search for the partition objective.
//!
//! Multi-restart greedy vertex moves: from a seeded assignment, visit the
//! vertices in a shuffled order and move each to the block with spare
//! capacity that holds most of its neighbors, while any move lowers the
//! cut, with a pairwise swap pass for capacity-saturated partitions. One
//! neighbors-per-block table per refinement scores both passes: it is
//! built once (O(n · Δ)), and each accepted move or swap updates the rows
//! of the moved vertices' neighbors (O(Δ)). A move pass then reads one row
//! per vertex (O(n · k) for `k` blocks), and a swap pass scores every
//! vertex pair in O(1) each, so a refinement is O(passes · n²). This is
//! the anytime workhorse above exact-search sizes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs_graph::Graph;

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
/// The LC beam ranks its expansions above the V-cycle cutoff over the
/// same layout.
pub(crate) struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
}

impl Csr {
    pub(crate) fn new(g: &Graph) -> Self {
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
    pub(crate) fn nbrs(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Moves `v` from block `from` to block `to` in the neighbors-per-block
/// table: each neighbor of `v` now counts one more neighbor in `to` and one
/// fewer in `from`.
#[inline]
fn shift(csr: &Csr, cnt: &mut [isize], num_blocks: usize, v: usize, from: usize, to: usize) {
    for &u in csr.nbrs(v) {
        cnt[u * num_blocks + from] -= 1;
        cnt[u * num_blocks + to] += 1;
    }
}

/// One greedy improvement pass; returns whether any move was made.
///
/// Each vertex, read off its row of `cnt`, moves to the block with spare
/// capacity that holds the most of its neighbors (the first such block on
/// ties) if that beats its own block's count; its own block never beats
/// its own count, so it needs no test of its own. A move updates the rows
/// of the vertex's neighbors.
fn improve_pass(
    csr: &Csr,
    assign: &mut [usize],
    sizes: &mut [usize],
    cnt: &mut [isize],
    g_max: usize,
    order: &[usize],
) -> bool {
    let num_blocks = sizes.len();
    let mut moved = false;
    for &v in order {
        let from = assign[v];
        let row = &cnt[v * num_blocks..(v + 1) * num_blocks];
        let mut best_b = from;
        let mut best = row[from];
        for (b, &c) in row.iter().enumerate() {
            if c > best && sizes[b] < g_max {
                best_b = b;
                best = c;
            }
        }
        if best_b != from {
            sizes[from] -= 1;
            sizes[best_b] += 1;
            assign[v] = best_b;
            shift(csr, cnt, num_blocks, v, from, best_b);
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
    let mut best_cut = refine(
        &csr,
        &mut best_assign,
        num_blocks,
        g_max,
        &mut rng,
        &mut scratch,
    );
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
        let cut = refine(&csr, &mut assign, num_blocks, g_max, &mut rng, &mut scratch);
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
/// The pair gain is evaluated in O(1) from `cnt`: swapping `v ∈ bv` with
/// `w ∈ bw` lowers the cut by `(cnt[v][bw] − cnt[v][bv]) + (cnt[w][bv] −
/// cnt[w][bw]) − 2·adj`, where `adj = 1` iff `v ~ w` (that edge stays cut,
/// yet each endpoint's count places the other in its new block). A
/// same-block pair's gain is exactly 0, so `gain > 0` rejects it with no
/// test of its own. The adjacency term only lowers the gain, so a pair
/// whose gain is already ≤ 0 without it is rejected before the
/// `binary_search`; accepted swaps maintain `cnt`.
fn swap_pass(csr: &Csr, assign: &mut [usize], cnt: &mut [isize], num_blocks: usize) -> bool {
    let n = assign.len();
    let mut swapped = false;
    for v in 0..n {
        for w in (v + 1)..n {
            let (bv, bw) = (assign[v], assign[w]);
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
                shift(csr, cnt, num_blocks, v, bv, bw);
                shift(csr, cnt, num_blocks, w, bw, bv);
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
    /// `cnt[v·nb + b]` counts `v`'s neighbors in block `b` under the
    /// current assignment: built once per [`refine`], then kept current by
    /// every move of [`improve_pass`] and every swap of [`swap_pass`].
    cnt: Vec<isize>,
}

impl RefineScratch {
    fn new(n: usize, num_blocks: usize) -> Self {
        RefineScratch {
            sizes: vec![0; num_blocks],
            order: Vec::with_capacity(n),
            perm: Vec::with_capacity(n),
            cnt: vec![0; n * num_blocks],
        }
    }
}

/// Refines `assign` in place by alternating move and swap passes until a
/// round changes nothing (at most 8 rounds); returns the final cut.
fn refine(
    csr: &Csr,
    assign: &mut [usize],
    num_blocks: usize,
    g_max: usize,
    rng: &mut StdRng,
    scratch: &mut RefineScratch,
) -> usize {
    let n = assign.len();
    let sizes = &mut scratch.sizes;
    sizes.clear();
    sizes.resize(num_blocks, 0);
    for &b in assign.iter() {
        sizes[b] += 1;
    }
    let cnt = &mut scratch.cnt;
    cnt.clear();
    cnt.resize(n * num_blocks, 0);
    for v in 0..n {
        for &w in csr.nbrs(v) {
            cnt[v * num_blocks + assign[w]] += 1;
        }
    }
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n);
    for _ in 0..8 {
        order.shuffle(rng);
        let moved = improve_pass(csr, assign, sizes, cnt, g_max, order);
        let swapped = swap_pass(csr, assign, cnt, num_blocks);
        if !moved && !swapped {
            break;
        }
    }
    // A vertex's cut edges are its degree minus its neighbors in its own
    // block; summing over vertices counts each cut edge from both ends.
    let cut_ends: usize = (0..n)
        .map(|v| csr.nbrs(v).len() - cnt[v * num_blocks + assign[v]] as usize)
        .sum();
    cut_ends / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_cut;
    use epgs_graph::{generators, metrics};

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
