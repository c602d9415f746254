//! The per-round reference of the FM refinement kernel.
//!
//! This is `epgs_partition::fm` as it was before the neighbors-per-block
//! table was maintained across a whole `refine`: the move pass recomputes
//! a per-block cost vector from each vertex's neighbors, the table is
//! rebuilt from scratch after every move pass, the swap pass skips
//! same-block pairs explicitly, and each restart's cut is recounted over
//! the `BTreeSet` graph with `metrics::cut_edges`. The seeding
//! ([`bfs_seed`]) is shared with the production kernel. Kept as the oracle
//! the production search must match assignment for assignment; do not
//! optimize it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs_graph::{metrics, Graph};
use epgs_partition::fm::bfs_seed;

/// Flattened (CSR) adjacency: `neighbors[offsets[v]..offsets[v + 1]]` are
/// `v`'s neighbors in ascending order.
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

/// One greedy swap pass; returns whether any swap was made. `cnt[v·nb + b]`
/// counts `v`'s neighbors in block `b` (the caller builds it; accepted
/// swaps maintain it).
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
