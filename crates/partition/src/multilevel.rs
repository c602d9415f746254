//! METIS-style multilevel partitioner: coarsen → partition → uncoarsen.
//!
//! The flat FM search (`crate::fm`) scales as O(restarts · passes · n²) once
//! its swap pass engages, which made the partition stage ~98% of end-to-end
//! compile time at n = 100 before this module. The multilevel scheme
//! replaces that with the classic three-phase pipeline:
//!
//! 1. **Coarsen** — deterministic seeded heavy-edge matching folds matched
//!    vertex pairs into weighted coarse vertices (edge weights accumulate
//!    multiplicities) until the graph fits under
//!    [`MultilevelOptions::coarsen_cutoff`]. Each level tries
//!    [`MultilevelOptions::matching_rounds`] seeded matchings and keeps the
//!    one with the fewest coarse vertices (ties: first tried), so the
//!    hierarchy is a pure function of `(graph, g_max, seed, options)`.
//! 2. **Initial partition** — the coarse graph is tiny; a weighted
//!    branch-and-bound (the weighted counterpart of
//!    [`crate::exact::exact_min_cut`], same symmetry breaking) solves it
//!    exactly when it has ≤ [`EXACT_LIMIT`] vertices, otherwise a greedy
//!    weighted placement polished by a short Metropolis walk
//!    (`metropolis_polish`) seeds the refinement.
//! 3. **Uncoarsen** — the assignment is projected level by level
//!    (`fine[v] = coarse[map[v]]`) and refined at every level against one
//!    block-connectivity table (weight from each vertex to each block),
//!    built once per level and updated in O(degree) by every accepted
//!    move, so each gain is one lookup: a rebalance drain restores the
//!    capacity bound, then boundary move passes propose per-vertex best
//!    moves from the table as it stands (**in parallel** on large levels)
//!    and apply them **sequentially in vertex-index order** (re-checking
//!    each gain at apply time), so the result is bit-identical regardless
//!    of thread count — the same determinism contract as
//!    `compile_subgraph`. Swap passes break move stalls.
//!
//! Capacity is *soft* at coarse levels: `num_blocks = ⌈n / g_max⌉` leaves
//! near-zero slack, and bin-packing weighted coarse vertices into that
//! capacity can be infeasible (a path of weight-2 vertices cannot make an
//! odd block sum), so coarse levels tolerate overflow and each level's drain
//! pass moves vertices out of overweight blocks when a feasible move exists.
//! At the finest level every vertex has weight 1 and `⌈n / g_max⌉` blocks
//! always have room, so the drain provably terminates with every block at or
//! under `g_max` — the returned partition is strictly feasible.
//!
//! Graphs at or below `coarsen_cutoff` delegate to [`fm_partition`] with
//! identical arguments, reproducing the flat scheme byte for byte there.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use epgs_graph::{metrics, Graph};

use crate::fm::fm_partition;
use crate::spec::MultilevelOptions;

/// Coarse graphs at or below this size are solved by the weighted
/// branch-and-bound instead of greedy + Metropolis.
pub const EXACT_LIMIT: usize = 14;

/// Node budget of the weighted branch-and-bound (falls back to the greedy
/// placement when exhausted, which keeps worst-case latency bounded).
const EXACT_NODE_BUDGET: usize = 200_000;

/// Coarsening stops early when a level shrinks by less than this fraction —
/// near-stalled matchings (many isolated or saturated vertices) would
/// otherwise append useless levels.
const MIN_SHRINK: f64 = 0.05;

/// Move proposals are computed through the parallel iterator only at levels
/// with at least this many vertices: below it the per-pass dispatch costs
/// more than the O(n · degree) gain scan itself. The sequential branch
/// computes the identical proposal vector (the parallel map is pure and
/// order-preserving), so results do not depend on which branch ran.
const PAR_THRESHOLD: usize = 512;

/// A weighted graph level in CSR form. Level 0 is the input graph with unit
/// weights; deeper levels carry folded vertex weights and edge
/// multiplicities so the weighted cut at any level equals the fine-graph
/// edge cut of the projected assignment.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    nbrs: Vec<usize>,
    /// Edge weight (multiplicity), parallel to `nbrs`.
    ewts: Vec<u64>,
    /// Vertex weight = number of finest-level vertices folded in.
    vwts: Vec<u64>,
}

impl WeightedGraph {
    /// Wraps a plain graph as a unit-weight level.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in 0..n {
            nbrs.extend(g.neighbors(v).iter().copied());
            offsets.push(nbrs.len());
        }
        let ewts = vec![1u64; nbrs.len()];
        WeightedGraph {
            offsets,
            nbrs,
            ewts,
            vwts: vec![1u64; n],
        }
    }

    /// Number of vertices at this level.
    pub fn vertex_count(&self) -> usize {
        self.vwts.len()
    }

    /// Number of (distinct) edges at this level.
    pub fn edge_count(&self) -> usize {
        self.nbrs.len() / 2
    }

    /// Weight of vertex `v` (finest-level vertices folded into it).
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vwts[v]
    }

    /// Neighbors of `v` (ascending) with their edge weights.
    #[inline]
    fn edges_of(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let r = self.offsets[v]..self.offsets[v + 1];
        self.nbrs[r.clone()]
            .iter()
            .copied()
            .zip(self.ewts[r].iter().copied())
    }

    /// Weighted cut of `assign` — equals the finest-level edge cut of the
    /// projected assignment because edge weights are fold multiplicities.
    pub fn cut(&self, assign: &[usize]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.vertex_count() {
            for (w, ew) in self.edges_of(v) {
                if w > v && assign[v] != assign[w] {
                    cut += ew;
                }
            }
        }
        cut
    }
}

/// Weight from every vertex to every block under the live assignment, as a
/// dense `vertices × blocks` table kept exact by [`BlockConn::relocate`]
/// (O(degree) per move), so every gain the refinement passes read is one
/// lookup. One buffer, sized for the finest level, serves every level of a
/// call: [`BlockConn::fill`] and [`BlockConn::clear`] each walk the
/// adjacency once, so no level pays O(vertices × blocks) to zero it. Entries
/// are `u32`: one entry is at most the finest graph's edge count.
struct BlockConn {
    blocks: usize,
    table: Vec<u32>,
}

impl BlockConn {
    /// An all-zero table for levels of at most `vertices` vertices.
    fn new(vertices: usize, blocks: usize) -> Self {
        BlockConn {
            blocks,
            table: vec![0; vertices * blocks],
        }
    }

    #[inline]
    fn slot(&self, v: usize, b: usize) -> usize {
        v * self.blocks + b
    }

    /// Weighted connectivity of `v` to block `b`.
    #[inline]
    fn get(&self, v: usize, b: usize) -> u64 {
        u64::from(self.table[self.slot(v, b)])
    }

    /// Loads `assign`'s connectivity into the (all-zero) table.
    fn fill(&mut self, wg: &WeightedGraph, assign: &[usize]) {
        for v in 0..wg.vertex_count() {
            for (w, ew) in wg.edges_of(v) {
                let s = self.slot(v, assign[w]);
                self.table[s] += ew as u32;
            }
        }
    }

    /// Zeroes exactly the entries `assign` populates, leaving the table
    /// all-zero for the next level.
    fn clear(&mut self, wg: &WeightedGraph, assign: &[usize]) {
        for v in 0..wg.vertex_count() {
            for (w, _) in wg.edges_of(v) {
                let s = self.slot(v, assign[w]);
                self.table[s] = 0;
            }
        }
    }

    /// Records `v` moving from block `from` to block `to`: only the rows of
    /// `v`'s neighbors change.
    #[inline]
    fn relocate(&mut self, wg: &WeightedGraph, v: usize, from: usize, to: usize) {
        for (w, ew) in wg.edges_of(v) {
            let (sf, st) = (self.slot(w, from), self.slot(w, to));
            self.table[sf] -= ew as u32;
            self.table[st] += ew as u32;
        }
    }

    /// Whether the table equals one rebuilt from `assign`.
    fn matches(&self, wg: &WeightedGraph, assign: &[usize]) -> bool {
        let mut fresh = BlockConn::new(wg.vertex_count(), self.blocks);
        fresh.fill(wg, assign);
        fresh.table[..] == self.table[..fresh.table.len()]
    }
}

/// One seeded heavy-edge matching attempt. Returns `mate[v]` (`usize::MAX`
/// when unmatched) and the number of matched pairs. Vertices are visited in
/// a seeded random order; each unmatched vertex takes its heaviest unmatched
/// neighbor whose combined weight stays under `w_cap`, ties broken by the
/// smaller neighbor index. The cap is well below `g_max` (see
/// [`Hierarchy::build`]): near-`g_max` chunks cannot be bin-packed into
/// ⌈n/g_max⌉ blocks of near-zero slack without cut-damaging repairs.
fn heavy_edge_matching(wg: &WeightedGraph, w_cap: u64, seed: u64) -> (Vec<usize>, usize) {
    let n = wg.vertex_count();
    let mut order: Vec<usize> = (0..n).collect();
    // Deterministic Fisher–Yates via the seeded shim RNG.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut mate = vec![usize::MAX; n];
    let mut pairs = 0usize;
    for &v in &order {
        if mate[v] != usize::MAX {
            continue;
        }
        let mut best: Option<(u64, usize)> = None;
        for (w, ew) in wg.edges_of(v) {
            if mate[w] != usize::MAX || wg.vwts[v] + wg.vwts[w] > w_cap {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bi)) => ew > bw || (ew == bw && w < bi),
            };
            if better {
                best = Some((ew, w));
            }
        }
        if let Some((_, w)) = best {
            mate[v] = w;
            mate[w] = v;
            pairs += 1;
        }
    }
    (mate, pairs)
}

/// One coarsening step: the best of `rounds` seeded matchings folded into a
/// coarse graph. Returns `(coarse, map)` where `map[v]` is the coarse id of
/// fine vertex `v`, or `None` when no pair matched (no progress possible).
pub fn coarsen(
    wg: &WeightedGraph,
    w_cap: u64,
    rounds: usize,
    seed: u64,
) -> Option<(WeightedGraph, Vec<usize>)> {
    let n = wg.vertex_count();
    let mut best: Option<(Vec<usize>, usize)> = None;
    for r in 0..rounds.max(1) {
        let (mate, pairs) = heavy_edge_matching(wg, w_cap, seed.wrapping_add(r as u64));
        if best.as_ref().is_none_or(|(_, bp)| pairs > *bp) {
            best = Some((mate, pairs));
        }
    }
    let (mate, pairs) = best.expect("at least one matching attempt");
    if pairs == 0 {
        return None;
    }

    // Coarse ids in order of the smaller endpoint — independent of the
    // matching's visit order, so the id space is stable.
    let mut map = vec![usize::MAX; n];
    let mut nc = 0usize;
    for v in 0..n {
        if map[v] != usize::MAX {
            continue;
        }
        map[v] = nc;
        if mate[v] != usize::MAX {
            map[mate[v]] = nc;
        }
        nc += 1;
    }

    // Fold each matched pair into its smaller endpoint (coarse ids ascend
    // with it). Coarse vertices are visited in id order, and each appends
    // its id to the adjacency bucket of every coarse neighbor, so every
    // bucket comes out ascending with parallel edges adjacent: they are
    // summed on arrival, without a sort. A bucket's capacity is its
    // members' fine degree.
    let mut vwts = vec![0u64; nc];
    let mut start = vec![0usize; nc + 1];
    for v in 0..n {
        vwts[map[v]] += wg.vwts[v];
        start[map[v] + 1] += wg.offsets[v + 1] - wg.offsets[v];
    }
    for c in 0..nc {
        start[c + 1] += start[c];
    }
    let mut end = start.clone();
    let mut bucket_nbrs = vec![0usize; start[nc]];
    let mut bucket_ewts = vec![0u64; start[nc]];
    let reps = (0..n).filter(|&v| mate[v] == usize::MAX || v < mate[v]);
    for (cw, v) in reps.enumerate() {
        let members = std::iter::once(v).chain((mate[v] != usize::MAX).then_some(mate[v]));
        for u in members {
            for (w, ew) in wg.edges_of(u) {
                let c = map[w];
                if c == cw {
                    continue;
                }
                if end[c] > start[c] && bucket_nbrs[end[c] - 1] == cw {
                    bucket_ewts[end[c] - 1] += ew;
                } else {
                    bucket_nbrs[end[c]] = cw;
                    bucket_ewts[end[c]] = ew;
                    end[c] += 1;
                }
            }
        }
    }
    let mut offsets = Vec::with_capacity(nc + 1);
    let mut nbrs = Vec::with_capacity(start[nc]);
    let mut ewts = Vec::with_capacity(start[nc]);
    offsets.push(0);
    for c in 0..nc {
        nbrs.extend_from_slice(&bucket_nbrs[start[c]..end[c]]);
        ewts.extend_from_slice(&bucket_ewts[start[c]..end[c]]);
        offsets.push(nbrs.len());
    }
    Some((
        WeightedGraph {
            offsets,
            nbrs,
            ewts,
            vwts,
        },
        map,
    ))
}

/// The level stack produced by repeated coarsening. `levels[0]` is the input
/// graph; `maps[i][v]` is the vertex of `levels[i + 1]` that `v` of
/// `levels[i]` folded into.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Finest (input) level first.
    pub levels: Vec<WeightedGraph>,
    /// `maps[i]`: level `i` vertex → level `i + 1` vertex.
    pub maps: Vec<Vec<usize>>,
}

impl Hierarchy {
    /// Coarsens `g` until it fits under `opts.coarsen_cutoff` or stalls.
    /// Vertex weights are capped at `max(2, ⌈g_max/2⌉)` — folding right up
    /// to `g_max` would make the coarse bin packing (near-zero slack by
    /// construction) infeasible without cut-damaging repairs.
    pub fn build(g: &Graph, g_max: usize, opts: &MultilevelOptions, seed: u64) -> Hierarchy {
        let w_cap = (g_max as u64).div_ceil(2).max(2);
        let mut levels = vec![WeightedGraph::from_graph(g)];
        let mut maps = Vec::new();
        loop {
            let top = levels.last().expect("non-empty");
            let n = top.vertex_count();
            if n <= opts.coarsen_cutoff {
                break;
            }
            let Some((coarse, map)) = coarsen(
                top,
                w_cap,
                opts.matching_rounds,
                seed ^ (levels.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ) else {
                break;
            };
            if (n - coarse.vertex_count()) as f64 <= MIN_SHRINK * n as f64 {
                break;
            }
            maps.push(map);
            levels.push(coarse);
        }
        Hierarchy { levels, maps }
    }

    /// Projects a coarse assignment one level finer: `fine[v] = coarse[map[v]]`.
    pub fn project(map: &[usize], coarse_assign: &[usize]) -> Vec<usize> {
        map.iter().map(|&c| coarse_assign[c]).collect()
    }
}

/// Weighted branch-and-bound mirroring [`crate::exact::exact_min_cut`]:
/// vertices in index order, symmetry-broken block opening, pruning on the
/// incumbent; capacity is the *weight* bound. Returns `None` when the node
/// budget runs out or no complete feasible assignment exists (weighted bin
/// packing into `num_blocks × g_max` can be infeasible even when the unit
/// problem is not).
fn exact_weighted(wg: &WeightedGraph, num_blocks: usize, g_max: u64) -> Option<Vec<usize>> {
    struct Search<'a> {
        wg: &'a WeightedGraph,
        g_max: u64,
        best_cut: u64,
        best: Option<Vec<usize>>,
        assign: Vec<usize>,
        loads: Vec<u64>,
        nodes: usize,
    }
    impl Search<'_> {
        fn recurse(&mut self, v: usize, partial_cut: u64) {
            self.nodes += 1;
            if self.nodes > EXACT_NODE_BUDGET || partial_cut >= self.best_cut {
                return;
            }
            if v == self.wg.vertex_count() {
                self.best_cut = partial_cut;
                self.best = Some(self.assign.clone());
                return;
            }
            let used = self.loads.iter().take_while(|&&s| s > 0).count();
            let max_block = (used + 1).min(self.loads.len());
            for b in 0..max_block {
                if self.loads[b] + self.wg.vwts[v] > self.g_max {
                    continue;
                }
                let added: u64 = self
                    .wg
                    .edges_of(v)
                    .filter(|&(w, _)| w < v && self.assign[w] != b)
                    .map(|(_, ew)| ew)
                    .sum();
                self.assign[v] = b;
                self.loads[b] += self.wg.vwts[v];
                self.recurse(v + 1, partial_cut + added);
                self.loads[b] -= self.wg.vwts[v];
                self.assign[v] = usize::MAX;
            }
        }
    }
    let mut s = Search {
        wg,
        g_max,
        best_cut: u64::MAX,
        best: None,
        assign: vec![usize::MAX; wg.vertex_count()],
        loads: vec![0; num_blocks],
        nodes: 0,
    };
    s.recurse(0, 0);
    if s.nodes > EXACT_NODE_BUDGET {
        return None; // budget hit: the incumbent may be far off, prefer greedy+polish
    }
    s.best
}

/// Weighted BFS seeding (the weighted counterpart of [`crate::fm::bfs_seed`]):
/// blocks grow by breadth-first expansion and advance when the next vertex's
/// weight no longer fits, so blocks are contiguous regions — on stalled
/// coarsenings (near-`g_max` vertex weights) this is what keeps path- and
/// lattice-like coarse graphs near their optimal contiguous partitions. The
/// last block absorbs any bin-packing residue (soft capacity; the drain pass
/// redistributes it).
fn bfs_seed_weighted(wg: &WeightedGraph, num_blocks: usize) -> Vec<usize> {
    let n = wg.vertex_count();
    let total: u64 = wg.vwts.iter().sum();
    let mut assign = vec![usize::MAX; n];
    let mut block = 0usize;
    let mut cum = 0u64;
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
            // Advance when the running weight crosses the block's cumulative
            // share `(block+1)·total/num_blocks` — with near-zero slack
            // (capacity is ⌈n/g_max⌉·g_max) a hard `g_max` fill would dump
            // the whole bin-packing residue of a stalled coarsening into the
            // last block; proportional fill spreads it over all of them,
            // leaving the drain pass only local repairs.
            if cum >= ((block as u64 + 1) * total) / num_blocks as u64 && block + 1 < num_blocks {
                block += 1;
            }
            assign[v] = block;
            cum += wg.vwts[v];
            for (w, _) in wg.edges_of(v) {
                if assign[w] == usize::MAX {
                    queue.push_back(w);
                }
            }
        }
    }
    assign
}

/// Short Metropolis polish of a (possibly overflowing) coarse assignment.
/// Cost = weighted cut + `penalty · total overflow`. The penalty is a few
/// times the average weighted degree — the realistic cut cost of repairing
/// one overflow unit at a finer level — rather than a hard infeasibility
/// wall: an overwhelming penalty makes the walk shred a good (contiguous)
/// seed just to shave coarse-level overflow that the finest-level drain
/// could have fixed almost for free. `conn` is all-zero on entry and on
/// return.
fn metropolis_polish(
    wg: &WeightedGraph,
    assign: &mut [usize],
    g_max: u64,
    seed: u64,
    conn: &mut BlockConn,
) {
    let (n, num_blocks) = (wg.vertex_count(), conn.blocks);
    if n == 0 || num_blocks < 2 {
        return;
    }
    conn.fill(wg, assign);
    let penalty = 2 + 2 * wg.ewts.iter().sum::<u64>() / n as u64;
    let mut loads = vec![0u64; num_blocks];
    for (v, &b) in assign.iter().enumerate() {
        loads[b] += wg.vwts[v];
    }
    let overflow =
        |loads: &[u64]| -> u64 { loads.iter().map(|&l| l.saturating_sub(g_max)).sum::<u64>() };
    let mut cost = wg.cut(assign) as i128 + (penalty * overflow(&loads)) as i128;
    let mut best_cost = cost;
    let mut best = assign.to_vec();

    let steps = 5 * n;
    let t_start = 2.0f64;
    let t_end = 0.05f64;
    let cool = (t_end / t_start).powf(1.0 / steps.max(1) as f64);
    let mut temp = t_start;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        temp *= cool;
        let v = rng.gen_range(0..n);
        let b = rng.gen_range(0..num_blocks);
        let from = assign[v];
        if b == from {
            continue;
        }
        let d_cut = conn.get(v, from) as i128 - conn.get(v, b) as i128;
        let d_over = (loads[b] + wg.vwts[v]).saturating_sub(g_max) as i128
            - loads[b].saturating_sub(g_max) as i128
            + (loads[from] - wg.vwts[v]).saturating_sub(g_max) as i128
            - loads[from].saturating_sub(g_max) as i128;
        let d = d_cut + penalty as i128 * d_over;
        if d <= 0 || rng.gen::<f64>() < (-(d as f64) / temp).exp() {
            loads[from] -= wg.vwts[v];
            loads[b] += wg.vwts[v];
            assign[v] = b;
            conn.relocate(wg, v, from, b);
            cost += d;
            if cost < best_cost {
                best_cost = cost;
                best.copy_from_slice(assign);
            }
        }
    }
    conn.clear(wg, assign);
    assign.copy_from_slice(&best);
}

/// Initial partition of the coarsest level: weighted branch-and-bound at
/// tiny sizes, BFS seeding + Metropolis polish otherwise.
fn initial_partition(
    wg: &WeightedGraph,
    g_max: u64,
    seed: u64,
    conn: &mut BlockConn,
) -> Vec<usize> {
    if wg.vertex_count() <= EXACT_LIMIT {
        if let Some(assign) = exact_weighted(wg, conn.blocks, g_max) {
            return assign;
        }
    }
    let mut assign = bfs_seed_weighted(wg, conn.blocks);
    metropolis_polish(wg, &mut assign, g_max, seed, conn);
    assign
}

/// One level's live refinement state. [`Refiner::move_vertex`] is the only
/// writer, so the assignment, the block loads and the connectivity table
/// stay consistent.
struct Refiner<'a> {
    wg: &'a WeightedGraph,
    g_max: u64,
    assign: &'a mut [usize],
    loads: Vec<u64>,
    conn: &'a mut BlockConn,
}

impl Refiner<'_> {
    fn move_vertex(&mut self, v: usize, to: usize) {
        let from = self.assign[v];
        self.loads[from] -= self.wg.vwts[v];
        self.loads[to] += self.wg.vwts[v];
        self.assign[v] = to;
        self.conn.relocate(self.wg, v, from, to);
    }

    /// Moves vertices out of overweight blocks while a feasible move
    /// exists: heaviest overweight block first (ties: lowest id), and from
    /// it the move `(v → b)` with the least weighted-cut damage (ties:
    /// vertex then block index). At the finest level (unit weights) this
    /// always reaches full feasibility; at coarse levels residual overflow
    /// may remain and is tolerated until projection unfolds the weights.
    /// `damage_cap`: at coarse levels only non-damaging drains run
    /// (`Some(0)`) — a finer level repairs residual overflow more cheaply by
    /// shifting single block-boundary vertices; the finest level passes
    /// `None` (drain at any cost) and, having unit weights and
    /// `⌈n/g_max⌉·g_max ≥ n` capacity, always reaches full feasibility.
    fn drain(&mut self, damage_cap: Option<i64>) {
        let (wg, g_max) = (self.wg, self.g_max);
        // Blocks whose cheapest outbound move exceeded the damage cap (or
        // had none): skipped so other overweight blocks still get their turn.
        let mut stuck = vec![false; self.loads.len()];
        loop {
            let loads = &self.loads;
            let Some(src) = (0..loads.len())
                .filter(|&b| loads[b] > g_max && !stuck[b])
                .max_by_key(|&b| (loads[b], std::cmp::Reverse(b)))
            else {
                return;
            };
            // Best feasible outbound move from `src`. Only blocks adjacent
            // to the vertex can beat the "least-connected vertex into the
            // lowest-indexed block with room" fallback, so the scan is
            // O(n · degree), not O(n · num_blocks).
            let mut best: Option<(i64, usize, usize)> = None; // (damage, v, b)
            let mut consider = |damage: i64, v: usize, b: usize| {
                if best.is_none_or(|(bd, bv, bb)| (damage, v, b) < (bd, bv, bb)) {
                    best = Some((damage, v, b));
                }
            };
            for v in 0..wg.vertex_count() {
                if self.assign[v] != src {
                    continue;
                }
                let c_src = self.conn.get(v, src) as i64;
                let fits = |b: usize| b != src && loads[b] + wg.vwts[v] <= g_max;
                for (w, _) in wg.edges_of(v) {
                    let b = self.assign[w];
                    if fits(b) {
                        consider(c_src - self.conn.get(v, b) as i64, v, b);
                    }
                }
                // Fallback: the first block with room for this vertex, which
                // recovers no connectivity unless it is also adjacent.
                if let Some(b) = (0..loads.len()).find(|&b| fits(b)) {
                    consider(c_src - self.conn.get(v, b) as i64, v, b);
                }
            }
            let Some((damage, v, b)) = best else {
                stuck[src] = true; // no feasible move — residual overflow tolerated
                continue;
            };
            if damage_cap.is_some_and(|cap| damage > cap) {
                stuck[src] = true; // too expensive here — a finer level repairs it
                continue;
            }
            self.move_vertex(v, b);
        }
    }

    /// One deterministic move pass: per-vertex best moves are proposed (in
    /// parallel on large levels) from the table as it stands, then applied
    /// sequentially in vertex-index order with the gain and capacity
    /// re-checked against the live state. Returns whether any move was
    /// applied.
    fn move_pass(&mut self) -> bool {
        let (wg, assign, conn) = (self.wg, &*self.assign, &*self.conn);
        // Most-connected other block, ties to the lower index; only blocks
        // adjacent to `v` can strictly improve the cut.
        let propose = |v: usize| -> Option<usize> {
            let from = assign[v];
            let c_from = conn.get(v, from);
            let mut best: Option<(u64, usize)> = None;
            for (w, _) in wg.edges_of(v) {
                let b = assign[w];
                let c = conn.get(v, b);
                if b != from
                    && c > c_from
                    && best.is_none_or(|(bc, bb)| c > bc || (c == bc && b < bb))
                {
                    best = Some((c, b));
                }
            }
            best.map(|(_, b)| b)
        };
        let proposals: Vec<Option<usize>> = if wg.vertex_count() >= PAR_THRESHOLD {
            (0..wg.vertex_count())
                .into_par_iter()
                .map(propose)
                .collect()
        } else {
            (0..wg.vertex_count()).map(propose).collect()
        };

        let mut moved = false;
        for (v, &target) in proposals.iter().enumerate() {
            let Some(b) = target else { continue };
            if self.loads[b] + wg.vwts[v] > self.g_max {
                continue;
            }
            let from = self.assign[v];
            if b != from && self.conn.get(v, b) > self.conn.get(v, from) {
                self.move_vertex(v, b);
                moved = true;
            }
        }
        moved
    }

    /// Weighted swap pass for capacity-saturated levels where single moves
    /// are blocked. Only pairs within *distance two* of each other are
    /// examined: a profitable swap pulls both endpoints toward their own
    /// neighborhoods, so the partners of the classic quadratic sweep are
    /// almost always a cut edge or two vertices sharing a neighbor across
    /// the boundary (corner exchanges). That bounds the pass at
    /// `O(n · degree²)` — cheap enough to run at every level. Swaps must not
    /// push either block above `max(g_max, its current load)`.
    fn swap_pass(&mut self, dist2: bool) -> bool {
        let wg = self.wg;
        let mut swapped = false;
        // Epoch stamps visit each partner once per `v`, in first-seen scan
        // order; the first profitable partner wins.
        let mut stamp: Vec<usize> = vec![usize::MAX; wg.vertex_count()];
        let wdeg: Vec<u64> = (0..wg.vertex_count())
            .map(|v| wg.edges_of(v).map(|(_, ew)| ew).sum())
            .collect();
        for v in 0..wg.vertex_count() {
            // An interior vertex loses its whole neighborhood by leaving its
            // block — never a profitable partner. Restricting to boundary
            // vertices keeps the sweep proportional to the cut, not to n.
            if self.conn.get(v, self.assign[v]) == wdeg[v] {
                continue;
            }
            let mut fresh = |w: usize| w > v && std::mem::replace(&mut stamp[w], v) != v;
            'partners: for (u, _) in wg.edges_of(v) {
                if fresh(u) && self.try_swap(&wdeg, v, u) {
                    swapped = true;
                    break;
                }
                if dist2 {
                    for (w, _) in wg.edges_of(u) {
                        if fresh(w) && self.try_swap(&wdeg, v, w) {
                            swapped = true;
                            break 'partners;
                        }
                    }
                }
            }
        }
        swapped
    }

    /// Swaps `v` and `w` when that lowers the weighted cut within capacity.
    /// The O(1) table bounds run first, the O(degree) adjacency scan last.
    fn try_swap(&mut self, wdeg: &[u64], v: usize, w: usize) -> bool {
        let (wg, g_max, loads) = (self.wg, self.g_max, &self.loads);
        let (bv, bw) = (self.assign[v], self.assign[w]);
        if bv == bw {
            return false;
        }
        // `gain_w` can never exceed `w`'s weighted degree.
        let gain_v = self.conn.get(v, bw) as i64 - self.conn.get(v, bv) as i64;
        if gain_v + wdeg[w] as i64 <= 0 {
            return false;
        }
        let new_v = loads[bv] - wg.vwts[v] + wg.vwts[w];
        let new_w = loads[bw] - wg.vwts[w] + wg.vwts[v];
        if new_v > g_max.max(loads[bv]) || new_w > g_max.max(loads[bw]) {
            return false;
        }
        let gain_w = self.conn.get(w, bv) as i64 - self.conn.get(w, bw) as i64;
        if gain_v + gain_w <= 0 {
            return false;
        }
        // Direct v–w edge weight (0 when the pair only shares a neighbor);
        // counted as a gain by both endpoints but still cut after the swap,
        // so it is subtracted twice.
        let adj = wg
            .edges_of(v)
            .find(|&(x, _)| x == w)
            .map_or(0, |(_, ew)| ew);
        if gain_v + gain_w - 2 * adj as i64 <= 0 {
            return false;
        }
        self.move_vertex(v, bw);
        self.move_vertex(w, bv);
        true
    }
}

/// Per-level refinement policy: how many move passes run, whether overflow
/// must be drained unconditionally (`strict` — the finest level, where
/// feasibility is owed to the caller), how many quadratic swap passes may
/// break move stalls, and whether swap candidates extend to distance-2
/// pairs (worth the extra scan only at coarse levels).
#[derive(Clone, Copy)]
struct RefinePlan {
    passes: usize,
    strict: bool,
    swap_budget: usize,
    dist2: bool,
}

/// Refines `assign` at one level: drain, then up to `plan.passes` rounds of
/// the move pass with a swap pass when moves stall. `conn` is all-zero on
/// entry and on return.
fn refine_level(
    wg: &WeightedGraph,
    assign: &mut [usize],
    g_max: u64,
    plan: RefinePlan,
    conn: &mut BlockConn,
) {
    let mut loads = vec![0u64; conn.blocks];
    for (v, &b) in assign.iter().enumerate() {
        loads[b] += wg.vwts[v];
    }
    conn.fill(wg, assign);
    let mut r = Refiner {
        wg,
        g_max,
        assign,
        loads,
        conn,
    };
    r.drain(if plan.strict { None } else { Some(0) });
    debug_assert!(r.conn.matches(wg, r.assign), "table diverged in the drain");
    let mut swaps_left = plan.swap_budget; // the quadratic pass is a stall-breaker, not a workhorse
    for _ in 0..plan.passes.max(1) {
        let moved = r.move_pass();
        debug_assert!(
            r.conn.matches(wg, r.assign),
            "table diverged in a move pass"
        );
        if moved {
            continue;
        }
        let swapped = swaps_left > 0 && r.swap_pass(plan.dist2);
        debug_assert!(
            r.conn.matches(wg, r.assign),
            "table diverged in a swap pass"
        );
        if !swapped {
            break;
        }
        swaps_left -= 1;
    }
    r.conn.clear(wg, r.assign);
}

/// Per-level trace of one multilevel run (coarsest level last), for the
/// benchmark's per-layer metrics and the invariants tests.
#[derive(Debug, Clone)]
pub struct LevelTrace {
    /// Vertices at this level.
    pub vertices: usize,
    /// Distinct edges at this level.
    pub edges: usize,
    /// Seconds spent refining (or initially partitioning) this level.
    pub seconds: f64,
}

/// Multilevel partition. `restarts` mirrors the flat engine's knob and is
/// forwarded verbatim when the graph is small enough to delegate to
/// [`fm_partition`]; above the cutoff it seeds the initial-partition polish.
/// Returns `(block_of, cut)` with every block at or under `g_max`.
pub fn multilevel_partition(
    g: &Graph,
    num_blocks: usize,
    g_max: usize,
    restarts: usize,
    seed: u64,
    opts: &MultilevelOptions,
) -> (Vec<usize>, usize) {
    multilevel_impl(g, num_blocks, g_max, restarts, seed, opts, None)
}

/// [`multilevel_partition`] with a per-level trace appended to `trace`
/// (finest level first). Delegated (below-cutoff) runs record one level.
pub fn multilevel_partition_traced(
    g: &Graph,
    num_blocks: usize,
    g_max: usize,
    restarts: usize,
    seed: u64,
    opts: &MultilevelOptions,
) -> (Vec<usize>, usize, Vec<LevelTrace>) {
    let mut trace = Vec::new();
    let (assign, cut) =
        multilevel_impl(g, num_blocks, g_max, restarts, seed, opts, Some(&mut trace));
    (assign, cut, trace)
}

fn multilevel_impl(
    g: &Graph,
    num_blocks: usize,
    g_max: usize,
    restarts: usize,
    seed: u64,
    opts: &MultilevelOptions,
    mut trace: Option<&mut Vec<LevelTrace>>,
) -> (Vec<usize>, usize) {
    let n = g.vertex_count();
    if n <= opts.coarsen_cutoff {
        let t0 = std::time::Instant::now();
        let (assign, cut) = fm_partition(g, num_blocks, g_max, restarts, seed);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(LevelTrace {
                vertices: n,
                edges: g.edge_count(),
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
        return (assign, cut);
    }

    let hierarchy = Hierarchy::build(g, g_max, opts, seed);
    let mut conn = BlockConn::new(n, num_blocks);
    let coarsest = hierarchy.levels.last().expect("non-empty hierarchy");
    let t0 = std::time::Instant::now();
    let mut assign = initial_partition(coarsest, g_max as u64, seed, &mut conn);
    refine_level(
        coarsest,
        &mut assign,
        g_max as u64,
        RefinePlan {
            passes: opts.refine_passes,
            strict: hierarchy.maps.is_empty(),
            swap_budget: 2,
            dist2: true,
        },
        &mut conn,
    );
    let mut level_secs = vec![t0.elapsed().as_secs_f64()];

    for i in (0..hierarchy.maps.len()).rev() {
        let t = std::time::Instant::now();
        assign = Hierarchy::project(&hierarchy.maps[i], &assign);
        refine_level(
            &hierarchy.levels[i],
            &mut assign,
            g_max as u64,
            RefinePlan {
                passes: opts.refine_passes,
                strict: i == 0,
                swap_budget: if i == 0 { 1 } else { 0 },
                dist2: i > 0,
            },
            &mut conn,
        );
        level_secs.push(t.elapsed().as_secs_f64());
    }
    // Safety net: on capacity-tight instances (near-zero slack between
    // `⌈n/g_max⌉·g_max` and `n`) a stalled coarsening can leave the projected
    // partition worse than plain BFS seeding at the finest level — the flat
    // engine's own starting point. Seed once directly (O(n+m)); only when it
    // already beats the refined projection, refine it too and keep the winner.
    let t_net = std::time::Instant::now();
    let finest = &hierarchy.levels[0];
    let mut cut = finest.cut(&assign);
    let mut direct = bfs_seed_weighted(finest, num_blocks);
    if finest.cut(&direct) < cut {
        refine_level(
            finest,
            &mut direct,
            g_max as u64,
            RefinePlan {
                passes: opts.refine_passes,
                strict: true,
                swap_budget: 2,
                dist2: false,
            },
            &mut conn,
        );
        let direct_cut = finest.cut(&direct);
        if direct_cut < cut {
            assign = direct;
            cut = direct_cut;
        }
    }
    if let Some(last) = level_secs.last_mut() {
        *last += t_net.elapsed().as_secs_f64();
    }

    let _ = restarts; // delegation path only; kept for signature symmetry
    if let Some(trace) = trace {
        // level_secs is coarsest-first; the trace is finest-first.
        for (lvl, secs) in hierarchy.levels.iter().zip(level_secs.iter().rev()) {
            trace.push(LevelTrace {
                vertices: lvl.vertex_count(),
                edges: lvl.edge_count(),
                seconds: *secs,
            });
        }
    }
    let cut = cut as usize;
    debug_assert_eq!(cut, metrics::cut_edges(g, &assign));
    debug_assert!(
        {
            let mut loads = vec![0u64; num_blocks];
            for &b in &assign {
                loads[b] += 1;
            }
            loads.iter().all(|&l| l <= g_max as u64)
        },
        "finest-level drain must restore feasibility"
    );
    (assign, cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MultilevelOptions;
    use epgs_graph::generators;

    fn check_valid(g: &Graph, assign: &[usize], num_blocks: usize, g_max: usize) {
        assert_eq!(assign.len(), g.vertex_count());
        let mut sizes = vec![0usize; num_blocks];
        for &b in assign {
            assert!(b < num_blocks, "block {b} out of range");
            sizes[b] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= g_max), "{sizes:?} vs {g_max}");
    }

    #[test]
    fn delegates_identically_below_cutoff() {
        let g = generators::lattice(4, 6); // 24 ≤ default cutoff 48
        let opts = MultilevelOptions::default();
        let ml = multilevel_partition(&g, 4, 6, 5, 7, &opts);
        let flat = fm_partition(&g, 4, 6, 5, 7);
        assert_eq!(ml, flat);
    }

    #[test]
    fn large_path_partitions_feasibly_and_well() {
        let g = generators::path(200);
        let opts = MultilevelOptions::default();
        let (assign, cut) = multilevel_partition(&g, 29, 7, 4, 1, &opts);
        check_valid(&g, &assign, 29, 7);
        assert_eq!(cut, metrics::cut_edges(&g, &assign));
        // A path of 200 vertices into 29 blocks needs ≥ 28 cut edges; the
        // multilevel result should be near that, not at a random ~190.
        assert!(cut <= 2 * 28, "path cut {cut} far from optimal 28");
    }

    #[test]
    fn lattice_quality_close_to_flat() {
        let g = generators::lattice(6, 12); // 72 vertices
        let opts = MultilevelOptions::default();
        let (assign, cut) = multilevel_partition(&g, 11, 7, 4, 3, &opts);
        check_valid(&g, &assign, 11, 7);
        let (_, flat_cut) = fm_partition(&g, 11, 7, 4, 3);
        assert!(
            cut as f64 <= 1.35 * flat_cut as f64 + 4.0,
            "multilevel {cut} much worse than flat {flat_cut}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::watts_strogatz(80, 4, 0.1, &mut rng);
        let opts = MultilevelOptions::default();
        let a = multilevel_partition(&g, 12, 7, 4, 9, &opts);
        let b = multilevel_partition(&g, 12, 7, 4, 9, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchy_projection_preserves_identity() {
        let g = generators::lattice(8, 10);
        let opts = MultilevelOptions::default();
        let h = Hierarchy::build(&g, 7, &opts, 3);
        assert!(h.levels.len() >= 2, "80 vertices must coarsen");
        for (i, map) in h.maps.iter().enumerate() {
            assert_eq!(map.len(), h.levels[i].vertex_count());
            // Every coarse vertex weight is the sum of its members' weights.
            let nc = h.levels[i + 1].vertex_count();
            let mut folded = vec![0u64; nc];
            for (v, &c) in map.iter().enumerate() {
                assert!(c < nc);
                folded[c] += h.levels[i].vertex_weight(v);
            }
            for (c, &w) in folded.iter().enumerate() {
                assert_eq!(w, h.levels[i + 1].vertex_weight(c));
            }
            // Projection is exactly indexed lookup.
            let coarse_assign: Vec<usize> = (0..nc).collect();
            let fine = Hierarchy::project(map, &coarse_assign);
            for (v, &b) in fine.iter().enumerate() {
                assert_eq!(b, map[v]);
            }
        }
    }

    #[test]
    fn weighted_cut_matches_projected_fine_cut() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::barabasi_albert(90, 3, &mut rng);
        let opts = MultilevelOptions::default();
        let h = Hierarchy::build(&g, 7, &opts, 4);
        // Any assignment of the coarsest level, projected down, must have a
        // fine edge cut equal to the coarse weighted cut.
        let top = h.levels.last().unwrap();
        let coarse_assign: Vec<usize> = (0..top.vertex_count()).map(|v| v % 3).collect();
        let mut assign = coarse_assign.clone();
        for map in h.maps.iter().rev() {
            assign = Hierarchy::project(map, &assign);
        }
        assert_eq!(
            top.cut(&coarse_assign) as usize,
            metrics::cut_edges(&g, &assign)
        );
    }

    #[test]
    fn traced_reports_every_level() {
        let g = generators::lattice(10, 10);
        let opts = MultilevelOptions::default();
        let (assign, cut, trace) = multilevel_partition_traced(&g, 15, 7, 4, 2, &opts);
        check_valid(&g, &assign, 15, 7);
        assert_eq!(cut, metrics::cut_edges(&g, &assign));
        assert!(trace.len() >= 2);
        assert_eq!(trace[0].vertices, 100);
        // Strictly decreasing level sizes.
        for w in trace.windows(2) {
            assert!(w[1].vertices < w[0].vertices);
        }
    }

    #[test]
    fn exact_weighted_matches_unit_exact() {
        let g = generators::cycle(8);
        let wg = WeightedGraph::from_graph(&g);
        let assign = exact_weighted(&wg, 2, 4).expect("feasible");
        assert_eq!(wg.cut(&assign), 2);
    }
}
