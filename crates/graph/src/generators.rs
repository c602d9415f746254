//! Benchmark graph families.
//!
//! These cover the paper's Fig. 9 workloads — 2D lattice (MBQC), trees (QRAM
//! routers / tree codes), and Waxman random graphs (distributed-QC
//! topologies) — plus the standard families used in unit tests, the repeater
//! graph state of Azuma et al., and the batch-corpus families added for the
//! throughput harness: random-regular, hypercube, heavy-hex,
//! Barabási–Albert preferential attachment, and Watts–Strogatz small-world.
//!
//! # RNG determinism contract
//!
//! Every randomized generator in this module is a pure function of its
//! parameters and the RNG *stream*: given equal parameters and an RNG in an
//! equal state (e.g. `StdRng::seed_from_u64(s)` with the same `s`), it
//! returns an identical [`Graph`] and leaves the RNG in an identical state.
//! Generators draw from the RNG in a fixed documented order and never
//! consult global state, so corpus enumeration, caching keys, and benchmark
//! reruns are reproducible across runs and platforms.

use rand::Rng;

use crate::graph::Graph;

/// Linear cluster state graph (a path) on `n` vertices.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("path edges are in range")
}

/// Cycle on `n` vertices (`n ≥ 3` gives a ring; smaller n degenerates to a path).
pub fn cycle(n: usize) -> Graph {
    let mut g = path(n);
    if n >= 3 {
        g.add_edge(n - 1, 0).expect("endpoints are in range");
    }
    g
}

/// Complete graph K_n (LC-equivalent to the GHZ-state star).
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b).expect("indices are in range");
        }
    }
    g
}

/// Star with hub `0` and `n - 1` leaves (the GHZ-state graph).
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (0, i))).expect("star edges are in range")
}

/// 2D square lattice with `rows` × `cols` vertices, the basic MBQC resource.
///
/// Vertex `(r, c)` has index `r * cols + c`.
pub fn lattice(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.add_edge(v, v + 1).expect("in range");
            }
            if r + 1 < rows {
                g.add_edge(v, v + cols).expect("in range");
            }
        }
    }
    g
}

/// Complete `arity`-ary tree truncated to exactly `n` vertices, breadth-first.
///
/// This is the QRAM-router / tree-code shape: vertex 0 is the root and vertex
/// `i > 0` hangs off vertex `(i - 1) / arity`.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn tree(n: usize, arity: usize) -> Graph {
    assert!(arity > 0, "tree arity must be positive");
    Graph::from_edges(n, (1..n).map(|i| ((i - 1) / arity, i))).expect("tree edges are in range")
}

/// Uniformly random labelled tree on `n` vertices (random Prüfer sequence).
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::new(n);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]).expect("in range");
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut g = Graph::new(n);
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("a leaf always exists");
        g.add_edge(leaf, v).expect("in range");
        degree[leaf] -= 1;
        degree[v] -= 1;
        if degree[v] == 1 {
            leaves.push(std::cmp::Reverse(v));
        }
    }
    let remaining: Vec<usize> = (0..n).filter(|&v| degree[v] == 1).collect();
    debug_assert_eq!(remaining.len(), 2);
    g.add_edge(remaining[0], remaining[1]).expect("in range");
    g
}

/// Waxman random graph on `n` vertices in the unit square.
///
/// Vertices are placed uniformly; an edge `(u, v)` appears with probability
/// `alpha * exp(-d(u, v) / (beta * L))` where `L` is the maximum distance
/// (√2 for the unit square). Disconnected results are patched by linking each
/// later component to the first through its geometrically closest pair, which
/// preserves the distance-dependent flavor of the model while guaranteeing a
/// usable benchmark instance (the paper's workloads are connected).
///
/// # Determinism
///
/// Deterministic in the sense of the [module contract](self): the RNG is
/// consumed in a fixed order — `2 n` coordinate draws, then one Bernoulli
/// draw per vertex pair `(a, b)` with `a < b` in lexicographic order; the
/// connectivity patch draws nothing. Equal `(n, alpha, beta)` and an
/// equally-seeded RNG yield equal graphs (pinned by the
/// `waxman_is_connected_and_seeded` test).
pub fn waxman<R: Rng + ?Sized>(n: usize, alpha: f64, beta: f64, rng: &mut R) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let dx = pts[a].0 - pts[b].0;
        let dy = pts[a].1 - pts[b].1;
        (dx * dx + dy * dy).sqrt()
    };
    let l = std::f64::consts::SQRT_2;
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let p = alpha * (-dist(a, b) / (beta * l)).exp();
            if rng.gen::<f64>() < p {
                g.add_edge(a, b).expect("in range");
            }
        }
    }
    // Patch connectivity: join every later component to the first via the
    // geometrically closest cross pair.
    loop {
        let comps = g.connected_components();
        if comps.len() <= 1 {
            break;
        }
        let base = &comps[0];
        let other = &comps[1];
        let (&a, &b) = base
            .iter()
            .flat_map(|a| other.iter().map(move |b| (a, b)))
            .min_by(|(a1, b1), (a2, b2)| dist(**a1, **b1).total_cmp(&dist(**a2, **b2)))
            .expect("components are non-empty");
        g.add_edge(a, b).expect("in range");
    }
    g
}

/// Erdős–Rényi G(n, p) random graph.
///
/// # Determinism
///
/// Deterministic in the sense of the [module contract](self): exactly one
/// Bernoulli draw per vertex pair `(a, b)` with `a < b`, in lexicographic
/// order. Equal `(n, p)` and an equally-seeded RNG yield equal graphs
/// (pinned by the `erdos_renyi_seeded_equality` test); unlike [`waxman`],
/// no connectivity patch is applied, so the result may be disconnected.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen::<f64>() < p {
                g.add_edge(a, b).expect("in range");
            }
        }
    }
    g
}

/// Repeater graph state of Azuma et al.: a complete core on `2 m` vertices
/// with one leaf attached to each core vertex (total `4 m` vertices).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn repeater_graph_state(m: usize) -> Graph {
    assert!(m > 0, "repeater graph state needs m ≥ 1");
    let core = 2 * m;
    let mut g = complete(core);
    for v in 0..core {
        let leaf = g.add_vertex();
        g.add_edge(v, leaf).expect("in range");
    }
    g
}

/// Random `d`-regular graph on `n` vertices.
///
/// Starts from the deterministic circulant `d`-regular graph (vertex `i`
/// adjacent to `i ± 1 … i ± d/2` mod `n`, plus the antipode `i + n/2` when
/// `d` is odd) and randomizes it with `10 · n · d` attempted double-edge
/// swaps: two edges `(a, b)`, `(c, d)` are rewired to `(a, c)`, `(b, d)`
/// when all four endpoints are distinct and neither new edge exists. Swaps
/// preserve both regularity and simplicity, so the result is always a valid
/// simple `d`-regular graph — no rejection loop that could fail to
/// terminate.
///
/// Deterministic in the sense of the [module contract](self): two
/// `gen_range` draws per attempted swap, in order.
///
/// # Panics
///
/// Panics unless `d < n` and `n · d` is even.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(
        d < n || (n == 0 && d == 0),
        "degree must be below the vertex count"
    );
    assert!(
        (n * d).is_multiple_of(2),
        "n * d must be even for a d-regular graph"
    );
    let mut g = Graph::new(n);
    if n == 0 || d == 0 {
        return g;
    }
    // Circulant seed graph: offsets 1 ..= d/2, plus n/2 for odd d (which
    // requires even n, guaranteed by the parity assertion above).
    for i in 0..n {
        for j in 1..=(d / 2) {
            g.add_edge(i, (i + j) % n).expect("in range");
        }
    }
    if d % 2 == 1 {
        for i in 0..n / 2 {
            g.add_edge(i, i + n / 2).expect("in range");
        }
    }
    // Degree-preserving double-edge swaps for mixing.
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    let m = edges.len();
    if m < 2 {
        return g;
    }
    for _ in 0..10 * n * d {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, e) = edges[j];
        if a == c || a == e || b == c || b == e {
            continue;
        }
        if g.has_edge(a, c) || g.has_edge(b, e) {
            continue;
        }
        g.remove_edge(a, b).expect("edge tracked");
        g.remove_edge(c, e).expect("edge tracked");
        g.add_edge(a, c).expect("in range");
        g.add_edge(b, e).expect("in range");
        edges[i] = (a.min(c), a.max(c));
        edges[j] = (b.min(e), b.max(e));
    }
    g
}

/// Hypercube graph Q_dim on `2^dim` vertices: vertices are bit strings,
/// edges join strings at Hamming distance 1. `dim == 0` is a single vertex.
///
/// # Panics
///
/// Panics if `2^dim` overflows `usize`.
pub fn hypercube(dim: u32) -> Graph {
    assert!(
        dim < usize::BITS,
        "2^dim must fit in usize (dim = {dim} is far beyond any compilable size anyway)"
    );
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for v in 0..n {
        for bit in 0..dim {
            let w = v ^ (1 << bit);
            if v < w {
                g.add_edge(v, w).expect("in range");
            }
        }
    }
    g
}

/// Heavy-hex lattice with `rows × cols` hexagonal cells (the IBM
/// heavy-hexagon qubit topology shape).
///
/// Built as the subdivision of a brick-wall honeycomb lattice: grid vertices
/// `(r, c)` for `r ∈ 0..=rows`, `c ∈ 0..2·cols+1` carry horizontal edges
/// between column neighbors and vertical edges `(r, c)–(r+1, c)` where
/// `r + c` is even; every lattice edge then receives one extra "flag"
/// vertex in its middle. Grid vertices have degree ≤ 3 and flag vertices
/// degree 2, matching the heavy-hex mix of data and flag qubits.
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn heavy_hex(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "heavy hex needs at least one cell");
    let width = 2 * cols + 1;
    let grid = |r: usize, c: usize| r * width + c;
    let mut hex_edges: Vec<(usize, usize)> = Vec::new();
    for r in 0..=rows {
        for c in 0..width {
            if c + 1 < width {
                hex_edges.push((grid(r, c), grid(r, c + 1)));
            }
            if r < rows && (r + c) % 2 == 0 {
                hex_edges.push((grid(r, c), grid(r + 1, c)));
            }
        }
    }
    let mut g = Graph::new((rows + 1) * width);
    for (a, b) in hex_edges {
        let flag = g.add_vertex();
        g.add_edge(a, flag).expect("in range");
        g.add_edge(flag, b).expect("in range");
    }
    g
}

/// Barabási–Albert preferential-attachment graph: `n` vertices, each new
/// vertex attaching to `attach` distinct existing vertices chosen with
/// probability proportional to current degree (repeated-nodes method).
///
/// Vertices `0 … attach - 1` form the edgeless seed set; vertex `attach`
/// connects to all of them, and every later vertex samples its `attach`
/// distinct targets from the degree-weighted list (duplicates rejected).
/// The result is connected by construction.
///
/// Deterministic in the sense of the [module contract](self): one
/// `gen_range` draw per (possibly rejected) target sample, vertices in
/// increasing order.
///
/// # Panics
///
/// Panics unless `1 ≤ attach < n`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, attach: usize, rng: &mut R) -> Graph {
    assert!(
        attach >= 1 && attach < n,
        "attachment count must be in 1..n"
    );
    let mut g = Graph::new(n);
    // One entry per edge endpoint: sampling uniformly from this list is
    // degree-proportional sampling.
    let mut repeated: Vec<usize> = Vec::with_capacity(2 * n * attach);
    for v in attach..n {
        let mut targets: Vec<usize> = Vec::with_capacity(attach);
        if v == attach {
            targets.extend(0..attach);
        } else {
            while targets.len() < attach {
                let t = repeated[rng.gen_range(0..repeated.len())];
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
        }
        for &t in &targets {
            g.add_edge(v, t).expect("in range");
            repeated.push(v);
            repeated.push(t);
        }
    }
    g
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex links
/// to its `k / 2` nearest neighbors on each side, with every lattice edge
/// rewired with probability `beta` to a uniformly random non-neighbor.
///
/// As with [`waxman`], a disconnected rewiring outcome is patched into a
/// connected benchmark instance: each later component is joined to the
/// first through its smallest-index vertices (the patch draws no
/// randomness).
///
/// Deterministic in the sense of the [module contract](self): for each
/// offset `j ∈ 1..=k/2` and each vertex in order, one Bernoulli draw, plus
/// one `gen_range` draw per (possibly rejected) replacement endpoint.
///
/// # Panics
///
/// Panics unless `k` is even and `2 ≤ k < n`.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k.is_multiple_of(2), "neighbor count k must be even");
    assert!(k >= 2 && k < n, "neighbor count must be in 2..n");
    let mut g = Graph::new(n);
    for j in 1..=k / 2 {
        for i in 0..n {
            g.add_edge(i, (i + j) % n).expect("in range");
        }
    }
    for j in 1..=k / 2 {
        for i in 0..n {
            if !rng.gen_bool(beta) {
                continue;
            }
            let old = (i + j) % n;
            // A full vertex can keep its lattice edge: rewiring it would
            // loop forever looking for a free endpoint.
            if g.degree(i) >= n - 1 {
                continue;
            }
            let new = loop {
                let w = rng.gen_range(0..n);
                if w != i && !g.has_edge(i, w) {
                    break w;
                }
            };
            // Each lattice edge is visited exactly once across the (j, i)
            // loops, so it must still be present here — remove_edge alone
            // would not catch a broken invariant (absence returns Ok(false)).
            assert!(
                g.remove_edge(i, old).expect("endpoints in range"),
                "lattice edge visited twice"
            );
            g.add_edge(i, new).expect("in range");
        }
    }
    // Patch connectivity (rewiring can strand components).
    let comps = g.connected_components();
    for later in comps.iter().skip(1) {
        g.add_edge(comps[0][0], later[0]).expect("in range");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn path_degenerate_sizes() {
        assert_eq!(path(0).vertex_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert!((0..6).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn cycle_small_degenerates_to_path() {
        assert_eq!(cycle(2).edge_count(), 1);
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(7).edge_count(), 21);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert!((1..6).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn lattice_shape() {
        let g = lattice(3, 4);
        assert_eq!(g.vertex_count(), 12);
        // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
        assert!(g.is_connected());
    }

    #[test]
    fn tree_shape() {
        let g = tree(7, 2);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(0), 2);
        assert!(g.is_connected());
        // Leaves of the complete binary tree on 7 vertices.
        for v in 3..7 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 3, 8, 20] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.edge_count(), n - 1);
            assert!(g.is_connected(), "n={n}");
        }
    }

    #[test]
    fn waxman_is_connected_and_seeded() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let g1 = waxman(20, 0.4, 0.2, &mut r1);
        let g2 = waxman(20, 0.4, 0.2, &mut r2);
        assert_eq!(g1, g2, "same seed must give the same graph");
        assert!(g1.is_connected());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(erdos_renyi(6, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(6, 1.0, &mut rng).edge_count(), 15);
    }

    #[test]
    fn erdos_renyi_seeded_equality() {
        // Pins the module's RNG determinism contract for G(n, p): equal
        // parameters + equal seeds give bit-identical graphs, different
        // seeds diverge (overwhelmingly) at this density.
        let g1 = erdos_renyi(18, 0.3, &mut StdRng::seed_from_u64(123));
        let g2 = erdos_renyi(18, 0.3, &mut StdRng::seed_from_u64(123));
        assert_eq!(g1, g2, "same seed must give the same graph");
        let g3 = erdos_renyi(18, 0.3, &mut StdRng::seed_from_u64(124));
        assert_ne!(g1, g3, "different seeds must diverge");
    }

    #[test]
    fn random_regular_is_regular_and_seeded() {
        for (n, d) in [(8usize, 3usize), (10, 4), (12, 3), (9, 2)] {
            let g = random_regular(n, d, &mut StdRng::seed_from_u64(5));
            assert_eq!(g.vertex_count(), n);
            assert!((0..n).all(|v| g.degree(v) == d), "n={n} d={d}");
        }
        let a = random_regular(12, 3, &mut StdRng::seed_from_u64(9));
        let b = random_regular(12, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b, "same seed must give the same graph");
    }

    #[test]
    fn random_regular_degenerate_and_invalid() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_regular(5, 0, &mut rng).edge_count(), 0);
        assert_eq!(random_regular(0, 0, &mut rng).vertex_count(), 0);
        assert!(std::panic::catch_unwind(|| {
            random_regular(5, 3, &mut StdRng::seed_from_u64(1))
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            random_regular(4, 4, &mut StdRng::seed_from_u64(1))
        })
        .is_err());
    }

    #[test]
    fn hypercube_shape() {
        let q3 = hypercube(3);
        assert_eq!(q3.vertex_count(), 8);
        assert_eq!(q3.edge_count(), 12);
        assert!((0..8).all(|v| q3.degree(v) == 3));
        assert!(q3.is_connected());
        assert_eq!(hypercube(0).vertex_count(), 1);
        assert_eq!(hypercube(1).edge_count(), 1);
    }

    #[test]
    fn heavy_hex_shape() {
        // 1×1 cell: 6 grid vertices, 6 lattice edges, one flag per edge.
        let g = heavy_hex(1, 1);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 12);
        assert!(g.is_connected());
        let max_deg = (0..g.vertex_count()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg <= 3, "heavy-hex degree is capped at 3");
        // Every flag vertex (index ≥ grid size) has degree exactly 2.
        assert!((6..12).all(|v| g.degree(v) == 2));
        let bigger = heavy_hex(2, 2);
        assert!(bigger.is_connected());
        assert!(bigger.vertex_count() > g.vertex_count());
    }

    #[test]
    fn barabasi_albert_shape_and_seeded() {
        let g = barabasi_albert(20, 2, &mut StdRng::seed_from_u64(4));
        assert_eq!(g.vertex_count(), 20);
        // Seed vertices carry no mutual edges: m edges per non-seed vertex.
        assert_eq!(g.edge_count(), (20 - 2) * 2);
        assert!(g.is_connected());
        let a = barabasi_albert(20, 2, &mut StdRng::seed_from_u64(4));
        assert_eq!(g, a, "same seed must give the same graph");
    }

    #[test]
    fn watts_strogatz_shape_and_seeded() {
        // beta = 0 is exactly the ring lattice.
        let ring = watts_strogatz(10, 4, 0.0, &mut StdRng::seed_from_u64(2));
        assert!((0..10).all(|v| ring.degree(v) == 4));
        assert_eq!(ring.edge_count(), 20);
        // Rewired instances stay connected (patched) and seeded-equal.
        let a = watts_strogatz(16, 4, 0.3, &mut StdRng::seed_from_u64(8));
        let b = watts_strogatz(16, 4, 0.3, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b, "same seed must give the same graph");
        assert!(a.is_connected());
        // Rewiring never changes the vertex count and, pre-patch, keeps the
        // edge count; the patch can only add.
        assert!(a.edge_count() >= 16 * 4 / 2);
    }

    #[test]
    fn rgs_shape() {
        let g = repeater_graph_state(2);
        assert_eq!(g.vertex_count(), 8);
        // K4 core (6 edges) + 4 leaves.
        assert_eq!(g.edge_count(), 10);
        for v in 0..4 {
            assert_eq!(g.degree(v), 4);
        }
        for v in 4..8 {
            assert_eq!(g.degree(v), 1);
        }
    }
}
