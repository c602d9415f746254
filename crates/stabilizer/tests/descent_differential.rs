//! Differential suite for the element search: the compacted, cached-letter
//! search of [`Tableau::find_element_weighted_in`],
//! [`Tableau::find_element_supported_on_in`] and
//! [`Tableau::find_element_any_in`] must return exactly the rows the
//! full-width, per-candidate reference returns.
//!
//! Tableaux are graph states scrambled by random Cliffords and row
//! products, on qubit counts that straddle the 64- and 128-bit word
//! boundaries; the restrict set, target, allowed set and per-qubit weights
//! are drawn at random, and one scratch is reused across every query so
//! stale buffers from a differently shaped query would show. A second
//! family carries singleton constraint rows, the rows the search
//! substitutes out: qubits left in an isolated `+Z` (the shape an absorbed
//! photon leaves) or `Y` (two identical singleton rows), some of whose
//! generators also carry letters on other qubits, queried with those qubits
//! as targets too and in the free-wire shape (`restrict` and `allowed`
//! empty). A third family chains them: a run of generators
//! `Z_a, Z_a Z_b, Z_b Z_c, …` whose constraint rows become singletons only
//! once the next generator along the run is killed, with runs of three or
//! more qubits that cross the 64-bit word boundary.

#[path = "reference/descent.rs"]
mod descent_reference;

use proptest::prelude::*;

use epgs_graph::{generators, Graph};
use epgs_stabilizer::{ElementScratch, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A graph state on `n` qubits with random edges, then `n` random
/// Cliffords and row products so generators carry X, Y and Z letters.
fn random_tableau(n: usize, rng: &mut StdRng) -> Tableau {
    let p = rng.gen_range(1..8) as f64 / 16.0;
    let mut t = Tableau::graph_state(&generators::erdos_renyi(n, p, rng));
    for _ in 0..n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        match rng.gen_range(0..5) {
            0 => t.h(a),
            1 => t.s(a),
            2 if a != b => t.cnot(a, b),
            3 if a != b => t.cz(a, b),
            4 if a != b => t.row_mul(a, b),
            _ => {}
        }
    }
    t
}

/// One query: `(restrict, target, allowed, weights)`. Photons (`restrict`)
/// are a random prefix-sized subset; `allowed` is usually the complement
/// and sometimes a random subset that may overlap `restrict` or repeat.
fn random_query(n: usize, rng: &mut StdRng) -> (Vec<usize>, usize, Vec<usize>, Vec<usize>) {
    let photons = rng.gen_range(1..=n);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let restrict = order[..photons].to_vec();
    let target = restrict[rng.gen_range(0..photons)];
    let allowed = if rng.gen_bool(0.7) {
        order[photons..].to_vec()
    } else {
        (0..rng.gen_range(0..=n))
            .map(|_| rng.gen_range(0..n))
            .collect()
    };
    let weights = (0..n).map(|_| rng.gen_range(0..4)).collect();
    (restrict, target, allowed, weights)
}

/// A tableau on `n` qubits where each qubit is absorbed with probability
/// 3/5: its generator is an isolated `+Z` (or, one time in four, `Y`)
/// and no other generator touches it. The other qubits hold a random graph
/// state scrambled by Cliffords on them alone, and row products that may
/// multiply any generator (an absorbed one included, which then carries
/// letters elsewhere while staying alone on its qubit) by a generator that
/// touches no absorbed qubit. Returns the tableau and the absorbed qubits.
fn absorbed_tableau(n: usize, rng: &mut StdRng) -> (Tableau, Vec<usize>) {
    let absorbed: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
    let mut t = graph_state_outside(&absorbed, rng);
    for q in (0..n).filter(|&q| absorbed[q]) {
        if rng.gen_range(0..4) == 0 {
            t.s(q);
        } else {
            t.h(q);
        }
    }
    scramble_outside(&mut t, &absorbed, rng);
    (t, (0..n).filter(|&q| absorbed[q]).collect())
}

/// A graph state with random edges among the qubits outside `set`; the
/// qubits in `set` stay isolated `+X`.
fn graph_state_outside(set: &[bool], rng: &mut StdRng) -> Tableau {
    let n = set.len();
    let p = rng.gen_range(1..8) as f64 / 16.0;
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in a + 1..n {
            if !set[a] && !set[b] && rng.gen_bool(p) {
                g.add_edge(a, b).expect("in range");
            }
        }
    }
    Tableau::graph_state(&g)
}

/// `n` random Cliffords on the qubits outside `set`, and row products that
/// may multiply any generator (one whose qubit is in `set` included) by a
/// generator that touches no qubit of `set`.
fn scramble_outside(t: &mut Tableau, set: &[bool], rng: &mut StdRng) {
    let n = set.len();
    let active: Vec<usize> = (0..n).filter(|&q| !set[q]).collect();
    if active.is_empty() {
        return;
    }
    for _ in 0..n {
        let a = active[rng.gen_range(0..active.len())];
        let b = active[rng.gen_range(0..active.len())];
        match rng.gen_range(0..5) {
            0 => t.h(a),
            1 => t.s(a),
            2 if a != b => t.cnot(a, b),
            3 if a != b => t.cz(a, b),
            4 => {
                let dst = rng.gen_range(0..n);
                if dst != b {
                    t.row_mul(dst, b);
                }
            }
            _ => {}
        }
    }
}

/// A tableau on `n ≥ 3` qubits carrying chains of singleton rows. Each
/// chain `c_0, c_1, …, c_{L-1}` (L ≥ 3) has generator `c_0 = Z_{c_0}` and
/// generator `c_i = Z_{c_{i-1}} Z_{c_i}`, so only the last chain qubit's
/// column starts as a singleton and each kill makes the next column down
/// the chain one; a chain qubit's letters are sometimes rotated to
/// `X` or `Y` (two identical rows). When `n > 65` the first chain is a run
/// of consecutive qubits across 63/64. The other qubits hold a scrambled
/// random graph state as in [`absorbed_tableau`], and row products may
/// multiply any generator by one touching no chain qubit, so chain
/// generators also carry letters elsewhere. Returns the tableau and the
/// chain qubits.
fn chained_tableau(n: usize, rng: &mut StdRng) -> (Tableau, Vec<usize>) {
    let mut free: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        free.swap(i, rng.gen_range(0..=i));
    }
    let mut chains: Vec<Vec<usize>> = Vec::new();
    if n > 65 {
        let len = rng.gen_range(3..=8);
        let start = rng.gen_range(65 - len..=63).min(n - len);
        let mut run: Vec<usize> = (start..start + len).collect();
        if rng.gen_bool(0.5) {
            run.reverse();
        }
        free.retain(|q| !run.contains(q));
        chains.push(run);
    }
    for _ in 0..rng.gen_range(1..=3) {
        let len = rng.gen_range(3..=6);
        if free.len() < len {
            break;
        }
        chains.push(free.split_off(free.len() - len));
    }
    let in_chain: Vec<bool> = (0..n)
        .map(|q| chains.iter().flatten().any(|&c| c == q))
        .collect();
    let mut t = graph_state_outside(&in_chain, rng);
    for chain in &chains {
        for &q in chain {
            t.h(q);
        }
        for pair in chain.windows(2) {
            t.cnot(pair[0], pair[1]);
        }
        for &q in chain {
            match rng.gen_range(0..4) {
                0 => t.h(q),
                1 => {
                    t.h(q);
                    t.s(q);
                }
                _ => {}
            }
        }
    }
    scramble_outside(&mut t, &in_chain, rng);
    (t, (0..n).filter(|&q| in_chain[q]).collect())
}

/// A query on an [`absorbed_tableau`] or a [`chained_tableau`]: `restrict`
/// holds every absorbed (or chained) qubit and a random share of the
/// others, the target is drawn from it (often an absorbed qubit, whose
/// single-bit target rows must survive, or a chain qubit, which cuts its
/// chain), and `allowed` is usually the complement, sometimes a random
/// multiset.
fn absorbed_query(
    n: usize,
    absorbed: &[usize],
    rng: &mut StdRng,
) -> (Vec<usize>, usize, Vec<usize>, Vec<usize>) {
    let mut restrict = absorbed.to_vec();
    restrict.extend((0..n).filter(|q| !absorbed.contains(q) && rng.gen_bool(0.5)));
    if restrict.is_empty() {
        restrict.push(rng.gen_range(0..n));
    }
    let target = restrict[rng.gen_range(0..restrict.len())];
    let allowed = if rng.gen_bool(0.7) {
        (0..n).filter(|q| !restrict.contains(q)).collect()
    } else {
        (0..rng.gen_range(0..=n))
            .map(|_| rng.gen_range(0..n))
            .collect()
    };
    let weights = (0..n).map(|_| rng.gen_range(0..4)).collect();
    (restrict, target, allowed, weights)
}

/// Asserts that the weighted, unit-weight and first-valid searches on one
/// query all equal the reference, and returns `(weighted, first)`.
fn check_query(
    t: &Tableau,
    (restrict, target, allowed, weights): &(Vec<usize>, usize, Vec<usize>, Vec<usize>),
    scratch: &mut ElementScratch,
    label: &str,
) -> (Option<Vec<usize>>, Option<Vec<usize>>) {
    let (target, label) = (*target, format!("{label} target {target}"));
    let weighted = t.find_element_weighted_in(restrict, target, allowed, |q| weights[q], scratch);
    assert_eq!(
        weighted,
        descent_reference::find_element_weighted(t, restrict, target, allowed, |q| weights[q]),
        "{label}: weighted search diverges"
    );
    let unit = t.find_element_supported_on_in(restrict, target, allowed, scratch);
    assert_eq!(
        unit,
        descent_reference::find_element_weighted(t, restrict, target, allowed, |_| 1),
        "{label}: unit-weight search diverges"
    );
    let first = t.find_element_any_in(restrict, target, allowed, scratch);
    assert_eq!(
        first,
        descent_reference::find_element_any(t, restrict, target, allowed),
        "{label}: first-valid search diverges"
    );
    (weighted, first)
}

/// Runs `cases` random queries at each size and returns how many found an
/// element whose weighted choice differs from the first valid one, i.e.
/// where the descent moved.
fn check_sizes(sizes: &[usize], cases: usize, seed: u64, scratch: &mut ElementScratch) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut moved = 0;
    for &n in sizes {
        for case in 0..cases {
            let t = random_tableau(n, &mut rng);
            let query = random_query(n, &mut rng);
            let (weighted, first) = check_query(&t, &query, scratch, &format!("n {n} case {case}"));
            if weighted.is_some() && weighted != first {
                moved += 1;
            }
        }
    }
    moved
}

/// Runs `cases` queries on tableaux from `build` ([`absorbed_tableau`] or
/// [`chained_tableau`]) at each size, plus one free-wire query
/// (`restrict = []`, `allowed = []`) per tableau. Returns how many queries
/// moved the descent and how many found an element on an absorbed (or
/// chained) target.
fn check_singleton_sizes(
    build: fn(usize, &mut StdRng) -> (Tableau, Vec<usize>),
    sizes: &[usize],
    cases: usize,
    seed: u64,
    scratch: &mut ElementScratch,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut moved, mut absorbed_found) = (0, 0);
    for &n in sizes {
        for case in 0..cases {
            let (t, absorbed) = build(n, &mut rng);
            let label = format!("singleton n {n} case {case}");
            let query = absorbed_query(n, &absorbed, &mut rng);
            let (weighted, first) = check_query(&t, &query, scratch, &label);
            if weighted.is_some() && weighted != first {
                moved += 1;
            }
            if weighted.is_some() && absorbed.contains(&query.1) {
                absorbed_found += 1;
            }
            let wire = rng.gen_range(0..n);
            let free_wire = (vec![], wire, vec![], vec![1; n]);
            check_query(&t, &free_wire, scratch, &format!("{label} free wire"));
        }
    }
    (moved, absorbed_found)
}

#[test]
fn cached_descent_matches_reference_across_word_boundaries() {
    let mut scratch = ElementScratch::new();
    let moved = check_sizes(
        &[1, 2, 5, 20, 63, 64, 65, 127, 128, 129],
        12,
        0xDE5C,
        &mut scratch,
    );
    assert!(moved > 0, "no query exercised the descent");
}

#[test]
fn compacted_search_matches_reference_on_singleton_rows() {
    let mut scratch = ElementScratch::new();
    let (moved, absorbed_found) = check_singleton_sizes(
        absorbed_tableau,
        &[1, 2, 5, 20, 63, 64, 65, 127, 128, 129],
        12,
        0xAB50,
        &mut scratch,
    );
    assert!(moved > 0, "no query exercised the descent");
    assert!(
        absorbed_found > 0,
        "no query found an element on a single-bit target row"
    );
}

#[test]
fn compacted_search_matches_reference_on_chained_singletons() {
    let mut scratch = ElementScratch::new();
    let (moved, chain_found) = check_singleton_sizes(
        chained_tableau,
        &[3, 5, 20, 63, 64, 66, 67, 100, 127, 128, 129],
        12,
        0xC4A1,
        &mut scratch,
    );
    assert!(moved > 0, "no query exercised the descent");
    assert!(
        chain_found > 0,
        "no query found an element on a chain target"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_queries_match_reference(n in 1usize..100, seed in any::<u64>()) {
        check_sizes(&[n], 2, seed, &mut ElementScratch::new());
    }

    #[test]
    fn random_singleton_queries_match_reference(n in 1usize..100, seed in any::<u64>()) {
        check_singleton_sizes(absorbed_tableau, &[n], 2, seed, &mut ElementScratch::new());
    }

    #[test]
    fn random_chained_queries_match_reference(n in 3usize..140, seed in any::<u64>()) {
        check_singleton_sizes(chained_tableau, &[n], 2, seed, &mut ElementScratch::new());
    }
}
