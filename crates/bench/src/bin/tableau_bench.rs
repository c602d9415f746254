//! Stabilizer-engine throughput trajectory.
//!
//! Measures the word-parallel [`Tableau`] against the scalar row-major
//! [`RefTableau`] oracle on identical gate workloads across a size sweep,
//! plus an end-to-end batch compile of the default corpus, and writes the
//! results to `BENCH_tableau.json` (repo root by convention) so future PRs
//! can track regressions against a committed baseline.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin tableau_bench -- \
//!     [--smoke] [--out FILE.json] [--corpus-baseline-micros N]`
//!
//! `--smoke` shrinks sizes and repetitions to CI scale; the emitted file is
//! always re-read and validated before the process exits, so a zero exit
//! code certifies a well-formed trajectory file. `--corpus-baseline-micros`
//! records an externally measured pre-optimization corpus wall time (e.g.
//! from running `corpus_run` at the previous commit) next to the fresh
//! measurement, making the end-to-end delta part of the trajectory.

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use epgs::{BatchCompiler, BatchInstance};
use epgs_bench::{corpus_framework, SEED};
use epgs_corpus::{CorpusSpec, Value};
use epgs_graph::generators;
use epgs_graph::gf2::BitMatrix;
use epgs_stabilizer::reference::RefTableau;
use epgs_stabilizer::Tableau;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One measured gate class.
const CLASSES: [&str; 6] = ["h", "s", "cnot", "cz", "row_mul", "measure"];

fn usage() -> ExitCode {
    eprintln!("usage: tableau_bench [--smoke] [--out FILE.json] [--corpus-baseline-micros N]");
    ExitCode::FAILURE
}

/// Builds the same pseudo-random stabilizer state in both engines: a seeded
/// Erdős–Rényi graph state followed by a scrambling gate tape.
fn scrambled_pair(n: usize) -> (Tableau, RefTableau) {
    let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
    let g = generators::erdos_renyi(n, 0.4, &mut rng);
    let mut t = Tableau::graph_state(&g);
    let mut r = RefTableau::graph_state(&g);
    for _ in 0..4 * n {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..4) {
            0 => {
                t.h(q);
                r.h(q);
            }
            1 => {
                t.s(q);
                r.s(q);
            }
            2 => {
                let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                t.cnot(q, p);
                r.cnot(q, p);
            }
            _ => {
                let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                t.cz(q, p);
                r.cz(q, p);
            }
        }
    }
    (t, r)
}

/// Applies `rounds` full sweeps of one gate class to a tableau-like engine
/// via the three closures, returning (ops, seconds). Every class sweeps all
/// `n` qubits per round so both engines see identical work.
fn time_class<F: FnMut(usize, usize)>(n: usize, rounds: usize, mut apply: F) -> (usize, f64) {
    let t0 = Instant::now();
    let mut ops = 0usize;
    for round in 0..rounds {
        for q in 0..n {
            apply(q, round);
            ops += 1;
        }
    }
    (ops, t0.elapsed().as_secs_f64())
}

struct ClassResult {
    class: &'static str,
    ref_mops: f64,
    new_mops: f64,
    speedup: f64,
}

/// Measures one size point: identical workloads through both engines.
fn bench_size(n: usize, rounds: usize) -> Vec<ClassResult> {
    let (base_t, base_r) = scrambled_pair(n);
    let mut results = Vec::new();
    for class in CLASSES {
        // A measurement costs O(n) row products, not one gate; scale its
        // rounds down so the scalar baseline finishes in bench time.
        let rounds = if class == "measure" {
            (rounds / 16).max(1)
        } else {
            rounds
        };
        let (mut t, mut r) = (base_t.clone(), base_r.clone());
        let other = |q: usize, round: usize| (q + 1 + round % (n - 1)) % n;
        let (ops_new, secs_new) = match class {
            "h" => time_class(n, rounds, |q, _| t.h(q)),
            "s" => time_class(n, rounds, |q, _| t.s(q)),
            "cnot" => time_class(n, rounds, |q, k| t.cnot(q, other(q, k))),
            "cz" => time_class(n, rounds, |q, k| t.cz(q, other(q, k))),
            "row_mul" => time_class(n, rounds, |q, k| t.row_mul(q, other(q, k))),
            _ => time_class(n, rounds, |q, _| {
                t.h(q);
                let _ = t.measure_z(q, false);
            }),
        };
        let (ops_ref, secs_ref) = match class {
            "h" => time_class(n, rounds, |q, _| r.h(q)),
            "s" => time_class(n, rounds, |q, _| r.s(q)),
            "cnot" => time_class(n, rounds, |q, k| r.cnot(q, other(q, k))),
            "cz" => time_class(n, rounds, |q, k| r.cz(q, other(q, k))),
            "row_mul" => time_class(n, rounds, |q, k| r.row_mul(q, other(q, k))),
            _ => time_class(n, rounds, |q, _| {
                r.h(q);
                let _ = r.measure_z(q, false);
            }),
        };
        // The two engines ran the same tape; a layout divergence here would
        // invalidate the comparison (and the engine), so fail loudly.
        assert_eq!(ops_new, ops_ref);
        if class != "measure" {
            // Measurement keeps collapsing state; gate classes must match.
            for q in 0..n {
                assert_eq!(
                    t.phase_of(q),
                    r.phase_of(q),
                    "n={n} {class}: phases diverged"
                );
            }
        }
        let new_mops = ops_new as f64 / secs_new.max(1e-12) / 1e6;
        let ref_mops = ops_ref as f64 / secs_ref.max(1e-12) / 1e6;
        results.push(ClassResult {
            class,
            ref_mops,
            new_mops,
            speedup: new_mops / ref_mops.max(1e-12),
        });
    }
    results
}

/// Measures the Four-Russians blocked RREF against the word-loop oracle on
/// the solver's constraint shapes (`2n×(n+1)` deterministic-sign systems).
/// Returns JSON entries for the trajectory's `kernels` array.
fn bench_kernels(smoke: bool) -> Vec<String> {
    use std::hint::black_box;
    println!("\n== gf2 rref (Four-Russians vs word-loop oracle) ==");
    let mut entries = Vec::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    // The smoke shape is the first full shape so the guard's ratio
    // comparison stays live on CI runs against the committed trajectory.
    let shapes: &[(usize, usize)] = if smoke {
        &[(128, 65)]
    } else {
        &[(128, 65), (256, 129), (512, 257)]
    };
    for &(rows, cols) in shapes {
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen::<bool>() {
                    m.set(r, c, true);
                }
            }
        }
        let iters = if smoke {
            8
        } else {
            (400_000_000 / (rows * cols)).max(8)
        };
        let mut pivots = Vec::new();
        // Untimed warmup so page faults and lazy allocations don't land in
        // either path's first timed iteration.
        for _ in 0..2 {
            let mut w = m.clone();
            w.rref_within_wordloop_into(cols, &mut pivots);
            let mut b = m.clone();
            b.rref_within_blocked_into(cols, &mut pivots);
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut w = m.clone();
            w.rref_within_wordloop_into(cols, &mut pivots);
            black_box(&w);
        }
        let scalar_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut b = m.clone();
            b.rref_within_blocked_into(cols, &mut pivots);
            black_box(&b);
        }
        let blocked_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
        let speedup = scalar_ms / blocked_ms.max(1e-12);
        println!(
            "rref {rows:>4}x{cols:<4} wordloop {scalar_ms:>8.4} ms  blocked {blocked_ms:>8.4} ms  {speedup:>5.2}x"
        );
        entries.push(format!(
            "{{\"op\":\"rref\",\"rows\":{rows},\"cols\":{cols},\"scalar_ms\":{scalar_ms:.5},\"blocked_ms\":{blocked_ms:.5},\"speedup\":{speedup:.2}}}"
        ));
    }
    entries
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = "BENCH_tableau.json".to_string();
    let mut corpus_baseline_micros: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a file path");
                    return usage();
                }
            },
            "--corpus-baseline-micros" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => corpus_baseline_micros = Some(v),
                _ => {
                    eprintln!("--corpus-baseline-micros needs an integer");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }

    let sizes: &[usize] = if smoke {
        &[16, 32]
    } else {
        &[32, 64, 128, 256, 512]
    };

    println!("== tableau gate throughput (word-parallel vs scalar reference) ==");
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>9}",
        "n", "class", "ref Mop/s", "new Mop/s", "speedup"
    );
    let mut size_entries = Vec::new();
    for &n in sizes {
        // Rounds sized so the scalar baseline runs tens of milliseconds.
        let rounds = if smoke {
            2
        } else {
            (30_000_000 / (n * n)).max(8)
        };
        let results = bench_size(n, rounds);
        let geomean = (results.iter().map(|c| c.speedup.ln()).sum::<f64>()
            / results.len().max(1) as f64)
            .exp();
        for c in &results {
            println!(
                "{n:>5} {:>9} {:>12.2} {:>12.2} {:>8.1}x",
                c.class, c.ref_mops, c.new_mops, c.speedup
            );
        }
        println!("{n:>5} {:>9} {:>37.1}x", "geomean", geomean);
        let classes_json: Vec<String> = results
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\":{},\"ref_mops\":{:.3},\"new_mops\":{:.3},\"speedup\":{:.2}}}",
                    Value::Str(c.class.to_string()),
                    c.ref_mops,
                    c.new_mops,
                    c.speedup
                )
            })
            .collect();
        size_entries.push(format!(
            "{{\"n\":{n},\"rounds\":{rounds},\"geomean_speedup\":{geomean:.2},\"classes\":[{}]}}",
            classes_json.join(",")
        ));
    }

    let kernel_entries = bench_kernels(smoke);

    // Direct whole-graph solves: the tableau-dominated regime (no
    // partitioning), where the word-parallel engine and the shared
    // `rref_within` factorization show up end to end.
    println!("\n== direct reverse solves (lattice targets, verify on) ==");
    let solve_sizes: &[usize] = if smoke { &[16] } else { &[60, 120, 240] };
    let mut solve_entries = Vec::new();
    for &n in solve_sizes {
        let g = generators::lattice(4, n / 4);
        let opts = epgs_solver::reverse::SolveOptions::default();
        let t0 = Instant::now();
        let solved = match epgs_solver::reverse::solve(&g, &opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tableau_bench: lattice n={n}: direct solve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let dt = t0.elapsed().as_secs_f64();
        println!("{n:>5} qubits: {dt:.3} s  emitters={}", solved.emitters);
        solve_entries.push(format!(
            "{{\"n\":{n},\"seconds\":{dt:.4},\"emitters\":{}}}",
            solved.emitters
        ));
    }

    // End-to-end: one cold pass over the default corpus through the batch
    // engine (partition + leaf solve + schedule + recombine + verify).
    let spec = CorpusSpec::default_corpus();
    // `wall_micros` is the Σ of per-instance wall times (the figure
    // `corpus_run` prints and records), so `--corpus-baseline-micros` taken
    // from a previous corpus_run report compares like with like;
    // `elapsed_micros` is the parallel cold-pass wall clock.
    let (wall_micros, elapsed_micros, instances, succeeded) = if smoke {
        (0u128, 0u128, 0usize, 0usize)
    } else {
        let jobs: Vec<BatchInstance> = spec
            .instances()
            .into_iter()
            .map(|i| BatchInstance::new(i.id, i.family, i.graph))
            .collect();
        let batch = BatchCompiler::new(corpus_framework().config().clone());
        let t0 = Instant::now();
        let report = batch.run(&jobs);
        let elapsed = t0.elapsed().as_micros();
        println!(
            "\n== end-to-end: default corpus, cold pass ==\n{}/{} ok, Σ wall {:.2} s, elapsed {:.2} s",
            report.succeeded,
            report.instances.len(),
            report.total_wall_micros as f64 / 1e6,
            elapsed as f64 / 1e6
        );
        (
            report.total_wall_micros,
            elapsed,
            report.instances.len(),
            report.succeeded,
        )
    };

    let mut doc = String::from("{\"bench\":\"tableau\",");
    doc.push_str(&format!(
        "\"mode\":{},\"seed\":{SEED},",
        Value::Str(if smoke { "smoke" } else { "full" }.to_string())
    ));
    doc.push_str(&format!(
        "\"gate_throughput\":[{}],",
        size_entries.join(",")
    ));
    doc.push_str(&format!("\"kernels\":[{}],", kernel_entries.join(",")));
    doc.push_str(&format!("\"direct_solve\":[{}],", solve_entries.join(",")));
    doc.push_str(&format!(
        "\"end_to_end\":{{\"corpus\":{},\"instances\":{instances},\"succeeded\":{succeeded},\"wall_micros\":{wall_micros},\"elapsed_micros\":{elapsed_micros}",
        Value::Str(spec.name.clone())
    ));
    match corpus_baseline_micros {
        Some(base) if wall_micros > 0 => {
            doc.push_str(&format!(
                ",\"baseline_wall_micros\":{base},\"wall_speedup\":{:.2}",
                base as f64 / wall_micros as f64
            ));
        }
        Some(base) => {
            doc.push_str(&format!(",\"baseline_wall_micros\":{base}"));
        }
        None => {}
    }
    doc.push_str("}}");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    // Self-validation: the written file must round-trip through the JSON
    // parser and carry the fields the trajectory tooling keys on. This is
    // the assertion CI's smoke run relies on.
    let text = match fs::read_to_string(&out_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot re-read {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{out_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gate_points = parsed
        .get("gate_throughput")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    let kernel_points = parsed
        .get("kernels")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    let well_formed = parsed.get("bench").and_then(Value::as_str) == Some("tableau")
        && gate_points == sizes.len()
        && kernel_points == kernel_entries.len()
        && kernel_points > 0
        && parsed
            .get("end_to_end")
            .and_then(|e| e.get("wall_micros"))
            .and_then(Value::as_u64)
            .is_some();
    if !well_formed {
        eprintln!("{out_path} is missing required trajectory fields");
        return ExitCode::FAILURE;
    }
    println!("trajectory written to {out_path}");
    ExitCode::SUCCESS
}
