//! Regenerates the §III Challenge 1 scalability claim: exhaustive
//! ordering search blows up combinatorially (GraphiQ exceeds 10³ s beyond 10
//! qubits on linear clusters) while the framework's divide-and-conquer
//! compilation stays polynomial.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin runtime_scaling -- \
//!     [--smoke] [--out FILE.json]`
//!
//! Besides the console tables, the run is recorded to `BENCH_runtime.json`
//! (repo root by convention) so the scaling trajectory can be tracked across
//! PRs alongside `BENCH_tableau.json`. Every framework point carries a
//! per-stage wall-time breakdown (partition / plan / schedule / recombine /
//! verify) so the trajectory shows *where* the next bottleneck lives; the
//! emitted file is re-parsed and the breakdown fields validated before the
//! bin exits 0 (`bench_guard` then diffs trajectories across commits).
//! `--smoke` shrinks both sweeps to CI scale. The exhaustive sweep drives
//! thousands of solves through one reused `SolverWorkspace`, matching how
//! the leaf compiler batches its candidate solves.

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use epgs_bench::{bench_framework, flat_framework, STAGES};
use epgs_corpus::Value;
use epgs_graph::generators;
use epgs_partition::{multilevel_partition_traced, PartitionScheme};
use epgs_solver::reverse::{solve_with_ordering_in, SolveOptions, SolverWorkspace};

/// Exhaustively searches every emission ordering (the brute-force regime the
/// paper attributes to exact solvers). Returns (best #ee-CNOT, orderings
/// tried).
fn exhaustive(n: usize) -> (usize, usize) {
    let g = generators::path(n);
    let opts = SolveOptions {
        verify: false,
        ..SolveOptions::default()
    };
    let mut ws = SolverWorkspace::new();
    let mut best = usize::MAX;
    let mut tried = 0usize;
    let mut perm: Vec<usize> = (0..n).collect();
    // Heap's algorithm.
    let mut c = vec![0usize; n];
    let mut eval = |p: &[usize], best: &mut usize, tried: &mut usize| {
        if let Ok(s) = solve_with_ordering_in(&mut ws, &g, p, &opts) {
            *best = (*best).min(s.circuit.ee_two_qubit_count());
        }
        *tried += 1;
    };
    eval(&perm, &mut best, &mut tried);
    let mut i = 1;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            eval(&perm, &mut best, &mut tried);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best, tried)
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = "BENCH_runtime.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: runtime_scaling [--smoke] [--out FILE.json]");
                return ExitCode::FAILURE;
            }
        }
    }
    let exhaustive_sizes: &[usize] = if smoke { &[4, 5] } else { &[4, 5, 6, 7, 8] };
    // Smoke keeps n=30: its partition stage sits above bench_guard's noise
    // floor on the committed trajectory, so the CI guard has live
    // comparisons rather than skipping everything as jitter. n=60 is above
    // the multilevel coarsening cutoff, so CI also exercises the coarsen →
    // partition → uncoarsen path and its per-level trace end to end.
    let framework_sizes: &[usize] = if smoke {
        &[10, 20, 30, 60]
    } else {
        &[10, 20, 30, 40, 50, 60, 80, 100, 200, 500, 1000]
    };
    // Size at which the flat partitioner is re-timed alongside the default
    // scheme — big enough that the flat engine's O(n²) swap passes dominate
    // (the speedup headline), small enough that one flat run stays in
    // seconds. Skipped in smoke mode.
    const FLAT_COMPARE_N: usize = 100;

    println!("== exhaustive ordering search on linear clusters (brute-force regime) ==");
    println!(
        "{:>7} {:>12} {:>12} {:>12}",
        "#qubit", "orderings", "best CNOT", "seconds"
    );
    let mut exhaustive_entries = Vec::new();
    for &n in exhaustive_sizes {
        let t0 = Instant::now();
        let (best, tried) = exhaustive(n);
        let dt = t0.elapsed().as_secs_f64();
        println!("{n:>7} {tried:>12} {best:>12} {dt:>12.2}");
        exhaustive_entries.push(format!(
            "{{\"n\":{n},\"orderings\":{tried},\"best_ee_cnots\":{best},\"seconds\":{dt:.4}}}"
        ));
    }
    println!("(n! growth: already >10³ s well before 12 qubits — the paper's Challenge 1)\n");

    println!("== framework compilation (divide-and-conquer) ==");
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "#qubit", "ee-CNOT", "total", "partn", "plan", "sched", "recomb", "verify"
    );
    let pipeline = bench_framework();
    let mut framework_entries = Vec::new();
    for &n in framework_sizes {
        let g = generators::path(n);
        let t0 = Instant::now();
        let partitioned = pipeline.partition(&g);
        let t_partition = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let planned = match partitioned.plan_leaves() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("runtime_scaling: n={n}: leaf planning failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let t_plan = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let scheduled = planned.schedule(planned.configured_budget());
        let t_schedule = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let recombined = match scheduled.recombine() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("runtime_scaling: n={n}: recombination failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let t_recombine = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let compiled = match recombined.verify() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("runtime_scaling: n={n}: verification failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let t_verify = t0.elapsed().as_secs_f64();
        let total = t_partition + t_plan + t_schedule + t_recombine + t_verify;
        let ee = compiled.metrics.ee_two_qubit_count;
        println!(
            "{n:>7} {ee:>9} {total:>9.2} {t_partition:>9.2} {t_plan:>9.2} {t_schedule:>9.2} \
             {t_recombine:>9.2} {t_verify:>9.2}"
        );
        // Per-level engine trace: one direct multilevel run with the same
        // spec arguments the LC search forwards, so the trajectory shows
        // where inside the V-cycle each size spends its time.
        let spec = &pipeline.config().partition;
        let levels_json = match &spec.scheme {
            PartitionScheme::Multilevel(opts) => {
                let (_, _, trace) = multilevel_partition_traced(
                    &g,
                    spec.num_blocks(n),
                    spec.g_max,
                    spec.effort.max(2),
                    spec.seed,
                    opts,
                );
                let levels: Vec<String> = trace
                    .iter()
                    .map(|l| {
                        format!(
                            "{{\"vertices\":{},\"edges\":{},\"seconds\":{:.6}}}",
                            l.vertices, l.edges, l.seconds
                        )
                    })
                    .collect();
                format!(",\"partition_levels\":[{}]", levels.join(","))
            }
            PartitionScheme::Flat => String::new(),
        };
        // Headline comparison: re-time the partition stage under the flat
        // scheme at one size so the committed trajectory itself shows the
        // speedup, measured on the same machine in the same run.
        let flat_json = if !smoke && n == FLAT_COMPARE_N {
            let flat_pipeline = flat_framework();
            let t0 = Instant::now();
            let _ = flat_pipeline.partition(&g);
            let t_flat = t0.elapsed().as_secs_f64();
            let speedup = t_flat / t_partition.max(1e-9);
            println!("        (flat partition at n={n}: {t_flat:.2}s → {speedup:.1}x speedup)");
            format!(",\"flat_partition_seconds\":{t_flat:.4},\"partition_speedup\":{speedup:.2}")
        } else {
            String::new()
        };
        framework_entries.push(format!(
            "{{\"n\":{n},\"ee_cnots\":{ee},\"seconds\":{total:.4},\"stages\":{{\
             \"partition\":{t_partition:.4},\"plan\":{t_plan:.4},\"schedule\":{t_schedule:.4},\
             \"recombine\":{t_recombine:.4},\"verify\":{t_verify:.4}}}{levels_json}{flat_json}}}"
        ));
    }
    println!("(polynomial: entire 100-qubit compile, verification included, in seconds)");

    let doc = format!(
        "{{\"bench\":\"runtime\",\"mode\":{},\"exhaustive\":[{}],\"framework\":[{}]}}",
        Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        exhaustive_entries.join(","),
        framework_entries.join(",")
    );
    if let Err(e) = fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    // Self-validation: the emitted trajectory must parse and every framework
    // point must carry the full stage breakdown.
    let valid = fs::read_to_string(&out_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Value::parse(&t).map_err(|e| e.to_string()))
        .map(|v| {
            v.get("bench").and_then(Value::as_str) == Some("runtime")
                && v.get("framework")
                    .and_then(Value::as_arr)
                    .is_some_and(|fw| {
                        !fw.is_empty()
                            && fw.iter().all(|entry| {
                                let stages = entry.get("stages");
                                STAGES.iter().all(|key| {
                                    stages
                                        .and_then(|s| s.get(key))
                                        .and_then(Value::as_f64)
                                        .is_some()
                                })
                            })
                    })
        });
    match valid {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            eprintln!("{out_path} failed self-validation (missing stage breakdown?)");
            return ExitCode::FAILURE;
        }
    }
    println!("trajectory written to {out_path}");
    ExitCode::SUCCESS
}
