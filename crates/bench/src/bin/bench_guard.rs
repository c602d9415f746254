//! Non-fatal trajectory guard: diffs a freshly produced benchmark JSON
//! against the committed baseline and warns on regressions.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin bench_guard -- BASELINE.json FRESH.json`
//!
//! The comparison dispatches on document shape. Runtime trajectories
//! (`BENCH_runtime.json`) match framework/exhaustive points by `n` and
//! compare the total plus each stage of the breakdown (partition / plan /
//! schedule / recombine / verify). Serve trajectories (`BENCH_serve.json`,
//! recognized by their `phases` array) match phases by name and compare
//! each phase's wall seconds, additionally warning when a phase's hit rate
//! drops; when both documents carry a `chaos` object its error, degraded,
//! and store-retry counters are diffed too (the chaos fault plan is
//! seeded, so count growth means fault handling changed). Tableau
//! trajectories (`BENCH_tableau.json`) contribute their
//! `kernels` rows — RREF only, matched by shape; those compare the
//! Four-Russians/word-loop speedup *ratio* (warning below 75% of baseline)
//! because the ratio is machine-noise-immune while the absolute
//! per-iteration times are not. A
//! timing more than 25% above the baseline prints a `regression:`
//! warning. Timings under the 20 ms noise floor are skipped (sub-floor
//! stages are dominated by scheduler jitter); the smoke sweep's n=30 point
//! sits above the floor on the committed trajectory precisely so the CI
//! wiring of this guard always has live comparisons.
//!
//! Timing comparisons are advisory: they print warnings but never fail the
//! run (CI hardware is too noisy for a hard wall-clock gate). The chaos
//! counters are different: when both trajectories replayed the *same* fault
//! spec, every counter except `errors.deadline_exceeded` is a pure function
//! of (seed, corpus, fault-handling code), so any drift is a behavioral
//! change, not noise — those are gated strictly and fail the run with a
//! non-zero exit. `deadline_exceeded` stays advisory because deadline
//! expiry depends on wall-clock scheduling. The guard also exits non-zero
//! when an input file is missing or malformed.

use std::process::ExitCode;

use epgs_bench::STAGES;
use epgs_corpus::Value;

/// Regression threshold: warn above `baseline × (1 + THRESHOLD)`.
const THRESHOLD: f64 = 0.25;
/// Ignore comparisons where the baseline is below this (seconds).
const NOISE_FLOOR: f64 = 0.02;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares one labelled timing; returns whether a regression was reported.
fn check(label: &str, baseline: f64, fresh: f64) -> bool {
    if baseline < NOISE_FLOOR {
        return false;
    }
    if fresh > baseline * (1.0 + THRESHOLD) {
        println!(
            "regression: {label}: {fresh:.3}s vs baseline {baseline:.3}s (+{:.0}%)",
            100.0 * (fresh - baseline) / baseline
        );
        return true;
    }
    false
}

/// Entries of an array keyed by their `n` field.
fn by_n(doc: &Value, key: &str) -> Vec<(usize, Value)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| Some((e.get("n")?.as_usize()?, e.clone())))
                .collect()
        })
        .unwrap_or_default()
}

/// Entries of a serve trajectory's `phases` array keyed by phase name.
fn by_phase(doc: &Value) -> Vec<(String, Value)> {
    doc.get("phases")
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| Some((e.get("phase")?.as_str()?.to_string(), e.clone())))
                .collect()
        })
        .unwrap_or_default()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_guard BASELINE.json FRESH.json");
        return ExitCode::FAILURE;
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut compared = 0usize;
    let mut regressions = 0usize;
    let base_ex = by_n(&baseline, "exhaustive");
    for (n, fresh_entry) in by_n(&fresh, "exhaustive") {
        let Some((_, base_entry)) = base_ex.iter().find(|(bn, _)| *bn == n) else {
            continue;
        };
        if let (Some(b), Some(f)) = (
            base_entry.get("seconds").and_then(Value::as_f64),
            fresh_entry.get("seconds").and_then(Value::as_f64),
        ) {
            compared += 1;
            regressions += check(&format!("exhaustive n={n}"), b, f) as usize;
        }
    }
    let base_fw = by_n(&baseline, "framework");
    for (n, fresh_entry) in by_n(&fresh, "framework") {
        let Some((_, base_entry)) = base_fw.iter().find(|(bn, _)| *bn == n) else {
            continue;
        };
        if let (Some(b), Some(f)) = (
            base_entry.get("seconds").and_then(Value::as_f64),
            fresh_entry.get("seconds").and_then(Value::as_f64),
        ) {
            compared += 1;
            regressions += check(&format!("framework n={n} total"), b, f) as usize;
        }
        for stage in STAGES {
            let b = base_entry
                .get("stages")
                .and_then(|s| s.get(stage))
                .and_then(Value::as_f64);
            let f = fresh_entry
                .get("stages")
                .and_then(|s| s.get(stage))
                .and_then(Value::as_f64);
            if let (Some(b), Some(f)) = (b, f) {
                compared += 1;
                regressions += check(&format!("framework n={n} {stage}"), b, f) as usize;
            }
        }
        // Multilevel per-level trace: levels are matched by vertex count —
        // the hierarchy is a pure function of (graph, g_max, seed, options),
        // so a vertex-count mismatch means the coarsening itself changed and
        // timings are not comparable (reported informationally, not as a
        // regression).
        let base_levels = base_entry.get("partition_levels").and_then(Value::as_arr);
        let fresh_levels = fresh_entry.get("partition_levels").and_then(Value::as_arr);
        if let (Some(bl), Some(fl)) = (base_levels, fresh_levels) {
            if bl.len() != fl.len()
                || bl.iter().zip(fl.iter()).any(|(b, f)| {
                    b.get("vertices").and_then(Value::as_usize)
                        != f.get("vertices").and_then(Value::as_usize)
                })
            {
                println!(
                    "note: framework n={n}: partition hierarchy shape changed, levels skipped"
                );
            } else {
                for (b, f) in bl.iter().zip(fl.iter()) {
                    let v = b.get("vertices").and_then(Value::as_usize).unwrap_or(0);
                    if let (Some(b), Some(f)) = (
                        b.get("seconds").and_then(Value::as_f64),
                        f.get("seconds").and_then(Value::as_f64),
                    ) {
                        compared += 1;
                        regressions += check(&format!("framework n={n} level {v}v"), b, f) as usize;
                    }
                }
            }
        }
    }
    // Tableau trajectories: GF(2) RREF rows matched by op and shape. The
    // per-iteration times sit under the wall-clock noise floor, so the guard
    // compares the *speedup ratio* of the Four-Russians elimination over the
    // word-loop oracle instead — the quantity the kernel rows exist to pin.
    // A fresh ratio below 75% of the committed one means the blocked path
    // lost ground against its own oracle on the same machine, which no
    // amount of global machine noise explains.
    let kernel_key = |e: &Value| -> Option<String> {
        let op = e.get("op")?.as_str()?.to_string();
        match (
            e.get("rows").and_then(Value::as_usize),
            e.get("cols").and_then(Value::as_usize),
        ) {
            (Some(r), Some(c)) => Some(format!("{op} {r}x{c}")),
            _ => Some(format!("{op} {}w", e.get("words")?.as_usize()?)),
        }
    };
    let base_kernels: Vec<(String, Value)> = baseline
        .get("kernels")
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| Some((kernel_key(e)?, e.clone())))
                .collect()
        })
        .unwrap_or_default();
    if let Some(arr) = fresh.get("kernels").and_then(Value::as_arr) {
        for fresh_entry in arr {
            let Some(key) = kernel_key(fresh_entry) else {
                continue;
            };
            let Some((_, base_entry)) = base_kernels.iter().find(|(bk, _)| *bk == key) else {
                continue;
            };
            if let (Some(b), Some(f)) = (
                base_entry.get("speedup").and_then(Value::as_f64),
                fresh_entry.get("speedup").and_then(Value::as_f64),
            ) {
                compared += 1;
                if f < b * 0.75 {
                    println!("regression: kernel {key} speedup {f:.2}x vs baseline {b:.2}x");
                    regressions += 1;
                }
            }
        }
    }
    // Serve trajectories: phases matched by name, wall seconds compared
    // with the same advisory threshold, hit-rate drops called out.
    let base_phases = by_phase(&baseline);
    for (name, fresh_entry) in by_phase(&fresh) {
        let Some((_, base_entry)) = base_phases.iter().find(|(bn, _)| *bn == name) else {
            continue;
        };
        if let (Some(b), Some(f)) = (
            base_entry.get("seconds").and_then(Value::as_f64),
            fresh_entry.get("seconds").and_then(Value::as_f64),
        ) {
            compared += 1;
            regressions += check(&format!("serve {name}"), b, f) as usize;
        }
        if let (Some(b), Some(f)) = (
            base_entry.get("hit_rate").and_then(Value::as_f64),
            fresh_entry.get("hit_rate").and_then(Value::as_f64),
        ) {
            compared += 1;
            if f < b - 0.05 {
                println!("regression: serve {name} hit rate {f:.3} vs baseline {b:.3}");
                regressions += 1;
            }
        }
    }
    // Serve chaos counters: the chaos phase replays a fixed seeded fault
    // plan over the fixed corpus, so when both trajectories carry the same
    // `spec` string every counter except deadline expiry is a pure function
    // of the fault-handling code. Those counters are gated STRICTLY: any
    // drift — up or down — means the chaos behavior changed and fails the
    // run. `errors.deadline_exceeded` is the one wall-clock-dependent
    // counter and stays advisory. If the specs differ the counts are not
    // comparable and everything falls back to advisory diffing.
    let chaos_counter = |doc: &Value, path: &[&str]| -> Option<f64> {
        let mut v = doc.get("chaos")?;
        for p in path {
            v = v.get(p)?;
        }
        v.as_f64()
    };
    let chaos_spec = |doc: &Value| -> Option<String> {
        Some(doc.get("chaos")?.get("spec")?.as_str()?.to_string())
    };
    let same_spec = match (chaos_spec(&baseline), chaos_spec(&fresh)) {
        (Some(b), Some(f)) => {
            if b != f {
                println!("note: chaos fault specs differ, counters diffed advisorily only");
            }
            b == f
        }
        _ => false,
    };
    // (label, path, strict): strict counters hard-fail on any drift when the
    // specs match; non-strict ones only ever warn.
    let chaos_counters: [(&str, &[&str], bool); 7] = [
        ("errors.compile_failed", &["errors", "compile_failed"], true),
        (
            "errors.deadline_exceeded",
            &["errors", "deadline_exceeded"],
            false,
        ),
        ("errors.overloaded", &["errors", "overloaded"], true),
        ("errors.panic", &["errors", "panic"], true),
        ("degraded", &["degraded"], true),
        ("store.read_retries", &["store", "read_retries"], true),
        ("store.quarantined", &["store", "quarantined"], true),
    ];
    let mut chaos_failures = 0usize;
    for (label, path, strict) in chaos_counters {
        if let (Some(b), Some(f)) = (chaos_counter(&baseline, path), chaos_counter(&fresh, path)) {
            compared += 1;
            if same_spec && strict {
                if f != b {
                    println!("chaos gate: serve chaos {label}: {f:.0} vs baseline {b:.0}");
                    chaos_failures += 1;
                }
            } else if f > b {
                println!("regression: serve chaos {label}: {f:.0} vs baseline {b:.0}");
                regressions += 1;
            } else if f < b {
                println!("note: serve chaos {label} moved: {f:.0} vs baseline {b:.0}");
            }
        }
    }
    println!(
        "bench_guard: {compared} timings compared, {regressions} regression warning(s) \
         (advisory, threshold +{:.0}%), {chaos_failures} chaos gate failure(s) (strict)",
        THRESHOLD * 100.0
    );
    if chaos_failures > 0 {
        eprintln!(
            "bench_guard: chaos counters drifted under an identical seeded fault plan — \
             fault handling changed; regenerate the baseline if intentional"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
