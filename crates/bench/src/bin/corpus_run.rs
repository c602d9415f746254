//! Batch-compiles a corpus of target graph states and writes a JSON report.
//!
//! Each pass compiles every instance of the corpus through one shared
//! [`BatchCompiler`]; pass 1 populates the content-addressed artifact cache
//! and later passes demonstrate it (every instance's verified result is
//! served from the cache). The emitted JSON holds
//! one report per pass plus the cumulative cache counters.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin corpus_run -- \
//!     [--spec FILE.json] [--out FILE.json] [--passes N] [--store DIR]`
//!
//! With `--store DIR` the compiler persists every artifact in a
//! content-addressed on-disk store, so a *second process* run over the
//! same corpus and directory serves its expensive prefixes from disk
//! (reported as `disk_hits`).

use std::fs;
use std::process::ExitCode;

use epgs::{BatchCompiler, BatchInstance, BatchReport};
use epgs_bench::corpus_framework;
use epgs_corpus::{CorpusSpec, Value};

fn usage() -> ExitCode {
    eprintln!("usage: corpus_run [--spec FILE.json] [--out FILE.json] [--passes N] [--store DIR]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut out_path = "target/corpus_run.json".to_string();
    let mut store_dir: Option<String> = None;
    let mut passes = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => match args.next() {
                Some(path) => spec_path = Some(path),
                None => {
                    eprintln!("--spec needs a file path");
                    return usage();
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a file path");
                    return usage();
                }
            },
            "--passes" => match args.next().map(|p| p.parse::<usize>()) {
                Some(Ok(p)) if p >= 1 => passes = p,
                _ => {
                    eprintln!("--passes needs a positive integer");
                    return usage();
                }
            },
            "--store" => match args.next() {
                Some(dir) => store_dir = Some(dir),
                None => {
                    eprintln!("--store needs a directory");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }

    let spec = match &spec_path {
        None => CorpusSpec::default_corpus(),
        Some(path) => {
            let text = match fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read spec {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match CorpusSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot parse spec {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // Generator preconditions (e.g. a Watts–Strogatz grid with
    // neighbors ≥ size) surface as panics from instances(); turn them into
    // the same diagnostic-and-exit path as every other bad input.
    let instances = match std::panic::catch_unwind(|| spec.instances()) {
        Ok(instances) => instances,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("generator precondition violated");
            eprintln!("spec '{}' names an invalid instance grid: {msg}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    if instances.is_empty() {
        eprintln!("spec '{}' produced no instances", spec.name);
        return ExitCode::FAILURE;
    }
    let jobs: Vec<BatchInstance> = instances
        .into_iter()
        .map(|i| BatchInstance::new(i.id, i.family, i.graph))
        .collect();

    // A corpus may pin a hardware preset; it overrides the bench default
    // end to end (timings, loss figures and objective scoring).
    // `from_json` validated the key, but specs built in code reach here
    // too.
    let mut config = corpus_framework().config().clone();
    match spec.hardware_model() {
        Ok(None) => {}
        Ok(Some(hw)) => config.hardware = hw,
        Err(e) => {
            eprintln!("spec '{}': {e}", spec.name);
            return ExitCode::FAILURE;
        }
    }
    println!(
        "corpus '{}': {} families, {} instances, {} passes, hardware '{}'",
        spec.name,
        spec.families.len(),
        jobs.len(),
        passes,
        config.hardware.name,
    );

    // Size the cache to the corpus: the default 256-entry bound would
    // thrash (and fail the repeated-pass hit check below) on larger specs.
    let mut batch = BatchCompiler::with_cache_capacity(
        config,
        jobs.len().max(BatchCompiler::DEFAULT_CACHE_CAPACITY),
    );
    if let Some(dir) = &store_dir {
        match epgs::ArtifactStore::open(dir) {
            Ok(store) => batch.attach_store(store),
            Err(e) => {
                eprintln!("cannot open artifact store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut reports: Vec<BatchReport> = Vec::with_capacity(passes);
    for pass in 1..=passes {
        let report = batch.run(&jobs);
        println!(
            "pass {pass}: {}/{} ok, {} cache hits, {} disk hits, {} misses, Σ wall {:.2} s",
            report.succeeded,
            report.instances.len(),
            report.cache_hits,
            report.disk_hits,
            report.cache_misses,
            report.total_wall_micros as f64 / 1e6,
        );
        for f in &report.families {
            println!(
                "  {:<16} {:>2}/{:<2} ok  {:>2} hits  mean ee-CNOTs {:>6.2}  mean τ {:>7.2}",
                f.family, f.succeeded, f.instances, f.cache_hits, f.mean_ee_cnots, f.mean_duration
            );
        }
        reports.push(report);
    }

    let mut doc = String::from("{");
    doc.push_str(&format!(
        "\"corpus\":{},\"passes\":{passes},\"reports\":[",
        Value::Str(spec.name.clone())
    ));
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&r.to_json());
    }
    doc.push_str("]}");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(&out_path, &doc) {
        eprintln!("cannot write report {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {out_path}");

    let failed: usize = reports.iter().map(|r| r.failed).sum();
    if failed > 0 {
        eprintln!("{failed} instance compilations failed");
        return ExitCode::FAILURE;
    }
    if passes >= 2
        && reports
            .last()
            .is_some_and(|r| r.cache_hits + r.disk_hits == 0)
    {
        eprintln!("repeated pass produced no cache hits — artifact cache is broken");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
