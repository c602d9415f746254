//! perfbench — the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <paper_sweep|scale_mix|serve_zipf> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer metrics and the
//! tracing overhead. Either prints its settings, per-instance tables, and
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Any failed compile, changed output or unverified circuit
//! makes the exit code non-zero.

mod compile;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Tally, Values, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 21;

/// Seconds of compile work before any timing starts, so set-up and the
/// first measured pass do not run while the processor is still ramping up.
const WARM_UP_S: f64 = 2.0;

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    ScaleMix,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::ScaleMix,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ScaleMix => "scale_mix",
            Workload::ServeZipf => "serve_zipf",
        }
    }
}

/// Settings of one benchmark run.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    /// Smallest instance set, for the benchmark's own tests.
    pub minimal: bool,
    /// Per-run scratch directory (stores); removed when the run ends.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: bad value '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let base = PathBuf::from(".perfbench");
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        minimal: false,
        scratch: base.join(format!(
            "scratch-{}-{}",
            workload.name(),
            std::process::id()
        )),
        out_dir: base.join("out"),
    })
}

/// Runs one workload and returns its tally with the metrics of the table
/// that run reports.
pub fn execute(run: &Run) -> (Tally, Values) {
    let mut tally = Tally::default();
    let values = match (run.workload, run.trace) {
        (Workload::PaperSweep, false) => {
            compile::run(targets(run, compile::paper_sweep), run, &mut tally)
        }
        (Workload::ScaleMix, false) => {
            compile::run(targets(run, compile::scale_mix), run, &mut tally)
        }
        (Workload::ServeZipf, false) => serve::run(run, &mut tally),
        (Workload::PaperSweep, true) => {
            compile::run_traced(targets(run, compile::paper_sweep), run, &mut tally)
        }
        (Workload::ScaleMix, true) => {
            compile::run_traced(targets(run, compile::scale_mix), run, &mut tally)
        }
        (Workload::ServeZipf, true) => serve::run_traced(run, &mut tally),
    };
    (tally, values)
}

/// The instance set of a compile workload, made on demand; a minimal run keeps only
/// the smallest instance.
fn targets(run: &Run, make: fn() -> Vec<compile::Target>) -> impl Fn() -> Vec<compile::Target> {
    let minimal = run.minimal;
    move || {
        let mut all = make();
        if minimal {
            all.sort_by_key(|t| t.graph.vertex_count());
            all.truncate(1);
        }
        all
    }
}

/// Compiles a small lattice repeatedly for [`WARM_UP_S`] seconds.
fn warm_up() {
    let pipeline = epgs::Pipeline::new(epgs_bench::bench_framework().config().clone());
    let g = epgs_graph::generators::lattice(4, 5);
    let start = std::time::Instant::now();
    while start.elapsed().as_secs_f64() < WARM_UP_S {
        let _ = std::hint::black_box(pipeline.compile(&g));
    }
}

/// Closes a traced run: the overhead of the traced passes against the
/// untraced ones, the span count, a self-time summary, and the span dump.
pub fn finish_trace(
    run: &Run,
    spans: &Tracer,
    untraced_secs: &[f64],
    traced_secs: &[f64],
    layers: &mut Values,
) {
    let untraced = stats::median(untraced_secs);
    let traced = stats::median(traced_secs);
    layers.insert("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    layers.insert("trace.spans", spans.len() as f64);
    println!(
        "trace untraced_s={untraced:.4} traced_s={traced:.4} passes={}",
        traced_secs.len()
    );
    for (name, secs) in spans.self_time_by_name() {
        println!("span {name} self_s={secs:.6}");
    }
    let path = run.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    ));
    match std::fs::create_dir_all(&run.out_dir).and_then(|()| spans.write_jsonl(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_sweep|scale_mix|serve_zipf> --seed <n> \
                 --seconds <s> --trace <0|1> [--commit <id>]"
            );
            return ExitCode::FAILURE;
        }
    };
    let rayon_threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "settings workload={} seed={} seconds={} trace={} rayon_num_threads={rayon_threads} \
         client_threads={} nproc={nproc} profile={} commit={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        serve::client_threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        run.commit
    );
    if let Err(e) = std::fs::create_dir_all(&run.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", run.scratch.display());
        return ExitCode::FAILURE;
    }
    warm_up();
    let (tally, values) = execute(&run);
    let _ = std::fs::remove_dir_all(&run.scratch);
    for f in &tally.failures {
        eprintln!("failure: {f}");
    }
    let digest = stats::fnv1a64(
        tally
            .outputs
            .iter()
            .map(|(label, hash)| format!("{label} {hash:016x}\n"))
            .collect::<String>()
            .as_bytes(),
    );
    println!("outputs {} qasm_digest={digest:016x}", tally.outputs.len());
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&tally, table, &values));
    if tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_corpus::json::Value;

    /// The metric tables of `BENCHMARK.json`: (name, unit) per section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_arr)
            .expect("metric section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn minimal_run(workload: Workload, trace: bool) -> Run {
        let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.perfbench/test");
        let tag = format!("{}-{}", workload.name(), u8::from(trace));
        Run {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            commit: "test".to_string(),
            minimal: true,
            scratch: base.join(format!("scratch-{tag}")),
            out_dir: base.join(format!("out-{tag}")),
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let names = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&END_TO_END), declared("end_to_end"));
        assert_eq!(names(&PER_LAYER), declared("per_layer"));
    }

    /// Every workload at minimal size: both runs pass their output checks,
    /// emit every declared metric with its unit, and produce the same
    /// circuits.
    #[test]
    fn every_workload_emits_its_metrics_and_traced_outputs_match() {
        for workload in Workload::ALL {
            let mut outputs = Vec::new();
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let run = minimal_run(workload, trace);
                std::fs::create_dir_all(&run.scratch).expect("scratch dir");
                let (tally, values) = execute(&run);
                let _ = std::fs::remove_dir_all(&run.scratch);
                let label = format!("{} trace={trace}", workload.name());
                assert!(tally.failures.is_empty(), "{label}: {:?}", tally.failures);
                assert!(!tally.outputs.is_empty(), "{label}: no outputs recorded");
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, _) in table {
                    assert!(values.contains_key(name), "{label}: {name} never set");
                }
                let line =
                    Value::parse(&result_line(&tally, table, &values)).expect("result parses");
                assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
                let metrics = line.get("metrics").expect("metrics object");
                for (name, unit) in declared(section) {
                    let m = metrics
                        .get(&name)
                        .unwrap_or_else(|| panic!("{label}: {name} missing"));
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{label}: {name}"
                    );
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                }
                outputs.push(tally.outputs);
            }
            assert_eq!(
                outputs[0],
                outputs[1],
                "{}: traced outputs differ",
                workload.name()
            );
        }
    }
}
