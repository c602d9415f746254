//! The compile workloads: instances compiled one at a time through the
//! staged pipeline with `epgs_bench::bench_framework()`.
//!
//! An untraced run repeats passes over the instance set, in an order drawn
//! from the workload seed, until its time is up, and reports per-instance
//! median latency. A traced run alternates untraced and traced passes,
//! makes the attribution calls after the first traced pass, and reports
//! the per-layer metrics with the tracing overhead.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs::store::ArtifactStore;
use epgs::{Compiled, Pipeline};
use epgs_circuit::qasm::to_qasm;
use epgs_circuit::simulate::verify_circuit;
use epgs_graph::{generators, Graph};
use epgs_serve::{ServeEngine, ServeOutcome};

use crate::layers::{self, attribute, traced_compile, STAGE_SPANS};
use crate::report::{add, Tally, Values};
use crate::stats::{
    fnv1a64, geomean, median, peak_rss_mib, quantile, reset_peak_rss, setup_seconds, timed,
};
use crate::trace::Tracer;
use crate::{Run, SETUP_REPS};

/// One benchmark target.
pub struct Target {
    pub label: String,
    pub graph: Graph,
}

impl Target {
    pub fn new(label: impl Into<String>, graph: Graph) -> Self {
        Target {
            label: label.into(),
            graph,
        }
    }
}

/// The paper's Fig. 10/11 sweeps: lattice 4×3…4×15, tree 10–40, Waxman
/// 10–35 (19 instances).
pub fn paper_sweep() -> Vec<Target> {
    epgs_bench::all_families()
        .into_iter()
        .flat_map(|(family, sweep)| {
            sweep
                .into_iter()
                .map(move |(n, g)| Target::new(format!("{family}-{n}"), g))
        })
        .collect()
}

/// One instance each of six families at n = 82–200, above the V-cycle's
/// coarsening cutoff. The random graphs use fixed seeds.
pub fn scale_mix() -> Vec<Target> {
    let rng = |n: usize| StdRng::seed_from_u64(epgs_bench::SEED ^ n as u64);
    vec![
        Target::new("lattice-10x10", generators::lattice(10, 10)),
        Target::new("heavy_hex-3x4", generators::heavy_hex(3, 4)),
        Target::new("tree-127", generators::tree(127, 2)),
        Target::new("rr3-100", generators::random_regular(100, 3, &mut rng(100))),
        Target::new("rr3-200", generators::random_regular(200, 3, &mut rng(200))),
        Target::new(
            "waxman-100",
            generators::waxman(100, 0.5, 0.2, &mut rng(100)),
        ),
    ]
}

/// The first compile of each instance, which every later compile of it
/// must reproduce byte for byte.
pub struct References {
    first: Vec<Option<(u64, Compiled)>>,
}

impl References {
    pub fn new(instances: usize) -> Self {
        References {
            first: (0..instances).map(|_| None).collect(),
        }
    }

    /// Records or checks the compile of instance `i`: its QASM hash and its
    /// partition must match the first compile's.
    pub fn check(&mut self, i: usize, label: &str, compiled: Compiled, tally: &mut Tally) {
        let hash = fnv1a64(to_qasm(&compiled.circuit).as_bytes());
        match &self.first[i] {
            None => self.first[i] = Some((hash, compiled)),
            Some((h, c)) if *h == hash && c.partition == compiled.partition => {}
            Some((h, _)) => tally.fail(format!(
                "{label}: output changed between compiles (qasm {h:016x} then {hash:016x})"
            )),
        }
    }

    /// Re-verifies every distinct circuit against its target with the
    /// stabilizer simulator.
    pub fn verify(&self, targets: &[Target], tally: &mut Tally) {
        for (t, first) in targets.iter().zip(&self.first) {
            let Some((_, c)) = first else { continue };
            tally.attempted += 1;
            if verify_circuit(&c.circuit, &t.graph) != Ok(true) {
                tally.fail(format!("{}: circuit does not produce its target", t.label));
            }
        }
    }

    /// Records each instance's QASM hash in `tally.outputs`.
    pub fn record_outputs(&self, targets: &[Target], tally: &mut Tally) {
        for (t, first) in targets.iter().zip(&self.first) {
            if let Some((hash, _)) = first {
                tally.outputs.insert(t.label.clone(), *hash);
            }
        }
    }

    /// Adds the quality metrics of the distinct circuits to `values`.
    pub fn quality(&self, values: &mut Values) {
        let compiled: Vec<&Compiled> = self.first.iter().flatten().map(|(_, c)| c).collect();
        for c in &compiled {
            add(values, "ee_cnot_total", c.metrics.ee_two_qubit_count as f64);
            add(values, "duration_total_tau", c.metrics.duration);
        }
        let losses: Vec<f64> = compiled
            .iter()
            .map(|c| c.metrics.loss.mean_photon_loss)
            .collect();
        values.insert("photon_loss_mean", crate::stats::mean(&losses));
    }

    /// One printable line per instance.
    pub fn print(&self, targets: &[Target], latencies: &[Vec<f64>]) {
        for ((t, first), lat) in targets.iter().zip(&self.first).zip(latencies) {
            let Some((hash, c)) = first else { continue };
            println!(
                "instance {} n={} median_ms={:.3} ee_cnot={} duration={:.3} photon_loss={:.6} strategy={} qasm_fnv={hash:016x}",
                t.label,
                t.graph.vertex_count(),
                median(lat) * 1e3,
                c.metrics.ee_two_qubit_count,
                c.metrics.duration,
                c.metrics.loss.mean_photon_loss,
                layers::strategy(c.strategy).name,
            );
        }
    }
}

/// Compiles every instance once through [`Pipeline::compile`] in `order`;
/// records each compile's seconds and returns the pass total.
fn untraced_pass(
    pipeline: &Pipeline,
    targets: &[Target],
    order: &[usize],
    latencies: &mut [Vec<f64>],
    refs: &mut References,
    tally: &mut Tally,
) -> f64 {
    let mut total = 0.0;
    for &i in order {
        let t = &targets[i];
        let (result, secs) = timed(|| pipeline.compile(&t.graph));
        tally.attempted += 1;
        total += secs;
        latencies[i].push(secs);
        match result {
            Ok(c) => refs.check(i, &t.label, c, tally),
            Err(e) => tally.fail(format!("{}: compile failed: {e}", t.label)),
        }
    }
    total
}

/// The instance order of each pass, drawn from the workload seed.
fn pass_order(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// Builds the instance set and the pipeline.
fn build(make: &impl Fn() -> Vec<Target>) -> (Vec<Target>, Pipeline) {
    let pipeline = Pipeline::new(epgs_bench::bench_framework().config().clone());
    (make(), pipeline)
}

/// The untraced run: end-to-end metrics.
pub fn run(make: impl Fn() -> Vec<Target>, run: &Run, tally: &mut Tally) -> Values {
    let setup_s = setup_seconds(SETUP_REPS, || build(&make));
    let (targets, pipeline) = build(&make);
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut latencies = vec![Vec::new(); targets.len()];
    let mut refs = References::new(targets.len());
    let mut pass_secs = Vec::new();
    let mut peak_rss_mb = 0.0;
    reset_peak_rss();
    let start = Instant::now();
    while pass_secs.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        let order = pass_order(&mut rng, targets.len());
        pass_secs.push(untraced_pass(
            &pipeline,
            &targets,
            &order,
            &mut latencies,
            &mut refs,
            tally,
        ));
        if pass_secs.len() == 1 {
            peak_rss_mb = peak_rss_mib();
        }
    }
    refs.verify(&targets, tally);
    refs.record_outputs(&targets, tally);
    refs.print(&targets, &latencies);
    println!(
        "passes {} pass_s median={:.4} min={:.4} max={:.4}",
        pass_secs.len(),
        median(&pass_secs),
        pass_secs.iter().copied().fold(f64::INFINITY, f64::min),
        pass_secs.iter().copied().fold(0.0, f64::max)
    );

    let per_instance_ms: Vec<f64> = latencies.iter().map(|l| median(l) * 1e3).collect();
    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    values.insert("latency_p50_ms", quantile(&per_instance_ms, 0.5));
    values.insert("latency_p90_ms", quantile(&per_instance_ms, 0.9));
    values.insert("latency_geomean_ms", geomean(&per_instance_ms));
    values.insert(
        "throughput_per_s",
        targets.len() as f64 / median(&pass_secs),
    );
    refs.quality(&mut values);
    values.insert("peak_rss_mb", peak_rss_mb);
    values
}

/// Serves every instance through a [`ServeEngine`] over a scratch store
/// three times — compiled, memory hit, disk hit after a memory eviction —
/// and adds the per-class latencies and the engine's cache, store and
/// outcome counters to `layers`. Each reply must match the instance's
/// reference QASM hash.
fn serve_classes(
    pipeline: &Pipeline,
    targets: &[Target],
    store_dir: &Path,
    refs: &References,
    layers: &mut Values,
    tally: &mut Tally,
) {
    let engine = match ServeEngine::with_store(pipeline.config().clone(), store_dir) {
        Ok(e) => e,
        Err(e) => {
            tally.fail(format!("cannot open serve store: {e}"));
            return;
        }
    };
    let mut class_ms: [Vec<f64>; 3] = Default::default();
    for (i, t) in targets.iter().enumerate() {
        for (class, expected) in [
            ServeOutcome::Compiled,
            ServeOutcome::MemoryHit,
            ServeOutcome::DiskHit,
        ]
        .into_iter()
        .enumerate()
        {
            if expected == ServeOutcome::DiskHit {
                engine.evict_memory(&t.graph);
            }
            let reply = engine.compile(&t.graph);
            tally.attempted += 1;
            let hash = reply
                .result
                .as_ref()
                .map(|c| fnv1a64(to_qasm(&c.circuit).as_bytes()));
            let reference = refs.first[i].as_ref().map(|(h, _)| *h);
            if reply.outcome != expected || hash.ok() != reference {
                tally.fail(format!(
                    "{}: serve {:?} reply differs from the staged compile",
                    t.label, expected
                ));
            }
            class_ms[class].push(reply.wall_micros as f64 / 1e3);
        }
    }
    crate::serve::add_engine_counters(&engine, layers);
    for (name, ms) in [
        "serve.compiled_ms",
        "serve.memory_hit_ms",
        "serve.disk_hit_ms",
    ]
    .into_iter()
    .zip(&class_ms)
    {
        layers.insert(name, crate::stats::mean(ms));
    }
}

/// The traced run: per-layer metrics and the tracing overhead.
pub fn run_traced(make: impl Fn() -> Vec<Target>, run: &Run, tally: &mut Tally) -> Values {
    let (targets, pipeline) = build(&make);
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut latencies = vec![Vec::new(); targets.len()];
    let mut refs = References::new(targets.len());
    let origin = Instant::now();
    let mut all_spans = Tracer::new(origin);
    let mut layers = Values::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut stage_secs: Vec<Values> = Vec::new();
    let scratch_dir = run.scratch.join("attribution-store");
    let scratch = match ArtifactStore::open(&scratch_dir) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("cannot open scratch store: {e}"));
            return layers;
        }
    };

    let start = Instant::now();
    while traced_secs.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        let order = pass_order(&mut rng, targets.len());
        untraced_secs.push(untraced_pass(
            &pipeline,
            &targets,
            &order,
            &mut latencies,
            &mut refs,
            tally,
        ));

        let first = traced_secs.is_empty();
        let mut tracer = Tracer::new(origin);
        let mut pass_total = 0.0;
        for &i in &order {
            let t = &targets[i];
            let (staged, secs) = timed(|| traced_compile(&pipeline, &t.graph, i, &mut tracer));
            tally.attempted += 1;
            pass_total += secs;
            let staged = match staged {
                Ok(s) => s,
                Err(e) => {
                    tally.fail(format!("{}: traced compile failed: {e}", t.label));
                    continue;
                }
            };
            if first {
                match attribute(
                    &pipeline,
                    &t.label,
                    &t.graph,
                    &staged,
                    &scratch,
                    &mut layers,
                ) {
                    Ok(row) => println!("{}", row.render()),
                    Err(e) => tally.fail(e),
                }
            }
            refs.check(i, &t.label, staged.compiled, tally);
        }
        traced_secs.push(pass_total);
        let by_name = tracer.self_time_by_name();
        stage_secs.push(
            STAGE_SPANS
                .iter()
                .map(|(span, metric)| (*metric, by_name.get(span).copied().unwrap_or(0.0)))
                .collect(),
        );
        all_spans.absorb(tracer);
    }
    layers::finish_attribution(&mut layers, targets.len());
    for (_, metric) in STAGE_SPANS {
        let per_pass: Vec<f64> = stage_secs.iter().map(|v| v[metric]).collect();
        layers.insert(metric, median(&per_pass));
    }
    serve_classes(
        &pipeline,
        &targets,
        &run.scratch.join("serve-store"),
        &refs,
        &mut layers,
        tally,
    );
    refs.verify(&targets, tally);
    refs.record_outputs(&targets, tally);
    crate::finish_trace(run, &all_spans, &untraced_secs, &traced_secs, &mut layers);
    layers
}
