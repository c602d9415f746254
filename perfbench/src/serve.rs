//! The serve workload: a [`ServeEngine`] over a fresh on-disk store with a
//! memory cache smaller than the working set, driven by closed-loop client
//! threads.
//!
//! Each request draws a target by Zipf(1) rank from the 39 QASM-pinned
//! targets (the default corpus, then the paper sweep); a share of requests
//! asks for a vertex-relabeled isomorph instead. The stream is drawn from
//! the workload seed. A run repeats the stream, each time against a fresh
//! engine and store, until its time is up.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs::store::ArtifactStore;
use epgs::{BatchCompiler, Compiled, FrameworkConfig, Pipeline};
use epgs_circuit::qasm::to_qasm;
use epgs_circuit::simulate::verify_circuit;
use epgs_corpus::CorpusSpec;
use epgs_graph::canon::relabel;
use epgs_graph::Graph;
use epgs_serve::{default_config, ServeEngine, ServeOutcome};

use crate::compile::{paper_sweep, Target};
use crate::layers::{self, attribute, traced_compile, STAGE_SPANS};
use crate::report::{add, Tally, Values};
use crate::stats::{fnv1a64, geomean, mean, peak_rss_mib, quantile, reset_peak_rss, setup_seconds};
use crate::trace::Tracer;
use crate::{Run, SETUP_REPS};

/// Requests in one pass of the stream.
pub const REQUESTS: usize = 3000;
/// Memory-cache capacity, below the 39-target working set.
pub const CACHE_CAPACITY: usize = 16;
/// Share of requests that ask for a relabeled isomorph.
pub const RELABEL_SHARE: f64 = 0.1;
/// Closed-loop client threads (at most the machine's hardware threads).
pub const CLIENTS: usize = 2;

/// The serve targets: the default corpus, then the paper sweep.
pub fn targets() -> Vec<Target> {
    let corpus = CorpusSpec::default_corpus()
        .instances()
        .into_iter()
        .map(|i| Target::new(format!("corpus-{}", i.id), i.graph));
    corpus.chain(paper_sweep()).collect()
}

/// Client threads used: [`CLIENTS`], capped at the hardware threads.
pub fn client_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    CLIENTS.min(nproc)
}

/// A request stream over distinct graphs: the targets first, then one
/// entry per relabeled request.
pub struct Stream {
    pub graphs: Vec<Graph>,
    /// Index into `graphs` of each request.
    pub requests: Vec<usize>,
    pub targets: usize,
}

/// Splits `total` into shares proportional to `weights`, rounding by
/// largest remainder so the shares sum to `total`.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - shares.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        shares[i] += 1;
    }
    shares
}

/// A stream of `requests` requests over `targets`: target k (1-based rank)
/// gets its Zipf(1) share of the requests, and [`RELABEL_SHARE`] of each
/// target's requests ask for a fresh random relabeling. The seed draws the
/// order of the requests and the relabelings, so every seed sends the same
/// mix.
pub fn stream(targets: &[Target], requests: usize, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf: Vec<f64> = (1..=targets.len()).map(|rank| 1.0 / rank as f64).collect();
    let mut mix: Vec<(usize, bool)> = Vec::with_capacity(requests);
    for (target, count) in apportion(requests, &zipf).into_iter().enumerate() {
        let relabeled = (count as f64 * RELABEL_SHARE).round() as usize;
        mix.extend((0..count).map(|j| (target, j < relabeled)));
    }
    mix.shuffle(&mut rng);
    let mut graphs: Vec<Graph> = targets.iter().map(|t| t.graph.clone()).collect();
    let mut picks = Vec::with_capacity(requests);
    for (target, relabeled) in mix {
        if relabeled {
            let g = &targets[target].graph;
            let mut perm: Vec<usize> = (0..g.vertex_count()).collect();
            perm.shuffle(&mut rng);
            graphs.push(relabel(g, &perm));
            picks.push(graphs.len() - 1);
        } else {
            picks.push(target);
        }
    }
    Stream {
        graphs,
        requests: picks,
        targets: targets.len(),
    }
}

fn open_engine(config: &FrameworkConfig, dir: &Path) -> std::io::Result<ServeEngine> {
    let mut batch = BatchCompiler::with_cache_capacity(config.clone(), CACHE_CAPACITY);
    batch.attach_store(ArtifactStore::open(dir)?);
    Ok(ServeEngine::from_batch(batch))
}

/// One served request.
struct Sample {
    graph: usize,
    ms: f64,
    outcome: ServeOutcome,
    qasm: Option<u64>,
}

/// One pass of the stream against one engine.
struct Round {
    samples: Vec<Sample>,
    wall_s: f64,
    /// The first reply's circuit for each distinct graph.
    first: Vec<OnceLock<Arc<Compiled>>>,
    engine: ServeEngine,
}

/// Sends the stream through `engine` from the client threads; with an
/// `origin`, each call is recorded as a span.
fn serve_round(
    engine: ServeEngine,
    stream: &Stream,
    clients: usize,
    origin: Option<Instant>,
) -> (Round, Option<Tracer>) {
    let cursor = AtomicUsize::new(0);
    let first: Vec<OnceLock<Arc<Compiled>>> =
        (0..stream.graphs.len()).map(|_| OnceLock::new()).collect();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Sample>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut tracer = origin.map(Tracer::new);
                    let mut samples = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&graph) = stream.requests.get(i) else {
                            break;
                        };
                        let span = tracer
                            .as_mut()
                            .map(|t| t.enter("ServeEngine::compile", i, None));
                        let t = Instant::now();
                        let reply = engine.compile(&stream.graphs[graph]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(h)) = (tracer.as_mut(), span) {
                            t.exit(h);
                        }
                        let qasm = reply.result.as_ref().ok().map(|c| {
                            first[graph].get_or_init(|| Arc::clone(c));
                            fnv1a64(to_qasm(&c.circuit).as_bytes())
                        });
                        samples.push(Sample {
                            graph,
                            ms,
                            outcome: reply.outcome,
                            qasm,
                        });
                    }
                    (samples, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut merged: Option<Tracer> = origin.map(Tracer::new);
    for (s, t) in per_client {
        samples.extend(s);
        if let (Some(m), Some(t)) = (merged.as_mut(), t) {
            m.absorb(t);
        }
    }
    (
        Round {
            samples,
            wall_s,
            first,
            engine,
        },
        merged,
    )
}

/// The QASM hash every reply for each distinct graph must carry: the first
/// round's, which later rounds must reproduce.
struct Expected {
    qasm: Vec<Option<u64>>,
}

impl Expected {
    /// Records each exact target's QASM hash in `tally.outputs`.
    fn record_outputs(&self, targets: &[Target], tally: &mut Tally) {
        for (t, hash) in targets.iter().zip(&self.qasm) {
            if let Some(h) = hash {
                tally.outputs.insert(t.label.clone(), *h);
            }
        }
    }

    /// Checks every reply of `round` against the expected hashes, filling in
    /// those not seen before.
    fn check(&mut self, round: &Round, stream: &Stream, tally: &mut Tally) {
        for s in &round.samples {
            tally.attempted += 1;
            let Some(h) = s.qasm else {
                tally.fail(format!("request for graph {} failed", s.graph));
                continue;
            };
            match self.qasm[s.graph] {
                None => self.qasm[s.graph] = Some(h),
                Some(e) if e == h => {}
                Some(e) => tally.fail(format!(
                    "graph {} ({}): replies differ (qasm {e:016x} vs {h:016x})",
                    s.graph,
                    if s.graph < stream.targets {
                        "target"
                    } else {
                        "relabeled"
                    }
                )),
            }
        }
    }
}

/// Adds the engine's outcome, cache and store counters to `layers`.
pub fn add_engine_counters(engine: &ServeEngine, layers: &mut Values) {
    let s = engine.stats();
    layers.insert("serve.memory_hit", s.memory_hits as f64);
    layers.insert("serve.disk_hit", s.disk_hits as f64);
    layers.insert("serve.compiled", s.compiled as f64);
    layers.insert("serve.coalesced", s.coalesced as f64);
    let c = engine.batch().cache_stats();
    layers.insert("cache.hits", c.hits as f64);
    layers.insert("cache.misses", c.misses as f64);
    layers.insert("cache.evictions", c.evictions as f64);
    if let Some(store) = engine.batch().store() {
        let st = store.stats();
        layers.insert("store.disk_hits", st.disk_hits as f64);
        layers.insert("store.writes", st.writes as f64);
        layers.insert("store.manifest_commits", st.manifest_commits as f64);
    }
}

/// Inputs of a serve run: targets, request stream and configuration. Each
/// pass opens its own engine over a fresh store, outside set-up: the cost of
/// file-system calls drifts with what earlier runs left to the file system.
struct Setup {
    targets: Vec<Target>,
    stream: Stream,
    config: FrameworkConfig,
}

/// Builds the targets and the request stream.
fn build(run: &Run) -> Setup {
    let mut targets = targets();
    let mut requests = REQUESTS;
    if run.minimal {
        targets.truncate(8);
        requests = 60;
    }
    let stream = stream(&targets, requests, run.seed);
    Setup {
        targets,
        stream,
        config: default_config(),
    }
}

/// Serves one more pass of the stream on a fresh engine and store. The
/// first pass's circuits are re-verified against their graphs.
fn next_round(
    run: &Run,
    setup: &Setup,
    round_index: usize,
    origin: Option<Instant>,
    tally: &mut Tally,
) -> Result<(Round, Option<Tracer>), String> {
    let engine = open_engine(
        &setup.config,
        &run.scratch.join(format!("round-{round_index}")),
    )
    .map_err(|e| format!("cannot open serve store: {e}"))?;
    let (round, tracer) = serve_round(engine, &setup.stream, client_threads(), origin);
    if round_index == 0 {
        verify(&round, &setup.stream, tally);
    }
    Ok((round, tracer))
}

/// Re-verifies each distinct circuit of `round` against its graph.
fn verify(round: &Round, stream: &Stream, tally: &mut Tally) {
    for (g, first) in stream.graphs.iter().zip(&round.first) {
        if let Some(c) = first.get() {
            tally.attempted += 1;
            if verify_circuit(&c.circuit, g) != Ok(true) {
                tally.fail("a served circuit does not produce its target".to_string());
            }
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(run: &Run, tally: &mut Tally) -> Values {
    let mut values = Values::new();
    let setup_s = setup_seconds(SETUP_REPS, || build(run));
    let setup = build(run);
    let mut expected = Expected {
        qasm: vec![None; setup.stream.graphs.len()],
    };
    let mut ms = Vec::new();
    let mut wall = 0.0;
    // The exact targets' circuits of the first round; later rounds only
    // keep their timings.
    let mut exact: Vec<Arc<Compiled>> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut outcomes = [0usize; 4];
    reset_peak_rss();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let (round, _) = match next_round(run, &setup, rounds, None, tally) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(e);
                return values;
            }
        };
        if rounds == 0 {
            exact = round.first[..setup.stream.targets]
                .iter()
                .filter_map(|c| c.get().cloned())
                .collect();
            peak_rss_mb = peak_rss_mib();
        }
        rounds += 1;
        expected.check(&round, &setup.stream, tally);
        wall += round.wall_s;
        let round_ms: Vec<f64> = round.samples.iter().map(|s| s.ms).collect();
        println!(
            "round {rounds} wall_s={:.4} p50_ms={:.4} p90_ms={:.4}",
            round.wall_s,
            quantile(&round_ms, 0.5),
            quantile(&round_ms, 0.9)
        );
        ms.extend(round_ms);
        for s in &round.samples {
            outcomes[outcome_slot(s.outcome)] += 1;
        }
    }
    expected.record_outputs(&setup.targets, tally);
    println!(
        "rounds {rounds} requests {} memory_hit={} disk_hit={} compiled={} coalesced={} wall_s={wall:.4}",
        ms.len(),
        outcomes[0],
        outcomes[1],
        outcomes[2],
        outcomes[3]
    );

    values.insert("setup_s", setup_s);
    values.insert("latency_p50_ms", quantile(&ms, 0.5));
    values.insert("latency_p90_ms", quantile(&ms, 0.9));
    values.insert("latency_geomean_ms", geomean(&ms));
    values.insert("throughput_per_s", ms.len() as f64 / wall);
    for c in &exact {
        add(
            &mut values,
            "ee_cnot_total",
            c.metrics.ee_two_qubit_count as f64,
        );
        add(&mut values, "duration_total_tau", c.metrics.duration);
    }
    let losses: Vec<f64> = exact
        .iter()
        .map(|c| c.metrics.loss.mean_photon_loss)
        .collect();
    values.insert("photon_loss_mean", mean(&losses));
    values.insert("peak_rss_mb", peak_rss_mb);
    values
}

fn outcome_slot(o: ServeOutcome) -> usize {
    match o {
        ServeOutcome::MemoryHit => 0,
        ServeOutcome::DiskHit => 1,
        ServeOutcome::Compiled => 2,
        ServeOutcome::Coalesced => 3,
    }
}

/// The traced run: per-layer metrics and the tracing overhead.
pub fn run_traced(run: &Run, tally: &mut Tally) -> Values {
    let mut layers = Values::new();
    let setup = build(run);
    let mut expected = Expected {
        qasm: vec![None; setup.stream.graphs.len()],
    };
    let origin = Instant::now();
    let mut all_spans = Tracer::new(origin);
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while traced_secs.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        for traced in [false, true] {
            let (round, tracer) =
                match next_round(run, &setup, rounds, traced.then_some(origin), tally) {
                    Ok(r) => r,
                    Err(e) => {
                        tally.fail(e);
                        return layers;
                    }
                };
            rounds += 1;
            expected.check(&round, &setup.stream, tally);
            if !traced {
                untraced_secs.push(round.wall_s);
                continue;
            }
            if traced_secs.is_empty() {
                add_engine_counters(&round.engine, &mut layers);
                for (outcome, name) in [
                    (ServeOutcome::MemoryHit, "serve.memory_hit_ms"),
                    (ServeOutcome::DiskHit, "serve.disk_hit_ms"),
                    (ServeOutcome::Compiled, "serve.compiled_ms"),
                ] {
                    let ms: Vec<f64> = round
                        .samples
                        .iter()
                        .filter(|s| s.outcome == outcome)
                        .map(|s| s.ms)
                        .collect();
                    layers.insert(name, mean(&ms));
                }
            }
            traced_secs.push(round.wall_s);
            if let Some(t) = tracer {
                all_spans.absorb(t);
            }
        }
    }

    // Attribution: each exact target through the staged pipeline under the
    // serve configuration, which must reproduce the served circuit.
    let pipeline = Pipeline::new(setup.config.clone());
    let scratch = match ArtifactStore::open(run.scratch.join("attribution-store")) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("cannot open scratch store: {e}"));
            return layers;
        }
    };
    let mut tracer = Tracer::new(origin);
    for (i, t) in setup.targets.iter().enumerate() {
        tally.attempted += 1;
        let staged = match traced_compile(&pipeline, &t.graph, i, &mut tracer) {
            Ok(s) => s,
            Err(e) => {
                tally.fail(format!("{}: traced compile failed: {e}", t.label));
                continue;
            }
        };
        let hash = fnv1a64(to_qasm(&staged.compiled.circuit).as_bytes());
        if expected.qasm[i].is_some_and(|e| e != hash) {
            tally.fail(format!("{}: staged compile differs from served", t.label));
        }
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
    layers::finish_attribution(&mut layers, setup.targets.len());
    expected.record_outputs(&setup.targets, tally);
    let by_name = tracer.self_time_by_name();
    for (span, metric) in STAGE_SPANS {
        layers.insert(metric, by_name.get(span).copied().unwrap_or(0.0));
    }
    all_spans.absorb(tracer);
    crate::finish_trace(run, &all_spans, &untraced_secs, &traced_secs, &mut layers);
    layers
}
