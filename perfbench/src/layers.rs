//! Traced staged compiles and the per-instance attribution calls.
//!
//! [`traced_compile`] runs the five stage calls of one instance under
//! spans. [`attribute`] then makes the calls that explain the result —
//! each recombine strategy alone, an LC-free partition, a traced multilevel
//! partition, the canonical hash, the artifact codec, and direct store I/O.
//! Attribution runs after an instance's spans close, so it never counts
//! towards the traced compile time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use epgs::store::ArtifactStore;
use epgs::{
    artifact, config_fingerprint, CacheKey, Compiled, FrameworkError, Partitioned, Pipeline,
    Planned, RecombineStrategy, Scheduled,
};
use epgs_graph::canon::canonical_hash;
use epgs_graph::Graph;
use epgs_partition::{
    multilevel_partition_traced, partition_with_lc, PartitionScheme, PartitionSpec, SearchControl,
};

use crate::report::{add, Values};
use crate::stats::timed;
use crate::trace::Tracer;

/// Span names of the five stage calls, with the per-layer metric each
/// one's self time feeds.
pub const STAGE_SPANS: [(&str, &str); 5] = [
    ("partition_with_control", "stage.partition_s"),
    ("plan_leaves", "stage.plan_s"),
    ("schedule", "stage.schedule_s"),
    ("recombine", "stage.recombine_s"),
    ("verify", "stage.verify_s"),
];

/// A recombine strategy with the names of its per-layer metrics.
pub struct Strategy {
    pub strategy: RecombineStrategy,
    pub name: &'static str,
    /// Seconds of `recombine_with(&[strategy])`.
    pub secs: &'static str,
    /// ee-CNOTs of that strategy's circuit.
    pub ee: &'static str,
    /// Instances on which it won the full competition.
    pub wins: &'static str,
}

pub const STRATEGIES: [Strategy; 3] = [
    Strategy {
        strategy: RecombineStrategy::ScheduledInterleave,
        name: "scheduled_interleave",
        secs: "recombine.scheduled_interleave_s",
        ee: "recombine.scheduled_interleave_ee",
        wins: "recombine.wins.scheduled_interleave",
    },
    Strategy {
        strategy: RecombineStrategy::BlockSequential,
        name: "block_sequential",
        secs: "recombine.block_sequential_s",
        ee: "recombine.block_sequential_ee",
        wins: "recombine.wins.block_sequential",
    },
    Strategy {
        strategy: RecombineStrategy::DirectSolve,
        name: "direct_solve",
        secs: "recombine.direct_solve_s",
        ee: "recombine.direct_solve_ee",
        wins: "recombine.wins.direct_solve",
    },
];

/// The table entry of `s`.
pub fn strategy(s: RecombineStrategy) -> &'static Strategy {
    STRATEGIES
        .iter()
        .find(|x| x.strategy == s)
        .expect("every strategy is listed")
}

/// Every stage artifact of one traced compile.
pub struct Staged {
    pub partitioned: Partitioned,
    pub planned: Planned,
    pub scheduled: Scheduled,
    pub compiled: Compiled,
    /// Partitioner calls the LC beam made (the `multilevel_fault` hook
    /// fires once before each).
    pub score_calls: usize,
}

/// Compiles `graph` through the five stage calls, each under a span whose
/// parent is one `compile` span for instance `id`.
///
/// The partition runs under a [`SearchControl`] whose fault hook only
/// counts calls and never injects, which leaves the partition identical to
/// [`Pipeline::partition`]'s.
pub fn traced_compile(
    pipeline: &Pipeline,
    graph: &Graph,
    id: usize,
    tracer: &mut Tracer,
) -> Result<Staged, FrameworkError> {
    let calls = Arc::new(AtomicUsize::new(0));
    let hook_calls = Arc::clone(&calls);
    let ctrl = SearchControl {
        deadline: None,
        multilevel_fault: Some(Arc::new(move || {
            hook_calls.fetch_add(1, Ordering::Relaxed);
            None
        })),
    };
    let root = tracer.enter("compile", id, None);
    let staged = (|| {
        let partitioned = tracer.span("partition_with_control", id, Some(root), || {
            pipeline.partition_with_control(graph, &ctrl)
        });
        let planned = tracer.span("plan_leaves", id, Some(root), || partitioned.plan_leaves())?;
        let scheduled = tracer.span("schedule", id, Some(root), || {
            planned.schedule(planned.configured_budget())
        });
        let recombined = tracer.span("recombine", id, Some(root), || scheduled.recombine())?;
        let compiled = tracer.span("verify", id, Some(root), || recombined.verify())?;
        Ok(Staged {
            partitioned,
            planned,
            scheduled,
            compiled,
            score_calls: calls.load(Ordering::Relaxed),
        })
    })();
    tracer.exit(root);
    staged
}

/// One strategy's circuit when it runs alone: (ee-CNOTs, duration, T_loss).
type StrategyFigures = Result<(usize, f64, f64), String>;

/// One row of the recombine attribution table.
pub struct Row {
    pub label: String,
    pub winner: RecombineStrategy,
    pub winner_ee: usize,
    pub strategies: Vec<StrategyFigures>,
    pub cut: usize,
    pub cut_without_lc: usize,
}

impl Row {
    /// The row as one printable line.
    pub fn render(&self) -> String {
        let mut line = format!(
            "attribution {} winner={} cut={} cut_lc0={}",
            self.label,
            strategy(self.winner).name,
            self.cut,
            self.cut_without_lc
        );
        for (s, figures) in STRATEGIES.iter().zip(&self.strategies) {
            let name = s.name;
            match figures {
                Ok((ee, duration, t_loss)) => line.push_str(&format!(
                    " {name}=ee:{ee},duration:{duration:.3},t_loss:{t_loss:.3}"
                )),
                Err(e) => line.push_str(&format!(" {name}=failed:\"{e}\"")),
            }
        }
        match &self.strategies[2] {
            Ok((direct_ee, _, _)) => line.push_str(&format!(
                " margin_vs_direct_ee={}",
                self.winner_ee as i64 - *direct_ee as i64
            )),
            Err(_) => line.push_str(" margin_vs_direct_ee=n/a"),
        }
        line
    }
}

/// The partition spec with the LC search switched off.
fn without_lc(spec: &PartitionSpec) -> PartitionSpec {
    PartitionSpec {
        lc_budget: 0,
        ..spec.clone()
    }
}

/// Makes the attribution calls for one traced instance, adding their
/// per-layer figures to `layers`. `scratch` is a store used only for the
/// direct load/save timings. Returns the attribution row, or why a
/// round-trip check failed.
pub fn attribute(
    pipeline: &Pipeline,
    label: &str,
    graph: &Graph,
    staged: &Staged,
    scratch: &ArtifactStore,
    layers: &mut Values,
) -> Result<Row, String> {
    let spec = &pipeline.config().partition;
    let compiled = &staged.compiled;

    // Recombine: each strategy on its own, against the same schedule.
    let mut strategies = Vec::new();
    for s in &STRATEGIES {
        let (solo, secs) = timed(|| staged.scheduled.recombine_with(&[s.strategy]));
        add(layers, s.secs, secs);
        match solo {
            Ok(r) => {
                let m = r.metrics();
                add(layers, s.ee, m.ee_two_qubit_count as f64);
                strategies.push(Ok((m.ee_two_qubit_count, m.duration, m.t_loss)));
            }
            Err(e) => {
                add(layers, "recombine.candidate_failures", 1.0);
                strategies.push(Err(e.to_string()));
            }
        }
    }
    add(layers, strategy(compiled.strategy).wins, 1.0);

    // Partition: what the LC beam bought, and the V-cycle's levels.
    let cut = staged.partitioned.partition().cut;
    let cut_without_lc = partition_with_lc(graph, &without_lc(spec)).cut;
    add(layers, "lc.score_calls", staged.score_calls as f64);
    add(
        layers,
        "lc.cut_gain",
        cut_without_lc.saturating_sub(cut) as f64,
    );
    add(
        layers,
        "lc.useful",
        f64::from(u8::from(cut < cut_without_lc)),
    );
    add(layers, "partition.cut_total", cut as f64);
    if let PartitionScheme::Multilevel(opts) = &spec.scheme {
        let n = graph.vertex_count();
        let (_, _, levels) = multilevel_partition_traced(
            graph,
            spec.num_blocks(n),
            spec.g_max,
            spec.effort.max(2),
            spec.seed,
            opts,
        );
        add(
            layers,
            "multilevel.levels",
            levels.len().saturating_sub(1) as f64,
        );
        add(
            layers,
            "multilevel.level_s",
            levels.iter().map(|l| l.seconds).sum(),
        );
    }
    add(layers, "plan.leaves", staged.planned.plans().len() as f64);
    add(
        layers,
        "plan.lc_refinements",
        (staged.planned.partition().lc_sequence.len()
            - staged.partitioned.partition().lc_sequence.len()) as f64,
    );

    // Canonical hash, artifact codec, and direct store I/O.
    let (canonical, hash_secs) = timed(|| canonical_hash(graph));
    add(layers, "canon.hash_us", hash_secs * 1e6);
    let key = CacheKey {
        canonical,
        config: config_fingerprint(pipeline.config()),
    };
    let (text, encode_secs) = timed(|| artifact::encode(&staged.planned, key));
    add(layers, "artifact.encode_ms", encode_secs * 1e3);
    add(layers, "artifact.kib", text.len() as f64 / 1024.0);
    let (decoded, decode_secs) = timed(|| artifact::decode(&text, key, pipeline));
    add(layers, "artifact.decode_ms", decode_secs * 1e3);
    let decoded = decoded.map_err(|e| format!("{label}: artifact decode failed: {e}"))?;
    if artifact::encode(&decoded, key) != text {
        return Err(format!("{label}: artifact round trip changed the encoding"));
    }
    let ((), save_secs) = timed(|| scratch.save(key, &staged.planned));
    add(layers, "store.save_ms", save_secs * 1e3);
    let (loaded, load_secs) = timed(|| scratch.load(key, graph, pipeline));
    add(layers, "store.load_ms", load_secs * 1e3);
    match loaded {
        Some(p) if p.partition() == staged.planned.partition() => {}
        _ => return Err(format!("{label}: store round trip lost the artifact")),
    }

    Ok(Row {
        label: label.to_string(),
        winner: compiled.strategy,
        winner_ee: compiled.metrics.ee_two_qubit_count,
        strategies,
        cut,
        cut_without_lc,
    })
}

/// Turns the summed attribution figures of `instances` instances into the
/// per-layer metrics: means for per-call timings, ratios for shares.
pub fn finish_attribution(layers: &mut Values, instances: usize) {
    let n = instances.max(1) as f64;
    for name in [
        "canon.hash_us",
        "artifact.encode_ms",
        "artifact.decode_ms",
        "artifact.kib",
        "store.load_ms",
        "store.save_ms",
    ] {
        if let Some(v) = layers.get_mut(name) {
            *v /= n;
        }
    }
    // Counts that stayed zero are reported as zero, not left out.
    for s in &STRATEGIES {
        layers.entry(s.ee).or_insert(0.0);
        layers.entry(s.wins).or_insert(0.0);
    }
    layers.entry("recombine.candidate_failures").or_insert(0.0);
    let useful = layers.remove("lc.useful").unwrap_or(0.0);
    layers.insert("lc.useful_ratio", useful / n);
    let partitioned = STRATEGIES
        .iter()
        .filter(|s| s.strategy != RecombineStrategy::DirectSolve)
        .map(|s| layers.get(s.wins).copied().unwrap_or(0.0))
        .sum::<f64>();
    layers.insert("recombine.partitioned_win_ratio", partitioned / n);
}
