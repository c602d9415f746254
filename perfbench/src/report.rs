//! Metric tables, the correctness tally, and the result line.
//!
//! The two tables mirror `BENCHMARK.json`: every end-to-end metric is
//! printed on an untraced run (`--trace 0`) and every per-layer metric on a
//! traced run (`--trace 1`), by name and with its unit. A layer a workload
//! does not reach reports 0.

use std::collections::BTreeMap;

use epgs_corpus::json::Writer;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ee_cnot_total", "count"),
    ("duration_total_tau", "tau"),
    ("photon_loss_mean", "probability"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("stage.partition_s", "s"),
    ("stage.plan_s", "s"),
    ("stage.schedule_s", "s"),
    ("stage.recombine_s", "s"),
    ("stage.verify_s", "s"),
    ("lc.score_calls", "count"),
    ("lc.cut_gain", "count"),
    ("lc.useful_ratio", "ratio"),
    ("partition.cut_total", "count"),
    ("multilevel.levels", "count"),
    ("multilevel.level_s", "s"),
    ("plan.leaves", "count"),
    ("plan.lc_refinements", "count"),
    ("recombine.scheduled_interleave_s", "s"),
    ("recombine.block_sequential_s", "s"),
    ("recombine.direct_solve_s", "s"),
    ("recombine.scheduled_interleave_ee", "count"),
    ("recombine.block_sequential_ee", "count"),
    ("recombine.direct_solve_ee", "count"),
    ("recombine.wins.scheduled_interleave", "count"),
    ("recombine.wins.block_sequential", "count"),
    ("recombine.wins.direct_solve", "count"),
    ("recombine.partitioned_win_ratio", "ratio"),
    ("recombine.candidate_failures", "count"),
    ("canon.hash_us", "us"),
    ("artifact.encode_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.kib", "KiB"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.disk_hits", "count"),
    ("store.writes", "count"),
    ("store.manifest_commits", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("serve.memory_hit", "count"),
    ("serve.disk_hit", "count"),
    ("serve.compiled", "count"),
    ("serve.coalesced", "count"),
    ("serve.memory_hit_ms", "ms"),
    ("serve.disk_hit_ms", "ms"),
    ("serve.compiled_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Adds `v` to the metric `name`.
pub fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_insert(0.0) += v;
}

/// Operations attempted and the failures among them, with a reason each,
/// plus the QASM hash of each target's circuit by label.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub outputs: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one attempted operation that failed for `reason`.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }
}

/// Renders the result line: the tally and every metric of `table`.
pub fn result_line(tally: &Tally, table: &[(&str, &str)], values: &Values) -> String {
    let mut w = Writer::with_capacity(4096);
    w.begin_obj();
    w.field_bool("correct", tally.failures.is_empty());
    w.field_uint("attempted", tally.attempted.max(1) as u64);
    w.field_uint("failed", tally.failures.len() as u64);
    w.key("metrics");
    w.begin_obj();
    for &(name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        w.key(name);
        w.begin_obj();
        w.field_number("value", if v.is_finite() { v } else { 0.0 });
        w.field_str("unit", unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}
