//! The wire protocol: line-delimited JSON over stdin/stdout.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry a client-chosen `id` that the
//! response echoes verbatim, so clients can correlate out-of-order
//! responses (the daemon serves requests on a worker pool). The grammar:
//!
//! ```text
//! request  := compile | status | stats | health | evict | shutdown
//! compile  := {"op":"compile", "id":<json>, "graph":GRAPH, "qasm":bool?}
//! status   := {"op":"status", "id":<json>}
//! stats    := {"op":"stats", "id":<json>}
//! health   := {"op":"health", "id":<json>}
//! evict    := {"op":"evict", "id":<json>, "graph":GRAPH, "layer":"all"|"memory"?}
//! shutdown := {"op":"shutdown", "id":<json>}
//! GRAPH    := {"n":uint, "edges":[[uint,uint],...]}
//! ```
//!
//! `health` reports the crash-recovery view: a `state` of `ready` or
//! `degraded` (quarantined artifacts or a dirty `fsck` pass), the store's
//! [`RecoveryReport`](epgs::RecoveryReport) counters, and — when the daemon
//! runs under `--supervise` — the supervisor annotates the response with its
//! own restart and circuit-breaker counters (state `recovering` while a
//! crashed worker is being respawned).
//!
//! A successful response always carries `"ok":true` and repeats the `op`;
//! failures carry `"ok":false`, an `"error"` string, and a machine-readable
//! `"error_kind"` (`bad_request` for unparsable requests and for graphs
//! with more than [`epgs_graph::MAX_VERTICES`] vertices — answered with
//! `"id":null` when even the id is lost — plus the engine's
//! `compile_failed` / `deadline_exceeded` / `overloaded` / `panic`). A
//! request line longer than [`MAX_LINE_BYTES`] is discarded unparsed and
//! answered with a `bad_request` carrying `"id":null`.
//! Compile responses report the cache `outcome` (`memory_hit` / `disk_hit`
//! / `compiled` / `coalesced`), the request wall time, whether the answer
//! came from a `degraded` partition search, the compiled metrics, and —
//! when the request set `"qasm":true` — the full OpenQASM 3 text of the
//! generation circuit.

use std::io::{self, BufRead};

use epgs::Compiled;
use epgs_circuit::qasm;
use epgs_corpus::json::{Value, Writer};
use epgs_graph::{Graph, MAX_VERTICES};

use crate::engine::{ServeEngine, ServeReply, ServeStats};

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a target graph (optionally returning its QASM).
    Compile {
        /// Echo id.
        id: Value,
        /// The target graph state.
        graph: Graph,
        /// Whether to include the circuit's OpenQASM 3 text.
        want_qasm: bool,
    },
    /// Liveness probe: request counters and in-flight depth.
    Status {
        /// Echo id.
        id: Value,
    },
    /// Full counter dump: engine, memory cache, and disk store.
    Stats {
        /// Echo id.
        id: Value,
    },
    /// Crash-recovery view: readiness state plus fsck/restart counters.
    Health {
        /// Echo id.
        id: Value,
    },
    /// Drop one graph's artifacts from the caches.
    Evict {
        /// Echo id.
        id: Value,
        /// The graph whose artifacts to drop.
        graph: Graph,
        /// Drop only the in-memory layer, leaving the disk store intact
        /// (wire field `"layer":"memory"`; the default `"all"` drops both).
        memory_only: bool,
    },
    /// Acknowledge and stop the daemon.
    Shutdown {
        /// Echo id.
        id: Value,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> &Value {
        match self {
            Request::Compile { id, .. }
            | Request::Status { id }
            | Request::Stats { id }
            | Request::Health { id }
            | Request::Evict { id, .. }
            | Request::Shutdown { id } => id,
        }
    }
}

/// Longest request line the daemon reads, in bytes (newline excluded).
/// A request carries one graph as an edge list, and 4 MiB holds hundreds
/// of thousands of edges; the cap keeps one runaway line from growing the
/// reader's buffer without bound or stalling the thread that sheds load.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// One line read by [`read_line_capped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A line within the cap, without its `\n` or `\r\n` terminator.
    Text(String),
    /// A line over the cap; its bytes were consumed but not kept.
    TooLong,
}

/// Reads one line of at most `cap` bytes, like one step of
/// [`BufRead::lines`]. `Ok(None)` at end of input. An over-long line is
/// consumed through its newline without being buffered and reported as
/// [`Line::TooLong`].
///
/// # Errors
///
/// Read errors, and `InvalidData` for a line that is not UTF-8.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<Line>> {
    let mut buf = Vec::new();
    let mut too_long = false;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long && buf.len() + part.len() > cap {
            too_long = true;
            buf = Vec::new();
        }
        if !too_long {
            buf.extend_from_slice(part);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if !read_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Line::TooLong));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(|text| Some(Line::Text(text)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Renders the response to a [`Line::TooLong`] request line.
pub fn render_too_long() -> String {
    render_error(
        &Value::Null,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        "bad_request",
    )
}

fn parse_graph(v: &Value) -> Result<Graph, String> {
    let n = v
        .get("n")
        .and_then(Value::as_usize)
        .ok_or("graph needs an unsigned 'n'")?;
    if n > MAX_VERTICES {
        return Err(format!(
            "graph has {n} vertices, above the limit of {MAX_VERTICES}"
        ));
    }
    let edges_val = v
        .get("edges")
        .and_then(Value::as_arr)
        .ok_or("graph needs an 'edges' array")?;
    let mut edges = Vec::with_capacity(edges_val.len());
    for e in edges_val {
        let pair = e.as_arr().filter(|p| p.len() == 2);
        let (a, b) = match pair {
            Some(p) => match (p[0].as_usize(), p[1].as_usize()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("edge endpoints must be unsigned integers".to_string()),
            },
            None => return Err("each edge must be a two-element array".to_string()),
        };
        edges.push((a, b));
    }
    Graph::from_edges(n, edges).map_err(|e| format!("invalid graph: {e}"))
}

/// Parses one request line. Errors carry the request's `id` when the line
/// was at least well-formed JSON (`Value::Null` otherwise), so the error
/// response still correlates.
pub fn parse_request(line: &str) -> Result<Request, (Value, String)> {
    let doc = Value::parse(line).map_err(|e| (Value::Null, format!("malformed request: {e}")))?;
    let id = doc.get("id").cloned().unwrap_or(Value::Null);
    let fail = |msg: String| (id.clone(), msg);
    let op = doc
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("request needs a string 'op'".to_string()))?;
    match op {
        "compile" => {
            let graph_val = doc
                .get("graph")
                .ok_or_else(|| fail("compile needs a 'graph'".to_string()))?;
            let graph = parse_graph(graph_val).map_err(&fail)?;
            let want_qasm = doc.get("qasm").and_then(Value::as_bool).unwrap_or(false);
            Ok(Request::Compile {
                id,
                graph,
                want_qasm,
            })
        }
        "status" => Ok(Request::Status { id }),
        "stats" => Ok(Request::Stats { id }),
        "health" => Ok(Request::Health { id }),
        "evict" => {
            let graph_val = doc
                .get("graph")
                .ok_or_else(|| fail("evict needs a 'graph'".to_string()))?;
            let graph = parse_graph(graph_val).map_err(&fail)?;
            let memory_only = match doc.get("layer").and_then(Value::as_str) {
                None | Some("all") => false,
                Some("memory") => true,
                Some(other) => {
                    return Err(fail(format!(
                        "unknown evict layer '{other}' (expected 'all' or 'memory')"
                    )))
                }
            };
            Ok(Request::Evict {
                id,
                graph,
                memory_only,
            })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(fail(format!("unknown op '{other}'"))),
    }
}

fn begin_response(id: &Value, ok: bool) -> Writer {
    let mut w = Writer::with_capacity(256);
    w.begin_obj();
    w.key("id");
    w.value(id);
    w.field_bool("ok", ok);
    w
}

/// Renders a protocol-level error response. `kind` is the machine-readable
/// `error_kind` (`bad_request` for parse failures and bad graphs, or a
/// [`ServeErrorKind`](crate::ServeErrorKind) wire name for failed
/// compiles).
pub fn render_error(id: &Value, error: &str, kind: &str) -> String {
    let mut w = begin_response(id, false);
    w.field_str("error", error);
    w.field_str("error_kind", kind);
    w.end_obj();
    w.finish()
}

/// Renders the load-shedding response: the daemon's bounded queue is full
/// and the request was never dispatched. Clients should back off and
/// retry.
pub fn render_overloaded(id: &Value) -> String {
    render_error(
        id,
        "server overloaded: request shed at queue limit",
        "overloaded",
    )
}

fn write_metrics(w: &mut Writer, graph: &Graph, c: &Compiled) {
    w.key("metrics");
    w.begin_obj();
    w.field_uint("vertices", graph.vertex_count() as u64);
    w.field_uint("edges", graph.edge_count() as u64);
    w.field_uint("ne_min", c.ne_min as u64);
    w.field_uint("ne_limit", c.ne_limit as u64);
    w.field_uint("peak_emitters", c.metrics.peak_emitters as u64);
    w.field_uint("ee_cnots", c.metrics.ee_two_qubit_count as u64);
    w.field_fixed("duration", c.metrics.duration, 3);
    w.field_fixed("t_loss", c.metrics.t_loss, 3);
    w.field_fixed("mean_photon_loss", c.metrics.loss.mean_photon_loss, 6);
    w.field_fixed("any_photon_loss", c.metrics.loss.any_photon_loss, 6);
    w.field_str("strategy", &format!("{:?}", c.strategy));
    w.end_obj();
}

/// Renders the response to a compile request (`graph` is the request's
/// target, echoed into the metrics for self-describing responses).
pub fn render_compile(id: &Value, graph: &Graph, reply: &ServeReply, want_qasm: bool) -> String {
    match &reply.result {
        Ok(compiled) => {
            let mut w = begin_response(id, true);
            w.field_str("op", "compile");
            w.field_str("outcome", reply.outcome.as_str());
            w.field_raw("wall_micros", &reply.wall_micros.to_string());
            w.field_bool("degraded", reply.degraded);
            write_metrics(&mut w, graph, compiled);
            if want_qasm {
                w.field_str("qasm", &qasm::to_qasm(&compiled.circuit));
            }
            w.end_obj();
            w.finish()
        }
        Err(e) => render_error(id, &e.message, e.kind.as_str()),
    }
}

fn write_serve_stats(w: &mut Writer, s: &ServeStats) {
    w.field_uint("requests", s.requests as u64);
    w.field_uint("memory_hits", s.memory_hits as u64);
    w.field_uint("disk_hits", s.disk_hits as u64);
    w.field_uint("compiled", s.compiled as u64);
    w.field_uint("coalesced", s.coalesced as u64);
    w.field_uint("failures", s.failures as u64);
    w.field_uint("shed", s.shed as u64);
    w.field_uint("panics", s.panics as u64);
    w.field_uint("deadline_exceeded", s.deadline_exceeded as u64);
    w.field_uint("degraded", s.degraded as u64);
}

/// Renders the response to a status request.
pub fn render_status(id: &Value, engine: &ServeEngine) -> String {
    let mut w = begin_response(id, true);
    w.field_str("op", "status");
    w.field_uint("inflight", engine.inflight_len() as u64);
    write_serve_stats(&mut w, &engine.stats());
    w.end_obj();
    w.finish()
}

/// Renders the response to a stats request: engine counters plus each
/// cache layer's own counters.
pub fn render_stats(id: &Value, engine: &ServeEngine) -> String {
    let mut w = begin_response(id, true);
    w.field_str("op", "stats");
    write_serve_stats(&mut w, &engine.stats());
    let cache = engine.batch().cache_stats();
    w.key("cache");
    w.begin_obj();
    w.field_uint("hits", cache.hits as u64);
    w.field_uint("misses", cache.misses as u64);
    w.field_uint("bucket_collisions", cache.bucket_collisions as u64);
    w.field_uint("evictions", cache.evictions as u64);
    w.field_uint("corrupt_discarded", cache.corrupt_discarded as u64);
    w.end_obj();
    if let Some(store) = engine.batch().store() {
        let s = store.stats();
        w.key("store");
        w.begin_obj();
        w.field_uint("artifacts", store.len() as u64);
        w.field_uint("total_bytes", store.total_bytes());
        w.field_uint("disk_hits", s.disk_hits as u64);
        w.field_uint("disk_misses", s.disk_misses as u64);
        w.field_uint("corrupt_discarded", s.corrupt_discarded as u64);
        w.field_uint("version_rejected", s.version_rejected as u64);
        w.field_uint("evictions", s.evictions as u64);
        w.field_uint("writes", s.writes as u64);
        w.field_uint("write_errors", s.write_errors as u64);
        w.field_uint("quarantined", s.quarantined as u64);
        w.field_uint("tmp_swept", s.tmp_swept as u64);
        w.field_uint("read_retries", s.read_retries as u64);
        w.field_uint("write_retries", s.write_retries as u64);
        w.field_uint("manifest_commits", s.manifest_commits as u64);
        write_recovery(&mut w, &store.recovery());
        w.end_obj();
    }
    w.end_obj();
    w.finish()
}

fn write_recovery(w: &mut Writer, r: &epgs::RecoveryReport) {
    w.key("recovery");
    w.begin_obj();
    w.field_bool("clean", r.is_clean());
    w.field_bool("manifest_found", r.manifest_found);
    w.field_hex("manifest_generation", r.manifest_generation);
    w.field_uint("stale_manifests_deleted", r.stale_manifests_deleted as u64);
    w.field_uint("entries_expected", r.entries_expected as u64);
    w.field_uint("orphans_reindexed", r.orphans_reindexed as u64);
    w.field_uint("orphans_discarded", r.orphans_discarded as u64);
    w.field_uint("missing_dropped", r.missing_dropped as u64);
    w.field_uint("torn_quarantined", r.torn_quarantined as u64);
    w.field_uint("tmp_swept", r.tmp_swept as u64);
    w.field_uint("recovered_bytes", r.recovered_bytes);
    w.end_obj();
}

/// Renders the response to a health request: the worker's readiness state
/// (`ready`, or `degraded` when artifacts sit in quarantine or the last
/// `fsck` pass had to repair something) plus the store's recovery
/// counters. `restarts` is the supervisor-provided respawn count the
/// worker was launched with (`None` when unsupervised); the supervising
/// process additionally annotates the response in flight with breaker and
/// backoff counters, and answers `recovering` itself while no worker is
/// alive.
pub fn render_health(id: &Value, engine: &ServeEngine, restarts: Option<u64>) -> String {
    let mut w = begin_response(id, true);
    w.field_str("op", "health");
    let store = engine.batch().store();
    let degraded = store
        .as_ref()
        .is_some_and(|s| !s.recovery().is_clean() || s.stats().quarantined > 0);
    w.field_str("state", if degraded { "degraded" } else { "ready" });
    w.field_bool("supervised", restarts.is_some());
    w.field_uint("restarts", restarts.unwrap_or(0));
    if let Some(store) = store {
        write_recovery(&mut w, &store.recovery());
    }
    w.end_obj();
    w.finish()
}

/// Renders the response to an evict request.
pub fn render_evict(id: &Value, dropped: usize) -> String {
    let mut w = begin_response(id, true);
    w.field_str("op", "evict");
    w.field_uint("dropped", dropped as u64);
    w.end_obj();
    w.finish()
}

/// Renders the shutdown acknowledgement.
pub fn render_shutdown(id: &Value) -> String {
    let mut w = begin_response(id, true);
    w.field_str("op", "shutdown");
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8], cap: usize) -> Vec<Line> {
        let mut reader = io::BufReader::with_capacity(4, input);
        std::iter::from_fn(|| read_line_capped(&mut reader, cap).expect("in-memory read")).collect()
    }

    #[test]
    fn capped_lines_match_buf_read_lines_within_the_cap() {
        let text = |s: &str| Line::Text(s.to_string());
        assert_eq!(
            lines(b"ab\r\n\ncdefgh\nlast", 8),
            vec![text("ab"), text(""), text("cdefgh"), text("last")]
        );
        assert!(lines(b"", 8).is_empty());
    }

    #[test]
    fn an_over_long_line_is_skipped_and_the_next_line_is_read() {
        let text = |s: &str| Line::Text(s.to_string());
        assert_eq!(
            lines(b"12345678\n123456789\nok\n123456789", 8),
            vec![text("12345678"), Line::TooLong, text("ok"), Line::TooLong]
        );
    }

    #[test]
    fn non_utf8_is_invalid_data() {
        let mut reader = io::BufReader::new(&b"\xff\n"[..]);
        let err = read_line_capped(&mut reader, 8).expect_err("not UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn the_vertex_cap_is_inclusive() {
        let req = |n: usize| format!(r#"{{"id":1,"op":"compile","graph":{{"n":{n},"edges":[]}}}}"#);
        assert!(parse_request(&req(MAX_VERTICES)).is_ok());
        let (id, msg) = parse_request(&req(MAX_VERTICES + 1)).expect_err("over the cap");
        assert_eq!(id.as_u64(), Some(1));
        assert!(msg.contains("limit"), "{msg}");
    }
}
