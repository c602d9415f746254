//! End-to-end protocol tests against the real `epgs-serve` binary.
//!
//! Each test spawns the compiled daemon (via `CARGO_BIN_EXE_epgs-serve`),
//! drives it over stdin/stdout with line-delimited JSON, and checks the
//! responses — including a full kill-and-restart cycle against one store
//! directory.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use epgs_corpus::json::Value;
use epgs_graph::{generators, Graph};

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(store: &Path, threads: usize) -> Daemon {
        Daemon::spawn_full(
            &[
                "--store",
                store.to_str().expect("utf-8 path"),
                "--threads",
                &threads.to_string(),
            ],
            &[],
        )
    }

    fn spawn_full(args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_epgs-serve"))
            .args(args)
            .envs(envs.iter().copied())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn epgs-serve");
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
    }

    fn read_response(&mut self) -> Value {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed stdout unexpectedly");
        Value::parse(line.trim()).expect("response is JSON")
    }

    /// Reads `n` responses and indexes them by numeric id.
    fn read_batch(&mut self, n: usize) -> HashMap<u64, Value> {
        let mut out = HashMap::new();
        for _ in 0..n {
            let v = self.read_response();
            let id = v.get("id").and_then(Value::as_u64).expect("numeric id");
            out.insert(id, v);
        }
        out
    }

    fn shutdown(mut self) {
        self.send("{\"op\":\"shutdown\",\"id\":999}");
        let ack = self.read_response();
        assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(ack.get("op").and_then(Value::as_str), Some("shutdown"));
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exited with {status}");
    }
}

fn graph_json(g: &Graph) -> String {
    let edges: Vec<String> = g.edges().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!(
        "{{\"n\":{},\"edges\":[{}]}}",
        g.vertex_count(),
        edges.join(",")
    )
}

fn compile_req(id: u64, g: &Graph) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":{id},\"graph\":{},\"qasm\":true}}",
        graph_json(g)
    )
}

fn targets() -> Vec<Graph> {
    vec![
        generators::path(6),
        generators::cycle(7),
        generators::tree(9, 2),
    ]
}

#[test]
fn daemon_compiles_reports_outcomes_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("epgs-daemon-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graphs = targets();

    // ---- First lifetime: cold compiles + a duplicate + stats. ----
    let mut daemon = Daemon::spawn(&dir, 2);
    for (i, g) in graphs.iter().enumerate() {
        daemon.send(&compile_req(i as u64, g));
    }
    // Duplicate of graph 0: memory hit or coalesced, never a recompile.
    daemon.send(&compile_req(100, &graphs[0]));
    let responses = daemon.read_batch(graphs.len() + 1);

    let mut first_qasm = Vec::new();
    for (i, _g) in graphs.iter().enumerate() {
        let r = &responses[&(i as u64)];
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
        let metrics = r.get("metrics").expect("metrics");
        assert!(metrics.get("ne_min").and_then(Value::as_u64).is_some());
        assert!(r.get("wall_micros").and_then(Value::as_u64).is_some());
        first_qasm.push(
            r.get("qasm")
                .and_then(Value::as_str)
                .expect("qasm requested")
                .to_string(),
        );
    }
    let dup_outcome = responses[&100]
        .get("outcome")
        .and_then(Value::as_str)
        .expect("outcome")
        .to_string();
    assert!(
        ["memory_hit", "coalesced"].contains(&dup_outcome.as_str()),
        "duplicate request outcome was '{dup_outcome}'"
    );

    daemon.send("{\"op\":\"stats\",\"id\":200}");
    let stats = daemon.read_response();
    assert_eq!(
        stats.get("requests").and_then(Value::as_u64),
        Some(graphs.len() as u64 + 1)
    );
    assert_eq!(
        stats
            .get("store")
            .and_then(|s| s.get("writes"))
            .and_then(Value::as_u64),
        Some(graphs.len() as u64)
    );

    // Protocol errors answer without killing the daemon.
    daemon.send("this is not json");
    let err = daemon.read_response();
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
    assert!(err.get("error").and_then(Value::as_str).is_some());
    daemon.send("{\"op\":\"frobnicate\",\"id\":7}");
    let err = daemon.read_response();
    assert_eq!(err.get("id").and_then(Value::as_u64), Some(7));
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));

    daemon.shutdown();

    // ---- Second lifetime: same store directory → disk hits, identical
    // QASM. ----
    let mut daemon = Daemon::spawn(&dir, 2);
    for (i, g) in graphs.iter().enumerate() {
        daemon.send(&compile_req(i as u64, g));
    }
    let responses = daemon.read_batch(graphs.len());
    let mut disk_hits = 0usize;
    for (i, _g) in graphs.iter().enumerate() {
        let r = &responses[&(i as u64)];
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        let outcome = r.get("outcome").and_then(Value::as_str).expect("outcome");
        disk_hits += usize::from(outcome == "disk_hit");
        assert_eq!(
            r.get("qasm").and_then(Value::as_str),
            Some(first_qasm[i].as_str()),
            "restart changed the QASM of target {i}"
        );
    }
    assert!(
        disk_hits * 10 >= graphs.len() * 9,
        "restart hit rate {disk_hits}/{} below 90%",
        graphs.len()
    );

    // Evict target 0 everywhere, recompile it: a fresh compile again.
    daemon.send(&format!(
        "{{\"op\":\"evict\",\"id\":300,\"graph\":{}}}",
        graph_json(&graphs[0])
    ));
    let evicted = daemon.read_response();
    assert!(evicted.get("dropped").and_then(Value::as_u64).unwrap_or(0) >= 1);
    daemon.send(&compile_req(301, &graphs[0]));
    let r = daemon.read_response();
    assert_eq!(r.get("outcome").and_then(Value::as_str), Some("compiled"));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flooded_daemon_sheds_with_structured_overloaded_errors() {
    // One worker, a queue of one, and every compile stalled 150 ms by an
    // injected fault: flooding guarantees shedding, and every request —
    // shed or served — must still get exactly one correlated response.
    let mut daemon = Daemon::spawn_full(
        &["--threads", "1", "--queue-limit", "1"],
        &[("EPGS_FAULT_PLAN", "batch.compile:slow(150)")],
    );
    const FLOOD: u64 = 12;
    let g = generators::cycle(6);
    for i in 0..FLOOD {
        daemon.send(&compile_req(i, &g));
    }
    let responses = daemon.read_batch(FLOOD as usize);

    let mut shed = 0usize;
    let mut served = 0usize;
    for i in 0..FLOOD {
        let r = responses
            .get(&i)
            .unwrap_or_else(|| panic!("request {i} got no response"));
        match r.get("ok").and_then(Value::as_bool) {
            Some(true) => served += 1,
            _ => {
                assert_eq!(
                    r.get("error_kind").and_then(Value::as_str),
                    Some("overloaded"),
                    "failed response must be a structured shed: {r}"
                );
                shed += 1;
            }
        }
    }
    assert!(served >= 1, "the worker must serve at least one request");
    assert!(shed >= 1, "a flood past queue-limit 1 must shed");

    // The shed counter is visible over the protocol.
    daemon.send("{\"op\":\"stats\",\"id\":500}");
    let stats = daemon.read_response();
    assert_eq!(
        stats.get("shed").and_then(Value::as_u64),
        Some(shed as u64),
        "{stats}"
    );
    assert_eq!(
        stats.get("requests").and_then(Value::as_u64),
        Some(FLOOD),
        "{stats}"
    );
    daemon.shutdown();
}

#[test]
fn an_over_long_request_line_gets_a_structured_bad_request() {
    let mut daemon = Daemon::spawn_full(&["--threads", "1"], &[]);
    // Well-formed JSON, one byte past the cap: rejected unparsed, so the
    // id is lost and the response carries `"id":null`.
    let head = "{\"op\":\"status\",\"id\":1,\"pad\":\"";
    let pad = "x".repeat(epgs_serve::protocol::MAX_LINE_BYTES + 1 - head.len() - 2);
    daemon.send(&format!("{head}{pad}\"}}"));
    let r = daemon.read_response();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
    assert_eq!(
        r.get("error_kind").and_then(Value::as_str),
        Some("bad_request"),
        "{r}"
    );
    assert_eq!(r.get("id"), Some(&Value::Null), "{r}");

    // The reader resynchronizes on the next line and keeps serving.
    daemon.send(&compile_req(2, &generators::cycle(6)));
    let r = daemon.read_response();
    assert_eq!(r.get("id").and_then(Value::as_u64), Some(2), "{r}");
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    daemon.shutdown();
}

#[test]
fn an_oversized_vertex_count_gets_a_bad_request_and_the_daemon_keeps_serving() {
    let mut daemon = Daemon::spawn_full(&["--threads", "1"], &[]);
    // Either size used to abort the daemon allocating adjacency lists.
    for (id, op, n) in [
        (2, "compile", 1_000_000_000_000u64),
        (3, "evict", (1u64 << 53) - 1),
    ] {
        daemon.send(&format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"graph\":{{\"n\":{n},\"edges\":[]}}}}"
        ));
        let r = daemon.read_response();
        assert_eq!(r.get("id").and_then(Value::as_u64), Some(id), "{r}");
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
        assert_eq!(
            r.get("error_kind").and_then(Value::as_str),
            Some("bad_request"),
            "{r}"
        );
    }
    daemon.send("{\"id\":4,\"op\":\"status\"}");
    let r = daemon.read_response();
    assert_eq!(r.get("id").and_then(Value::as_u64), Some(4), "{r}");
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    daemon.shutdown();
}
