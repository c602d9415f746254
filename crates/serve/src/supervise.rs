//! Daemon supervision: `epgs-serve --supervise` warm-restart loop.
//!
//! The supervisor owns the real stdin/stdout and proxies the wire protocol
//! to a spawned worker process (the same binary without `--supervise`).
//! Its job is the crash-and-recover phase transition:
//!
//! * **Warm restart** — when the worker dies (an injected `crash` fault, a
//!   real abort, a kill), the supervisor respawns it with capped
//!   exponential backoff and replays every request that never got a
//!   response. The worker's `fsck`-at-open pass recovers the artifact
//!   store, so replayed compiles usually land as disk hits.
//! * **Per-key circuit breaker** — every unanswered compile in flight at a
//!   crash earns its graph key a strike. A key that reaches the strike cap
//!   is never dispatched again: the client gets a structured
//!   `compile_failed` ("circuit breaker open") instead of crash-looping
//!   the worker. Healthy traffic keeps flowing.
//! * **Health annotation** — worker `health` responses pass through with a
//!   `supervisor` object appended (restarts, open breaker keys, backoff).
//!   While no worker is alive the supervisor answers `health` itself with
//!   state `recovering`.
//!
//! The supervisor exits when the worker exits cleanly (a `shutdown`
//! request) or when stdin closes and every pending request is answered.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use epgs::faults::lock_recover;
use epgs::store::exact_graph_hash;
use epgs_corpus::json::Value;
use epgs_graph::canon::canonical_hash;

use crate::protocol::{self, Request};

/// Supervisor tuning knobs (see the binary's usage text).
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Worker argv: program path followed by its arguments.
    pub worker_cmd: Vec<String>,
    /// First respawn delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Upper bound on the respawn delay.
    pub backoff_cap: Duration,
    /// Crash strikes before a graph key's breaker opens.
    pub breaker_strikes: u32,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            worker_cmd: Vec::new(),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(2000),
            breaker_strikes: 2,
        }
    }
}

/// One request awaiting its response.
struct PendingReq {
    /// Replay order (monotonic submission sequence).
    seq: u64,
    /// The raw request line, replayed verbatim after a crash.
    line: String,
    /// Parsed echo id, for synthesizing breaker errors.
    id: Value,
    /// Compile graph key `(canonical, exact)`; only compiles earn strikes.
    key: Option<(u64, u64)>,
}

/// State shared between the stdin pump and the respawn loop.
struct Shared {
    /// Unanswered requests, keyed by rendered id.
    pending: Mutex<HashMap<String, PendingReq>>,
    /// The live worker's stdin (`None` while crashed/respawning).
    child_in: Mutex<Option<ChildStdin>>,
    /// Crash strikes per graph key.
    strikes: Mutex<HashMap<(u64, u64), u32>>,
    /// Worker respawns so far.
    restarts: AtomicU64,
    /// Current backoff delay in milliseconds (for health reporting).
    backoff_ms: AtomicU64,
    /// Set when real stdin reached EOF.
    eof: AtomicBool,
    /// Set when a shutdown request was seen.
    shutting_down: AtomicBool,
    seq: AtomicU64,
    stdout: Mutex<io::Stdout>,
    breaker_strikes: u32,
}

impl Shared {
    fn write_out(&self, response: &str) {
        let mut out = lock_recover(&self.stdout);
        let _ = writeln!(out, "{response}");
        let _ = out.flush();
    }

    fn breaker_open_keys(&self) -> usize {
        lock_recover(&self.strikes)
            .values()
            .filter(|&&s| s >= self.breaker_strikes)
            .count()
    }

    /// Appends the supervisor's own counters to a worker response object
    /// (only `health` responses are annotated).
    fn annotate_health(&self, line: &str) -> Option<String> {
        let doc = Value::parse(line).ok()?;
        if doc.get("op").and_then(Value::as_str) != Some("health") {
            return None;
        }
        let Value::Obj(mut fields) = doc else {
            return None;
        };
        fields.push((
            "supervisor".to_string(),
            Value::Obj(vec![
                ("state".to_string(), Value::Str("ready".to_string())),
                (
                    "restarts".to_string(),
                    Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
                ),
                (
                    "breaker_open".to_string(),
                    Value::Num(self.breaker_open_keys() as f64),
                ),
                (
                    "backoff_ms".to_string(),
                    Value::Num(self.backoff_ms.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ));
        Some(Value::Obj(fields).to_string())
    }

    /// The supervisor's own health answer, used while no worker is alive.
    fn render_recovering(&self, id: &Value) -> String {
        Value::Obj(vec![
            ("id".to_string(), id.clone()),
            ("ok".to_string(), Value::Bool(true)),
            ("op".to_string(), Value::Str("health".to_string())),
            ("state".to_string(), Value::Str("recovering".to_string())),
            ("supervised".to_string(), Value::Bool(true)),
            (
                "restarts".to_string(),
                Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
            ),
            (
                "supervisor".to_string(),
                Value::Obj(vec![
                    ("state".to_string(), Value::Str("recovering".to_string())),
                    (
                        "restarts".to_string(),
                        Value::Num(self.restarts.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "breaker_open".to_string(),
                        Value::Num(self.breaker_open_keys() as f64),
                    ),
                    (
                        "backoff_ms".to_string(),
                        Value::Num(self.backoff_ms.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
        .to_string()
    }
}

/// Forwards a raw line to the worker if one is alive (`child_in` is the
/// locked [`Shared::child_in`]); a write failure (worker died mid-send) is
/// absorbed — the request stays pending and is replayed into the next
/// worker.
fn forward(child_in: &mut Option<ChildStdin>, line: &str) {
    if let Some(stdin) = child_in.as_mut() {
        let _ = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
    }
}

/// The stdin pump: reads real stdin until EOF, applying the breaker and
/// registering every forwarded request as pending.
fn pump_stdin(shared: &Shared) {
    let mut stdin = io::stdin().lock();
    loop {
        let line = match protocol::read_line_capped(&mut stdin, protocol::MAX_LINE_BYTES) {
            Ok(Some(protocol::Line::Text(l))) => l,
            Ok(Some(protocol::Line::TooLong)) => {
                shared.write_out(&protocol::render_too_long());
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = protocol::parse_request(&line);
        let (id, key) = match &parsed {
            Ok(Request::Compile { id, graph, .. }) => (
                id.clone(),
                Some((canonical_hash(graph), exact_graph_hash(graph))),
            ),
            Ok(req) => (req.id().clone(), None),
            Err((id, _)) => (id.clone(), None),
        };
        if let Some(key) = key {
            let open = lock_recover(&shared.strikes)
                .get(&key)
                .copied()
                .unwrap_or(0)
                >= shared.breaker_strikes;
            if open {
                shared.write_out(&protocol::render_error(
                    &id,
                    "circuit breaker open: this graph repeatedly crashed the worker",
                    "compile_failed",
                ));
                continue;
            }
        }
        if matches!(parsed, Ok(Request::Shutdown { .. })) {
            shared.shutting_down.store(true, Ordering::SeqCst);
            let mut child_in = lock_recover(&shared.child_in);
            if child_in.is_some() {
                forward(&mut child_in, &line);
            } else {
                // No worker to ack: the supervisor acknowledges and stops.
                shared.write_out(&protocol::render_shutdown(&id));
                std::process::exit(0);
            }
            break;
        }
        if matches!(parsed, Ok(Request::Health { .. })) && lock_recover(&shared.child_in).is_none()
        {
            shared.write_out(&shared.render_recovering(&id));
            continue;
        }
        // Register and forward under the stdin lock. A respawn installs the
        // new worker and replays the pending requests under the same lock,
        // so each request reaches a worker once: by the replay or by this
        // forward, never both.
        let mut child_in = lock_recover(&shared.child_in);
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        lock_recover(&shared.pending).insert(
            id.to_string(),
            PendingReq {
                seq,
                line: line.clone(),
                id,
                key,
            },
        );
        forward(&mut child_in, &line);
    }
    shared.eof.store(true, Ordering::SeqCst);
    // Closing the worker's stdin lets it drain its queue and exit cleanly.
    lock_recover(&shared.child_in).take();
}

/// Runs the supervision loop; returns the supervisor's exit code.
pub fn run(opts: SupervisorOptions) -> ExitCode {
    let shared = Arc::new(Shared {
        pending: Mutex::new(HashMap::new()),
        child_in: Mutex::new(None),
        strikes: Mutex::new(HashMap::new()),
        restarts: AtomicU64::new(0),
        backoff_ms: AtomicU64::new(opts.backoff_base.as_millis() as u64),
        eof: AtomicBool::new(false),
        shutting_down: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        stdout: Mutex::new(io::stdout()),
        breaker_strikes: opts.breaker_strikes,
    });
    {
        let shared = Arc::clone(&shared);
        thread::spawn(move || pump_stdin(&shared));
    }

    let mut backoff = opts.backoff_base;
    loop {
        let mut child = match spawn_worker(&opts, &shared) {
            Ok(child) => child,
            Err(e) => {
                eprintln!("epgs-serve supervisor: cannot spawn worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Install the worker's stdin and replay unanswered requests in
        // submission order, then, if stdin is already gone, close the
        // worker's stdin so it drains and exits. All of it runs under the
        // stdin lock, so the pump cannot forward a request the replay also
        // sends.
        {
            let mut child_in = lock_recover(&shared.child_in);
            *child_in = child.stdin.take();
            let mut lines: Vec<(u64, String)> = lock_recover(&shared.pending)
                .values()
                .map(|p| (p.seq, p.line.clone()))
                .collect();
            lines.sort_unstable();
            for (_, line) in lines {
                forward(&mut child_in, &line);
            }
            if shared.eof.load(Ordering::SeqCst) {
                child_in.take();
            }
        }

        // Proxy worker stdout until it exits; any response settles its
        // pending slot.
        let mut answered = 0u64;
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                let id = Value::parse(&line)
                    .ok()
                    .and_then(|doc| doc.get("id").cloned())
                    .unwrap_or(Value::Null);
                lock_recover(&shared.pending).remove(&id.to_string());
                answered += 1;
                match shared.annotate_health(&line) {
                    Some(annotated) => shared.write_out(&annotated),
                    None => shared.write_out(&line),
                }
            }
        }
        lock_recover(&shared.child_in).take();
        let status = child.wait();

        if status.map(|s| s.success()).unwrap_or(false) {
            // Clean worker exit: shutdown ack sent or stdin drained.
            return ExitCode::SUCCESS;
        }
        // Crash. Every unanswered compile in flight is a suspect: strike
        // its key, and open the breaker for keys at the cap instead of
        // replaying them into the next worker.
        shared.restarts.fetch_add(1, Ordering::SeqCst);
        let mut pending = lock_recover(&shared.pending);
        let mut strikes = lock_recover(&shared.strikes);
        let mut tripped: Vec<String> = Vec::new();
        for (id_text, req) in pending.iter() {
            if let Some(key) = req.key {
                let s = strikes.entry(key).or_insert(0);
                *s += 1;
                if *s >= opts.breaker_strikes {
                    tripped.push(id_text.clone());
                }
            }
        }
        drop(strikes);
        for id_text in tripped {
            if let Some(req) = pending.remove(&id_text) {
                shared.write_out(&protocol::render_error(
                    &req.id,
                    "circuit breaker open: this graph repeatedly crashed the worker",
                    "compile_failed",
                ));
            }
        }
        let drained = pending.is_empty();
        drop(pending);
        if (shared.eof.load(Ordering::SeqCst) || shared.shutting_down.load(Ordering::SeqCst))
            && drained
        {
            // Nothing left to answer and no more input is coming.
            return ExitCode::SUCCESS;
        }
        if answered > 0 {
            backoff = opts.backoff_base; // the worker was healthy for a while
        }
        shared
            .backoff_ms
            .store(backoff.as_millis() as u64, Ordering::Relaxed);
        thread::sleep(backoff);
        backoff = (backoff * 2).min(opts.backoff_cap);
    }
}

fn spawn_worker(opts: &SupervisorOptions, shared: &Shared) -> io::Result<Child> {
    let (program, args) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| io::Error::other("empty worker command"))?;
    Command::new(program)
        .args(args)
        .env("EPGS_SUPERVISED", "1")
        .env(
            "EPGS_WORKER_RESTARTS",
            shared.restarts.load(Ordering::SeqCst).to_string(),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
}
