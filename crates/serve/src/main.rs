//! `epgs-serve` — the persistent compile daemon.
//!
//! Reads line-delimited JSON requests from stdin, serves them on a worker
//! pool through a shared [`ServeEngine`], and writes one JSON response per
//! line to stdout (order follows completion, not submission — correlate by
//! `id`). Exits when stdin closes or on a `shutdown` request, which should
//! be the client's last request: its acknowledgement is flushed and the
//! process stops immediately, so responses still in flight on other
//! workers are dropped.
//!
//! ```text
//! usage: epgs-serve [--store DIR] [--store-budget-mb MB] [--threads N]
//!                   [--deadline-ms MS] [--queue-limit N] [--supervise]
//! ```
//!
//! `--deadline-ms` bounds every compile request (expired requests get a
//! structured `deadline_exceeded` error); `--queue-limit` bounds the
//! request queue — requests arriving while it is full are shed immediately
//! with an `overloaded` error instead of building unbounded latency. The
//! `EPGS_FAULT_PLAN` environment variable arms deterministic fault
//! injection for chaos testing (see `epgs::faults` for the grammar).
//!
//! `--supervise` runs the process as a supervisor instead: it spawns this
//! same binary (minus the flag) as a worker, proxies the protocol, and
//! warm-restarts the worker after a crash with capped exponential backoff,
//! replaying unanswered requests and tripping a per-graph circuit breaker
//! for requests that repeatedly crash the worker (see
//! `epgs_serve::supervise`).
//!
//! See `epgs_serve::protocol` for the request/response grammar.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use epgs::faults::{lock_recover, FaultPlan};
use epgs::{ArtifactStore, BatchCompiler};
use epgs_corpus::json::Value;
use epgs_serve::protocol::{self, Request};
use epgs_serve::{default_config, ServeEngine};

fn usage() -> ExitCode {
    eprintln!(
        "usage: epgs-serve [--store DIR] [--store-budget-mb MB] [--threads N] \
         [--deadline-ms MS] [--queue-limit N] [--supervise]"
    );
    ExitCode::FAILURE
}

/// The bounded request queue: a deque plus a closed flag under one mutex.
/// (`mpsc` has no capacity bound and no way to reject-at-enqueue; load
/// shedding needs both.)
struct Queue {
    state: Mutex<(VecDeque<String>, bool)>,
    cv: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueues `line` unless the queue holds `limit` requests already;
    /// returns whether the request was shed.
    fn push_or_shed(&self, line: String, limit: usize) -> bool {
        let mut guard = lock_recover(&self.state);
        if guard.0.len() >= limit {
            return true;
        }
        guard.0.push_back(line);
        drop(guard);
        self.cv.notify_one();
        false
    }

    /// Blocks for the next request; `None` once the queue is closed and
    /// drained.
    fn pop(&self) -> Option<String> {
        let mut guard = lock_recover(&self.state);
        loop {
            if let Some(line) = guard.0.pop_front() {
                return Some(line);
            }
            if guard.1 {
                return None;
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the queue closed (workers drain what is left, then exit).
    fn close(&self) {
        lock_recover(&self.state).1 = true;
        self.cv.notify_all();
    }
}

fn write_line(stdout: &Mutex<io::Stdout>, response: &str) {
    let mut out = lock_recover(stdout);
    let _ = writeln!(out, "{response}");
    let _ = out.flush();
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--supervise") {
        // Supervisor mode: re-invoke this binary (minus the flag) as the
        // worker; all other arguments are validated by the worker itself.
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot resolve own executable path: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut worker_cmd = vec![exe.to_string_lossy().into_owned()];
        worker_cmd.extend(argv.iter().filter(|a| *a != "--supervise").cloned());
        return epgs_serve::supervise::run(epgs_serve::SupervisorOptions {
            worker_cmd,
            ..Default::default()
        });
    }
    // A supervised worker reports its restart count through `health`.
    let restarts: Option<u64> = std::env::var("EPGS_WORKER_RESTARTS")
        .ok()
        .and_then(|v| v.parse().ok());

    let mut store_dir: Option<String> = None;
    let mut budget_mb: Option<u64> = None;
    let mut threads = 4usize;
    let mut deadline_ms: Option<u64> = None;
    let mut queue_limit = 1024usize;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => match args.next() {
                Some(dir) => store_dir = Some(dir),
                None => {
                    eprintln!("--store needs a directory");
                    return usage();
                }
            },
            "--store-budget-mb" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(mb)) if mb >= 1 => budget_mb = Some(mb),
                _ => {
                    eprintln!("--store-budget-mb needs a positive integer");
                    return usage();
                }
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => threads = n,
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return usage();
                }
            },
            "--deadline-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms >= 1 => deadline_ms = Some(ms),
                _ => {
                    eprintln!("--deadline-ms needs a positive integer");
                    return usage();
                }
            },
            "--queue-limit" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => queue_limit = n,
                _ => {
                    eprintln!("--queue-limit needs a positive integer");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    if budget_mb.is_some() && store_dir.is_none() {
        eprintln!("--store-budget-mb needs --store");
        return usage();
    }

    let config = default_config();
    let mut engine = match &store_dir {
        None => ServeEngine::new(config),
        Some(dir) => {
            let opened = match budget_mb {
                None => ArtifactStore::open(dir),
                Some(mb) => ArtifactStore::open_with_budget(dir, mb << 20),
            };
            match opened {
                Ok(store) => {
                    let mut batch = BatchCompiler::new(config);
                    batch.attach_store(store);
                    ServeEngine::from_batch(batch)
                }
                Err(e) => {
                    eprintln!("cannot open store {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    engine.set_default_deadline(deadline_ms.map(Duration::from_millis));
    match std::env::var("EPGS_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => engine.set_fault_plan(Arc::new(plan)),
            Err(e) => {
                eprintln!("invalid EPGS_FAULT_PLAN: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {}
    }
    let engine = Arc::new(engine);
    let stdout = Arc::new(Mutex::new(io::stdout()));

    let queue = Arc::new(Queue::new());
    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(&engine);
        let stdout = Arc::clone(&stdout);
        workers.push(thread::spawn(move || {
            while let Some(line) = queue.pop() {
                let (response, stop) = match protocol::parse_request(&line) {
                    Err((id, e)) => (protocol::render_error(&id, &e, "bad_request"), false),
                    Ok(Request::Compile {
                        id,
                        graph,
                        want_qasm,
                    }) => {
                        let reply = engine.compile(&graph);
                        (
                            protocol::render_compile(&id, &graph, &reply, want_qasm),
                            false,
                        )
                    }
                    Ok(Request::Status { id }) => (protocol::render_status(&id, &engine), false),
                    Ok(Request::Stats { id }) => (protocol::render_stats(&id, &engine), false),
                    Ok(Request::Health { id }) => {
                        (protocol::render_health(&id, &engine, restarts), false)
                    }
                    Ok(Request::Evict {
                        id,
                        graph,
                        memory_only,
                    }) => {
                        let dropped = if memory_only {
                            engine.evict_memory(&graph)
                        } else {
                            engine.evict(&graph)
                        };
                        (protocol::render_evict(&id, dropped), false)
                    }
                    Ok(Request::Shutdown { id }) => (protocol::render_shutdown(&id), true),
                };
                write_line(&stdout, &response);
                if stop {
                    std::process::exit(0);
                }
            }
        }));
    }

    let mut stdin = io::stdin().lock();
    loop {
        let line = match protocol::read_line_capped(&mut stdin, protocol::MAX_LINE_BYTES) {
            Ok(Some(protocol::Line::Text(l))) => l,
            Ok(Some(protocol::Line::TooLong)) => {
                write_line(&stdout, &protocol::render_too_long());
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        if queue.push_or_shed(line.clone(), queue_limit) {
            // Shed at the queue limit: answer immediately from the reader
            // thread so the client learns to back off; the engine never
            // sees the request.
            engine.note_shed();
            let id = Value::parse(&line)
                .ok()
                .and_then(|doc| doc.get("id").cloned())
                .unwrap_or(Value::Null);
            write_line(&stdout, &protocol::render_overloaded(&id));
        }
    }
    // EOF: close the queue, let the workers drain it, then exit.
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    ExitCode::SUCCESS
}
