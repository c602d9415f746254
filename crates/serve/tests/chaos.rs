//! Chaos suite: the serve engine under deterministic fault injection.
//!
//! Every test arms a seeded [`FaultPlan`] (the `EPGS_FAULT_PLAN` grammar)
//! across the full stack — store reads/writes, batch compiles, the serve
//! leader, and the multilevel partitioner — and asserts the service
//! guarantees from `ARCHITECTURE.md`'s failure model: no deadlocks, every
//! request reaches a terminal reply, panics are contained, deadlines
//! produce structured errors, degraded answers are labeled and never
//! cached, quarantined store entries are never served, and fault-free
//! replies stay byte-identical to the QASM hashes pinned in
//! `tests/data/flat_qasm_fnv.txt`.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use epgs::faults::FaultPlan;
use epgs::{ArtifactStore, BatchCompiler, FrameworkConfig, PartitionSpec};
use epgs_circuit::qasm::to_qasm;
use epgs_corpus::CorpusSpec;
use epgs_graph::generators;
use epgs_serve::{default_config, ServeEngine, ServeErrorKind, ServeOutcome};

/// Silences the default panic hook for *injected* panics only (they are
/// caught by the engine, but the hook would still spam stderr); real
/// panics — including test assertion failures — pass through untouched.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected fault:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// FNV-1a, 64 bit — matches `tests/data/flat_qasm_fnv.txt`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The repo-level pinned QASM hashes (`corpus-*` labels match the serve
/// daemon's `default_config`, which mirrors the corpus bench framework;
/// every default-corpus instance sits below the multilevel coarsening
/// cutoff, where the scheme is byte-identical to the pinned flat engine).
fn pinned_hashes() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/flat_qasm_fnv.txt"
    ))
    .expect("pinned hash file must exist");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (label, hash) = l.split_once(' ').expect("LABEL HASH lines");
            (
                label.to_string(),
                u64::from_str_radix(hash.trim(), 16).expect("hex hash"),
            )
        })
        .collect()
}

fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        partition: PartitionSpec {
            g_max: 5,
            lc_budget: 3,
            effort: 4,
            ..Default::default()
        },
        orderings_per_subgraph: 4,
        ..Default::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("epgs-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole soak: a worker pool hammers the corpus through one engine
/// while faults fire at every layer. No request may wedge, the in-flight
/// table must drain, and every fault-free success must be byte-identical
/// to the pinned QASM.
#[test]
fn chaos_soak_terminates_and_fault_free_replies_match_pinned_qasm() {
    quiet_injected_panics();
    const WORKERS: usize = 6;
    const REQUESTS_PER_WORKER: usize = 8;

    let dir = temp_dir("soak");
    let plan = Arc::new(
        FaultPlan::parse(
            "seed=0xc4a05;\
             serve.compile:panic@1/12;\
             batch.compile:panic@1/16;\
             batch.compile:slow(2)@1/8;\
             store.read:io@1/6;\
             store.read:bitflip@1/8;\
             store.write:io@1/6;\
             store.write:bitflip@1/10;\
             partition.multilevel:fail@1/4",
        )
        .expect("soak plan parses"),
    );
    let mut engine = ServeEngine::with_store(default_config(), &dir).expect("open store");
    engine.set_fault_plan(Arc::clone(&plan));
    let engine = Arc::new(engine);

    let instances = Arc::new(CorpusSpec::default_corpus().instances());
    let pinned = pinned_hashes();
    assert!(
        instances
            .iter()
            .all(|i| pinned.contains_key(&format!("corpus-{}", i.id))),
        "every corpus instance must have a pinned hash"
    );

    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let engine = Arc::clone(&engine);
        let instances = Arc::clone(&instances);
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            for r in 0..REQUESTS_PER_WORKER {
                // Stagger the walk per worker so identical requests overlap
                // (coalescing) while the whole corpus still gets coverage.
                let idx = (w * 3 + r) % instances.len();
                let reply = engine.compile(&instances[idx].graph);
                tx.send((idx, reply)).expect("collector alive");
            }
        }));
    }
    drop(tx);

    // Watchdog: a wedged engine shows up as a receive timeout here, not as
    // a hung test binary.
    let mut replies = Vec::new();
    for _ in 0..WORKERS * REQUESTS_PER_WORKER {
        let msg = rx
            .recv_timeout(Duration::from_secs(180))
            .expect("soak wedged: a request never reached a terminal reply");
        replies.push(msg);
    }
    for h in handles {
        h.join().expect("worker thread");
    }

    assert_eq!(replies.len(), WORKERS * REQUESTS_PER_WORKER);
    assert_eq!(engine.inflight_len(), 0, "in-flight table must drain");
    assert!(plan.total_hits() > 0, "the plan must actually fire");

    // Fault-free successes are byte-identical to the pinned flat QASM.
    // There is deliberately no lower bound on how many such replies exist:
    // the plan fires at fixed invocation indices per point, but thread
    // interleaving decides which *request* consumes which index, so under
    // heavy load every success in the armed phase may legitimately be
    // degraded. The disarmed epilogue below supplies the deterministic
    // byte-identity coverage for the full corpus.
    for (idx, reply) in &replies {
        if reply.degraded {
            continue;
        }
        if let Ok(compiled) = &reply.result {
            let label = format!("corpus-{}", instances[*idx].id);
            assert_eq!(
                fnv1a64(to_qasm(&compiled.circuit).as_bytes()),
                pinned[&label],
                "{label}: QASM drifted under fault injection"
            );
        }
    }

    // Disarmed epilogue: the same engine serves the whole corpus cleanly.
    plan.disarm();
    for inst in instances.iter() {
        let reply = engine.compile(&inst.graph);
        let compiled = reply.result.unwrap_or_else(|e| {
            panic!("{}: disarmed compile failed: {e}", inst.id);
        });
        assert!(!reply.degraded, "{}: disarmed reply degraded", inst.id);
        assert_eq!(
            fnv1a64(to_qasm(&compiled.circuit).as_bytes()),
            pinned[&format!("corpus-{}", inst.id)],
            "{}: disarmed QASM drifted",
            inst.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Leader death: a panicking leader publishes a structured `panic` error
/// to its whole coalesced herd, the in-flight table drains, and the next
/// request for the same graph recompiles successfully.
#[test]
fn a_panicking_leader_fails_its_herd_and_the_next_request_recovers() {
    quiet_injected_panics();
    // The leader sleeps at the serve point (letting the herd attach), then
    // panics at the batch point inside `catch_unwind`.
    let plan =
        Arc::new(FaultPlan::parse("serve.compile:slow(200)#0;batch.compile:panic#0").unwrap());
    let mut engine = ServeEngine::new(quick_config());
    engine.set_fault_plan(Arc::clone(&plan));
    let engine = Arc::new(engine);
    let g = generators::lattice(3, 4);

    let leader = {
        let engine = Arc::clone(&engine);
        let g = g.clone();
        thread::spawn(move || engine.compile(&g))
    };
    for _ in 0..10_000 {
        if engine.inflight_len() > 0 {
            break;
        }
        thread::sleep(Duration::from_micros(100));
    }
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let g = g.clone();
            thread::spawn(move || engine.compile(&g))
        })
        .collect();

    let lead_reply = leader.join().expect("leader thread");
    let err = lead_reply.result.expect_err("leader must fail");
    assert_eq!(err.kind, ServeErrorKind::Panic);
    assert!(err.message.contains("injected fault"), "{}", err.message);
    for waiter in waiters {
        let reply = waiter.join().expect("waiter thread");
        // A waiter either attached to the doomed leader (shared panic
        // error) or arrived after publication and re-led a clean compile.
        match reply.result {
            Err(e) => assert_eq!(e.kind, ServeErrorKind::Panic),
            Ok(_) => assert_eq!(reply.outcome, ServeOutcome::Compiled),
        }
    }
    assert_eq!(engine.inflight_len(), 0, "dead leader must unregister");
    let stats = engine.stats();
    assert_eq!(stats.panics, 1);
    assert!(stats.failures >= 1);

    // The panic left nothing poisoned and no bad entry cached: a fresh
    // request succeeds (compiled, or a memory hit if a late waiter re-led
    // a clean compile above).
    let reply = engine.compile(&g);
    assert!(reply.result.is_ok(), "recovery compile failed");
    assert_eq!(engine.compile(&g).outcome, ServeOutcome::MemoryHit);
}

/// Deadlines are structured errors, not hangs: a forced-slow compile past
/// its deadline, an already-expired request (even against a warm cache),
/// and a waiter whose leader outlives the waiter's own deadline all get
/// `deadline_exceeded`.
#[test]
fn deadlines_produce_structured_errors_for_leaders_and_waiters() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::parse("batch.compile:slow(400)").unwrap());
    let mut engine = ServeEngine::new(quick_config());
    engine.set_fault_plan(Arc::clone(&plan));
    let engine = Arc::new(engine);
    let g = generators::cycle(8);

    // Leader: the injected 400 ms stall blows the 50 ms budget.
    let reply = engine.compile_with_deadline(&g, Some(Duration::from_millis(50)));
    let err = reply.result.expect_err("stalled compile must time out");
    assert_eq!(err.kind, ServeErrorKind::DeadlineExceeded);

    // Waiter: attach to a slow leader with a tiny budget of one's own.
    let leader = {
        let engine = Arc::clone(&engine);
        let g = g.clone();
        thread::spawn(move || engine.compile(&g))
    };
    for _ in 0..10_000 {
        if engine.inflight_len() > 0 {
            break;
        }
        thread::sleep(Duration::from_micros(100));
    }
    let waiter = engine.compile_with_deadline(&g, Some(Duration::from_millis(30)));
    assert_eq!(waiter.outcome, ServeOutcome::Coalesced);
    assert_eq!(
        waiter.result.expect_err("waiter must time out").kind,
        ServeErrorKind::DeadlineExceeded
    );
    // The leader is unhurried and completes normally.
    assert!(leader.join().expect("leader thread").result.is_ok());

    // An expired deadline cancels even a warm cache hit: the request is
    // dead regardless of how cheap the answer would have been.
    plan.disarm();
    assert!(engine.compile(&g).result.is_ok());
    let expired = engine.compile_with_deadline(&g, Some(Duration::ZERO));
    assert_eq!(
        expired.result.expect_err("expired request must fail").kind,
        ServeErrorKind::DeadlineExceeded
    );
    assert!(engine.stats().deadline_exceeded >= 3);
}

/// Graceful degradation: a failing multilevel partitioner falls back to
/// the flat scheme per request — the reply is labeled, never cached, and
/// full quality returns as soon as the fault clears.
#[test]
fn multilevel_failures_degrade_per_request_and_are_never_cached() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::parse("partition.multilevel:fail").unwrap());
    let mut engine = ServeEngine::new(quick_config());
    engine.set_fault_plan(Arc::clone(&plan));
    let g = generators::lattice(3, 3);

    let first = engine.compile(&g);
    assert!(first.degraded, "fallback must be labeled");
    assert!(first.result.is_ok(), "degraded is still a valid answer");
    // Degraded plans are never cached: the next request recompiles.
    let second = engine.compile(&g);
    assert_eq!(second.outcome, ServeOutcome::Compiled);
    assert!(second.degraded);
    assert!(engine.stats().degraded >= 2);

    // Fault clears → full-quality compile, which does get cached.
    plan.disarm();
    let healed = engine.compile(&g);
    assert_eq!(healed.outcome, ServeOutcome::Compiled);
    assert!(!healed.degraded);
    assert_eq!(engine.compile(&g).outcome, ServeOutcome::MemoryHit);
}

/// Quarantine: a store entry that fails its checksum twice is renamed to
/// `*.quarantine` and never served again — not in this lifetime, not
/// after a restart — while requests keep succeeding via recompiles.
#[test]
fn twice_corrupt_store_entries_are_quarantined_and_never_served() {
    quiet_injected_panics();
    let dir = temp_dir("quarantine");
    let g = generators::cycle(9);

    // Lifetime 1: persist the artifact cleanly.
    {
        let engine = ServeEngine::with_store(quick_config(), &dir).expect("open store");
        assert_eq!(engine.compile(&g).outcome, ServeOutcome::Compiled);
        assert_eq!(engine.batch().store().unwrap().stats().writes, 1);
    }

    // Lifetime 2: every disk read is bit-flipped. Two read strikes on the
    // same entry (with a clean rewrite in between) trigger quarantine.
    let plan = Arc::new(FaultPlan::parse("store.read:bitflip").unwrap());
    let mut engine = ServeEngine::with_store(quick_config(), &dir).expect("reopen store");
    engine.set_fault_plan(Arc::clone(&plan));

    // Strike 1: corrupt read → discard → recompile → rewrite.
    let reply = engine.compile(&g);
    assert_eq!(reply.outcome, ServeOutcome::Compiled, "corrupt read served");
    assert!(reply.result.is_ok());
    // Clear only the memory layer so the next request hits the disk again.
    assert_eq!(engine.batch().evict(&g), 1);
    // Strike 2: corrupt again → quarantined, then recompiled.
    let reply = engine.compile(&g);
    assert_eq!(reply.outcome, ServeOutcome::Compiled);
    assert!(reply.result.is_ok());
    let stats = engine.batch().store().unwrap().stats();
    assert_eq!(stats.quarantined, 1);
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".quarantine")),
        "quarantined file must exist on disk"
    );

    // Even fault-free, the quarantined name is never read or rewritten.
    plan.disarm();
    assert_eq!(engine.batch().evict(&g), 1);
    let reply = engine.compile(&g);
    assert_eq!(
        reply.outcome,
        ServeOutcome::Compiled,
        "a quarantined entry must never be served from disk"
    );

    // Lifetime 3: quarantine survives the restart.
    let engine = ServeEngine::with_store(quick_config(), &dir).expect("reopen after quarantine");
    assert_eq!(
        engine.compile(&g).outcome,
        ServeOutcome::Compiled,
        "quarantine must survive a daemon restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixed seeded fault plan whose counters are pinned below: panics,
/// slow compiles, bit flips and I/O errors on store reads and writes, and
/// multilevel failures, each at its own rate.
const CHAOS_SPEC: &str = "seed=0xbe9c;\
     serve.compile:panic@1/10;\
     batch.compile:slow(5)@1/6;\
     store.read:bitflip@1/6;\
     store.read:io@1/8;\
     store.write:io@1/8;\
     partition.multilevel:fail@1/3";

/// Chaos replay gate: the fault coin is a pure function of the plan seed
/// and each point's call count, so two sequential passes over the default
/// corpus plus five already-expired requests yield exactly these counters.
/// A change in how often a layer reaches a fault point, or in how the
/// engine handles a fault, moves them. No deadline is set on the passes,
/// so no counter depends on wall-clock time. The cache capacity decides
/// which requests reach the store's fault points, so the engine is built
/// with the default capacity.
#[test]
fn a_seeded_fault_plan_yields_the_pinned_counters() {
    quiet_injected_panics();
    let dir = temp_dir("pinned");
    let plan = Arc::new(FaultPlan::parse(CHAOS_SPEC).expect("chaos spec parses"));
    let mut batch = BatchCompiler::new(default_config());
    batch.attach_store(ArtifactStore::open(&dir).expect("open store"));
    let mut engine = ServeEngine::from_batch(batch);
    engine.set_fault_plan(Arc::clone(&plan));

    let jobs: Vec<_> = CorpusSpec::default_corpus()
        .instances()
        .into_iter()
        .map(|i| i.graph)
        .collect();
    let mut replies = Vec::new();
    for _ in 0..2 {
        replies.extend(jobs.iter().map(|g| engine.compile(g)));
    }
    replies.extend(
        jobs.iter()
            .take(5)
            .map(|g| engine.compile_with_deadline(g, Some(Duration::ZERO))),
    );

    let mut errors = BTreeMap::new();
    for reply in &replies {
        if let Err(e) = &reply.result {
            *errors.entry(e.kind.as_str()).or_insert(0usize) += 1;
        }
    }
    assert_eq!(
        errors,
        BTreeMap::from([("deadline_exceeded", 5), ("panic", 5)])
    );
    assert_eq!(replies.iter().filter(|r| r.degraded).count(), 35);
    let store = engine.batch().store().expect("store attached").stats();
    assert_eq!((store.read_retries, store.quarantined), (5, 0));
    let hits: Vec<(String, u64)> = [
        ("serve.compile:panic", 5),
        ("batch.compile:slow", 7),
        ("store.read:bitflip", 7),
        ("store.read:io", 5),
        ("store.write:io", 0),
        ("partition.multilevel:fail", 2815),
    ]
    .into_iter()
    .map(|(label, n)| (label.to_string(), n))
    .collect();
    assert_eq!(plan.hits(), hits);
    let _ = std::fs::remove_dir_all(&dir);
}
