//! Engine-level service guarantees: request coalescing and restart
//! durability.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use epgs::{FrameworkConfig, PartitionSpec};
use epgs_circuit::qasm;
use epgs_graph::{generators, Graph};
use epgs_serve::{default_config, ServeEngine, ServeOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// One small instance per generator family of the default corpus.
fn family_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "random_regular",
            generators::random_regular(14, 3, &mut StdRng::seed_from_u64(1)),
        ),
        ("hypercube", generators::hypercube(3)),
        ("heavy_hex", generators::heavy_hex(1, 2)),
        (
            "barabasi_albert",
            generators::barabasi_albert(14, 2, &mut StdRng::seed_from_u64(2)),
        ),
        (
            "watts_strogatz",
            generators::watts_strogatz(14, 4, 0.1, &mut StdRng::seed_from_u64(3)),
        ),
    ]
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_compilation() {
    // The corpus-effort config keeps the leader busy long enough for the
    // waiters to attach; the assertions below do not depend on timing.
    let engine = Arc::new(ServeEngine::new(default_config()));
    let g = generators::lattice(4, 6);

    let leader = {
        let engine = Arc::clone(&engine);
        let g = g.clone();
        thread::spawn(move || engine.compile(&g))
    };
    // Wait until the leader has registered its in-flight slot.
    for _ in 0..10_000 {
        if engine.inflight_len() > 0 || engine.stats().requests > 0 {
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
    let waiter_replies: Vec<_> = waiters
        .into_iter()
        .map(|t| t.join().expect("waiter thread"))
        .collect();

    // Exactly one compilation ran — the stage counter is the proof.
    assert_eq!(engine.batch().pipeline().counters().plan, 1);
    assert_eq!(lead_reply.outcome, ServeOutcome::Compiled);
    let stats = engine.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.compiled, 1);
    assert_eq!(stats.coalesced + stats.memory_hits, 3);
    assert!(
        stats.coalesced >= 1,
        "at least one waiter attached to the in-flight compile"
    );
    // Every request got the same circuit.
    let reference = &lead_reply.result.as_ref().expect("leader compiled").circuit;
    for reply in &waiter_replies {
        assert_eq!(
            &reply.result.as_ref().expect("waiter shared result").circuit,
            reference
        );
    }
}

#[test]
fn degenerate_graphs_resolve_and_never_wedge_the_inflight_table() {
    // Whatever an edge-case target produces (the empty graph compiles to
    // an empty circuit), the request must resolve, unregister its
    // in-flight slot, and leave the engine serving.
    let engine = ServeEngine::new(quick_config());
    let reply = engine.compile(&Graph::new(0));
    assert_eq!(engine.inflight_len(), 0);
    assert_eq!(engine.stats().requests, 1);
    drop(reply);
    assert!(engine.compile(&generators::path(5)).result.is_ok());
    assert_eq!(engine.inflight_len(), 0);
}

#[test]
fn restart_serves_the_corpus_from_disk_with_byte_identical_qasm() {
    let dir = std::env::temp_dir().join(format!("epgs-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = family_zoo();

    // First service lifetime: everything compiles fresh and persists.
    let mut first_qasm = Vec::new();
    {
        let engine = ServeEngine::with_store(quick_config(), &dir).expect("open store");
        for (family, g) in &zoo {
            let reply = engine.compile(g);
            assert_eq!(reply.outcome, ServeOutcome::Compiled, "{family}");
            let compiled = reply.result.expect("compiles");
            first_qasm.push(qasm::to_qasm(&compiled.circuit));
        }
        assert_eq!(engine.batch().store().unwrap().stats().writes, zoo.len());
    }

    // "Restart": a fresh engine on the same directory. ≥90% of the corpus
    // must come off disk (here: all of it), with byte-identical output.
    let engine = ServeEngine::with_store(quick_config(), &dir).expect("reopen store");
    let mut disk_hits = 0usize;
    for ((family, g), expected) in zoo.iter().zip(&first_qasm) {
        let reply = engine.compile(g);
        disk_hits += usize::from(reply.outcome == ServeOutcome::DiskHit);
        let compiled = reply.result.expect("compiles after restart");
        assert_eq!(
            &qasm::to_qasm(&compiled.circuit),
            expected,
            "{family}: restart changed the emitted QASM"
        );
    }
    assert!(
        disk_hits * 10 >= zoo.len() * 9,
        "restart hit rate {disk_hits}/{} below 90%",
        zoo.len()
    );
    // Disk adoption skipped the expensive stages entirely.
    assert_eq!(engine.batch().pipeline().counters().plan, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evict_clears_both_layers_and_forces_a_recompile() {
    let dir = std::env::temp_dir().join(format!("epgs-serve-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ServeEngine::with_store(quick_config(), &dir).expect("open store");
    let g = generators::cycle(8);
    assert_eq!(engine.compile(&g).outcome, ServeOutcome::Compiled);
    assert_eq!(engine.compile(&g).outcome, ServeOutcome::MemoryHit);
    // Memory entry + disk artifact.
    assert_eq!(engine.evict(&g), 2);
    assert_eq!(engine.compile(&g).outcome, ServeOutcome::Compiled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_memory_hit_is_a_lookup_of_the_verified_result() {
    let engine = ServeEngine::new(quick_config());
    let g = generators::lattice(3, 3);
    let first = engine.compile(&g);
    assert_eq!(first.outcome, ServeOutcome::Compiled);
    let before = engine.batch().pipeline().counters();
    let second = engine.compile(&g);
    assert_eq!(second.outcome, ServeOutcome::MemoryHit);
    // The hit hands out the very result the compile verified …
    assert!(Arc::ptr_eq(
        first.result.as_ref().expect("compiled"),
        second.result.as_ref().expect("hit"),
    ));
    // … and runs no pipeline stage to produce it.
    let after = engine.batch().pipeline().counters();
    assert_eq!(
        (after.schedule, after.recombine, after.verify),
        (before.schedule, before.recombine, before.verify)
    );
    assert_eq!((after.schedule, after.verify), (1, 1));
}
