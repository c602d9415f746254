//! Deterministic fault injection and request-scoped fault-tolerance
//! primitives.
//!
//! A [`FaultPlan`] is a seeded set of rules armed at *named fault points*
//! threaded through the service stack — [`ArtifactStore`](crate::ArtifactStore)
//! reads/writes, [`BatchCompiler`](crate::BatchCompiler) compiles, the
//! multilevel partitioner, and `ServeEngine::compile` in the serve crate.
//! When no plan is armed every probe is a `None`-returning no-op; when one
//! is armed, whether the *n*-th invocation of a point fires is a pure
//! function of `(seed, rule, point, n)`, so a chaos run replays exactly
//! under a fixed seed and thread count.
//!
//! The related DAC line of work configures algorithm behavior per instance
//! and per phase at runtime; these hooks are the same shape — a runtime
//! policy consulted at named points — aimed at fault tolerance.
//!
//! # Plan grammar
//!
//! [`FaultPlan::parse`] accepts the `EPGS_FAULT_PLAN` environment format:
//!
//! ```text
//! plan    := [ "seed=" u64 ] ( ";" rule )*
//! rule    := point ":" kind [ trigger ] [ "x" limit ]
//! kind    := "io" | "bitflip" | "slow(" millis ")" | "panic" | "fail" | "crash"
//! trigger := "@" num "/" den        fire when hash(seed,rule,point,n) % den < num
//!          | "#" n                  fire exactly on the n-th invocation (0-based)
//!          (absent)                 fire on every invocation
//! ```
//!
//! Example: `seed=42;store.read:io@1/8;batch.compile:panic#0;store.write:slow(20)@1/4x3`
//!
//! # Examples
//!
//! ```
//! use epgs::faults::{FaultKind, FaultPlan, POINT_STORE_READ};
//!
//! let plan = FaultPlan::parse("seed=7;store.read:io#1").unwrap();
//! assert_eq!(plan.at(POINT_STORE_READ), None); // invocation 0
//! assert_eq!(plan.at(POINT_STORE_READ), Some(FaultKind::IoError)); // 1
//! assert_eq!(plan.at(POINT_STORE_READ), None); // 2
//! assert_eq!(plan.total_hits(), 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fault point: every [`crate::ArtifactStore`] load attempt.
pub const POINT_STORE_READ: &str = "store.read";
/// Fault point: every [`crate::ArtifactStore`] save attempt.
pub const POINT_STORE_WRITE: &str = "store.write";
/// Crash boundary: after the store writes an artifact's temp file but
/// before the rename into place (a crash here leaves an orphan temp).
pub const POINT_STORE_WRITE_TMP: &str = "store.write.tmp";
/// Crash boundary: after the store renames an artifact into place but
/// before the manifest commit (a crash here leaves an untracked orphan
/// artifact for `fsck` to re-index).
pub const POINT_STORE_WRITE_RENAME: &str = "store.write.rename";
/// Crash boundary: after the store unlinks an evicted artifact but before
/// the manifest commit (a crash here leaves a stale manifest entry).
pub const POINT_STORE_EVICT: &str = "store.evict";
/// Crash boundary: after the store renames a corrupt artifact to its
/// `.quarantine` name but before the manifest commit.
pub const POINT_STORE_QUARANTINE: &str = "store.quarantine";
/// Crash boundary: after the store writes a manifest generation's temp
/// file but before the rename that commits it.
pub const POINT_STORE_MANIFEST: &str = "store.manifest";
/// Fault point: entry of every [`crate::BatchCompiler`] instance compile.
pub const POINT_COMPILE: &str = "batch.compile";
/// Fault point: entry of every serve-engine leader compile.
pub const POINT_SERVE: &str = "serve.compile";
/// Fault point: every multilevel-partitioner call inside the LC beam
/// search (fires the flat-scheme fallback ladder).
pub const POINT_MULTILEVEL: &str = "partition.multilevel";

/// What an armed fault point does when it fires. Call sites apply the
/// kinds they understand and ignore the rest (e.g. a compile point has no
/// bytes to bit-flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the I/O attempt (store read/write) or the operation (compile).
    IoError,
    /// Corrupt the payload in transit (store read/write), forcing the
    /// checksum path.
    BitFlip,
    /// Sleep this many milliseconds before proceeding — forced slow
    /// compiles and slow disks.
    Slow(u64),
    /// Panic at the point (exercises `catch_unwind` isolation).
    Panic,
    /// Fail the operation cleanly (multilevel fallback, compile error).
    Fail,
    /// Abort the process at the probe (`std::process::abort`), simulating
    /// power loss at a byte-persistence boundary. Unlike every other kind,
    /// `crash` is applied by [`FaultPlan::at`] itself, so any armed point
    /// — including the crash-only `store.*` boundaries — honors it.
    Crash,
}

impl FaultKind {
    /// Stable spelling used by the plan grammar and hit reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Slow(_) => "slow",
            FaultKind::Panic => "panic",
            FaultKind::Fail => "fail",
            FaultKind::Crash => "crash",
        }
    }
}

/// When a rule fires, as a function of the point's invocation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every invocation.
    Always,
    /// Fire exactly on the n-th invocation of the point (0-based).
    Nth(u64),
    /// Fire when `hash(seed, rule, point, n) % den < num` — a deterministic
    /// `num/den` rate.
    Ratio {
        /// Numerator of the firing rate.
        num: u64,
        /// Denominator of the firing rate (clamped to ≥ 1).
        den: u64,
    },
}

/// One armed rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The named fault point this rule arms.
    pub point: String,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
    /// Maximum number of fires (`u64::MAX` = unlimited).
    pub limit: u64,
}

/// A malformed [`FaultPlan`] clause: which clause failed and why.
///
/// [`FaultPlan::parse`] never panics on malformed input — bad fractions,
/// unknown kinds, and overflowing counts all surface here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Zero-based index of the offending `;`-separated clause.
    pub clause: usize,
    /// What was wrong with it.
    pub kind: PlanErrorKind,
}

/// The ways a [`FaultPlan`] clause can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanErrorKind {
    /// `seed=` value is not a decimal or `0x`-hex `u64`.
    BadSeed(String),
    /// Clause has no `point:kind` separator.
    MissingKind(String),
    /// `x` limit suffix is not a `u64` (overflow included).
    BadLimit(String),
    /// `@` trigger is not a `num/den` fraction with `den > 0`.
    BadFraction(String),
    /// `#` invocation index is not a `u64`.
    BadIndex(String),
    /// Fault kind word is not in the grammar.
    UnknownKind(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.clause;
        match &self.kind {
            PlanErrorKind::BadSeed(s) => write!(f, "clause {c}: bad seed '{s}'"),
            PlanErrorKind::MissingKind(s) => {
                write!(f, "clause {c}: expected 'point:kind', got '{s}'")
            }
            PlanErrorKind::BadLimit(s) => write!(f, "clause {c}: bad limit in '{s}'"),
            PlanErrorKind::BadFraction(s) => {
                write!(
                    f,
                    "clause {c}: trigger needs 'num/den' with den > 0 in '{s}'"
                )
            }
            PlanErrorKind::BadIndex(s) => {
                write!(f, "clause {c}: bad invocation index in '{s}'")
            }
            PlanErrorKind::UnknownKind(s) => {
                write!(f, "clause {c}: unknown fault kind '{s}'")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A seeded, deterministic fault-injection plan. See the [module
/// docs](self) for the grammar and the guarantees.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    fired: Vec<AtomicU64>,
    calls: Mutex<HashMap<String, u64>>,
    armed: AtomicBool,
}

/// FNV-1a over a word stream — the deterministic per-invocation coin.
fn mix(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl FaultPlan {
    /// An empty plan with the given seed; add rules with [`FaultPlan::rule`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            fired: Vec::new(),
            calls: Mutex::new(HashMap::new()),
            armed: AtomicBool::new(true),
        }
    }

    /// Adds an unlimited rule (builder style).
    pub fn rule(self, point: &str, kind: FaultKind, trigger: Trigger) -> Self {
        self.rule_limited(point, kind, trigger, u64::MAX)
    }

    /// Adds a rule that fires at most `limit` times (builder style).
    pub fn rule_limited(
        mut self,
        point: &str,
        kind: FaultKind,
        trigger: Trigger,
        limit: u64,
    ) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            kind,
            trigger,
            limit,
        });
        self.fired.push(AtomicU64::new(0));
        self
    }

    /// Parses the `EPGS_FAULT_PLAN` grammar (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// A structured [`PlanError`] naming the first malformed clause;
    /// malformed input never panics.
    pub fn parse(spec: &str) -> Result<Self, PlanError> {
        let mut plan = FaultPlan::new(0);
        for (i, clause) in spec.split(';').enumerate() {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let err = |kind: PlanErrorKind| PlanError { clause: i, kind };
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = parse_u64(seed.trim())
                    .ok_or_else(|| err(PlanErrorKind::BadSeed(seed.trim().to_string())))?;
                continue;
            }
            let (point, rest) = clause
                .split_once(':')
                .ok_or_else(|| err(PlanErrorKind::MissingKind(clause.to_string())))?;
            // Split off trailing limit ("x3") and trigger ("@1/8" or "#2").
            let (rest, limit) = match rest.rfind('x') {
                Some(p)
                    if rest[p + 1..].chars().all(|c| c.is_ascii_digit())
                        && !rest[p + 1..].is_empty() =>
                {
                    let limit = parse_u64(&rest[p + 1..])
                        .ok_or_else(|| err(PlanErrorKind::BadLimit(clause.to_string())))?;
                    (&rest[..p], limit)
                }
                _ => (rest, u64::MAX),
            };
            let (kind_text, trigger) = if let Some((k, t)) = rest.split_once('@') {
                let (num, den) = t
                    .split_once('/')
                    .ok_or_else(|| err(PlanErrorKind::BadFraction(clause.to_string())))?;
                let num = parse_u64(num)
                    .ok_or_else(|| err(PlanErrorKind::BadFraction(clause.to_string())))?;
                let den = parse_u64(den)
                    .filter(|&d| d > 0)
                    .ok_or_else(|| err(PlanErrorKind::BadFraction(clause.to_string())))?;
                (k, Trigger::Ratio { num, den })
            } else if let Some((k, n)) = rest.split_once('#') {
                let n =
                    parse_u64(n).ok_or_else(|| err(PlanErrorKind::BadIndex(clause.to_string())))?;
                (k, Trigger::Nth(n))
            } else {
                (rest, Trigger::Always)
            };
            let kind = match kind_text.trim() {
                "io" => FaultKind::IoError,
                "bitflip" => FaultKind::BitFlip,
                "panic" => FaultKind::Panic,
                "fail" => FaultKind::Fail,
                "crash" => FaultKind::Crash,
                other => match other
                    .strip_prefix("slow(")
                    .and_then(|r| r.strip_suffix(')'))
                    .and_then(parse_u64)
                {
                    Some(ms) => FaultKind::Slow(ms),
                    None => return Err(err(PlanErrorKind::UnknownKind(other.to_string()))),
                },
            };
            plan = plan.rule_limited(point.trim(), kind, trigger, limit);
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probes a fault point: counts the invocation, then returns the kind
    /// of the first armed rule that fires for it (or `None`). Disarmed
    /// plans never fire but still do not count invocations.
    ///
    /// A fired [`FaultKind::Crash`] rule aborts the process here, at the
    /// probe itself — simulated power loss. No call site ever observes
    /// `Some(Crash)`, so crash-only boundary points can discard the value.
    pub fn at(&self, point: &str) -> Option<FaultKind> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let n = {
            let mut calls = lock_recover(&self.calls);
            let c = calls.entry(point.to_string()).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.point != point {
                continue;
            }
            let fires = match rule.trigger {
                Trigger::Always => true,
                Trigger::Nth(k) => n == k,
                Trigger::Ratio { num, den } => {
                    mix([self.seed, i as u64, mix(point.bytes().map(u64::from)), n]) % den < num
                }
            };
            if fires && self.fired[i].fetch_add(1, Ordering::Relaxed) < rule.limit {
                if rule.kind == FaultKind::Crash {
                    std::process::abort();
                }
                return Some(rule.kind);
            }
        }
        None
    }

    /// Deterministically flips one payload byte — the `bitflip` kind's
    /// effect, applied by the store to artifact text in transit. The
    /// position derives from the plan seed and the text length; the flip
    /// swaps an ASCII digit so the payload stays valid UTF-8 (and valid
    /// JSON *grammar*, defeating only the checksum).
    pub fn corrupt_text(&self, text: &mut String) {
        if text.is_empty() {
            return;
        }
        let mut bytes = std::mem::take(text).into_bytes();
        let start = (mix([self.seed, 0xb17f_11b0, bytes.len() as u64]) as usize) % bytes.len();
        // Find a digit at or after the seeded position (wrapping) so the
        // flip lands inside a value, not on structural punctuation.
        let pos = (0..bytes.len())
            .map(|o| (start + o) % bytes.len())
            .find(|&p| bytes[p].is_ascii_digit())
            .unwrap_or(start);
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        *text = String::from_utf8(bytes).expect("ascii-for-ascii swap keeps UTF-8");
    }

    /// Permanently disarms the plan: every later [`FaultPlan::at`] probe
    /// returns `None`. Chaos harnesses disarm to run fault-free epilogues
    /// on the same engine.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Per-rule hit counts, labeled `point:kind`, in rule order.
    pub fn hits(&self) -> Vec<(String, u64)> {
        self.rules
            .iter()
            .zip(&self.fired)
            .map(|(rule, fired)| {
                (
                    format!("{}:{}", rule.point, rule.kind.name()),
                    fired.load(Ordering::Relaxed).min(rule.limit),
                )
            })
            .collect()
    }

    /// Total fires across every rule.
    pub fn total_hits(&self) -> u64 {
        self.hits().iter().map(|(_, n)| n).sum()
    }
}

/// Renders the plan back in the [grammar](self) it was parsed from:
/// `seed=N;point:kind[@num/den|#n][xL]`. `FaultPlan::parse(&plan.to_string())`
/// reconstructs the same seed and rules (counters start fresh).
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ";{}:", rule.point)?;
            match rule.kind {
                FaultKind::Slow(ms) => write!(f, "slow({ms})")?,
                kind => write!(f, "{}", kind.name())?,
            }
            match rule.trigger {
                Trigger::Always => {}
                Trigger::Nth(n) => write!(f, "#{n}")?,
                Trigger::Ratio { num, den } => write!(f, "@{num}/{den}")?,
            }
            if rule.limit != u64::MAX {
                write!(f, "x{}", rule.limit)?;
            }
        }
        Ok(())
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Per-request compile context: the cooperative cancellation token checked
/// between pipeline stages (and inside the partition search, which degrades
/// instead of failing — see `ARCHITECTURE.md`, "Failure model").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCtx {
    /// Absolute deadline; `None` = unbounded.
    pub deadline: Option<Instant>,
}

impl RequestCtx {
    /// A context whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        RequestCtx {
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// panicking. Every service-path lock in the stack goes through this: a
/// panicked peer thread must degrade its own request, not abort the
/// daemon. The protected data are caches and counters, which tolerate a
/// torn update (worst case: a stale LRU clock or an off-by-one stat).
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Best-effort rendering of a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_point_never_fires() {
        let plan = FaultPlan::new(1).rule(POINT_STORE_WRITE, FaultKind::IoError, Trigger::Always);
        for _ in 0..100 {
            assert_eq!(plan.at(POINT_STORE_READ), None);
        }
        assert_eq!(plan.total_hits(), 0);
    }

    #[test]
    fn ratio_firing_is_deterministic_and_roughly_proportional() {
        let run = |seed| {
            let plan = FaultPlan::new(seed).rule(
                POINT_COMPILE,
                FaultKind::Fail,
                Trigger::Ratio { num: 1, den: 4 },
            );
            (0..400)
                .map(|_| plan.at(POINT_COMPILE).is_some())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay exactly");
        assert_ne!(a, run(8), "different seeds must differ");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((50..150).contains(&fires), "1/4 rate fired {fires}/400");
    }

    #[test]
    fn nth_limit_and_disarm() {
        let plan = FaultPlan::new(3)
            .rule(POINT_SERVE, FaultKind::Panic, Trigger::Nth(2))
            .rule_limited(POINT_MULTILEVEL, FaultKind::Fail, Trigger::Always, 2);
        assert_eq!(plan.at(POINT_SERVE), None);
        assert_eq!(plan.at(POINT_SERVE), None);
        assert_eq!(plan.at(POINT_SERVE), Some(FaultKind::Panic));
        assert_eq!(plan.at(POINT_SERVE), None);
        assert_eq!(plan.at(POINT_MULTILEVEL), Some(FaultKind::Fail));
        assert_eq!(plan.at(POINT_MULTILEVEL), Some(FaultKind::Fail));
        assert_eq!(plan.at(POINT_MULTILEVEL), None, "limit x2 exhausted");
        plan.disarm();
        assert_eq!(plan.at(POINT_SERVE), None);
        assert_eq!(plan.total_hits(), 3);
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan = FaultPlan::parse(
            "seed=0x2a;store.read:io@1/8;batch.compile:panic#0;store.write:slow(20)@1/4x3",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].trigger, Trigger::Ratio { num: 1, den: 8 });
        assert_eq!(plan.rules[1].trigger, Trigger::Nth(0));
        assert_eq!(plan.rules[1].kind, FaultKind::Panic);
        assert_eq!(plan.rules[2].kind, FaultKind::Slow(20));
        assert_eq!(plan.rules[2].limit, 3);
        assert_eq!(plan.at(POINT_COMPILE), Some(FaultKind::Panic));
        assert_eq!(plan.at(POINT_COMPILE), None);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "store.read",
            "store.read:warp",
            "store.read:io@1",
            "store.read:io@0/0",
            "seed=zz",
            "store.read:slow(ms)",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must not parse");
        }
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
    }

    #[test]
    fn parse_errors_are_structured() {
        let kind = |spec: &str| FaultPlan::parse(spec).unwrap_err().kind;
        assert!(matches!(kind("seed=zz"), PlanErrorKind::BadSeed(_)));
        assert!(matches!(kind("store.read"), PlanErrorKind::MissingKind(_)));
        assert!(matches!(kind("a:io@1"), PlanErrorKind::BadFraction(_)));
        assert!(matches!(kind("a:io@1/0"), PlanErrorKind::BadFraction(_)));
        assert!(matches!(kind("a:io#b"), PlanErrorKind::BadIndex(_)));
        assert!(matches!(kind("a:warp"), PlanErrorKind::UnknownKind(_)));
        // Overflowing counts are rejected, not wrapped or panicked on.
        let big = "99999999999999999999";
        assert!(matches!(
            kind(&format!("seed={big}")),
            PlanErrorKind::BadSeed(_)
        ));
        assert!(matches!(
            kind(&format!("a:io#{big}")),
            PlanErrorKind::BadIndex(_)
        ));
        assert!(matches!(
            kind(&format!("a:io@{big}/2")),
            PlanErrorKind::BadFraction(_)
        ));
        assert!(matches!(
            kind(&format!("a:iox{big}")),
            PlanErrorKind::BadLimit(_)
        ));
        let err = FaultPlan::parse("seed=1;ok:io;bad").unwrap_err();
        assert_eq!(err.clause, 2, "error names the offending clause");
        assert!(err.to_string().contains("clause 2"));
    }

    /// Deterministic pseudo-random generator for the property suites below
    /// (the repo vendors no proptest; `mix` is the same FNV coin the plan
    /// itself uses).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = mix([self.0, 0x9e37_79b9]);
            self.0 % bound.max(1)
        }
    }

    #[test]
    fn property_display_parse_round_trip() {
        let points = ["store.read", "store.write.rename", "batch.compile", "p.q"];
        let mut g = Gen(0x5eed);
        for case in 0..200u64 {
            let mut plan = FaultPlan::new(g.next(u64::MAX));
            for _ in 0..g.next(5) {
                let kind = match g.next(6) {
                    0 => FaultKind::IoError,
                    1 => FaultKind::BitFlip,
                    2 => FaultKind::Slow(g.next(1000)),
                    3 => FaultKind::Panic,
                    4 => FaultKind::Fail,
                    _ => FaultKind::Crash,
                };
                let trigger = match g.next(3) {
                    0 => Trigger::Always,
                    1 => Trigger::Nth(g.next(100)),
                    _ => Trigger::Ratio {
                        num: g.next(16),
                        den: 1 + g.next(16),
                    },
                };
                let limit = if g.next(2) == 0 { u64::MAX } else { g.next(50) };
                plan = plan.rule_limited(points[g.next(4) as usize], kind, trigger, limit);
            }
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered)
                .unwrap_or_else(|e| panic!("case {case}: '{rendered}' failed: {e}"));
            assert_eq!(reparsed.seed, plan.seed, "case {case}: '{rendered}'");
            assert_eq!(reparsed.rules, plan.rules, "case {case}: '{rendered}'");
            assert_eq!(reparsed.to_string(), rendered, "case {case}");
        }
    }

    #[test]
    fn property_parse_never_panics_on_fuzzed_input() {
        // Mutated grammar fragments plus raw byte soup: parse must return
        // Ok or a structured PlanError, never panic or abort.
        let alphabet: Vec<char> = "abz019:;@#/x().=seed slow crash io-\u{e9}\u{1f600}"
            .chars()
            .collect();
        let mut g = Gen(0xfa57);
        for _ in 0..2000 {
            let len = g.next(40) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[g.next(alphabet.len() as u64) as usize])
                .collect();
            match FaultPlan::parse(&s) {
                Ok(plan) => drop(plan.to_string()),
                Err(e) => assert!(e.to_string().contains("clause")),
            }
        }
    }

    #[test]
    fn corrupt_text_flips_exactly_one_digit() {
        let plan = FaultPlan::new(9);
        let original = "{\"version\":1,\"hash\":\"00ff12\"}".to_string();
        let mut text = original.clone();
        plan.corrupt_text(&mut text);
        assert_eq!(text.len(), original.len());
        let diffs = original
            .bytes()
            .zip(text.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        let mut again = original.clone();
        plan.corrupt_text(&mut again);
        assert_eq!(text, again, "corruption is deterministic");
    }

    #[test]
    fn request_ctx_deadline() {
        assert!(!RequestCtx::default().expired());
        assert!(!RequestCtx::with_timeout(Duration::from_secs(60)).expired());
        let past = RequestCtx {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        assert!(past.expired());
    }
}
