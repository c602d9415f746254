//! Versioned serialization of [`Planned`] artifacts — the wire/disk format
//! behind the on-disk [`ArtifactStore`](crate::store::ArtifactStore).
//!
//! An artifact document is a JSON envelope around a payload object:
//!
//! ```text
//! {"format":"epgs-planned","version":2,
//!  "canonical":"<16-hex>","config":"<16-hex>","checksum":"<16-hex>",
//!  "payload":{target, ne_min, partition, plans}}
//! ```
//!
//! The payload carries everything [`Planned`] owns: the exact target graph
//! (so readers can confirm content-addressed lookups against the *exact*
//! labeling, exactly like the in-memory cache), the refined partition, and
//! every per-leaf plan including its compiled circuit. Round-trips are
//! **bit-identical**: `f64` fields travel as 16-digit hex renderings of
//! their IEEE bit patterns, never as decimal JSON numbers, so a decoded
//! artifact schedules/recombines to byte-identical circuits.
//!
//! The checksum is FNV-1a over the serialized payload bytes. A flipped bit
//! inside the payload either breaks the JSON grammar (parse error) or
//! changes the re-serialized bytes (checksum mismatch); both are reported
//! as [`ArtifactError`] and degrade to a recompile at the store layer,
//! mirroring the in-memory corruption guard.

use std::fmt;
use std::sync::Arc;

use epgs_circuit::{Circuit, Op, Qubit};
use epgs_corpus::json::{JsonError, Value, Writer};
use epgs_graph::canon::fnv1a_all;
use epgs_graph::Graph;
use epgs_partition::Partition;
use epgs_stabilizer::Pauli;

use crate::batch::CacheKey;
use crate::stages::planned::PlannedData;
use crate::stages::{Pipeline, Planned};
use crate::subgraph::SubgraphPlan;

/// Format tag every artifact document carries.
pub const FORMAT: &str = "epgs-planned";

/// Current artifact schema version. Readers reject any other version —
/// artifacts are cache entries, so "reject and recompile" is always sound.
/// Version 1 stored a `variants` array of circuits per leaf; version 2
/// stores each leaf's one circuit inline.
pub const VERSION: u64 = 2;

/// Why an artifact document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document parses but does not follow the artifact schema.
    Malformed(String),
    /// The document's schema version is not [`VERSION`].
    VersionMismatch {
        /// Version found in the document (`None` when absent/non-integer).
        found: Option<u64>,
    },
    /// The payload bytes do not match the recorded checksum.
    ChecksumMismatch,
    /// The envelope's cache key does not match the requested one.
    KeyMismatch,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            ArtifactError::VersionMismatch { found: Some(v) } => {
                write!(f, "artifact version {v} != supported {VERSION}")
            }
            ArtifactError::VersionMismatch { found: None } => {
                write!(f, "artifact has no readable version")
            }
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::KeyMismatch => write!(f, "artifact stored under a different key"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

/// FNV-1a over a byte string (the payload checksum; shared with the
/// store's manifest envelope).
pub(crate) fn checksum_bytes(bytes: &[u8]) -> u64 {
    fnv1a_all(bytes.iter().map(|&b| u64::from(b)))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_graph(w: &mut Writer, g: &Graph) {
    w.begin_obj();
    w.field_uint("n", g.vertex_count() as u64);
    w.key("edges");
    w.begin_arr();
    for (a, b) in g.edges() {
        w.begin_arr();
        w.uint(a as u64);
        w.uint(b as u64);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
}

fn write_usize_arr(w: &mut Writer, key: &str, xs: &[usize]) {
    w.key(key);
    w.begin_arr();
    for &x in xs {
        w.uint(x as u64);
    }
    w.end_arr();
}

/// `f64`s travel as bit patterns so round-trips are exact by construction.
fn write_f64_bits_arr(w: &mut Writer, key: &str, xs: &[f64]) {
    w.key(key);
    w.begin_arr();
    for &x in xs {
        w.hex(x.to_bits());
    }
    w.end_arr();
}

fn qubit_tag(q: Qubit) -> String {
    match q {
        Qubit::Emitter(i) => format!("e{i}"),
        Qubit::Photon(i) => format!("p{i}"),
    }
}

fn write_op(w: &mut Writer, op: &Op) {
    w.begin_arr();
    match op {
        Op::H(q) | Op::S(q) | Op::Sdg(q) | Op::X(q) | Op::Y(q) | Op::Z(q) => {
            let tag = match op {
                Op::H(_) => "H",
                Op::S(_) => "S",
                Op::Sdg(_) => "SD",
                Op::X(_) => "X",
                Op::Y(_) => "Y",
                _ => "Z",
            };
            w.string(tag);
            w.string(&qubit_tag(*q));
        }
        Op::Cz(a, b) => {
            w.string("CZ");
            w.uint(*a as u64);
            w.uint(*b as u64);
        }
        Op::Cnot(a, b) => {
            w.string("CX");
            w.uint(*a as u64);
            w.uint(*b as u64);
        }
        Op::Emit { emitter, photon } => {
            w.string("EM");
            w.uint(*emitter as u64);
            w.uint(*photon as u64);
        }
        Op::MeasureZ {
            emitter,
            corrections,
        } => {
            w.string("MZ");
            w.uint(*emitter as u64);
            w.begin_arr();
            for (q, p) in corrections {
                w.begin_arr();
                w.string(&qubit_tag(*q));
                w.string(match p {
                    Pauli::I => "I",
                    Pauli::X => "X",
                    Pauli::Y => "Y",
                    Pauli::Z => "Z",
                });
                w.end_arr();
            }
            w.end_arr();
        }
    }
    w.end_arr();
}

fn write_circuit(w: &mut Writer, c: &Circuit) {
    w.begin_obj();
    w.field_uint("emitters", c.num_emitters() as u64);
    w.field_uint("photons", c.num_photons() as u64);
    w.key("ops");
    w.begin_arr();
    for op in c.ops() {
        write_op(w, op);
    }
    w.end_arr();
    w.end_obj();
}

fn write_plan(w: &mut Writer, plan: &SubgraphPlan) {
    w.begin_obj();
    write_usize_arr(w, "vertices", &plan.vertices);
    w.field_uint("emitters", plan.solved.emitters as u64);
    w.key("circuit");
    write_circuit(w, &plan.solved.circuit);
    write_usize_arr(w, "ordering", &plan.solved.ordering);
    w.field_hex("duration", plan.duration.to_bits());
    w.field_uint("ee_cnots", plan.ee_cnots as u64);
    w.field_hex("t_loss", plan.t_loss.to_bits());
    write_f64_bits_arr(w, "emission_times", &plan.emission_times);
    write_f64_bits_arr(w, "usage_times", &plan.usage.0);
    write_usize_arr(w, "usage_counts", &plan.usage.1);
    w.end_obj();
}

/// Renders the payload object (everything under the envelope's `payload`).
fn encode_payload(planned: &Planned) -> String {
    let mut w = Writer::with_capacity(4096);
    w.begin_obj();
    w.key("target");
    write_graph(&mut w, planned.target());
    w.field_uint("ne_min", planned.ne_min() as u64);
    w.key("partition");
    {
        let p = planned.partition();
        w.begin_obj();
        write_usize_arr(&mut w, "block_of", &p.block_of);
        write_usize_arr(&mut w, "lc_sequence", &p.lc_sequence);
        w.field_uint("cut", p.cut as u64);
        w.key("transformed");
        write_graph(&mut w, &p.transformed);
        w.end_obj();
    }
    w.key("plans");
    w.begin_arr();
    for plan in planned.plans() {
        write_plan(&mut w, plan);
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Serializes `planned` into a complete artifact document stored under
/// `key`.
pub fn encode(planned: &Planned, key: CacheKey) -> String {
    let payload = encode_payload(planned);
    let mut w = Writer::with_capacity(payload.len() + 160);
    w.begin_obj();
    w.field_str("format", FORMAT);
    w.field_uint("version", VERSION);
    w.field_hex("canonical", key.canonical);
    w.field_hex("config", key.config);
    w.field_hex("checksum", checksum_bytes(payload.as_bytes()));
    w.field_raw("payload", &payload);
    w.end_obj();
    w.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn malformed(what: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed(what.into())
}

fn need_usize(v: &Value, what: &str) -> Result<usize, ArtifactError> {
    v.as_usize().ok_or_else(|| malformed(what.to_string()))
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, ArtifactError> {
    obj.get(key)
        .ok_or_else(|| malformed(format!("missing field '{key}'")))
}

fn hex_u64(v: &Value, what: &str) -> Result<u64, ArtifactError> {
    let s = v.as_str().ok_or_else(|| malformed(what.to_string()))?;
    if s.len() != 16 {
        return Err(malformed(format!("{what}: expected 16 hex digits")));
    }
    u64::from_str_radix(s, 16).map_err(|_| malformed(format!("{what}: bad hex")))
}

fn hex_f64(v: &Value, what: &str) -> Result<f64, ArtifactError> {
    hex_u64(v, what).map(f64::from_bits)
}

fn usize_arr(v: &Value, what: &str) -> Result<Vec<usize>, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| malformed(what.to_string()))?
        .iter()
        .map(|x| need_usize(x, what))
        .collect()
}

fn f64_bits_arr(v: &Value, what: &str) -> Result<Vec<f64>, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| malformed(what.to_string()))?
        .iter()
        .map(|x| hex_f64(x, what))
        .collect()
}

fn decode_graph(v: &Value) -> Result<Graph, ArtifactError> {
    let n = need_usize(field(v, "n")?, "graph n")?;
    let edges = field(v, "edges")?
        .as_arr()
        .ok_or_else(|| malformed("graph edges"))?
        .iter()
        .map(|e| {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let pair = pair.ok_or_else(|| malformed("graph edge"))?;
            Ok((
                need_usize(&pair[0], "edge endpoint")?,
                need_usize(&pair[1], "edge endpoint")?,
            ))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    Graph::from_edges(n, edges).map_err(|e| malformed(format!("graph: {e}")))
}

fn decode_qubit(v: &Value) -> Result<Qubit, ArtifactError> {
    let s = v.as_str().ok_or_else(|| malformed("qubit"))?;
    let idx: usize = s
        .get(1..)
        .and_then(|i| i.parse().ok())
        .ok_or_else(|| malformed(format!("qubit '{s}'")))?;
    match s.as_bytes().first() {
        Some(b'e') => Ok(Qubit::Emitter(idx)),
        Some(b'p') => Ok(Qubit::Photon(idx)),
        _ => Err(malformed(format!("qubit '{s}'"))),
    }
}

fn decode_op(v: &Value) -> Result<Op, ArtifactError> {
    let parts = v.as_arr().ok_or_else(|| malformed("op"))?;
    let tag = parts
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("op tag"))?;
    let arity = |n: usize| -> Result<(), ArtifactError> {
        if parts.len() == n + 1 {
            Ok(())
        } else {
            Err(malformed(format!("op {tag}: wrong arity")))
        }
    };
    match tag {
        "H" | "S" | "SD" | "X" | "Y" | "Z" => {
            arity(1)?;
            let q = decode_qubit(&parts[1])?;
            Ok(match tag {
                "H" => Op::H(q),
                "S" => Op::S(q),
                "SD" => Op::Sdg(q),
                "X" => Op::X(q),
                "Y" => Op::Y(q),
                _ => Op::Z(q),
            })
        }
        "CZ" | "CX" => {
            arity(2)?;
            let a = need_usize(&parts[1], "two-qubit emitter")?;
            let b = need_usize(&parts[2], "two-qubit emitter")?;
            Ok(if tag == "CZ" {
                Op::Cz(a, b)
            } else {
                Op::Cnot(a, b)
            })
        }
        "EM" => {
            arity(2)?;
            Ok(Op::Emit {
                emitter: need_usize(&parts[1], "emit emitter")?,
                photon: need_usize(&parts[2], "emit photon")?,
            })
        }
        "MZ" => {
            arity(2)?;
            let emitter = need_usize(&parts[1], "measure emitter")?;
            let corrections = parts[2]
                .as_arr()
                .ok_or_else(|| malformed("corrections"))?
                .iter()
                .map(|c| {
                    let pair = c.as_arr().filter(|p| p.len() == 2);
                    let pair = pair.ok_or_else(|| malformed("correction"))?;
                    let q = decode_qubit(&pair[0])?;
                    let p = match pair[1].as_str() {
                        Some("I") => Pauli::I,
                        Some("X") => Pauli::X,
                        Some("Y") => Pauli::Y,
                        Some("Z") => Pauli::Z,
                        _ => return Err(malformed("correction pauli")),
                    };
                    Ok((q, p))
                })
                .collect::<Result<Vec<_>, ArtifactError>>()?;
            Ok(Op::MeasureZ {
                emitter,
                corrections,
            })
        }
        other => Err(malformed(format!("unknown op tag '{other}'"))),
    }
}

fn decode_circuit(v: &Value) -> Result<Circuit, ArtifactError> {
    let mut c = Circuit::new(
        need_usize(field(v, "emitters")?, "circuit emitters")?,
        need_usize(field(v, "photons")?, "circuit photons")?,
    );
    for op in field(v, "ops")?
        .as_arr()
        .ok_or_else(|| malformed("circuit ops"))?
    {
        c.push(decode_op(op)?);
    }
    Ok(c)
}

fn decode_plan(v: &Value) -> Result<SubgraphPlan, ArtifactError> {
    let usage_times = f64_bits_arr(field(v, "usage_times")?, "usage_times")?;
    let usage_counts = usize_arr(field(v, "usage_counts")?, "usage_counts")?;
    Ok(SubgraphPlan {
        vertices: usize_arr(field(v, "vertices")?, "vertices")?,
        solved: epgs_solver::reverse::Solved {
            circuit: decode_circuit(field(v, "circuit")?)?,
            emitters: need_usize(field(v, "emitters")?, "plan emitters")?,
            ordering: usize_arr(field(v, "ordering")?, "ordering")?,
        },
        duration: hex_f64(field(v, "duration")?, "duration")?,
        ee_cnots: need_usize(field(v, "ee_cnots")?, "ee_cnots")?,
        t_loss: hex_f64(field(v, "t_loss")?, "t_loss")?,
        emission_times: f64_bits_arr(field(v, "emission_times")?, "emission_times")?,
        usage: (usage_times, usage_counts),
    })
}

fn decode_payload(
    payload: &Value,
) -> Result<(Graph, Partition, Vec<SubgraphPlan>, usize), ArtifactError> {
    let target = decode_graph(field(payload, "target")?)?;
    let ne_min = need_usize(field(payload, "ne_min")?, "ne_min")?;
    let p = field(payload, "partition")?;
    let partition = Partition {
        block_of: usize_arr(field(p, "block_of")?, "block_of")?,
        lc_sequence: usize_arr(field(p, "lc_sequence")?, "lc_sequence")?,
        transformed: decode_graph(field(p, "transformed")?)?,
        cut: need_usize(field(p, "cut")?, "cut")?,
        // Degraded plans are never persisted, so a decoded one is pristine
        // by construction and the codec needs no new field.
        degraded: false,
    };
    let plans = field(payload, "plans")?
        .as_arr()
        .ok_or_else(|| malformed("plans"))?
        .iter()
        .map(decode_plan)
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    Ok((target, partition, plans, ne_min))
}

/// Decodes an artifact document stored under `key` into a [`Planned`]
/// artifact bound to `pipeline`'s configuration and counters.
///
/// Adoption does **not** count as a plan-stage execution: the pipeline's
/// `plan` counter only moves for real [`plan_leaves`] runs, which is what
/// lets tests prove coalescing/cache behavior from stage counters.
///
/// [`plan_leaves`]: crate::Partitioned::plan_leaves
///
/// # Errors
///
/// Any structural problem — bad JSON, schema violations, wrong version,
/// checksum mismatch, or an envelope key differing from `key` — comes back
/// as an [`ArtifactError`]; callers are expected to discard the document
/// and recompile.
pub fn decode(text: &str, key: CacheKey, pipeline: &Pipeline) -> Result<Planned, ArtifactError> {
    let doc = Value::parse(text)?;
    if field(&doc, "format")?.as_str() != Some(FORMAT) {
        return Err(malformed("not an epgs-planned document"));
    }
    let version = doc.get("version").and_then(Value::as_u64);
    if version != Some(VERSION) {
        return Err(ArtifactError::VersionMismatch { found: version });
    }
    if hex_u64(field(&doc, "canonical")?, "canonical")? != key.canonical
        || hex_u64(field(&doc, "config")?, "config")? != key.config
    {
        return Err(ArtifactError::KeyMismatch);
    }
    let payload = field(&doc, "payload")?;
    // Writer output and a re-serialized parsed payload agree byte for byte
    // (integers ≤ 2^53 and hex strings only), so the checksum detects any
    // surviving in-payload mutation.
    if checksum_bytes(payload.to_string().as_bytes())
        != hex_u64(field(&doc, "checksum")?, "checksum")?
    {
        return Err(ArtifactError::ChecksumMismatch);
    }
    let (target, partition, plans, ne_min) = decode_payload(payload)?;
    Ok(Planned {
        shared: Arc::clone(&pipeline.shared),
        target: Arc::new(target),
        data: Arc::new(PlannedData {
            partition,
            plans,
            ne_min,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::config_fingerprint;
    use crate::config::quick_config;
    use epgs_graph::canon::canonical_hash;
    use epgs_graph::generators;

    fn quick_pipeline() -> Pipeline {
        Pipeline::new(quick_config())
    }

    fn key_for(pipeline: &Pipeline, g: &Graph) -> CacheKey {
        CacheKey {
            canonical: canonical_hash(g),
            config: config_fingerprint(pipeline.config()),
        }
    }

    fn assert_planned_bit_identical(a: &Planned, b: &Planned) {
        assert_eq!(a.target(), b.target());
        assert_eq!(a.ne_min(), b.ne_min());
        assert_eq!(a.partition(), b.partition());
        assert_eq!(a.plans().len(), b.plans().len());
        for (x, y) in a.plans().iter().zip(b.plans()) {
            assert_eq!(x.vertices, y.vertices);
            assert_eq!(x.solved.circuit, y.solved.circuit);
            assert_eq!(x.solved.emitters, y.solved.emitters);
            assert_eq!(x.solved.ordering, y.solved.ordering);
            assert_eq!(x.duration.to_bits(), y.duration.to_bits());
            assert_eq!(x.ee_cnots, y.ee_cnots);
            assert_eq!(x.t_loss.to_bits(), y.t_loss.to_bits());
            assert_eq!(
                x.emission_times
                    .iter()
                    .map(|t| t.to_bits())
                    .collect::<Vec<_>>(),
                y.emission_times
                    .iter()
                    .map(|t| t.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                x.usage.0.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                y.usage.0.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(x.usage.1, y.usage.1);
        }
    }

    #[test]
    fn round_trip_is_bit_identical_and_schedules_identically() {
        let pipeline = quick_pipeline();
        let g = generators::lattice(3, 4);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        let key = key_for(&pipeline, &g);
        let text = encode(&planned, key);
        let decoded = decode(&text, key, &pipeline).expect("decodes");
        assert_planned_bit_identical(&planned, &decoded);
        // The cheap suffix produces byte-identical circuits off both.
        let a = planned.schedule(2).recombine().unwrap().verify().unwrap();
        let b = decoded.schedule(2).recombine().unwrap().verify().unwrap();
        assert_eq!(a.circuit, b.circuit);
        // Adoption did not count as a plan run.
        assert_eq!(pipeline.counters().plan, 1);
    }

    #[test]
    fn version_and_key_mismatches_are_rejected() {
        let pipeline = quick_pipeline();
        let g = generators::cycle(7);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        let key = key_for(&pipeline, &g);
        let text = encode(&planned, key);

        let bumped = text.replace("\"version\":2", "\"version\":3");
        assert!(matches!(
            decode(&bumped, key, &pipeline),
            Err(ArtifactError::VersionMismatch { found: Some(3) })
        ));

        let other = CacheKey {
            canonical: key.canonical.wrapping_add(1),
            config: key.config,
        };
        assert!(matches!(
            decode(&text, other, &pipeline),
            Err(ArtifactError::KeyMismatch)
        ));
    }

    #[test]
    fn version_1_documents_with_variant_arrays_are_rejected() {
        // A path-3 artifact written by the version-1 codec: each plan holds
        // a `variants` array (the base circuit plus one flexible copy).
        let v1 = include_str!("../tests/data/planned_v1.json");
        assert!(v1.contains("\"variants\":["));
        let pipeline = quick_pipeline();
        let key = key_for(&pipeline, &generators::path(3));
        assert_eq!(
            decode(v1, key, &pipeline).unwrap_err(),
            ArtifactError::VersionMismatch { found: Some(1) }
        );
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum_or_grammar() {
        let pipeline = quick_pipeline();
        let g = generators::tree(9, 2);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        let key = key_for(&pipeline, &g);
        let text = encode(&planned, key);

        // Truncation breaks the grammar.
        assert!(matches!(
            decode(&text[..text.len() / 2], key, &pipeline),
            Err(ArtifactError::Json(_))
        ));

        // Flip one in-payload hex digit: grammar intact, checksum broken.
        let pos = text.find("\"duration\":\"").expect("duration field") + 12;
        let mut bytes = text.clone().into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            decode(&flipped, key, &pipeline),
            Err(ArtifactError::ChecksumMismatch)
        ));
    }

    #[test]
    fn error_rendering_is_informative() {
        assert!(ArtifactError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(ArtifactError::VersionMismatch { found: Some(9) }
            .to_string()
            .contains("9"));
        assert!(decode(
            "{}",
            CacheKey {
                canonical: 0,
                config: 0
            },
            &quick_pipeline()
        )
        .unwrap_err()
        .to_string()
        .contains("format"));
    }
}
