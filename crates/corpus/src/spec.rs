//! Corpus specifications: parameterized instance grids over the generator
//! zoo, serializable to and from JSON.

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs_graph::{generators, Graph, MAX_VERTICES};
use epgs_hardware::HardwareModel;

use crate::json::{JsonError, Value};

/// One generator family with its fixed (non-grid) parameters.
///
/// The grid axes — instance size and RNG seed — live in [`FamilySpec`];
/// everything here is held constant across a family's instances.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyKind {
    /// Random `degree`-regular graphs; size is the vertex count.
    RandomRegular {
        /// Uniform vertex degree.
        degree: usize,
    },
    /// Hypercube graphs Q_d; size is the dimension `d`.
    Hypercube,
    /// Heavy-hex lattices with `rows` rows of cells; size is the column
    /// count.
    HeavyHex {
        /// Rows of hexagonal cells.
        rows: usize,
    },
    /// Barabási–Albert preferential attachment; size is the vertex count.
    BarabasiAlbert {
        /// Edges attached per new vertex.
        attach: usize,
    },
    /// Watts–Strogatz small-world rings; size is the vertex count.
    WattsStrogatz {
        /// Ring-lattice neighbor count `k` (even).
        neighbors: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// 2D lattices with `rows` rows; size is the column count.
    Lattice {
        /// Lattice rows.
        rows: usize,
    },
    /// Complete `arity`-ary trees; size is the vertex count.
    Tree {
        /// Branching factor.
        arity: usize,
    },
    /// Erdős–Rényi G(n, p); size is the vertex count.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
    /// Waxman random geometric graphs; size is the vertex count.
    Waxman {
        /// Waxman α (edge-probability scale).
        alpha: f64,
        /// Waxman β (distance decay).
        beta: f64,
    },
}

impl FamilyKind {
    /// The family's wire name (used in JSON and instance ids).
    pub fn name(&self) -> &'static str {
        match self {
            FamilyKind::RandomRegular { .. } => "random_regular",
            FamilyKind::Hypercube => "hypercube",
            FamilyKind::HeavyHex { .. } => "heavy_hex",
            FamilyKind::BarabasiAlbert { .. } => "barabasi_albert",
            FamilyKind::WattsStrogatz { .. } => "watts_strogatz",
            FamilyKind::Lattice { .. } => "lattice",
            FamilyKind::Tree { .. } => "tree",
            FamilyKind::ErdosRenyi { .. } => "erdos_renyi",
            FamilyKind::Waxman { .. } => "waxman",
        }
    }

    /// Whether instances draw randomness (and the seed grid therefore
    /// multiplies the instance count).
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            FamilyKind::RandomRegular { .. }
                | FamilyKind::BarabasiAlbert { .. }
                | FamilyKind::WattsStrogatz { .. }
                | FamilyKind::ErdosRenyi { .. }
                | FamilyKind::Waxman { .. }
        )
    }

    /// The vertex count of the family's instance at grid entry `size`, or
    /// `None` when it overflows `usize`. [`CorpusSpec::from_json`] rejects
    /// any grid entry above [`MAX_VERTICES`] with a structured
    /// [`SpecError::SizeTooLarge`].
    fn vertex_count(&self, size: usize) -> Option<usize> {
        match *self {
            FamilyKind::Hypercube => 1usize.checked_shl(u32::try_from(size).ok()?),
            // (rows + 1) × (2·cols + 1) grid vertices plus one flag per
            // lattice edge: (rows + 1) × 2·cols horizontal edges and
            // rows × cols + ⌈rows / 2⌉ vertical ones (see
            // `generators::heavy_hex`).
            FamilyKind::HeavyHex { rows } => {
                let per_row = size.checked_mul(4)?.checked_add(1)?;
                rows.checked_add(1)?
                    .checked_mul(per_row)?
                    .checked_add(rows.checked_mul(size)?)?
                    .checked_add(rows.div_ceil(2))
            }
            FamilyKind::Lattice { rows } => rows.checked_mul(size),
            _ => Some(size),
        }
    }

    /// The generator precondition that `(self, size)` breaks, if any: the
    /// parameter assertions of [`epgs_graph::generators`] that
    /// [`FamilyKind::build`] would otherwise panic on.
    /// [`CorpusSpec::from_json`] turns a broken one into
    /// [`SpecError::Unbuildable`], so parsed specs always build.
    fn precondition_error(&self, size: usize) -> Option<&'static str> {
        match *self {
            FamilyKind::RandomRegular { degree } => {
                if degree >= size && (size, degree) != (0, 0) {
                    Some("degree must be below the vertex count")
                } else if size.checked_mul(degree).is_none_or(|nd| nd % 2 == 1) {
                    Some("vertex count times degree must be even")
                } else {
                    None
                }
            }
            FamilyKind::HeavyHex { rows } if rows == 0 || size == 0 => {
                Some("heavy hex needs at least one row and one column")
            }
            FamilyKind::BarabasiAlbert { attach } if attach == 0 || attach >= size => {
                Some("attach must be in 1..n")
            }
            FamilyKind::WattsStrogatz { neighbors, .. } if neighbors % 2 == 1 => {
                Some("neighbors must be even")
            }
            FamilyKind::WattsStrogatz { neighbors, .. } if neighbors < 2 || neighbors >= size => {
                Some("neighbors must be in 2..n")
            }
            FamilyKind::Tree { arity: 0 } => Some("tree arity must be positive"),
            _ => None,
        }
    }

    /// Builds the instance graph for one `(size, seed)` grid point.
    ///
    /// # Panics
    ///
    /// Propagates the generators' parameter assertions (e.g. a
    /// Watts–Strogatz grid whose `neighbors ≥ size`, or a hypercube
    /// dimension whose `2^d` vertices overflow `usize`); see
    /// [`epgs_graph::generators`]. A spec parsed by
    /// [`CorpusSpec::from_json`] has been checked against both.
    pub fn build(&self, size: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            FamilyKind::RandomRegular { degree } => {
                generators::random_regular(size, degree, &mut rng)
            }
            FamilyKind::Hypercube => {
                assert!(
                    size <= u32::MAX as usize,
                    "hypercube dimension must fit in u32 (got {size})"
                );
                generators::hypercube(size as u32)
            }
            FamilyKind::HeavyHex { rows } => generators::heavy_hex(rows, size),
            FamilyKind::BarabasiAlbert { attach } => {
                generators::barabasi_albert(size, attach, &mut rng)
            }
            FamilyKind::WattsStrogatz { neighbors, beta } => {
                generators::watts_strogatz(size, neighbors, beta, &mut rng)
            }
            FamilyKind::Lattice { rows } => generators::lattice(rows, size),
            FamilyKind::Tree { arity } => generators::tree(size, arity),
            FamilyKind::ErdosRenyi { p } => generators::erdos_renyi(size, p, &mut rng),
            FamilyKind::Waxman { alpha, beta } => generators::waxman(size, alpha, beta, &mut rng),
        }
    }

    /// One-letter label of the size axis in instance ids (`n` vertices,
    /// `d` dimension, `c` columns).
    fn size_label(&self) -> char {
        match self {
            FamilyKind::Hypercube => 'd',
            FamilyKind::HeavyHex { .. } | FamilyKind::Lattice { .. } => 'c',
            _ => 'n',
        }
    }

    fn to_fields(&self) -> Vec<(String, Value)> {
        let mut fields = vec![("family".to_string(), Value::Str(self.name().into()))];
        match *self {
            FamilyKind::RandomRegular { degree } => {
                fields.push(("degree".into(), Value::Num(degree as f64)));
            }
            FamilyKind::Hypercube => {}
            FamilyKind::HeavyHex { rows } => {
                fields.push(("rows".into(), Value::Num(rows as f64)));
            }
            FamilyKind::BarabasiAlbert { attach } => {
                fields.push(("attach".into(), Value::Num(attach as f64)));
            }
            FamilyKind::WattsStrogatz { neighbors, beta } => {
                fields.push(("neighbors".into(), Value::Num(neighbors as f64)));
                fields.push(("beta".into(), Value::Num(beta)));
            }
            FamilyKind::Lattice { rows } => {
                fields.push(("rows".into(), Value::Num(rows as f64)));
            }
            FamilyKind::Tree { arity } => {
                fields.push(("arity".into(), Value::Num(arity as f64)));
            }
            FamilyKind::ErdosRenyi { p } => {
                fields.push(("p".into(), Value::Num(p)));
            }
            FamilyKind::Waxman { alpha, beta } => {
                fields.push(("alpha".into(), Value::Num(alpha)));
                fields.push(("beta".into(), Value::Num(beta)));
            }
        }
        fields
    }

    fn from_value(v: &Value) -> Result<Self, SpecError> {
        let name = v
            .get("family")
            .and_then(Value::as_str)
            .ok_or(SpecError::Missing("family"))?;
        let usize_field = |key: &'static str| -> Result<usize, SpecError> {
            v.get(key)
                .and_then(Value::as_usize)
                .ok_or(SpecError::Missing(key))
        };
        let f64_field = |key: &'static str| -> Result<f64, SpecError> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or(SpecError::Missing(key))
        };
        match name {
            "random_regular" => Ok(FamilyKind::RandomRegular {
                degree: usize_field("degree")?,
            }),
            "hypercube" => Ok(FamilyKind::Hypercube),
            "heavy_hex" => Ok(FamilyKind::HeavyHex {
                rows: usize_field("rows")?,
            }),
            "barabasi_albert" => Ok(FamilyKind::BarabasiAlbert {
                attach: usize_field("attach")?,
            }),
            "watts_strogatz" => Ok(FamilyKind::WattsStrogatz {
                neighbors: usize_field("neighbors")?,
                beta: f64_field("beta")?,
            }),
            "lattice" => Ok(FamilyKind::Lattice {
                rows: usize_field("rows")?,
            }),
            "tree" => Ok(FamilyKind::Tree {
                arity: usize_field("arity")?,
            }),
            "erdos_renyi" => Ok(FamilyKind::ErdosRenyi { p: f64_field("p")? }),
            "waxman" => Ok(FamilyKind::Waxman {
                alpha: f64_field("alpha")?,
                beta: f64_field("beta")?,
            }),
            other => Err(SpecError::UnknownFamily(other.to_string())),
        }
    }
}

/// One family's instance grid: fixed parameters × sizes × seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// The generator family and its fixed parameters.
    pub kind: FamilyKind,
    /// The size-axis grid (vertex count, dimension, or columns — see
    /// [`FamilyKind`]).
    pub sizes: Vec<usize>,
    /// The seed-axis grid; ignored (one instance per size) for
    /// deterministic families.
    pub seeds: Vec<u64>,
}

impl FamilySpec {
    /// A grid over `sizes` with the single default seed `1`.
    pub fn new(kind: FamilyKind, sizes: Vec<usize>) -> Self {
        FamilySpec {
            kind,
            sizes,
            seeds: vec![1],
        }
    }

    /// Replaces the seed grid.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Materializes the grid into concrete instances.
    ///
    /// Random families produce `sizes × seeds` instances; deterministic
    /// families produce one instance per size (the seed axis would only
    /// repeat identical graphs).
    ///
    /// # Panics
    ///
    /// Propagates generator parameter assertions; see
    /// [`FamilyKind::build`].
    pub fn instances(&self) -> Vec<Instance> {
        let label = self.kind.size_label();
        let name = self.kind.name();
        let seeds: &[u64] = if self.kind.is_random() {
            &self.seeds
        } else {
            &[0]
        };
        let mut out = Vec::with_capacity(self.sizes.len() * seeds.len());
        for &size in &self.sizes {
            for &seed in seeds {
                let id = if self.kind.is_random() {
                    format!("{name}-{label}{size}-s{seed}")
                } else {
                    format!("{name}-{label}{size}")
                };
                out.push(Instance {
                    id,
                    family: name.to_string(),
                    size,
                    seed,
                    graph: self.kind.build(size, seed),
                });
            }
        }
        out
    }
}

/// One concrete target: a generated graph plus its provenance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Stable identifier, e.g. `random_regular-n12-s1`.
    pub id: String,
    /// Family wire name.
    pub family: String,
    /// Size-grid coordinate this instance came from.
    pub size: usize,
    /// Seed-grid coordinate (0 for deterministic families).
    pub seed: u64,
    /// The target graph state's graph.
    pub graph: Graph,
}

/// A named collection of family grids — the unit the batch compiler sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Corpus name (carried into reports).
    pub name: String,
    /// The family grids.
    pub families: Vec<FamilySpec>,
    /// Optional hardware preset the corpus should compile under — a key of
    /// [`HardwareModel::presets`] (e.g. `"rydberg"`). `None` leaves the
    /// driver's configured model in place. Validated on parse, so a loaded
    /// spec's preset always resolves.
    pub hardware: Option<String>,
}

/// Errors turning JSON into a [`CorpusSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A required field is missing or has the wrong type.
    Missing(&'static str),
    /// `family` names no known generator family.
    UnknownFamily(String),
    /// `hardware` names no known preset (see
    /// [`HardwareModel::presets`]).
    UnknownHardware(String),
    /// A seed exceeds 2^53 ([`crate::json::MAX_SAFE_INT`]) and would not
    /// survive the `f64`-backed JSON layer faithfully.
    SeedTooLarge,
    /// A size-grid entry's instance would have more than [`MAX_VERTICES`]
    /// vertices.
    SizeTooLarge {
        /// The family whose grid is out of range.
        family: &'static str,
        /// The offending size entry.
        size: usize,
    },
    /// The family's parameters cannot build an instance at a size-grid
    /// entry: it breaks a generator precondition, such as a tree of arity
    /// 0 or a random-regular degree at or above the vertex count.
    Unbuildable {
        /// The family whose grid breaks a generator precondition.
        family: &'static str,
        /// The offending size entry.
        size: usize,
        /// The precondition it breaks.
        reason: &'static str,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Missing(field) => {
                write!(f, "missing or mistyped field '{field}'")
            }
            SpecError::UnknownFamily(name) => write!(f, "unknown family '{name}'"),
            SpecError::UnknownHardware(name) => {
                write!(f, "unknown hardware preset '{name}'")
            }
            SpecError::SeedTooLarge => {
                write!(
                    f,
                    "seeds above 2^53 are not faithfully representable in JSON"
                )
            }
            SpecError::SizeTooLarge { family, size } => write!(
                f,
                "family '{family}': size {size} has more than {MAX_VERTICES} vertices"
            ),
            SpecError::Unbuildable {
                family,
                size,
                reason,
            } => write!(f, "family '{family}': size {size}: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl CorpusSpec {
    /// A corpus with no hardware preset (the driver's model applies).
    pub fn new(name: impl Into<String>, families: Vec<FamilySpec>) -> Self {
        CorpusSpec {
            name: name.into(),
            families,
            hardware: None,
        }
    }

    /// Pins the corpus to a hardware preset key.
    ///
    /// The key is validated lazily: [`CorpusSpec::hardware_model`] and
    /// [`CorpusSpec::from_json`] reject unknown keys, and
    /// [`CorpusSpec::to_json`] panics on them (like over-wide seeds) so an
    /// invalid spec cannot be serialized quietly.
    pub fn with_hardware(mut self, key: impl Into<String>) -> Self {
        self.hardware = Some(key.into());
        self
    }

    /// Resolves the corpus's hardware preset, if one is named.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownHardware`] when the named key is not a
    /// [`HardwareModel::presets`] entry (possible only for specs built in
    /// code — parsed specs are validated).
    ///
    /// # Examples
    ///
    /// ```
    /// use epgs_corpus::{CorpusSpec, SpecError};
    ///
    /// let spec = CorpusSpec::default_corpus().with_hardware("trapped_ion");
    /// assert_eq!(spec.hardware_model().unwrap().unwrap().name, "trapped ion");
    /// assert!(CorpusSpec::default_corpus().hardware_model().unwrap().is_none());
    /// assert!(matches!(
    ///     CorpusSpec::default_corpus().with_hardware("abacus").hardware_model(),
    ///     Err(SpecError::UnknownHardware(_))
    /// ));
    /// ```
    pub fn hardware_model(&self) -> Result<Option<HardwareModel>, SpecError> {
        match &self.hardware {
            None => Ok(None),
            Some(key) => HardwareModel::by_name(key)
                .map(Some)
                .ok_or_else(|| SpecError::UnknownHardware(key.clone())),
        }
    }

    /// The default corpus: the five batch families (random-regular,
    /// hypercube, heavy-hex, Barabási–Albert, Watts–Strogatz), four
    /// instances each, sized so the full corpus compiles in seconds.
    pub fn default_corpus() -> Self {
        CorpusSpec {
            name: "default".into(),
            hardware: None,
            families: vec![
                FamilySpec::new(
                    FamilyKind::RandomRegular { degree: 3 },
                    vec![10, 12, 14, 16],
                ),
                FamilySpec::new(FamilyKind::Hypercube, vec![1, 2, 3, 4]),
                FamilySpec::new(FamilyKind::HeavyHex { rows: 1 }, vec![1, 2, 3, 4]),
                FamilySpec::new(
                    FamilyKind::BarabasiAlbert { attach: 2 },
                    vec![10, 12, 14, 16],
                )
                .with_seeds(vec![2]),
                FamilySpec::new(
                    FamilyKind::WattsStrogatz {
                        neighbors: 4,
                        beta: 0.2,
                    },
                    vec![10, 12, 14, 16],
                )
                .with_seeds(vec![3]),
            ],
        }
    }

    /// Materializes every family grid, in declaration order.
    ///
    /// # Panics
    ///
    /// Propagates generator parameter assertions; see
    /// [`FamilyKind::build`].
    pub fn instances(&self) -> Vec<Instance> {
        self.families
            .iter()
            .flat_map(FamilySpec::instances)
            .collect()
    }

    /// Serializes the spec to a JSON document (inverse of
    /// [`CorpusSpec::from_json`]).
    ///
    /// # Panics
    ///
    /// Panics if a seed exceeds 2^53 ([`crate::json::MAX_SAFE_INT`]): the
    /// `f64`-backed JSON layer would silently round it, breaking the
    /// round-trip guarantee (`from_json` rejects such seeds for the same
    /// reason). Also panics on an unknown hardware preset key, which
    /// `from_json` would reject on reload.
    pub fn to_json(&self) -> String {
        assert!(
            self.families
                .iter()
                .flat_map(|f| &f.seeds)
                .all(|&s| s <= crate::json::MAX_SAFE_INT),
            "seeds above 2^53 are not faithfully representable in JSON"
        );
        if let Some(key) = &self.hardware {
            assert!(
                HardwareModel::by_name(key).is_some(),
                "unknown hardware preset '{key}'"
            );
        }
        let families: Vec<Value> = self
            .families
            .iter()
            .map(|f| {
                let mut fields = f.kind.to_fields();
                fields.push((
                    "sizes".into(),
                    Value::Arr(f.sizes.iter().map(|&s| Value::Num(s as f64)).collect()),
                ));
                // Always serialized — deterministic families ignore seeds
                // when enumerating, but dropping them here would break the
                // to_json/from_json inverse for specs that set them.
                fields.push((
                    "seeds".into(),
                    Value::Arr(f.seeds.iter().map(|&s| Value::Num(s as f64)).collect()),
                ));
                Value::Obj(fields)
            })
            .collect();
        let mut fields = vec![("name".into(), Value::Str(self.name.clone()))];
        if let Some(hw) = &self.hardware {
            fields.push(("hardware".into(), Value::Str(hw.clone())));
        }
        fields.push(("families".into(), Value::Arr(families)));
        Value::Obj(fields).to_string()
    }

    /// Parses a spec from JSON. `seeds` defaults to `[1]` when absent, and
    /// the optional `hardware` key must name a built-in preset.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON, [`SpecError::Missing`] /
    /// [`SpecError::UnknownFamily`] / [`SpecError::UnknownHardware`] on
    /// schema violations, [`SpecError::SeedTooLarge`] for seeds above
    /// 2^53 (whose `f64` JSON representation is already imprecise),
    /// [`SpecError::SizeTooLarge`] for a grid entry whose instance would
    /// exceed [`MAX_VERTICES`] vertices, and
    /// [`SpecError::Unbuildable`] for parameters the generator cannot build
    /// at some size. An accepted spec's [`CorpusSpec::instances`] never
    /// panics.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = Value::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or(SpecError::Missing("name"))?
            .to_string();
        let hardware = match doc.get("hardware") {
            None => None,
            Some(v) => {
                let key = v.as_str().ok_or(SpecError::Missing("hardware"))?;
                if HardwareModel::by_name(key).is_none() {
                    return Err(SpecError::UnknownHardware(key.to_string()));
                }
                Some(key.to_string())
            }
        };
        let mut families = Vec::new();
        for fam in doc
            .get("families")
            .and_then(Value::as_arr)
            .ok_or(SpecError::Missing("families"))?
        {
            let kind = FamilyKind::from_value(fam)?;
            let sizes = fam
                .get("sizes")
                .and_then(Value::as_arr)
                .ok_or(SpecError::Missing("sizes"))?
                .iter()
                .map(|s| s.as_usize().ok_or(SpecError::Missing("sizes")))
                .collect::<Result<Vec<_>, _>>()?;
            let family = kind.name();
            for &size in &sizes {
                if kind.vertex_count(size).is_none_or(|n| n > MAX_VERTICES) {
                    return Err(SpecError::SizeTooLarge { family, size });
                }
                if let Some(reason) = kind.precondition_error(size) {
                    return Err(SpecError::Unbuildable {
                        family,
                        size,
                        reason,
                    });
                }
            }
            let seeds = match fam.get("seeds") {
                None => vec![1],
                Some(list) => list
                    .as_arr()
                    .ok_or(SpecError::Missing("seeds"))?
                    .iter()
                    .map(|s| match s.as_u64() {
                        None => Err(SpecError::Missing("seeds")),
                        Some(seed) if seed > crate::json::MAX_SAFE_INT => {
                            Err(SpecError::SeedTooLarge)
                        }
                        Some(seed) => Ok(seed),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            families.push(FamilySpec { kind, sizes, seeds });
        }
        Ok(CorpusSpec {
            name,
            families,
            hardware,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_meets_the_batch_floor() {
        let spec = CorpusSpec::default_corpus();
        assert!(spec.families.len() >= 5, "at least five families");
        for f in &spec.families {
            assert!(
                f.instances().len() >= 4,
                "{}: at least four instances",
                f.kind.name()
            );
        }
        let instances = spec.instances();
        assert!(instances.len() >= 20);
        // Ids are unique and graphs non-trivial.
        let mut ids: Vec<&str> = instances.iter().map(|i| i.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), instances.len(), "instance ids must be unique");
        assert!(instances.iter().all(|i| i.graph.vertex_count() >= 2));
    }

    #[test]
    fn enumeration_is_deterministic() {
        let a = CorpusSpec::default_corpus().instances();
        let b = CorpusSpec::default_corpus().instances();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.graph, y.graph);
        }
    }

    #[test]
    fn seed_grid_multiplies_only_random_families() {
        let rr = FamilySpec::new(FamilyKind::RandomRegular { degree: 2 }, vec![6, 8])
            .with_seeds(vec![1, 2, 3]);
        assert_eq!(rr.instances().len(), 6);
        let hc = FamilySpec::new(FamilyKind::Hypercube, vec![2, 3]).with_seeds(vec![1, 2, 3]);
        assert_eq!(
            hc.instances().len(),
            2,
            "deterministic family ignores seeds"
        );
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = CorpusSpec::default_corpus();
        let text = spec.to_json();
        let back = CorpusSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);
        // And the instances generated from the reloaded spec are identical.
        for (a, b) in spec.instances().iter().zip(back.instances()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.graph, b.graph);
        }
    }

    #[test]
    fn seeds_on_deterministic_families_survive_the_round_trip() {
        // instances() ignores these seeds, but serialization must not: the
        // round trip is an exact inverse for every well-formed spec.
        let spec = CorpusSpec {
            name: "seeded-hypercubes".into(),
            families: vec![FamilySpec::new(FamilyKind::Hypercube, vec![2]).with_seeds(vec![7])],
            hardware: None,
        };
        let back = CorpusSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.families[0].seeds, vec![7]);
    }

    #[test]
    fn seeds_beyond_f64_precision_are_rejected_loudly() {
        // 2^53 − 1 round-trips exactly; anything above is refused in both
        // directions (2^53 + 1 would otherwise silently round onto 2^53).
        let max = crate::json::MAX_SAFE_INT;
        let ok = CorpusSpec {
            name: "edge".into(),
            families: vec![FamilySpec::new(FamilyKind::Hypercube, vec![2]).with_seeds(vec![max])],
            hardware: None,
        };
        assert_eq!(CorpusSpec::from_json(&ok.to_json()).unwrap(), ok);

        let too_big = CorpusSpec {
            name: "edge".into(),
            families: vec![
                FamilySpec::new(FamilyKind::Hypercube, vec![2]).with_seeds(vec![max + 1])
            ],
            hardware: None,
        };
        assert!(std::panic::catch_unwind(|| too_big.to_json()).is_err());
        // 2^53 + 1 parses to an f64 that rounds onto 2^53 — still above
        // MAX_SAFE_INT (2^53 − 1), so the silent-rounding case is caught.
        for beyond in [max + 1, max + 2, max + 3] {
            let text = format!(
                r#"{{"name": "x", "families": [{{"family": "hypercube", "sizes": [2], "seeds": [{beyond}]}}]}}"#
            );
            assert_eq!(
                CorpusSpec::from_json(&text),
                Err(SpecError::SeedTooLarge),
                "{beyond}"
            );
        }
    }

    #[test]
    fn out_of_range_hypercube_dimensions_are_rejected_structurally() {
        // A dimension beyond u32 would previously panic inside
        // `FamilyKind::build`; the parser now refuses it up front.
        let beyond = u32::MAX as usize + 1;
        let text = format!(
            r#"{{"name": "x", "families": [{{"family": "hypercube", "sizes": [3, {beyond}]}}]}}"#
        );
        assert_eq!(
            CorpusSpec::from_json(&text),
            Err(SpecError::SizeTooLarge {
                family: "hypercube",
                size: beyond,
            })
        );
        // The vertex count is exact up to the cap and `None` on overflow.
        assert_eq!(FamilyKind::Hypercube.vertex_count(16), Some(MAX_VERTICES));
        assert_eq!(
            FamilyKind::Hypercube.vertex_count(usize::BITS as usize),
            None
        );
        assert_eq!(FamilyKind::Tree { arity: 2 }.vertex_count(9), Some(9));
    }

    #[test]
    fn vertex_counts_match_the_built_graphs() {
        for (kind, size) in [
            (FamilyKind::Hypercube, 4),
            (FamilyKind::HeavyHex { rows: 1 }, 1),
            (FamilyKind::HeavyHex { rows: 2 }, 3),
            (FamilyKind::HeavyHex { rows: 3 }, 2),
            (FamilyKind::Lattice { rows: 3 }, 5),
            (FamilyKind::Tree { arity: 2 }, 10),
        ] {
            let built = kind.build(size, 1).vertex_count();
            assert_eq!(kind.vertex_count(size), Some(built), "{kind:?} at {size}");
        }
    }

    /// Parses a one-family spec and returns its error; a spec that parses
    /// fails the test, so `instances()` is never reached.
    fn parse_error(family: &str, sizes: &str) -> SpecError {
        let text = format!(r#"{{"name": "x", "families": [{{{family}, "sizes": {sizes}}}]}}"#);
        CorpusSpec::from_json(&text).expect_err("the generator would panic on this spec")
    }

    fn assert_unbuildable_at(err: SpecError, family: &'static str, size: usize) {
        assert!(
            matches!(err, SpecError::Unbuildable { family: f, size: s, .. } if f == family && s == size),
            "{err:?}"
        );
    }

    #[test]
    fn tree_arity_zero_is_rejected() {
        let err = parse_error(r#""family": "tree", "arity": 0"#, "[5]");
        assert_unbuildable_at(err, "tree", 5);
    }

    #[test]
    fn random_regular_degree_at_or_above_n_is_rejected() {
        let err = parse_error(r#""family": "random_regular", "degree": 4"#, "[6, 4]");
        assert_unbuildable_at(err, "random_regular", 4);
    }

    #[test]
    fn random_regular_odd_degree_sum_is_rejected() {
        let err = parse_error(r#""family": "random_regular", "degree": 3"#, "[6, 7]");
        assert_unbuildable_at(err, "random_regular", 7);
    }

    #[test]
    fn barabasi_albert_attach_zero_is_rejected() {
        let err = parse_error(r#""family": "barabasi_albert", "attach": 0"#, "[5]");
        assert_unbuildable_at(err, "barabasi_albert", 5);
    }

    #[test]
    fn barabasi_albert_attach_at_or_above_n_is_rejected() {
        let err = parse_error(r#""family": "barabasi_albert", "attach": 3"#, "[4, 3]");
        assert_unbuildable_at(err, "barabasi_albert", 3);
    }

    #[test]
    fn watts_strogatz_odd_neighbors_is_rejected() {
        let err = parse_error(
            r#""family": "watts_strogatz", "neighbors": 3, "beta": 0.2"#,
            "[10]",
        );
        assert_unbuildable_at(err, "watts_strogatz", 10);
    }

    #[test]
    fn watts_strogatz_neighbors_below_two_is_rejected() {
        let err = parse_error(
            r#""family": "watts_strogatz", "neighbors": 0, "beta": 0.2"#,
            "[10]",
        );
        assert_unbuildable_at(err, "watts_strogatz", 10);
    }

    #[test]
    fn watts_strogatz_neighbors_at_or_above_n_is_rejected() {
        let err = parse_error(
            r#""family": "watts_strogatz", "neighbors": 4, "beta": 0.2"#,
            "[5, 4]",
        );
        assert_unbuildable_at(err, "watts_strogatz", 4);
    }

    #[test]
    fn heavy_hex_zero_rows_is_rejected() {
        let err = parse_error(r#""family": "heavy_hex", "rows": 0"#, "[2]");
        assert_unbuildable_at(err, "heavy_hex", 2);
    }

    #[test]
    fn heavy_hex_zero_columns_is_rejected() {
        let err = parse_error(r#""family": "heavy_hex", "rows": 1"#, "[2, 0]");
        assert_unbuildable_at(err, "heavy_hex", 0);
    }

    #[test]
    fn hypercube_dimension_of_usize_bits_is_rejected() {
        let bits = usize::BITS as usize;
        let err = parse_error(r#""family": "hypercube""#, &format!("[3, {bits}]"));
        assert_eq!(
            err,
            SpecError::SizeTooLarge {
                family: "hypercube",
                size: bits,
            }
        );
    }

    #[test]
    fn hypercube_dimension_63_is_rejected() {
        // 2^63 fits in usize but is far above the vertex cap.
        let err = parse_error(r#""family": "hypercube""#, "[3, 63]");
        assert_eq!(
            err,
            SpecError::SizeTooLarge {
                family: "hypercube",
                size: 63,
            }
        );
    }

    #[test]
    fn path_sized_families_above_the_vertex_cap_are_rejected() {
        // A tree of arity 1 is a path.
        let err = parse_error(r#""family": "tree", "arity": 1"#, "[3, 1000000000000]");
        assert_eq!(
            err,
            SpecError::SizeTooLarge {
                family: "tree",
                size: 1_000_000_000_000,
            }
        );
        // The cap itself is accepted.
        let at_cap = format!(
            r#"{{"name": "x", "families": [{{"family": "tree", "arity": 1, "sizes": [{MAX_VERTICES}]}}]}}"#
        );
        assert!(CorpusSpec::from_json(&at_cap).is_ok());
    }

    #[test]
    fn a_million_by_million_lattice_is_rejected() {
        let err = parse_error(r#""family": "lattice", "rows": 1000000"#, "[1000000]");
        assert_eq!(
            err,
            SpecError::SizeTooLarge {
                family: "lattice",
                size: 1_000_000,
            }
        );
    }

    #[test]
    fn heavy_hex_grids_whose_product_overflows_are_rejected() {
        let err = parse_error(
            r#""family": "heavy_hex", "rows": 4294967296"#,
            "[4294967296]",
        );
        assert_eq!(
            err,
            SpecError::SizeTooLarge {
                family: "heavy_hex",
                size: 4_294_967_296,
            }
        );
    }

    #[test]
    fn parameters_at_the_generator_bounds_are_accepted_and_build() {
        let text = r#"{"name": "edge", "families": [
            {"family": "tree", "arity": 1, "sizes": [3]},
            {"family": "random_regular", "degree": 3, "sizes": [4]},
            {"family": "random_regular", "degree": 0, "sizes": [0]},
            {"family": "barabasi_albert", "attach": 1, "sizes": [2]},
            {"family": "watts_strogatz", "neighbors": 2, "beta": 0.5, "sizes": [3]},
            {"family": "heavy_hex", "rows": 1, "sizes": [1]},
            {"family": "hypercube", "sizes": [0]}
        ]}"#;
        let spec = CorpusSpec::from_json(text).unwrap();
        assert_eq!(spec.instances().len(), 7);
    }

    #[test]
    fn hardware_preset_round_trips_and_resolves() {
        let spec = CorpusSpec::default_corpus().with_hardware("rydberg");
        let text = spec.to_json();
        assert!(text.contains("\"hardware\":\"rydberg\""), "{text}");
        let back = CorpusSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(
            back.hardware_model().unwrap(),
            Some(epgs_hardware::HardwareModel::rydberg())
        );
        // Absent field stays absent.
        let plain = CorpusSpec::default_corpus();
        assert!(!plain.to_json().contains("hardware"));
        assert_eq!(
            CorpusSpec::from_json(&plain.to_json()).unwrap().hardware,
            None
        );
    }

    #[test]
    fn unknown_hardware_is_rejected_in_both_directions() {
        let bad = CorpusSpec::default_corpus().with_hardware("abacus");
        assert!(std::panic::catch_unwind(|| bad.to_json()).is_err());
        assert_eq!(
            bad.hardware_model(),
            Err(SpecError::UnknownHardware("abacus".into()))
        );
        let text = r#"{"name": "x", "hardware": "abacus", "families": []}"#;
        assert!(matches!(
            CorpusSpec::from_json(text),
            Err(SpecError::UnknownHardware(k)) if k == "abacus"
        ));
        // A mistyped hardware field is a schema violation, not a silent skip.
        let mistyped = r#"{"name": "x", "hardware": 7, "families": []}"#;
        assert!(matches!(
            CorpusSpec::from_json(mistyped),
            Err(SpecError::Missing("hardware"))
        ));
    }

    #[test]
    fn from_json_reports_schema_violations() {
        assert!(matches!(
            CorpusSpec::from_json("{"),
            Err(SpecError::Json(_))
        ));
        assert!(matches!(
            CorpusSpec::from_json(r#"{"families": []}"#),
            Err(SpecError::Missing("name"))
        ));
        assert!(matches!(
            CorpusSpec::from_json(r#"{"name": "x"}"#),
            Err(SpecError::Missing("families"))
        ));
        let unknown = r#"{"name": "x", "families": [{"family": "moebius", "sizes": [4]}]}"#;
        assert!(matches!(
            CorpusSpec::from_json(unknown),
            Err(SpecError::UnknownFamily(f)) if f == "moebius"
        ));
        let missing_param = r#"{"name": "x", "families": [{"family": "tree", "sizes": [4]}]}"#;
        assert!(matches!(
            CorpusSpec::from_json(missing_param),
            Err(SpecError::Missing("arity"))
        ));
    }

    #[test]
    fn every_family_kind_round_trips() {
        let spec = CorpusSpec {
            name: "all".into(),
            hardware: Some("quantum_dot".into()),
            families: vec![
                FamilySpec::new(FamilyKind::RandomRegular { degree: 3 }, vec![8]),
                FamilySpec::new(FamilyKind::Hypercube, vec![3]),
                FamilySpec::new(FamilyKind::HeavyHex { rows: 1 }, vec![2]),
                FamilySpec::new(FamilyKind::BarabasiAlbert { attach: 2 }, vec![9]),
                FamilySpec::new(
                    FamilyKind::WattsStrogatz {
                        neighbors: 4,
                        beta: 0.25,
                    },
                    vec![10],
                ),
                FamilySpec::new(FamilyKind::Lattice { rows: 3 }, vec![4]),
                FamilySpec::new(FamilyKind::Tree { arity: 2 }, vec![7]),
                FamilySpec::new(FamilyKind::ErdosRenyi { p: 0.3 }, vec![8]),
                FamilySpec::new(
                    FamilyKind::Waxman {
                        alpha: 0.5,
                        beta: 0.2,
                    },
                    vec![8],
                ),
            ],
        };
        let back = CorpusSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.instances().len(), 9);
    }
}
