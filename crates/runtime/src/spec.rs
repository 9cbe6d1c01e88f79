//! Canonical sweep descriptions: [`SweepSpec`] is the single serializable
//! job type every sweep flows through.
//!
//! A spec names *what* to run — graph family × oracle × scheme × fault
//! plan × seeds × runtime knobs — without touching *how* it runs (thread
//! counts, journal paths, and chunk overrides stay in the caller). The
//! bench grids construct from a spec, the `sweep` CLI lowers its flags
//! into one, and the sweep service ships specs over the wire verbatim:
//! one description type, three front doors.
//!
//! The JSON form is the canonical [`Json`] render (insertion-ordered
//! objects, unsigned integers only). Probabilities are stored as
//! parts-per-million integers so the encoding never touches floats;
//! [`from_ppm`]/[`to_ppm`] round-trip every probability the experiments
//! use. Parsing is strict: unknown or mis-typed fields are rejected with
//! a first-error message naming the offending path, so a typo in a
//! submitted job fails loudly instead of silently running the default.

use oraclesize_sim::{AdviceAdversary, FaultPlan, SchedulerKind, SimConfig};

use crate::aggregate::Aggregate;
use crate::batch::RunReport;
use crate::json::Json;

/// Converts a probability in `[0, 1]` to parts-per-million.
pub fn to_ppm(prob: f64) -> u64 {
    (prob * 1_000_000.0).round() as u64
}

/// Converts parts-per-million back to a probability in `[0, 1]`.
pub fn from_ppm(ppm: u64) -> f64 {
    ppm as f64 / 1_000_000.0
}

/// A complete, serializable description of one sweep job.
///
/// `instances` lists the graph/oracle pairs the cells share (building a
/// graph is the expensive part, so cells reference instances by index),
/// and `cells` lists one `(instance, scheme, config, seed)` combination
/// per grid cell, in artifact order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Spec format version; this module reads version `1`.
    pub version: u64,
    /// Experiment name — becomes the artifact's `"experiment"` field and
    /// the `BENCH_<NAME>.json` file stem.
    pub name: String,
    /// The sweep's master seed — becomes the artifact's `"seed"` field.
    pub master_seed: u64,
    /// Shared graph/oracle pairs, referenced by `cells[*].instance`.
    pub instances: Vec<InstanceSpec>,
    /// One entry per grid cell, in artifact order.
    pub cells: Vec<CellSpec>,
    /// Supervision and scheduling knobs shared by the whole sweep.
    pub knobs: KnobSpec,
}

/// A graph construction plus the oracle that labels it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Graph family name (`"cycle"`, `"random-connected"`, …); the bench
    /// crate owns the name → constructor table.
    pub family: String,
    /// Family size parameter (nodes, or the family's natural order).
    pub n: u64,
    /// Seed for the family's RNG; ignored by deterministic families.
    pub seed: u64,
    /// Edge probability in parts-per-million, for the families that take
    /// one (`"random-connected"`).
    pub p_ppm: Option<u64>,
    /// Source node for the task.
    pub source: u64,
    /// Oracle name (`"empty"`, `"spanning-tree"`, `"light-tree"`,
    /// `"robust-wakeup"`).
    pub oracle: String,
}

/// Asynchronous delivery order for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSpec {
    /// Scheduler name as reported by
    /// [`SchedulerKind::name`] (`"fifo"`, `"lifo"`, `"random"`,
    /// `"starve"`).
    pub kind: String,
    /// Seed for the `"random"` scheduler; carried but unused by the
    /// deterministic kinds.
    pub seed: u64,
}

impl SchedulerSpec {
    /// The spec form of an engine scheduler.
    pub fn of(kind: SchedulerKind) -> SchedulerSpec {
        let seed = match kind {
            SchedulerKind::Random { seed } => seed,
            _ => 0,
        };
        SchedulerSpec {
            kind: kind.name().to_string(),
            seed,
        }
    }

    /// Lowers to the engine scheduler.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown scheduler kind.
    pub fn scheduler(&self) -> Result<SchedulerKind, String> {
        Ok(match self.kind.as_str() {
            "fifo" => SchedulerKind::Fifo,
            "lifo" => SchedulerKind::Lifo,
            "random" => SchedulerKind::Random { seed: self.seed },
            "starve" => SchedulerKind::Starve,
            other => return Err(format!("unknown scheduler kind {other:?}")),
        })
    }
}

/// One grid cell: which instance to run, under which scheme and engine
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell label for the JSON artifact.
    pub label: String,
    /// Index into [`SweepSpec::instances`].
    pub instance: u64,
    /// Scheme name (`"tree-wakeup"`, `"scheme-b"`, `"flood"`,
    /// `"robust-tree-wakeup"`, `"retry-broadcast"`); the bench crate owns
    /// the name → protocol table.
    pub scheme: String,
    /// Retry budget for `"retry-broadcast"`; meaningless otherwise.
    pub retries: Option<u64>,
    /// Task rules: `"broadcast"` or `"wakeup"`.
    pub mode: String,
    /// Asynchronous delivery order; `None` keeps synchronous rounds.
    pub scheduler: Option<SchedulerSpec>,
    /// Erase node identities (the anonymous model).
    pub anonymous: bool,
    /// Bound every payload to this many bits.
    pub max_message_bits: Option<u64>,
    /// Quiescence-poll budget override.
    pub quiescence_polls: Option<u64>,
    /// The cell's checkpoint seed, recorded in journals and validated on
    /// resume.
    pub seed: u64,
    /// Faults injected into this cell's run.
    pub faults: FaultSpec,
}

impl CellSpec {
    /// Lowers this cell's engine configuration.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an unknown mode or scheduler.
    pub fn sim_config(&self) -> Result<SimConfig, String> {
        let mut config = match self.mode.as_str() {
            "broadcast" => SimConfig::broadcast(),
            "wakeup" => SimConfig::wakeup(),
            other => return Err(format!("unknown mode {other:?}")),
        };
        if let Some(sched) = &self.scheduler {
            config = config.with_scheduler(sched.scheduler()?);
        }
        config = config.with_anonymous(self.anonymous);
        if let Some(bits) = self.max_message_bits {
            config = config.with_max_message_bits(bits);
        }
        if let Some(polls) = self.quiescence_polls {
            config = config.with_quiescence_polls(to_u32(polls, "quiescence_polls")?);
        }
        // An inert plan makes the engine take the exact fault-free code
        // path, so installing the default plan is byte-identical to
        // leaving it out.
        Ok(config.with_faults(self.faults.plan()))
    }
}

/// A serializable [`FaultPlan`]: probabilities in parts-per-million,
/// crash schedules as `[node, k]` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed for every fault decision.
    pub seed: u64,
    /// In-flight drop probability, parts-per-million.
    pub drop_ppm: u64,
    /// Duplicate-delivery probability, parts-per-million.
    pub duplicate_ppm: u64,
    /// Payload bit-flip probability, parts-per-million.
    pub bit_flip_ppm: u64,
    /// Crash-stop schedule: `(node, k)` — the node transmits its first
    /// `k` messages, then halts.
    pub crashes: Vec<(u64, u64)>,
    /// Pre-run advice corruption.
    pub advice: AdviceSpec,
}

impl FaultSpec {
    /// Lowers to the engine's fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            drop_prob: from_ppm(self.drop_ppm),
            duplicate_prob: from_ppm(self.duplicate_ppm),
            bit_flip_prob: from_ppm(self.bit_flip_ppm),
            crashes: self.crashes.iter().map(|&(v, k)| (v as usize, k)).collect(),
            advice: self.advice.adversary(),
        }
    }
}

/// A serializable [`AdviceAdversary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AdviceSpec {
    /// Leave the advice untouched.
    #[default]
    None,
    /// Flip each advice bit with the given parts-per-million probability.
    FlipBits {
        /// Per-bit flip probability, parts-per-million.
        prob_ppm: u64,
    },
    /// Keep only the leading fraction of each advice string.
    Truncate {
        /// Fraction kept, parts-per-million.
        keep_ppm: u64,
    },
    /// Swap the advice strings of two nodes.
    SwapPair {
        /// First node.
        a: u64,
        /// Second node.
        b: u64,
    },
    /// Replace advice with uniformly random bits, per node.
    Garbage {
        /// Per-node replacement probability, parts-per-million.
        prob_ppm: u64,
        /// Replacement string length in bits.
        bits: u64,
    },
}

impl AdviceSpec {
    /// Lowers to the engine adversary.
    pub fn adversary(&self) -> AdviceAdversary {
        match *self {
            AdviceSpec::None => AdviceAdversary::None,
            AdviceSpec::FlipBits { prob_ppm } => AdviceAdversary::FlipBits {
                prob: from_ppm(prob_ppm),
            },
            AdviceSpec::Truncate { keep_ppm } => AdviceAdversary::Truncate {
                keep: from_ppm(keep_ppm),
            },
            AdviceSpec::SwapPair { a, b } => AdviceAdversary::SwapPair {
                a: a as usize,
                b: b as usize,
            },
            AdviceSpec::Garbage { prob_ppm, bits } => AdviceAdversary::Garbage {
                prob: from_ppm(prob_ppm),
                bits: bits as usize,
            },
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            AdviceSpec::None => Json::obj().field("kind", "none"),
            AdviceSpec::FlipBits { prob_ppm } => Json::obj()
                .field("kind", "flip-bits")
                .field("prob_ppm", prob_ppm),
            AdviceSpec::Truncate { keep_ppm } => Json::obj()
                .field("kind", "truncate")
                .field("keep_ppm", keep_ppm),
            AdviceSpec::SwapPair { a, b } => Json::obj()
                .field("kind", "swap-pair")
                .field("a", a)
                .field("b", b),
            AdviceSpec::Garbage { prob_ppm, bits } => Json::obj()
                .field("kind", "garbage")
                .field("prob_ppm", prob_ppm)
                .field("bits", bits),
        }
    }

    fn from_json(j: &Json, path: &str) -> Result<AdviceSpec, String> {
        let f = fields(j, path)?;
        let kind = req_str(f, "kind", path)?;
        match kind.as_str() {
            "none" => {
                check_unknown(f, &["kind"], path)?;
                Ok(AdviceSpec::None)
            }
            "flip-bits" => {
                check_unknown(f, &["kind", "prob_ppm"], path)?;
                Ok(AdviceSpec::FlipBits {
                    prob_ppm: req_u64(f, "prob_ppm", path)?,
                })
            }
            "truncate" => {
                check_unknown(f, &["kind", "keep_ppm"], path)?;
                Ok(AdviceSpec::Truncate {
                    keep_ppm: req_u64(f, "keep_ppm", path)?,
                })
            }
            "swap-pair" => {
                check_unknown(f, &["kind", "a", "b"], path)?;
                Ok(AdviceSpec::SwapPair {
                    a: req_u64(f, "a", path)?,
                    b: req_u64(f, "b", path)?,
                })
            }
            "garbage" => {
                check_unknown(f, &["kind", "prob_ppm", "bits"], path)?;
                Ok(AdviceSpec::Garbage {
                    prob_ppm: req_u64(f, "prob_ppm", path)?,
                    bits: req_u64(f, "bits", path)?,
                })
            }
            other => Err(format!("{path}.kind: unknown adversary {other:?}")),
        }
    }
}

/// Supervision and scheduling knobs shared by a whole sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KnobSpec {
    /// Retry budget for failed cells.
    pub max_retries: u64,
    /// Per-cell watchdog step budget.
    pub cell_timeout: Option<u64>,
    /// Fixed scheduler sub-task size; `None` sizes chunks from cost
    /// hints. Granularity only — never results.
    pub chunk: Option<u64>,
}

impl SweepSpec {
    /// An empty version-1 spec with the given name and master seed.
    pub fn new(name: impl Into<String>, master_seed: u64) -> SweepSpec {
        SweepSpec {
            version: 1,
            name: name.into(),
            master_seed,
            instances: Vec::new(),
            cells: Vec::new(),
            knobs: KnobSpec::default(),
        }
    }

    /// The canonical JSON form.
    pub fn to_json(&self) -> Json {
        let instances: Vec<Json> = self.instances.iter().map(instance_json).collect();
        let cells: Vec<Json> = self.cells.iter().map(cell_json).collect();
        let mut knobs = Json::obj().field("max_retries", self.knobs.max_retries);
        if let Some(t) = self.knobs.cell_timeout {
            knobs = knobs.field("cell_timeout", t);
        }
        if let Some(c) = self.knobs.chunk {
            knobs = knobs.field("chunk", c);
        }
        Json::obj()
            .field("version", self.version)
            .field("name", self.name.as_str())
            .field("master_seed", self.master_seed)
            .field("instances", instances)
            .field("cells", cells)
            .field("knobs", knobs)
    }

    /// The canonical rendered form — the wire and submit format.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Job identity: the FNV-1a digest of the canonical render. Two specs
    /// share a digest iff they describe the same sweep.
    pub fn digest(&self) -> u64 {
        crate::journal::fnv1a64(self.render().as_bytes())
    }

    /// Parses a rendered spec.
    ///
    /// # Errors
    ///
    /// Returns a first-error message: malformed JSON, an unknown or
    /// mis-typed field (with its path), or a structural violation such
    /// as an out-of-range instance index.
    pub fn parse(s: &str) -> Result<SweepSpec, String> {
        let j = crate::json::parse(s).ok_or_else(|| {
            "spec is not canonical JSON (render with `oraclesize spec` or SweepSpec::render)"
                .to_string()
        })?;
        SweepSpec::from_json(&j)
    }

    /// Decodes a parsed [`Json`] value; same errors as [`SweepSpec::parse`].
    ///
    /// # Errors
    ///
    /// Returns a first-error message naming the offending field path.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let f = fields(j, "spec")?;
        check_unknown(
            f,
            &[
                "version",
                "name",
                "master_seed",
                "instances",
                "cells",
                "knobs",
            ],
            "spec",
        )?;
        let version = req_u64(f, "version", "spec")?;
        if version != 1 {
            return Err(format!(
                "spec.version: unsupported version {version} (this build reads 1)"
            ));
        }
        let name = req_str(f, "name", "spec")?;
        let master_seed = req_u64(f, "master_seed", "spec")?;
        let instances = req_array(f, "instances", "spec")?
            .iter()
            .enumerate()
            .map(|(i, j)| instance_from_json(j, &format!("instances[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let cells = req_array(f, "cells", "spec")?
            .iter()
            .enumerate()
            .map(|(i, j)| cell_from_json(j, &format!("cells[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let knobs = knobs_from_json(req_field(f, "knobs", "spec")?, "knobs")?;
        let spec = SweepSpec {
            version,
            name,
            master_seed,
            instances,
            cells,
            knobs,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural checks beyond field shapes.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an instance index out of range,
    /// or a quiescence-poll or retry count above `u32::MAX`.
    pub fn validate(&self) -> Result<(), String> {
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.instance >= self.instances.len() as u64 {
                return Err(format!(
                    "cells[{i}].instance: index {} out of range ({} instances)",
                    cell.instance,
                    self.instances.len()
                ));
            }
            for (value, field) in [
                (cell.quiescence_polls, "quiescence_polls"),
                (cell.retries, "retries"),
            ] {
                if let Some(value) = value {
                    to_u32(value, &format!("cells[{i}].{field}"))?;
                }
            }
        }
        to_u32(self.knobs.max_retries, "knobs.max_retries")?;
        Ok(())
    }
}

/// Narrows a spec count to the `u32` the engine and supervisor take,
/// naming `path` when it does not fit.
///
/// # Errors
///
/// Returns `"<path>: <value> exceeds 4294967295"` above `u32::MAX`.
pub fn to_u32(value: u64, path: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("{path}: {value} exceeds {}", u32::MAX))
}

fn instance_json(inst: &InstanceSpec) -> Json {
    let mut j = Json::obj()
        .field("family", inst.family.as_str())
        .field("n", inst.n)
        .field("seed", inst.seed);
    if let Some(p) = inst.p_ppm {
        j = j.field("p_ppm", p);
    }
    j.field("source", inst.source)
        .field("oracle", inst.oracle.as_str())
}

fn instance_from_json(j: &Json, path: &str) -> Result<InstanceSpec, String> {
    let f = fields(j, path)?;
    check_unknown(
        f,
        &["family", "n", "seed", "p_ppm", "source", "oracle"],
        path,
    )?;
    Ok(InstanceSpec {
        family: req_str(f, "family", path)?,
        n: req_u64(f, "n", path)?,
        seed: req_u64(f, "seed", path)?,
        p_ppm: opt_u64(f, "p_ppm", path)?,
        source: req_u64(f, "source", path)?,
        oracle: req_str(f, "oracle", path)?,
    })
}

fn cell_json(cell: &CellSpec) -> Json {
    let mut j = Json::obj()
        .field("label", cell.label.as_str())
        .field("instance", cell.instance)
        .field("scheme", cell.scheme.as_str());
    if let Some(r) = cell.retries {
        j = j.field("retries", r);
    }
    j = j.field("mode", cell.mode.as_str());
    if let Some(s) = &cell.scheduler {
        j = j.field(
            "scheduler",
            Json::obj()
                .field("kind", s.kind.as_str())
                .field("seed", s.seed),
        );
    }
    j = j.field("anonymous", cell.anonymous);
    if let Some(b) = cell.max_message_bits {
        j = j.field("max_message_bits", b);
    }
    if let Some(p) = cell.quiescence_polls {
        j = j.field("quiescence_polls", p);
    }
    j.field("seed", cell.seed)
        .field("faults", fault_json(&cell.faults))
}

fn cell_from_json(j: &Json, path: &str) -> Result<CellSpec, String> {
    let f = fields(j, path)?;
    check_unknown(
        f,
        &[
            "label",
            "instance",
            "scheme",
            "retries",
            "mode",
            "scheduler",
            "anonymous",
            "max_message_bits",
            "quiescence_polls",
            "seed",
            "faults",
        ],
        path,
    )?;
    let scheduler = match get(f, "scheduler") {
        None => None,
        Some(j) => {
            let spath = format!("{path}.scheduler");
            let sf = fields(j, &spath)?;
            check_unknown(sf, &["kind", "seed"], &spath)?;
            Some(SchedulerSpec {
                kind: req_str(sf, "kind", &spath)?,
                seed: req_u64(sf, "seed", &spath)?,
            })
        }
    };
    Ok(CellSpec {
        label: req_str(f, "label", path)?,
        instance: req_u64(f, "instance", path)?,
        scheme: req_str(f, "scheme", path)?,
        retries: opt_u64(f, "retries", path)?,
        mode: req_str(f, "mode", path)?,
        scheduler,
        anonymous: req_bool(f, "anonymous", path)?,
        max_message_bits: opt_u64(f, "max_message_bits", path)?,
        quiescence_polls: opt_u64(f, "quiescence_polls", path)?,
        seed: req_u64(f, "seed", path)?,
        faults: fault_from_json(req_field(f, "faults", path)?, &format!("{path}.faults"))?,
    })
}

fn fault_json(faults: &FaultSpec) -> Json {
    let crashes: Vec<Json> = faults
        .crashes
        .iter()
        .map(|&(v, k)| Json::Array(vec![Json::U64(v), Json::U64(k)]))
        .collect();
    Json::obj()
        .field("seed", faults.seed)
        .field("drop_ppm", faults.drop_ppm)
        .field("duplicate_ppm", faults.duplicate_ppm)
        .field("bit_flip_ppm", faults.bit_flip_ppm)
        .field("crashes", crashes)
        .field("advice", faults.advice.to_json())
}

fn fault_from_json(j: &Json, path: &str) -> Result<FaultSpec, String> {
    let f = fields(j, path)?;
    check_unknown(
        f,
        &[
            "seed",
            "drop_ppm",
            "duplicate_ppm",
            "bit_flip_ppm",
            "crashes",
            "advice",
        ],
        path,
    )?;
    let crashes = req_array(f, "crashes", path)?
        .iter()
        .enumerate()
        .map(|(i, j)| match j {
            Json::Array(pair) => match pair.as_slice() {
                [Json::U64(v), Json::U64(k)] => Ok((*v, *k)),
                _ => Err(format!("{path}.crashes[{i}]: expected a [node, k] pair")),
            },
            _ => Err(format!("{path}.crashes[{i}]: expected a [node, k] pair")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultSpec {
        seed: req_u64(f, "seed", path)?,
        drop_ppm: req_u64(f, "drop_ppm", path)?,
        duplicate_ppm: req_u64(f, "duplicate_ppm", path)?,
        bit_flip_ppm: req_u64(f, "bit_flip_ppm", path)?,
        crashes,
        advice: AdviceSpec::from_json(req_field(f, "advice", path)?, &format!("{path}.advice"))?,
    })
}

fn knobs_from_json(j: &Json, path: &str) -> Result<KnobSpec, String> {
    let f = fields(j, path)?;
    check_unknown(f, &["max_retries", "cell_timeout", "chunk"], path)?;
    Ok(KnobSpec {
        max_retries: req_u64(f, "max_retries", path)?,
        cell_timeout: opt_u64(f, "cell_timeout", path)?,
        chunk: opt_u64(f, "chunk", path)?,
    })
}

// ---- strict field access -------------------------------------------------

fn fields<'a>(j: &'a Json, path: &str) -> Result<&'a [(String, Json)], String> {
    match j {
        Json::Object(f) => Ok(f),
        _ => Err(format!("{path}: expected an object")),
    }
}

fn check_unknown(fields: &[(String, Json)], known: &[&str], path: &str) -> Result<(), String> {
    for (k, _) in fields {
        if !known.iter().any(|n| n == k) {
            return Err(format!("{path}: unknown field {k:?}"));
        }
    }
    Ok(())
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_field<'a>(fields: &'a [(String, Json)], key: &str, path: &str) -> Result<&'a Json, String> {
    get(fields, key).ok_or_else(|| format!("{path}: missing field {key:?}"))
}

fn req_array<'a>(
    fields: &'a [(String, Json)],
    key: &str,
    path: &str,
) -> Result<&'a [Json], String> {
    match get(fields, key) {
        Some(Json::Array(items)) => Ok(items),
        Some(_) => Err(format!("{path}.{key}: expected an array")),
        None => Err(format!("{path}: missing field {key:?}")),
    }
}

fn req_u64(fields: &[(String, Json)], key: &str, path: &str) -> Result<u64, String> {
    match get(fields, key) {
        Some(Json::U64(v)) => Ok(*v),
        Some(_) => Err(format!("{path}.{key}: expected an unsigned integer")),
        None => Err(format!("{path}: missing field {key:?}")),
    }
}

fn opt_u64(fields: &[(String, Json)], key: &str, path: &str) -> Result<Option<u64>, String> {
    match get(fields, key) {
        Some(Json::U64(v)) => Ok(Some(*v)),
        Some(_) => Err(format!("{path}.{key}: expected an unsigned integer")),
        None => Ok(None),
    }
}

fn req_str(fields: &[(String, Json)], key: &str, path: &str) -> Result<String, String> {
    match get(fields, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{path}.{key}: expected a string")),
        None => Err(format!("{path}: missing field {key:?}")),
    }
}

fn req_bool(fields: &[(String, Json)], key: &str, path: &str) -> Result<bool, String> {
    match get(fields, key) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{path}.{key}: expected a boolean")),
        None => Err(format!("{path}: missing field {key:?}")),
    }
}

// ---- artifact rendering --------------------------------------------------

/// Renders labeled reports as the deterministic grid fragment used by
/// every `BENCH_*.json` artifact: one record per cell plus an aggregate,
/// folded in cell order. This is the single renderer behind
/// `CellGrid::to_json` and the sweep service's merged artifacts — the
/// byte-identity contract between local and distributed runs rests on
/// both calling it.
pub fn grid_json(labels: &[String], reports: &[RunReport]) -> Json {
    let cells: Vec<Json> = labels
        .iter()
        .zip(reports)
        .enumerate()
        .map(|(i, (label, report))| {
            let base = Json::obj().field("cell", i).field("label", label.as_str());
            match &report.result {
                Ok(out) => base
                    .field("completed", out.completed)
                    .field("uninformed", out.uninformed)
                    .field("crashed_nodes", out.crashed_nodes)
                    .field("oracle_bits", out.oracle_bits)
                    .field("messages", out.metrics.messages)
                    .field("payload_bits", out.metrics.payload_bits)
                    .field("max_message_bits", out.metrics.max_message_bits)
                    .field("rounds", out.metrics.rounds)
                    .field("steps", out.metrics.steps)
                    .field("informed_nodes", out.metrics.informed_nodes)
                    .field("dropped", out.metrics.faults.dropped)
                    .field("duplicated", out.metrics.faults.duplicated)
                    .field("payload_flips", out.metrics.faults.payload_flips)
                    .field("advice_mutations", out.metrics.faults.advice_mutations),
                Err(e) => base.field("error", e.as_str()),
            }
        })
        .collect();
    Json::obj()
        .field("cells", cells)
        .field("aggregate", Aggregate::of(reports).to_json())
}

/// Wraps an experiment body in the committed artifact envelope:
/// `{"experiment": …, "seed": …, "body": …}`. The file on disk is this
/// render plus a trailing newline.
pub fn artifact_json(name: &str, master_seed: u64, body: Json) -> Json {
    Json::obj()
        .field("experiment", name.to_lowercase())
        .field("seed", master_seed)
        .field("body", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("demo", 2006);
        spec.instances.push(InstanceSpec {
            family: "random-connected".to_string(),
            n: 32,
            seed: 7,
            p_ppm: Some(to_ppm(0.08)),
            source: 0,
            oracle: "spanning-tree".to_string(),
        });
        spec.instances.push(InstanceSpec {
            family: "cycle".to_string(),
            n: 6,
            seed: 0,
            p_ppm: None,
            source: 2,
            oracle: "empty".to_string(),
        });
        spec.cells.push(CellSpec {
            label: "wakeup/fifo".to_string(),
            instance: 0,
            scheme: "tree-wakeup".to_string(),
            retries: None,
            mode: "wakeup".to_string(),
            scheduler: Some(SchedulerSpec {
                kind: "random".to_string(),
                seed: 41,
            }),
            anonymous: true,
            max_message_bits: Some(0),
            quiescence_polls: None,
            seed: 0,
            faults: FaultSpec::default(),
        });
        spec.cells.push(CellSpec {
            label: "flood".to_string(),
            instance: 1,
            scheme: "flood".to_string(),
            retries: Some(2),
            mode: "broadcast".to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: Some(16),
            seed: 9,
            faults: FaultSpec {
                seed: 3,
                drop_ppm: to_ppm(0.3),
                duplicate_ppm: 0,
                bit_flip_ppm: to_ppm(0.1),
                crashes: vec![(1, 0), (4, 2)],
                advice: AdviceSpec::Garbage {
                    prob_ppm: to_ppm(0.75),
                    bits: 40,
                },
            },
        });
        spec.knobs = KnobSpec {
            max_retries: 2,
            cell_timeout: Some(100_000),
            chunk: Some(1),
        };
        spec
    }

    #[test]
    fn round_trip_is_lossless() {
        let spec = rich_spec();
        let rendered = spec.render();
        let parsed = SweepSpec::parse(&rendered).expect("parse");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.render(), rendered);
        assert_eq!(parsed.digest(), spec.digest());
    }

    #[test]
    fn ppm_round_trips_experiment_probabilities() {
        for p in [0.0, 0.08, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0] {
            assert_eq!(from_ppm(to_ppm(p)), p, "{p}");
        }
    }

    #[test]
    fn unknown_fields_are_rejected_with_a_path() {
        let j = rich_spec().to_json().field("extra", 1u64);
        let err = SweepSpec::from_json(&j).unwrap_err();
        assert_eq!(err, "spec: unknown field \"extra\"");
    }

    #[test]
    fn mistyped_fields_are_rejected_with_a_path() {
        let rendered = rich_spec()
            .render()
            .replace("\"master_seed\": 2006", "\"master_seed\": \"2006\"");
        let err = SweepSpec::parse(&rendered).unwrap_err();
        assert_eq!(err, "spec.master_seed: expected an unsigned integer");
    }

    #[test]
    fn nested_unknown_fields_name_the_cell() {
        let mut j = rich_spec().to_json();
        if let Json::Object(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "cells" {
                    if let Json::Array(cells) = v {
                        let cell = cells[1].clone().field("typo", true);
                        cells[1] = cell;
                    }
                }
            }
        }
        let err = SweepSpec::from_json(&j).unwrap_err();
        assert_eq!(err, "cells[1]: unknown field \"typo\"");
    }

    #[test]
    fn instance_index_out_of_range_is_rejected() {
        let mut spec = rich_spec();
        spec.cells[0].instance = 9;
        let err = SweepSpec::parse(&spec.render()).unwrap_err();
        assert_eq!(err, "cells[0].instance: index 9 out of range (2 instances)");
    }

    #[test]
    fn sim_config_lowering_matches_builders() {
        let spec = rich_spec();
        let cfg = spec.cells[0].sim_config().expect("config");
        assert!(!cfg.synchronous);
        assert_eq!(cfg.scheduler, SchedulerKind::Random { seed: 41 });
        assert!(cfg.anonymous);
        assert_eq!(cfg.max_message_bits, Some(0));
        let cfg = spec.cells[1].sim_config().expect("config");
        assert!(cfg.synchronous);
        assert_eq!(cfg.max_quiescence_polls, 16);
        assert_eq!(cfg.faults.crashes.len(), 2);
        assert_eq!(cfg.faults.drop_prob, 0.3);
        let mut bad = spec.cells[0].clone();
        bad.mode = "gossip".to_string();
        assert!(bad.sim_config().unwrap_err().contains("unknown mode"));
    }

    #[test]
    fn scheduler_spec_round_trips_kinds() {
        for kind in SchedulerKind::sweep(99) {
            assert_eq!(SchedulerSpec::of(kind).scheduler(), Ok(kind));
        }
        let bad = SchedulerSpec {
            kind: "psychic".to_string(),
            seed: 0,
        };
        assert!(bad.scheduler().unwrap_err().contains("psychic"));
    }

    #[test]
    fn artifact_envelope_matches_emit_json_shape() {
        let j = artifact_json("T10", 2006, Json::obj().field("cells", Vec::<Json>::new()));
        assert_eq!(
            j.render(),
            "{\"experiment\": \"t10\", \"seed\": 2006, \"body\": {\"cells\": []}}"
        );
    }
}
