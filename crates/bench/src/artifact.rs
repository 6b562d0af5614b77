//! The one JSON codec behind every committed artifact, and the
//! `rtdvs-bench/v1` schema.
//!
//! Every `BENCH_*.json` file and every minimized repro goes through this
//! module and nothing else: [`Json`] is the value tree, its `Display` is
//! the single writer, [`Json::parse`] the single (tolerant) reader, and
//! [`Artifact`] gives each schema its document, canonical form, schema
//! check and golden [`Artifact::diff`] from one `to_tree`/`from_tree`
//! pair. The writer's layout is fixed: two-space indent; a container
//! whose members are all scalars or arrays of scalars goes on one line,
//! any other container puts one member per line; every string is
//! escaped. A committed file must be exactly what its schema's writer
//! writes for the value its reader reads ([`Artifact::read_exact`]), so
//! hand edits, layout drift, extra digits and unknown members all fail
//! the gates, each named by its line.
//!
//! Schema `rtdvs-bench/v1`:
//!
//! ```json
//! {
//!   "schema": "rtdvs-bench/v1",
//!   "meta": {
//!     "seed": 24301,
//!     "threads": 4,
//!     "grid": {"label": "paper-figures", "n_tasks": [5, 10, 15], "utilizations": [0.0500, ...], "sets_per_point": 50, "duration_ms": 2000.000, "policies": ["EDF", ...]}
//!   },
//!   "series": [
//!     {
//!       "policy": "ccEDF",
//!       "n_tasks": 5,
//!       "points": [
//!         {"u": 0.0500, "energy_norm": 0.500000, "deadline_miss": 0, "fault_miss": 0},
//!         ...
//!       ]
//!     },
//!     ...
//!   ],
//!   "wall_ms": 1234
//! }
//! ```
//!
//! Soak artifacts (grid labels `"chaos-soak"`, `"mode-churn"`,
//! `"regulator-soak"` and `"clock-soak"`, see `crate::soak`) reuse the
//! schema with reinterpreted axes: `u` is the adversity rate,
//! `energy_norm` is the run's energy against the same policy's clean run
//! at the same seeds, `deadline_miss` counts policy-blamed misses (plus,
//! on the kernel soaks, non-miss audit findings), and `fault_miss` counts
//! the misses an injected adversity excuses. The guaranteed-policy
//! zero-miss check then enforces "adversity never turns into a policy
//! bug" mechanically.
//!
//! The tolerant reader, [`Artifact::from_json`], looks members up by name
//! and ignores object keys it does not know, so an artifact written by a
//! newer producer with extra members still parses; a committed file is
//! read through [`Artifact::read_exact`], which refuses them.
//!
//! Everything except each schema's [`Artifact::PROVENANCE`] members (for
//! `rtdvs-bench/v1`, `meta.threads` and `wall_ms`) is a pure function of
//! the experiment seed; [`Artifact::canonical_json`] zeroes those, and the
//! determinism suite asserts the canonical form is byte-identical across
//! thread counts. The workspace has no registry dependencies, so the
//! codec is hand-rolled here.

use std::fmt;

use crate::soak::Soak;
use crate::sweep::Sweep;

/// Policies whose schedulability guarantee makes any deadline miss a bug
/// (the EDF family; RM-based policies legitimately miss above the RM
/// bound).
pub const GUARANTEED_POLICIES: [&str; 4] = ["EDF", "StaticEDF", "ccEDF", "laEDF"];

/// A committed artifact schema. Implementors supply one
/// [`Artifact::to_tree`]/[`Artifact::from_tree`] pair; the document text,
/// its canonical form, the schema check and the golden diff follow from
/// it.
pub trait Artifact: Sized {
    /// Schema identifier written into, and required from, every document.
    const SCHEMA: &'static str;

    /// Names of the members, at any depth, that record how a run went
    /// (wall clock, thread count, measured rates) rather than what it
    /// computed. [`Artifact::canonical_json`] zeroes them.
    const PROVENANCE: &'static [&'static str];

    /// The document's members after `schema`, as an object.
    fn to_tree(&self) -> Json;

    /// Reads what [`Artifact::to_tree`] writes, by name, ignoring members
    /// it does not know.
    ///
    /// # Errors
    ///
    /// Returns the first missing or ill-typed member.
    fn from_tree(tree: &Json) -> Result<Self, ArtifactError>;

    /// Serializes the artifact, provenance included.
    #[must_use]
    fn to_json(&self) -> String {
        format!("{}\n", document(self, false))
    }

    /// Serializes with every [`Artifact::PROVENANCE`] member zeroed: the
    /// deterministic payload. Two runs of the same shape and seed must
    /// produce byte-identical canonical JSON.
    #[must_use]
    fn canonical_json(&self) -> String {
        format!("{}\n", document(self, true))
    }

    /// Parses an artifact back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem: malformed JSON, wrong schema
    /// identifier, or a missing/ill-typed member.
    fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let tree = Json::parse(text)?;
        let schema = tree.get("schema")?.as_str()?;
        if schema != Self::SCHEMA {
            return Err(ArtifactError(format!(
                "schema mismatch: artifact says {schema:?}, reader speaks {:?}",
                Self::SCHEMA
            )));
        }
        Self::from_tree(&tree)
    }

    /// Reads a committed artifact exactly: `text` must be what
    /// [`Artifact::to_json`] writes for the value [`Artifact::from_json`]
    /// reads from it, byte for byte. So a member the reader ignores, a
    /// number written with digits the writer does not keep, or a space
    /// outside the writer's layout is refused, where the tolerant reader
    /// would read past it.
    ///
    /// # Errors
    ///
    /// Returns the reader's error, or names the first line the rewrite
    /// changes.
    fn read_exact(text: &str) -> Result<Self, ArtifactError> {
        let art = Self::from_json(text)?;
        let written = art.to_json();
        if written == text {
            return Ok(art);
        }
        let line = 1 + written
            .lines()
            .zip(text.lines())
            .take_while(|(a, b)| a == b)
            .count();
        Err(ArtifactError(format!(
            "line {line} is not what the writer writes for the value read (read→write must reproduce the file)"
        )))
    }

    /// Every path at which `fresh`'s canonical tree differs from this
    /// golden's, as `path: fresh vs golden` (e.g. `panels[3].rows[0].events:
    /// 237184 vs golden 237183`). Empty exactly when the canonical documents are
    /// byte-identical.
    #[must_use]
    fn diff(&self, fresh: &Self) -> Vec<String> {
        let mut problems = Vec::new();
        diff_trees(
            "",
            &document(self, true),
            &document(fresh, true),
            &mut problems,
        );
        problems
    }
}

/// `art`'s full document: `schema` first, then its tree, with provenance
/// zeroed when `canonical`.
fn document<A: Artifact>(art: &A, canonical: bool) -> Json {
    let mut tree = art.to_tree();
    if canonical {
        zero_members(&mut tree, A::PROVENANCE);
    }
    if let Json::Obj(members) = &mut tree {
        members.insert(0, ("schema".to_owned(), A::SCHEMA.into()));
    }
    tree
}

fn zero_members(tree: &mut Json, keys: &[&str]) {
    match tree {
        Json::Obj(members) => {
            for (key, value) in members {
                if keys.contains(&key.as_str()) {
                    *value = 0u64.into();
                } else {
                    zero_members(value, keys);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| zero_members(v, keys)),
        _ => {}
    }
}

fn diff_trees(path: &str, golden: &Json, fresh: &Json, problems: &mut Vec<String>) {
    match (golden, fresh) {
        (Json::Obj(g), Json::Obj(f)) => {
            let names = |m: &[(String, Json)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if names(g) != names(f) {
                problems.push(format!(
                    "{path}: members {:?} vs golden {:?}",
                    names(f),
                    names(g)
                ));
                return;
            }
            for ((key, gv), (_, fv)) in g.iter().zip(f) {
                let member = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                diff_trees(&member, gv, fv, problems);
            }
        }
        (Json::Arr(g), Json::Arr(f)) => {
            if g.len() != f.len() {
                problems.push(format!("{path}: {} items vs golden {}", f.len(), g.len()));
            }
            for (i, (gv, fv)) in g.iter().zip(f).enumerate() {
                diff_trees(&format!("{path}[{i}]"), gv, fv, problems);
            }
        }
        _ if golden != fresh => problems.push(format!("{path}: {fresh} vs golden {golden}")),
        _ => {}
    }
}

/// One plotted point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    /// Worst-case utilization (x axis).
    pub u: f64,
    /// Mean energy normalized against plain EDF (y axis). Soak grids
    /// normalize against the same policy's clean run instead.
    pub energy_norm: f64,
    /// Total deadline misses across the point's task sets. Soak grids
    /// count only misses classified as policy bugs here.
    pub deadline_miss: u64,
    /// Misses attributed to injected adversity. Always 0 outside soak
    /// grids.
    pub fault_miss: u64,
}

/// One curve: a policy on one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSeries {
    /// Policy name (a [`rtdvs_core::policy::PolicyKind::name`]).
    pub policy: String,
    /// Tasks per set in this panel (panels distinguish Figures 6/7/8).
    pub n_tasks: usize,
    /// The curve, in utilization-grid order.
    pub points: Vec<BenchPoint>,
}

/// Grid metadata: everything needed to regenerate the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchGrid {
    /// Human label for the grid ("paper-figures", "chaos-soak", ...).
    pub label: String,
    /// Panel sizes (tasks per set).
    pub n_tasks: Vec<usize>,
    /// Utilization grid.
    pub utilizations: Vec<f64>,
    /// Task sets averaged per grid point.
    pub sets_per_point: usize,
    /// Simulated horizon per run, milliseconds.
    pub duration_ms: f64,
    /// Policy column order.
    pub policies: Vec<String>,
}

/// A complete benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Experiment seed every stream derives from.
    pub seed: u64,
    /// Worker threads that produced this artifact (provenance only — the
    /// series are thread-count-invariant).
    pub threads: usize,
    /// The grid that was run.
    pub grid: BenchGrid,
    /// All curves.
    pub series: Vec<BenchSeries>,
    /// Wall-clock of the producing run, milliseconds (provenance only).
    pub wall_ms: u64,
}

impl Artifact for BenchArtifact {
    const SCHEMA: &'static str = "rtdvs-bench/v1";
    const PROVENANCE: &'static [&'static str] = &["threads", "wall_ms"];

    fn to_tree(&self) -> Json {
        let g = &self.grid;
        let grid = Json::obj([
            ("label", g.label.as_str().into()),
            ("n_tasks", g.n_tasks.iter().map(|&n| n.into()).collect()),
            (
                "utilizations",
                g.utilizations.iter().map(|&u| Json::fixed(u, 4)).collect(),
            ),
            ("sets_per_point", g.sets_per_point.into()),
            ("duration_ms", Json::fixed(g.duration_ms, 3)),
            (
                "policies",
                g.policies.iter().map(|p| p.as_str().into()).collect(),
            ),
        ]);
        let point = |p: &BenchPoint| {
            Json::obj([
                ("u", Json::fixed(p.u, 4)),
                ("energy_norm", Json::fixed(p.energy_norm, 6)),
                ("deadline_miss", p.deadline_miss.into()),
                ("fault_miss", p.fault_miss.into()),
            ])
        };
        let series = |s: &BenchSeries| {
            Json::obj([
                ("policy", s.policy.as_str().into()),
                ("n_tasks", s.n_tasks.into()),
                ("points", s.points.iter().map(point).collect()),
            ])
        };
        let meta = [
            ("seed", self.seed.into()),
            ("threads", self.threads.into()),
            ("grid", grid),
        ];
        Json::obj([
            ("meta", Json::obj(meta)),
            ("series", self.series.iter().map(series).collect()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }

    fn from_tree(tree: &Json) -> Result<Self, ArtifactError> {
        let meta = tree.get("meta")?;
        let grid = meta.get("grid")?;
        Ok(BenchArtifact {
            seed: meta.get("seed")?.as_u64()?,
            threads: meta.get("threads")?.as_usize()?,
            grid: BenchGrid {
                label: grid.get("label")?.as_str()?.to_owned(),
                n_tasks: grid.get("n_tasks")?.list(Json::as_usize)?,
                utilizations: grid.get("utilizations")?.list(Json::as_f64)?,
                sets_per_point: grid.get("sets_per_point")?.as_usize()?,
                duration_ms: grid.get("duration_ms")?.as_f64()?,
                policies: grid.get("policies")?.list(|p| Ok(p.as_str()?.to_owned()))?,
            },
            series: tree.get("series")?.list(|s| {
                Ok(BenchSeries {
                    policy: s.get("policy")?.as_str()?.to_owned(),
                    n_tasks: s.get("n_tasks")?.as_usize()?,
                    points: s.get("points")?.list(|p| {
                        Ok(BenchPoint {
                            u: p.get("u")?.as_f64()?,
                            energy_norm: p.get("energy_norm")?.as_f64()?,
                            deadline_miss: p.get("deadline_miss")?.as_u64()?,
                            fault_miss: p.get("fault_miss")?.as_u64()?,
                        })
                    })?,
                })
            })?,
            wall_ms: tree.get("wall_ms")?.as_u64()?,
        })
    }
}

impl BenchArtifact {
    /// Builds the series for one sweep panel: every policy's normalized
    /// energy curve plus per-point deadline misses.
    #[must_use]
    pub fn panel_series(sweep: &Sweep, n_tasks: usize) -> Vec<BenchSeries> {
        (0..sweep.policy_names.len())
            .map(|p| BenchSeries {
                policy: sweep.policy_names[p].to_owned(),
                n_tasks,
                points: sweep
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| BenchPoint {
                        u: row.utilization,
                        energy_norm: sweep.normalized(i, p),
                        deadline_miss: row.misses[p],
                        fault_miss: 0,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Structural invariants any well-formed artifact must satisfy,
    /// independent of a golden to compare against: every series covers the
    /// whole utilization grid, plain EDF normalizes to 1, guaranteed
    /// policies never miss, and energies are positive and finite. Returns
    /// one message per violation.
    ///
    /// Soak grids normalize each policy against its own clean run, so the
    /// EDF-normalizes-to-1 check does not apply there; the
    /// guaranteed-policy check does (and, because those artifacts put
    /// only policy-blamed misses in `deadline_miss`, it enforces that no
    /// injected adversity was ever misclassified as a policy bug).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let soak = Soak::ALL.iter().any(|s| s.label() == self.grid.label);
        let mut problems = Vec::new();
        let expected_series = self.grid.policies.len() * self.grid.n_tasks.len();
        if self.series.len() != expected_series {
            problems.push(format!(
                "expected {expected_series} series ({} policies × {} panels), found {}",
                self.grid.policies.len(),
                self.grid.n_tasks.len(),
                self.series.len()
            ));
        }
        for series in &self.series {
            let tag = format!("{}/{} tasks", series.policy, series.n_tasks);
            if series.points.len() != self.grid.utilizations.len() {
                problems.push(format!(
                    "{tag}: {} points for a {}-point utilization grid",
                    series.points.len(),
                    self.grid.utilizations.len()
                ));
            }
            for point in &series.points {
                if point.energy_norm <= 0.0 || !point.energy_norm.is_finite() {
                    problems.push(format!(
                        "{tag}: non-positive or non-finite energy {} at U={}",
                        point.energy_norm, point.u
                    ));
                }
                if !soak && series.policy == "EDF" && (point.energy_norm - 1.0).abs() > 1e-9 {
                    problems.push(format!(
                        "{tag}: EDF normalization is {} at U={}, must be 1",
                        point.energy_norm, point.u
                    ));
                }
                if GUARANTEED_POLICIES.contains(&series.policy.as_str()) && point.deadline_miss != 0
                {
                    problems.push(format!(
                        "{tag}: {} deadline miss(es) at U={} from a policy whose \
                         schedulability guarantee forbids them",
                        point.deadline_miss, point.u
                    ));
                }
            }
        }
        problems
    }
}

/// A parse or schema error, with the offending member or byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

/// A JSON value. Numbers keep their text, so 64-bit seeds and
/// fixed-precision floats round-trip without `f64` truncation; objects
/// keep their member order. `Display` is the writer (see the module docs
/// for its layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl Json {
    /// An object with these members, in order.
    #[must_use]
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// A float with a fixed number of decimals: the writer's one float
    /// format, identical on every platform.
    #[must_use]
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// A float as its IEEE-754 bit pattern (16 hex digits), for values
    /// that must replay bit-exactly; read back with [`Json::as_bits`].
    #[must_use]
    pub fn bits(x: f64) -> Json {
        Json::Str(format!("{:016x}", x.to_bits()))
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset, or nesting
    /// deeper than the reader accepts.
    pub fn parse(text: &str) -> Result<Json, ArtifactError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ArtifactError(format!("trailing content at byte {pos}")));
        }
        Ok(value)
    }

    /// The member named `key`.
    ///
    /// # Errors
    ///
    /// Fails if this is not an object or has no such member.
    pub fn get(&self, key: &str) -> Result<&Json, ArtifactError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ArtifactError(format!("missing field {key:?}"))),
            _ => Err(ArtifactError(format!("expected object around {key:?}"))),
        }
    }

    /// The string value.
    ///
    /// # Errors
    ///
    /// Fails if this is not a string.
    pub fn as_str(&self) -> Result<&str, ArtifactError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(ArtifactError(format!("expected string, found {other:?}"))),
        }
    }

    /// The boolean value.
    ///
    /// # Errors
    ///
    /// Fails if this is not a boolean.
    pub fn as_bool(&self) -> Result<bool, ArtifactError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(ArtifactError(format!("expected bool, found {other:?}"))),
        }
    }

    /// Reads every item of an array with `item`.
    ///
    /// # Errors
    ///
    /// Fails if this is not an array, or with the first item's error.
    pub fn list<T>(
        &self,
        item: impl FnMut(&Json) -> Result<T, ArtifactError>,
    ) -> Result<Vec<T>, ArtifactError> {
        match self {
            Json::Arr(items) => items.iter().map(item).collect(),
            other => Err(ArtifactError(format!("expected array, found {other:?}"))),
        }
    }

    /// The finite float value.
    ///
    /// # Errors
    ///
    /// Fails if this is not a number, or if it overflows to an infinity
    /// (`1e999`): no artifact value is legitimately non-finite.
    pub fn as_f64(&self) -> Result<f64, ArtifactError> {
        match self {
            Json::Num(raw) => match raw.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(ArtifactError(format!("non-finite number {raw:?}"))),
                Err(e) => Err(ArtifactError(format!("bad number {raw:?}: {e}"))),
            },
            other => Err(ArtifactError(format!("expected number, found {other:?}"))),
        }
    }

    /// The unsigned integer value.
    ///
    /// # Errors
    ///
    /// Fails if this is not a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Result<u64, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|e| ArtifactError(format!("bad integer {raw:?}: {e}"))),
            other => Err(ArtifactError(format!("expected integer, found {other:?}"))),
        }
    }

    /// The unsigned integer value as a `usize`.
    ///
    /// # Errors
    ///
    /// As [`Json::as_u64`], or if the value does not fit a `usize`.
    pub fn as_usize(&self) -> Result<usize, ArtifactError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| ArtifactError(format!("integer {v} overflows usize")))
    }

    /// A float written by [`Json::bits`].
    ///
    /// # Errors
    ///
    /// Fails if this is not a string of hex digits that fits 64 bits.
    pub fn as_bits(&self) -> Result<f64, ArtifactError> {
        let s = self.as_str()?;
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|e| ArtifactError(format!("bad bit pattern {s:?}: {e}")))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        f.write_str(&out)
    }
}

fn write_value(out: &mut String, value: &Json, indent: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            write_container(out, ('[', ']'), items.iter().map(|v| (None, v)), indent);
        }
        Json::Obj(members) => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_container(out, ('{', '}'), members, indent);
        }
    }
}

/// Writes an array (every key `None`) or an object: on one line when
/// every member is a scalar or an array of scalars, else one member per
/// line.
fn write_container<'a>(
    out: &mut String,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    indent: usize,
) {
    let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
    let one_line = members.clone().all(|(_, v)| match v {
        Json::Arr(items) => items.iter().all(scalar),
        other => scalar(other),
    });
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !one_line {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, value, indent + 2);
    }
    // An empty container is one-line.
    if !one_line {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// Writes `s` quoted, escaping `"`, `\` and every control character.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), ArtifactError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(ArtifactError(format!(
            "expected {:?} at byte {}",
            byte as char, *pos
        )))
    }
}

/// Deepest array/object nesting the reader accepts. Real artifacts nest
/// at most 4 levels; the cap keeps hostile input from exhausting the
/// stack through `parse_value`'s recursion.
const MAX_NESTING: usize = 16;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ArtifactError> {
    skip_ws(bytes, pos);
    if depth >= MAX_NESTING && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(ArtifactError(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(ArtifactError(format!("unterminated object at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ArtifactError(format!("unterminated array at byte {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(ArtifactError(format!("unexpected byte at {start}")));
            }
            let raw = core::str::from_utf8(&bytes[start..*pos])
                .expect("numeric bytes are ASCII")
                .to_owned();
            Ok(Json::Num(raw))
        }
        None => Err(ArtifactError("unexpected end of input".to_owned())),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ArtifactError> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let (ch, len) = match bytes.get(*pos + 1) {
                    Some(b'"') => ('"', 2),
                    Some(b'\\') => ('\\', 2),
                    Some(b'/') => ('/', 2),
                    Some(b'b') => ('\u{8}', 2),
                    Some(b'f') => ('\u{c}', 2),
                    Some(b'n') => ('\n', 2),
                    Some(b'r') => ('\r', 2),
                    Some(b't') => ('\t', 2),
                    Some(b'u') => {
                        let scalar = bytes
                            .get(*pos + 2..*pos + 6)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| core::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| {
                                ArtifactError(format!("bad \\u escape in string at byte {start}"))
                            })?;
                        (scalar, 6)
                    }
                    other => {
                        return Err(ArtifactError(format!(
                            "unsupported escape {other:?} in string at byte {start}"
                        )))
                    }
                };
                out.push(ch);
                *pos += len;
            }
            byte if byte < 0x80 => {
                out.push(byte as char);
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8: copy the full scalar.
                let rest = core::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| ArtifactError(format!("invalid UTF-8 at byte {pos}")))?;
                let ch = rest.chars().next().expect("non-empty by construction");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err(ArtifactError(format!(
        "unterminated string at byte {start}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignArtifact, ReproArtifact};
    use crate::ops::OpsArtifact;
    use crate::tenants::TenantsArtifact;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            seed: 0x5eed,
            threads: 4,
            grid: BenchGrid {
                label: "paper-figures".to_owned(),
                n_tasks: vec![8],
                utilizations: vec![0.5, 0.9],
                sets_per_point: 2,
                duration_ms: 600.0,
                policies: vec!["EDF".to_owned(), "ccEDF".to_owned()],
            },
            series: vec![
                BenchSeries {
                    policy: "EDF".to_owned(),
                    n_tasks: 8,
                    points: vec![
                        BenchPoint {
                            u: 0.5,
                            energy_norm: 1.0,
                            deadline_miss: 0,
                            fault_miss: 0,
                        },
                        BenchPoint {
                            u: 0.9,
                            energy_norm: 1.0,
                            deadline_miss: 0,
                            fault_miss: 0,
                        },
                    ],
                },
                BenchSeries {
                    policy: "ccEDF".to_owned(),
                    n_tasks: 8,
                    points: vec![
                        BenchPoint {
                            u: 0.5,
                            energy_norm: 0.51,
                            deadline_miss: 0,
                            fault_miss: 0,
                        },
                        BenchPoint {
                            u: 0.9,
                            energy_norm: 0.87,
                            deadline_miss: 0,
                            fault_miss: 0,
                        },
                    ],
                },
            ],
            wall_ms: 321,
        }
    }

    #[test]
    fn large_seed_round_trips_exactly() {
        let mut art = sample();
        art.seed = u64::MAX - 3; // not representable in f64
        let parsed = BenchArtifact::from_json(&art.to_json()).expect("round trip");
        assert_eq!(parsed.seed, u64::MAX - 3);
    }

    #[test]
    fn canonical_json_hides_threads_and_wall() {
        let mut a = sample();
        let mut b = sample();
        a.threads = 1;
        a.wall_ms = 10;
        b.threads = 4;
        b.wall_ms = 99;
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in ["", "{", "{\"a\" 1}", "[1,", "{\"a\": 1} trailing"] {
            assert!(BenchArtifact::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_recursing() {
        let err = BenchArtifact::from_json(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(err.0.contains("nesting"), "{err}");
        // The cap leaves room for every real artifact's 4 levels.
        assert!(Json::parse("[[[[{\"a\": [1]}]]]]").is_ok());
    }

    #[test]
    fn every_json_escape_decodes_and_bad_ones_are_rejected() {
        let text = r#""q\"\\\/\b\f\n\r\t\u00e9\u2713""#;
        let expected = "q\"\\/\u{8}\u{c}\n\r\té✓";
        assert_eq!(Json::parse(text), Ok(Json::Str(expected.to_owned())));
        for bad in [r#""\x""#, r#""\u12""#, r#""\u+fff""#, r#""\ud800""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // `1e999` overflows f64 parsing to infinity; neither the reader nor
        // `validate` may let an infinite energy through.
        let text =
            sample()
                .to_json()
                .replacen("\"energy_norm\": 0.510000", "\"energy_norm\": 1e999", 1);
        assert!(text.contains("1e999"));
        let err = BenchArtifact::from_json(&text).expect_err("infinite energy");
        assert!(err.0.contains("non-finite"), "{err}");
        let mut art = sample();
        art.series[1].points[0].energy_norm = f64::INFINITY;
        assert_eq!(art.validate().len(), 1, "{:?}", art.validate());
    }

    #[test]
    fn validate_flags_guarantee_violations() {
        let mut art = sample();
        assert!(art.validate().is_empty());
        art.series[0].points[0].energy_norm = 1.2; // EDF must stay 1.0
        art.series[1].points[0].deadline_miss = 2; // ccEDF must never miss
        let problems = art.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validate_flags_missing_series() {
        let mut art = sample();
        art.series.pop();
        assert!(!art.validate().is_empty());
    }

    #[test]
    fn a_point_without_fault_miss_is_refused() {
        let text = sample().to_json().replacen(", \"fault_miss\": 0", "", 1);
        let err = BenchArtifact::from_json(&text).expect_err("fault_miss is required");
        assert_eq!(err.0, "missing field \"fault_miss\"");
    }

    #[test]
    fn soak_grids_skip_the_edf_normalization_check_only() {
        for soak in Soak::ALL {
            let mut art = sample();
            art.grid.label = soak.label().to_owned();
            // Soaks normalize per policy, so EDF ≠ 1 is legitimate there...
            art.series[0].points[1].energy_norm = 1.07;
            art.series[0].points[1].fault_miss = 3;
            assert!(art.validate().is_empty(), "{soak:?}: {:?}", art.validate());
            // ...but a policy-blamed miss from a guaranteed policy is still
            // a finding.
            art.series[1].points[0].deadline_miss = 1;
            assert_eq!(art.validate().len(), 1, "{soak:?}");
        }
    }

    #[test]
    fn layout_is_a_fixed_point_and_drift_is_named() {
        let nested = Json::obj([
            (
                "flat",
                Json::obj([("a", Json::Arr(vec![])), ("b", "x".into())]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let expected = "{\n  \"flat\": {\"a\": [], \"b\": \"x\"},\n  \"empty\": {}\n}";
        assert_eq!(nested.to_string(), expected);
        let bench = [
            PAPER_FIGURES,
            SOAK_FAULTS,
            SOAK_MODES,
            SOAK_REGULATOR,
            SOAK_CLOCK,
        ];
        for golden in bench {
            assert!(
                BenchArtifact::read_exact(golden).is_ok(),
                "a golden drifted"
            );
        }
        assert!(OpsArtifact::read_exact(OPS).is_ok());
        assert!(TenantsArtifact::read_exact(TENANTS).is_ok());
        assert!(CampaignArtifact::read_exact(CAMPAIGN).is_ok());
        assert!(ReproArtifact::read_exact(REPRO).is_ok());

        let text = sample().to_json();
        assert_eq!(BenchArtifact::read_exact(&text), Ok(sample()));
        // Each edit still reads, but is not what the writer writes: a space
        // out of layout, a missing final newline, a digit the writer does
        // not keep, an unknown member.
        let edits = [
            (text.replacen("\"seed\": 24301", "\"seed\":  24301", 1), 4),
            (text.trim_end().to_owned(), text.lines().count() + 1),
            (edit_line(PAPER_FIGURES, 39, "0.359900,", "0.3599004,"), 39),
            (
                edit_line(
                    SOAK_FAULTS,
                    13,
                    "\"fault_miss\": 0}",
                    "\"fault_miss\": 0, \"x_note\": 7}",
                ),
                13,
            ),
        ];
        for (edited, line) in edits {
            assert!(BenchArtifact::from_json(&edited).is_ok());
            let err = BenchArtifact::read_exact(&edited).expect_err("an edit");
            assert!(err.0.starts_with(&format!("line {line} ")), "{err}");
        }
    }

    /// `text` with `from` replaced by `to` on its (1-based) line `line`.
    fn edit_line(text: &str, line: usize, from: &str, to: &str) -> String {
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i + 1 == line {
                    assert!(l.contains(from), "line {line} is {l:?}");
                    l.replacen(from, to, 1)
                } else {
                    l.to_owned()
                }
            })
            .collect();
        format!("{}\n", lines.join("\n"))
    }

    const PAPER_FIGURES: &str = include_str!("../../../BENCH_paper_figures.json");
    const SOAK_FAULTS: &str = include_str!("../../../BENCH_faults.json");
    const SOAK_MODES: &str = include_str!("../../../BENCH_modes.json");
    const SOAK_REGULATOR: &str = include_str!("../../../BENCH_regulator.json");
    const SOAK_CLOCK: &str = include_str!("../../../BENCH_clock.json");
    const OPS: &str = include_str!("../../../BENCH_ops.json");
    const TENANTS: &str = include_str!("../../../BENCH_tenants.json");
    const CAMPAIGN: &str = include_str!("../../../BENCH_campaign.json");
    const REPRO: &str = include_str!("../../../results/repro_availability_floor.json");

    /// A string no artifact should mangle: quote, backslash, newline, tab,
    /// another control character and non-ASCII text.
    const NASTY: &str = "q\"b\\n\nt\tc\u{1}\u{7f} é ✓";

    /// Adds an unknown member, holding every kind of value, to every
    /// object in `tree`.
    fn add_unknown_members(tree: &mut Json) {
        match tree {
            Json::Obj(members) => {
                members.iter_mut().for_each(|(_, v)| add_unknown_members(v));
                let unknown = Json::obj([
                    ("n", Json::Null),
                    ("s", NASTY.into()),
                    ("a", Json::Arr(vec![true.into(), 1u64.into()])),
                ]);
                members.insert(0, ("x_unknown".to_owned(), unknown));
            }
            Json::Arr(items) => items.iter_mut().for_each(add_unknown_members),
            _ => {}
        }
    }

    /// An edit of one member, and the path at which `diff` must name it.
    type Drift<A> = (fn(&mut A), &'static str);

    /// The codec contract, on one schema's `sample`: it round-trips to the
    /// same value and text, a wrong schema is rejected, an unknown member
    /// in every object is ignored, `text` (a string member, if the schema
    /// has one) survives [`NASTY`] escaped on one line, and `diff` names
    /// exactly the member each of `drifts` changes, at its path.
    fn codec_contract<A: Artifact + Clone + PartialEq + fmt::Debug>(
        sample: &A,
        text: Option<fn(&mut A) -> &mut String>,
        drifts: &[Drift<A>],
    ) {
        let json = sample.to_json();
        let back = A::from_json(&json).expect("round trip");
        assert_eq!(&back, sample);
        assert_eq!(back.to_json(), json);
        assert_eq!(back.canonical_json(), sample.canonical_json());
        assert_eq!(sample.diff(&back), Vec::<String>::new());

        let err =
            A::from_json(&json.replacen(A::SCHEMA, "rtdvs-other/v0", 1)).expect_err("wrong schema");
        assert!(err.0.contains("schema mismatch"), "{err}");

        let mut tree = Json::parse(&json).expect("the writer's output parses");
        add_unknown_members(&mut tree);
        let extended = tree.to_string();
        assert!(extended.contains("x_unknown"));
        assert_eq!(&A::from_json(&extended).expect("tolerant parse"), sample);

        if let Some(field) = text {
            let mut art = sample.clone();
            *field(&mut art) = NASTY.to_owned();
            let json = art.to_json();
            assert!(
                !json.contains(['\t', '\u{1}', '\u{7f}']),
                "raw control: {json}"
            );
            assert_eq!(json.lines().count(), sample.to_json().lines().count());
            assert_eq!(A::from_json(&json).expect("escaped string parses"), art);
        }

        for (drift, drifted) in drifts {
            let mut art = sample.clone();
            drift(&mut art);
            let problems = sample.diff(&art);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(
                problems[0].starts_with(&format!("{drifted}: ")),
                "{problems:?}"
            );
        }
    }

    #[test]
    fn every_schema_obeys_the_codec_contract() {
        let paper = BenchArtifact::from_json(PAPER_FIGURES).expect("golden");
        codec_contract(
            &paper,
            Some(|a| &mut a.grid.label),
            &[
                (
                    |a| a.series[1].points[0].deadline_miss += 1,
                    "series[1].points[0].deadline_miss",
                ),
                (
                    |a| a.series[1].points[1].fault_miss += 2,
                    "series[1].points[1].fault_miss",
                ),
                (|a| a.grid.sets_per_point += 1, "meta.grid.sets_per_point"),
                (
                    |a| a.series[1].points[0].energy_norm = f64::NAN,
                    "series[1].points[0].energy_norm",
                ),
                (
                    |a| a.series[1].points[1].energy_norm *= 1.005,
                    "series[1].points[1].energy_norm",
                ),
            ],
        );

        let ops = OpsArtifact::from_json(OPS).expect("golden");
        assert_eq!(ops.validate(), Vec::<String>::new());
        codec_contract(
            &ops,
            Some(|a| &mut a.panels[0].rows[0].policy),
            &[(
                |a| a.panels[3].rows[5].ops.timer_ops += 1,
                "panels[3].rows[5].timer_ops",
            )],
        );

        let tenants = TenantsArtifact::from_json(TENANTS).expect("golden");
        codec_contract(
            &tenants,
            None,
            &[(|a| a.tenants[0].served += 1, "tenants[0].served")],
        );

        let campaign = CampaignArtifact::from_json(CAMPAIGN).expect("golden");
        codec_contract(
            &campaign,
            Some(|a| &mut a.cells[0].policy),
            &[(|a| a.cells[0].kills += 1, "cells[0].kills")],
        );

        let mut repro = ReproArtifact::from_json(REPRO).expect("golden");
        // Decimal text would round this; the bit patterns must not.
        repro.plan.faults.rate = 0.1 + 0.2;
        codec_contract(
            &repro,
            Some(|a| &mut a.violation.details),
            &[(|a| a.plan.seed += 1, "plan.seed")],
        );
    }
}
