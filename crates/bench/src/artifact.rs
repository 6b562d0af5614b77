//! Machine-readable `BENCH_*.json` artifacts and their comparator.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema": "rtdvs-bench/v1",
//!   "meta": {
//!     "seed": 24301,
//!     "threads": 4,
//!     "grid": {
//!       "label": "paper-figures",
//!       "n_tasks": [5, 10, 15],
//!       "utilizations": [0.05, ...],
//!       "sets_per_point": 50,
//!       "duration_ms": 2000.0,
//!       "policies": ["EDF", ...]
//!     }
//!   },
//!   "series": [
//!     {"policy": "ccEDF", "n_tasks": 5,
//!      "points": [{"u": 0.05, "energy_norm": 0.5, "deadline_miss": 0,
//!                  "fault_miss": 0}, ...]},
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
//! The reader is deliberately forward-compatible: it looks fields up by
//! name and ignores object keys it does not know, so an artifact written
//! by a newer producer with extra per-point or per-series fields still
//! loads here (the comparator then only judges the fields both sides
//! speak).
//!
//! Everything except `meta.threads` and `wall_ms` is a pure function of
//! the experiment seed; [`BenchArtifact::canonical_json`] zeroes those two
//! fields, and the determinism suite asserts the canonical form is
//! byte-identical across thread counts. The workspace has no registry
//! dependencies, so the writer and the reader are hand-rolled here.

use core::fmt::Write as _;
use std::fmt;

use crate::soak::Soak;
use crate::sweep::Sweep;

/// Schema identifier emitted into (and required from) every artifact.
pub const SCHEMA: &str = "rtdvs-bench/v1";

/// Policies whose schedulability guarantee makes any deadline miss a bug
/// (the EDF family; RM-based policies legitimately miss above the RM
/// bound).
pub const GUARANTEED_POLICIES: [&str; 4] = ["EDF", "StaticEDF", "ccEDF", "laEDF"];

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
    /// grids; absent in pre-fault artifacts, which parse as 0.
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
    /// Human label for the grid ("paper-figures", "sweep-smoke").
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

    /// Serializes the artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render(self.threads, self.wall_ms)
    }

    /// Serializes with `threads` and `wall_ms` zeroed: the deterministic
    /// payload. Two runs of the same grid and seed must produce
    /// byte-identical canonical JSON regardless of thread count.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        self.render(0, 0)
    }

    fn render(&self, threads: usize, wall_ms: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"schema\": \"{SCHEMA}\",\n  \"meta\": {{");
        let _ = writeln!(
            s,
            "    \"seed\": {},\n    \"threads\": {threads},",
            self.seed
        );
        let _ = writeln!(s, "    \"grid\": {{");
        let _ = writeln!(s, "      \"label\": \"{}\",", self.grid.label);
        let _ = writeln!(
            s,
            "      \"n_tasks\": {},",
            json_usize_list(&self.grid.n_tasks)
        );
        let _ = writeln!(
            s,
            "      \"utilizations\": {},",
            json_f64_list(&self.grid.utilizations, 4)
        );
        let _ = writeln!(s, "      \"sets_per_point\": {},", self.grid.sets_per_point);
        let _ = writeln!(
            s,
            "      \"duration_ms\": {},",
            fmt_f64(self.grid.duration_ms, 3)
        );
        let _ = writeln!(
            s,
            "      \"policies\": {}",
            json_str_list(&self.grid.policies)
        );
        let _ = writeln!(s, "    }}\n  }},\n  \"series\": [");
        for (i, series) in self.series.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"policy\": \"{}\", \"n_tasks\": {}, \"points\": [",
                series.policy, series.n_tasks
            );
            for (j, p) in series.points.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "      {{\"u\": {}, \"energy_norm\": {}, \"deadline_miss\": {}, \
                     \"fault_miss\": {}}}{}",
                    fmt_f64(p.u, 4),
                    fmt_f64(p.energy_norm, 6),
                    p.deadline_miss,
                    p.fault_miss,
                    if j + 1 < series.points.len() { "," } else { "" }
                );
            }
            let _ = writeln!(
                s,
                "    ]}}{}",
                if i + 1 < self.series.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],\n  \"wall_ms\": {wall_ms}\n}}");
        s
    }

    /// Parses an artifact back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed
    /// JSON, wrong schema identifier, or a missing/ill-typed field.
    pub fn from_json(text: &str) -> Result<BenchArtifact, ArtifactError> {
        let value = Json::parse(text)?;
        let schema = value.get("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(ArtifactError(format!(
                "schema mismatch: artifact says {schema:?}, reader speaks {SCHEMA:?}"
            )));
        }
        let meta = value.get("meta")?;
        let grid = meta.get("grid")?;
        Ok(BenchArtifact {
            seed: meta.get("seed")?.as_u64()?,
            threads: meta.get("threads")?.as_u64()? as usize,
            grid: BenchGrid {
                label: grid.get("label")?.as_str()?.to_owned(),
                n_tasks: grid
                    .get("n_tasks")?
                    .as_array()?
                    .iter()
                    .map(|v| Ok(v.as_u64()? as usize))
                    .collect::<Result<_, ArtifactError>>()?,
                utilizations: grid
                    .get("utilizations")?
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<_, ArtifactError>>()?,
                sets_per_point: grid.get("sets_per_point")?.as_u64()? as usize,
                duration_ms: grid.get("duration_ms")?.as_f64()?,
                policies: grid
                    .get("policies")?
                    .as_array()?
                    .iter()
                    .map(|v| Ok(v.as_str()?.to_owned()))
                    .collect::<Result<_, ArtifactError>>()?,
            },
            series: value
                .get("series")?
                .as_array()?
                .iter()
                .map(|entry| {
                    Ok(BenchSeries {
                        policy: entry.get("policy")?.as_str()?.to_owned(),
                        n_tasks: entry.get("n_tasks")?.as_u64()? as usize,
                        points: entry
                            .get("points")?
                            .as_array()?
                            .iter()
                            .map(|p| {
                                Ok(BenchPoint {
                                    u: p.get("u")?.as_f64()?,
                                    energy_norm: p.get("energy_norm")?.as_f64()?,
                                    deadline_miss: p.get("deadline_miss")?.as_u64()?,
                                    // Absent in pre-fault artifacts.
                                    fault_miss: match p.get("fault_miss") {
                                        Ok(v) => v.as_u64()?,
                                        Err(_) => 0,
                                    },
                                })
                            })
                            .collect::<Result<_, ArtifactError>>()?,
                    })
                })
                .collect::<Result<_, ArtifactError>>()?,
            wall_ms: value.get("wall_ms")?.as_u64()?,
        })
    }

    /// Structural invariants any well-formed artifact must satisfy,
    /// independent of a golden to compare against: every series covers the
    /// whole utilization grid, plain EDF normalizes to 1, guaranteed
    /// policies never miss, and energies are positive. Returns one message
    /// per violation.
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
                if point.energy_norm <= 0.0 || point.energy_norm.is_nan() {
                    problems.push(format!(
                        "{tag}: non-positive energy {} at U={}",
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

/// Compares a fresh artifact against the committed golden: identical grid,
/// every energy within `tolerance` (relative), and deadline-miss counts
/// unchanged. Returns one message per divergence; empty means the run
/// reproduces the golden.
#[must_use]
pub fn compare(golden: &BenchArtifact, fresh: &BenchArtifact, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if golden.grid != fresh.grid {
        problems.push(format!(
            "grid mismatch: golden ran {:?}, fresh ran {:?} — regenerate the golden if the \
             grid change is intentional",
            golden.grid.label, fresh.grid.label
        ));
        return problems;
    }
    if golden.seed != fresh.seed {
        problems.push(format!(
            "seed mismatch: golden {} vs fresh {}",
            golden.seed, fresh.seed
        ));
        return problems;
    }
    if golden.series.len() != fresh.series.len() {
        problems.push(format!(
            "series count mismatch: golden {} vs fresh {}",
            golden.series.len(),
            fresh.series.len()
        ));
        return problems;
    }
    for (g, f) in golden.series.iter().zip(&fresh.series) {
        let tag = format!("{}/{} tasks", g.policy, g.n_tasks);
        if g.policy != f.policy || g.n_tasks != f.n_tasks || g.points.len() != f.points.len() {
            problems.push(format!("{tag}: series shape diverged"));
            continue;
        }
        for (gp, fp) in g.points.iter().zip(&f.points) {
            let denom = gp.energy_norm.abs().max(1e-12);
            let rel = (fp.energy_norm - gp.energy_norm).abs() / denom;
            if rel > tolerance {
                problems.push(format!(
                    "{tag} at U={}: energy {} vs golden {} ({:+.2}% > ±{:.2}%)",
                    gp.u,
                    fp.energy_norm,
                    gp.energy_norm,
                    100.0 * (fp.energy_norm - gp.energy_norm) / denom,
                    100.0 * tolerance
                ));
            }
            if fp.deadline_miss != gp.deadline_miss {
                problems.push(format!(
                    "{tag} at U={}: {} deadline miss(es) vs golden {}",
                    gp.u, fp.deadline_miss, gp.deadline_miss
                ));
            }
            if fp.fault_miss != gp.fault_miss {
                problems.push(format!(
                    "{tag} at U={}: {} fault-induced miss(es) vs golden {}",
                    gp.u, fp.fault_miss, gp.fault_miss
                ));
            }
        }
    }
    problems
}

/// A parse or schema error, with the offending path or byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

/// A parsed JSON value. Numbers keep their source text so 64-bit seeds
/// round-trip without `f64` truncation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn parse(text: &str) -> Result<Json, ArtifactError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ArtifactError(format!("trailing content at byte {pos}")));
        }
        Ok(value)
    }

    pub(crate) fn get(&self, key: &str) -> Result<&Json, ArtifactError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ArtifactError(format!("missing field {key:?}"))),
            _ => Err(ArtifactError(format!("expected object around {key:?}"))),
        }
    }

    pub(crate) fn as_str(&self) -> Result<&str, ArtifactError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(ArtifactError(format!("expected string, found {other:?}"))),
        }
    }

    pub(crate) fn as_array(&self) -> Result<&[Json], ArtifactError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(ArtifactError(format!("expected array, found {other:?}"))),
        }
    }

    pub(crate) fn as_f64(&self) -> Result<f64, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|e| ArtifactError(format!("bad number {raw:?}: {e}"))),
            other => Err(ArtifactError(format!("expected number, found {other:?}"))),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, ArtifactError> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|e| ArtifactError(format!("bad integer {raw:?}: {e}"))),
            other => Err(ArtifactError(format!("expected integer, found {other:?}"))),
        }
    }
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
                // The writer never escapes anything beyond these; reject
                // the rest rather than decode them wrongly.
                match bytes.get(*pos + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    other => {
                        return Err(ArtifactError(format!(
                            "unsupported escape {other:?} in string at byte {start}"
                        )))
                    }
                }
                *pos += 2;
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

/// Fixed-precision float formatting, the writer's one source of float
/// text: deterministic across platforms for the determinism proof.
pub(crate) fn fmt_f64(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

fn json_f64_list(xs: &[f64], decimals: usize) -> String {
    let items: Vec<String> = xs.iter().map(|&x| fmt_f64(x, decimals)).collect();
    format!("[{}]", items.join(", "))
}

fn json_usize_list(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_str_list(xs: &[String]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("\"{x}\"")).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            seed: 0x5eed,
            threads: 4,
            grid: BenchGrid {
                label: "sweep-smoke".to_owned(),
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
    fn json_round_trips() {
        let art = sample();
        let parsed = BenchArtifact::from_json(&art.to_json()).expect("round trip");
        assert_eq!(parsed, art);
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
    fn schema_mismatch_is_rejected() {
        let text = sample().to_json().replace(SCHEMA, "rtdvs-bench/v0");
        let err = BenchArtifact::from_json(&text).expect_err("wrong schema");
        assert!(err.0.contains("schema mismatch"), "{err}");
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
    fn compare_accepts_identity_and_small_drift() {
        let golden = sample();
        assert!(compare(&golden, &golden, 0.01).is_empty());
        let mut fresh = sample();
        fresh.series[1].points[0].energy_norm *= 1.005;
        assert!(compare(&golden, &fresh, 0.01).is_empty());
    }

    #[test]
    fn compare_rejects_two_percent_energy_delta() {
        let golden = sample();
        let mut fresh = sample();
        fresh.series[1].points[1].energy_norm *= 1.02;
        let problems = compare(&golden, &fresh, 0.01);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("ccEDF"), "{problems:?}");
        assert!(problems[0].contains("U=0.9"), "{problems:?}");
    }

    #[test]
    fn compare_rejects_new_deadline_miss() {
        let golden = sample();
        let mut fresh = sample();
        fresh.series[0].points[0].deadline_miss = 1;
        let problems = compare(&golden, &fresh, 0.01);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("deadline miss"), "{problems:?}");
    }

    #[test]
    fn compare_rejects_grid_drift() {
        let golden = sample();
        let mut fresh = sample();
        fresh.grid.sets_per_point = 3;
        assert!(!compare(&golden, &fresh, 0.01).is_empty());
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
    fn pre_fault_artifacts_parse_with_zero_fault_miss() {
        // Artifacts written before the fault_miss field must still load.
        let text = sample().to_json().replace(", \"fault_miss\": 0", "");
        assert!(!text.contains("fault_miss"));
        let parsed = BenchArtifact::from_json(&text).expect("tolerant parse");
        assert!(parsed
            .series
            .iter()
            .all(|s| s.points.iter().all(|p| p.fault_miss == 0)));
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
    fn unknown_fields_are_ignored_at_every_level() {
        // Forward compatibility: a newer producer may add fields at the
        // top level, in meta, in the grid, per series, or per point. The
        // by-name reader must skip them all and still round-trip the
        // fields it knows.
        let art = sample();
        let text = art
            .to_json()
            .replace(
                "\"schema\": \"rtdvs-bench/v1\",",
                "\"schema\": \"rtdvs-bench/v1\",\n  \"producer\": \"future/2.0\",",
            )
            .replace(
                "\"seed\": 24301,",
                "\"seed\": 24301,\n    \"host_arch\": \"riscv64\",",
            )
            .replace(
                "\"label\": \"sweep-smoke\",",
                "\"label\": \"sweep-smoke\",\n      \"cap_point\": 3,",
            )
            .replace(
                "\"policy\": \"ccEDF\",",
                "\"policy\": \"ccEDF\", \"retries\": 17,",
            )
            .replace(
                "\"deadline_miss\": 0, \"fault_miss\": 0}",
                "\"deadline_miss\": 0, \"fault_miss\": 0, \"stuck\": 2, \"note\": null}",
            );
        assert_ne!(text, art.to_json(), "replacements must have applied");
        let parsed = BenchArtifact::from_json(&text).expect("tolerant parse");
        assert_eq!(parsed, art);
    }

    #[test]
    fn compare_rejects_fault_miss_drift() {
        let golden = sample();
        let mut fresh = sample();
        fresh.series[1].points[1].fault_miss = 2;
        let problems = compare(&golden, &fresh, 0.01);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("fault-induced"), "{problems:?}");
    }
}
