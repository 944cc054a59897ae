//! The benchmark matrix: schema-versioned perf records, the regression
//! gate, and the run trajectory.
//!
//! This module is the data layer behind `bench_matrix` (the workload
//! runner) and `bench_report` (the report generator / CI gate). One
//! [`BenchFile`] holds one matrix *dimension* — a sweep along a single
//! axis (kernels, model size, pp×dp, compressor, transport, kernel
//! threads) with every other knob held at its base point — and is
//! committed at the repo root as `BENCH_<dimension>.json`.
//!
//! Design rules, in the spirit of cbp-experiments' committed report
//! tables:
//!
//! * **Schema-versioned.** Every file records [`SCHEMA_VERSION`]; readers
//!   refuse unknown versions instead of guessing.
//! * **Self-describing provenance.** Machine fingerprint (CPU model, core
//!   count, OS, plus any [`PROVENANCE_ENV_VARS`] overrides in effect),
//!   git revision, build profile, and warmup/repetition counts are
//!   recorded in the file, so a number can never be quoted without its
//!   measurement conditions.
//! * **Serde-free.** The codec is the repo's own [`crate::json`] module —
//!   deterministic writer, strict parser — mirroring how `opt-ckpt` owns
//!   its snapshot bytes.
//! * **Mechanically gated.** [`gate`] diffs a fresh run against the
//!   committed baselines and fails on a median regression beyond a
//!   threshold (default [`DEFAULT_THRESHOLD_PCT`] %), with an explicit
//!   [`Allowlist`] for intentional changes.

use crate::json::{escape, fmt_f64, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the `BENCH_*.json` schema this module reads and writes.
///
/// Version 1 was the ad-hoc, kernels-only `BENCH_kernels.json` emitted by
/// the retired `bench_kernels` binary (no provenance fields, one file).
/// Version 2 is the matrix schema documented field-by-field in
/// `reports/BENCHMARKS.md`.
pub const SCHEMA_VERSION: u64 = 2;

/// Default regression-gate threshold, in percent: a dimension fails the
/// gate when the *median* of its per-row `current/baseline` time ratios
/// exceeds `1 + DEFAULT_THRESHOLD_PCT/100`.
pub const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// File name of the committed run trajectory (appended per matrix run).
pub const TRAJECTORY_FILE: &str = "BENCH_trajectory.json";

/// Environment knobs recorded in the machine fingerprint when set: they
/// change what a benchmark *measures* (kernel-pool width, net timeouts,
/// forced kernel arch), so a run under an override must never be silently
/// compared against a baseline measured without it.
pub const PROVENANCE_ENV_VARS: [&str; 3] = [
    "OPT_KERNEL_THREADS",
    "OPT_NET_TIMEOUT_MS",
    "OPT_KERNEL_ARCH",
];

/// Machine fingerprint recorded in every benchmark file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// CPU model string (from `/proc/cpuinfo` where available).
    pub cpu: String,
    /// Logical core count visible to the process.
    pub cores: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Kernel arch the dispatcher resolved to, as
    /// `"<target>/<path>"` ([`opt_tensor::kernel_arch_name`], e.g.
    /// `"x86_64/avx2"`) — the detected path, or the `OPT_KERNEL_ARCH`
    /// override (which then also appears in `env`).
    pub arch: String,
    /// Environment overrides from [`PROVENANCE_ENV_VARS`] that were set
    /// when the run was measured, in that order. Empty (and absent from
    /// the JSON) when none were set.
    pub env: Vec<(String, String)>,
}

/// Reads the machine fingerprint of the current host.
pub fn machine() -> Machine {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Machine {
        cpu,
        cores: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        os: std::env::consts::OS.to_string(),
        arch: opt_tensor::kernel_arch_name(),
        env: PROVENANCE_ENV_VARS
            .iter()
            .filter_map(|&k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
            .collect(),
    }
}

/// Renders a machine's env overrides for human-readable notes.
fn fmt_env(env: &[(String, String)]) -> String {
    if env.is_empty() {
        return "none".to_string();
    }
    env.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=9", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The cargo build profile of this binary (`"debug"` or `"release"`).
/// Recorded so a debug-profile run is never diffed against a release
/// baseline.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Provenance and measurement-procedure header of one benchmark file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Which matrix axis this file sweeps (`"kernels"`, `"model"`, …).
    pub dimension: String,
    /// `"smoke"` (CI-sized shapes/iterations) or `"full"`.
    pub mode: String,
    /// Build profile the numbers were measured under.
    pub profile: String,
    /// Git revision of the measured tree.
    pub git_rev: String,
    /// Host fingerprint.
    pub machine: Machine,
    /// Untimed warmup repetitions before measurement.
    pub warmup: u64,
    /// Timed repetitions; `best_ns` is the minimum over these.
    pub reps: u64,
    /// Kernel-pool width in effect outside the `threads` axis.
    pub kernel_threads: u64,
}

/// One measured point of a dimension sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable identity of the point within its dimension — the gate joins
    /// baseline and current rows on this.
    pub label: String,
    /// Human-readable axis coordinates (`("model", "GPT-tiny")`, …).
    pub config: Vec<(String, String)>,
    /// Best (minimum) wall time of the measured unit (one op, or one
    /// training iteration) over the timed repetitions, in nanoseconds.
    /// The gate metric: scheduling noise on a shared box only ever adds
    /// time, so the minimum is the robust estimator of true cost.
    pub best_ns: f64,
    /// Auxiliary metrics (gflops, wire bytes, simulator price, …).
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Looks up an auxiliary metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up an axis coordinate by name.
    pub fn coord(&self, name: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One committed `BENCH_<dimension>.json`: header plus sweep rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Provenance and measurement procedure.
    pub meta: RunMeta,
    /// The sweep, in measurement order.
    pub rows: Vec<Row>,
}

impl BenchFile {
    /// Canonical file name for a dimension (`BENCH_kernels.json`, …).
    pub fn file_name(dimension: &str) -> String {
        format!("BENCH_{dimension}.json")
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the file in the canonical byte-deterministic layout.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"bench\": \"matrix\",");
        let _ = writeln!(out, "  \"dimension\": \"{}\",", escape(&m.dimension));
        let _ = writeln!(out, "  \"mode\": \"{}\",", escape(&m.mode));
        let _ = writeln!(out, "  \"profile\": \"{}\",", escape(&m.profile));
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&m.git_rev));
        // The env member appears only when overrides were set, so files
        // measured without overrides keep their historical byte layout.
        let mut env_json = String::new();
        if !m.machine.env.is_empty() {
            env_json.push_str(", \"env\": { ");
            for (j, (k, v)) in m.machine.env.iter().enumerate() {
                let sep = if j + 1 == m.machine.env.len() {
                    ""
                } else {
                    ", "
                };
                let _ = write!(env_json, "\"{}\": \"{}\"{sep}", escape(k), escape(v));
            }
            env_json.push_str(" }");
        }
        let _ = writeln!(
            out,
            "  \"machine\": {{ \"cpu\": \"{}\", \"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"{} }},",
            escape(&m.machine.cpu),
            m.machine.cores,
            escape(&m.machine.os),
            escape(&m.machine.arch),
            env_json
        );
        let _ = writeln!(
            out,
            "  \"timing\": {{ \"warmup\": {}, \"reps\": {}, \"kernel_threads\": {} }},",
            m.warmup, m.reps, m.kernel_threads
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    { ");
            let _ = write!(out, "\"label\": \"{}\",\n      ", escape(&row.label));
            out.push_str("\"config\": { ");
            for (j, (k, v)) in row.config.iter().enumerate() {
                let sep = if j + 1 == row.config.len() { "" } else { ", " };
                let _ = write!(out, "\"{}\": \"{}\"{sep}", escape(k), escape(v));
            }
            out.push_str(" },\n      ");
            let _ = write!(out, "\"best_ns\": {},\n      ", fmt_f64(row.best_ns));
            out.push_str("\"metrics\": { ");
            for (j, (k, v)) in row.metrics.iter().enumerate() {
                let sep = if j + 1 == row.metrics.len() { "" } else { ", " };
                let _ = write!(out, "\"{}\": {}{sep}", escape(k), fmt_f64(*v));
            }
            out.push_str(" } }");
            out.push_str(if i + 1 == self.rows.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a canonical benchmark file; rejects unknown schema versions
    /// and structurally malformed documents with a human-readable error.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version (a v1 ad-hoc file? re-run bench_matrix)")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field \"{key}\""))
        };
        let machine_obj = doc.get("machine").ok_or("missing \"machine\" object")?;
        let timing_obj = doc.get("timing").ok_or("missing \"timing\" object")?;
        let num = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field \"{key}\""))
        };
        let meta = RunMeta {
            dimension: field("dimension")?,
            mode: field("mode")?,
            profile: field("profile")?,
            git_rev: field("git_rev")?,
            machine: Machine {
                cpu: machine_obj
                    .get("cpu")
                    .and_then(Json::as_str)
                    .ok_or("missing machine.cpu")?
                    .to_string(),
                cores: num(machine_obj, "cores")?,
                os: machine_obj
                    .get("os")
                    .and_then(Json::as_str)
                    .ok_or("missing machine.os")?
                    .to_string(),
                arch: machine_obj
                    .get("arch")
                    .and_then(Json::as_str)
                    .ok_or("missing machine.arch (a pre-dispatch file? re-run bench_matrix)")?
                    .to_string(),
                // Absent in files measured without overrides.
                env: match machine_obj.get("env") {
                    None => Vec::new(),
                    Some(obj) => obj
                        .as_object()
                        .ok_or("machine.env is not an object")?
                        .iter()
                        .map(|(k, v)| {
                            v.as_str()
                                .map(|s| (k.clone(), s.to_string()))
                                .ok_or_else(|| format!("non-string machine.env value for {k}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                },
            },
            warmup: num(timing_obj, "warmup")?,
            reps: num(timing_obj, "reps")?,
            kernel_threads: num(timing_obj, "kernel_threads")?,
        };
        let rows_json = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("missing \"rows\" array")?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, r) in rows_json.iter().enumerate() {
            let label = r
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("row {i}: missing label"))?
                .to_string();
            let config = r
                .get("config")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("row {i}: missing config object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("row {i}: non-string config value for {k}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let best_ns = r
                .get("best_ns")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: missing best_ns"))?;
            let metrics = r
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("row {i}: missing metrics object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|f| (k.clone(), f))
                        .ok_or_else(|| format!("row {i}: non-numeric metric {k}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            rows.push(Row {
                label,
                config,
                best_ns,
                metrics,
            });
        }
        Ok(BenchFile { meta, rows })
    }
}

/// Loads every `BENCH_<dimension>.json` in `dir` (the trajectory file is
/// skipped), sorted by file name so downstream output is deterministic.
pub fn load_bench_dir(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json") && name != TRAJECTORY_FILE
        })
        .collect();
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files
            .push(BenchFile::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?);
    }
    Ok(files)
}

/// Median of a sample (empty samples yield 0.0; even lengths average the
/// two central order statistics).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Times `f`: `warmup` untimed calls, then `reps` timed calls, returning
/// the best (minimum) wall time in nanoseconds — additive scheduling
/// noise cannot make code *faster*, so the minimum estimates true cost
/// far more stably than the median on a busy box.
pub fn time_best_ns(warmup: u64, reps: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// The regression-gate allowlist: dimensions or individual rows whose
/// regressions are intentional and accepted.
///
/// File format (one entry per line, `#` comments):
///
/// ```text
/// # whole dimension
/// kernels
/// # one row of a dimension
/// transport/tcp
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: Vec<String>,
}

impl Allowlist {
    /// Parses allowlist text (see type-level docs for the format).
    pub fn parse(text: &str) -> Allowlist {
        Allowlist {
            entries: text
                .lines()
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect(),
        }
    }

    /// Loads an allowlist file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Allowlist {
        std::fs::read_to_string(path)
            .map(|t| Allowlist::parse(&t))
            .unwrap_or_default()
    }

    /// Whether `dimension` (and, if given, `row`) is allowlisted.
    pub fn covers(&self, dimension: &str, row: Option<&str>) -> bool {
        self.entries.iter().any(|e| {
            e == dimension
                || row.is_some_and(|r| {
                    e.split_once('/')
                        .is_some_and(|(d, l)| d == dimension && l == r)
                })
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Baseline-vs-current comparison of one row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Row label (join key).
    pub label: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// Current median, nanoseconds.
    pub current_ns: f64,
    /// `current/baseline` — above 1.0 is a slowdown.
    pub ratio: f64,
    /// Whether this specific row is allowlisted.
    pub allowlisted: bool,
}

/// Gate verdict for one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimVerdict {
    /// The dimension under test.
    pub dimension: String,
    /// Whether the whole dimension is allowlisted.
    pub allowlisted: bool,
    /// Median of `current/baseline` ratios over non-allowlisted rows
    /// (`None` when no rows were comparable).
    pub median_ratio: Option<f64>,
    /// Per-row deltas for rows present on both sides.
    pub rows: Vec<RowDelta>,
    /// Baseline rows missing from the current run (coverage shrank).
    pub missing: Vec<String>,
    /// Current rows absent from the baseline (new coverage; informational).
    pub added: Vec<String>,
    /// Human-readable findings (mode/profile mismatches, etc.).
    pub notes: Vec<String>,
    /// Whether this dimension passes the gate.
    pub pass: bool,
}

/// Gates one dimension: joins rows on label, medians the time ratios, and
/// fails on regression beyond `threshold_ratio` (e.g. `1.15`), missing
/// rows, or mode/profile mismatch — unless allowlisted.
pub fn gate_dimension(
    baseline: &BenchFile,
    current: &BenchFile,
    threshold_ratio: f64,
    allow: &Allowlist,
) -> DimVerdict {
    let dim = baseline.meta.dimension.clone();
    let allowlisted = allow.covers(&dim, None);
    let mut notes = Vec::new();
    let mut hard_fail = false;

    if baseline.meta.mode != current.meta.mode {
        notes.push(format!(
            "mode mismatch: baseline \"{}\" vs current \"{}\" — not comparable",
            baseline.meta.mode, current.meta.mode
        ));
        hard_fail = true;
    }
    if baseline.meta.profile != current.meta.profile {
        notes.push(format!(
            "profile mismatch: baseline \"{}\" vs current \"{}\" — not comparable",
            baseline.meta.profile, current.meta.profile
        ));
        hard_fail = true;
    }
    if baseline.meta.machine.env != current.meta.machine.env {
        notes.push(format!(
            "env-override mismatch: baseline measured with [{}], current with [{}] — knobs like OPT_KERNEL_THREADS change what is measured; rerun without overrides or refresh the baseline",
            fmt_env(&baseline.meta.machine.env),
            fmt_env(&current.meta.machine.env)
        ));
    }
    if baseline.meta.machine != current.meta.machine
        && baseline.meta.machine.env == current.meta.machine.env
    {
        notes.push(format!(
            "cross-machine comparison: baseline on \"{}\" ({} cores), current on \"{}\" ({} cores) — absolute times are noisy; refresh baselines from the gating box if this persists",
            baseline.meta.machine.cpu,
            baseline.meta.machine.cores,
            current.meta.machine.cpu,
            current.meta.machine.cores
        ));
    }

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.rows {
        match current.row(&b.label) {
            Some(c) => {
                let ratio = if b.best_ns > 0.0 {
                    c.best_ns / b.best_ns
                } else {
                    1.0
                };
                rows.push(RowDelta {
                    label: b.label.clone(),
                    baseline_ns: b.best_ns,
                    current_ns: c.best_ns,
                    ratio,
                    allowlisted: allow.covers(&dim, Some(&b.label)),
                });
            }
            None => missing.push(b.label.clone()),
        }
    }
    let added = current
        .rows
        .iter()
        .filter(|c| baseline.row(&c.label).is_none())
        .map(|c| c.label.clone())
        .collect::<Vec<_>>();

    let gated: Vec<f64> = rows
        .iter()
        .filter(|r| !r.allowlisted)
        .map(|r| r.ratio)
        .collect();
    let median_ratio = (!gated.is_empty()).then(|| median(&gated));

    let missing_unallowed: Vec<&String> = missing
        .iter()
        .filter(|l| !allow.covers(&dim, Some(l)))
        .collect();
    if !missing_unallowed.is_empty() {
        notes.push(format!(
            "{} baseline row(s) missing from the current run: {}",
            missing_unallowed.len(),
            missing_unallowed
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        hard_fail = true;
    }
    if let Some(m) = median_ratio {
        if m > threshold_ratio {
            notes.push(format!(
                "median slowdown {:.1}% exceeds the {:.0}% gate",
                (m - 1.0) * 100.0,
                (threshold_ratio - 1.0) * 100.0
            ));
            hard_fail = true;
        }
    }

    let pass = allowlisted || !hard_fail;
    if allowlisted && hard_fail {
        notes.push("dimension is allowlisted — failures above are accepted".to_string());
    }
    DimVerdict {
        dimension: dim,
        allowlisted,
        median_ratio,
        rows,
        missing,
        added,
        notes,
        pass,
    }
}

/// Gates every baseline dimension against the current run. A baseline
/// dimension with no current counterpart fails (unless allowlisted);
/// current-only dimensions are ignored (new coverage lands as a new
/// baseline when committed). Returns the per-dimension verdicts and the
/// overall pass flag.
pub fn gate(
    baselines: &[BenchFile],
    currents: &[BenchFile],
    threshold_ratio: f64,
    allow: &Allowlist,
) -> (Vec<DimVerdict>, bool) {
    let mut verdicts = Vec::new();
    for b in baselines {
        match currents
            .iter()
            .find(|c| c.meta.dimension == b.meta.dimension)
        {
            Some(c) => verdicts.push(gate_dimension(b, c, threshold_ratio, allow)),
            None => {
                let allowlisted = allow.covers(&b.meta.dimension, None);
                verdicts.push(DimVerdict {
                    dimension: b.meta.dimension.clone(),
                    allowlisted,
                    median_ratio: None,
                    rows: Vec::new(),
                    missing: b.rows.iter().map(|r| r.label.clone()).collect(),
                    added: Vec::new(),
                    notes: vec!["dimension absent from the current run".to_string()],
                    pass: allowlisted,
                });
            }
        }
    }
    let pass = verdicts.iter().all(|v| v.pass);
    (verdicts, pass)
}

/// One matrix run, as recorded in the committed trajectory: enough to
/// plot the repo's perf history PR over PR.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Seconds since the Unix epoch at the end of the run.
    pub unix_time: u64,
    /// Git revision of the measured tree.
    pub git_rev: String,
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Build profile.
    pub profile: String,
    /// CPU model of the measuring host.
    pub cpu: String,
    /// Logical cores of the measuring host.
    pub cores: u64,
    /// Per-dimension trajectory scalar: the median of the dimension's
    /// row best times, in nanoseconds (a trend line, not an absolute
    /// claim).
    pub headline: Vec<(String, f64)>,
}

/// The committed, append-only history of matrix runs
/// ([`TRAJECTORY_FILE`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Entries in append order (oldest first).
    pub entries: Vec<TrajectoryEntry>,
}

impl Trajectory {
    /// Loads the trajectory; a missing file is an empty trajectory.
    pub fn load(path: &Path) -> Result<Trajectory, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                Trajectory::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Trajectory::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Parses the trajectory document.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported trajectory schema_version {version}"));
        }
        let entries_json = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("missing \"entries\" array")?;
        let mut entries = Vec::with_capacity(entries_json.len());
        for (i, e) in entries_json.iter().enumerate() {
            let s = |key: &str| -> Result<String, String> {
                e.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("entry {i}: missing \"{key}\""))
            };
            let headline = e
                .get("headline")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("entry {i}: missing headline"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|f| (k.clone(), f))
                        .ok_or_else(|| format!("entry {i}: non-numeric headline {k}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            entries.push(TrajectoryEntry {
                unix_time: e
                    .get("unix_time")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("entry {i}: missing unix_time"))?,
                git_rev: s("git_rev")?,
                mode: s("mode")?,
                profile: s("profile")?,
                cpu: s("cpu")?,
                cores: e
                    .get("cores")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("entry {i}: missing cores"))?,
                headline,
            });
        }
        Ok(Trajectory { entries })
    }

    /// Renders the trajectory in the canonical byte-deterministic layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"bench\": \"trajectory\",");
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    { ");
            let _ = write!(
                out,
                "\"unix_time\": {}, \"git_rev\": \"{}\", \"mode\": \"{}\", \"profile\": \"{}\",\n      \"cpu\": \"{}\", \"cores\": {},\n      \"headline\": {{ ",
                e.unix_time,
                escape(&e.git_rev),
                escape(&e.mode),
                escape(&e.profile),
                escape(&e.cpu),
                e.cores
            );
            for (j, (k, v)) in e.headline.iter().enumerate() {
                let sep = if j + 1 == e.headline.len() { "" } else { ", " };
                let _ = write!(out, "\"{}\": {}{sep}", escape(k), fmt_f64(*v));
            }
            out.push_str(" } }");
            out.push_str(if i + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Builds the trajectory entry summarizing a finished matrix run.
pub fn trajectory_entry(files: &[BenchFile], unix_time: u64) -> TrajectoryEntry {
    let (mode, profile, machine, git) = files
        .first()
        .map(|f| {
            (
                f.meta.mode.clone(),
                f.meta.profile.clone(),
                f.meta.machine.clone(),
                f.meta.git_rev.clone(),
            )
        })
        .unwrap_or_else(|| {
            (
                "smoke".to_string(),
                build_profile().to_string(),
                machine(),
                git_rev(),
            )
        });
    let mut headline: Vec<(String, f64)> = files
        .iter()
        .map(|f| {
            let bests: Vec<f64> = f.rows.iter().map(|r| r.best_ns).collect();
            (f.meta.dimension.clone(), median(&bests))
        })
        .collect();
    // Trace-derived stats ride along when a dimension measured them: the
    // median over the rows carrying the metric, keyed
    // `<dimension>_<metric>` (older entries simply lack the keys).
    for f in files {
        for stat in ["bubble_frac", "comm_overlap"] {
            let vals: Vec<f64> = f.rows.iter().filter_map(|r| r.metric(stat)).collect();
            if !vals.is_empty() {
                headline.push((format!("{}_{stat}", f.meta.dimension), median(&vals)));
            }
        }
    }
    TrajectoryEntry {
        unix_time,
        git_rev: git,
        mode,
        profile,
        cpu: machine.cpu,
        cores: machine.cores,
        headline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(dimension: &str, times: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            meta: RunMeta {
                dimension: dimension.to_string(),
                mode: "smoke".to_string(),
                profile: "release".to_string(),
                git_rev: "abc123def".to_string(),
                machine: Machine {
                    cpu: "TestCPU".to_string(),
                    cores: 4,
                    os: "linux".to_string(),
                    arch: "x86_64/scalar".to_string(),
                    env: Vec::new(),
                },
                warmup: 1,
                reps: 5,
                kernel_threads: 1,
            },
            rows: times
                .iter()
                .map(|(label, ns)| Row {
                    label: label.to_string(),
                    config: vec![("op".to_string(), label.to_string())],
                    best_ns: *ns,
                    metrics: vec![("gflops".to_string(), 1.5)],
                })
                .collect(),
        }
    }

    #[test]
    fn codec_round_trips_byte_identically() {
        let f = sample_file("kernels", &[("a", 100.0), ("b", 250.5)]);
        let text = f.to_json();
        let back = BenchFile::parse(&text).expect("parse");
        assert_eq!(back, f);
        assert_eq!(back.to_json(), text, "writer is not canonical");
    }

    #[test]
    fn machine_env_overrides_round_trip_and_stay_absent_when_empty() {
        // No overrides: the machine line keeps its historical layout.
        let plain = sample_file("kernels", &[("a", 100.0)]);
        let text = plain.to_json();
        assert!(
            !text.contains("\"env\""),
            "env member must be absent when no overrides were set"
        );

        // Overrides: recorded inside the machine object and parsed back.
        let mut tuned = plain.clone();
        tuned.meta.machine.env = vec![
            ("OPT_KERNEL_THREADS".to_string(), "4".to_string()),
            ("OPT_NET_TIMEOUT_MS".to_string(), "500".to_string()),
        ];
        let text = tuned.to_json();
        assert!(text.contains("\"env\": { \"OPT_KERNEL_THREADS\": \"4\""));
        let back = BenchFile::parse(&text).expect("parse");
        assert_eq!(back, tuned);
        assert_eq!(back.to_json(), text, "writer is not canonical with env");
    }

    #[test]
    fn gate_notes_env_override_mismatch_without_failing() {
        let base = sample_file("kernels", &[("a", 100.0)]);
        let mut cur = base.clone();
        cur.meta.machine.env = vec![("OPT_KERNEL_THREADS".to_string(), "4".to_string())];
        let v = gate_dimension(&base, &cur, 1.15, &Allowlist::default());
        assert!(v.pass, "env divergence warns, it does not fail the gate");
        assert!(
            v.notes.iter().any(|n| n.contains("env-override mismatch")
                && n.contains("OPT_KERNEL_THREADS=4")
                && n.contains("none")),
            "notes: {:?}",
            v.notes
        );
    }

    #[test]
    fn trajectory_entry_carries_trace_stats_when_measured() {
        let mut files = vec![sample_file("parallelism", &[("pp2xdp1", 100.0)])];
        files[0].rows[0]
            .metrics
            .push(("bubble_frac".to_string(), 0.25));
        files[0].rows[0]
            .metrics
            .push(("comm_overlap".to_string(), 0.5));
        let e = trajectory_entry(&files, 7);
        assert!(e
            .headline
            .contains(&("parallelism_bubble_frac".to_string(), 0.25)));
        assert!(e
            .headline
            .contains(&("parallelism_comm_overlap".to_string(), 0.5)));
        // A file without the metrics contributes no stat keys.
        let e = trajectory_entry(&[sample_file("kernels", &[("a", 1.0)])], 7);
        assert!(e.headline.iter().all(|(k, _)| !k.contains("bubble")));
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let text = sample_file("x", &[("a", 1.0)])
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 1");
        let err = BenchFile::parse(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn gate_passes_identical_runs() {
        let base = sample_file("kernels", &[("a", 100.0), ("b", 200.0)]);
        let v = gate_dimension(&base, &base.clone(), 1.15, &Allowlist::default());
        assert!(v.pass);
        assert_eq!(v.median_ratio, Some(1.0));
    }

    #[test]
    fn gate_trips_on_median_regression() {
        let base = sample_file("kernels", &[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        let cur = sample_file("kernels", &[("a", 130.0), ("b", 260.0), ("c", 390.0)]);
        let v = gate_dimension(&base, &cur, 1.15, &Allowlist::default());
        assert!(!v.pass);
        assert!(v.median_ratio.unwrap() > 1.29);
    }

    #[test]
    fn gate_is_robust_to_one_noisy_row() {
        // One row 3x slower but the median of three ratios stays at 1.0:
        // the gate is a median, not a max.
        let base = sample_file("kernels", &[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        let cur = sample_file("kernels", &[("a", 300.0), ("b", 200.0), ("c", 300.0)]);
        let v = gate_dimension(&base, &cur, 1.15, &Allowlist::default());
        assert!(v.pass);
    }

    #[test]
    fn allowlist_covers_dimension_and_row() {
        let allow = Allowlist::parse("# comment\nkernels\ntransport/tcp  # note\n");
        assert_eq!(allow.len(), 2);
        assert!(allow.covers("kernels", None));
        assert!(allow.covers("kernels", Some("anything")));
        assert!(allow.covers("transport", Some("tcp")));
        assert!(!allow.covers("transport", None));
        assert!(!allow.covers("transport", Some("local")));
    }

    #[test]
    fn allowlisted_dimension_passes_despite_regression() {
        let base = sample_file("kernels", &[("a", 100.0)]);
        let cur = sample_file("kernels", &[("a", 500.0)]);
        let allow = Allowlist::parse("kernels");
        let v = gate_dimension(&base, &cur, 1.15, &allow);
        assert!(v.pass && v.allowlisted);
    }

    #[test]
    fn missing_rows_fail_unless_allowlisted() {
        let base = sample_file("kernels", &[("a", 100.0), ("b", 200.0)]);
        let cur = sample_file("kernels", &[("a", 100.0)]);
        let v = gate_dimension(&base, &cur, 1.15, &Allowlist::default());
        assert!(!v.pass);
        assert_eq!(v.missing, vec!["b".to_string()]);
        let v = gate_dimension(&base, &cur, 1.15, &Allowlist::parse("kernels/b"));
        assert!(v.pass);
    }

    #[test]
    fn mode_and_profile_mismatch_fail() {
        let base = sample_file("kernels", &[("a", 100.0)]);
        let mut cur = base.clone();
        cur.meta.mode = "full".to_string();
        assert!(!gate_dimension(&base, &cur, 1.15, &Allowlist::default()).pass);
        let mut cur = base.clone();
        cur.meta.profile = "debug".to_string();
        assert!(!gate_dimension(&base, &cur, 1.15, &Allowlist::default()).pass);
    }

    #[test]
    fn whole_gate_fails_on_absent_dimension() {
        let base = vec![sample_file("kernels", &[("a", 1.0)])];
        let (verdicts, pass) = gate(&base, &[], 1.15, &Allowlist::default());
        assert!(!pass);
        assert_eq!(verdicts.len(), 1);
        let (_, pass) = gate(&base, &[], 1.15, &Allowlist::parse("kernels"));
        assert!(pass);
    }

    #[test]
    fn trajectory_codec_round_trips() {
        let t = Trajectory {
            entries: vec![TrajectoryEntry {
                unix_time: 1_700_000_000,
                git_rev: "abc123def".to_string(),
                mode: "smoke".to_string(),
                profile: "release".to_string(),
                cpu: "TestCPU".to_string(),
                cores: 4,
                headline: vec![("kernels".to_string(), 123.5)],
            }],
        };
        let text = t.to_json();
        let back = Trajectory::parse(&text).expect("parse");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn trajectory_entry_summarizes_run() {
        let files = vec![
            sample_file("kernels", &[("a", 100.0), ("b", 300.0)]),
            sample_file("model", &[("x", 50.0)]),
        ];
        let e = trajectory_entry(&files, 42);
        assert_eq!(e.unix_time, 42);
        assert_eq!(
            e.headline,
            vec![("kernels".to_string(), 200.0), ("model".to_string(), 50.0)]
        );
    }

    #[test]
    fn machine_fingerprint_is_populated() {
        let m = machine();
        assert!(m.cores >= 1);
        assert!(!m.os.is_empty());
        // "<target>/<path>" from the kernel dispatcher, e.g. "x86_64/avx2".
        assert!(m.arch.contains('/'), "arch: {}", m.arch);
    }
}
