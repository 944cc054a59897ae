//! The suite: every workload, both kinds of run, each in a fresh process
//! of this same binary — plus the two procedures built on it, `--aa`
//! (does the benchmark agree with itself?) and `--calibrate` (how wide
//! must the regression bounds be?).

use crate::json::Json;
use crate::run::{Metric, RunOutcome};
use crate::stats::iqr_over_median;
use crate::workload::{valid_name, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::{Args, SuiteMode};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child run is killed after this long; the contract allows 180 s.
const CHILD_LIMIT: Duration = Duration::from_secs(170);
/// Seeds `--calibrate` runs each workload at, as the driver does.
const CALIBRATION_SEEDS: u64 = 10;

/// The result of one run, as printed and as read back from a child.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Notes are for people only and do not survive the result line.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    pub fn new(workload: &str, traced: bool, outcome: &RunOutcome) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            traced,
            correct: outcome.correct(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: outcome.metrics.clone(),
        }
    }

    /// A run that produced no result: its process crashed or was killed.
    fn lost(workload: &str, traced: bool) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            traced,
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    /// `workload metric value unit` lines, one per metric, then the
    /// iteration accounting.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            out.push_str(&format!(
                "{} {} {} {}{note}\n",
                self.workload, m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "{} failed_frac {} ratio  ({} of {} iterations attempted)\n",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        out
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let entry =
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }

    /// The one-line result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .compact()
    }

    pub fn from_result_line(workload: &str, traced: bool, line: &str) -> Result<RunRecord, String> {
        let v = Json::parse(line)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("result has no whole number {key}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result has no metrics")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    _ if !valid_name(name) => Err(format!("{name:?} is not a metric name")),
                    (Some(value), Some(unit)) => Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                        note: String::new(),
                    }),
                    _ => Err(format!("metric {name} lacks a value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: workload.to_string(),
            traced,
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result has no correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.value)
    }
}

/// Runs one workload in a fresh process of this binary and reads its
/// result back. The child's own lines are passed through.
fn run_child(args: &Args, w: &Workload, seed: u64, traced: bool) -> RunRecord {
    let spawn = || -> Result<(String, bool), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--root")
            .arg(&args.root)
            .arg("--out")
            .arg(&args.out)
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            text
        });
        let started = Instant::now();
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if started.elapsed() > CHILD_LIMIT => {
                    let _ = child.kill();
                    break child.wait().map_err(|e| e.to_string())?;
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        let text = reader.join().map_err(|_| "stdout reader panicked")?;
        Ok((text, status.success()))
    };
    match spawn() {
        Err(e) => {
            eprintln!(
                "opt-benchmark: {} --trace {}: {e}",
                w.name,
                u8::from(traced)
            );
            RunRecord::lost(w.name, traced)
        }
        Ok((text, success)) => {
            let (lines, result) = text
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", text.trim_end()));
            if !lines.is_empty() {
                println!("{lines}");
            }
            match RunRecord::from_result_line(w.name, traced, result) {
                Ok(record) => RunRecord {
                    correct: record.correct && success,
                    ..record
                },
                Err(e) => {
                    eprintln!(
                        "opt-benchmark: {} --trace {}: {e}",
                        w.name,
                        u8::from(traced)
                    );
                    RunRecord::lost(w.name, traced)
                }
            }
        }
    }
}

fn workloads(args: &Args) -> Vec<Workload> {
    Workload::all()
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

/// One pass over the workloads: per workload, the kinds of run in `traces`.
fn pass(args: &Args, seed: u64, traces: &[bool]) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for w in workloads(args) {
        for &traced in traces {
            records.push(run_child(args, &w, seed, traced));
        }
    }
    records
}

fn find<'a>(records: &'a [RunRecord], workload: &str, traced: bool) -> Option<&'a RunRecord> {
    records
        .iter()
        .find(|r| r.workload == workload && r.traced == traced)
}

/// The reproduction's live version of the paper's speed-up: the dense
/// baseline's iteration time over Optimus-CC's, both on the real wire.
fn derived(records: &[RunRecord]) -> Vec<(String, f64)> {
    let p50 = |w| find(records, w, false).and_then(|r| r.value("iter_ms_p50"));
    match (p50("dp2-mid-dense-tcp"), p50("dp2-mid-optcc-tcp")) {
        (Some(dense), Some(optcc)) if optcc > 0.0 => {
            vec![("speedup_optcc_over_dense_tcp".to_string(), dense / optcc)]
        }
        _ => Vec::new(),
    }
}

fn write_results(args: &Args, records: &[RunRecord]) -> Result<(), String> {
    let derived = derived(records);
    for (name, value) in &derived {
        println!("derived {name} {value} ratio");
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "runs",
            Json::Arr(records.iter().map(RunRecord::to_json).collect()),
        ),
        (
            "derived",
            Json::Obj(
                derived
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn all_correct(records: &[RunRecord]) -> bool {
    for r in records.iter().filter(|r| !r.correct) {
        eprintln!(
            "opt-benchmark: {} --trace {} is not correct ({} of {} iterations failed)",
            r.workload,
            u8::from(r.traced),
            r.failed,
            r.attempted
        );
    }
    records.iter().all(|r| r.correct)
}

fn load_spec(root: &Path) -> Result<Json, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(spec: &Json) -> BTreeMap<String, f64> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Two passes of unchanged code must agree: every exact metric
/// identical, every end-to-end metric within its bound of the other run.
fn aa(args: &Args) -> Result<bool, String> {
    let bounds = bounds(&load_spec(&args.root)?);
    let a = pass(args, args.seed, &[false, true]);
    let b = pass(args, args.seed, &[false, true]);
    write_results(args, &b)?;
    let mut ok = all_correct(&a) & all_correct(&b);
    for ra in &a {
        let Some(rb) = find(&b, &ra.workload, ra.traced) else {
            continue;
        };
        for Metric {
            name,
            value: va,
            unit,
            ..
        } in &ra.metrics
        {
            let (Some(vb), Some(def)) = (rb.value(name), def_of(name)) else {
                eprintln!(
                    "opt-benchmark: aa: {} {name} is missing from the second pass",
                    ra.workload
                );
                ok = false;
                continue;
            };
            let diff = (va - vb).abs() / ((va.abs() + vb.abs()) / 2.0).max(f64::MIN_POSITIVE);
            let fault = match (def.exact, bounds.get(name.as_str())) {
                (true, _) if va.to_bits() != vb.to_bits() => Some("DIFFERS (exact)"),
                (false, Some(bound)) if diff > *bound => Some("OUTSIDE BOUND"),
                _ => None,
            };
            if fault.is_some() || !ra.traced {
                println!(
                    "aa {} {name} {va} vs {vb} {unit}  diff {diff:.4}  {}",
                    ra.workload,
                    fault.unwrap_or("ok")
                );
            }
            ok &= fault.is_none();
        }
    }
    println!("aa {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Runs every workload's end-to-end run at ten seeds — the driver's own
/// acceptance procedure — and sets each metric's bound to the larger of
/// its floor and three times its widest spread (interquartile range over
/// median) on any workload, so that the spread stays under a third of the
/// bound. Writes the observed spreads to `benchmark/calibration.json` and
/// the bounds into `BENCHMARK.json`.
fn calibrate(args: &Args) -> Result<bool, String> {
    let mut spec = load_spec(&args.root)?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..CALIBRATION_SEEDS {
        let records = pass(args, args.seed + i, &[false]);
        ok &= all_correct(&records);
        for r in &records {
            for m in &r.metrics {
                values
                    .entry((m.name.clone(), r.workload.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    let mut spreads: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for ((metric, workload), v) in &values {
        if v.len() >= 2 {
            let spread = iqr_over_median(v);
            println!(
                "calibrate {workload} {metric} spread {spread:.5} over {} seeds",
                v.len()
            );
            spreads
                .entry(metric.clone())
                .or_default()
                .insert(workload.clone(), spread);
        }
    }
    let mut new_bounds = BTreeMap::new();
    for def in END_TO_END {
        let Some(worst) = spreads
            .get(def.name)
            .map(|s| s.values().copied().fold(0.0, f64::max))
        else {
            return Err(format!("no calibration values for {}", def.name));
        };
        // Rounded up to a whole per cent (a tenth for the exact metrics).
        let step = if def.exact { 1e3 } else { 1e2 };
        let bound = ((3.0 * worst).max(def.floor) * step).ceil() / step;
        if bound > 0.25 {
            eprintln!(
                "opt-benchmark: {} spreads {worst:.4}; three times that exceeds the 0.25 cap — lengthen the rounds",
                def.name
            );
            ok = false;
        }
        new_bounds.insert(def.name, bound.min(0.25));
    }
    // The metric tables are the source of the two lists; only the bounds
    // are measured.
    let entry = |def: &MetricDef| {
        vec![
            ("name".to_string(), Json::str(def.name)),
            ("unit".to_string(), Json::str(def.unit)),
            ("better".to_string(), Json::str(def.better.as_str())),
        ]
    };
    let end_to_end = END_TO_END.iter().map(|def| {
        let mut e = entry(def);
        e.push(("bound".to_string(), Json::Num(new_bounds[def.name])));
        Json::Obj(e)
    });
    for (key, list) in [
        ("end_to_end", end_to_end.collect()),
        (
            "per_layer",
            PER_LAYER.iter().map(|d| Json::Obj(entry(d))).collect(),
        ),
    ] {
        *spec
            .get_mut(key)
            .ok_or_else(|| format!("BENCHMARK.json has no {key}"))? = Json::Arr(list);
    }
    let nested = |m: &BTreeMap<String, f64>| {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
    };
    let report = Json::obj([
        ("first_seed", Json::Num(args.seed as f64)),
        ("seeds", Json::Num(CALIBRATION_SEEDS as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "rule",
            Json::str("bound = max(floor, 3 x widest IQR/median over workloads), at most 0.25"),
        ),
        (
            "bounds",
            Json::Obj(
                new_bounds
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "spreads",
            Json::Obj(
                spreads
                    .iter()
                    .map(|(k, v)| (k.clone(), nested(v)))
                    .collect(),
            ),
        ),
    ]);
    for (path, text) in [
        (
            args.root.join("benchmark").join("calibration.json"),
            report.pretty(),
        ),
        (args.root.join("BENCHMARK.json"), spec.pretty()),
    ] {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

/// Runs the suite in the mode `args` asks for; `Ok(false)` means it ran
/// but a run was incorrect or a comparison failed.
pub fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    match args.mode {
        SuiteMode::Once => {
            let records = pass(args, args.seed, &[false, true]);
            write_results(args, &records)?;
            Ok(all_correct(&records))
        }
        SuiteMode::Aa => aa(args),
        SuiteMode::Calibrate => calibrate(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            workload: "dp2-mid-dense-tcp".into(),
            traced: false,
            correct: true,
            attempted: 231,
            failed: 0,
            metrics: [
                ("iter_ms_p50", 101.234_567_890_123, "ms"),
                ("setup_s", 0.8127, "s"),
            ]
            .map(|(name, value, unit)| Metric {
                name: name.into(),
                value,
                unit: unit.into(),
                note: String::new(),
            })
            .to_vec(),
        }
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let r = record();
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":231,\"failed\":0,\"metrics\":{"));
        assert!(!line.contains('\n'));
        assert_eq!(
            RunRecord::from_result_line(&r.workload, false, &line).unwrap(),
            r
        );
    }

    #[test]
    fn malformed_result_lines_are_refused() {
        for bad in [
            "",
            "not json",
            "{\"correct\":true}",
            "{\"correct\":true,\"attempted\":1.5,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"m\":{\"value\":1}}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a b\":{\"value\":1,\"unit\":\"s\"}}}",
        ] {
            assert!(RunRecord::from_result_line("w", false, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn human_lines_name_workload_metric_value_unit() {
        let text = record().lines();
        assert!(text.contains("dp2-mid-dense-tcp iter_ms_p50 101.234567890123 ms\n"));
        assert!(text
            .contains("dp2-mid-dense-tcp failed_frac 0 ratio  (0 of 231 iterations attempted)\n"));
    }

    #[test]
    fn derived_speedup_needs_both_tcp_workloads() {
        let mut dense = record();
        let mut optcc = record();
        optcc.workload = "dp2-mid-optcc-tcp".into();
        optcc.metrics[0].value = 80.0;
        dense.metrics[0].value = 100.0;
        assert_eq!(derived(&[dense.clone()]), vec![]);
        assert_eq!(
            derived(&[dense, optcc]),
            vec![("speedup_optcc_over_dense_tcp".to_string(), 1.25)]
        );
    }
}
