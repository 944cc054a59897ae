//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! Two ways in:
//!
//! * `--workload NAME --trace 0|1 --seed N --seconds S` — one run of one
//!   workload in this process: end-to-end metrics with `--trace 0`,
//!   per-layer metrics with `--trace 1`. Prints `workload metric value
//!   unit` lines and, last, one JSON result object.
//! * without `--trace` — the suite: every workload (or the one named),
//!   both kinds of run, each in a fresh process; writes `results.json`.
//!   `--aa` runs the suite twice and compares; `--calibrate` runs the
//!   end-to-end half at ten seeds and writes the bounds.

mod json;
mod replay;
mod rounds;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;
mod world;

use run::RunOutcome;
use std::path::PathBuf;
use workload::Workload;
use world::Fabric;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
pub const DEFAULT_SEED: u64 = 1234;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteMode {
    Once,
    Aa,
    Calibrate,
}

#[derive(Debug)]
pub struct Args {
    /// The checkout: holds `BENCHMARK.json` and `benchmark/`.
    pub root: PathBuf,
    pub out: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub mode: SuiteMode,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        out: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        mode: SuiteMode::Once,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number from 1 to 60")?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--aa" => args.mode = SuiteMode::Aa,
            "--calibrate" => args.mode = SuiteMode::Calibrate,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if Workload::by_name(name).is_none() {
            let known: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    if args.trace.is_some() && (args.workload.is_none() || args.mode != SuiteMode::Once) {
        return Err(
            "--trace runs one workload: give --workload, and neither --aa nor --calibrate".into(),
        );
    }
    if args.out.as_os_str().is_empty() {
        args.out = args.root.join("benchmark").join("out");
    }
    Ok(args)
}

/// One run of one workload in this process.
fn single(args: &Args, w: &Workload, traced: bool) -> Result<RunOutcome, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let fabric = Fabric::new(w.launch, &args.out)?;
    if traced {
        let spans = args.out.join(format!("{}.spans.json", w.name));
        run::per_layer(w, args.seed, args.seconds, &fabric, &spans)
    } else {
        run::end_to_end(w, args.seed, args.seconds, &fabric, &args.out)
    }
}

fn main() {
    // One kernel thread per rank: every workload already runs two ranks on
    // the reference box's two cores. Set before any thread exists; worker
    // processes inherit it.
    std::env::set_var("OPT_KERNEL_THREADS", "1");
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("opt-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let ok = match (args.trace, &args.workload) {
        (Some(traced), Some(name)) => {
            let w = Workload::by_name(name).expect("validated by parse_args");
            match single(&args, &w, traced) {
                Ok(outcome) => {
                    for problem in &outcome.problems {
                        eprintln!("opt-benchmark: {}: {problem}", w.name);
                    }
                    let record = suite::RunRecord::new(w.name, traced, &outcome);
                    print!("{}", record.lines());
                    println!("{}", record.result_line());
                    outcome.correct()
                }
                Err(e) => {
                    eprintln!("opt-benchmark: {}: {e}", w.name);
                    false
                }
            }
        }
        _ => suite::run(&args).unwrap_or_else(|e| {
            eprintln!("opt-benchmark: {e}");
            false
        }),
    };
    // Threads a hung round left behind must not keep the process alive.
    std::process::exit(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            std::iter::once("bin")
                .chain(line.split_whitespace())
                .map(String::from),
        )
    }

    #[test]
    fn driver_command_line_selects_a_single_run() {
        let a = parse("--workload pp2-small-local --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("pp2-small-local"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, Some(true)));
        assert_eq!(a.out, PathBuf::from("./benchmark/out"));
        let suite = parse("--seed 5").unwrap();
        assert_eq!((suite.trace, suite.mode), (None, SuiteMode::Once));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--trace 0",
            "--trace 2 --workload pp2-small-local",
            "--seconds 0",
            "--seconds 61",
            "--seed x",
            "--aa --trace 0 --workload pp2-small-local",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
