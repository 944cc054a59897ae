//! `opt-bench` — experiment harness for the Optimus-CC reproduction.
//!
//! One binary per paper table/figure (see `src/bin/`), each printing the
//! same rows/series the paper reports, plus `opt_worker` (the process-world
//! rank the `multiproc` suite spawns), `trace_report` (offline Chrome-trace
//! analysis, built on the [`json`] reader) and the Criterion
//! micro-benchmarks in `benches/`. The repo's timing instrument is not
//! here: it is the standalone `benchmark/` package (`benchmark/run.sh`).

pub mod json;

use std::fmt::Display;

/// Prints a simple aligned table: a header row then data rows.
///
/// # Example
///
/// ```
/// opt_bench::print_table(
///     &["config", "time"],
///     &[vec!["baseline".to_string(), "1.00".to_string()]],
/// );
/// ```
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with the given precision.
pub fn fmt<T: Display>(v: T) -> String {
    v.to_string()
}

/// Formats seconds as days for an `iters`-iteration training run.
pub fn days(iteration_s: f64, iters: u64) -> String {
    format!("{:.2}", iteration_s * iters as f64 / 86_400.0)
}

/// Formats a speedup of `slow` over `fast` as `+x.xx%`.
pub fn speedup_pct(slow: f64, fast: f64) -> String {
    format!("{:+.2}%", (slow / fast - 1.0) * 100.0)
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formats_sign() {
        assert_eq!(speedup_pct(2.0, 1.0), "+100.00%");
        assert!(speedup_pct(1.0, 2.0).starts_with('-'));
    }

    #[test]
    fn days_projection() {
        assert_eq!(days(86_400.0, 2), "2.00");
    }
}
