//! One `(stage, dp)` rank of a benchmark TCP world as a real OS process:
//! the benchmark's own copy of the `opt-worker` entry point, so the
//! package needs nothing from `crates/bench`.

fn main() {
    if let Err(e) = optimus_cc::worker_main() {
        eprintln!("bench_worker failed: {e}");
        std::process::exit(1);
    }
}
