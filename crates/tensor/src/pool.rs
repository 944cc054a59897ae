//! The deterministic kernel worker pool.
//!
//! Large GEMMs fan their output row-panels out across scoped worker
//! threads. The decomposition is a *fixed* function of the output shape and
//! the configured thread count — never of timing — and every output element
//! is produced by exactly one thread using the same ascending-`k`
//! accumulation chain as the sequential kernel. Results are therefore
//! **bit-identical** for any thread count, which is what lets the
//! checkpoint/restore subsystem guarantee bit-exact resume even when the
//! snapshot and the restored run use different `OPT_KERNEL_THREADS`
//! settings.
//!
//! The pool is "scoped": threads are spawned per call via
//! [`std::thread::scope`] so they can borrow the operands and disjoint
//! slices of the output without any `unsafe`. Spawn overhead is amortized
//! by only parallelizing calls above a FLOP threshold (see
//! [`parallel_flop_threshold`]).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on worker threads, whatever the environment says.
pub const MAX_KERNEL_THREADS: usize = 16;

/// Default cap applied on top of `available_parallelism` when
/// `OPT_KERNEL_THREADS` is unset: the kernels target "a small deterministic
/// worker pool", not the whole machine.
const DEFAULT_THREAD_CAP: usize = 8;

/// Below this many FLOPs (`2*m*n*k`) a GEMM runs sequentially on the
/// calling thread. Workers are scoped threads spawned per call (the
/// unsafe-free way to borrow operands), so each fan-out costs a few tens
/// of microseconds per worker; 32 MFLOPs (~1.5 ms of single-thread work)
/// keeps that under a few percent. A 4096x4096 gradient against a rank-8
/// factor is ~268 MFLOPs — comfortably parallel.
const DEFAULT_PARALLEL_FLOPS: usize = 32 * 1024 * 1024;

/// 0 means "not yet initialized from the environment".
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// 0 means "not yet probed".
static HOST_PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// The host's available parallelism, probed once. The GEMM thread planner
/// caps fan-out at this value (when a real FLOP threshold is configured)
/// so a pool sized for a big machine doesn't oversubscribe a small one —
/// the committed-baseline regression was exactly 4 workers contending for
/// 1 core on a skinny 2 MiFLOP product.
pub fn host_parallelism() -> usize {
    match HOST_PARALLELISM.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            HOST_PARALLELISM.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// The threshold in effect: the committed constant unless a test or
/// benchmark overrode it (0 is a meaningful override: always parallelize).
static PARALLEL_FLOPS: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_FLOPS);

fn threads_from_env() -> usize {
    std::env::var("OPT_KERNEL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(DEFAULT_THREAD_CAP)
        })
        .min(MAX_KERNEL_THREADS)
}

/// The number of worker threads the kernel layer fans out to.
///
/// Resolved once from `OPT_KERNEL_THREADS` (clamped to
/// `1..=`[`MAX_KERNEL_THREADS`]); without the variable it defaults to the
/// machine's available parallelism capped at a small pool size. Thread
/// count never changes results — see the module docs.
pub fn kernel_threads() -> usize {
    match KERNEL_THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = threads_from_env();
            KERNEL_THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the worker-thread count at runtime (benchmarks, determinism
/// tests). Clamped to `1..=`[`MAX_KERNEL_THREADS`]. Because kernels are
/// bit-identical across thread counts, this only ever changes speed.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.clamp(1, MAX_KERNEL_THREADS), Ordering::Relaxed);
}

/// The FLOP count (`2*m*n*k`) above which a GEMM is fanned out to the
/// worker pool: 32 MFLOPs unless [`set_parallel_flop_threshold`] changed
/// it. The path is chosen from the observed shape, not from a setting.
pub fn parallel_flop_threshold() -> usize {
    PARALLEL_FLOPS.load(Ordering::Relaxed)
}

/// Overrides the parallelization threshold (tests force `0` so that tiny
/// matrices exercise the multi-threaded path).
pub fn set_parallel_flop_threshold(flops: usize) {
    PARALLEL_FLOPS.store(flops, Ordering::Relaxed);
}

/// Fixed decomposition of `panels` micro-panels over `threads` workers:
/// worker `i` gets the half-open panel range returned at index `i`.
/// Contiguous, deterministic, and independent of runtime timing.
pub(crate) fn panel_ranges(panels: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(panels.max(1));
    let base = panels / threads;
    let rem = panels % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let len = base + usize::from(i < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_ranges_cover_exactly() {
        for panels in 0..40usize {
            for threads in 1..6usize {
                let ranges = panel_ranges(panels, threads);
                let mut next = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, next, "gap at {s} ({panels} panels, {threads} thr)");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, panels, "{panels} panels over {threads} threads");
                // Balanced: no two ranges differ by more than one panel.
                let lens: Vec<_> = ranges.iter().map(|(s, e)| e - s).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn thread_override_round_trips() {
        set_kernel_threads(3);
        assert_eq!(kernel_threads(), 3);
        set_kernel_threads(0); // clamped up
        assert_eq!(kernel_threads(), 1);
        set_kernel_threads(usize::MAX); // clamped down
        assert_eq!(kernel_threads(), MAX_KERNEL_THREADS);
        set_kernel_threads(4);
    }

    #[test]
    fn threshold_override_round_trips() {
        let orig = parallel_flop_threshold();
        set_parallel_flop_threshold(123);
        assert_eq!(parallel_flop_threshold(), 123);
        set_parallel_flop_threshold(orig);
    }
}
