//! Runtime kernel-architecture dispatch.
//!
//! The kernels come in two implementations: an AVX2+FMA form on x86_64
//! hosts that have it, and a portable scalar form. Which one runs is
//! resolved **once** per process, from the first probe of
//! [`kernel_arch`]:
//!
//! 1. `OPT_KERNEL_ARCH=scalar|avx2` forces a path (benchmarking the
//!    fallback on a SIMD box, CI's forced-scalar leg). Requesting a path
//!    the host cannot execute panics instead of silently falling back —
//!    a benchmark or test run under an override must never measure a
//!    different kernel than it claims. `detect` (or an empty value) is
//!    the same as leaving the variable unset.
//! 2. Otherwise the host is probed (`is_x86_feature_detected!("avx2")` +
//!    `"fma"` on x86_64).
//! 3. Anything else falls back to [`KernelArch::Scalar`].
//!
//! Every path produces **bit-identical results**. The contract names no
//! instruction set: one ascending-`k` fused-multiply-add chain per output
//! element, a fixed 8-lane split for dot reductions, and a fixed sequence
//! of IEEE-exact operations per element for `exp` / GELU (see `simd.rs`).
//! The scalar form spells it out with [`f32::mul_add`], so a kernel for
//! another target is a new [`KernelArch`] variant that transcribes that
//! order. `tests/kernel_equivalence.rs` enforces the contract across
//! every path the host can run.
//!
//! The module also keeps per-`{arch, dense/sparse}` invocation counters so
//! a trace export can show which kernel paths a run actually exercised
//! (see [`kernel_path_counts`]).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which micro-kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelArch {
    /// Portable `f32::mul_add` loops — the universal fallback. Correctly
    /// rounded fused multiply-add is unique, so this produces the same
    /// bits as the hardware-FMA paths (at libcall speed on hosts without
    /// an FMA unit).
    Scalar,
    /// x86_64 AVX2 + FMA (`_mm256_fmadd_ps`) micro-kernels.
    Avx2,
}

impl KernelArch {
    /// Stable lowercase name, as accepted by `OPT_KERNEL_ARCH`.
    pub fn name(self) -> &'static str {
        match self {
            KernelArch::Scalar => "scalar",
            KernelArch::Avx2 => "avx2",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelArch::Scalar => 1,
            KernelArch::Avx2 => 2,
        }
    }

    fn from_code(code: u8) -> Option<KernelArch> {
        match code {
            1 => Some(KernelArch::Scalar),
            2 => Some(KernelArch::Avx2),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self.code() as usize - 1
    }
}

/// 0 means "not yet resolved".
static KERNEL_ARCH: AtomicU8 = AtomicU8::new(0);

/// Whether the host can execute a given path's instructions.
pub fn arch_available(arch: KernelArch) -> bool {
    match arch {
        KernelArch::Scalar => true,
        KernelArch::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
    }
}

/// Every path the host can run, scalar first, detected SIMD path last.
/// The cross-arch equivalence tests iterate exactly this list, which is
/// what makes the CI `kernel-equivalence` step meaningful: a path the
/// dispatcher could pick is always a path the oracle ran against.
pub fn available_arches() -> Vec<KernelArch> {
    let mut arches = vec![KernelArch::Scalar];
    if arch_available(KernelArch::Avx2) {
        arches.push(KernelArch::Avx2);
    }
    arches
}

/// The best path the host supports (ignoring any override).
pub fn detected_arch() -> KernelArch {
    if arch_available(KernelArch::Avx2) {
        KernelArch::Avx2
    } else {
        KernelArch::Scalar
    }
}

fn arch_from_env() -> KernelArch {
    match std::env::var("OPT_KERNEL_ARCH") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            let requested = match v.as_str() {
                "" | "detect" => return detected_arch(),
                "scalar" => KernelArch::Scalar,
                "avx2" => KernelArch::Avx2,
                other => panic!("OPT_KERNEL_ARCH={other:?} is not one of scalar|avx2|detect"),
            };
            assert!(
                arch_available(requested),
                "OPT_KERNEL_ARCH={} requested but this host cannot execute that path",
                requested.name()
            );
            requested
        }
        Err(_) => detected_arch(),
    }
}

/// The kernel path this process dispatches to, resolved once from
/// `OPT_KERNEL_ARCH` (else hardware detection) on first use.
pub fn kernel_arch() -> KernelArch {
    match KernelArch::from_code(KERNEL_ARCH.load(Ordering::Relaxed)) {
        Some(arch) => arch,
        None => {
            let arch = arch_from_env();
            KERNEL_ARCH.store(arch.code(), Ordering::Relaxed);
            arch
        }
    }
}

/// Overrides the kernel path at runtime (equivalence tests, benchmark
/// variant rows). Because every path is bit-identical, this only ever
/// changes speed.
///
/// # Panics
///
/// Panics if the host cannot execute `arch` — an override must never
/// silently measure a different kernel than it claims.
pub fn set_kernel_arch(arch: KernelArch) {
    assert!(
        arch_available(arch),
        "set_kernel_arch({}): this host cannot execute that path",
        arch.name()
    );
    KERNEL_ARCH.store(arch.code(), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Kernel-path invocation counters
// ---------------------------------------------------------------------------

/// Process-wide invocation counters, one per `{arch, dense|sparse}` pair
/// (indexed `[arch][kind]`). "Dense" counts GEMM driver entries under the
/// selected arch, one per product whatever its size; "sparse" counts
/// sparse-subtract entries ([`crate::SparseMatrix::sub_from`]). The
/// element-wise kernels (`exp`, `gelu`, `gelu_backward`) are deliberately
/// not counted: the counters describe which *matrix-product* paths a run
/// exercised, and their deltas must stay comparable across changes to the
/// activation code.
static PATH_COUNTS: [[AtomicU64; 2]; 2] = [
    [AtomicU64::new(0), AtomicU64::new(0)],
    [AtomicU64::new(0), AtomicU64::new(0)],
];

pub(crate) fn note_dense_kernel(arch: KernelArch) {
    PATH_COUNTS[arch.index()][0].fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_sparse_kernel(arch: KernelArch) {
    PATH_COUNTS[arch.index()][1].fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the per-path invocation counters:
/// `(arch name, "dense"|"sparse", invocations)` for all four pairs, in a
/// fixed order. Counters are process-global and monotonic; consumers
/// (the Chrome-trace exporter, `trace_report`) typically show only the
/// nonzero entries.
pub fn kernel_path_counts() -> [(&'static str, &'static str, u64); 4] {
    let arches = [KernelArch::Scalar, KernelArch::Avx2];
    let mut out = [("", "", 0u64); 4];
    for (i, arch) in arches.iter().enumerate() {
        for (j, path) in ["dense", "sparse"].iter().enumerate() {
            out[i * 2 + j] = (
                arch.name(),
                path,
                PATH_COUNTS[arch.index()][j].load(Ordering::Relaxed),
            );
        }
    }
    out
}

/// Resets the invocation counters to zero (tests).
pub fn reset_kernel_path_counts() {
    for per_arch in &PATH_COUNTS {
        for c in per_arch {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(arch_available(KernelArch::Scalar));
        let arches = available_arches();
        assert_eq!(arches[0], KernelArch::Scalar);
        assert!(arches.contains(&detected_arch()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelArch::Scalar.name(), "scalar");
        assert_eq!(KernelArch::Avx2.name(), "avx2");
    }

    #[test]
    fn arch_codes_roundtrip() {
        for arch in [KernelArch::Scalar, KernelArch::Avx2] {
            assert_eq!(KernelArch::from_code(arch.code()), Some(arch));
        }
        assert_eq!(KernelArch::from_code(0), None);
        // Code 3 named a retired path; it stays unassigned.
        assert_eq!(KernelArch::from_code(3), None);
        assert_eq!(KernelArch::from_code(9), None);
    }

    #[test]
    fn path_counts_enumerate_all_pairs() {
        let counts = kernel_path_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0].0, "scalar");
        assert_eq!(counts[0].1, "dense");
        assert_eq!(counts[3].0, "avx2");
        assert_eq!(counts[3].1, "sparse");
    }
}
