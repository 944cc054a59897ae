//! SIMD micro-kernels and the lane-order accumulation contract.
//!
//! # The kernel bit-contract
//!
//! Three kernel shapes cover every kernel in this crate. Each has one
//! fixed operation order, stated here without reference to any
//! instruction set; a vector kernel for a new target is a transcription
//! of the order below, checked by the same tests.
//!
//! * **Per-element FMA chains** (GEMM): every output element is a single
//!   fused-multiply-add chain over ascending `k` — `acc = fma(a_k, b_k,
//!   acc)`. A vector kernel may vectorize across *output columns*
//!   (broadcast `a`, vector `b`), which interleaves different elements'
//!   chains but never reassociates any one chain. Correctly rounded FMA
//!   is unique, so a hardware fused multiply-add and the scalar form's
//!   [`f32::mul_add`] produce identical bits.
//!
//! * **8-lane split dot reductions** ([`dot`], used by modified
//!   Gram–Schmidt): element `i` accumulates into lane `i % 8` (full
//!   8-element chunks round-robin the lanes; the tail fills lanes
//!   `0..len % 8`), each lane being an FMA chain, and the eight lanes are
//!   reduced strictly left-to-right at the end. However a kernel holds the
//!   eight lanes (one 8-wide vector, two 4-wide ones, or the scalar form's
//!   `[f32; 8]`), the lanes, their chains and the final reduction are the
//!   same, so the bits agree.
//!
//! * **Element-wise lanes** ([`exp`], [`gelu`], [`gelu_backward`]): every
//!   output element is a function of its own input element only, written
//!   once ([`exp_lane`] and friends) as a fixed sequence of IEEE-exact
//!   operations — fma, multiply, add, subtract, divide, compare-and-select,
//!   the round-to-nearest integer conversion done by adding `1.5 * 2^23`,
//!   and an integer shift that inserts the exponent. Every one of those is
//!   correctly rounded (or exact) with a unique result, so no two
//!   compilations of the lane function can disagree: a vector form is the
//!   *same* lane function compiled under a wider instruction set (the
//!   loop vectorizes across elements), and the scalar form is the same
//!   function one element at a time. No libm transcendental (`expf`,
//!   `tanhf`) is involved. (A NaN result is a NaN on every path; which NaN
//!   — sign and payload — is the one thing IEEE leaves to the hardware,
//!   and the contract does not cover it.)
//!
//! `tests/kernel_equivalence.rs` pins all three shapes against scalar
//! oracles on every path the host can execute; CI runs it on x86_64,
//! where that is the scalar form and AVX2, at 1 and 4 kernel threads.
//!
//! # The GEMM register tile
//!
//! Every GEMM micro-kernel updates one `MR x NR` = 6 x 16 tile of
//! accumulators per `k` step: `NR / lanes` vector loads of B (two `__m256`
//! on AVX2), then per tile row one broadcast of `a` and `NR / lanes` FMAs.
//! The AVX2 kernels are written over that vectors-per-row count, so the
//! tile shape lives in `gemm.rs` alone. A step issues 8 loads for 12 FMAs
//! (an 8 x 8 tile issued 9 for 8, which made load issue, not the FMA
//! units, the limit) and keeps 12 independent chains in flight, more than
//! FMA latency times its two ports needs.

use crate::dispatch::{kernel_arch, KernelArch};
use crate::gemm::{MR, NR};

/// Lane count of the split-dot contract (one AVX2 vector of `f32`).
pub(crate) const DOT_LANES: usize = 8;

/// The contract's final lane reduction: strictly left-to-right.
#[inline]
pub(crate) fn reduce_lanes(lanes: &[f32; DOT_LANES]) -> f32 {
    let mut acc = lanes[0];
    for &l in &lanes[1..] {
        acc += l;
    }
    acc
}

// ---------------------------------------------------------------------------
// Scalar fallback (also the contract's executable definition)
// ---------------------------------------------------------------------------

/// Packed-A micro-kernel, scalar contract emulation:
/// `acc[i][j] = fma(apack[k][i], bpanel[k][j], acc[i][j])`, `k` ascending.
#[inline(always)]
pub(crate) fn micro_kernel_packed_scalar(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in apack.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = ap[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(bp[j], acc[i][j]);
            }
        }
    }
}

/// Direct-rows micro-kernel (row-major A streamed without packing),
/// scalar contract emulation.
#[inline(always)]
pub(crate) fn micro_kernel_rows_scalar(
    arows: &[&[f32]; MR],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (kk, bp) in bpanel.chunks_exact(NR).enumerate() {
        for i in 0..MR {
            let ai = arows[i][kk];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(bp[j], acc[i][j]);
            }
        }
    }
}

/// 8-lane split dot product, scalar contract emulation.
#[inline(always)]
pub(crate) fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; DOT_LANES];
    let chunks = a.len() / DOT_LANES;
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let idx = c * DOT_LANES + j;
            *lane = a[idx].mul_add(b[idx], *lane);
        }
    }
    let base = chunks * DOT_LANES;
    for (j, lane) in lanes.iter_mut().enumerate().take(a.len() - base) {
        *lane = a[base + j].mul_add(b[base + j], *lane);
    }
    reduce_lanes(&lanes)
}

// ---------------------------------------------------------------------------
// Element-wise lanes (the third contract shape's executable definition)
// ---------------------------------------------------------------------------

/// Inputs above this give `+inf` (`ln(f32::MAX)` is 88.72).
const EXP_HI: f32 = 89.0;
/// Inputs below this give `+0` (`ln(2^-150)`, half the smallest
/// subnormal, is -103.97).
const EXP_LO: f32 = -104.0;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `n * LN2_HI` is exact for every `|n| <= 2^9`.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;
/// `1.5 * 2^23`: adding it rounds a small float to the nearest integer
/// (ties to even) and leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `e^x`, accurate to under 2 ulp, without libm.
///
/// `x = n ln2 + r` with `|r| <= ln2 / 2`; `e^r` is the Cephes `expf`
/// polynomial in Horner form; the scale `2^n` is applied as two exponent
/// bit-inserts `2^(n>>1) * 2^(n - (n>>1))` so that `n = 128` (results just
/// under `f32::MAX`) and `n < -126` (subnormal results, rounded once by
/// the final multiply) need no special case. NaN propagates through the
/// float path whatever bits the integer path makes of it.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let xc = x.clamp(EXP_LO, EXP_HI);
    let t = xc.mul_add(LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let ni = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let r = n.mul_add(-LN2_HI, xc);
    let r = n.mul_add(-LN2_LO, r);
    let mut p = 1.987_569_1e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 1.666_666_6e-1);
    p = p.mul_add(r, 0.5);
    let e = p.mul_add(r * r, r) + 1.0;
    let half = ni >> 1;
    let s1 = f32::from_bits((half.wrapping_add(127) as u32) << 23);
    let s2 = f32::from_bits((ni.wrapping_sub(half).wrapping_add(127) as u32) << 23);
    e * s1 * s2
}

/// `2 sqrt(2/pi)` and `2 sqrt(2/pi) * 0.044715`: the tanh-GELU's inner
/// polynomial, doubled because `0.5 (1 + tanh u) = 1 / (1 + e^(-2u))`.
const GELU_C1: f32 = 1.595_769_2;
const GELU_C3: f32 = 0.071_354_814;
/// `gelu'` is evaluated on `x` clamped to this magnitude: beyond it the
/// derivative is 1 or 0 to within `3e-35`, and inside it `e^(-2u)` neither
/// overflows nor flushes, so the backward lane is finite for every
/// non-NaN input.
const GELU_GRAD_CLAMP: f32 = 9.9;

/// Tanh-approximation GELU `0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))`
/// in its algebraically equal logistic form `x / (1 + e^(-2u))`: one
/// [`exp_lane`] and one division, and no `1 + tanh` cancellation in the
/// negative tail. `gelu(-inf)` is NaN, as in the textbook formula.
#[inline(always)]
fn gelu_lane(x: f32) -> f32 {
    let z = x * (x * x).mul_add(GELU_C3, GELU_C1);
    x / (1.0 + exp_lane(-z))
}

/// `g * gelu'(x)` with `gelu'(x) = s + x z'(x) s (1 - s)`, `s` the
/// logistic of `z = 2u`; `s (1 - s)` is computed as `e s^2` with
/// `e = e^(-z)`, which keeps full relative accuracy in both tails.
#[inline(always)]
fn gelu_backward_lane(x: f32, g: f32) -> f32 {
    let xc = x.clamp(-GELU_GRAD_CLAMP, GELU_GRAD_CLAMP);
    let x2 = xc * xc;
    let z = xc * x2.mul_add(GELU_C3, GELU_C1);
    let dz = x2.mul_add(3.0 * GELU_C3, GELU_C1);
    let e = exp_lane(-z);
    let s = 1.0 / (1.0 + e);
    g * (xc * dz).mul_add(e * s * s, s)
}

/// The slice loops every arch form instantiates: inlined into a
/// `#[target_feature]` wrapper they vectorize across elements under that
/// instruction set; called directly they are the scalar form.
#[inline(always)]
pub(crate) fn exp_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = exp_lane(*x);
    }
}

#[inline(always)]
pub(crate) fn gelu_scalar(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_lane(v);
    }
}

#[inline(always)]
pub(crate) fn gelu_backward_scalar(x: &[f32], grad: &[f32], dx: &mut [f32]) {
    for ((d, &v), &g) in dx.iter_mut().zip(x).zip(grad) {
        *d = gelu_backward_lane(v, g);
    }
}

// A note on the scalar fallback's speed: on builds whose baseline target
// features lack hardware FMA (plain x86_64 builds), [`f32::mul_add`]
// lowers to a libm `fmaf` call per multiply, which makes the scalar tile
// roughly an order of magnitude slower than an unfused `acc += a * b`
// loop. That cost is inherent to the bit contract — a correctly rounded
// fused chain is the only accumulation every kernel path can reproduce
// exactly — and the scalar tile (like the scalar form of the element-wise
// lanes above, a dozen `mul_add`s per element) is the contract's portable
// reference, not a performance path.

// ---------------------------------------------------------------------------
// AVX2 + FMA (x86_64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{DOT_LANES, MR, NR};
    use std::arch::x86_64::*;

    /// `__m256` vectors per tile row.
    const NV: usize = NR / 8;

    // The tile helpers below are `#[inline(always)]` instead of
    // `#[target_feature]` (the two attributes cannot be combined): they
    // compile as part of the AVX2 kernels that call them, where every
    // intrinsic inlines and the tile lives in 12 `ymm` registers.

    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[inline(always)]
    unsafe fn load_tile(acc: &[[f32; NR]; MR]) -> [[__m256; NV]; MR] {
        let mut vacc = [[_mm256_setzero_ps(); NV]; MR];
        for (vrow, row) in vacc.iter_mut().zip(acc) {
            for (c, v) in vrow.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(row.as_ptr().add(c * 8));
            }
        }
        vacc
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[inline(always)]
    unsafe fn store_tile(vacc: &[[__m256; NV]; MR], acc: &mut [[f32; NR]; MR]) {
        for (vrow, row) in vacc.iter().zip(acc) {
            for (c, v) in vrow.iter().enumerate() {
                _mm256_storeu_ps(row.as_mut_ptr().add(c * 8), *v);
            }
        }
    }

    /// One `k` step: `NV` loads of B's row `kk`, then per tile row one
    /// broadcast of `a(i)` and `NV` FMAs.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA; `bp` must be valid for `NR`
    /// reads.
    #[inline(always)]
    unsafe fn step(vacc: &mut [[__m256; NV]; MR], bp: *const f32, a: impl Fn(usize) -> f32) {
        let mut b = [_mm256_setzero_ps(); NV];
        for (c, v) in b.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(bp.add(c * 8));
        }
        for (i, vrow) in vacc.iter_mut().enumerate() {
            let ai = _mm256_set1_ps(a(i));
            for (v, bv) in vrow.iter_mut().zip(&b) {
                *v = _mm256_fmadd_ps(ai, *bv, *v);
            }
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA (guaranteed by dispatch).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn micro_kernel_packed(
        apack: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let kc = bpanel.len() / NR;
        assert_eq!(apack.len(), kc * MR);
        let mut vacc = load_tile(acc);
        let ap = apack.as_ptr();
        let bp = bpanel.as_ptr();
        for kk in 0..kc {
            step(&mut vacc, bp.add(kk * NR), |i| *ap.add(kk * MR + i));
        }
        store_tile(&vacc, acc);
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA; every `arows[i]` must hold at
    /// least `bpanel.len() / NR` elements (guaranteed by the caller's
    /// slicing).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn micro_kernel_rows(
        arows: &[&[f32]; MR],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let kc = bpanel.len() / NR;
        let mut vacc = load_tile(acc);
        let bp = bpanel.as_ptr();
        for kk in 0..kc {
            step(&mut vacc, bp.add(kk * NR), |i| *arows[i].as_ptr().add(kk));
        }
        store_tile(&vacc, acc);
    }

    /// 8-lane split dot: the `__m256` accumulator *is* the lane array.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / DOT_LANES;
        let mut vacc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * DOT_LANES));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * DOT_LANES));
            vacc = _mm256_fmadd_ps(va, vb, vacc);
        }
        let mut lanes = [0.0f32; DOT_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vacc);
        let base = chunks * DOT_LANES;
        for (j, lane) in lanes.iter_mut().enumerate().take(a.len() - base) {
            // Inside a `fma`-enabled function this compiles to vfmadd.
            *lane = a[base + j].mul_add(b[base + j], *lane);
        }
        super::reduce_lanes(&lanes)
    }

    /// Element-wise forms: the shared lane loops compiled with AVX2 + FMA
    /// enabled, so `mul_add` is `vfmadd` and the loop runs 8 lanes wide.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn exp(xs: &mut [f32]) {
        super::exp_scalar(xs)
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gelu(x: &[f32], out: &mut [f32]) {
        super::gelu_scalar(x, out)
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gelu_backward(x: &[f32], grad: &[f32], dx: &mut [f32]) {
        super::gelu_backward_scalar(x, grad, dx)
    }
}

// ---------------------------------------------------------------------------
// Arch-dispatching wrappers
// ---------------------------------------------------------------------------

/// Packed-A micro-kernel under an explicit arch choice.
#[inline]
pub(crate) fn micro_kernel_packed(
    arch: KernelArch,
    apack: &[f32],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::micro_kernel_packed(apack, bpanel, acc) },
        _ => micro_kernel_packed_scalar(apack, bpanel, acc),
    }
}

/// Direct-rows micro-kernel under an explicit arch choice.
#[inline]
pub(crate) fn micro_kernel_rows(
    arch: KernelArch,
    arows: &[&[f32]; MR],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::micro_kernel_rows(arows, bpanel, acc) },
        _ => micro_kernel_rows_scalar(arows, bpanel, acc),
    }
}

/// Contract dot product under the process's dispatched arch.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_arch(kernel_arch(), a, b)
}

/// Contract dot product under an explicit arch choice.
#[inline]
pub(crate) fn dot_arch(arch: KernelArch, a: &[f32], b: &[f32]) -> f32 {
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::dot(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// `xs[i] = e^xs[i]` under the process's dispatched arch.
///
/// Bit-identical on every arch (the element-wise contract above); NaN
/// stays NaN, inputs above 88.73 give `+inf`, results below the smallest
/// subnormal give `+0`. Does not count as a kernel-path invocation.
pub fn exp(xs: &mut [f32]) {
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::exp(xs) },
        _ => exp_scalar(xs),
    }
}

/// `out[i] = gelu(x[i])`, the tanh-approximation GELU of GPT-2/Megatron,
/// under the process's dispatched arch; bit-identical on every arch.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::gelu(x, out) },
        _ => gelu_scalar(x, out),
    }
}

/// Fused GELU backward `dx[i] = grad[i] * gelu'(x[i])` under the
/// process's dispatched arch; bit-identical on every arch and finite for
/// every non-NaN input.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gelu_backward(x: &[f32], grad: &[f32], dx: &mut [f32]) {
    assert_eq!(x.len(), grad.len(), "gelu_backward length mismatch");
    assert_eq!(x.len(), dx.len(), "gelu_backward length mismatch");
    match kernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection.
        KernelArch::Avx2 => unsafe { avx2::gelu_backward(x, grad, dx) },
        _ => gelu_backward_scalar(x, grad, dx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::available_arches;
    use crate::SeedStream;

    #[test]
    fn dot_matches_scalar_contract_on_every_arch() {
        let mut rng = SeedStream::new(11);
        for len in [0usize, 1, 5, 8, 9, 64, 127] {
            let a = rng.uniform_matrix(1, len.max(1), 1.0);
            let b = rng.uniform_matrix(1, len.max(1), 1.0);
            let a = &a.as_slice()[..len];
            let b = &b.as_slice()[..len];
            let want = dot_scalar(a, b);
            for arch in available_arches() {
                let got = dot_arch(arch, a, b);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "dot len {len} on {}: {want} vs {got}",
                    arch.name()
                );
            }
        }
    }

    /// The full `MR x NR` tile, both A forms, on every arch at chunk
    /// lengths from one step to a quarter of `KC`.
    #[test]
    fn micro_kernels_match_scalar_contract_on_every_arch() {
        let mut rng = SeedStream::new(13);
        for kc in [1usize, 2, 7, 64] {
            let apack = rng.uniform_matrix(1, kc * MR, 1.0);
            let bpanel = rng.uniform_matrix(1, kc * NR, 1.0);
            let init = rng.uniform_matrix(MR, NR, 1.0);
            let tile = |src: &crate::Matrix| {
                let mut acc = [[0.0f32; NR]; MR];
                for i in 0..MR {
                    acc[i].copy_from_slice(&src.as_slice()[i * NR..(i + 1) * NR]);
                }
                acc
            };
            let mut want = tile(&init);
            micro_kernel_packed_scalar(apack.as_slice(), bpanel.as_slice(), &mut want);
            for arch in available_arches() {
                let mut got = tile(&init);
                micro_kernel_packed(arch, apack.as_slice(), bpanel.as_slice(), &mut got);
                assert_eq!(want, got, "packed kernel kc {kc} on {}", arch.name());
            }
            // Rows variant: build contiguous per-row streams with the same
            // logical a-values, then compare against the packed result of
            // a matching pack.
            let rows: Vec<Vec<f32>> = (0..MR)
                .map(|i| (0..kc).map(|kk| apack.as_slice()[kk * MR + i]).collect())
                .collect();
            let arows: [&[f32]; MR] = std::array::from_fn(|i| rows[i].as_slice());
            let mut want_rows = tile(&init);
            micro_kernel_rows_scalar(&arows, bpanel.as_slice(), &mut want_rows);
            assert_eq!(want, want_rows, "rows and packed scalar kernels agree");
            for arch in available_arches() {
                let mut got = tile(&init);
                micro_kernel_rows(arch, &arows, bpanel.as_slice(), &mut got);
                assert_eq!(want_rows, got, "rows kernel kc {kc} on {}", arch.name());
            }
        }
    }
}
