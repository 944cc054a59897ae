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
//! FMA latency times its two ports needs. A tile at most 8 columns wide
//! runs one vector per row and half the FMAs.
//!
//! One kernel entry ([`Sweep`]) walks a whole grid of tiles — a row panel
//! across every B column panel, or a column panel across its row panels —
//! over one `k`-chunk. Each tile's accumulators start as zero registers
//! on the first chunk and are loaded from C on later ones, and are stored
//! straight back to C. There is no tile buffer between the registers and
//! C: a ragged tile's valid columns are read and written with
//! `_mm256_maskload_ps` / `_mm256_maskstore_ps` (the scalar form's loops
//! stop at the valid row and column), and the rows and columns past them
//! are never touched. [`sweep`] asserts the operand bounds every
//! unchecked access relies on.

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

/// The A operand of one kernel entry ([`sweep`]).
#[derive(Clone, Copy)]
pub(crate) enum APanels<'a> {
    /// Packed row panels: element `(i, kk)` of row panel `t` is
    /// `a[t * step + kk * MR + i]`.
    Packed { a: &'a [f32], step: usize },
    /// One row panel streamed from row-major A: element `(i, kk)` is
    /// `rows[i][kk]`. Rows past the block's last may repeat it; they are
    /// computed and never stored.
    Rows(&'a [&'a [f32]; MR]),
    /// Full row panels read through a transposed-stored A: element
    /// `(i, kk)` of row panel `t` is `a[kk * lda + t * MR + i]`.
    Cols { a: &'a [f32], lda: usize },
}

impl APanels<'_> {
    /// Element `(i, kk)` of row panel `t`.
    #[inline(always)]
    fn at(self, t: usize, kk: usize, i: usize) -> f32 {
        match self {
            APanels::Packed { a, step } => a[t * step + kk * MR + i],
            APanels::Rows(rows) => rows[i][kk],
            APanels::Cols { a, lda } => a[kk * lda + t * MR + i],
        }
    }
}

/// One kernel entry: the `rows x cols` block of C at the start of the
/// output slice (row `i` at `i * ldc`), walked as a grid of `MR x NR`
/// register tiles over one `k`-chunk of `kc` steps. Tile `(ti, tj)`
/// multiplies row panel `ti` of `a` by B column panel `tj`, whose step
/// `kk` is `b[tj * b_step + kk * NR..][..NR]`. Its accumulators start at
/// zero on the first chunk (`first`) and are reloaded from C on later
/// ones; either way they are stored straight back into C, rows and
/// columns past the block masked off.
pub(crate) struct Sweep<'a> {
    pub a: APanels<'a>,
    pub b: &'a [f32],
    pub b_step: usize,
    pub kc: usize,
    pub ldc: usize,
    pub rows: usize,
    pub cols: usize,
    pub first: bool,
}

/// Sweep kernel, scalar contract emulation: bounded loops over the valid
/// rows and columns of each tile, accumulating in C itself,
/// `c[i][j] = fma(a[i][k], b[k][j], c[i][j])` with `k` ascending.
pub(crate) fn sweep_scalar(s: &Sweep<'_>, c: &mut [f32]) {
    for ti in 0..s.rows.div_ceil(MR) {
        let mr = MR.min(s.rows - ti * MR);
        for tj in 0..s.cols.div_ceil(NR) {
            let nr = NR.min(s.cols - tj * NR);
            let b = &s.b[tj * s.b_step..];
            for i in 0..mr {
                let crow = &mut c[(ti * MR + i) * s.ldc + tj * NR..][..nr];
                if s.first {
                    crow.fill(0.0);
                }
                for kk in 0..s.kc {
                    let ai = s.a.at(ti, kk, i);
                    for (cj, &bj) in crow.iter_mut().zip(&b[kk * NR..][..nr]) {
                        *cj = ai.mul_add(bj, *cj);
                    }
                }
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
// lowers to a libm `fmaf` call per multiply, which makes the scalar sweep
// roughly an order of magnitude slower than an unfused `acc += a * b`
// loop. That cost is inherent to the bit contract — a correctly rounded
// fused chain is the only accumulation every kernel path can reproduce
// exactly — and the scalar sweep (like the scalar form of the element-wise
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

    // The helpers below are `#[inline(always)]` instead of
    // `#[target_feature]` (the two attributes cannot be combined): they
    // compile as part of the AVX2 sweep that calls them, where every
    // intrinsic inlines and the tile lives in 12 `ymm` registers.

    /// Calls `f(v, col, mask)` for each of the first `W` vectors of a tile
    /// row that holds a valid column: `col = v * 8`, and `mask` is `None`
    /// when all eight lanes are valid, else the lanes below `nr`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline(always)]
    unsafe fn row_vectors<const W: usize>(
        nr: usize,
        mut f: impl FnMut(usize, usize, Option<__m256i>),
    ) {
        for v in 0..W {
            let col = v * 8;
            if col + 8 <= nr {
                f(v, col, None);
            } else if col < nr {
                let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((nr - col) as i32), lanes);
                f(v, col, Some(mask));
            }
        }
    }

    /// One `k` step over the first `W` vectors of each tile row: `W`
    /// loads of B's row `kk`, then per tile row one broadcast of `a(i)`
    /// and `W` FMAs.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA; `bp` must be valid for `NR`
    /// reads.
    #[inline(always)]
    unsafe fn step<const W: usize>(
        vacc: &mut [[__m256; W]; MR],
        bp: *const f32,
        a: impl Fn(usize) -> f32,
    ) {
        let mut b = [_mm256_setzero_ps(); W];
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

    /// One register tile of `W` vectors per row: the accumulators start
    /// as zero registers (`first`) or are loaded from the valid `mr x nr`
    /// corner of C at `c`, walk `kc` steps, and are stored straight back
    /// to that corner.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA; `b` must be valid for
    /// `kc * NR` reads, `a(kk, i)` for every `kk < kc` and `i < MR`, and
    /// `c.add(i * ldc + j)` for every `i < mr`, `j < nr`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile<const W: usize>(
        a: impl Fn(usize, usize) -> f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        let mut vacc = [[_mm256_setzero_ps(); W]; MR];
        if !first {
            for (i, vrow) in vacc.iter_mut().enumerate() {
                if i < mr {
                    row_vectors::<W>(nr, |v, col, mask| {
                        let p = c.add(i * ldc + col);
                        vrow[v] = match mask {
                            None => _mm256_loadu_ps(p),
                            Some(m) => _mm256_maskload_ps(p, m),
                        };
                    });
                }
            }
        }
        for kk in 0..kc {
            step(&mut vacc, b.add(kk * NR), |i| a(kk, i));
        }
        for (i, vrow) in vacc.iter().enumerate() {
            if i < mr {
                row_vectors::<W>(nr, |v, col, mask| {
                    let p = c.add(i * ldc + col);
                    match mask {
                        None => _mm256_storeu_ps(p, vrow[v]),
                        Some(m) => _mm256_maskstore_ps(p, m, vrow[v]),
                    }
                });
            }
        }
    }

    /// The tile grid of one [`super::Sweep`], tile `(ti, tj)` reading A
    /// through `a(ti, kk, i)`.
    ///
    /// # Safety
    ///
    /// As [`tile`], for every tile of the grid; [`super::sweep`] checks it.
    #[inline(always)]
    unsafe fn grid(s: &super::Sweep<'_>, c: &mut [f32], a: impl Fn(usize, usize, usize) -> f32) {
        let (cp, bp) = (c.as_mut_ptr(), s.b.as_ptr());
        for ti in 0..s.rows.div_ceil(MR) {
            let mr = MR.min(s.rows - ti * MR);
            for tj in 0..s.cols.div_ceil(NR) {
                let nr = NR.min(s.cols - tj * NR);
                let at = |kk, i| a(ti, kk, i);
                let (bt, ct) = (bp.add(tj * s.b_step), cp.add(ti * MR * s.ldc + tj * NR));
                // A tile at most 8 columns wide (a ragged last panel, or
                // a head-width product) runs one vector per row.
                if nr > 8 {
                    tile::<NV>(at, bt, s.kc, ct, s.ldc, mr, nr, s.first);
                } else {
                    tile::<1>(at, bt, s.kc, ct, s.ldc, mr, nr, s.first);
                }
            }
        }
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA (guaranteed by dispatch), and
    /// every operand must hold the elements the sweep reads and writes
    /// (checked by [`super::sweep`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn sweep(s: &super::Sweep<'_>, c: &mut [f32]) {
        match s.a {
            super::APanels::Packed { a, step } => {
                let ap = a.as_ptr();
                grid(s, c, |t, kk, i| *ap.add(t * step + kk * MR + i));
            }
            super::APanels::Rows(rows) => grid(s, c, |_, kk, i| *rows[i].as_ptr().add(kk)),
            super::APanels::Cols { a, lda } => {
                let ap = a.as_ptr();
                grid(s, c, |t, kk, i| *ap.add(kk * lda + t * MR + i));
            }
        }
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

/// One kernel entry ([`Sweep`]) under an explicit arch choice, writing
/// the block at the start of `c`.
///
/// # Panics
///
/// Panics if an operand is too short for the block: the bounds every
/// unchecked access of the vector forms relies on.
pub(crate) fn sweep(arch: KernelArch, s: &Sweep<'_>, c: &mut [f32]) {
    if s.rows == 0 || s.cols == 0 {
        return;
    }
    let (tiles_m, tiles_n) = (s.rows.div_ceil(MR), s.cols.div_ceil(NR));
    assert!(
        s.cols <= s.ldc && (s.rows - 1) * s.ldc + s.cols <= c.len(),
        "gemm sweep: a {}x{} block at ld {} overruns {} output elements",
        s.rows,
        s.cols,
        s.ldc,
        c.len()
    );
    assert!(
        (tiles_n - 1) * s.b_step + s.kc * NR <= s.b.len(),
        "gemm sweep: B panels overrun"
    );
    match s.a {
        APanels::Packed { a, step } => {
            assert!(
                (tiles_m - 1) * step + s.kc * MR <= a.len(),
                "gemm sweep: A panels overrun"
            );
        }
        APanels::Rows(rows) => assert!(
            tiles_m == 1 && rows.iter().all(|r| r.len() >= s.kc),
            "gemm sweep: A rows overrun"
        ),
        APanels::Cols { a, lda } => assert!(
            s.kc == 0 || (s.kc - 1) * lda + tiles_m * MR <= a.len(),
            "gemm sweep: A columns overrun"
        ),
    }
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after feature detection, and
        // the asserts above bound every access.
        KernelArch::Avx2 => unsafe { avx2::sweep(s, c) },
        _ => sweep_scalar(s, c),
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

    /// One sweep over full and ragged tile grids, every A form, from zero
    /// and from a reloaded C, on every arch at chunk lengths from none to
    /// a quarter of `KC`: the bits equal the scalar form's, and the
    /// sentinels in C's padding columns and past its last row survive.
    #[test]
    fn micro_kernels_match_scalar_contract_on_every_arch() {
        let mut rng = SeedStream::new(13);
        for kc in [0usize, 1, 7, 64] {
            for (rows, cols) in [
                (6usize, 16usize),
                (1, 1),
                (5, 9),
                (6, 8),
                (7, 17),
                (13, 33),
                (18, 48),
            ] {
                let ldc = cols + 3;
                let tiles_m = rows.div_ceil(MR);
                let tiles_n = cols.div_ceil(NR);
                let apack = rng.uniform_matrix(1, tiles_m * kc * MR, 1.0);
                let bpack = rng.uniform_matrix(1, tiles_n * kc * NR, 1.0);
                let mut c0 = rng
                    .uniform_matrix(1, rows * ldc + 5, 1.0)
                    .as_slice()
                    .to_vec();
                for (e, x) in c0.iter_mut().enumerate() {
                    if e % ldc >= cols || e >= rows * ldc {
                        *x = f32::NAN;
                    }
                }
                let arows: Vec<Vec<f32>> = (0..MR)
                    .map(|i| {
                        let i = i.min(rows - 1);
                        (0..kc).map(|kk| apack.as_slice()[kk * MR + i]).collect()
                    })
                    .collect();
                let arows: [&[f32]; MR] = std::array::from_fn(|i| arows[i].as_slice());
                let lda = tiles_m * MR + 2;
                let mut acols = vec![0.0f32; kc * lda];
                for (e, &v) in apack.as_slice().iter().enumerate() {
                    let (t, kk, i) = (e / (kc * MR), e / MR % kc, e % MR);
                    acols[kk * lda + t * MR + i] = v;
                }
                let mut forms = vec![(
                    "packed",
                    APanels::Packed {
                        a: apack.as_slice(),
                        step: kc * MR,
                    },
                )];
                forms.push((
                    "cols",
                    APanels::Cols {
                        a: acols.as_slice(),
                        lda,
                    },
                ));
                if rows <= MR {
                    forms.push(("rows", APanels::Rows(&arows)));
                }
                for first in [true, false] {
                    let run = |arch, a| {
                        let s = Sweep {
                            a,
                            b: bpack.as_slice(),
                            b_step: kc * NR,
                            kc,
                            ldc,
                            rows,
                            cols,
                            first,
                        };
                        let mut c = c0.clone();
                        sweep(arch, &s, &mut c);
                        c
                    };
                    let want = run(KernelArch::Scalar, forms[0].1);
                    for (e, (w, c)) in want.iter().zip(&c0).enumerate() {
                        if e % ldc >= cols || e >= rows * ldc {
                            assert!(w.is_nan(), "scalar wrote padding element {e}");
                        } else if first || kc > 0 {
                            assert_ne!(w.to_bits(), c.to_bits(), "element {e} not computed");
                        }
                    }
                    for arch in available_arches() {
                        for &(name, a) in &forms {
                            let got = run(arch, a);
                            let same = want
                                .iter()
                                .zip(&got)
                                .all(|(w, g)| w.to_bits() == g.to_bits());
                            assert!(
                                same,
                                "{name} sweep {rows}x{cols} kc {kc} first {first} on {}",
                                arch.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
