//! Cache-blocked, register-tiled GEMM over a shared packed micro-kernel.
//!
//! All three matrix products ([`crate::Matrix::matmul`],
//! [`crate::Matrix::t_matmul`], [`crate::Matrix::matmul_t`]) funnel into
//! one driver with two shapes of inner loop, both feeding the same
//! arch-dispatched micro-kernel at every problem size:
//!
//! * the **packed path** for general shapes: B is packed into `NR`-wide
//!   column panels once, A is either streamed directly (row-major
//!   operands) or packed per `k`-chunk (transposed operands), and an
//!   `MR x NR` register tile of `f32` accumulators walks the shared `k`
//!   dimension in L1-sized chunks;
//! * the **skinny path** for outputs with at most [`SKINNY_ROWS`] rows
//!   (the PowerSGD factor products after the swap below): the tiny A
//!   operand is packed whole, B is read directly as contiguous row slivers
//!   (packing a 64 MB gradient to multiply it by a rank-8 factor would
//!   dominate), and workers own disjoint column-panel ranges.
//!
//! Tall-skinny `A^T B` (PowerSGD `Q = G^T P`) is rewritten as `(B^T A)^T`
//! so every memory walk is over contiguous rows. The pure [`route`]
//! function picks among the three.
//!
//! The micro-kernels themselves are dispatched at runtime (see
//! [`crate::dispatch`]): AVX2+FMA on x86_64 hosts that have it, and a
//! portable [`f32::mul_add`] fallback, both implementing the same
//! contract (see `simd.rs`).
//!
//! # Determinism contract
//!
//! Every output element is **one fused-multiply-add chain** over
//! ascending `k`: `acc = fma(a_k, b_k, acc)`. Correctly rounded FMA is
//! unique, so a hardware fused multiply-add and the scalar
//! `f32::mul_add` fallback produce identical bits:
//!
//! * the SIMD kernels vectorize across output *columns* (broadcast `a`,
//!   vector `b`), which interleaves different elements' chains but never
//!   reassociates any one chain;
//! * register tiling likewise only interleaves *different* elements'
//!   chains;
//! * `k`-chunking spills the accumulator to the output between chunks and
//!   reloads it, continuing the same chain (`fma(a2,b2, fma(a1,b1, 0))`
//!   is the same sequence whether or not a spill happens in the middle);
//! * the swap relies on `a*b == b*a` (IEEE multiplication commutes
//!   bitwise) and a transpose that moves bits without arithmetic;
//! * the worker pool (see [`crate::pool`]) assigns each output panel to
//!   exactly one thread via a fixed decomposition.
//!
//! Blocked, blocked+parallel, and every dispatched kernel path are therefore
//! bit-identical for finite inputs at any thread count;
//! `tests/kernel_equivalence.rs` enforces this against an emulated
//! oracle. An *unfused* multiply-then-add loop agrees with them to
//! rounding only and is not an oracle.

use crate::dispatch;
use crate::pool;
use crate::simd;
use std::cell::RefCell;

/// Rows of the register tile (output rows per micro-panel). Six rows of
/// two AVX2 vectors are 12 independent accumulation chains, more than FMA
/// latency times two issue ports needs, and each `k` step issues 8 loads
/// (2 of B, 6 broadcasts of A) for 12 FMAs, so the FMA units are the limit.
pub(crate) const MR: usize = 6;
/// Columns of the register tile (two 8-lane AVX2 vectors); also the width
/// of a packed B panel.
pub(crate) const NR: usize = 16;
/// `k`-chunk length: one `KC x NR` B-panel slice (16 KiB) plus the `MR`
/// A rows feeding it (6 KiB) stay L1-resident while the register tile
/// sweeps a chunk.
const KC: usize = 256;
/// Outputs with at most this many rows take the skinny path, and a
/// tall-skinny `A^T B` with at most this many columns is swapped onto it.
/// Counted in rows, not `MR`-panels, so the rule survives a retile: a
/// rank-16 PowerSGD factor product must keep its swap.
const SKINNY_ROWS: usize = 16;
/// `k`-chunk length of the skinny path: small enough that a worker's
/// whole packed-B chunk (`panels * SKC * NR` floats) stays L2-resident.
const SKC: usize = 64;

/// How a GEMM operand is stored relative to its logical orientation.
#[derive(Clone, Copy)]
pub(crate) enum Src<'a> {
    /// Stored row-major in its logical orientation (`A`: `m x k`,
    /// `B`: `k x n`).
    Normal(&'a [f32]),
    /// Stored row-major *transposed* (`A`: `k x m`, `B`: `n x k`); packing
    /// reads through the transpose so no intermediate is materialized.
    Transposed(&'a [f32]),
}

thread_local! {
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static TSCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Cache-blocked transpose: `dst[c * rows + r] = src[r * cols + c]`,
/// walked in 32x32 tiles so both sides stay within a few cache lines.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    for r0 in (0..rows).step_by(TB) {
        let r_end = (r0 + TB).min(rows);
        for c0 in (0..cols).step_by(TB) {
            let c_end = (c0 + TB).min(cols);
            for r in r0..r_end {
                for c in c0..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// `out = A' * B'` where `A'` is `m x k`, `B'` is `k x n` and `out` is a
/// row-major `m x n` buffer that is fully overwritten.
pub(crate) fn gemm_into(a: Src<'_>, b: Src<'_>, m: usize, n: usize, k: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    dispatch::note_dense_kernel(dispatch::kernel_arch());
    let work = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    match (route(a, b, m, n), a, b) {
        (Route::Swap, Src::Transposed(da), Src::Normal(db)) => TSCRATCH.with(|t| {
            let mut tmp = t.borrow_mut();
            tmp.clear();
            tmp.resize(n * m, 0.0);
            gemm_skinny(Src::Transposed(db), da, n, m, k, work, &mut tmp);
            transpose_into(&tmp, n, m, out);
        }),
        (Route::Skinny, _, Src::Normal(db)) => gemm_skinny(a, db, m, n, k, work, out),
        _ => gemm_packed(a, b, m, n, k, work, out),
    }
}

/// Which inner loop serves an `m x n` product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// Tall-skinny `A^T B` (the PowerSGD `Q = G^T P` shape): reading A
    /// through the transpose touches one cache line per element, so
    /// compute `(B^T A)^T` on the skinny path instead — then *both*
    /// operands are walked along contiguous rows — and transpose the small
    /// result at the end.
    Swap,
    /// At most [`SKINNY_ROWS`] output rows against a row-major B.
    Skinny,
    Packed,
}

/// Pure routing function: which inner loop an `m x n` product with these
/// operand orientations takes. Counted in rows, independent of the tile.
fn route(a: Src<'_>, b: Src<'_>, m: usize, n: usize) -> Route {
    match (a, b) {
        (Src::Transposed(_), Src::Normal(_)) if m >= 4 * n && n <= SKINNY_ROWS => Route::Swap,
        (_, Src::Normal(_)) if m <= SKINNY_ROWS => Route::Skinny,
        _ => Route::Packed,
    }
}

/// FLOPs a worker thread must have to justify its spawn cost when the
/// parallel threshold is a real (nonzero) value: ~1 MiFLOP is tens of
/// microseconds of work against a few tens of microseconds of scoped
/// spawn overhead.
const PAR_WORK_PER_THREAD: usize = 1 << 20;

/// Pure thread-planning function: how many workers a GEMM of `work`
/// FLOPs over `panels` micro-panels fans out to, given the pool knobs and
/// the host's core count. Deterministic in its inputs; unit-tested
/// directly so the skinny-output regression (512x512 x rank-4 losing to
/// sequential under a forced fan-out) stays fixed.
fn plan_threads(
    work: usize,
    panels: usize,
    threshold: usize,
    pool_threads: usize,
    host_cores: usize,
) -> usize {
    if work < threshold {
        return 1;
    }
    let mut threads = pool_threads.min(panels);
    // `threshold == 0` is the testing escape hatch ("always fan out"):
    // equivalence tests use it to push tiny matrices through the
    // multi-threaded path, so the caps below must not apply.
    if threshold > 0 {
        threads = threads
            .min(host_cores.max(1))
            .min((work / PAR_WORK_PER_THREAD).max(1));
    }
    threads.max(1)
}

fn effective_threads(work: usize, panels: usize) -> usize {
    plan_threads(
        work,
        panels,
        pool::parallel_flop_threshold(),
        pool::kernel_threads(),
        pool::host_parallelism(),
    )
}

// ---------------------------------------------------------------------------
// Packed path (general shapes)
// ---------------------------------------------------------------------------

/// Pack B once, then fan row micro-panels out over the worker pool.
fn gemm_packed(a: Src<'_>, b: Src<'_>, m: usize, n: usize, k: usize, work: usize, out: &mut [f32]) {
    let panels_n = n.div_ceil(NR);
    let panels_m = m.div_ceil(MR);
    BPACK.with(|bp| {
        let mut bpack = bp.borrow_mut();
        bpack.clear();
        bpack.resize(panels_n * k * NR, 0.0);
        pack_b(b, n, k, panels_n, &mut bpack);

        let threads = effective_threads(work, panels_m);
        if threads <= 1 {
            return run_row_panels(a, m, n, k, &bpack, 0, panels_m, out);
        }
        // Fixed decomposition of row micro-panels over the worker pool;
        // each worker owns a disjoint, contiguous slab of output rows.
        let ranges = pool::panel_ranges(panels_m, threads);
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut row_cursor = 0usize;
            for &(pstart, pend) in &ranges {
                if pstart == pend {
                    continue;
                }
                let row_end = (pend * MR).min(m);
                let (chunk, tail) = rest.split_at_mut((row_end - row_cursor) * n);
                rest = tail;
                row_cursor = row_end;
                let bpack = &bpack[..];
                scope.spawn(move || run_row_panels(a, m, n, k, bpack, pstart, pend, chunk));
            }
        });
    });
}

/// Computes row micro-panels `[pstart, pend)`; `out_chunk` starts at row
/// `pstart * MR` of the logical output.
#[allow(clippy::too_many_arguments)]
fn run_row_panels(
    a: Src<'_>,
    m: usize,
    n: usize,
    k: usize,
    bpack: &[f32],
    pstart: usize,
    pend: usize,
    out_chunk: &mut [f32],
) {
    let arch = dispatch::kernel_arch();
    let panels_n = n.div_ceil(NR);
    let n_kchunks = k.div_ceil(KC).max(1);
    let mut apack = [0.0f32; KC * MR];
    for mp in pstart..pend {
        let row0 = mp * MR;
        let mr_eff = MR.min(m - row0);
        let chunk_row0 = row0 - pstart * MR;
        for ci in 0..n_kchunks {
            let k0 = ci * KC;
            let k1 = (k0 + KC).min(k);
            let kc = k1 - k0;
            // Row-major A feeds the micro-kernel directly as MR contiguous
            // row streams; transposed A (and ragged edge panels) are packed
            // so the kernel always sees full MR lanes.
            let direct_rows: Option<[&[f32]; MR]> = match a {
                Src::Normal(d) if mr_eff == MR => Some(std::array::from_fn(|i| {
                    &d[(row0 + i) * k + k0..(row0 + i) * k + k1]
                })),
                _ => {
                    pack_a_chunk(a, m, k, row0, mr_eff, k0, k1, &mut apack[..kc * MR]);
                    None
                }
            };
            for p in 0..panels_n {
                let nr_eff = NR.min(n - p * NR);
                let mut acc = [[0.0f32; NR]; MR];
                if ci > 0 {
                    load_acc(&mut acc, out_chunk, chunk_row0, n, p * NR, mr_eff, nr_eff);
                }
                let bslice = &bpack[(p * k + k0) * NR..(p * k + k1) * NR];
                match &direct_rows {
                    Some(rows) => simd::micro_kernel_rows(arch, rows, bslice, &mut acc),
                    None => simd::micro_kernel_packed(arch, &apack[..kc * MR], bslice, &mut acc),
                }
                store_acc(&acc, out_chunk, chunk_row0, n, p * NR, mr_eff, nr_eff);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Skinny path (m <= SKINNY_ROWS, row-major B)
// ---------------------------------------------------------------------------

/// Few output rows against a potentially huge row-major B: pack the small
/// A whole and walk B in `k`-chunks, repacking each chunk into an
/// L2-resident panel buffer with B's rows read *contiguously* (packing the
/// whole of a 64 MB gradient to multiply it by a rank-8 factor would cost
/// more than the product itself, and reading it column-band-strided is
/// latency-bound). Workers own column-panel ranges and write private
/// buffers that are stitched back row-wise — pure data movement, no
/// arithmetic.
fn gemm_skinny(a: Src<'_>, db: &[f32], m: usize, n: usize, k: usize, work: usize, out: &mut [f32]) {
    let panels_m = m.div_ceil(MR);
    let panels_n = n.div_ceil(NR);
    let mut apack_all = vec![0.0f32; panels_m * k * MR];
    for mp in 0..panels_m {
        let row0 = mp * MR;
        let mr_eff = MR.min(m - row0);
        pack_a_chunk(
            a,
            m,
            k,
            row0,
            mr_eff,
            0,
            k,
            &mut apack_all[mp * k * MR..(mp + 1) * k * MR],
        );
    }

    let threads = effective_threads(work, panels_n);
    if threads <= 1 {
        return run_col_panels(&apack_all, db, m, n, k, 0, panels_n, out, n);
    }
    let ranges = pool::panel_ranges(panels_n, threads);
    let mut parts: Vec<Vec<f32>> = ranges
        .iter()
        .map(|&(p0, p1)| {
            let width = ((p1 * NR).min(n)).saturating_sub(p0 * NR);
            vec![0.0f32; m * width]
        })
        .collect();
    std::thread::scope(|scope| {
        for (&(p0, p1), part) in ranges.iter().zip(parts.iter_mut()) {
            if p0 == p1 {
                continue;
            }
            let width = ((p1 * NR).min(n)).saturating_sub(p0 * NR);
            let apack_all = &apack_all[..];
            scope.spawn(move || run_col_panels(apack_all, db, m, n, k, p0, p1, part, width));
        }
    });
    for (&(p0, p1), part) in ranges.iter().zip(parts.iter()) {
        let col0 = p0 * NR;
        let width = ((p1 * NR).min(n)).saturating_sub(col0);
        for i in 0..m {
            out[i * n + col0..i * n + col0 + width]
                .copy_from_slice(&part[i * width..(i + 1) * width]);
        }
    }
}

/// Computes column panels `[pstart, pend)` into `out_part`, a row-major
/// `m x part_width` buffer whose column 0 is logical column
/// `pstart * NR`.
#[allow(clippy::too_many_arguments)]
fn run_col_panels(
    apack_all: &[f32],
    db: &[f32],
    m: usize,
    n: usize,
    k: usize,
    pstart: usize,
    pend: usize,
    out_part: &mut [f32],
    part_width: usize,
) {
    let arch = dispatch::kernel_arch();
    let panels_m = m.div_ceil(MR);
    let panels = pend - pstart;
    let n_kchunks = k.div_ceil(SKC).max(1);
    // Per-chunk packed B panels for this worker's column range; reused
    // across chunks so it stays cache-resident.
    let mut bchunk = vec![0.0f32; panels * SKC * NR];
    for ci in 0..n_kchunks {
        let k0 = ci * SKC;
        let k1 = (k0 + SKC).min(k);
        let kc = k1 - k0;
        // kk-outer scatter: B's rows are read contiguously (the only
        // sequential walk its storage admits); the per-panel write
        // cursors advance 64 bytes per row and stay hot.
        for kk in k0..k1 {
            let row = &db[kk * n..(kk + 1) * n];
            for p in pstart..pend {
                let col0 = p * NR;
                let nr_eff = NR.min(n - col0);
                let dst = &mut bchunk[((p - pstart) * SKC + (kk - k0)) * NR..][..nr_eff];
                dst.copy_from_slice(&row[col0..col0 + nr_eff]);
            }
        }
        for p in pstart..pend {
            let col0 = p * NR;
            let nr_eff = NR.min(n - col0);
            let part_col0 = col0 - pstart * NR;
            let bslice = &bchunk[(p - pstart) * SKC * NR..][..kc * NR];
            for mp in 0..panels_m {
                let row0 = mp * MR;
                let mr_eff = MR.min(m - row0);
                let apack = &apack_all[mp * k * MR..(mp + 1) * k * MR];
                let mut acc = [[0.0f32; NR]; MR];
                if ci > 0 {
                    load_acc(
                        &mut acc, out_part, row0, part_width, part_col0, mr_eff, nr_eff,
                    );
                }
                simd::micro_kernel_packed(arch, &apack[k0 * MR..k1 * MR], bslice, &mut acc);
                store_acc(&acc, out_part, row0, part_width, part_col0, mr_eff, nr_eff);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Micro-kernels and packing
// ---------------------------------------------------------------------------

/// Continue accumulation chains from a previous k-chunk: load the valid
/// region of the output tile (padded lanes stay zero; never stored).
fn load_acc(
    acc: &mut [[f32; NR]; MR],
    buf: &[f32],
    row0: usize,
    stride: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, acc_row) in acc.iter_mut().enumerate().take(mr_eff) {
        let src = &buf[(row0 + i) * stride + col0..][..nr_eff];
        acc_row[..nr_eff].copy_from_slice(src);
    }
}

fn store_acc(
    acc: &[[f32; NR]; MR],
    buf: &mut [f32],
    row0: usize,
    stride: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let dst = &mut buf[(row0 + i) * stride + col0..][..nr_eff];
        dst.copy_from_slice(&acc_row[..nr_eff]);
    }
}

/// Packs `MR` rows of `A'` (rows `row0..row0+mr_eff`, zero-padded to `MR`)
/// over the `k`-range `[k0, k1)` into
/// `apack[(kk-k0)*MR + i] = A'(row0+i, kk)`.
#[allow(clippy::too_many_arguments)]
fn pack_a_chunk(
    a: Src<'_>,
    m: usize,
    k: usize,
    row0: usize,
    mr_eff: usize,
    k0: usize,
    k1: usize,
    apack: &mut [f32],
) {
    if mr_eff < MR {
        apack.fill(0.0);
    }
    match a {
        Src::Normal(d) => {
            for i in 0..mr_eff {
                let src = &d[(row0 + i) * k + k0..(row0 + i) * k + k1];
                for (kk, &v) in src.iter().enumerate() {
                    apack[kk * MR + i] = v;
                }
            }
        }
        Src::Transposed(d) => {
            // Stored k x m: row kk holds A'(_, kk) contiguously.
            for kk in k0..k1 {
                let src = &d[kk * m + row0..kk * m + row0 + mr_eff];
                apack[(kk - k0) * MR..(kk - k0) * MR + mr_eff].copy_from_slice(src);
            }
        }
    }
}

/// Packs all of `B'` into `NR`-wide column panels:
/// `bpack[(p*k + kk)*NR + j] = B'(kk, p*NR + j)`, zero-padded in `j`.
fn pack_b(b: Src<'_>, n: usize, k: usize, panels_n: usize, bpack: &mut [f32]) {
    match b {
        Src::Normal(d) => {
            // kk-outer scatter: read each B row once, contiguously; the
            // per-panel write cursors advance one 64-byte line per row,
            // so the write working set is one line per panel.
            for kk in 0..k {
                let row = &d[kk * n..(kk + 1) * n];
                for p in 0..panels_n {
                    let col0 = p * NR;
                    let nr_eff = NR.min(n - col0);
                    let dst = &mut bpack[(p * k + kk) * NR..][..nr_eff];
                    dst.copy_from_slice(&row[col0..col0 + nr_eff]);
                }
            }
        }
        Src::Transposed(d) => {
            // Stored n x k: row j holds B'(_, j) contiguously.
            for p in 0..panels_n {
                let col0 = p * NR;
                let nr_eff = NR.min(n - col0);
                let panel = &mut bpack[p * k * NR..(p + 1) * k * NR];
                for j in 0..nr_eff {
                    let src = &d[(col0 + j) * k..(col0 + j + 1) * k];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[kk * NR + j] = v;
                    }
                }
            }
        }
    }
}

/// Test oracle: plain loop nests, no packing, no tiling, no dispatch.
/// Every output element is the same ascending-`k` fused chain as the
/// micro-kernels (`f32::mul_add` is the contract's scalar form), so the
/// driver must reproduce these bits at every shape.
#[cfg(test)]
fn gemm_small(a: Src<'_>, b: Src<'_>, m: usize, n: usize, k: usize, out: &mut [f32]) {
    out.fill(0.0);
    match (a, b) {
        (Src::Normal(da), Src::Normal(db)) => {
            // i-k-j: contiguous AXPY over the output row.
            for i in 0..m {
                let arow = &da[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &db[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
        (Src::Transposed(da), Src::Normal(db)) => {
            // k-i-j over the k x m storage of A'.
            for kk in 0..k {
                let arow = &da[kk * m..(kk + 1) * m];
                let brow = &db[kk * n..(kk + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
        (Src::Normal(da), Src::Transposed(db)) => {
            // i-j-k: contiguous dot products (a per-element chain, not the
            // lane-split reduction — that contract applies only to the
            // Gram–Schmidt dots in `linalg.rs`).
            for i in 0..m {
                let arow = &da[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &db[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc = av.mul_add(bv, acc);
                    }
                    out[i * n + j] = acc;
                }
            }
        }
        (Src::Transposed(da), Src::Transposed(db)) => {
            // Not reachable from the public API (no `t_matmul_t`), kept
            // total for completeness.
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = da[kk * m + i].mul_add(db[j * k + kk], acc);
                    }
                    out[i * n + j] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, SeedStream};

    fn assert_bits(label: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{label}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: element {i} ({x} vs {y})"
            );
        }
    }

    fn small_reference(a: &Matrix, b: &Matrix, m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        gemm_small(
            Src::Normal(a.as_slice()),
            Src::Normal(b.as_slice()),
            m,
            n,
            k,
            &mut out,
        );
        out
    }

    #[test]
    fn packed_path_is_bit_identical_to_plain_loops_on_every_arch() {
        for arch in dispatch::available_arches() {
            for &(m, n, k) in &[
                (5, 9, 3),
                (7, 1, 13),
                (1, 17, 5),
                (33, 31, 29),
                // k spanning multiple KC chunks exercises the accumulator
                // spill/reload chain, here at ragged and exact multiples
                // of both tile edges (MR = 6, NR = 16).
                (21, 5, 2 * KC + 7),
                (5, 15, 2 * KC + 7),
                (7, 17, 2 * KC + 7),
                (12, 32, 2 * KC + 7),
                (13, 33, 2 * KC + 7),
                (18, 48, 2 * KC + 7),
            ] {
                dispatch::set_kernel_arch(arch);
                let mut rng = SeedStream::new((m * 1000 + n * 100 + k) as u64);
                let a = rng.uniform_matrix(m, k, 1.0);
                let b = rng.uniform_matrix(k, n, 1.0);
                let reference = small_reference(&a, &b, m, n, k);
                let mut got = vec![0.0; m * n];
                gemm_packed(
                    Src::Normal(a.as_slice()),
                    Src::Normal(b.as_slice()),
                    m,
                    n,
                    k,
                    2 * m * n * k,
                    &mut got,
                );
                assert_bits(&format!("packed/{}", arch.name()), &reference, &got);
            }
        }
        dispatch::set_kernel_arch(dispatch::detected_arch());
    }

    #[test]
    fn skinny_path_is_bit_identical_to_plain_loops_on_every_arch() {
        for arch in dispatch::available_arches() {
            for &(m, n, k) in &[
                (1, 40, 9),
                (4, 33, 2 * KC + 5),
                (13, 64, 17),
                (16, 7, 64),
                // Ragged and exact tile edges with k spanning SKC and KC
                // chunks.
                (5, 15, 2 * KC + 7),
                (6, 16, 2 * KC + 7),
                (7, 17, 2 * KC + 7),
                (12, 31, 2 * KC + 7),
                (16, 49, 2 * KC + 7),
            ] {
                dispatch::set_kernel_arch(arch);
                let mut rng = SeedStream::new((m * 1000 + n * 100 + k) as u64);
                let a = rng.uniform_matrix(m, k, 1.0);
                let b = rng.uniform_matrix(k, n, 1.0);
                let reference = small_reference(&a, &b, m, n, k);
                let mut got = vec![0.0; m * n];
                gemm_skinny(
                    Src::Normal(a.as_slice()),
                    b.as_slice(),
                    m,
                    n,
                    k,
                    2 * m * n * k,
                    &mut got,
                );
                assert_bits(&format!("skinny/{}", arch.name()), &reference, &got);
            }
        }
        dispatch::set_kernel_arch(dispatch::detected_arch());
    }

    #[test]
    fn driver_is_bit_identical_to_plain_loops_at_every_small_shape() {
        // Every shape up to 24x24x24 — ragged tiles, single rows and
        // columns, k shorter than a tile — in all three public
        // orientations, on every arch.
        let mut rng = SeedStream::new(0x5A11);
        let a_buf = rng.uniform_matrix(1, 24 * 24, 2.0);
        let b_buf = rng.uniform_matrix(1, 24 * 24, 2.0);
        let src = |transposed: bool, d| {
            if transposed {
                Src::Transposed(d)
            } else {
                Src::Normal(d)
            }
        };
        let orients = [(false, false), (true, false), (false, true)];
        for arch in dispatch::available_arches() {
            dispatch::set_kernel_arch(arch);
            for (m, n, k) in
                (1..=24).flat_map(|m| (1..=24).flat_map(move |n| (1..=24).map(move |k| (m, n, k))))
            {
                let (da, db) = (&a_buf.as_slice()[..m * k], &b_buf.as_slice()[..k * n]);
                for (ta, tb) in orients {
                    let mut want = vec![0.0; m * n];
                    gemm_small(src(ta, da), src(tb, db), m, n, k, &mut want);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_into(src(ta, da), src(tb, db), m, n, k, &mut got);
                    assert_bits(&format!("{m}x{n}x{k}/{}", arch.name()), &want, &got);
                }
            }
        }
        dispatch::set_kernel_arch(dispatch::detected_arch());
    }

    #[test]
    fn thread_plan_caps_skinny_outputs() {
        // The committed-baseline regression: 512x512 x rank-4 (2 MiFLOP)
        // forced onto 4 workers loses to sequential on small hosts. With a
        // real threshold the plan caps workers by host cores and by ~1
        // MiFLOP of work each; the forced threshold-0 testing mode stays
        // uncapped so equivalence tests still exercise the pool.
        let work_512x4 = 2 * 512 * 512 * 4; // 2 MiFLOP
        assert_eq!(plan_threads(work_512x4, 64, 1, 4, 1), 1, "1-core host");
        assert_eq!(
            plan_threads(work_512x4, 64, 1, 4, 8),
            2,
            "8-core host: 2 MiFLOP justifies two workers, not four"
        );
        let work_512x8 = 2 * 512 * 512 * 8;
        assert_eq!(plan_threads(work_512x8, 64, 1, 4, 8), 4);
        // Below the threshold: sequential.
        assert_eq!(plan_threads(1000, 64, 32 << 20, 4, 8), 1);
        // Threshold 0 (testing): uncapped by host cores or work floor.
        assert_eq!(plan_threads(100, 64, 0, 4, 1), 4);
        // Never more workers than panels, never zero.
        assert_eq!(plan_threads(work_512x8, 3, 1, 4, 8), 3);
        assert_eq!(plan_threads(usize::MAX, 0, 1, 4, 8), 1);
    }

    #[test]
    fn routing_counts_rows_not_tile_panels() {
        let (nm, tr) = (Src::Normal(&[]), Src::Transposed(&[]));
        // PowerSGD on a 512 x 2048 gradient at the ranks of the fig13
        // sweep: `Q = G^T P` keeps its swap through rank 16, `P = G Q`
        // is a tall product for the packed path.
        for rank in [4usize, 8, 16] {
            assert_eq!(route(tr, nm, 2048, rank), Route::Swap, "G^T P rank {rank}");
            assert_eq!(route(nm, nm, 512, rank), Route::Packed, "G Q rank {rank}");
        }
        assert_eq!(route(tr, nm, 2048, 17), Route::Packed);
        // 12- to 17-row outputs: skinny through 16 rows whenever B is
        // row-major, whatever the tile height.
        for m in 12..=17 {
            let want = if m <= 16 {
                Route::Skinny
            } else {
                Route::Packed
            };
            assert_eq!(route(nm, nm, m, 512), want, "{m} rows");
            assert_eq!(route(tr, nm, m, 512), want, "{m} rows, A transposed");
            assert_eq!(
                route(nm, tr, m, 512),
                Route::Packed,
                "{m} rows, B transposed"
            );
        }
        // Every shape routes as the 8-row-panel rule of the 8 x 8 tile
        // (at most two panels) routed it.
        let panel_rule = |a_t: bool, b_t: bool, m: usize, n: usize| {
            if a_t && !b_t && m >= 4 * n && n.div_ceil(8) <= 2 {
                Route::Swap
            } else if !b_t && m.div_ceil(8) <= 2 {
                Route::Skinny
            } else {
                Route::Packed
            }
        };
        let src = |t: bool| if t { tr } else { nm };
        for (a_t, b_t) in [(false, false), (true, false), (false, true)] {
            for m in 1..=96 {
                for n in 1..=96 {
                    assert_eq!(
                        route(src(a_t), src(b_t), m, n),
                        panel_rule(a_t, b_t, m, n),
                        "{m}x{n} a_t={a_t} b_t={b_t}"
                    );
                }
            }
        }
    }

    #[test]
    fn tall_skinny_swap_matches_direct_transposed_path() {
        let mut rng = SeedStream::new(77);
        // a stored k x m with m >> n triggers the swapped path in
        // gemm_into; gemm_packed on the same operands is the direct path.
        // n = 16 is the widest factor that keeps the swap.
        for (k, m, n) in [(64usize, 96usize, 3usize), (64, 96, 16)] {
            let a = rng.uniform_matrix(k, m, 1.0);
            let b = rng.uniform_matrix(k, n, 1.0);
            let (ta, nb) = (Src::Transposed(a.as_slice()), Src::Normal(b.as_slice()));
            assert_eq!(route(ta, nb, m, n), Route::Swap);
            let mut swapped = vec![0.0; m * n];
            gemm_into(ta, nb, m, n, k, &mut swapped);
            let mut direct = vec![0.0; m * n];
            gemm_packed(ta, nb, m, n, k, 2 * m * n * k, &mut direct);
            assert_bits(&format!("swap n={n}"), &direct, &swapped);
        }
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        let mut rng = SeedStream::new(5);
        for &(r, c) in &[(1usize, 1usize), (7, 3), (33, 65), (40, 40)] {
            let m = rng.uniform_matrix(r, c, 1.0);
            let mut t = vec![0.0; r * c];
            transpose_into(m.as_slice(), r, c, &mut t);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], m[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn empty_dims_are_handled() {
        let mut out = [0.0f32; 0];
        gemm_into(Src::Normal(&[]), Src::Normal(&[]), 0, 0, 0, &mut out);
        let mut out = [9.0f32; 2];
        // k = 0: output must be zeroed, not left stale.
        gemm_into(Src::Normal(&[]), Src::Normal(&[]), 2, 1, 0, &mut out);
        assert_eq!(out, [0.0, 0.0]);
    }
}
