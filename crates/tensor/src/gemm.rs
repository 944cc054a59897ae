//! Cache-blocked, register-tiled GEMM over a shared packed micro-kernel.
//!
//! All three matrix products ([`crate::Matrix::matmul`],
//! [`crate::Matrix::t_matmul`], [`crate::Matrix::matmul_t`]) funnel into
//! one driver with two shapes of inner loop, both feeding the same
//! arch-dispatched micro-kernel at every problem size:
//!
//! * the **packed path** for general shapes: B is packed into `NR`-wide
//!   column panels once, A is read where it is stored (row-major rows or
//!   transposed columns; only a ragged panel of transposed A is packed),
//!   and `MR x NR` register tiles of `f32` accumulators walk the shared
//!   `k` dimension in L1-sized chunks — one kernel entry per row panel
//!   and chunk sweeps every B column panel;
//! * the **skinny path** for outputs with at most [`SKINNY_ROWS`] rows
//!   (the PowerSGD factor products after the swap below): the tiny A
//!   operand is packed whole, B is read directly as contiguous row slivers
//!   (packing a 64 MB gradient to multiply it by a rank-8 factor would
//!   dominate), workers own disjoint column-panel ranges, and one kernel
//!   entry per column panel and chunk sweeps its row panels.
//!
//! A tile's accumulators start as zero registers on the first `k`-chunk
//! and are stored straight into the output; rows and columns past a
//! ragged edge are masked off, never written (see `simd.rs`).
//!
//! Tall-skinny `A^T B` (PowerSGD `Q = G^T P`) is rewritten as `(B^T A)^T`
//! so every memory walk is over contiguous rows. The pure [`route`]
//! function picks among the three.
//!
//! The packed path reads its operands as **strided blocks**: a stored
//! row of A, B or the output is `ld` elements after the previous one, and
//! a dense product is the case where `ld` is the row length. That lets
//! [`gemm_strided_batched`] run a whole grid of small products — the
//! per-(sequence, head) attention products — in one entry: it makes one
//! route decision for the batch (the packed loop; its blocks are small on
//! both sides, so there is no huge B to avoid packing and no tall A to
//! swap), reads and packs each block where it sits in its parent matrix,
//! stores each result tile straight into its block of the output, reuses
//! one thread-local B-pack buffer and one A-pack buffer for every block, and
//! above the pool threshold splits the grid's outer index over workers.
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
//! * `k`-chunking stores the accumulators to the output between chunks,
//!   and the next chunk's kernel entry reloads them from C into registers,
//!   continuing the same chain (`fma(a2,b2, fma(a1,b1, 0))` is the same
//!   sequence whether or not a store happens in the middle);
//! * lanes past a ragged edge (padding columns, repeated or zero rows)
//!   are computed and discarded, never mixed into a stored chain;
//! * the swap relies on `a*b == b*a` (IEEE multiplication commutes
//!   bitwise) and a transpose that moves bits without arithmetic;
//! * the worker pool (see [`crate::pool`]) assigns each output panel, or
//!   each block group of a strided batch, to exactly one thread via a
//!   fixed decomposition;
//! * a strided operand changes where a block's elements are read from,
//!   not which products enter a chain or in what order.
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

impl Src<'_> {
    /// Row stride of this operand when its logical `rows x cols` form is
    /// stored densely.
    fn dense_ld(self, rows: usize, cols: usize) -> usize {
        match self {
            Src::Normal(_) => cols,
            Src::Transposed(_) => rows,
        }
    }
}

/// Shape and row strides of one packed-path product: `A'` is `m x k`,
/// `B'` is `k x n`, and consecutive stored rows of A, B and the output
/// sit `lda`, `ldb` and `ldc` elements apart.
#[derive(Clone, Copy)]
struct Dims {
    m: usize,
    n: usize,
    k: usize,
    lda: usize,
    ldb: usize,
    ldc: usize,
}

impl Dims {
    /// A product whose operands and output are each stored densely.
    fn dense(a: Src<'_>, b: Src<'_>, m: usize, n: usize, k: usize) -> Dims {
        Dims {
            m,
            n,
            k,
            lda: a.dense_ld(m, k),
            ldb: b.dense_ld(k, n),
            ldc: n,
        }
    }
}

thread_local! {
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static TSCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `len` floats of this thread's B-pack buffer, grown when it
/// is too short and otherwise left as the last pack left it: [`pack_b`]
/// writes every element it reads.
fn with_bpack<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    BPACK.with(|bp| {
        let mut bpack = bp.borrow_mut();
        if bpack.len() < len {
            bpack.resize(len, 0.0);
        }
        f(&mut bpack[..len])
    })
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
            // Grown, never refilled: the skinny path writes all of it.
            let mut tmp = t.borrow_mut();
            if tmp.len() < n * m {
                tmp.resize(n * m, 0.0);
            }
            let tmp = &mut tmp[..n * m];
            gemm_skinny(Src::Transposed(db), da, n, m, k, work, tmp);
            transpose_into(tmp, n, m, out);
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
    let d = Dims::dense(a, b, m, n, k);
    let panels_m = m.div_ceil(MR);
    with_bpack(n.div_ceil(NR) * k * NR, |bpack| {
        pack_b(b, d, bpack);
        let bpack = &*bpack;
        let threads = effective_threads(work, panels_m);
        if threads <= 1 {
            return run_row_panels(a, d, bpack, 0, panels_m, out, &mut Vec::new());
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
                scope.spawn(move || {
                    run_row_panels(a, d, bpack, pstart, pend, chunk, &mut Vec::new())
                });
            }
        });
    });
}

/// Computes row micro-panels `[pstart, pend)` of one product whose B is
/// already in `bpack`; `out_chunk` starts at row `pstart * MR` of the
/// logical output. `apack` is the caller's scratch for packed A chunks,
/// grown only when a ragged panel of transposed A needs one.
/// One kernel entry per row panel and `k`-chunk sweeps every B column
/// panel.
fn run_row_panels(
    a: Src<'_>,
    d: Dims,
    bpack: &[f32],
    pstart: usize,
    pend: usize,
    out_chunk: &mut [f32],
    apack: &mut Vec<f32>,
) {
    let Dims {
        m, n, k, lda, ldc, ..
    } = d;
    let arch = dispatch::kernel_arch();
    for mp in pstart..pend {
        let row0 = mp * MR;
        let mr_eff = MR.min(m - row0);
        let c = &mut out_chunk[(row0 - pstart * MR) * ldc..];
        // `max(1)`: an empty sum still runs one chunk, which zeroes C.
        for k0 in (0..k.max(1)).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            let kc = k1 - k0;
            // A feeds the kernel where it is stored: row-major A as MR
            // row streams (a ragged panel repeats its last row into lanes
            // that are never stored), transposed A as MR adjacent columns.
            // Only a ragged panel of transposed A is packed, as its
            // columns would run past the operand (an empty sum packs
            // nothing).
            let rows: [&[f32]; MR];
            let a = match a {
                Src::Normal(da) => {
                    rows =
                        std::array::from_fn(|i| &da[(row0 + i.min(mr_eff - 1)) * lda + k0..][..kc]);
                    simd::APanels::Rows(&rows)
                }
                Src::Transposed(da) if mr_eff == MR && kc > 0 => simd::APanels::Cols {
                    a: &da[k0 * lda + row0..],
                    lda,
                },
                Src::Transposed(_) => {
                    apack.resize(kc * MR, 0.0);
                    pack_a_chunk(a, lda, row0, mr_eff, k0, k1, apack);
                    simd::APanels::Packed { a: apack, step: 0 }
                }
            };
            let sweep = simd::Sweep {
                a,
                b: &bpack[k0 * NR..],
                b_step: k * NR,
                kc,
                ldc,
                rows: mr_eff,
                cols: n,
                first: k0 == 0,
            };
            simd::sweep(arch, &sweep, c);
        }
    }
}

// ---------------------------------------------------------------------------
// Strided batches (blocks read and written in place)
// ---------------------------------------------------------------------------

/// Where the blocks of one operand of [`gemm_strided_batched`] sit in its
/// buffer. A batch is a grid of `outer x inner` row-major blocks: block
/// `(o, i)` starts at element `o * outer_stride + i * inner_stride`, and
/// its row `r` starts `r * ld` elements after that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    /// Elements between consecutive rows of a block; at least the
    /// block's row length.
    pub ld: usize,
    /// Elements between block `(o, i)` and block `(o + 1, i)`.
    pub outer_stride: usize,
    /// Elements between block `(o, i)` and block `(o, i + 1)`.
    pub inner_stride: usize,
}

/// One input of [`gemm_strided_batched`]: a buffer and where its blocks
/// sit in it.
#[derive(Clone, Copy, Debug)]
pub struct Blocks<'a> {
    /// The buffer every block of this operand lives in.
    pub data: &'a [f32],
    /// Where block `(o, i)` and its rows start in `data`.
    pub layout: BlockLayout,
    /// Each stored block holds the operand's transpose, read through it
    /// as [`crate::Matrix::t_matmul`] reads its receiver and
    /// [`crate::Matrix::matmul_t`] its argument.
    pub transposed: bool,
}

impl<'a> Blocks<'a> {
    fn at(self, o: usize, i: usize) -> Src<'a> {
        let l = self.layout;
        let data = &self.data[o * l.outer_stride + i * l.inner_stride..];
        if self.transposed {
            Src::Transposed(data)
        } else {
            Src::Normal(data)
        }
    }
}

/// The grid and block shape of [`gemm_strided_batched`]: `outer x inner`
/// products, each of an `m x k` block by a `k x n` block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchShape {
    /// Block groups; the worker pool splits the batch between groups.
    pub outer: usize,
    /// Blocks per group.
    pub inner: usize,
    /// Rows of each output block.
    pub m: usize,
    /// Columns of each output block.
    pub n: usize,
    /// The shared dimension of each product.
    pub k: usize,
}

/// Every product of a strided batch in one kernel entry:
/// `out(o, i) = A(o, i) · B(o, i)` for each block `(o, i)` of an
/// `outer x inner` grid ([`BatchShape`]), where each operand's blocks sit
/// in its buffer as its [`BlockLayout`] says — for instance the `L x d`
/// head blocks of a `(sequences · L) x hidden` activation, or the
/// `L x L` tiles of a stack of per-head score matrices.
///
/// Packing reads each block where it sits, and each result tile is
/// stored straight into its block of `out`; nothing is copied out or
/// scattered back. Elements of `out` outside every block are left as
/// they were. Every output element is the one ascending-`k`
/// fused-multiply-add chain [`crate::Matrix::matmul`] computes, so the
/// bits equal a loop of `matmul` / `t_matmul` / `matmul_t` over copies of
/// the blocks, on every kernel arch and at any thread count. The whole
/// batch is one entry in the kernel-path counters. Above the pool
/// threshold, worker `w` owns a fixed contiguous range of block groups.
///
/// # Panics
///
/// Panics if a block of any operand reaches past its buffer, if a
/// layout's `ld` is shorter than its block's stored row, or if (with more
/// than one group) one group of `out` reaches past the start of the next.
pub fn gemm_strided_batched(
    shape: BatchShape,
    a: Blocks<'_>,
    b: Blocks<'_>,
    out: &mut [f32],
    out_layout: BlockLayout,
) {
    let BatchShape {
        outer,
        inner,
        m,
        n,
        k,
    } = shape;
    let stored = |blocks: Blocks<'_>, rows, cols| {
        if blocks.transposed {
            (cols, rows)
        } else {
            (rows, cols)
        }
    };
    let (ar, ac) = stored(a, m, k);
    let (br, bc) = stored(b, k, n);
    check_blocks("a", a.data.len(), a.layout, shape, ar, ac);
    check_blocks("b", b.data.len(), b.layout, shape, br, bc);
    let group = check_blocks("out", out.len(), out_layout, shape, m, n);
    if group == 0 {
        return;
    }
    assert!(
        outer == 1 || group <= out_layout.outer_stride,
        "gemm_strided_batched: an output group spans {group} elements, past the {}-element group stride",
        out_layout.outer_stride
    );
    dispatch::note_dense_kernel(dispatch::kernel_arch());
    let batch = Batch {
        inner,
        a,
        b,
        d: Dims {
            m,
            n,
            k,
            lda: a.layout.ld,
            ldb: b.layout.ld,
            ldc: out_layout.ld,
        },
        out_layout,
    };
    let work = [m, n, k, outer, inner]
        .iter()
        .fold(2usize, |w, &x| w.saturating_mul(x));
    let threads = effective_threads(work, outer);
    if threads <= 1 {
        return batch.run_groups(0, outer, out);
    }
    // Fixed decomposition of block groups over the worker pool; each
    // worker owns the contiguous stretch of `out` its groups live in.
    let ranges = pool::panel_ranges(outer, threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        for &(o0, o1) in &ranges {
            let take = if o1 == outer {
                rest.len()
            } else {
                (o1 - o0) * out_layout.outer_stride
            };
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let batch = &batch;
            scope.spawn(move || batch.run_groups(o0, o1, chunk));
        }
    });
}

/// Checks that every block of one operand lies inside its `len`-element
/// buffer, and returns the elements one group of blocks spans (0 when the
/// batch is empty).
fn check_blocks(
    name: &str,
    len: usize,
    l: BlockLayout,
    s: BatchShape,
    rows: usize,
    cols: usize,
) -> usize {
    if s.outer == 0 || s.inner == 0 || rows == 0 || cols == 0 {
        return 0;
    }
    assert!(
        l.ld >= cols,
        "gemm_strided_batched: {name} rows of {cols} elements overlap at ld {}",
        l.ld
    );
    let group = (s.inner - 1) * l.inner_stride + (rows - 1) * l.ld + cols;
    let end = (s.outer - 1) * l.outer_stride + group;
    assert!(
        end <= len,
        "gemm_strided_batched: {name} blocks reach element {end} of a {len}-element buffer"
    );
    group
}

/// A checked strided batch, as its workers see it.
struct Batch<'a> {
    inner: usize,
    a: Blocks<'a>,
    b: Blocks<'a>,
    d: Dims,
    out_layout: BlockLayout,
}

impl Batch<'_> {
    /// Computes block groups `[o0, o1)`; `out` starts at group `o0`.
    fn run_groups(&self, o0: usize, o1: usize, out: &mut [f32]) {
        let d = self.d;
        let panels_m = d.m.div_ceil(MR);
        let mut apack = Vec::new();
        with_bpack(d.n.div_ceil(NR) * d.k * NR, |bpack| {
            for o in o0..o1 {
                for i in 0..self.inner {
                    let at =
                        (o - o0) * self.out_layout.outer_stride + i * self.out_layout.inner_stride;
                    let out = &mut out[at..];
                    if d.k == 0 {
                        // An empty sum: the block is zero, as `matmul`
                        // leaves it.
                        for r in 0..d.m {
                            out[r * d.ldc..][..d.n].fill(0.0);
                        }
                        continue;
                    }
                    pack_b(self.b.at(o, i), d, bpack);
                    run_row_panels(self.a.at(o, i), d, bpack, 0, panels_m, out, &mut apack);
                }
            }
        });
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
            a.dense_ld(m, k),
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
/// `pstart * NR`. One kernel entry per column panel and `k`-chunk sweeps
/// every row panel.
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
    let panels = pend - pstart;
    // Per-chunk packed B panels for this worker's column range; reused
    // across chunks so it stays cache-resident.
    let mut bchunk = vec![0.0f32; panels * SKC * NR];
    // `max(1)`: an empty sum still runs one chunk, which zeroes C.
    for k0 in (0..k.max(1)).step_by(SKC) {
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
            let sweep = simd::Sweep {
                a: simd::APanels::Packed {
                    a: &apack_all[k0 * MR..],
                    step: k * MR,
                },
                b: &bchunk[(p - pstart) * SKC * NR..][..kc * NR],
                b_step: 0,
                kc,
                ldc: part_width,
                rows: m,
                cols: NR.min(n - col0),
                first: k0 == 0,
            };
            simd::sweep(arch, &sweep, &mut out_part[col0 - pstart * NR..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs `MR` rows of `A'` (rows `row0..row0+mr_eff`, zero-padded to `MR`)
/// over the `k`-range `[k0, k1)` into
/// `apack[(kk-k0)*MR + i] = A'(row0+i, kk)`; consecutive stored rows of A
/// sit `lda` elements apart.
fn pack_a_chunk(
    a: Src<'_>,
    lda: usize,
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
                let src = &d[(row0 + i) * lda + k0..(row0 + i) * lda + k1];
                for (kk, &v) in src.iter().enumerate() {
                    apack[kk * MR + i] = v;
                }
            }
        }
        Src::Transposed(d) => {
            // Stored k x m: row kk holds A'(_, kk) contiguously.
            for kk in k0..k1 {
                let src = &d[kk * lda + row0..kk * lda + row0 + mr_eff];
                apack[(kk - k0) * MR..(kk - k0) * MR + mr_eff].copy_from_slice(src);
            }
        }
    }
}

/// Packs all of `B'` into `NR`-wide column panels:
/// `bpack[(p*k + kk)*NR + j] = B'(kk, p*NR + j)`, writing every element of
/// `bpack`: full panels copy fixed `NR`-wide rows, and the padding lanes
/// of a ragged last panel are written as zeros.
fn pack_b(b: Src<'_>, d: Dims, bpack: &mut [f32]) {
    let Dims { n, k, ldb, .. } = d;
    let (full, rem) = (n / NR, n % NR);
    match b {
        Src::Normal(db) => {
            // kk-outer scatter: read each B row once, contiguously; the
            // per-panel write cursors advance one 64-byte line per row,
            // so the write working set is one line per panel.
            for kk in 0..k {
                let row = &db[kk * ldb..][..n];
                for p in 0..full {
                    bpack[(p * k + kk) * NR..][..NR].copy_from_slice(&row[p * NR..][..NR]);
                }
                if rem > 0 {
                    let tail = &row[full * NR..];
                    for (j, x) in bpack[(full * k + kk) * NR..][..NR].iter_mut().enumerate() {
                        *x = tail.get(j).copied().unwrap_or(0.0);
                    }
                }
            }
        }
        Src::Transposed(db) => {
            // Stored n x k: row j holds B'(_, j) contiguously.
            for p in 0..n.div_ceil(NR) {
                let col0 = p * NR;
                let nr_eff = NR.min(n - col0);
                let panel = &mut bpack[p * k * NR..][..k * NR];
                for j in 0..nr_eff {
                    let src = &db[(col0 + j) * ldb..][..k];
                    for (lane, &v) in panel.chunks_exact_mut(NR).zip(src) {
                        lane[j] = v;
                    }
                }
                if nr_eff < NR {
                    for lane in panel.chunks_exact_mut(NR) {
                        lane[nr_eff..].fill(0.0);
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
