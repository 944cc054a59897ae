//! The kernel determinism contract, enforced end to end: every dispatchable
//! kernel path (scalar fallback, AVX2+FMA) must be **bit-identical**
//! to an in-test oracle that spells out the contract directly — a fused
//! `mul_add` accumulation chain per output element for GEMM, the fixed
//! 8-lane split reduction for Gram–Schmidt dots, and the fixed per-element
//! operation sequence of `exp` / GELU — across odd shapes (1xN, Nx1,
//! non-multiple-of-tile, empty, and every shape up to 24x24x24) and
//! worker-thread counts (1/2/4).
//!
//! The oracle is deliberately *not* an unfused `acc += a * b` loop: that
//! agrees with the dispatched kernels only to rounding, not to the bit.
//! The contract the dispatcher must honor is the FMA-chain / lane-split
//! order defined here.
//!
//! Every test loops over [`opt_tensor::available_arches`] — exactly the
//! set the dispatcher could pick on this host — so CI's
//! `kernel-equivalence` step fails if detection ever selects a path whose
//! oracle comparison didn't run ([`detected_arch_is_covered`] pins the
//! subset property explicitly).
//!
//! This binary owns the process-global kernel knobs
//! ([`set_kernel_threads`], [`set_parallel_flop_threshold`],
//! [`set_kernel_arch`]); integration tests are separate processes, so
//! tweaking them here cannot perturb the rest of the suite. Within this
//! binary the knobs only change *which* code path runs — never the bits —
//! which is exactly the property under test.

use opt_tensor::{
    available_arches, detected_arch, exp, gelu, gelu_backward, gemm_strided_batched, kernel_arch,
    kernel_path_counts, orthonormalize_columns, set_kernel_arch, set_kernel_threads,
    set_parallel_flop_threshold, BatchShape, BlockLayout, Blocks, Matrix, SeedStream,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn assert_bits_equal(label: &str, reference: &Matrix, got: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.shape(), got.shape(), "{}: shape", label);
    for (i, (x, y)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: element {} differs ({} vs {})",
            label,
            i,
            x,
            y
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The contract, spelled out: oracles independent of the crate's kernels
// ---------------------------------------------------------------------------

/// `out[i][j] = fma-chain over ascending k of a[i][k] * b[k][j]`.
fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[(i, kk)].mul_add(b[(kk, j)], acc);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `out[i][j] = fma-chain over ascending k of a[k][i] * b[k][j]` (Aᵀ·B).
fn oracle_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[(kk, i)].mul_add(b[(kk, j)], acc);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `out[i][j] = fma-chain over ascending k of a[i][k] * b[j][k]` (A·Bᵀ).
fn oracle_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[(i, kk)].mul_add(b[(j, kk)], acc);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// The lane-split dot contract: element `i` accumulates into lane `i % 8`
/// via `mul_add` (full 8-element chunks round-robin, the tail fills lanes
/// `0..rem`), then lanes reduce sequentially left to right.
fn oracle_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        for l in 0..8 {
            lanes[l] = a[c * 8 + l].mul_add(b[c * 8 + l], lanes[l]);
        }
    }
    for (l, i) in (chunks * 8..a.len()).enumerate() {
        lanes[l] = a[i].mul_add(b[i], lanes[l]);
    }
    let mut acc = lanes[0];
    for &l in &lanes[1..] {
        acc += l;
    }
    acc
}

/// Modified Gram–Schmidt exactly as `orthonormalize_columns` performs it —
/// transposed panel, two projection passes, degenerate-column unit-basis
/// replacement — but with every dot reduction going through the
/// independent [`oracle_dot`] emulation of the lane-split contract.
fn oracle_orthonormalize(m: &mut Matrix) {
    let (rows, cols) = m.shape();
    const EPS: f32 = 1e-5;
    if rows == 0 || cols == 0 {
        return;
    }
    let mut panel = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            panel[c * rows + r] = m[(r, c)];
        }
    }
    for c in 0..cols {
        let (done, rest) = panel.split_at_mut(c * rows);
        let cur = &mut rest[..rows];
        for _pass in 0..2 {
            for prev in 0..c {
                let prev_col = &done[prev * rows..(prev + 1) * rows];
                let d = oracle_dot(cur, prev_col);
                for (x, &p) in cur.iter_mut().zip(prev_col) {
                    *x -= d * p;
                }
            }
        }
        let norm = oracle_dot(cur, cur).sqrt();
        if norm > EPS {
            let inv = 1.0 / norm;
            for x in cur.iter_mut() {
                *x *= inv;
            }
        } else {
            'candidates: for t in 0..rows {
                let pick = (c + t) % rows;
                for (r, x) in cur.iter_mut().enumerate() {
                    *x = if r == pick { 1.0 } else { 0.0 };
                }
                for prev in 0..c {
                    let prev_col = &done[prev * rows..(prev + 1) * rows];
                    let d = oracle_dot(cur, prev_col);
                    for (x, &p) in cur.iter_mut().zip(prev_col) {
                        *x -= d * p;
                    }
                }
                let ns = oracle_dot(cur, cur);
                if ns.sqrt() > 0.5 {
                    let inv = 1.0 / ns.sqrt();
                    for x in cur.iter_mut() {
                        *x *= inv;
                    }
                    break 'candidates;
                }
            }
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            m[(r, c)] = panel[c * rows + r];
        }
    }
}

/// `e^x` exactly as the element-wise contract defines it: clamp, round
/// `x log2(e)` to an integer by adding `1.5 * 2^23`, two-step Cody–Waite
/// reduction, degree-5 Horner polynomial, two exponent bit-inserts.
fn oracle_exp(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0;
    let xc = if x > 89.0 { 89.0 } else { x };
    let xc = if xc < -104.0 { -104.0 } else { xc };
    let t = xc.mul_add(std::f32::consts::LOG2_E, MAGIC);
    let n = t - MAGIC;
    let ni = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let r = n.mul_add(-f32::from_bits(0x3f31_7200), xc);
    let r = n.mul_add(-f32::from_bits(0x35bf_be8e), r);
    let mut p = 1.987_569_1e-4f32;
    for c in [
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_6e-1,
        0.5,
    ] {
        p = p.mul_add(r, c);
    }
    let e = p.mul_add(r * r, r) + 1.0;
    let half = ni >> 1;
    let pow2 = |k: i32| f32::from_bits((k.wrapping_add(127) as u32) << 23);
    e * pow2(half) * pow2(ni.wrapping_sub(half))
}

const GELU_C1: f32 = 1.595_769_2; // 2 sqrt(2/pi)
const GELU_C3: f32 = 0.071_354_814; // 2 sqrt(2/pi) * 0.044715

/// `x / (1 + e^(-z))`, `z = x (C1 + C3 x^2)`.
fn oracle_gelu(x: f32) -> f32 {
    let z = x * (x * x).mul_add(GELU_C3, GELU_C1);
    x / (1.0 + oracle_exp(-z))
}

/// `g (s + x z' e s^2)` on `x` clamped to `[-9.9, 9.9]`, `e = e^(-z)`,
/// `s = 1 / (1 + e)`.
fn oracle_gelu_backward(x: f32, g: f32) -> f32 {
    let xc = if x > 9.9 { 9.9 } else { x };
    let xc = if xc < -9.9 { -9.9 } else { xc };
    let x2 = xc * xc;
    let z = xc * x2.mul_add(GELU_C3, GELU_C1);
    let dz = x2.mul_add(3.0 * GELU_C3, GELU_C1);
    let e = oracle_exp(-z);
    let s = 1.0 / (1.0 + e);
    g * (xc * dz).mul_add(e * s * s, s)
}

/// The element-wise suite's inputs: a dense sweep of `[-20, 20]` plus
/// signed zeros, infinities, NaN, subnormals and every saturation edge of
/// the three kernels (exp's overflow / subnormal / flush thresholds, the
/// GELU derivative clamp, the magnitudes where `x^2` overflows).
fn elementwise_inputs() -> Vec<f32> {
    let mut xs: Vec<f32> = (0..=40 * 1024).map(|i| -20.0 + i as f32 / 1024.0).collect();
    let edges = [
        0.0,
        f32::MIN_POSITIVE,
        1e-40,
        f32::from_bits(1),
        1e-6,
        9.9,
        9.900_001,
        10.0,
        12.5,
        87.336_54,
        87.4,
        88.0,
        88.722_83,
        88.722_84,
        88.73,
        89.0,
        89.5,
        103.9,
        103.972,
        104.0,
        104.5,
        1000.0,
        1.8e19,
        1.9e19,
        1e20,
        f32::MAX,
        f32::INFINITY,
    ];
    for e in edges {
        xs.extend([e, -e]);
    }
    xs.push(f32::NAN);
    xs
}

/// Bit equality, except that any NaN matches any NaN: which NaN an
/// operation returns is the one thing IEEE leaves to the hardware.
fn assert_lanes_equal(label: &str, xs: &[f32], want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for ((&x, &w), &g) in xs.iter().zip(want).zip(got) {
        assert!(
            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
            "{label}: f({x:e}) = {g:e} ({:#010x}), oracle {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Odd shape distribution: exact multiples and off-by-ones of the 6 x 16
/// register tile (`MR` = 6, `NR` = 16), degenerate 1xN / Nx1, and empty
/// dimensions.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|sel| match sel {
        0 => 1,
        1 => 6,  // one MR panel
        2 => 7,  // one past MR
        3 => 12, // two MR panels
        4 => 16, // one NR panel; the last skinny row count
        5 => 17, // one past NR; the first packed row count
        6 => 48, // three NR panels, eight MR panels
        _ => 0,  // empty
    })
}

/// Serializes every section that sets the process-global kernel knobs:
/// the libtest harness runs this binary's tests on parallel threads, and
/// without the lock a sibling test could retarget the thread count or arch
/// between a `set_kernel_*` and the product it is meant to cover — the
/// results would still be bit-identical (that is the contract), but the
/// labeled per-arch / per-thread-count coverage would be fiction.
static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `got` on every kernel path this host can execute, each under 1, 2,
/// and 4 worker threads (parallel threshold forced to zero so even tiny
/// shapes exercise the pool), and checks every result bit-for-bit against
/// `reference`.
fn check_all_paths(
    label: &str,
    reference: &Matrix,
    mut got: impl FnMut() -> Matrix,
) -> Result<(), TestCaseError> {
    let _guard = KNOB_LOCK.lock().unwrap();
    let old_threshold = opt_tensor::parallel_flop_threshold();
    set_parallel_flop_threshold(0);
    for arch in available_arches() {
        set_kernel_arch(arch);
        for threads in [1usize, 2, 4] {
            set_kernel_threads(threads);
            let result = got();
            assert_bits_equal(
                &format!("{label} [{} @{threads}thr]", arch.name()),
                reference,
                &result,
            )?;
        }
    }
    set_kernel_arch(detected_arch());
    set_kernel_threads(1);
    set_parallel_flop_threshold(old_threshold);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_fma_chain_oracle_on_every_arch(m in dim(), n in dim(), k in dim(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(m, k, 100.0);
        let b = rng.uniform_matrix(k, n, 100.0);
        let reference = oracle_matmul(&a, &b);
        check_all_paths("matmul", &reference, || a.matmul(&b))?;
    }

    #[test]
    fn t_matmul_matches_fma_chain_oracle_on_every_arch(m in dim(), n in dim(), k in dim(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(k, m, 100.0);
        let b = rng.uniform_matrix(k, n, 100.0);
        let reference = oracle_t_matmul(&a, &b);
        check_all_paths("t_matmul", &reference, || a.t_matmul(&b))?;
    }

    #[test]
    fn matmul_t_matches_fma_chain_oracle_on_every_arch(m in dim(), n in dim(), k in dim(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(m, k, 100.0);
        let b = rng.uniform_matrix(n, k, 100.0);
        let reference = oracle_matmul_t(&a, &b);
        check_all_paths("matmul_t", &reference, || a.matmul_t(&b))?;
    }

    #[test]
    fn tall_skinny_products_are_bit_identical(rows in 1usize..400, rank in 1usize..10, seed in 0u64..1000) {
        // The PowerSGD shapes: a big gradient against a skinny factor,
        // driving the swapped/skinny kernel paths.
        let mut rng = SeedStream::new(seed);
        let grad = rng.uniform_matrix(rows, rows / 2 + 1, 1.0);
        let q = rng.uniform_matrix(rows / 2 + 1, rank, 1.0);
        let p_ref = oracle_matmul(&grad, &q);
        check_all_paths("powersgd_p", &p_ref, || grad.matmul(&q))?;
        let q_ref = oracle_t_matmul(&grad, &p_ref);
        check_all_paths("powersgd_q", &q_ref, || grad.t_matmul(&p_ref))?;
    }

    #[test]
    fn orthonormalize_matches_lane_split_oracle_on_every_arch(rows in dim(), cols in dim(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let m0 = rng.uniform_matrix(rows, cols, 1.0);
        let mut reference = m0.clone();
        oracle_orthonormalize(&mut reference);
        let _guard = KNOB_LOCK.lock().unwrap();
        for arch in available_arches() {
            set_kernel_arch(arch);
            let mut got = m0.clone();
            orthonormalize_columns(&mut got);
            assert_bits_equal(&format!("orthonormalize [{}]", arch.name()), &reference, &got)?;
        }
        set_kernel_arch(detected_arch());
    }

    #[test]
    fn orthonormalize_handles_degenerate_columns_identically(rows in 1usize..20, seed in 0u64..500) {
        // Duplicated / zero columns force the unit-basis replacement
        // branch; it must stay bit-identical on every arch too.
        let mut rng = SeedStream::new(seed);
        let base = rng.uniform_matrix(rows, 1, 1.0);
        let mut m0 = Matrix::zeros(rows, 3);
        for r in 0..rows {
            m0[(r, 0)] = base[(r, 0)];
            m0[(r, 1)] = 2.0 * base[(r, 0)]; // linearly dependent
            // column 2 stays all-zero
        }
        let mut reference = m0.clone();
        oracle_orthonormalize(&mut reference);
        let _guard = KNOB_LOCK.lock().unwrap();
        for arch in available_arches() {
            set_kernel_arch(arch);
            let mut got = m0.clone();
            orthonormalize_columns(&mut got);
            assert_bits_equal(
                &format!("orthonormalize-degenerate [{}]", arch.name()),
                &reference,
                &got,
            )?;
        }
        set_kernel_arch(detected_arch());
    }

    #[test]
    fn into_variants_reuse_buffers_and_match(seed in 0u64..500) {
        // *_into must equal the allocating variants even when the output
        // buffer starts with a stale shape and stale contents.
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(13, 9, 1.0);
        let b = rng.uniform_matrix(9, 21, 1.0);
        let mut out = rng.uniform_matrix(3, 2, 1.0); // wrong shape, junk data
        a.matmul_into(&b, &mut out);
        assert_bits_equal("matmul_into", &a.matmul(&b), &out)?;
        let c = rng.uniform_matrix(13, 21, 1.0);
        a.t_matmul_into(&c, &mut out);
        assert_bits_equal("t_matmul_into", &a.t_matmul(&c), &out)?;
        let d = rng.uniform_matrix(4, 9, 1.0);
        a.matmul_t_into(&d, &mut out);
        assert_bits_equal("matmul_t_into", &a.matmul_t(&d), &out)?;
    }
}

/// The CI `kernel-equivalence` guarantee: the path the dispatcher resolves
/// to (detection or `OPT_KERNEL_ARCH` override) must be in the set every
/// equivalence test above iterated — otherwise a run could dispatch to a
/// kernel whose oracle comparison never executed on this machine.
#[test]
fn detected_arch_is_covered() {
    let arches = available_arches();
    assert!(
        arches.contains(&kernel_arch()),
        "dispatch resolved to {} but the oracle only covered {:?}",
        kernel_arch().name(),
        arches.iter().map(|a| a.name()).collect::<Vec<_>>()
    );
    assert!(arches.contains(&detected_arch()));
}

/// Every shape with `m, n, k` in `1..=24` — the whole range a plain scalar
/// loop nest used to serve below a FLOP threshold — now reaches the
/// dispatched micro-kernel, in all three orientations, on every arch and
/// at 1/2/4 threads, with the FMA-chain oracle's bits.
#[test]
fn every_small_shape_matches_fma_chain_oracle_on_every_arch() {
    let mut rng = SeedStream::new(0x5A11);
    let _guard = KNOB_LOCK.lock().unwrap();
    let old_threshold = opt_tensor::parallel_flop_threshold();
    set_parallel_flop_threshold(0);
    for m in 1..=24usize {
        for n in 1..=24usize {
            for k in 1..=24usize {
                let a = rng.uniform_matrix(m, k, 10.0);
                let at = a.transpose();
                let b = rng.uniform_matrix(k, n, 10.0);
                let bt = b.transpose();
                let reference = oracle_matmul(&a, &b);
                for arch in available_arches() {
                    set_kernel_arch(arch);
                    for threads in [1usize, 2, 4] {
                        set_kernel_threads(threads);
                        for (name, got) in [
                            ("matmul", a.matmul(&b)),
                            ("t_matmul", at.t_matmul(&b)),
                            ("matmul_t", a.matmul_t(&bt)),
                        ] {
                            let label =
                                format!("{name} {m}x{n}x{k} [{} @{threads}thr]", arch.name());
                            assert_bits_equal(&label, &reference, &got).unwrap();
                        }
                    }
                }
            }
        }
    }
    set_kernel_arch(detected_arch());
    set_kernel_threads(1);
    set_parallel_flop_threshold(old_threshold);
}

/// Where the blocks of a strided-batch operand go in a test buffer. Either
/// the blocks of a group sit side by side in columns (the head blocks of
/// an activation) or they stack in rows (a stack of score tiles); rows
/// are padded by 3 and groups by 5 elements, so no stride is the block's
/// own width.
fn test_layout(side_by_side: bool, inner: usize, rows: usize, cols: usize) -> BlockLayout {
    if side_by_side {
        let ld = inner * cols + 3;
        BlockLayout {
            ld,
            outer_stride: rows * ld + 5,
            inner_stride: cols,
        }
    } else {
        let ld = cols + 3;
        BlockLayout {
            ld,
            outer_stride: inner * rows * ld + 5,
            inner_stride: rows * ld,
        }
    }
}

/// Elements a buffer of `outer` groups at `layout` needs.
fn buffer_len(layout: BlockLayout, outer: usize) -> usize {
    outer * layout.outer_stride
}

/// Start of row `r` of block `(o, i)`.
fn row_at(layout: BlockLayout, o: usize, i: usize, r: usize) -> usize {
    o * layout.outer_stride + i * layout.inner_stride + r * layout.ld
}

/// The stored `rows x cols` block `(o, i)` of `data`, copied out.
fn stored_block(
    data: &[f32],
    layout: BlockLayout,
    o: usize,
    i: usize,
    rows: usize,
    cols: usize,
) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| data[row_at(layout, o, i, r) + c])
}

/// Runs every shape of `shapes` as an `outer x inner` strided batch in
/// all four operand orientations, with each operand's blocks where
/// `layout(side_by_side, inner, rows, cols)` puts them and `tail` sentinel
/// elements after each buffer's last group. Every output block must carry
/// the oracle's bits of its own product and every element outside the
/// blocks must keep its NaN sentinel — on every arch, at 1/2/4 threads.
fn check_strided_batches(
    seed: u64,
    shapes: &[[usize; 3]],
    layout: impl Fn(bool, usize, usize, usize) -> BlockLayout,
    tail: usize,
) {
    let (outer, inner) = (3usize, 2usize);
    let mut rng = SeedStream::new(seed);
    let _guard = KNOB_LOCK.lock().unwrap();
    let old_threshold = opt_tensor::parallel_flop_threshold();
    set_parallel_flop_threshold(0);
    for &[m, n, k] in shapes {
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let stored =
                |t: bool, rows: usize, cols: usize| if t { (cols, rows) } else { (rows, cols) };
            let ((ar, ac), (br, bc)) = (stored(ta, m, k), stored(tb, k, n));
            let (la, lb, lo) = (
                layout(ta, inner, ar, ac),
                layout(!tb, inner, br, bc),
                layout(ta != tb, inner, m, n),
            );
            let a = rng.uniform_matrix(1, buffer_len(la, outer) + tail, 10.0);
            let b = rng.uniform_matrix(1, buffer_len(lb, outer) + tail, 10.0);
            // The oracle's result, block by block, in a NaN-filled buffer.
            let mut want = vec![f32::NAN; buffer_len(lo, outer) + tail];
            for o in 0..outer {
                for i in 0..inner {
                    let logical = |data: &Matrix, l, t: bool, rows, cols| {
                        let blk = stored_block(data.as_slice(), l, o, i, rows, cols);
                        if t {
                            blk.transpose()
                        } else {
                            blk
                        }
                    };
                    let prod =
                        oracle_matmul(&logical(&a, la, ta, ar, ac), &logical(&b, lb, tb, br, bc));
                    for r in 0..m {
                        want[row_at(lo, o, i, r)..][..n].copy_from_slice(prod.row(r));
                    }
                }
            }
            let shape = BatchShape {
                outer,
                inner,
                m,
                n,
                k,
            };
            for arch in available_arches() {
                set_kernel_arch(arch);
                for threads in [1usize, 2, 4] {
                    set_kernel_threads(threads);
                    let mut got = vec![f32::NAN; want.len()];
                    gemm_strided_batched(
                        shape,
                        Blocks {
                            data: a.as_slice(),
                            layout: la,
                            transposed: ta,
                        },
                        Blocks {
                            data: b.as_slice(),
                            layout: lb,
                            transposed: tb,
                        },
                        &mut got,
                        lo,
                    );
                    let label = format!(
                        "batch {m}x{n}x{k} ta={ta} tb={tb} [{} @{threads}thr]",
                        arch.name()
                    );
                    for (e, (w, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "{label}: element {e} ({w} vs {g})"
                        );
                    }
                }
            }
        }
    }
    set_kernel_arch(detected_arch());
    set_kernel_threads(1);
    set_parallel_flop_threshold(old_threshold);
}

/// The strided batch against the FMA-chain oracle: for block shapes
/// straddling the skinny-row limit (16), the register tile (`MR` = 6,
/// `NR` = 16) and a `k` spanning several 256-deep chunks, with every
/// stride padded ([`test_layout`]).
#[test]
fn strided_batch_matches_fma_chain_oracle_on_every_arch() {
    let mut shapes: Vec<[usize; 3]> = Vec::new();
    for m in [1usize, 5, 6, 7, 16, 17] {
        for n in [1usize, 15, 16, 17] {
            for k in [1usize, 7, 17] {
                shapes.push([m, n, k]);
            }
        }
    }
    shapes.extend([[7, 17, 2 * 256 + 7], [17, 5, 0]]);
    check_strided_batches(0xBA7C, &shapes, test_layout, 0);
}

/// Blocks packed edge to edge: every operand's blocks stack with no gap
/// (`ld` is the block's width), and a sentinel tail follows the last.
/// A store that runs past a ragged tile's last column lands in the next
/// row, where a later tile can overwrite it, or — from the last row of
/// the last block — in the tail, where this test sees it; a dropped
/// reload between `k`-chunks breaks the `2 * 256 + 7` products.
#[test]
fn strided_batch_stores_nothing_outside_edge_to_edge_blocks() {
    let edge_to_edge = |_side_by_side: bool, inner: usize, rows: usize, cols: usize| BlockLayout {
        ld: cols,
        outer_stride: inner * rows * cols,
        inner_stride: rows * cols,
    };
    let mut shapes: Vec<[usize; 3]> = Vec::new();
    for m in [5usize, 17] {
        for n in [1usize, 5, 15, 17] {
            for k in [7usize, 2 * 256 + 7] {
                shapes.push([m, n, k]);
            }
        }
    }
    check_strided_batches(0xED6E, &shapes, edge_to_edge, 16);
}

/// Products take their output from the storage pool unfilled, so a
/// driver that left any element unwritten would hand back what the
/// buffer held before. A NaN-filled buffer of exactly the output's
/// length (at least 64 KiB, so it is pooled) is freed right before each
/// product, which must then carry the oracle's bits everywhere: on the
/// packed, skinny and swapped routes, for an empty sum and at ragged
/// tile edges with `k` spanning several chunks.
#[test]
fn products_overwrite_every_element_of_a_pooled_nan_buffer() {
    let mut rng = SeedStream::new(0x9A17);
    for k in [0usize, 7, 2 * 256 + 7] {
        // Packed (131 x 127), skinny (16 rows) and, for `t_matmul`, the
        // swapped route (2053 x 8).
        for (m, n) in [(131usize, 127usize), (16, 1031), (2053, 8)] {
            assert!(m * n * 4 >= 64 << 10, "{m}x{n} is too small to pool");
            let a = rng.uniform_matrix(m, k, 1.0);
            let at = a.transpose();
            let b = rng.uniform_matrix(k, n, 1.0);
            let bt = b.transpose();
            let reference = oracle_matmul(&a, &b);
            let nan_first = |product: &dyn Fn() -> Matrix| {
                drop(Matrix::full(m, n, f32::NAN));
                product()
            };
            let label = |name: &str| format!("{name} {m}x{n}x{k} over pooled NaN");
            check_all_paths(&label("matmul"), &reference, || nan_first(&|| a.matmul(&b))).unwrap();
            check_all_paths(&label("t_matmul"), &reference, || {
                nan_first(&|| at.t_matmul(&b))
            })
            .unwrap();
            check_all_paths(&label("matmul_t"), &reference, || {
                nan_first(&|| a.matmul_t(&bt))
            })
            .unwrap();
        }
    }
}

#[test]
#[should_panic(expected = "output group spans")]
fn strided_batch_refuses_output_groups_that_overlap() {
    // Two 2 x 2 groups whose output stride is shorter than a group.
    let l = BlockLayout {
        ld: 2,
        outer_stride: 4,
        inner_stride: 0,
    };
    let out_layout = BlockLayout {
        ld: 2,
        outer_stride: 3,
        inner_stride: 0,
    };
    let data = [1.0f32; 8];
    let mut out = [0.0f32; 8];
    let blocks = Blocks {
        data: &data,
        layout: l,
        transposed: false,
    };
    let shape = BatchShape {
        outer: 2,
        inner: 1,
        m: 2,
        n: 2,
        k: 2,
    };
    gemm_strided_batched(shape, blocks, blocks, &mut out, out_layout);
}

#[test]
#[should_panic(expected = "b blocks reach element")]
fn strided_batch_refuses_blocks_past_the_buffer() {
    let l = BlockLayout {
        ld: 2,
        outer_stride: 4,
        inner_stride: 0,
    };
    let (a, b) = ([1.0f32; 8], [1.0f32; 7]);
    let mut out = [0.0f32; 8];
    let shape = BatchShape {
        outer: 2,
        inner: 1,
        m: 2,
        n: 2,
        k: 2,
    };
    gemm_strided_batched(
        shape,
        Blocks {
            data: &a,
            layout: l,
            transposed: false,
        },
        Blocks {
            data: &b,
            layout: l,
            transposed: false,
        },
        &mut out,
        l,
    );
}

/// The element-wise contract: `exp`, GELU forward and fused GELU backward
/// are bit-identical to the spelled-out operation sequence on every arch
/// (and, trivially, at every thread count: they never touch the pool),
/// over the dense sweep and every special value — and they do not count
/// as kernel-path invocations.
#[test]
fn elementwise_kernels_match_lane_oracle_on_every_arch() {
    let xs = elementwise_inputs();
    let grads: Vec<f32> = (0..xs.len())
        .map(|i| (i % 13) as f32 * 0.25 - 1.5)
        .collect();
    let want_exp: Vec<f32> = xs.iter().map(|&x| oracle_exp(x)).collect();
    let want_gelu: Vec<f32> = xs.iter().map(|&x| oracle_gelu(x)).collect();
    let want_bwd: Vec<f32> = xs
        .iter()
        .zip(&grads)
        .map(|(&x, &g)| oracle_gelu_backward(x, g))
        .collect();
    let _guard = KNOB_LOCK.lock().unwrap();
    let counts_before = kernel_path_counts();
    for arch in available_arches() {
        set_kernel_arch(arch);
        for threads in [1usize, 2, 4] {
            set_kernel_threads(threads);
            let label = |k: &str| format!("{k} [{} @{threads}thr]", arch.name());
            let mut got = xs.clone();
            exp(&mut got);
            assert_lanes_equal(&label("exp"), &xs, &want_exp, &got);
            gelu(&xs, &mut got);
            assert_lanes_equal(&label("gelu"), &xs, &want_gelu, &got);
            gelu_backward(&xs, &grads, &mut got);
            assert_lanes_equal(&label("gelu_backward"), &xs, &want_bwd, &got);
            // Short and empty slices take only the remainder loop.
            for len in 0..9 {
                let mut short = xs[1000..1000 + len].to_vec();
                exp(&mut short);
                assert_lanes_equal(
                    &label("exp/short"),
                    &xs[1000..],
                    &want_exp[1000..1000 + len],
                    &short,
                );
            }
        }
    }
    set_kernel_arch(detected_arch());
    set_kernel_threads(1);
    assert_eq!(
        counts_before,
        kernel_path_counts(),
        "element-wise kernels must not bump the kernel-path counters"
    );
}

fn ulps_off(got: f32, want: f64) -> f64 {
    let w = want as f32;
    let ulp = (f32::from_bits(w.to_bits() + 1) as f64 - w as f64).abs();
    (got as f64 - want).abs() / ulp
}

/// Accuracy against `f64` references: within 4 ulp or `1e-6` absolute
/// everywhere on `[-20, 20]` (and over exp's whole finite range).
#[test]
fn elementwise_kernels_are_accurate_against_f64() {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let u = |x: f64| c * (x + 0.044715 * x * x * x);
    // The logistic form of the same function: `0.5 (1 + tanh u)` loses
    // everything to cancellation in the negative tail even in f64.
    let gelu_ref = |x: f64| x / (1.0 + (-2.0 * u(x)).exp());
    let dgelu_ref = |x: f64| {
        let t = u(x).tanh();
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
    };
    let close =
        |got: f32, want: f64| ulps_off(got, want) <= 4.0 || (got as f64 - want).abs() <= 1e-6;

    let xs: Vec<f32> = (0..=40 * 4096).map(|i| -20.0 + i as f32 / 4096.0).collect();
    let ones = vec![1.0f32; xs.len()];
    let mut got = xs.clone();
    exp(&mut got);
    for (&x, &y) in xs.iter().zip(&got) {
        assert!(close(y, (x as f64).exp()), "exp({x}) = {y}");
    }
    gelu(&xs, &mut got);
    for (&x, &y) in xs.iter().zip(&got) {
        assert!(close(y, gelu_ref(x as f64)), "gelu({x}) = {y}");
    }
    gelu_backward(&xs, &ones, &mut got);
    for (&x, &y) in xs.iter().zip(&got) {
        assert!(close(y, dgelu_ref(x as f64)), "gelu'({x}) = {y}");
    }
    // exp over its whole finite output range, subnormal results included
    // (where one ulp is the subnormal spacing).
    let wide: Vec<f32> = (0..=193 * 512).map(|i| -104.5 + i as f32 / 512.0).collect();
    let mut got = wide.clone();
    exp(&mut got);
    for (&x, &y) in wide.iter().zip(&got) {
        let want = (x as f64).exp();
        if want > f32::MAX as f64 {
            assert_eq!(y, f32::INFINITY, "exp({x}) must overflow to +inf");
        } else {
            assert!(ulps_off(y, want) <= 2.0, "exp({x}) = {y}, want {want}");
        }
    }
}

/// What `tanh` saturation and odd symmetry become once `0.5 (1 + tanh u)`
/// is computed as a logistic: `gelu(x)` is exactly `x` far right and
/// exactly `-0` far left, `gelu'` is exactly 1 and (to 3e-35) 0 there,
/// `gelu(x) - gelu(-x) = x`, and NaN in gives NaN out of all three.
#[test]
fn elementwise_kernels_saturate_and_propagate_nan() {
    let xs = [
        0.0f32,
        -0.0,
        6.0,
        -6.0,
        12.5,
        -12.5,
        1e20,
        -1e20,
        f32::MAX,
        f32::MIN,
    ];
    let mut y = [0.0f32; 10];
    gelu(&xs, &mut y);
    assert_eq!(y[0].to_bits(), 0.0f32.to_bits());
    assert_eq!(y[1].to_bits(), (-0.0f32).to_bits());
    for i in [4usize, 6, 8] {
        assert_eq!(y[i], xs[i], "gelu saturates to x");
        assert_eq!(
            y[i + 1].to_bits(),
            (-0.0f32).to_bits(),
            "gelu saturates to -0"
        );
    }
    let mut d = [0.0f32; 10];
    gelu_backward(&xs, &[1.0; 10], &mut d);
    assert_eq!(d[0], 0.5);
    for i in [4usize, 6, 8] {
        assert_eq!(d[i], 1.0);
        assert!(d[i + 1].abs() < 1e-30 && d[i + 1].is_finite());
    }
    for x in (1..200).map(|i| i as f32 * 0.05) {
        let mut pair = [0.0f32; 2];
        gelu(&[x, -x], &mut pair);
        assert!(
            (pair[0] - pair[1] - x).abs() <= 2.0 * f32::EPSILON * x,
            "symmetry at {x}"
        );
    }
    let mut e = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    exp(&mut e);
    assert!(e[0].is_nan());
    assert_eq!(&e[1..], &[f32::INFINITY, 0.0, 1.0, 1.0]);
    let mut out = [0.0f32; 1];
    gelu(&[f32::NAN], &mut out);
    assert!(out[0].is_nan());
    gelu_backward(&[f32::NAN], &[1.0], &mut out);
    assert!(out[0].is_nan());
    gelu_backward(&[f32::INFINITY], &[2.0], &mut out);
    assert_eq!(out[0], 2.0);
}

/// The headline determinism property as a plain test: one large-ish
/// matmul, bit-compared across every arch × 1/2/4 threads against the
/// FMA-chain oracle — plus a rounding-level sanity check against an
/// unfused `acc += a * b` loop (which is *not* bit-identical: fusing
/// changes rounding, not math).
#[test]
fn matmul_is_deterministic_across_arches_and_threads() {
    let mut rng = SeedStream::new(0xD17);
    let a = rng.uniform_matrix(73, 129, 1.0);
    let b = rng.uniform_matrix(129, 37, 1.0);
    let reference = oracle_matmul(&a, &b);
    let _guard = KNOB_LOCK.lock().unwrap();
    let old_threshold = opt_tensor::parallel_flop_threshold();
    set_parallel_flop_threshold(0);
    for arch in available_arches() {
        set_kernel_arch(arch);
        for threads in [1usize, 2, 4] {
            set_kernel_threads(threads);
            let got = a.matmul(&b);
            assert_eq!(reference.shape(), got.shape());
            for (x, y) in reference.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} @ {threads} threads diverged",
                    arch.name()
                );
            }
        }
    }
    set_kernel_arch(detected_arch());
    set_kernel_threads(1);
    set_parallel_flop_threshold(old_threshold);
    let mut unfused = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            for kk in 0..a.cols() {
                unfused[(i, j)] += a[(i, kk)] * b[(kk, j)];
            }
        }
    }
    let rel = opt_tensor::relative_error(&reference, &unfused);
    assert!(
        rel < 1e-5,
        "fused vs unfused drifted beyond rounding: {rel}"
    );
}
