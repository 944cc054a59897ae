//! `bench_matrix` — the workload-matrix runner behind the repo's perf
//! trajectory (not a paper figure; this is observability tooling).
//!
//! Sweeps one axis at a time with every other knob held at its base
//! point — kernels (seed-naive vs scalar/SIMD blocked vs parallel),
//! model size, pp×dp parallelism, compressor (none / PowerSGD / top-k /
//! ternary), transport (in-process vs real TCP processes), kernel-pool
//! width, and the sparse top-k fast path vs its densify baseline —
//! and emits one schema-versioned `BENCH_<dimension>.json` per axis
//! (see `opt_bench::matrix` and `reports/BENCHMARKS.md` for the schema).
//! Before measuring anything it *prices* the corresponding paper-scale
//! configurations through `opt-sim`, so every wall-clock number sits next
//! to the simulator's prediction of what the axis costs on the real
//! cluster. The parallelism axis additionally runs each configuration
//! once under `TraceMode::Spans` (a separate run — never the timed one)
//! and records the mean per-rank `bubble_frac` / `comm_overlap` from
//! `opt_trace::analyze` as row metrics.
//!
//! Knobs:
//!
//! * `--smoke` — CI-sized shapes and iteration counts (the committed
//!   baselines are smoke-mode, measured on the CI box; the regression
//!   gate compares smoke to smoke);
//! * `--out-dir <dir>` — where the JSON records go (default `.`, the
//!   repo root where the baselines are committed);
//! * `--dims <a,b,...>` — run a subset of axes (default: all);
//! * `--no-trajectory` — do not append this run to
//!   `BENCH_trajectory.json` (CI uses this: gate runs are throwaway);
//! * `OPT_WORKER_BIN` — path to the compiled `opt_worker` binary for the
//!   transport axis (default: next to this binary, built on demand via
//!   `cargo` if missing);
//! * `OPT_KERNEL_THREADS` — pool width used for the *parallel* kernel
//!   variant rows (default 4; the threads axis sweeps 1/2/4 regardless).
//!
//! Exits non-zero if a blocked kernel (on the detected arch) falls below
//! 0.9× the seed-naive reference (the historic `bench_kernels` floor),
//! or if the sparse top-k apply loses to its densify baseline at ≤1%
//! density — both independent of the committed-baseline gate enforced by
//! `bench_report --gate`.

use opt_bench::matrix::{
    build_profile, git_rev, machine, median, time_best_ns, BenchFile, Row, RunMeta, Trajectory,
    TRAJECTORY_FILE,
};
use opt_compress::{
    Compressed, Compressor, Identity, PowerSgd, TernaryQuantizer, TopK, FP16_BYTES,
};
use opt_net::{LocalTransport, ShardStore, ShardStoreServer, TrafficClass, Transport};
use opt_sim::{simulate, CkptCostModel, CompressionPlan, SimConfig, StoreTransport};
use opt_tensor::{
    naive, orthonormalize_columns, set_kernel_threads, set_parallel_flop_threshold, Matrix,
    Persist, SeedStream,
};
use opt_trace::RankSummary;
use optimus_cc::{ProcOptions, QualityConfig, TraceMode, Trainer, TrainerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-mode measurement budget.
struct Budget {
    mode: &'static str,
    /// Untimed warmup repetitions per point.
    warmup: u64,
    /// Timed repetitions per point (best-of taken).
    reps: u64,
    /// Training iterations per timed repetition.
    train_iters: u64,
    /// Gradient dimension for PowerSGD kernel shapes.
    grad_dim: usize,
    /// Square model-GEMM dimension.
    model_h: usize,
    /// Compressor-microbench gradient dimension.
    comp_dim: usize,
}

impl Budget {
    fn smoke() -> Self {
        Budget {
            mode: "smoke",
            warmup: 2,
            reps: 7,
            train_iters: 4,
            grad_dim: 512,
            model_h: 128,
            comp_dim: 256,
        }
    }

    fn full() -> Self {
        Budget {
            mode: "full",
            warmup: 2,
            reps: 9,
            train_iters: 8,
            grad_dim: 2048,
            model_h: 512,
            comp_dim: 1024,
        }
    }
}

/// Shared meta header for this run's files.
fn meta(b: &Budget, dimension: &str, kernel_threads: u64) -> RunMeta {
    RunMeta {
        dimension: dimension.to_string(),
        mode: b.mode.to_string(),
        profile: build_profile().to_string(),
        git_rev: git_rev(),
        machine: machine(),
        warmup: b.warmup,
        reps: b.reps,
        kernel_threads,
    }
}

fn assert_bits_equal(label: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "{label}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} differs ({x} vs {y}) — determinism contract broken"
        );
    }
}

/// Forces the single-threaded blocked path.
fn single_thread() {
    set_kernel_threads(1);
    set_parallel_flop_threshold(usize::MAX - 1);
}

/// Requests the parallel path at `t` threads. Threshold 1 (not 0) keeps
/// the planner's host-core and per-thread-work caps in force, so the
/// rows record the plan the trainer would actually run — on a 1-core box
/// the parallel variant collapses to the blocked plan instead of paying
/// for oversubscribed panel splits.
fn parallel_threads(t: usize) {
    set_parallel_flop_threshold(1);
    set_kernel_threads(t);
}

// ---------------------------------------------------------------------------
// Dimension: kernels
// ---------------------------------------------------------------------------

/// One kernel op: naive and optimized closures over shared inputs.
struct KernelOp {
    op: &'static str,
    shape: String,
    flops: f64,
    naive_run: Box<dyn FnMut() -> Matrix>,
    opt_run: Box<dyn FnMut() -> Matrix>,
}

fn kernel_ops(b: &Budget, rng: &mut SeedStream) -> Vec<KernelOp> {
    let mut ops: Vec<KernelOp> = Vec::new();
    for rank in [4usize, 8] {
        let d = b.grad_dim;
        let grad = Arc::new(rng.uniform_matrix(d, d, 1.0));
        let q = Arc::new(rng.normal_matrix(d, rank, 1.0));
        let gemm_flops = 2.0 * (d * d * rank) as f64;
        let ortho_flops = (2 * 2 * rank * (rank - 1).max(1) / 2 * 2 * d + 3 * rank * d) as f64;
        {
            let (g, q) = (Arc::clone(&grad), Arc::clone(&q));
            let (g2, q2) = (Arc::clone(&grad), Arc::clone(&q));
            ops.push(KernelOp {
                op: "powersgd_gemm_p",
                shape: format!("{d}x{d}*{d}x{rank}"),
                flops: gemm_flops,
                naive_run: Box::new(move || naive::matmul(&g, &q)),
                opt_run: Box::new(move || g2.matmul(&q2)),
            });
        }
        let p0 = Arc::new(grad.matmul(&q));
        {
            let (a, b_) = (Arc::clone(&p0), Arc::clone(&p0));
            ops.push(KernelOp {
                op: "powersgd_orthonormalize",
                shape: format!("{d}x{rank}"),
                flops: ortho_flops,
                naive_run: Box::new(move || {
                    let mut m = (*a).clone();
                    naive::orthonormalize_columns(&mut m);
                    m
                }),
                opt_run: Box::new(move || {
                    let mut m = (*b_).clone();
                    orthonormalize_columns(&mut m);
                    m
                }),
            });
        }
        {
            let mut p = (*p0).clone();
            orthonormalize_columns(&mut p);
            let p = Arc::new(p);
            let (g, p1) = (Arc::clone(&grad), Arc::clone(&p));
            let (g2, p2) = (Arc::clone(&grad), Arc::clone(&p));
            ops.push(KernelOp {
                op: "powersgd_gemm_q",
                shape: format!("({d}x{d})^T*{d}x{rank}"),
                flops: gemm_flops,
                naive_run: Box::new(move || naive::t_matmul(&g, &p1)),
                opt_run: Box::new(move || g2.t_matmul(&p2)),
            });
        }
        if rank == 8 {
            let (g, q1) = (Arc::clone(&grad), Arc::clone(&q));
            let (g2, q2) = (Arc::clone(&grad), Arc::clone(&q));
            ops.push(KernelOp {
                op: "powersgd_compress_pipeline",
                shape: format!("{d}x{d} rank-{rank}"),
                flops: 2.0 * gemm_flops + ortho_flops,
                naive_run: Box::new(move || {
                    let mut m = naive::matmul(&g, &q1);
                    naive::orthonormalize_columns(&mut m);
                    naive::t_matmul(&g, &m)
                }),
                opt_run: Box::new(move || {
                    let mut m = g2.matmul(&q2);
                    orthonormalize_columns(&mut m);
                    g2.t_matmul(&m)
                }),
            });
        }
    }
    let h = b.model_h;
    let a = Arc::new(rng.uniform_matrix(h, h, 1.0));
    let bm = Arc::new(rng.uniform_matrix(h, h, 1.0));
    let flops = 2.0 * (h * h * h) as f64;
    {
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&bm));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&bm));
        ops.push(KernelOp {
            op: "model_gemm_square",
            shape: format!("{h}x{h}*{h}x{h}"),
            flops,
            naive_run: Box::new(move || naive::matmul(&a1, &b1)),
            opt_run: Box::new(move || a2.matmul(&b2)),
        });
    }
    {
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&bm));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&bm));
        ops.push(KernelOp {
            op: "model_gemm_nt",
            shape: format!("{h}x{h}*({h}x{h})^T"),
            flops,
            naive_run: Box::new(move || naive::matmul_t(&a1, &b1)),
            opt_run: Box::new(move || a2.matmul_t(&b2)),
        });
    }
    ops
}

/// The kernels axis: every op × {naive, blocked_scalar, blocked,
/// parallel}. `blocked` and `parallel` run on the detected SIMD arch;
/// `blocked_scalar` pins the dispatcher to the portable tile, so the
/// file records the vectorization win on this machine. All dispatched
/// variants are probed bit-identical to each other first (the FMA-chain
/// contract); the unfused seed-naive baseline agrees only to rounding
/// and is checked by tolerance. Returns the file and whether the
/// 0.9×-naive floor was broken — judged on the detected-arch blocked
/// variant only, since the scalar tile is a portability fallback, not
/// the perf contract.
fn run_kernels(b: &Budget, par_threads: usize) -> (BenchFile, bool) {
    opt_bench::banner("dimension: kernels (seed-naive vs scalar/SIMD blocked vs parallel)");
    let detected = opt_tensor::detected_arch();
    let mut rng = SeedStream::new(0xBE7C);
    let mut rows = Vec::new();
    let mut floor_broken = false;
    for mut op in kernel_ops(b, &mut rng) {
        // Bit-identity probes: the scalar tile is the in-run reference;
        // the detected arch must match it bit-for-bit at 1 and
        // `par_threads` threads.
        single_thread();
        opt_tensor::set_kernel_arch(opt_tensor::KernelArch::Scalar);
        let reference = (op.opt_run)();
        opt_tensor::set_kernel_arch(detected);
        assert_bits_equal(op.op, &reference, &(op.opt_run)());
        parallel_threads(par_threads);
        assert_bits_equal(op.op, &reference, &(op.opt_run)());
        single_thread();
        let rel = opt_tensor::relative_error(&reference, &(op.naive_run)());
        assert!(
            rel < 1e-5,
            "{}: dispatched kernels drifted from seed-naive (rel err {rel:e})",
            op.op
        );

        let naive_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = (op.naive_run)();
        });
        opt_tensor::set_kernel_arch(opt_tensor::KernelArch::Scalar);
        let scalar_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = (op.opt_run)();
        });
        opt_tensor::set_kernel_arch(detected);
        let blocked_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = (op.opt_run)();
        });
        parallel_threads(par_threads);
        let parallel_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = (op.opt_run)();
        });
        single_thread();

        if blocked_ns > naive_ns / 0.9 {
            eprintln!(
                "KERNEL FLOOR: {} {} blocked is {:.2}x naive (< 0.90x)",
                op.op,
                op.shape,
                naive_ns / blocked_ns
            );
            floor_broken = true;
        }
        for (variant, ns) in [
            ("naive", naive_ns),
            ("blocked_scalar", scalar_ns),
            ("blocked", blocked_ns),
            ("parallel", parallel_ns),
        ] {
            rows.push(Row {
                label: format!("{}/{}/{variant}", op.op, op.shape),
                config: vec![
                    ("op".to_string(), op.op.to_string()),
                    ("shape".to_string(), op.shape.clone()),
                    ("variant".to_string(), variant.to_string()),
                ],
                best_ns: ns,
                metrics: vec![
                    ("gflops".to_string(), op.flops / ns),
                    ("speedup_vs_naive".to_string(), naive_ns / ns),
                    ("speedup_vs_scalar".to_string(), scalar_ns / ns),
                ],
            });
        }
    }
    print_dimension_table(&rows);
    (
        BenchFile {
            meta: meta(b, "kernels", 1),
            rows,
        },
        floor_broken,
    )
}

// ---------------------------------------------------------------------------
// Training-based axes
// ---------------------------------------------------------------------------

/// Times an in-process training config: best over `reps` blocks of
/// `train_iters` iterations, returning ns per iteration plus the
/// traffic-per-iteration metrics.
fn time_training(b: &Budget, cfg: TrainerConfig) -> (f64, Vec<(String, f64)>) {
    let mut t = Trainer::launch(cfg);
    let block_ns = time_best_ns(b.warmup, b.reps, || t.train_more(b.train_iters));
    let iters_run = (b.warmup + b.reps) * b.train_iters;
    let traffic = t.traffic();
    let per_iter = |class: TrafficClass| traffic.bytes(class) as f64 / iters_run as f64;
    let metrics = vec![
        (
            "interstage_bytes".to_string(),
            per_iter(TrafficClass::InterStage),
        ),
        ("dp_bytes".to_string(), per_iter(TrafficClass::DataParallel)),
    ];
    t.shutdown();
    (block_ns / b.train_iters as f64, metrics)
}

/// Base tiny-config for the training axes (no validation: pure
/// iteration timing).
fn tiny_cfg(quality: QualityConfig) -> TrainerConfig {
    let mut cfg = TrainerConfig::tiny_test(quality, u64::MAX);
    cfg.iters = 1; // train_more drives iterations; `iters` is unused
    cfg.validate_every = 0;
    cfg
}

/// The model-size axis: tiny and small trainable configs, priced against
/// their paper-scale analogs.
fn run_model(b: &Budget) -> BenchFile {
    opt_bench::banner("dimension: model (trainable sizes, priced at paper scale)");
    let points = [
        (
            "GPT-tiny",
            TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 1),
            SimConfig::paper_gpt_2_5b(),
        ),
        (
            "GPT-small",
            TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 1),
            SimConfig::paper_gpt_8_3b(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, mut cfg, paper) in points {
        cfg.validate_every = 0;
        cfg.iters = 1;
        let params = cfg.model.param_count() as f64;
        let (pp, dp) = (cfg.pp, cfg.dp);
        let (ns, mut metrics) = time_training(b, cfg);
        let priced = simulate(&paper.with_plan(CompressionPlan::cb_fe_sc()));
        metrics.push(("params".to_string(), params));
        metrics.push(("sim_paper_iter_s".to_string(), priced.iteration_time_s));
        rows.push(Row {
            label: name.to_string(),
            config: vec![
                ("model".to_string(), name.to_string()),
                ("pp".to_string(), pp.to_string()),
                ("dp".to_string(), dp.to_string()),
            ],
            best_ns: ns,
            metrics,
        });
    }
    print_dimension_table(&rows);
    BenchFile {
        meta: meta(b, "model", 1),
        rows,
    }
}

/// Trace-derived pipeline stats for a config: a *separate* spans-mode run
/// (never the timed one — tracing, however cheap, must not touch the
/// gated numbers), analyzed for the structural bubble fraction and the
/// wall-clock comm/compute overlap, averaged over ranks. The bubble
/// number is bit-deterministic across reruns; the overlap is a
/// measurement.
fn trace_stats(b: &Budget, cfg: TrainerConfig) -> Vec<(String, f64)> {
    let mut t = Trainer::launch_with_trace(cfg, TraceMode::Spans);
    t.train_more(b.train_iters);
    let trace = t.take_trace().expect("spans mode is enabled");
    t.shutdown();
    let report = opt_trace::analyze(&trace, 0);
    let mean = |f: fn(&RankSummary) -> f64| {
        report.ranks.iter().map(f).sum::<f64>() / report.ranks.len().max(1) as f64
    };
    vec![
        ("bubble_frac".to_string(), mean(|r| r.bubble_fraction)),
        ("comm_overlap".to_string(), mean(|r| r.overlap_ratio)),
    ]
}

/// The pp×dp axis on the tiny model, priced on GPT-2.5B at paper scale.
fn run_parallelism(b: &Budget) -> BenchFile {
    opt_bench::banner("dimension: parallelism (pp x dp on GPT-tiny)");
    let mut rows = Vec::new();
    for (pp, dp) in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2)] {
        let mut cfg = tiny_cfg(QualityConfig::cb_fe_sc());
        cfg.pp = pp;
        cfg.dp = dp;
        let priced = simulate(
            &SimConfig::paper_gpt_2_5b()
                .with_plan(CompressionPlan::cb_fe_sc())
                .with_tp_pp(8, pp.max(2))
                .with_dp(dp),
        );
        let (ns, mut metrics) = time_training(b, cfg.clone());
        metrics.push(("world".to_string(), (pp * dp) as f64));
        metrics.push(("sim_paper_iter_s".to_string(), priced.iteration_time_s));
        metrics.extend(trace_stats(b, cfg));
        rows.push(Row {
            label: format!("pp{pp}xdp{dp}"),
            config: vec![
                ("pp".to_string(), pp.to_string()),
                ("dp".to_string(), dp.to_string()),
            ],
            best_ns: ns,
            metrics,
        });
    }
    print_dimension_table(&rows);
    BenchFile {
        meta: meta(b, "parallelism", 1),
        rows,
    }
}

/// The compressor axis: round-trip microbenchmarks of every compressor,
/// plus end-to-end training under the compressors the trainer supports.
fn run_compressor(b: &Budget) -> BenchFile {
    opt_bench::banner("dimension: compressor (round trip + end-to-end)");
    let d = b.comp_dim;
    let mut rng = SeedStream::new(0xC0DE);
    let grad = rng.uniform_matrix(d, d, 1.0);
    let dense_bytes = (grad.len() * FP16_BYTES) as f64;
    let mut rows = Vec::new();
    let mut comps: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("identity", Box::new(Identity)),
        ("powersgd_r4", Box::new(PowerSgd::new(4, 42))),
        ("topk_d1pct", Box::new(TopK::new(0.01))),
        ("ternary", Box::new(TernaryQuantizer::new(42))),
    ];
    for (name, comp) in &mut comps {
        let wire = comp.compress(&grad).wire_bytes() as f64;
        let ns = time_best_ns(b.warmup, b.reps, || {
            let _ = comp.round_trip(&grad);
        });
        rows.push(Row {
            label: format!("roundtrip/{name}"),
            config: vec![
                ("compressor".to_string(), name.to_string()),
                ("shape".to_string(), format!("{d}x{d}")),
                ("stage".to_string(), "roundtrip".to_string()),
            ],
            best_ns: ns,
            metrics: vec![
                ("wire_bytes".to_string(), wire),
                ("compression_ratio".to_string(), dense_bytes / wire.max(1.0)),
            ],
        });
    }
    let trainings: [(&str, QualityConfig, Option<CompressionPlan>); 3] = [
        (
            "none",
            QualityConfig::baseline(),
            Some(CompressionPlan::baseline()),
        ),
        (
            "powersgd",
            QualityConfig::cb_fe_sc(),
            Some(CompressionPlan::cb_fe_sc()),
        ),
        ("topk", QualityConfig::cb_topk(0.1), None),
    ];
    for (name, quality, plan) in trainings {
        let (ns, mut metrics) = time_training(b, tiny_cfg(quality));
        if let Some(plan) = plan {
            let priced = simulate(&SimConfig::paper_gpt_2_5b().with_plan(plan));
            metrics.push(("sim_paper_iter_s".to_string(), priced.iteration_time_s));
        }
        rows.push(Row {
            label: format!("train/{name}"),
            config: vec![
                ("compressor".to_string(), name.to_string()),
                ("stage".to_string(), "train".to_string()),
            ],
            best_ns: ns,
            metrics,
        });
    }
    print_dimension_table(&rows);
    BenchFile {
        meta: meta(b, "compressor", 1),
        rows,
    }
}

/// Locates (or builds) the `opt_worker` binary for the transport axis.
fn worker_bin() -> PathBuf {
    if let Ok(p) = std::env::var("OPT_WORKER_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir").to_path_buf();
    let candidate = dir.join(format!("opt_worker{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        return candidate;
    }
    // Not built yet (e.g. `cargo run --bin bench_matrix` builds only this
    // binary): build it in the matching profile. The workspace is fully
    // vendored, so this never touches the network.
    let release = dir
        .file_name()
        .is_some_and(|n| n == std::ffi::OsStr::new("release"));
    eprintln!(
        "transport axis: building opt_worker ({})...",
        if release { "release" } else { "debug" }
    );
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.args(["build", "-p", "opt-bench", "--bin", "opt_worker"]);
    if release {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("running cargo build for opt_worker");
    assert!(status.success(), "building opt_worker failed");
    assert!(candidate.exists(), "opt_worker still missing after build");
    candidate
}

/// The transport axis: the same tiny training over the in-process
/// `LocalTransport` vs a world of real `opt-worker` OS processes over
/// loopback TCP, with the paper-scale store-transport price attached.
fn run_transport(b: &Budget) -> BenchFile {
    opt_bench::banner("dimension: transport (LocalTransport vs TCP process world)");
    let cost = CkptCostModel::paper_cluster();
    let paper = SimConfig::paper_gpt_2_5b();
    let world = paper.pp * paper.dp;
    let state = opt_sim::snapshot_bytes(&paper);
    let mut rows = Vec::new();

    let (local_ns, mut local_metrics) = time_training(b, tiny_cfg(QualityConfig::cb_fe_sc()));
    local_metrics.push((
        "sim_shard_restore_s".to_string(),
        cost.sharded_io_s_via(state, world, StoreTransport::Local),
    ));
    rows.push(Row {
        label: "local".to_string(),
        config: vec![("transport".to_string(), "local".to_string())],
        best_ns: local_ns,
        metrics: local_metrics,
    });

    let store: Arc<dyn ShardStore> = Arc::new(opt_net::MemShardStore::new());
    let server = ShardStoreServer::spawn(store, "127.0.0.1:0").expect("shard store server");
    let scratch = std::env::temp_dir().join(format!("bench-matrix-tcp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let mut proc_world = Trainer::launch_processes(
        tiny_cfg(QualityConfig::cb_fe_sc()),
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch.clone(),
        },
    )
    .expect("TCP process world");
    let tcp_ns = time_best_ns(b.warmup, b.reps, || {
        proc_world.train_more(b.train_iters).expect("tcp train");
    }) / b.train_iters as f64;
    proc_world.shutdown().expect("shutdown TCP world");
    let _ = std::fs::remove_dir_all(&scratch);
    rows.push(Row {
        label: "tcp".to_string(),
        config: vec![("transport".to_string(), "tcp".to_string())],
        best_ns: tcp_ns,
        metrics: vec![
            ("overhead_vs_local".to_string(), tcp_ns / local_ns.max(1.0)),
            (
                "sim_shard_restore_s".to_string(),
                cost.sharded_io_s_via(state, world, StoreTransport::Tcp),
            ),
        ],
    });

    // Typed vs byte hops over one LocalTransport lane: the microbench
    // guarding the zero-copy handoff. The byte row pays what a
    // byte-boundary backend pays at its socket — one Persist encode +
    // decode per hop; the typed row hands the value off as an `Arc` and
    // pays neither.
    const HOPS: usize = 128;
    let hop_timeout = std::time::Duration::from_secs(5);
    let hop = SeedStream::new(0x40B).uniform_matrix(64, 64, 1.0);
    let wire = hop.to_bytes().len() as f64;
    let byte_t = LocalTransport::new(2);
    let byte_ns = time_best_ns(b.warmup, b.reps, || {
        for _ in 0..HOPS {
            byte_t
                .send_value(0, 1, 11, hop.to_bytes())
                .expect("byte send");
            let bytes: Vec<u8> = byte_t.recv_value(0, 1, 11, hop_timeout).expect("byte recv");
            std::hint::black_box(Matrix::from_bytes(&bytes).expect("byte decode"));
        }
    }) / HOPS as f64;
    rows.push(Row {
        label: "local-byte-hop".to_string(),
        config: vec![
            ("transport".to_string(), "local".to_string()),
            ("path".to_string(), "byte".to_string()),
        ],
        best_ns: byte_ns,
        metrics: vec![("wire_bytes".to_string(), wire)],
    });
    let typed_t = LocalTransport::new(2);
    let typed_ns = time_best_ns(b.warmup, b.reps, || {
        for _ in 0..HOPS {
            typed_t
                .send_value(0, 1, 11, hop.clone())
                .expect("typed send");
            let m: Matrix = typed_t
                .recv_value(0, 1, 11, hop_timeout)
                .expect("typed recv");
            std::hint::black_box(m);
        }
    }) / HOPS as f64;
    rows.push(Row {
        label: "local-typed-hop".to_string(),
        config: vec![
            ("transport".to_string(), "local".to_string()),
            ("path".to_string(), "typed".to_string()),
        ],
        best_ns: typed_ns,
        metrics: vec![
            ("wire_bytes".to_string(), wire),
            ("speedup_vs_byte".to_string(), byte_ns / typed_ns.max(1.0)),
        ],
    });

    print_dimension_table(&rows);
    BenchFile {
        meta: meta(b, "transport", 1),
        rows,
    }
}

/// The kernel-thread axis: the §9.6 GEMM and the tiny training at pool
/// widths 1/2/4 (parallel scaling; flat on a 1-core box, recorded with
/// the machine fingerprint either way).
fn run_threads(b: &Budget) -> BenchFile {
    opt_bench::banner("dimension: threads (OPT_KERNEL_THREADS scaling)");
    let d = b.grad_dim;
    let mut rng = SeedStream::new(0x7EAD);
    let grad = rng.uniform_matrix(d, d, 1.0);
    let q = rng.normal_matrix(d, 8, 1.0);
    let flops = 2.0 * (d * d * 8) as f64;
    let mut rows = Vec::new();
    let mut gemm_t1 = 0.0f64;
    for t in [1usize, 2, 4] {
        parallel_threads(t);
        let ns = time_best_ns(b.warmup, b.reps, || {
            let _ = grad.matmul(&q);
        });
        if t == 1 {
            gemm_t1 = ns;
        }
        rows.push(Row {
            label: format!("gemm_p/t{t}"),
            config: vec![
                ("op".to_string(), "powersgd_gemm_p".to_string()),
                ("shape".to_string(), format!("{d}x{d}*{d}x8")),
                ("threads".to_string(), t.to_string()),
            ],
            best_ns: ns,
            metrics: vec![
                ("gflops".to_string(), flops / ns),
                ("scaling_vs_t1".to_string(), gemm_t1 / ns),
            ],
        });
    }
    single_thread();
    let mut train_t1 = 0.0f64;
    for t in [1usize, 2, 4] {
        set_kernel_threads(t);
        set_parallel_flop_threshold(1);
        let (ns, _) = time_training(b, tiny_cfg(QualityConfig::cb_fe_sc()));
        if t == 1 {
            train_t1 = ns;
        }
        rows.push(Row {
            label: format!("train_tiny/t{t}"),
            config: vec![
                ("op".to_string(), "train_tiny".to_string()),
                ("threads".to_string(), t.to_string()),
            ],
            best_ns: ns,
            metrics: vec![("scaling_vs_t1".to_string(), train_t1 / ns)],
        });
    }
    single_thread();
    print_dimension_table(&rows);
    BenchFile {
        meta: meta(b, "threads", 1),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Dimension: sparse
// ---------------------------------------------------------------------------

/// The sparse axis: top-k decode+apply through the CSR fast path vs the
/// densify-then-subtract baseline (each forced via the density knob),
/// plus SpMM on the same payload vs densify-then-GEMM, across payload
/// densities. Returns the file and whether the crossover floor was
/// broken: at ≤1% density the sparse apply must beat densify.
fn run_sparse(b: &Budget) -> (BenchFile, bool) {
    opt_bench::banner("dimension: sparse (top-k CSR fast path vs densify baseline)");
    let d = b.comp_dim;
    let nb = 64usize;
    let mut rng = SeedStream::new(0xC5A2);
    let grad = rng.uniform_matrix(d, d, 1.0);
    let bmat = rng.uniform_matrix(d, nb, 1.0);
    let orig = opt_tensor::sparse_density_max();
    let mut rows = Vec::new();
    let mut floor_broken = false;
    for density in [0.001f64, 0.01, 0.1, 0.5] {
        let payload = TopK::new(density).compress(&grad);
        let Compressed::Sparse {
            ref indices,
            ref values,
            ..
        } = payload
        else {
            unreachable!("TopK emits Sparse payloads");
        };
        let nnz = values.len() as f64;
        let wire = payload.wire_bytes() as f64;

        // Correctness probe: both apply paths are bit-identical.
        opt_tensor::set_sparse_density_max(1.0);
        let mut via_sparse = grad.clone();
        payload.apply_sub(&mut via_sparse);
        opt_tensor::set_sparse_density_max(0.0);
        let mut via_densify = grad.clone();
        payload.apply_sub(&mut via_densify);
        assert_bits_equal("topk_apply", &via_sparse, &via_densify);

        // Decode+apply timing. The target is reused across reps:
        // apply_sub keeps subtracting, which only shifts its values —
        // identical work per rep for both variants.
        let timed_apply = |knob: f32| {
            opt_tensor::set_sparse_density_max(knob);
            let mut target = grad.clone();
            time_best_ns(b.warmup, b.reps, || payload.apply_sub(&mut target))
        };
        let densify_ns = timed_apply(0.0);
        let sparse_ns = timed_apply(1.0);
        if density <= 0.01 && sparse_ns >= densify_ns {
            eprintln!(
                "SPARSE FLOOR: topk apply at density {density}: sparse {sparse_ns:.0} ns \
                 is not faster than densify {densify_ns:.0} ns"
            );
            floor_broken = true;
        }
        for (variant, ns) in [("sparse", sparse_ns), ("densify", densify_ns)] {
            rows.push(Row {
                label: format!("topk_apply/{d}x{d}/d{density}/{variant}"),
                config: vec![
                    ("op".to_string(), "topk_apply".to_string()),
                    ("shape".to_string(), format!("{d}x{d}")),
                    ("density".to_string(), density.to_string()),
                    ("variant".to_string(), variant.to_string()),
                ],
                best_ns: ns,
                metrics: vec![
                    ("nnz".to_string(), nnz),
                    ("wire_bytes".to_string(), wire),
                    ("speedup_vs_densify".to_string(), densify_ns / ns),
                ],
            });
        }

        // SpMM on the same payload: CSR × dense vs densify-then-GEMM.
        let sp = opt_tensor::SparseMatrix::from_flat_payload(d, d, indices, values);
        let spmm_flops = 2.0 * nnz * nb as f64;
        assert_bits_equal("spmm", &sp.spmm(&bmat), &sp.densify().matmul(&bmat));
        let spmm_sparse_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = sp.spmm(&bmat);
        });
        let spmm_densify_ns = time_best_ns(b.warmup, b.reps, || {
            let _ = sp.densify().matmul(&bmat);
        });
        for (variant, ns) in [("sparse", spmm_sparse_ns), ("densify", spmm_densify_ns)] {
            rows.push(Row {
                label: format!("spmm/{d}x{d}*{d}x{nb}/d{density}/{variant}"),
                config: vec![
                    ("op".to_string(), "spmm".to_string()),
                    ("shape".to_string(), format!("{d}x{d}*{d}x{nb}")),
                    ("density".to_string(), density.to_string()),
                    ("variant".to_string(), variant.to_string()),
                ],
                best_ns: ns,
                metrics: vec![
                    ("gflops".to_string(), spmm_flops / ns),
                    ("speedup_vs_densify".to_string(), spmm_densify_ns / ns),
                ],
            });
        }
    }
    opt_tensor::set_sparse_density_max(orig);
    print_dimension_table(&rows);
    (
        BenchFile {
            meta: meta(b, "sparse", 1),
            rows,
        },
        floor_broken,
    )
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Prints the measured rows of a dimension as an aligned table.
fn print_dimension_table(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.0} ns", r.best_ns),
                r.metrics
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.3}"))
                    .collect::<Vec<_>>()
                    .join("  "),
            ]
        })
        .collect();
    opt_bench::print_table(&["point", "best", "metrics"], &table);
}

/// Prices the paper-scale configurations the axes correspond to, before
/// any wall-clock is spent — the `opt-sim` step of the matrix.
fn print_pricing() {
    opt_bench::banner("pricing axis points at paper scale (opt-sim, before measuring)");
    let mut rows = Vec::new();
    for (model, cfg) in [
        ("GPT-2.5B", SimConfig::paper_gpt_2_5b()),
        ("GPT-8.3B", SimConfig::paper_gpt_8_3b()),
    ] {
        for (plan_name, plan) in [
            ("baseline", CompressionPlan::baseline()),
            ("cb_fe_sc", CompressionPlan::cb_fe_sc()),
        ] {
            let t = simulate(&cfg.clone().with_plan(plan)).iteration_time_s;
            rows.push(vec![
                model.to_string(),
                plan_name.to_string(),
                format!("{:.3}", t),
            ]);
        }
    }
    for (pp, dp) in [(2, 2), (4, 4), (4, 8)] {
        let t = simulate(
            &SimConfig::paper_gpt_2_5b()
                .with_plan(CompressionPlan::cb_fe_sc())
                .with_tp_pp(8, pp)
                .with_dp(dp),
        )
        .iteration_time_s;
        rows.push(vec![
            "GPT-2.5B".to_string(),
            format!("cb_fe_sc pp{pp} dp{dp}"),
            format!("{:.3}", t),
        ]);
    }
    opt_bench::print_table(&["model", "config", "sim iter (s)"], &rows);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let smoke = flag("--smoke");
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or_else(|| ".".to_string()));
    let no_trajectory = flag("--no-trajectory");
    let dims: Option<Vec<String>> =
        value("--dims").map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let selected = |d: &str| dims.as_ref().is_none_or(|ds| ds.iter().any(|x| x == d));

    let b = if smoke {
        Budget::smoke()
    } else {
        Budget::full()
    };
    let par_threads: usize = std::env::var("OPT_KERNEL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    opt_bench::banner(&format!(
        "benchmark matrix ({} mode, {} profile, rev {})",
        b.mode,
        build_profile(),
        git_rev()
    ));
    print_pricing();
    single_thread();

    let mut files = Vec::new();
    let mut floor_broken = false;
    if selected("kernels") {
        let (f, broken) = run_kernels(&b, par_threads);
        floor_broken |= broken;
        files.push(f);
    }
    if selected("model") {
        files.push(run_model(&b));
    }
    if selected("parallelism") {
        files.push(run_parallelism(&b));
    }
    if selected("compressor") {
        files.push(run_compressor(&b));
    }
    if selected("transport") {
        files.push(run_transport(&b));
    }
    if selected("threads") {
        files.push(run_threads(&b));
    }
    if selected("sparse") {
        let (f, broken) = run_sparse(&b);
        floor_broken |= broken;
        files.push(f);
    }

    std::fs::create_dir_all(&out_dir).expect("creating out dir");
    for f in &files {
        let path = out_dir.join(BenchFile::file_name(&f.meta.dimension));
        std::fs::write(&path, f.to_json()).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("wrote {}", path.display());
    }
    if !no_trajectory && !files.is_empty() {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let path = out_dir.join(TRAJECTORY_FILE);
        let mut trajectory = Trajectory::load(&path).expect("loading trajectory");
        trajectory
            .entries
            .push(opt_bench::matrix::trajectory_entry(&files, unix_time));
        std::fs::write(&path, trajectory.to_json())
            .unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!(
            "appended trajectory entry #{} to {}",
            trajectory.entries.len(),
            path.display()
        );
    }
    let scalars: Vec<f64> = files
        .iter()
        .flat_map(|f| f.rows.iter().map(|r| r.best_ns))
        .collect();
    println!(
        "matrix complete: {} dimensions, {} points, median best {:.0} ns",
        files.len(),
        scalars.len(),
        median(&scalars)
    );
    if floor_broken {
        eprintln!("perf floor broken: see the KERNEL FLOOR / SPARSE FLOOR lines above");
        std::process::exit(1);
    }
}

/// Quiet re-export check: the binary reuses the crate helpers rather than
/// duplicating them (`Path` is used in signatures above).
#[allow(dead_code)]
fn _assert_paths(p: &Path) -> &Path {
    p
}
