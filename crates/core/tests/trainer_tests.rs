//! End-to-end tests of the 3D-parallel trainer with compression.

use opt_data::ZeroShotTask;
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}

#[test]
fn baseline_pipeline_training_learns() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::baseline(), 100);
    let mut t = Trainer::launch(cfg);
    let report = t.train();
    t.shutdown();
    let first = mean(&report.train_loss[..5]);
    let last = mean(&report.train_loss[90..]);
    assert!(
        last < first * 0.8,
        "pipeline training failed to learn: {first} -> {last}"
    );
    assert!(report.final_val_ppl().is_finite());
    assert!(report.traffic.total_bytes() > 0);
}

#[test]
fn fused_embedding_is_mathematically_identical() {
    // Paper §6: fusing the two all-reduces "does not induce any
    // mathematical changes". Same seeds, same data; loss trajectories
    // must agree to float-reduction tolerance.
    let run = |fused: bool| {
        let mut q = QualityConfig::baseline();
        q.fused_embedding = fused;
        let cfg = TrainerConfig::tiny_test(q, 12);
        let mut t = Trainer::launch(cfg);
        let report = t.train();
        t.shutdown();
        report.train_loss
    };
    let base = run(false);
    let fused = run(true);
    for (i, (a, b)) in base.iter().zip(&fused).enumerate() {
        assert!(
            (a - b).abs() < 5e-4 * (1.0 + a.abs()),
            "iteration {i}: baseline {a} vs fused {b} (traces: {base:?} vs {fused:?})"
        );
    }
}

#[test]
fn cb_with_lep_tracks_baseline_quality() {
    let run = |q: QualityConfig| {
        let cfg = TrainerConfig::tiny_test(q, 60);
        let mut t = Trainer::launch(cfg);
        let report = t.train();
        t.shutdown();
        report
    };
    let base = run(QualityConfig::baseline());
    let cb = run(QualityConfig::cb());
    let base_loss = base.final_val_loss();
    let cb_loss = cb.final_val_loss();
    // CB+LEP must stay close to baseline (paper Table 2: identical PPL).
    assert!(
        cb_loss < base_loss + 0.35,
        "CB degraded too much: baseline {base_loss}, CB {cb_loss}"
    );
    // And it must actually have compressed something.
    assert!(
        cb.traffic.bytes(opt_net::TrafficClass::InterStage)
            < base.traffic.bytes(opt_net::TrafficClass::InterStage),
        "CB did not reduce inter-stage traffic"
    );
}

#[test]
fn naive_cb_is_worse_than_lep_cb() {
    // Fig. 3 / Table 4: compressing every backward send without lazy
    // error propagation hurts quality more than epilogue-only + LEP.
    let run = |q: QualityConfig| {
        let cfg = TrainerConfig::tiny_test(q, 60);
        let mut t = Trainer::launch(cfg);
        let r = t.train();
        t.shutdown();
        r.final_val_loss()
    };
    let lep = run(QualityConfig::cb());
    let naive = run(QualityConfig::naive_cb(QualityConfig::SMALL_CB_RANK));
    assert!(
        naive > lep - 0.05,
        "naive CB ({naive}) should not beat LEP CB ({lep})"
    );
}

#[test]
fn sc_compresses_dp_traffic() {
    let run = |q: QualityConfig| {
        let cfg = TrainerConfig::tiny_test(q, 8);
        let mut t = Trainer::launch(cfg);
        let r = t.train();
        t.shutdown();
        r.traffic.bytes(opt_net::TrafficClass::DataParallel)
    };
    let dense = run(QualityConfig::baseline());
    let mut sc = QualityConfig::cb_fe_sc();
    sc.sc = Some(optimus_cc::ScQuality {
        fraction: 1.0,
        rank: 2,
    });
    let compressed = run(sc);
    assert!(
        compressed < dense / 2,
        "SC failed to reduce DP bytes: {compressed} vs {dense}"
    );
}

#[test]
fn predict_and_zero_shot_run() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::baseline(), 10);
    let seq = cfg.model.seq_len;
    let vocab = cfg.model.vocab;
    let mut t = Trainer::launch(cfg);
    t.train();
    let tokens: Vec<usize> = (0..2 * seq).map(|i| i % vocab).collect();
    let preds = t.predict(&tokens);
    assert_eq!(preds.len(), 2);
    assert!(preds.iter().all(|&p| p < vocab));
    let score = t.zero_shot(ZeroShotTask::Copy, 20, 1);
    assert_eq!(score.total, 20);
    t.shutdown();
}

#[test]
fn memory_report_shows_lep_buffers() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb(), 3);
    let mut t = Trainer::launch(cfg);
    t.train();
    let mem = t.memory_report();
    t.shutdown();
    assert!(mem.param_elems > 0);
    assert!(mem.lazy_error_elems > 0, "LEP buffers missing from report");
    assert!(mem.lep_overhead() > 0.0);
    assert!(mem.total() > mem.baseline_total());
}

#[test]
fn dp_ranks_stay_in_sync() {
    // After training, both dp ranks must hold identical weights; we can't
    // read weights directly, but identical weights + deterministic
    // validation means the training losses per iteration are finite and
    // the run doesn't diverge between ranks (a desync shows up as a
    // deadlock or wildly inconsistent loss).
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 20);
    let mut t = Trainer::launch(cfg);
    let report = t.train();
    t.shutdown();
    assert!(report.train_loss.iter().all(|l| l.is_finite()));
}

#[test]
#[should_panic(expected = "outside the vocabulary")]
fn predict_rejects_out_of_vocabulary_tokens() {
    // On dp >= 2 the bad id used to kill dp 0's stage-0 worker inside the
    // embedding lookup while the other workers kept the reply channel
    // open, so the call never returned.
    let mut cfg = TrainerConfig::tiny_test(QualityConfig::baseline(), 1);
    cfg.pp = 1;
    cfg.dp = 2;
    let (vocab, seq_len) = (cfg.model.vocab, cfg.model.seq_len);
    let mut t = Trainer::launch(cfg);
    t.predict(&vec![vocab; seq_len]);
}
