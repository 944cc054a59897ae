//! Property-based tests on simulator invariants and its link model.

use opt_model::GptConfig;
use opt_schedule::{CbQuality, QualityConfig, ScQuality};
use opt_sim::{
    all_reduce_time_s, embedding_fusion_speedup, p2p_time_s, ring_all_reduce_wire_bytes, simulate,
    SimConfig,
};
use proptest::prelude::*;

fn job(pp: usize, n_micro: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(GptConfig::gpt_9_2b()); // 80 layers
    cfg.pp = pp;
    cfg.n_micro = n_micro;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compression_never_slows_beyond_epsilon(pp in 1usize..9, n_micro in 1usize..24) {
        // CB and FE are pure wins in the simulator (kernel time << saved
        // transfer time at paper bandwidths).
        let cfg = job(pp, n_micro);
        let base = simulate(&cfg).iteration_time_s;
        let cb = simulate(&cfg.clone().with_plan(QualityConfig::cb().at_paper_ranks())).iteration_time_s;
        let fe = simulate(&cfg.clone().with_plan(QualityConfig::cb_fe().at_paper_ranks())).iteration_time_s;
        prop_assert!(cb <= base * 1.0001, "CB slower: {cb} vs {base}");
        prop_assert!(fe <= cb * 1.0001, "FE slower: {fe} vs {cb}");
    }

    #[test]
    fn iteration_time_monotone_in_micro_batches(pp in 1usize..6, m in 1usize..16) {
        let t1 = simulate(&job(pp, m)).iteration_time_s;
        let t2 = simulate(&job(pp, m + 1)).iteration_time_s;
        prop_assert!(t2 > t1, "more micro-batches must take longer");
    }

    #[test]
    fn backward_done_is_decreasing_in_stage(pp in 2usize..9, m in 2usize..20) {
        let r = simulate(&job(pp, m));
        for w in r.backward_done_s.windows(2) {
            prop_assert!(w[0] >= w[1], "stage finish order violated: {:?}", r.backward_done_s);
        }
    }

    #[test]
    fn interstage_bytes_scale_with_boundaries(pp in 2usize..9, m in 1usize..16) {
        // Baseline: (pp-1) boundaries x m micros x 2 directions x volume.
        let cfg = job(pp, m);
        let r = simulate(&cfg);
        let expect = (pp - 1) as f64 * m as f64 * 2.0 * cfg.act_volume_bytes();
        prop_assert!((r.interstage_bytes - expect).abs() < 1.0);
    }

    #[test]
    fn naive_cb_never_sends_more_than_epilogue_cb(pp in 2usize..9, m in 2usize..16, rank in 1usize..64) {
        let cfg = job(pp, m);
        let epi = simulate(&cfg.clone().with_plan(QualityConfig {
            cb: Some(CbQuality::paper(rank)),
            ..QualityConfig::baseline()
        }));
        let all = simulate(&cfg.clone().with_plan(QualityConfig::naive_cb(rank)));
        prop_assert!(all.interstage_bytes <= epi.interstage_bytes + 1.0);
    }

    #[test]
    fn sc_bytes_monotone_in_fraction(frac_pct in 0usize..5) {
        let cfg = job(4, 16);
        let f = |pct: usize| {
            let fraction = pct as f64 * 0.25;
            let plan = QualityConfig {
                sc: (fraction > 0.0)
                    .then_some(ScQuality { fraction, rank: QualityConfig::PAPER_DP_RANK }),
                ..QualityConfig::baseline()
            };
            simulate(&cfg.clone().with_plan(plan)).dp_bytes
        };
        if frac_pct < 4 {
            prop_assert!(f(frac_pct + 1) <= f(frac_pct) + 1.0);
        }
    }

    #[test]
    fn trace_events_never_overlap_per_device(pp in 1usize..6, m in 1usize..12) {
        let r = simulate(&job(pp, m));
        for s in 0..pp {
            let mut evs: Vec<_> = r
                .trace
                .iter()
                .filter(|e| {
                    e.stage == s
                        && matches!(
                            e.kind,
                            opt_sim::TraceKind::Forward | opt_sim::TraceKind::Backward
                        )
                })
                .collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in evs.windows(2) {
                prop_assert!(w[1].start >= w[0].end - 1e-12);
            }
        }
    }
}

// The link model the engine times every transfer with.
proptest! {
    #[test]
    fn ring_wire_bytes_bounded_by_2v(volume in 0.0f64..1e12, ranks in 1usize..1024) {
        let wire = ring_all_reduce_wire_bytes(volume, ranks);
        prop_assert!(wire >= 0.0);
        prop_assert!(wire <= 2.0 * volume + 1e-9);
        if ranks == 1 {
            prop_assert_eq!(wire, 0.0);
        }
    }

    #[test]
    fn all_reduce_time_monotone_in_ranks(volume in 1.0f64..1e9, ranks in 2usize..128) {
        let t1 = all_reduce_time_s(volume, ranks, 10e9, 5e-6);
        let t2 = all_reduce_time_s(volume, ranks + 1, 10e9, 5e-6);
        prop_assert!(t2 >= t1, "more ranks cannot be faster for fixed volume");
    }

    #[test]
    fn p2p_time_linear_in_volume(v in 1.0f64..1e9, bw in 1e9f64..1e12) {
        let t1 = p2p_time_s(v, bw, 0.0);
        let t2 = p2p_time_s(2.0 * v, bw, 0.0);
        prop_assert!((t2 - 2.0 * t1).abs() < 1e-12 * t2.max(1.0));
    }

    #[test]
    fn fusion_speedup_matches_closed_form(d in 2usize..256) {
        let expect = (d as f64 - 1.0) / (2.0 * d as f64 - 1.0);
        prop_assert!((embedding_fusion_speedup(d) - expect).abs() < 1e-9);
    }
}
