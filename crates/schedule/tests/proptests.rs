//! Property-based tests on schedule invariants.

use opt_schedule::{epilogue_sends, is_epilogue_send, one_f_one_b, Op};
use proptest::prelude::*;

proptest! {
    #[test]
    fn one_f_one_b_always_validates(s in 1usize..12, m in 1usize..32) {
        one_f_one_b(s, m).validate().unwrap();
    }

    #[test]
    fn one_f_one_b_op_count_is_2m_per_device(s in 1usize..10, m in 1usize..24) {
        let sched = one_f_one_b(s, m);
        for stage in 0..s {
            prop_assert_eq!(sched.device_ops(stage).len(), 2 * m);
        }
    }

    #[test]
    fn in_flight_bound_is_tight_on_stage_zero(s in 2usize..8, m in 8usize..24) {
        // Stage 0's warmup depth is exactly S (S-1 warmup + the 1F1B one).
        let sched = one_f_one_b(s, m);
        let mut in_flight = 0i64;
        let mut peak = 0i64;
        for op in sched.device_ops(0) {
            in_flight += if op.is_forward() { 1 } else { -1 };
            peak = peak.max(in_flight);
        }
        prop_assert_eq!(peak as usize, s.min(m));
    }

    #[test]
    fn epilogue_sends_are_within_range(s in 2usize..10, m in 1usize..32) {
        for (stage, micro) in epilogue_sends(s, m) {
            prop_assert!(stage >= 1 && stage < s);
            prop_assert!(micro < m);
            prop_assert!(is_epilogue_send(stage, micro, s, m));
        }
    }

    #[test]
    fn epilogue_is_suffix_closed(s in 2usize..8, m in 2usize..24, stage in 1usize..8) {
        // If micro i is on the epilogue, every later micro is too.
        prop_assume!(stage < s);
        let mut seen_epilogue = false;
        for micro in 0..m {
            let e = is_epilogue_send(stage, micro, s, m);
            if seen_epilogue {
                prop_assert!(e, "epilogue not suffix-closed at micro {micro}");
            }
            seen_epilogue |= e;
        }
    }

    #[test]
    fn backward_order_is_fifo(s in 1usize..8, m in 1usize..24) {
        // The opt-model FIFO-cache contract: backwards in micro order.
        let sched = one_f_one_b(s, m);
        for stage in 0..s {
            let bwd: Vec<usize> = sched
                .device_ops(stage)
                .iter()
                .filter(|o| !o.is_forward())
                .map(Op::micro)
                .collect();
            let sorted: Vec<usize> = (0..m).collect();
            prop_assert_eq!(bwd, sorted);
        }
    }
}
