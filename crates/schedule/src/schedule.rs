//! Schedule construction: 1F1B.

use serde::{Deserialize, Serialize};

/// One compute operation in a device's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Forward pass of the given micro-batch.
    Forward {
        /// Micro-batch index within the iteration.
        micro: usize,
    },
    /// Backward pass of the given micro-batch.
    Backward {
        /// Micro-batch index within the iteration.
        micro: usize,
    },
}

impl Op {
    /// The micro-batch this op processes.
    pub fn micro(&self) -> usize {
        match *self {
            Op::Forward { micro } | Op::Backward { micro } => micro,
        }
    }

    /// Whether this is a forward op.
    pub fn is_forward(&self) -> bool {
        matches!(self, Op::Forward { .. })
    }
}

/// A complete per-device schedule for one training iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    n_stages: usize,
    n_micro: usize,
    per_device: Vec<Vec<Op>>,
}

impl PipelineSchedule {
    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Number of micro-batches per iteration.
    pub fn n_micro(&self) -> usize {
        self.n_micro
    }

    /// The ordered op list of device (stage) `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= n_stages`.
    pub fn device_ops(&self, stage: usize) -> &[Op] {
        &self.per_device[stage]
    }

    /// Iterates over `(stage, ops)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Op])> {
        self.per_device
            .iter()
            .enumerate()
            .map(|(s, ops)| (s, ops.as_slice()))
    }

    /// Validates structural invariants; used by property tests and
    /// asserted by the trainer on construction.
    ///
    /// Invariants: every device runs every micro-batch exactly once
    /// forward and once backward; per device, `B(m)` comes after `F(m)`;
    /// backwards are emitted in micro-batch order (the FIFO-cache
    /// contract of `opt-model`).
    pub fn validate(&self) -> Result<(), String> {
        for (s, ops) in self.iter() {
            let mut fwd_seen = vec![false; self.n_micro];
            let mut bwd_seen = vec![false; self.n_micro];
            let mut last_bwd: Option<usize> = None;
            for op in ops {
                match *op {
                    Op::Forward { micro } => {
                        if fwd_seen[micro] {
                            return Err(format!("stage {s}: duplicate F({micro})"));
                        }
                        fwd_seen[micro] = true;
                    }
                    Op::Backward { micro } => {
                        if !fwd_seen[micro] {
                            return Err(format!("stage {s}: B({micro}) before F({micro})"));
                        }
                        if bwd_seen[micro] {
                            return Err(format!("stage {s}: duplicate B({micro})"));
                        }
                        if let Some(prev) = last_bwd {
                            if micro != prev + 1 {
                                return Err(format!(
                                    "stage {s}: backward order broken ({prev} -> {micro})"
                                ));
                            }
                        } else if micro != 0 {
                            return Err(format!("stage {s}: first backward is B({micro})"));
                        }
                        last_bwd = Some(micro);
                        bwd_seen[micro] = true;
                    }
                }
            }
            if !fwd_seen.iter().all(|&b| b) || !bwd_seen.iter().all(|&b| b) {
                return Err(format!("stage {s}: missing ops"));
            }
        }
        Ok(())
    }
}

/// Builds the 1F1B schedule (PipeDream-flush, the paper's baseline Fig. 4a).
///
/// Stage `s` warms up with `min(S - s - 1, M)` forwards, then alternates
/// one-forward-one-backward through the steady state, then drains the
/// remaining backwards (the cooldown whose sends form the epilogue).
///
/// # Panics
///
/// Panics if `n_stages == 0` or `n_micro == 0`.
pub fn one_f_one_b(n_stages: usize, n_micro: usize) -> PipelineSchedule {
    assert!(
        n_stages > 0 && n_micro > 0,
        "stages and micro-batches must be positive"
    );
    let mut per_device = Vec::with_capacity(n_stages);
    for s in 0..n_stages {
        let warmup = (n_stages - s - 1).min(n_micro);
        let steady = n_micro - warmup;
        let mut ops = Vec::with_capacity(2 * n_micro);
        for m in 0..warmup {
            ops.push(Op::Forward { micro: m });
        }
        for i in 0..steady {
            ops.push(Op::Forward { micro: warmup + i });
            ops.push(Op::Backward { micro: i });
        }
        for m in steady..n_micro {
            ops.push(Op::Backward { micro: m });
        }
        per_device.push(ops);
    }
    let sched = PipelineSchedule {
        n_stages,
        n_micro,
        per_device,
    };
    debug_assert!(sched.validate().is_ok());
    sched
}

/// Ideal pipeline bubble fraction `(S - 1) / (M + S - 1)` for 1F1B with
/// equal forward/backward stage times.
pub fn bubble_fraction(n_stages: usize, n_micro: usize) -> f64 {
    (n_stages as f64 - 1.0) / (n_micro as f64 + n_stages as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_stage_alternates_from_start() {
        let s = one_f_one_b(4, 8);
        let ops = s.device_ops(3);
        assert_eq!(ops[0], Op::Forward { micro: 0 });
        assert_eq!(ops[1], Op::Backward { micro: 0 });
        assert_eq!(ops[2], Op::Forward { micro: 1 });
        assert_eq!(ops[3], Op::Backward { micro: 1 });
    }

    #[test]
    fn first_stage_warmup_depth_is_s_minus_1() {
        let s = one_f_one_b(4, 8);
        let ops = s.device_ops(0);
        assert_eq!(
            &ops[..3],
            &[
                Op::Forward { micro: 0 },
                Op::Forward { micro: 1 },
                Op::Forward { micro: 2 },
            ]
        );
        assert_eq!(ops[3], Op::Forward { micro: 3 });
        assert_eq!(ops[4], Op::Backward { micro: 0 });
    }

    #[test]
    fn one_f_one_b_validates_for_many_shapes() {
        for s in 1..=8 {
            for m in 1..=16 {
                let sched = one_f_one_b(s, m);
                sched
                    .validate()
                    .unwrap_or_else(|e| panic!("S={s} M={m}: {e}"));
            }
        }
    }

    #[test]
    fn fewer_micro_batches_than_stages() {
        // M < S: warmup clamps to M, no steady phase on early stages.
        let s = one_f_one_b(6, 2);
        s.validate().unwrap();
        assert_eq!(s.device_ops(0).len(), 4);
    }

    #[test]
    fn in_flight_microbatches_bounded_by_stage_depth() {
        // 1F1B's memory advantage: at most S - s in-flight activations on
        // stage s (vs M for GPipe).
        let s = one_f_one_b(4, 16);
        for (stage, ops) in s.iter() {
            let mut in_flight: isize = 0;
            let mut peak = 0;
            for op in ops {
                in_flight += if op.is_forward() { 1 } else { -1 };
                peak = peak.max(in_flight);
            }
            assert!(
                peak as usize <= s.n_stages() - stage,
                "stage {stage} peak in-flight {peak}"
            );
        }
    }

    #[test]
    fn bubble_fraction_matches_formula() {
        assert!((bubble_fraction(4, 8) - 3.0 / 11.0).abs() < 1e-12);
        assert!((bubble_fraction(1, 8) - 0.0).abs() < 1e-12);
        // More micro-batches shrink the bubble.
        assert!(bubble_fraction(4, 64) < bubble_fraction(4, 8));
    }

    #[test]
    fn validate_rejects_backward_before_forward() {
        let bad = PipelineSchedule {
            n_stages: 1,
            n_micro: 1,
            per_device: vec![vec![Op::Backward { micro: 0 }, Op::Forward { micro: 0 }]],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_order_backwards() {
        let bad = PipelineSchedule {
            n_stages: 1,
            n_micro: 2,
            per_device: vec![vec![
                Op::Forward { micro: 0 },
                Op::Forward { micro: 1 },
                Op::Backward { micro: 1 },
                Op::Backward { micro: 0 },
            ]],
        };
        assert!(bad.validate().is_err());
    }
}
