//! Optimizers operating on [`ParamRef`] collections.

use crate::ParamRef;
use opt_tensor::{Matrix, Persist, PersistError, Reader, Writer};
use std::collections::HashMap;

/// An optimizer that consumes accumulated gradients and updates parameters.
///
/// State (momentum/Adam moments) is keyed by the order parameters are
/// presented, so callers must present the same parameter list every step —
/// which [`crate::Stage::params`]-ordered iteration guarantees.
pub trait Optimizer: Send {
    /// Applies one update step to every `(value, grad)` pair. Gradients
    /// are *not* zeroed; callers zero them afterwards.
    fn step(&mut self, params: &mut [ParamRef<'_>]);

    /// The learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for warmup/decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// SGD with optional momentum: `v = mu v + g; w -= lr v`.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, Matrix>,
}

impl Sgd {
    /// Creates plain SGD (`momentum = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// Creates SGD with momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamRef<'_>]) {
        for (slot, p) in params.iter_mut().enumerate() {
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(slot)
                    .or_insert_with(|| Matrix::zeros(p.grad.rows(), p.grad.cols()));
                // Fused `v = mu*v + g` (one pass instead of scale + add;
                // same per-element operations, so bit-identical). The zip
                // would silently truncate on a shape drift, hence the
                // assert.
                debug_assert_eq!(v.shape(), p.grad.shape(), "stale velocity shape");
                for (vi, &g) in v.as_mut_slice().iter_mut().zip(p.grad.as_slice()) {
                    *vi = *vi * self.momentum + g;
                }
                p.value.axpy(-self.lr, v);
            } else {
                p.value.axpy(-self.lr, p.grad);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction — the optimizer used for GPT
/// pretraining in the paper's Megatron-LM setup.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: HashMap<usize, Matrix>,
    v: HashMap<usize, Matrix>,
}

impl Adam {
    /// Creates Adam with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

/// Serializes a slot-keyed moment map in sorted slot order (HashMap
/// iteration order is unstable; the checkpoint codec must not be).
fn persist_moments(map: &HashMap<usize, Matrix>, w: &mut Writer) {
    let mut slots: Vec<_> = map.keys().copied().collect();
    slots.sort_unstable();
    w.usize(slots.len());
    for slot in slots {
        w.usize(slot);
        map[&slot].persist(w);
    }
}

/// Exact encoded length of [`persist_moments`]'s output.
fn moments_len(map: &HashMap<usize, Matrix>) -> usize {
    8 + map.values().map(|m| 8 + m.persist_len()).sum::<usize>()
}

fn restore_moments(r: &mut Reader<'_>) -> Result<HashMap<usize, Matrix>, PersistError> {
    let n = r.checked_len(8)?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let slot = r.usize()?;
        if map.insert(slot, Matrix::restore(r)?).is_some() {
            return Err(PersistError::Invalid {
                what: "duplicate optimizer moment slot",
            });
        }
    }
    Ok(map)
}

impl Persist for Adam {
    fn persist(&self, w: &mut Writer) {
        w.f32(self.lr);
        w.f32(self.beta1);
        w.f32(self.beta2);
        w.f32(self.eps);
        w.i32(self.t);
        persist_moments(&self.m, w);
        persist_moments(&self.v, w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let lr = r.f32()?;
        if !lr.is_finite() || lr <= 0.0 {
            return Err(PersistError::Invalid {
                what: "Adam learning rate must be positive",
            });
        }
        Ok(Self {
            lr,
            beta1: r.f32()?,
            beta2: r.f32()?,
            eps: r.f32()?,
            t: r.i32()?,
            m: restore_moments(r)?,
            v: restore_moments(r)?,
        })
    }

    fn persist_len(&self) -> usize {
        5 * 4 + moments_len(&self.m) + moments_len(&self.v)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [ParamRef<'_>]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (slot, p) in params.iter_mut().enumerate() {
            let m = self
                .m
                .entry(slot)
                .or_insert_with(|| Matrix::zeros(p.grad.rows(), p.grad.cols()));
            let v = self
                .v
                .entry(slot)
                .or_insert_with(|| Matrix::zeros(p.grad.rows(), p.grad.cols()));
            // One fused zipped pass (no per-element bounds checks); the
            // per-element arithmetic is unchanged, so updates stay
            // bit-identical to the seed implementation. The zips would
            // silently truncate on a shape drift, hence the asserts.
            debug_assert_eq!(m.shape(), p.grad.shape(), "stale Adam m shape");
            debug_assert_eq!(v.shape(), p.grad.shape(), "stale Adam v shape");
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let grads = p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice());
            for ((w, &g), (mi, vi)) in grads.zip(moments) {
                let m_new = self.beta1 * *mi + (1.0 - self.beta1) * g;
                let v_new = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                *mi = m_new;
                *vi = v_new;
                let mhat = m_new / bc1;
                let vhat = v_new / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        // Minimize f(w) = 0.5 * ||w||^2 starting from w = 3: grad = w.
        let mut w = Matrix::full(1, 1, 3.0);
        let mut g = Matrix::zeros(1, 1);
        for _ in 0..steps {
            g[(0, 0)] = w[(0, 0)];
            let mut params = vec![ParamRef {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }];
            opt.step(&mut params);
        }
        w[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let final_w = quadratic_step(&mut Sgd::new(0.1), 100);
        assert!(final_w.abs() < 1e-3, "w = {final_w}");
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let final_w = quadratic_step(&mut Sgd::with_momentum(0.05, 0.9), 200);
        assert!(final_w.abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let final_w = quadratic_step(&mut Adam::new(0.1), 300);
        assert!(final_w.abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn sgd_single_step_is_lr_times_grad() {
        let mut opt = Sgd::new(0.5);
        let mut w = Matrix::full(1, 2, 1.0);
        let mut g = Matrix::from_rows(&[&[2.0, -4.0]]);
        let mut params = vec![ParamRef {
            name: "w",
            value: &mut w,
            grad: &mut g,
        }];
        opt.step(&mut params);
        assert_eq!(w.as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first Adam step is ~lr * sign(g).
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::full(1, 1, 0.0);
        let mut g = Matrix::full(1, 1, 123.0);
        let mut params = vec![ParamRef {
            name: "w",
            value: &mut w,
            grad: &mut g,
        }];
        opt.step(&mut params);
        assert!((w[(0, 0)] + 0.1).abs() < 1e-4, "w = {}", w[(0, 0)]);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        // Step an optimizer, persist it, and check the restored copy takes
        // identical future steps (moments + bias-correction counter).
        let mut opt = Adam::new(0.05);
        let mut w = Matrix::full(2, 2, 1.0);
        let mut g = Matrix::full(2, 2, 0.3);
        for _ in 0..3 {
            let mut params = vec![ParamRef {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }];
            opt.step(&mut params);
        }
        assert_eq!(opt.persist_len(), opt.to_bytes().len());
        let mut restored = Adam::from_bytes(&opt.to_bytes()).expect("roundtrip");
        let mut w2 = w.clone();
        let mut g2 = g.clone();
        for _ in 0..3 {
            let mut pa = vec![ParamRef {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }];
            opt.step(&mut pa);
            let mut pb = vec![ParamRef {
                name: "w",
                value: &mut w2,
                grad: &mut g2,
            }];
            restored.step(&mut pb);
        }
        assert_eq!(w, w2, "restored Adam diverged from original");
    }

    #[test]
    fn adam_restore_rejects_bad_lr() {
        let mut bytes = Adam::new(0.1).to_bytes();
        bytes[..4].copy_from_slice(&0.0f32.to_bits().to_le_bytes());
        assert!(Adam::from_bytes(&bytes).is_err());
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn non_positive_lr_panics() {
        let _ = Sgd::new(0.0);
    }
}
