//! Adam optimizer (Kingma & Ba, 2015) over an [`Mlp`]'s parameters —
//! the optimizer stable-baselines PPO uses.

use crate::mlp::{Mlp, MlpGrad};
use serde::{Deserialize, Serialize};

/// Adam state: first/second-moment estimates per parameter, allocated
/// by the first [`step`](Adam::step) (a fresh optimiser's moments are all
/// zero, so building them then changes no value).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Standard coefficients (`β1 = 0.9, β2 = 0.999, ε = 1e-8`).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Change the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one Adam update of `grad` to `net`.
    pub fn step(&mut self, net: &mut Mlp, grad: &MlpGrad) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let grads = Mlp::grad_slices(grad);
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            self.v = grads.iter().map(|g| vec![0.0; g.len()]).collect();
        }
        let params = net.params_mut();
        assert_eq!(params.len(), grads.len(), "optimizer/net shape mismatch");
        assert_eq!(self.m.len(), grads.len(), "optimizer/net shape mismatch");
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for ((slice, g), (m, v)) in params
            .into_iter()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            // Equal lengths once per slice, then one zipped loop with no
            // bounds check per element, so it vectorises.
            assert!(
                slice.len() == g.len() && m.len() == g.len() && v.len() == g.len(),
                "optimizer/net shape mismatch"
            );
            for (((p, &g), m), v) in slice.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use libra_types::DetRng;

    #[test]
    fn adam_fits_regression_faster_than_plain_sgd() {
        let mut r = DetRng::new(11);
        let make = |r: &mut DetRng| Mlp::new(&[1, 16, 1], Activation::Tanh, r);
        let data: Vec<(f64, f64)> = (0..16)
            .map(|i| {
                let x = -1.0 + i as f64 / 8.0;
                (x, (3.0 * x).sin())
            })
            .collect();
        let loss = |net: &Mlp| {
            data.iter()
                .map(|&(x, y)| (net.forward(&[x])[0] - y).powi(2))
                .sum::<f64>()
                / data.len() as f64
        };
        let train = |net: &mut Mlp, adam: Option<&mut Adam>, iters: usize| {
            let mut adam = adam;
            for _ in 0..iters {
                let mut grad = net.zero_grad();
                for &(x, y) in &data {
                    let cache = net.forward_cached(&[x]);
                    let err = cache.output()[0] - y;
                    net.backward(&cache, &[2.0 * err / data.len() as f64], &mut grad);
                }
                match adam {
                    Some(ref mut a) => a.step(net, &grad),
                    None => net.sgd_step(&grad, 3e-3),
                }
            }
        };
        let mut net_sgd = make(&mut r);
        let mut net_adam = net_sgd.clone();
        let mut adam = Adam::new(3e-3);
        train(&mut net_sgd, None, 1500);
        train(&mut net_adam, Some(&mut adam), 1500);
        let (ls, la) = (loss(&net_sgd), loss(&net_adam));
        assert!(la < ls, "adam {la} should beat sgd {ls}");
        assert!(la < 0.05, "adam loss {la}");
        assert_eq!(adam.steps(), 1500);
    }

    #[test]
    fn lr_setter() {
        let mut a = Adam::new(1e-3);
        assert_eq!(a.lr(), 1e-3);
        a.set_lr(5e-4);
        assert_eq!(a.lr(), 5e-4);
    }
}
