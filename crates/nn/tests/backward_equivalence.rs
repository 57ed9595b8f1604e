//! The batched training pass is the per-sample one, bit for bit:
//! `Mlp::forward_cached_batch` gives each lane exactly that sample's
//! `forward_cached` output, and `Mlp::backward_batch` writes exactly what
//! `MlpGrad::clear` followed by `Mlp::backward` on each lane, in lane
//! order, accumulates.
//!
//! PPO's minibatch step runs these two instead of one `backward` per
//! sample, and the training pins (`update_is_pinned`,
//! `libra_training_is_pinned`, `aurora_training_is_pinned`) hold only if
//! no gradient element moves by a bit. The cases cover one lane (the
//! kernel's one-lane path), ragged lane counts, tanh and ReLU (whose dead
//! units give exactly-zero deltas), lanes whose whole output gradient is
//! `±0` (which `backward` skips and the kernel adds), a backward over a
//! subset of the forward's lanes, and the paper's 2×512 geometry, whose
//! hidden-layer products are split across the helper threads.

use libra_nn::{Activation, BatchCache, Matrix, Mlp, MlpGrad};
use libra_types::DetRng;
use std::fmt::Debug;

/// A network with Xavier weights and non-zero biases (a fresh `Mlp` has
/// zero biases, which would hide a bias bug).
fn net(sizes: &[usize], act: Activation, seed: u64) -> Mlp {
    let mut net = Mlp::new(sizes, act, &mut DetRng::new(seed));
    let mut k = 0.0_f64;
    net.map_params(|p| {
        k += 1.0;
        p + (k * 0.37).sin() * 0.1
    });
    net
}

/// `rows × lanes`, one column per sample, drawn uniform in `±scale`.
fn columns(rows: usize, lanes: usize, scale: f64, rng: &mut DetRng) -> Matrix {
    Matrix::from_fn(rows, lanes, |_, _| rng.uniform_range(-scale, scale))
}

fn column(m: &Matrix, s: usize) -> Vec<f64> {
    (0..m.rows()).map(|r| m.get(r, s)).collect()
}

/// Output gradients whose lanes 2, 7, 12, … are all `0.0` and whose
/// lanes 5, 12, 19, … not already zero are all `−0.0`.
fn output_grads(rows: usize, lanes: usize, rng: &mut DetRng) -> Matrix {
    let mut g = columns(rows, lanes, 1.0, rng);
    for s in 0..lanes {
        let zero = match (s % 5, s % 7) {
            (2, _) => 0.0,
            (_, 5) => -0.0,
            _ => continue,
        };
        (0..rows).for_each(|r| g.set(r, s, zero));
    }
    g
}

/// Equal `Debug` forms — every float printed round-trip exact, the sign
/// of zero included — or a panic naming the first difference.
fn assert_same<T: Debug>(got: &T, want: &T, what: &str) {
    let (got, want) = (format!("{got:?}"), format!("{want:?}"));
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        let around = |s: &str| s[at.saturating_sub(40)..(at + 40).min(s.len())].to_string();
        panic!(
            "{what}: first difference at byte {at}: …{}… vs …{}…",
            around(&got),
            around(&want)
        );
    }
}

/// A gradient with stale non-zero contents, so a `backward_batch` that
/// accumulated instead of writing would show.
fn stale_grad(net: &Mlp, rng: &mut DetRng) -> MlpGrad {
    let sizes = net.sizes();
    let input: Vec<f64> = (0..sizes[0])
        .map(|_| rng.uniform_range(-1.0, 1.0))
        .collect();
    let og = vec![0.5; *sizes.last().unwrap()];
    let mut grad = net.zero_grad();
    net.backward(&net.forward_cached(&input), &og, &mut grad);
    grad
}

/// The per-sample reference: `clear()`, then `backward` on each of
/// `lanes`, in order.
fn per_lane_grad(net: &Mlp, input: &Matrix, og: &Matrix, lanes: &[usize]) -> MlpGrad {
    let mut grad = net.zero_grad();
    grad.clear();
    for (j, &s) in lanes.iter().enumerate() {
        let cache = net.forward_cached(&column(input, s));
        net.backward(&cache, &column(og, j), &mut grad);
    }
    grad
}

/// Forward `lanes` samples through `forward_cached_batch`, check each
/// lane against `forward_cached`, then check `backward_batch` over every
/// lane and over a strict subset against the per-lane reference.
fn check(sizes: &[usize], act: Activation, lanes: usize, seed: u64) {
    let what = format!("{sizes:?} {act:?} at {lanes} lanes");
    let net = net(sizes, act, seed);
    let mut rng = DetRng::new(seed ^ 0x5eed);
    let input = columns(sizes[0], lanes, 2.0, &mut rng);
    let out_dim = *sizes.last().unwrap();
    let mut cache = BatchCache::new();
    net.forward_cached_batch(&input, &mut cache);
    assert_eq!(
        (cache.output().rows(), cache.output().cols()),
        (out_dim, lanes)
    );
    for s in 0..lanes {
        let want = net.forward_cached(&column(&input, s));
        assert_same(&column(cache.output(), s), &want.output().to_vec(), &what);
    }

    let all: Vec<usize> = (0..lanes).collect();
    let og = output_grads(out_dim, lanes, &mut rng);
    let mut got = stale_grad(&net, &mut rng);
    net.backward_batch(&mut cache, &og, &mut got);
    assert_same(&got, &per_lane_grad(&net, &input, &og, &all), &what);

    // Every third lane dropped, as PPO drops the samples that pass its
    // actor no gradient.
    let kept: Vec<usize> = all.iter().copied().filter(|s| s % 3 != 1).collect();
    net.forward_cached_batch(&input, &mut cache);
    cache.keep_lanes(&kept);
    let og = output_grads(out_dim, kept.len(), &mut rng);
    let mut got = stale_grad(&net, &mut rng);
    net.backward_batch(&mut cache, &og, &mut got);
    assert_same(
        &got,
        &per_lane_grad(&net, &input, &og, &kept),
        &format!("{what}, kept {kept:?}"),
    );
}

#[test]
fn two_by_sixty_four_is_per_sample_bit_for_bit() {
    for act in [Activation::Tanh, Activation::Relu] {
        for lanes in [1, 3, 17, 64] {
            check(&[24, 64, 64, 1], act, lanes, 3);
        }
    }
}

#[test]
fn ragged_multi_output_shapes_are_per_sample_bit_for_bit() {
    for act in [Activation::Tanh, Activation::Relu] {
        for lanes in [1, 3, 17, 64] {
            check(&[5, 9, 7, 3], act, lanes, 5);
            check(&[1, 13, 2], act, lanes, 7);
        }
    }
}

/// At 2×512 the hidden-layer products — the forward, the weight
/// gradient `Δ · Xᵀ` and `Wᵀ · Δ` — reach the split threshold from 8
/// lanes and run in row chunks on the helper threads.
#[test]
fn paper_geometry_above_the_split_threshold_is_per_sample_bit_for_bit() {
    for act in [Activation::Tanh, Activation::Relu] {
        for lanes in [1, 3, 17, 64] {
            check(&[24, 512, 512, 1], act, lanes, 11);
        }
    }
}

/// No lane kept: the gradient is written as zeros.
#[test]
fn an_empty_backward_writes_a_zero_gradient() {
    let net = net(&[4, 6, 2], Activation::Tanh, 13);
    let mut rng = DetRng::new(13);
    let mut cache = BatchCache::new();
    net.forward_cached_batch(&columns(4, 5, 1.0, &mut rng), &mut cache);
    cache.keep_lanes(&[]);
    let mut got = stale_grad(&net, &mut rng);
    net.backward_batch(&mut cache, &Matrix::zeros(2, 0), &mut got);
    let mut want = net.zero_grad();
    want.clear();
    assert_same(&got, &want, "no lanes");
}
