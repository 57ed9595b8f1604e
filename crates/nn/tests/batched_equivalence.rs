//! Property tests: the batched forward pass (`Mlp::forward_batch`) and
//! the cache-free eval pass (`Mlp::forward_into`) are *bit-identical* —
//! not merely close — to the sequential `forward`/`forward_cached`
//! paths, across randomly drawn network shapes, weights and batches.
//!
//! Exact `f64` equality is the whole point: the policy server fans a
//! batch of per-flow state vectors through one matrix-matrix product per
//! layer, and the simulator's byte-for-byte report reproducibility only
//! survives if each flow receives exactly the action it would have
//! computed alone.
//!
//! Both paths run the same tile kernel, so each output is also checked
//! against a naive in-test fold that calls no `Matrix` method; the shapes
//! (up to 72 units per layer, up to 71 batch rows) reach the widest tile
//! the kernel has — 8 rows × 16 lanes under AVX-512 — plus both kinds of
//! tail: one-row tiles below a full row block, and 8-, 4- and 1-wide
//! lane tiles.

use libra_nn::{Activation, BatchScratch, Matrix, Mlp};
use libra_types::DetRng;
use proptest::prelude::*;

/// A random but structurally valid MLP shape: 1–3 hidden layers of 1–72
/// units over 1–33 inputs and 1–6 outputs.
fn arb_sizes() -> impl Strategy<Value = Vec<usize>> {
    (
        1usize..=33,
        prop::collection::vec(1usize..=72, 1..=3),
        1usize..=6,
    )
        .prop_map(|(i, hidden, o)| {
            let mut sizes = vec![i];
            sizes.extend(hidden);
            sizes.push(o);
            sizes
        })
}

fn build(sizes: &[usize], act: Activation, seed: u64) -> Mlp {
    let mut rng = DetRng::new(seed);
    Mlp::new(sizes, act, &mut rng)
}

/// Every parameter in `map_params` order: each layer's row-major `W`,
/// then its bias.
fn params_of(net: &Mlp) -> Vec<f64> {
    let mut params = Vec::new();
    net.clone().map_params(|p| {
        params.push(p);
        p
    });
    params
}

/// The forward pass with every dot product a plain ascending fold —
/// the accumulation contract written out without the kernel.
fn naive_forward(sizes: &[usize], params: &[f64], act: Activation, input: &[f64]) -> Vec<f64> {
    let mut rest = params;
    let mut x = input.to_vec();
    for (i, pair) in sizes.windows(2).enumerate() {
        let (n_in, n_out) = (pair[0], pair[1]);
        let (w, tail) = rest.split_at(n_in * n_out);
        let (b, tail) = tail.split_at(n_out);
        rest = tail;
        x = w
            .chunks(n_in)
            .zip(b)
            .map(|(row, &b)| {
                let z = row.iter().zip(&x).fold(0.0, |acc, (w, x)| acc + w * x) + b;
                if i + 2 < sizes.len() {
                    act.apply_eval(z)
                } else {
                    z
                }
            })
            .collect();
    }
    x
}

fn arb_activation() -> impl Strategy<Value = Activation> {
    (0usize..2).prop_map(|i| {
        if i == 0 {
            Activation::Tanh
        } else {
            Activation::Relu
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_batch_rows_equal_forward_bitwise(
        sizes in arb_sizes(),
        act in arb_activation(),
        seed in 0u64..1_000_000,
        rows in 1usize..=71,
    ) {
        let net = build(&sizes, act, seed);
        let mut data_rng = DetRng::new(seed ^ 0xBA7C4);
        let batch = Matrix::from_fn(rows, sizes[0], |_, _| data_rng.uniform_range(-3.0, 3.0));
        let out = net.forward_batch(&batch);
        prop_assert_eq!((out.rows(), out.cols()), (rows, *sizes.last().unwrap()));
        let params = params_of(&net);
        for s in 0..rows {
            let row: Vec<f64> = (0..sizes[0]).map(|c| batch.get(s, c)).collect();
            let seq = net.forward(&row);
            let naive = naive_forward(&sizes, &params, act, &row);
            for (c, (v, n)) in seq.iter().zip(&naive).enumerate() {
                prop_assert_eq!(
                    out.get(s, c).to_bits(),
                    v.to_bits(),
                    "row {} col {} differs: batched {} vs sequential {}",
                    s, c, out.get(s, c), v
                );
                prop_assert_eq!(
                    v.to_bits(),
                    n.to_bits(),
                    "row {} col {} differs: kernel {} vs naive fold {}",
                    s, c, v, n
                );
            }
        }
    }

    /// Eval (`forward_into`, fast deterministic tanh) vs training
    /// (`forward_cached`, libm tanh): bit-identical for ReLU nets, and
    /// within the documented ~1e-12 train/serve skew budget for tanh
    /// nets (see `Activation::apply_eval`).
    #[test]
    fn forward_into_tracks_cached_forward(
        sizes in arb_sizes(),
        act in arb_activation(),
        seed in 0u64..1_000_000,
    ) {
        let net = build(&sizes, act, seed);
        let mut data_rng = DetRng::new(seed ^ 0x1D_EA7);
        let input: Vec<f64> = (0..sizes[0]).map(|_| data_rng.uniform_range(-3.0, 3.0)).collect();
        let cached = net.forward_cached(&input);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        net.forward_into(&input, &mut out, &mut scratch);
        prop_assert_eq!(out.len(), cached.output().len());
        for (a, b) in out.iter().zip(cached.output()) {
            match act {
                Activation::Relu => prop_assert_eq!(a.to_bits(), b.to_bits()),
                Activation::Tanh => prop_assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    "eval {} vs cached {}", a, b
                ),
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_does_not_change_results(
        sizes in arb_sizes(),
        seed in 0u64..1_000_000,
        rows in 1usize..=9,
    ) {
        let net = build(&sizes, Activation::Tanh, seed);
        let mut data_rng = DetRng::new(seed ^ 0x5C_A7C4);
        let b1 = Matrix::from_fn(rows, sizes[0], |_, _| data_rng.uniform_range(-2.0, 2.0));
        let b2 = Matrix::from_fn(rows + 3, sizes[0], |_, _| data_rng.uniform_range(-2.0, 2.0));
        let mut scratch = BatchScratch::new();
        let mut out = Matrix::zeros(0, 0);
        net.forward_batch_into(&b1, &mut out, &mut scratch);
        // Reuse dirtied scratch for a different batch size.
        net.forward_batch_into(&b2, &mut out, &mut scratch);
        let fresh = net.forward_batch(&b2);
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }
}
