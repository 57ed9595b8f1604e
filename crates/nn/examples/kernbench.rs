//! Per-sample vs batched training pass of one PPO minibatch, timed per
//! layer of work: the forward that keeps activations for backprop, and
//! the backward that writes the parameter gradient.
//!
//!   cargo run --release -p libra-nn --example kernbench [reps]
//!
//! For each of the actor shapes PPO trains — 2×64 (the default) and
//! 2×512 (the paper's) — on a 64-sample minibatch, it prints the median
//! µs per minibatch of:
//!
//! * `forward_cached` on each sample vs one `forward_cached_batch`;
//! * `clear` + `backward` on each sample vs one `backward_batch`;
//!
//! and the samples/s of forward + backward on each side. Both sides
//! compute the same bits (`tests/backward_equivalence.rs`), so the
//! difference is the cost of running the tile kernel over one lane at a
//! time and of the per-sample loops, against whole-minibatch products.
//! Host wall-clock timings: they vary from run to run, so compare sides
//! within one run, not across runs.

use libra_nn::{Activation, BatchCache, ForwardCache, Matrix, Mlp};
use libra_types::DetRng;
use std::hint::black_box;

const LANES: usize = 64;

/// Median wall time of `f` over `reps` calls, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            // lint: allow(host_clock) — a benchmark timing, printed only
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map_or(200, |a| a.parse().expect("reps: a positive integer"));
    println!("shape            side        forward µs  backward µs   samples/s");
    for hidden in [64, 512] {
        let sizes = [24, hidden, hidden, 1];
        let mut rng = DetRng::new(1);
        let net = Mlp::new(&sizes, Activation::Tanh, &mut rng);
        let input = Matrix::from_fn(sizes[0], LANES, |_, _| rng.uniform_range(-1.0, 1.0));
        let og = Matrix::from_fn(1, LANES, |_, _| rng.uniform_range(-1.0, 1.0));
        let samples: Vec<Vec<f64>> = (0..LANES)
            .map(|s| (0..sizes[0]).map(|c| input.get(c, s)).collect())
            .collect();
        let mut grad = net.zero_grad();

        let mut caches: Vec<ForwardCache> = Vec::new();
        let fwd = median_us(reps, || {
            caches = samples
                .iter()
                .map(|x| net.forward_cached(black_box(x)))
                .collect();
        });
        let bwd = median_us(reps, || {
            grad.clear();
            for (s, cache) in caches.iter().enumerate() {
                net.backward(cache, &[og.get(0, s)], &mut grad);
            }
            black_box(&mut grad);
        });
        report(hidden, "per-sample", fwd, bwd);

        let mut cache = BatchCache::new();
        let fwd = median_us(reps, || {
            net.forward_cached_batch(black_box(&input), &mut cache)
        });
        let bwd = median_us(reps, || {
            net.backward_batch(&mut cache, &og, &mut grad);
            black_box(&mut grad);
        });
        report(hidden, "batched", fwd, bwd);
    }
}

fn report(hidden: usize, side: &str, fwd: f64, bwd: f64) {
    let shape = format!("2x{hidden} ({LANES} lanes)");
    let per_s = LANES as f64 / ((fwd + bwd) * 1e-6);
    println!("{shape:<16} {side:<10} {fwd:>11.1} {bwd:>12.1} {per_s:>11.0}");
}
