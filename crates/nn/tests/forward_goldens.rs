//! Golden digests of the dense forward products.
//!
//! The batched ≡ per-flow identity suites compare two paths that run the
//! same kernel, so on their own they cannot notice the kernel's
//! arithmetic changing underneath both. These digests can: they were
//! recorded against the original scalar `matvec` and the AVX/2×4
//! blocked `matmat_t`, and any kernel that keeps the contract — every
//! output element starts at `0.0` and adds `w[r][c] * x[c]` in ascending
//! `c`, separate multiply and add — reproduces them bit for bit.
//!
//! Each digest is FNV-1a over the little-endian `to_bits` of every
//! output, in order.

use libra_nn::{Activation, Matrix, Mlp};
use libra_types::DetRng;

/// The paper's actor geometry: Libra-RL's 24-feature state, 2×512 tanh.
const PAPER: [usize; 4] = [24, 512, 512, 1];
/// Aurora's 2×64 actor over the same 24-feature width.
const AURORA: [usize; 4] = [24, 64, 64, 1];

/// `(batch size, digest of forward_batch over that batch)` at `PAPER`.
/// The sizes straddle every tile edge: below, at and above multiples of
/// 4, 8 and 16 lanes, plus `rl_fleet`'s mean batch (41) and two batches
/// (128, 256) beyond its largest (78), where a hidden product split into
/// row chunks has work for every thread.
const BATCH_GOLDENS: [(usize, u64); 17] = [
    (1, 0xc06e_f13b_3162_86de),
    (2, 0xbcc6_c002_336c_9cc1),
    (3, 0x622c_9aac_548c_4f13),
    (4, 0xa81a_0fa8_4f96_c964),
    (5, 0x7028_522b_cd60_c54b),
    (7, 0xcdac_dd18_1c88_bb86),
    (8, 0x8101_2c1b_e37a_98c4),
    (9, 0xfabd_1256_261f_a916),
    (15, 0x3287_b430_952e_67be),
    (16, 0xf969_f379_7f07_ddaf),
    (17, 0xffe6_8ad2_0a48_7328),
    (33, 0xd55d_d295_9c09_1081),
    (41, 0xbaac_6c92_bcf6_5f8c),
    (64, 0x2a5e_37b6_48bf_8999),
    (71, 0xfc82_2d7b_a31a_b92a),
    (128, 0xb668_9931_f22a_46ea),
    (256, 0x25d8_e23e_6af3_a31c),
];

/// Digest of `forward_into` over `INPUTS` inputs, per geometry.
const PAPER_INTO_GOLDEN: u64 = 0xc617_8b9f_4901_f33b;
const AURORA_INTO_GOLDEN: u64 = 0x0fe8_2512_8627_2a45;
const INPUTS: usize = 5;

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn actor(sizes: &[usize]) -> Mlp {
    Mlp::new(sizes, Activation::Tanh, &mut DetRng::new(2021))
}

/// States in the range the normalized features actually span.
fn states(rows: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = DetRng::new(seed);
    Matrix::from_fn(rows, dim, |_, _| rng.uniform_range(-3.0, 3.0))
}

#[test]
fn forward_batch_matches_recorded_digests() {
    let net = actor(&PAPER);
    let got: Vec<(usize, u64)> = BATCH_GOLDENS
        .iter()
        .map(|&(batch, _)| {
            let out = net.forward_batch(&states(batch, PAPER[0], 0xB47C + batch as u64));
            assert_eq!((out.rows(), out.cols()), (batch, 1));
            (batch, fnv1a(out.as_slice()))
        })
        .collect();
    assert_eq!(got, BATCH_GOLDENS, "forward_batch digests moved (got left)");
}

#[test]
fn forward_into_matches_recorded_digests() {
    for (sizes, golden) in [(PAPER, PAPER_INTO_GOLDEN), (AURORA, AURORA_INTO_GOLDEN)] {
        let net = actor(&sizes);
        let inputs = states(INPUTS, sizes[0], 0x1A70);
        let (mut out, mut scratch, mut all) = (Vec::new(), Vec::new(), Vec::new());
        for row in inputs.as_slice().chunks(sizes[0]) {
            net.forward_into(row, &mut out, &mut scratch);
            all.extend_from_slice(&out);
        }
        assert_eq!(
            fnv1a(&all),
            golden,
            "forward_into digest moved at {sizes:?}"
        );
    }
}
