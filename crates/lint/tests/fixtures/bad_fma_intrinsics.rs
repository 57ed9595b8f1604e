//! lint-fixture: crates/nn/src/fastpath.rs
//! (fixture) Fused intrinsics outside the `fmadd` family: the subtracting
//! and negated forms round once just like `vfmadd`, so each breaks the
//! batched-vs-sequential bit-identity contract. `fma-determinism` must
//! flag them.

use std::arch::x86_64::{__m256d, __m512d};

#[target_feature(enable = "avx512f")]
pub fn residuals(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
    std::arch::x86_64::_mm512_fnmsub_pd(a, b, c)
}

#[target_feature(enable = "fma")]
pub fn error_terms(a: __m256d, b: __m256d, c: __m256d) -> (__m256d, __m256d) {
    let under = std::arch::x86_64::_mm256_fmsub_pd(a, b, c);
    let over = std::arch::x86_64::_mm256_fnmadd_pd(a, b, c);
    (under, over)
}
