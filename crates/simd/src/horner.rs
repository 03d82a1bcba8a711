//! Piecewise-polynomial Horner evaluation for interpolation kernels.
//!
//! The FINUFFT-style fast-eval path replaces the kernel LUT with one fitted
//! polynomial per integer tap offset: a window's taps all share the same
//! fractional coordinate, so evaluating the window means evaluating every
//! piece at one common argument `z ∈ [-1, 1]`. That is a textbook
//! lane-parallel Horner sweep — tap `i` runs its own independent
//! multiply-add chain, and a 256-bit vector advances eight taps one
//! coefficient row per FMA.
//!
//! ## Coefficient layout
//!
//! `coeffs` is **coefficient-major**: row `r` (length `stride`, `stride ≥`
//! the tap count, tail zero-padded) holds every piece's coefficient of
//! `z^(rows−1−r)`, so the evaluation loop streams rows sequentially:
//!
//! ```text
//! acc_i = coeffs[i]                       // row 0: leading coefficients
//! for r in 1..rows: acc_i = fma(acc_i, z, coeffs[r·stride + i])
//! ```
//!
//! ## Bitwise identity across ISA levels
//!
//! Pieces never interact, so lane parallelism reassociates nothing; the one
//! remaining freedom is whether the multiply-add is fused. Every level
//! therefore uses **correctly rounded fused** semantics: the scalar
//! reference (serving [`IsaLevel::StrictScalar`], [`IsaLevel::Scalar`] and
//! [`IsaLevel::Sse2`] — SSE2 has no FMA instruction, and an unfused
//! `mulps`/`addps` sweep would round differently) goes through
//! [`f32::mul_add`], and the AVX2 path through `_mm256_fmadd_ps`; both are
//! correctly rounded, so every level produces identical bits. The same
//! contract the row-convolution kernels pin by property test, this module
//! pins by construction.

use crate::dispatch::{active_isa, IsaLevel};

/// Evaluates `out[i] = Σ_r coeffs[r·stride + i] · z^(rows−1−r)` for every
/// piece `i < out.len()`, Horner-style, dispatched to the active ISA level.
///
/// `rows` is the coefficient count per piece (degree + 1); `coeffs` must
/// hold `rows · stride` values with `stride ≥ out.len()`.
///
/// # Panics
/// Panics if the layout invariants are violated (the AVX2 arm's unchecked
/// vector loads read whole rows up to `stride`).
#[inline]
pub fn horner_row(coeffs: &[f32], stride: usize, rows: usize, z: f32, out: &mut [f32]) {
    assert!(rows >= 1, "a polynomial needs at least one coefficient");
    assert!(stride >= out.len(), "stride {} < pieces {}", stride, out.len());
    assert!(coeffs.len() >= rows * stride, "coefficient table too short");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch guarantees AVX2+FMA are available at this level.
        IsaLevel::Avx2Fma => unsafe { horner_row_avx2(coeffs, stride, rows, z, out) },
        IsaLevel::StrictScalar => horner_row_strict(coeffs, stride, rows, z, out),
        _ => horner_row_scalar(coeffs, stride, rows, z, out),
    }
}

/// Scalar reference: one correctly rounded `mul_add` chain per piece. Also
/// the SSE2 arm — fusing is what keeps the levels bitwise-identical, and
/// 128-bit SSE2 has no fused multiply-add to vectorize with.
pub(crate) fn horner_row_scalar(
    coeffs: &[f32],
    stride: usize,
    rows: usize,
    z: f32,
    out: &mut [f32],
) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = coeffs[i];
        for r in 1..rows {
            acc = acc.mul_add(z, coeffs[r * stride + i]);
        }
        *o = acc;
    }
}

/// Strict-scalar arm: identical arithmetic with auto-vectorization defeated
/// per element, so the SIMD-speedup experiments measure a genuinely scalar
/// baseline.
fn horner_row_strict(coeffs: &[f32], stride: usize, rows: usize, z: f32, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = core::hint::black_box(coeffs[i]);
        for r in 1..rows {
            acc = core::hint::black_box(acc.mul_add(z, coeffs[r * stride + i]));
        }
        *o = acc;
    }
}

/// AVX2+FMA arm: eight pieces per `vfmadd231ps`. The ragged end runs as one
/// more full vector when the rows still hold eight lanes from it (`stride −
/// i ≥ 8`, always true for tables padded to a multiple of eight — a window
/// shorter than eight taps is then one vector, not a scalar chain per tap),
/// storing only the live lanes; otherwise as a scalar `mul_add` tail. Every
/// form is the same correctly rounded operation, so the split is invisible
/// in the bits.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn horner_row_avx2(coeffs: &[f32], stride: usize, rows: usize, z: f32, out: &mut [f32]) {
    #![allow(unsafe_op_in_unsafe_fn)]
    use core::arch::x86_64::*;
    let n = out.len();
    let zv = _mm256_set1_ps(z);
    let mut i = 0usize;
    while i < n {
        let live = (n - i).min(8);
        if live < 8 && stride - i < 8 {
            horner_row_scalar(&coeffs[i..], stride, rows, z, &mut out[i..]);
            return;
        }
        // Reads `coeffs[r·stride + i ..][..8]` per row: in bounds, since
        // `i + 8 ≤ stride` and the table holds `rows·stride` values.
        let mut acc = _mm256_loadu_ps(coeffs.as_ptr().add(i));
        for r in 1..rows {
            let c = _mm256_loadu_ps(coeffs.as_ptr().add(r * stride + i));
            acc = _mm256_fmadd_ps(acc, zv, c);
        }
        if live == 8 {
            _mm256_storeu_ps(out.as_mut_ptr().add(i), acc);
        } else {
            let mut tail = [0.0f32; 8];
            _mm256_storeu_ps(tail.as_mut_ptr(), acc);
            out[i..].copy_from_slice(&tail[..live]);
        }
        i += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override, test_isa_guard};

    /// Deterministic pseudo-random coefficient table.
    fn table(rows: usize, stride: usize, seed: f32) -> Vec<f32> {
        (0..rows * stride).map(|k| (k as f32 * 0.7391 + seed).sin() * 1.3).collect()
    }

    fn for_each_isa(mut f: impl FnMut(IsaLevel)) {
        let _guard = test_isa_guard();
        let detected = detect_isa();
        for level in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
            if level <= detected {
                set_isa_override(level).unwrap();
                f(level);
            }
        }
        set_isa_override(detected).unwrap();
    }

    /// `f64` oracle: plain Horner per piece, rounded once at the end. The
    /// fused `f32` chain differs from it by at most a few ulps per row.
    fn oracle(coeffs: &[f32], stride: usize, rows: usize, z: f32, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = coeffs[i] as f64;
            for r in 1..rows {
                acc = acc * z as f64 + coeffs[r * stride + i] as f64;
            }
            *o = acc as f32;
        }
    }

    #[test]
    fn all_isa_levels_match_strict_bitwise() {
        // Sweep ragged lengths across the 8-lane boundary, several degrees
        // and arguments — every level must reproduce StrictScalar exactly.
        // The AVX2 tail runs as a full vector when the rows hold 8 lanes
        // from it (stride a multiple of 8: (2, 8, 3), (5, 8, 1), (11, 8, 7),
        // (12, 16, 13), (14, 24, 17)) and as scalar `mul_add`s otherwise
        // ((4, 5, 5), (6, 12, 10), (9, 15, 14)).
        for (rows, stride, n) in [
            (2, 8, 3),
            (5, 8, 1),
            (8, 8, 8),
            (11, 8, 7),
            (12, 16, 13),
            (14, 24, 17),
            (4, 5, 5),
            (6, 12, 10),
            (9, 15, 14),
        ] {
            let coeffs = table(rows, stride, rows as f32);
            for step in 0..9 {
                let z = -1.0 + step as f32 * 0.25;
                let mut want = vec![0.0f32; n];
                horner_row_strict(&coeffs, stride, rows, z, &mut want);
                for_each_isa(|level| {
                    let mut got = vec![f32::NAN; n];
                    horner_row(&coeffs, stride, rows, z, &mut got);
                    for i in 0..n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{level:?} rows={rows} n={n} z={z} piece {i}: {} vs {}",
                            got[i],
                            want[i]
                        );
                    }
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "coefficient table too short")]
    fn short_table_panics_instead_of_reading_past_it() {
        // Two rows claimed, one stored: every arm must refuse, including
        // the AVX2 one whose vector loads are unchecked.
        let coeffs = vec![0.5f32; 8];
        let mut out = [0.0f32; 3];
        horner_row(&coeffs, 8, 2, 0.3, &mut out);
    }

    #[test]
    fn matches_f64_oracle_closely() {
        let (rows, stride, n) = (10, 16, 11);
        let coeffs = table(rows, stride, 0.5);
        for step in 0..41 {
            let z = -1.0 + step as f32 * 0.05;
            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            horner_row_scalar(&coeffs, stride, rows, z, &mut got);
            oracle(&coeffs, stride, rows, z, &mut want);
            for i in 0..n {
                let err = (got[i] - want[i]).abs();
                assert!(err <= 1e-5 * want[i].abs().max(1.0), "piece {i} z={z}: {err}");
            }
        }
    }

    #[test]
    fn degree_zero_is_a_table_copy() {
        let coeffs: Vec<f32> = (0..8).map(|k| k as f32 * 0.25).collect();
        let mut out = vec![0.0f32; 5];
        horner_row_scalar(&coeffs, 8, 1, 0.7, &mut out);
        assert_eq!(&out[..], &coeffs[..5]);
    }
}
