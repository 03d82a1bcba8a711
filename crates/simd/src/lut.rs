//! Table-lookup Part 1 row evaluation for interpolation kernels.
//!
//! The Kaiser–Bessel kernel (the default), the Gaussian, and ES at widths
//! the Horner fit does not cover tabulate the kernel at `density` points
//! per grid unit and interpolate linearly. One window's taps sit at the
//! consecutive integer offsets `x1 + i`, so a row is eight independent
//! lookups per 256-bit vector: the AVX2 arm computes eight table positions
//! at once and gathers `lut[idx]` and `lut[idx + 1]` for all of them.
//!
//! ## Bitwise identity across ISA levels
//!
//! Every level runs, per tap, the same correctly rounded operations in the
//! same order — `ax = |(x1 + i) − u|`, `pos = ax · density`, `idx =
//! trunc(pos)`, `frac = pos − idx`, `a + (b − a) · frac` with the multiply
//! and the add kept separate (never an FMA) — so the vector lanes
//! reproduce the scalar loop bit for bit. Lanes past the window's end
//! have their table index clamped into range and are never stored.

use crate::dispatch::{active_isa, IsaLevel};

/// Fills `out[i] = lut[j] + (lut[j + 1] − lut[j]) · f` with `pos = |x1 + i
/// − u| · density = j + f`, for every tap `i < out.len()`, dispatched to
/// the active ISA level. Every tap must lie in the table's support: `j + 1
/// < lut.len()`.
///
/// # Panics
/// Panics if `lut` has fewer than two entries, or — on the scalar levels —
/// if a tap reads past the table.
#[inline]
pub fn lut_row(lut: &[f32], density: f32, x1: i32, u: f32, out: &mut [f32]) {
    assert!(lut.len() >= 2, "a lookup table needs two entries to interpolate");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch guarantees AVX2 is available at this level.
        IsaLevel::Avx2Fma => unsafe { lut_row_avx2(lut, density, x1, u, out) },
        IsaLevel::StrictScalar => lut_row_strict(lut, density, x1, u, out),
        _ => lut_row_scalar(lut, density, x1, u, out),
    }
}

/// Scalar reference, also the Scalar and SSE2 arm.
fn lut_row_scalar(lut: &[f32], density: f32, x1: i32, u: f32, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = tap(lut, density, x1 + i as i32, u);
    }
}

/// Strict-scalar arm: the same arithmetic with auto-vectorization
/// defeated per tap, for the SIMD-speedup experiments' scalar baseline.
fn lut_row_strict(lut: &[f32], density: f32, x1: i32, u: f32, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = core::hint::black_box(tap(lut, density, x1 + i as i32, u));
    }
}

#[inline(always)]
fn tap(lut: &[f32], density: f32, x: i32, u: f32) -> f32 {
    let pos = (x as f32 - u).abs() * density;
    let idx = pos as usize;
    let frac = pos - idx as f32;
    let (a, b) = (lut[idx], lut[idx + 1]);
    a + (b - a) * frac
}

/// AVX2 arm: eight taps per iteration, two gathers each. The ragged end
/// runs as one more full vector whose dead lanes read `lut` at a clamped
/// index and are not stored.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut_row_avx2(lut: &[f32], density: f32, x1: i32, u: f32, out: &mut [f32]) {
    #![allow(unsafe_op_in_unsafe_fn)]
    use core::arch::x86_64::*;
    let n = out.len();
    let uv = _mm256_set1_ps(u);
    let dv = _mm256_set1_ps(density);
    let sign = _mm256_set1_ps(-0.0);
    // Every gathered index stays ≤ len − 2, so `idx + 1` is in bounds.
    let top = _mm256_set1_epi32((lut.len() - 2).min(i32::MAX as usize) as i32);
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut i = 0usize;
    while i < n {
        let x = _mm256_add_epi32(_mm256_set1_epi32(x1.wrapping_add(i as i32)), lanes);
        let ax = _mm256_andnot_ps(sign, _mm256_sub_ps(_mm256_cvtepi32_ps(x), uv));
        let pos = _mm256_mul_ps(ax, dv);
        // Truncation equals `as usize` for in-support (non-negative,
        // in-table) positions; the unsigned min clamps everything else,
        // NaN's 0x8000_0000 included.
        let idx = _mm256_min_epu32(_mm256_cvttps_epi32(pos), top);
        let frac = _mm256_sub_ps(pos, _mm256_cvtepi32_ps(idx));
        let a = _mm256_i32gather_ps::<4>(lut.as_ptr(), idx);
        let b = _mm256_i32gather_ps::<4>(lut.as_ptr().add(1), idx);
        let row = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), frac));
        let live = (n - i).min(8);
        if live == 8 {
            _mm256_storeu_ps(out.as_mut_ptr().add(i), row);
        } else {
            let mut tail = [0.0f32; 8];
            _mm256_storeu_ps(tail.as_mut_ptr(), row);
            out[i..].copy_from_slice(&tail[..live]);
        }
        i += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override, test_isa_guard};

    /// A smooth bell tabulated at `density` per unit over `[0, w]`, with
    /// the two slack entries an interpolation kernel's table carries.
    fn table(w: f32, density: f32) -> Vec<f32> {
        let n = (w * density).ceil() as usize + 2;
        (0..n)
            .map(|i| {
                let r = (i as f32 / density / w).min(1.0);
                (1.0 - r * r).sqrt() * (1.0 + 0.3 * (i as f32 * 0.37).sin())
            })
            .collect()
    }

    /// Every level reproduces StrictScalar bit for bit at tap counts
    /// 1..=17 (every vector body and tail), for coordinates on and next to
    /// integers and half-integers, where `|x − u|` lands on table points.
    #[test]
    fn all_isa_levels_match_strict_bitwise() {
        let _guard = test_isa_guard();
        let detected = detect_isa();
        for (w, density) in [(1.5f32, 512.0f32), (4.0, 512.0), (8.0, 2048.0), (2.5, 100.0)] {
            let lut = table(w, density);
            for base in [3.0f32, 3.5, 40.0, 40.5] {
                for du in [0.0f32, 1e-6, -1e-6, 0.25, 0.731] {
                    let u = base + du;
                    let x1 = (u - w).ceil() as i32;
                    let max_taps = ((u + w).floor() as i32 - x1 + 1) as usize;
                    for taps in 1..=max_taps.min(17) {
                        let mut want = vec![0.0f32; taps];
                        lut_row_strict(&lut, density, x1, u, &mut want);
                        for level in [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
                            if level > detected {
                                continue;
                            }
                            set_isa_override(level).unwrap();
                            let mut got = vec![f32::NAN; taps];
                            lut_row(&lut, density, x1, u, &mut got);
                            for i in 0..taps {
                                assert_eq!(
                                    got[i].to_bits(),
                                    want[i].to_bits(),
                                    "{level:?} W={w} u={u} taps={taps} tap {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
        set_isa_override(detected).unwrap();
    }

    #[test]
    fn interpolates_between_table_points() {
        let lut = [1.0f32, 3.0, 7.0, 0.0];
        let mut out = [0.0f32; 3];
        // Taps at |x − u| = 0.25, 0.75, 1.75 with density 1.
        lut_row(&lut, 1.0, 0, 0.25, &mut out[..1]);
        lut_row(&lut, 1.0, 1, 0.25, &mut out[1..2]);
        lut_row(&lut, 1.0, 2, 0.25, &mut out[2..]);
        assert_eq!(out, [1.5, 2.5, 6.0]);
    }

    #[test]
    #[should_panic(expected = "two entries")]
    fn a_one_entry_table_panics() {
        lut_row(&[1.0], 1.0, 0, 0.0, &mut [0.0]);
    }
}
