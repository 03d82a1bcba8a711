//! AVX2+FMA implementations: 256-bit vectors, four interleaved complex `f32`
//! values per register, with fused multiply-add. This is the "wider SIMD on
//! future architectures" configuration the paper projects (§VII).

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)]

use crate::boxes::BoxRows;
use core::arch::x86_64::*;
use nufft_math::Complex32;

/// Expands four weights `[w0,w1,w2,w3]` to `[w0,w0,w1,w1,w2,w2,w3,w3]`.
#[inline(always)]
unsafe fn dup_weights4(wp: *const f32) -> __m256 {
    dup4(_mm_loadu_ps(wp))
}

/// [`dup_weights4`] of weights already in a register.
#[inline(always)]
unsafe fn dup4(w4: __m128) -> __m256 {
    let both = _mm256_insertf128_ps(_mm256_castps128_ps256(w4), w4, 1);
    let idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
    _mm256_permutevar8x32_ps(both, idx)
}

/// Broadcasts a complex value to `[re,im,re,im,re,im,re,im]`.
#[inline(always)]
unsafe fn broadcast_c32(val: Complex32) -> __m256 {
    _mm256_setr_ps(val.re, val.im, val.re, val.im, val.re, val.im, val.re, val.im)
}

/// Folds four interleaved complex lanes down to one complex sum.
#[inline(always)]
unsafe fn fold_c32(acc: __m256) -> Complex32 {
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let s4 = _mm_add_ps(lo, hi); // [r0+r2, i0+i2, r1+r3, i1+i3]
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    Complex32::new(_mm_cvtss_f32(s2), {
        let im = _mm_shuffle_ps(s2, s2, 0b01);
        _mm_cvtss_f32(im)
    })
}

/// `dst[i] += val * w[i]`, 4 complex values per iteration with FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA (checked by the dispatcher).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn scatter_row(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    debug_assert_eq!(dst.len(), w.len());
    let n = dst.len();
    let dp = dst.as_mut_ptr() as *mut f32;
    let wp = w.as_ptr();
    let vv = broadcast_c32(val);
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let d = _mm256_loadu_ps(dp.add(2 * i));
        _mm256_storeu_ps(dp.add(2 * i), _mm256_fmadd_ps(ww, vv, d));
        i += 4;
    }
    while i < n {
        let wi = *wp.add(i);
        dst.get_unchecked_mut(i).re += val.re * wi;
        dst.get_unchecked_mut(i).im += val.im * wi;
        i += 1;
    }
}

/// Two-row scatter sharing one weight row (small-`W` SIMD-across-`y`,
/// §III-C). Processes both rows in one pass so short rows still keep the
/// vector units busy.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn scatter_row2(
    dst0: &mut [Complex32],
    val0: Complex32,
    dst1: &mut [Complex32],
    val1: Complex32,
    w: &[f32],
) {
    debug_assert_eq!(dst0.len(), w.len());
    debug_assert_eq!(dst1.len(), w.len());
    let n = w.len();
    let d0 = dst0.as_mut_ptr() as *mut f32;
    let d1 = dst1.as_mut_ptr() as *mut f32;
    let wp = w.as_ptr();
    let v0 = broadcast_c32(val0);
    let v1 = broadcast_c32(val1);
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let a = _mm256_loadu_ps(d0.add(2 * i));
        let b = _mm256_loadu_ps(d1.add(2 * i));
        _mm256_storeu_ps(d0.add(2 * i), _mm256_fmadd_ps(ww, v0, a));
        _mm256_storeu_ps(d1.add(2 * i), _mm256_fmadd_ps(ww, v1, b));
        i += 4;
    }
    while i < n {
        let wi = *wp.add(i);
        dst0.get_unchecked_mut(i).re += val0.re * wi;
        dst0.get_unchecked_mut(i).im += val0.im * wi;
        dst1.get_unchecked_mut(i).re += val1.re * wi;
        dst1.get_unchecked_mut(i).im += val1.im * wi;
        i += 1;
    }
}

/// `Σ_i src[i] * w[i]`, 4 complex values per iteration with FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_row(src: &[Complex32], w: &[f32]) -> Complex32 {
    debug_assert_eq!(src.len(), w.len());
    let n = src.len();
    let sp = src.as_ptr() as *const f32;
    let wp = w.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let s = _mm256_loadu_ps(sp.add(2 * i));
        acc = _mm256_fmadd_ps(ww, s, acc);
        i += 4;
    }
    let mut out = fold_c32(acc);
    while i < n {
        let wi = *wp.add(i);
        let s = *src.get_unchecked(i);
        out.re += s.re * wi;
        out.im += s.im * wi;
        i += 1;
    }
    out
}

/// Two-row gather with a shared weight row: one weight expansion feeds two
/// independent accumulators (one per channel grid), amortizing the
/// `dup_weights4` shuffle and filling both FMA ports on short rows.
///
/// Each accumulator sees exactly the sequence of operations [`gather_row`]
/// would perform on its row alone — same vector adds, same fold, same
/// scalar tail — so the result is bitwise-equal per row to two independent
/// [`gather_row`] calls.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_row2(
    src0: &[Complex32],
    src1: &[Complex32],
    w: &[f32],
) -> (Complex32, Complex32) {
    debug_assert_eq!(src0.len(), w.len());
    debug_assert_eq!(src1.len(), w.len());
    let n = w.len();
    let p0 = src0.as_ptr() as *const f32;
    let p1 = src1.as_ptr() as *const f32;
    let wp = w.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let s0 = _mm256_loadu_ps(p0.add(2 * i));
        let s1 = _mm256_loadu_ps(p1.add(2 * i));
        acc0 = _mm256_fmadd_ps(ww, s0, acc0);
        acc1 = _mm256_fmadd_ps(ww, s1, acc1);
        i += 4;
    }
    let mut out0 = fold_c32(acc0);
    let mut out1 = fold_c32(acc1);
    while i < n {
        let wi = *wp.add(i);
        let a = *src0.get_unchecked(i);
        let b = *src1.get_unchecked(i);
        out0.re += a.re * wi;
        out0.im += a.im * wi;
        out1.re += b.re * wi;
        out1.im += b.im * wi;
        i += 1;
    }
    (out0, out1)
}

/// `dst[i] += src[i]` over complex buffers, 8 floats per iteration.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn accumulate(dst: &mut [Complex32], src: &[Complex32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n2 = dst.len() * 2;
    let dp = dst.as_mut_ptr() as *mut f32;
    let sp = src.as_ptr() as *const f32;
    let mut i = 0;
    while i + 8 <= n2 {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
        i += 8;
    }
    while i < n2 {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

/// `buf[i] *= s[i]` — pointwise real scaling of a complex buffer.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn scale_by_real(buf: &mut [Complex32], s: &[f32]) {
    debug_assert_eq!(buf.len(), s.len());
    let n = buf.len();
    let bp = buf.as_mut_ptr() as *mut f32;
    let sp = s.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let sv = dup_weights4(sp.add(i));
        let b = _mm256_loadu_ps(bp.add(2 * i));
        _mm256_storeu_ps(bp.add(2 * i), _mm256_mul_ps(b, sv));
        i += 4;
    }
    while i < n {
        let si = *sp.add(i);
        buf.get_unchecked_mut(i).re *= si;
        buf.get_unchecked_mut(i).im *= si;
        i += 1;
    }
}

/// Lane mask of a box row's last vector: all-ones in the
/// `2·(taps − 4·(NV−1))` `f32` lanes that hold live taps.
#[inline(always)]
unsafe fn tail_mask<const NV: usize>(taps: usize) -> __m256i {
    let live = (2 * (taps - 4 * (NV - 1))) as i32;
    _mm256_cmpgt_epi32(_mm256_set1_epi32(live), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// Loads vector `k` of a box row: unmasked, except the partial last one.
#[inline(always)]
unsafe fn load_box<const NV: usize, const PARTIAL: bool>(
    p: *const f32,
    k: usize,
    mask: __m256i,
) -> __m256 {
    if PARTIAL && k + 1 == NV {
        _mm256_maskload_ps(p.add(8 * k), mask)
    } else {
        _mm256_loadu_ps(p.add(8 * k))
    }
}

/// Stores vector `k` of a box row: unmasked, except the partial last one.
#[inline(always)]
unsafe fn store_box<const NV: usize, const PARTIAL: bool>(
    p: *mut f32,
    k: usize,
    mask: __m256i,
    v: __m256,
) {
    if PARTIAL && k + 1 == NV {
        _mm256_maskstore_ps(p.add(8 * k), mask, v)
    } else {
        _mm256_storeu_ps(p.add(8 * k), v)
    }
}

/// The innermost weights expanded once to `NV` interleaved-complex
/// vectors. The partial last group of four is read under a mask, so it is
/// zero past the last tap and nothing past `w_z` is read.
#[inline(always)]
unsafe fn expand_box_weights<const NV: usize, const PARTIAL: bool>(w_z: &[f32]) -> [__m256; NV] {
    let wp = w_z.as_ptr();
    let live = (w_z.len() - 4 * (NV - 1)) as i32;
    let mask = _mm_cmpgt_epi32(_mm_set1_epi32(live), _mm_setr_epi32(0, 1, 2, 3));
    let mut out = [_mm256_setzero_ps(); NV];
    for (k, v) in out.iter_mut().enumerate() {
        *v = if PARTIAL && k + 1 == NV {
            dup4(_mm_maskload_ps(wp.add(4 * k), mask))
        } else {
            dup_weights4(wp.add(4 * k))
        };
    }
    out
}

/// `acc[c][k] += f · row_k` for one box row at element offset `off` of
/// every channel grid.
#[inline(always)]
unsafe fn gather_box_row<const NV: usize, const PARTIAL: bool, const C: usize>(
    acc: &mut [[__m256; NV]; C],
    grids: &[*const Complex32; C],
    off: usize,
    f: f32,
    mask: __m256i,
) {
    let f = _mm256_set1_ps(f);
    for (g, a) in grids.iter().zip(acc.iter_mut()) {
        let p = g.add(off) as *const f32;
        for (k, ak) in a.iter_mut().enumerate() {
            *ak = _mm256_fmadd_ps(f, load_box::<NV, PARTIAL>(p, k, mask), *ak);
        }
    }
}

/// Box gather over `C` channel grids sharing one box: the row accumulators
/// `acc[c][k] += (x.w[i]·y.w[j]) · row_k` stay in registers across every
/// outer row — in two sets, for even and odd `y` rows, so each FMA chain is
/// half as long — and the innermost weights are applied and the lanes
/// folded once per channel at the end. Each channel sees the
/// identical operation sequence, so a `C = 2` call is bitwise-equal per
/// channel to two `C = 1` calls.
///
/// # Safety
/// The CPU must support AVX2 and FMA. `rows` must be checked against every
/// grid ([`BoxRows::check`]): every row holds `taps = w_z.len()` complex
/// values in bounds, with `4·(NV−1) < taps ≤ 4·NV` and
/// `PARTIAL == (taps % 4 != 0)`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_box<const NV: usize, const PARTIAL: bool, const C: usize>(
    grids: [*const Complex32; C],
    rows: &BoxRows<'_>,
) -> [Complex32; C] {
    let mask = tail_mask::<NV>(rows.w_z.len());
    let mut even = [[_mm256_setzero_ps(); NV]; C];
    let mut odd = [[_mm256_setzero_ps(); NV]; C];
    for (ox, wx) in rows.x.rows() {
        let base = ox + rows.z0;
        let mut ys = rows.y.rows();
        while let Some((oy, wy)) = ys.next() {
            gather_box_row::<NV, PARTIAL, C>(&mut even, &grids, base + oy, wx * wy, mask);
            let Some((oy, wy)) = ys.next() else { break };
            gather_box_row::<NV, PARTIAL, C>(&mut odd, &grids, base + oy, wx * wy, mask);
        }
    }
    let wz = expand_box_weights::<NV, PARTIAL>(rows.w_z);
    let mut out = [Complex32::ZERO; C];
    for ((o, e), d) in out.iter_mut().zip(&even).zip(&odd) {
        let mut t = _mm256_mul_ps(_mm256_add_ps(e[0], d[0]), wz[0]);
        for k in 1..NV {
            t = _mm256_fmadd_ps(_mm256_add_ps(e[k], d[k]), wz[k], t);
        }
        *o = fold_c32(t);
    }
    out
}

/// Box scatter: the sample value is multiplied into the expanded innermost
/// weights once, so each row costs `NV` FMAs
/// `row_k += (x.w[i]·y.w[j]) · (val·w_z)_k`.
/// The partial last vector is read and written under the tail mask, so no
/// cell outside the box is touched.
///
/// # Safety
/// As [`gather_box`], for the single grid `grid`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn scatter_box<const NV: usize, const PARTIAL: bool>(
    grid: *mut Complex32,
    rows: &BoxRows<'_>,
    val: Complex32,
) {
    let mask = tail_mask::<NV>(rows.w_z.len());
    let wz = expand_box_weights::<NV, PARTIAL>(rows.w_z);
    let v = broadcast_c32(val);
    let mut vz = [_mm256_setzero_ps(); NV];
    for (z, w) in vz.iter_mut().zip(&wz) {
        *z = _mm256_mul_ps(*w, v);
    }
    for (ox, wx) in rows.x.rows() {
        for (oy, wy) in rows.y.rows() {
            let f = _mm256_set1_ps(wx * wy);
            let p = grid.add(ox + oy + rows.z0) as *mut f32;
            for (k, z) in vz.iter().enumerate() {
                let d = load_box::<NV, PARTIAL>(p, k, mask);
                store_box::<NV, PARTIAL>(p, k, mask, _mm256_fmadd_ps(f, *z, d));
            }
        }
    }
}
