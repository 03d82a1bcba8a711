//! Cache-blocked transpose primitives for the four-step FFT path.
//!
//! A Bailey four-step decomposition (EFFT-style) turns one long transform
//! into `n2` sub-FFTs, a twiddle multiply, and a blocked transpose. The
//! transpose is the memory-bound pass: it walks `P` rows spaced `n2·stride`
//! complexes apart, touching one fresh cache line per row per column block.
//! These kernels are its substrate:
//!
//! * [`gather_chunks`] — copy `chunks` fixed-length runs spaced `stride`
//!   apart into a contiguous tile, with software prefetch ahead of the
//!   strided stream;
//! * [`gather_chunks_cmul`] — the same sweep with the four-step twiddle
//!   multiply **fused into the gather** (one twiddle per chunk, broadcast
//!   across the chunk), so the twiddle pass costs no extra memory sweep;
//! * [`scatter_chunks`] — the inverse scatter;
//! * [`transpose`] — a dense row-major transpose in 4×4 (AVX2) or 2×2
//!   (SSE2) complex blocks. The batched FFT path uses it to pack `b`
//!   consecutive lines of a contiguous axis into one interleaved tile (a
//!   `b×n` transpose) and to unpack the result.
//!
//! `chunk_len == 1 && stride == 1` degenerates to a contiguous elementwise
//! sweep (the layout of a contiguous innermost axis, where every element
//! carries its own twiddle) and takes a dedicated vector path.
//!
//! Bit-compatibility contract: at a fixed [`IsaLevel`] the fused multiply
//! uses the *same per-element arithmetic shape* as the stage butterflies in
//! [`crate::fft_rows`] — plain mul/add for `Scalar`/`StrictScalar`/`Sse2`,
//! `fmaddsub`-contracted (scalar tail via `mul_add`) for `Avx2Fma` — so a
//! transform that hoists its twiddle multiply into this gather produces
//! bitwise the same result as one that applies it inside the butterfly.
//! `nufft-fft`'s four-step tests pin that end to end.

use crate::dispatch::{active_isa, IsaLevel};
use nufft_math::Complex32;

/// Chunks prefetched ahead of the gather/scatter cursor: far enough to
/// cover DRAM latency on the strided stream, near enough not to thrash
/// small tiles.
const PREFETCH_AHEAD: usize = 4;

/// Validates the common chunk geometry and returns the chunk count.
#[inline]
fn chunk_geometry(tile_len: usize, span_len: usize, chunk_len: usize, stride: usize) -> usize {
    assert!(chunk_len > 0, "chunk length must be positive");
    assert!(tile_len.is_multiple_of(chunk_len), "tile length must be a whole number of chunks");
    let chunks = tile_len / chunk_len;
    if chunks > 0 {
        let last_end = (chunks - 1) * stride + chunk_len;
        assert!(last_end <= span_len, "strided span exceeds the source/destination buffer");
    }
    chunks
}

/// Gathers `dst.len()/chunk_len` runs of `chunk_len` complexes from `src`,
/// run `c` starting at `src[c·stride]`, into the contiguous tile `dst`.
///
/// # Panics
/// Panics if `chunk_len == 0`, `dst.len()` is not a multiple of
/// `chunk_len`, or the last run overruns `src`.
#[inline]
pub fn gather_chunks(dst: &mut [Complex32], src: &[Complex32], chunk_len: usize, stride: usize) {
    let chunks = chunk_geometry(dst.len(), src.len(), chunk_len, stride);
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports, and
        // the geometry was validated above.
        IsaLevel::Avx2Fma | IsaLevel::Sse2 => unsafe {
            x86::copy_chunks(dst.as_mut_ptr(), chunk_len, src.as_ptr(), stride, chunks, chunk_len)
        },
        _ => {
            for c in 0..chunks {
                dst[c * chunk_len..(c + 1) * chunk_len]
                    .copy_from_slice(&src[c * stride..c * stride + chunk_len]);
            }
        }
    }
}

/// Scatters the contiguous tile `src` back out: run `c` (of `chunk_len`
/// complexes) lands at `dst[c·stride]` — the inverse of [`gather_chunks`].
///
/// # Panics
/// Panics if `chunk_len == 0`, `src.len()` is not a multiple of
/// `chunk_len`, or the last run overruns `dst`.
#[inline]
pub fn scatter_chunks(src: &[Complex32], dst: &mut [Complex32], chunk_len: usize, stride: usize) {
    let chunks = chunk_geometry(src.len(), dst.len(), chunk_len, stride);
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in gather_chunks.
        IsaLevel::Avx2Fma | IsaLevel::Sse2 => unsafe {
            x86::copy_chunks(dst.as_mut_ptr(), stride, src.as_ptr(), chunk_len, chunks, chunk_len)
        },
        _ => {
            for c in 0..chunks {
                dst[c * stride..c * stride + chunk_len]
                    .copy_from_slice(&src[c * chunk_len..(c + 1) * chunk_len]);
            }
        }
    }
}

/// [`gather_chunks`] with the twiddle multiply fused in: run `c` is
/// multiplied by `tw[c]` on the way through (`dst[c·chunk_len + i] =
/// src[c·stride + i] · tw[c]`).
///
/// At `chunk_len == 1 && stride == 1` this is a contiguous elementwise
/// multiply by a twiddle row — the shape of a contiguous (innermost-axis)
/// four-step block, where every element carries its own twiddle.
///
/// # Panics
/// Panics on the [`gather_chunks`] geometry violations or if
/// `tw.len() != dst.len()/chunk_len`.
#[inline]
pub fn gather_chunks_cmul(
    dst: &mut [Complex32],
    src: &[Complex32],
    tw: &[Complex32],
    chunk_len: usize,
    stride: usize,
) {
    let chunks = chunk_geometry(dst.len(), src.len(), chunk_len, stride);
    assert_eq!(tw.len(), chunks, "one twiddle per chunk");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports, and
        // the geometry was validated above.
        IsaLevel::Avx2Fma => unsafe {
            avx2::gather_cmul(dst, src, tw, chunk_len, stride);
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe {
            sse2::gather_cmul(dst, src, tw, chunk_len, stride);
        },
        IsaLevel::StrictScalar => strict::gather_cmul(dst, src, tw, chunk_len, stride),
        _ => scalar::gather_cmul(dst, src, tw, chunk_len, stride),
    }
}

/// Transposes the row-major `rows × cols` matrix `src` (`cols =
/// src.len() / rows`) into the row-major `cols × rows` matrix `dst`:
/// `dst[c·rows + r] = src[r·cols + c]`. Pure data movement, so every level
/// is bitwise equal.
///
/// # Panics
/// Panics if `rows == 0`, `dst` and `src` lengths differ, or `src.len()`
/// is not a multiple of `rows`.
#[inline]
pub fn transpose(dst: &mut [Complex32], src: &[Complex32], rows: usize) {
    assert!(rows > 0, "row count must be positive");
    assert_eq!(dst.len(), src.len(), "transpose length mismatch");
    assert!(src.len().is_multiple_of(rows), "source must be a whole number of rows");
    let cols = src.len() / rows;
    // Full `w × w` blocks go through the vector kernel; the ragged right and
    // bottom edges (if any) through the scalar loop.
    let w = match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports, and
        // every block lies inside the validated `rows × cols` geometry.
        IsaLevel::Avx2Fma => unsafe {
            avx2::transpose_blocks(dst.as_mut_ptr(), src.as_ptr(), rows, cols);
            4
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe {
            sse2::transpose_blocks(dst.as_mut_ptr(), src.as_ptr(), rows, cols);
            2
        },
        _ => 0,
    };
    let blocked = |len: usize| len.checked_div(w).map_or(0, |q| q * w);
    let (rb, cb) = (blocked(rows), blocked(cols));
    for r in 0..rows {
        let c0 = if r < rb { cb } else { 0 };
        for c in c0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Scalar reference arm: plain `Complex32` operator arithmetic (the shape
/// of the scalar/SSE2 stage butterflies).
mod scalar {
    use super::Complex32;

    pub(super) fn gather_cmul(
        dst: &mut [Complex32],
        src: &[Complex32],
        tw: &[Complex32],
        chunk_len: usize,
        stride: usize,
    ) {
        for (c, &w) in tw.iter().enumerate() {
            for i in 0..chunk_len {
                dst[c * chunk_len + i] = src[c * stride + i] * w;
            }
        }
    }
}

/// Strict-scalar arm: per-element `black_box` loads defeat
/// auto-vectorization (the true-scalar ISA baseline); same arithmetic as
/// [`scalar`].
mod strict {
    use super::Complex32;
    use core::hint::black_box;

    pub(super) fn gather_cmul(
        dst: &mut [Complex32],
        src: &[Complex32],
        tw: &[Complex32],
        chunk_len: usize,
        stride: usize,
    ) {
        for (c, &w) in tw.iter().enumerate() {
            for i in 0..chunk_len {
                dst[c * chunk_len + i] = *black_box(&src[c * stride + i]) * w;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::{Complex32, PREFETCH_AHEAD};
    use core::arch::x86_64::*;

    /// Strided chunk copy with prefetch: chunk `c` moves `chunk_len`
    /// complexes from `src + c·src_stride` to `dst + c·dst_stride`. The
    /// strided side (whichever stride exceeds `chunk_len`) is the one
    /// that misses cache; the prefetch runs ahead on the source so the
    /// gather's far reads are in flight early (the scatter's strided
    /// writes are covered by the write-allocate machinery).
    ///
    /// # Safety
    /// Both spans must be valid for `(chunks−1)·stride + chunk_len`
    /// elements of their respective stride and must not overlap.
    pub(super) unsafe fn copy_chunks(
        dst: *mut Complex32,
        dst_stride: usize,
        src: *const Complex32,
        src_stride: usize,
        chunks: usize,
        chunk_len: usize,
    ) {
        for c in 0..chunks {
            if c + PREFETCH_AHEAD < chunks {
                _mm_prefetch::<_MM_HINT_T0>(src.add((c + PREFETCH_AHEAD) * src_stride) as _);
            }
            core::ptr::copy_nonoverlapping(
                src.add(c * src_stride),
                dst.add(c * dst_stride),
                chunk_len,
            );
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::{Complex32, PREFETCH_AHEAD};
    use core::arch::x86_64::*;

    /// The full 2×2 complex blocks of [`super::transpose`].
    ///
    /// # Safety
    /// `src` and `dst` must each hold `rows·cols` elements and not overlap.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn transpose_blocks(
        dst: *mut Complex32,
        src: *const Complex32,
        rows: usize,
        cols: usize,
    ) {
        let (s, d) = (src as *const f32, dst as *mut f32);
        for r in (0..rows / 2 * 2).step_by(2) {
            for c in (0..cols / 2 * 2).step_by(2) {
                let a = _mm_loadu_ps(s.add(2 * (r * cols + c)));
                let b = _mm_loadu_ps(s.add(2 * ((r + 1) * cols + c)));
                _mm_storeu_ps(d.add(2 * (c * rows + r)), _mm_movelh_ps(a, b));
                _mm_storeu_ps(d.add(2 * ((c + 1) * rows + r)), _mm_movehl_ps(b, a));
            }
        }
    }

    /// # Safety
    /// Geometry validated by the dispatcher; CPU must support SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn gather_cmul(
        dst: &mut [Complex32],
        src: &[Complex32],
        tw: &[Complex32],
        chunk_len: usize,
        stride: usize,
    ) {
        let chunks = tw.len();
        let pd = dst.as_mut_ptr() as *mut f32;
        let ps = src.as_ptr() as *const f32;
        let neg_re = _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN));
        if chunk_len == 1 && stride == 1 {
            // Contiguous elementwise sweep, per-element twiddles: the
            // vector shape of `fft_rows::sse2::cmul2`.
            let pw = tw.as_ptr() as *const f32;
            let mut k = 0;
            while k + 2 <= chunks {
                let a = _mm_loadu_ps(ps.add(2 * k));
                let w = _mm_loadu_ps(pw.add(2 * k));
                let wr = _mm_shuffle_ps(w, w, 0b1010_0000);
                let wi = _mm_shuffle_ps(w, w, 0b1111_0101);
                let asw = _mm_shuffle_ps(a, a, 0b1011_0001);
                let t = _mm_add_ps(_mm_mul_ps(a, wr), _mm_xor_ps(_mm_mul_ps(asw, wi), neg_re));
                _mm_storeu_ps(pd.add(2 * k), t);
                k += 2;
            }
            while k < chunks {
                // Plain complex mul matches the vector lanes bitwise.
                dst[k] = src[k] * tw[k];
                k += 1;
            }
            return;
        }
        for (c, &w) in tw.iter().enumerate() {
            if c + PREFETCH_AHEAD < chunks {
                _mm_prefetch::<_MM_HINT_T0>(ps.add(2 * (c + PREFETCH_AHEAD) * stride) as _);
            }
            let wr = _mm_set1_ps(w.re);
            let wi = _mm_set1_ps(w.im);
            let so = 2 * c * stride;
            let do_ = 2 * c * chunk_len;
            let mut i = 0;
            while i + 2 <= chunk_len {
                let a = _mm_loadu_ps(ps.add(so + 2 * i));
                let asw = _mm_shuffle_ps(a, a, 0b1011_0001);
                let t = _mm_add_ps(_mm_mul_ps(a, wr), _mm_xor_ps(_mm_mul_ps(asw, wi), neg_re));
                _mm_storeu_ps(pd.add(do_ + 2 * i), t);
                i += 2;
            }
            while i < chunk_len {
                dst[c * chunk_len + i] = src[c * stride + i] * w;
                i += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::{Complex32, PREFETCH_AHEAD};
    use core::arch::x86_64::*;

    /// The full 4×4 complex blocks of [`super::transpose`]: a complex is
    /// one `f64` lane, so each block is the classic 4×4 double transpose.
    ///
    /// # Safety
    /// `src` and `dst` must each hold `rows·cols` elements and not overlap;
    /// the CPU must support AVX2.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transpose_blocks(
        dst: *mut Complex32,
        src: *const Complex32,
        rows: usize,
        cols: usize,
    ) {
        let (s, d) = (src as *const f64, dst as *mut f64);
        for r in (0..rows / 4 * 4).step_by(4) {
            for c in (0..cols / 4 * 4).step_by(4) {
                let row = |i: usize| _mm256_loadu_pd(s.add((r + i) * cols + c));
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
                let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
                let col = |i: usize| d.add((c + i) * rows + r);
                _mm256_storeu_pd(col(0), _mm256_permute2f128_pd(t0, t2, 0x20));
                _mm256_storeu_pd(col(1), _mm256_permute2f128_pd(t1, t3, 0x20));
                _mm256_storeu_pd(col(2), _mm256_permute2f128_pd(t0, t2, 0x31));
                _mm256_storeu_pd(col(3), _mm256_permute2f128_pd(t1, t3, 0x31));
            }
        }
    }

    /// Scalar tail matching the vector `fmaddsub` complex multiply
    /// bit-for-bit (same shape as `fft_rows::avx2::cmul_one`).
    #[inline(always)]
    fn cmul_one(a: Complex32, w: Complex32) -> Complex32 {
        let tr = a.im * w.im;
        let ti = a.re * w.im;
        Complex32::new(a.re.mul_add(w.re, -tr), a.im.mul_add(w.re, ti))
    }

    /// # Safety
    /// Geometry validated by the dispatcher; CPU must support AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gather_cmul(
        dst: &mut [Complex32],
        src: &[Complex32],
        tw: &[Complex32],
        chunk_len: usize,
        stride: usize,
    ) {
        let chunks = tw.len();
        let pd = dst.as_mut_ptr() as *mut f32;
        let ps = src.as_ptr() as *const f32;
        if chunk_len == 1 && stride == 1 {
            // Contiguous elementwise sweep, per-element twiddles: the
            // vector shape of `fft_rows::avx2::cmul4`.
            let pw = tw.as_ptr() as *const f32;
            let mut k = 0;
            while k + 4 <= chunks {
                let a = _mm256_loadu_ps(ps.add(2 * k));
                let w = _mm256_loadu_ps(pw.add(2 * k));
                let wr = _mm256_moveldup_ps(w);
                let wi = _mm256_movehdup_ps(w);
                let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
                let t = _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi));
                _mm256_storeu_ps(pd.add(2 * k), t);
                k += 4;
            }
            while k < chunks {
                dst[k] = cmul_one(src[k], tw[k]);
                k += 1;
            }
            return;
        }
        for (c, &w) in tw.iter().enumerate() {
            if c + PREFETCH_AHEAD < chunks {
                _mm_prefetch::<_MM_HINT_T0>(ps.add(2 * (c + PREFETCH_AHEAD) * stride) as _);
            }
            let wr = _mm256_set1_ps(w.re);
            let wi = _mm256_set1_ps(w.im);
            let so = 2 * c * stride;
            let do_ = 2 * c * chunk_len;
            let mut i = 0;
            while i + 4 <= chunk_len {
                let a = _mm256_loadu_ps(ps.add(so + 2 * i));
                let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
                let t = _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi));
                _mm256_storeu_ps(pd.add(do_ + 2 * i), t);
                i += 4;
            }
            while i < chunk_len {
                dst[c * chunk_len + i] = cmul_one(src[c * stride + i], w);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override, test_isa_guard};
    use nufft_math::Complex64;

    fn demo(n: usize, salt: u32) -> Vec<Complex32> {
        (0..n)
            .map(|i| {
                let x = (i as f32 + salt as f32 * 0.43) * 0.53;
                Complex32::new((1.1 * x).sin() - 0.3, (0.8 * x).cos() + 0.2)
            })
            .collect()
    }

    fn twiddles(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|k| {
                Complex64::cis(-core::f64::consts::TAU * k as f64 / (3 * n + 1) as f64).to_f32()
            })
            .collect()
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

    #[test]
    fn gather_scatter_round_trip_exactly() {
        for (chunks, chunk_len, stride) in
            [(7usize, 3usize, 5usize), (4, 4, 4), (9, 1, 1), (5, 2, 11), (1, 6, 6), (0, 2, 3)]
        {
            let span = if chunks == 0 { 0 } else { (chunks - 1) * stride + chunk_len };
            let src = demo(span, 1);
            for_each_isa(|level| {
                let mut tile = vec![Complex32::ZERO; chunks * chunk_len];
                gather_chunks(&mut tile, &src, chunk_len, stride);
                for c in 0..chunks {
                    for i in 0..chunk_len {
                        assert_eq!(
                            tile[c * chunk_len + i],
                            src[c * stride + i],
                            "{level:?} chunk {c} elem {i}"
                        );
                    }
                }
                let mut back = vec![Complex32::ZERO; span];
                scatter_chunks(&tile, &mut back, chunk_len, stride);
                for c in 0..chunks {
                    for i in 0..chunk_len {
                        assert_eq!(back[c * stride + i], src[c * stride + i]);
                    }
                }
            });
        }
    }

    /// The fused gather-multiply stays within f64-oracle tolerance at every
    /// level, and matches the level's own per-element reference arithmetic
    /// bitwise (plain mul below AVX2, `mul_add` contraction at AVX2) — the
    /// contract that lets the four-step hoist its twiddle pass in here.
    #[test]
    fn gather_cmul_matches_reference_shapes() {
        for (chunks, chunk_len, stride) in
            [(6usize, 4usize, 7usize), (8, 1, 1), (5, 3, 3), (4, 2, 9)]
        {
            let span = (chunks - 1) * stride + chunk_len;
            let src = demo(span, 2);
            let tw = twiddles(chunks);
            for_each_isa(|level| {
                let mut tile = vec![Complex32::ZERO; chunks * chunk_len];
                gather_chunks_cmul(&mut tile, &src, &tw, chunk_len, stride);
                for c in 0..chunks {
                    for i in 0..chunk_len {
                        let a = src[c * stride + i];
                        let w = tw[c];
                        let got = tile[c * chunk_len + i];
                        let oracle = (a.to_f64() * w.to_f64()).to_f32();
                        assert!(
                            (got.re - oracle.re).abs() < 1e-5 && (got.im - oracle.im).abs() < 1e-5,
                            "{level:?}: oracle drift at chunk {c} elem {i}"
                        );
                        let want = if level == IsaLevel::Avx2Fma {
                            let tr = a.im * w.im;
                            let ti = a.re * w.im;
                            Complex32::new(a.re.mul_add(w.re, -tr), a.im.mul_add(w.re, ti))
                        } else {
                            a * w
                        };
                        assert!(
                            got.re.to_bits() == want.re.to_bits()
                                && got.im.to_bits() == want.im.to_bits(),
                            "{level:?}: shape mismatch at chunk {c} elem {i}: {got:?} vs {want:?}"
                        );
                    }
                }
            });
        }
    }

    /// The blocked transpose moves every element to its transposed slot at
    /// every level, for shapes with and without ragged block edges, and
    /// transposing back restores the input.
    #[test]
    fn transpose_round_trips_exactly() {
        for (rows, cols) in [(4usize, 96usize), (2, 10), (4, 7), (5, 9), (3, 3), (1, 6), (8, 8)] {
            let src = demo(rows * cols, 5);
            for_each_isa(|level| {
                let mut t = vec![Complex32::ZERO; rows * cols];
                transpose(&mut t, &src, rows);
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(t[c * rows + r], src[r * cols + c], "{level:?} {rows}x{cols}");
                    }
                }
                let mut back = vec![Complex32::ZERO; rows * cols];
                transpose(&mut back, &t, cols);
                assert_eq!(back, src, "{level:?} {rows}x{cols} round trip");
            });
        }
    }

    #[test]
    #[should_panic(expected = "one twiddle per chunk")]
    fn cmul_rejects_twiddle_count_mismatch() {
        let src = demo(8, 3);
        let mut dst = vec![Complex32::ZERO; 4];
        gather_chunks_cmul(&mut dst, &src, &twiddles(3), 2, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gather_rejects_overrun() {
        let src = demo(5, 4);
        let mut dst = vec![Complex32::ZERO; 6];
        gather_chunks(&mut dst, &src, 2, 3);
    }
}
