//! Dispatched complex-SIMD FFT stage butterflies (radix 2 / 3 / 4 / 5).
//!
//! These are the vector butterflies of the FFT execution path (EFFT-style
//! cache-blocked execution): a Cooley–Tukey combine stage applies the same
//! twiddle/butterfly pattern to every element of a contiguous row, which maps
//! onto interleaved complex SIMD in two shapes:
//!
//! * **rows** — per-element twiddles. One stage of a single contiguous
//!   transform: `d0/d1/…` are the `m`-long sub-rows of one combine and
//!   `tw[k]` multiplies element `k`. Used by the 1D per-line plan.
//! * **cols** — one twiddle broadcast across `b` interleaved lines. The
//!   batched tile path packs `b` lines element-interleaved
//!   (`tile[k·b + lane]` = element `k` of line `lane`), so one twiddle load
//!   amortizes over `b` lines and every memory access is contiguous. A
//!   call covers `nodes` equal-sized butterfly groups at a fixed node
//!   stride ([`ColBlocks`]) — every node of one Cooley–Tukey stage shares
//!   its twiddle rows — so a tile runs each stage as one dispatched call,
//!   with each twiddle broadcast once per column for all nodes.
//!
//! Two arithmetic shapes exist. The *fused* kernels ([`bfly2_rows`],
//! [`bfly4_rows`], [`bfly2_cols`], [`bfly4_cols`]) contract the twiddle
//! product with FMA at `Avx2Fma`. The *plain* column kernels
//! ([`bfly2_cols_plain`], [`bfly3_cols`], [`bfly4_cols_plain`],
//! [`bfly5_cols`]) never do: at every level they reproduce, lane for lane,
//! the plain `Complex32` operator arithmetic of `nufft-fft`'s scalar
//! combine (twiddle product, then `bfly2`…`bfly5`), so the batched path can
//! vectorize the combines the per-line path runs as scalar loops.
//!
//! Bit-compatibility contract: at a fixed [`IsaLevel`], the *rows* and
//! *cols* kernels perform the identical arithmetic per element (same
//! multiply/add shapes, same FMA contraction), so a batched tile transform
//! is bit-identical to transforming its lines one at a time. The property
//! tests in `nufft-fft` pin this. The `Scalar` arm additionally matches the
//! plain `Complex32` operator arithmetic of the scalar butterflies in
//! `nufft-fft` (SSE2 matches it too — its lane ops are the same
//! mul/add/sub, only commuted where IEEE addition commutes exactly);
//! `Avx2Fma` fused kernels contract with FMA and therefore only match
//! themselves. Every kernel's scalar tail (the `b mod width` lanes) runs the
//! same arithmetic as its vector body.
//!
//! `StrictScalar` arms defeat auto-vectorization with per-element
//! `black_box`, preserving the Figure-13-style ISA comparison for the FFT
//! phase.

use crate::dispatch::{active_isa, IsaLevel};
use nufft_math::Complex32;

/// One radix-2 combine stage over contiguous rows: for every `k`,
/// `b = d1[k]·tw[k]`, then `d0[k] = d0[k] + b`, `d1[k] = d0[k] − b`.
///
/// # Panics
/// Panics if `d0`, `d1` and `tw` lengths differ.
#[inline]
pub fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
    assert!(d0.len() == tw.len() && d1.len() == tw.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_rows(d0, d1, tw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly2_rows(d0, d1, tw) },
        IsaLevel::StrictScalar => strict::bfly2_rows(d0, d1, tw),
        _ => scalar::bfly2_rows(d0, d1, tw),
    }
}

/// One radix-4 combine stage over contiguous rows; `tw1/tw2/tw3` are the
/// per-element twiddles of sub-rows 1–3 and `forward` selects the DFT sign.
///
/// # Panics
/// Panics if any row or twiddle length differs from `tw1.len()`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn bfly4_rows(
    d0: &mut [Complex32],
    d1: &mut [Complex32],
    d2: &mut [Complex32],
    d3: &mut [Complex32],
    tw1: &[Complex32],
    tw2: &[Complex32],
    tw3: &[Complex32],
    forward: bool,
) {
    let m = tw1.len();
    assert!(
        d0.len() == m && d1.len() == m && d2.len() == m && d3.len() == m,
        "row length mismatch"
    );
    assert!(tw2.len() == m && tw3.len() == m, "twiddle row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward) },
        IsaLevel::StrictScalar => strict::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward),
        _ => scalar::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward),
    }
}

/// Radix-2 combine with the twiddle multiply already applied (the
/// four-step path hoists it into the transpose gather, see
/// `crate::transpose`): `(d0[k], d1[k]) = (d0[k] + d1[k], d0[k] − d1[k])`.
/// Addition/subtraction round identically at every level, so all arms are
/// bitwise-equal; the `StrictScalar` arm still defeats auto-vectorization
/// for the ISA comparison. Layout-agnostic (rows and interleaved columns
/// alike — no per-element twiddle to line up).
///
/// # Panics
/// Panics if `d0` and `d1` lengths differ.
#[inline]
pub fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
    assert_eq!(d0.len(), d1.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_nt(d0, d1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly2_nt(d0, d1) },
        IsaLevel::StrictScalar => strict::bfly2_nt(d0, d1),
        _ => scalar::bfly2_nt(d0, d1),
    }
}

/// Radix-4 combine with twiddles already applied (see [`bfly2_nt`]); pure
/// add/sub/±i-rotation, bitwise-equal across all arms.
///
/// # Panics
/// Panics if any row length differs from `d0.len()`.
#[inline]
pub fn bfly4_nt(
    d0: &mut [Complex32],
    d1: &mut [Complex32],
    d2: &mut [Complex32],
    d3: &mut [Complex32],
    forward: bool,
) {
    let m = d0.len();
    assert!(d1.len() == m && d2.len() == m && d3.len() == m, "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_nt(d0, d1, d2, d3, forward) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly4_nt(d0, d1, d2, d3, forward) },
        IsaLevel::StrictScalar => strict::bfly4_nt(d0, d1, d2, d3, forward),
        _ => scalar::bfly4_nt(d0, d1, d2, d3, forward),
    }
}

/// Where a column kernel's butterflies sit in its buffer `d`: element `k`
/// of line `lane` in digit block `q` of node `g` is
/// `d[g·node_stride + q·step + k·b + lane]`, for `k` below the length `m`
/// of the twiddle rows. Twiddle `tw[q−1][k]` is broadcast across the `b`
/// lanes of column `k` and shared by every node, so one call runs a whole
/// Cooley–Tukey stage of an interleaved tile — every node of it — with
/// each twiddle broadcast once per column rather than once per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColBlocks {
    /// Interleaved lines per element (`b ≥ 1`).
    pub b: usize,
    /// Distance between consecutive digit blocks of one node (`≥ m·b`).
    pub step: usize,
    /// Number of nodes (`≥ 1`).
    pub nodes: usize,
    /// Distance between consecutive nodes; with more than one node it must
    /// clear a node's extent, `(r−1)·step + m·b`.
    pub node_stride: usize,
}

impl ColBlocks {
    /// One node of `b` interleaved lines whose digit blocks lie `step`
    /// apart.
    pub fn one(b: usize, step: usize) -> Self {
        ColBlocks { b, step, nodes: 1, node_stride: 0 }
    }

    /// Validates a radix-`r` call over `len` elements with twiddle rows of
    /// lengths `rows`.
    fn check(&self, r: usize, len: usize, rows: &[usize]) {
        assert!(self.b > 0, "batch width must be positive");
        assert!(self.nodes > 0, "node count must be positive");
        let m = rows[0];
        assert!(rows.iter().all(|&l| l == m), "twiddle row length mismatch");
        let block = m * self.b;
        assert!(self.step >= block, "column blocks overlap");
        let node = (r - 1) * self.step + block;
        assert!(self.nodes == 1 || self.node_stride >= node, "column nodes overlap");
        assert!(len >= (self.nodes - 1) * self.node_stride + node, "column block length mismatch");
    }
}

/// Radix-2 combine over `b` interleaved lines (layout in [`ColBlocks`]):
/// `t = d1·tw[k]`, then `(d0 + t, d0 − t)`, FMA-contracted at `Avx2Fma`.
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly2_cols(d: &mut [Complex32], tw: &[Complex32], at: ColBlocks) {
    at.check(2, d.len(), &[tw.len()]);
    let p = d.as_mut_ptr();
    // SAFETY (every arm): `check` proved every element the geometry names
    // lies in `d`; active_isa() only reports levels the host supports.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_cols::<true>(p, tw, at) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly2_cols(p, tw, at) },
        IsaLevel::StrictScalar => unsafe { strict::bfly2_cols(p, tw, at) },
        _ => unsafe { scalar::bfly2_cols(p, tw, at) },
    }
}

/// Radix-4 combine over `b` interleaved lines (layout in [`ColBlocks`],
/// butterfly as [`bfly4_rows`]); `tw` holds the twiddle rows of digits
/// 1–3, FMA-contracted at `Avx2Fma`.
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly4_cols(d: &mut [Complex32], tw: [&[Complex32]; 3], at: ColBlocks, forward: bool) {
    at.check(4, d.len(), &tw.map(<[_]>::len));
    let p = d.as_mut_ptr();
    // SAFETY: as in `bfly2_cols`.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_cols::<true>(p, tw, at, forward) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly4_cols(p, tw, at, forward) },
        IsaLevel::StrictScalar => unsafe { strict::bfly4_cols(p, tw, at, forward) },
        _ => unsafe { scalar::bfly4_cols(p, tw, at, forward) },
    }
}

/// [`bfly2_cols`] in plain arithmetic at every level (no FMA at
/// `Avx2Fma`): bitwise the scalar combine `t = d1·tw`, `(d0 + t, d0 − t)`.
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly2_cols_plain(d: &mut [Complex32], tw: &[Complex32], at: ColBlocks) {
    at.check(2, d.len(), &[tw.len()]);
    let p = d.as_mut_ptr();
    // SAFETY: as in `bfly2_cols`. The SSE2 and scalar fused arms are
    // already plain.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_cols::<false>(p, tw, at) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly2_cols(p, tw, at) },
        IsaLevel::StrictScalar => unsafe { strict::bfly2_cols(p, tw, at) },
        _ => unsafe { scalar::bfly2_cols(p, tw, at) },
    }
}

/// [`bfly4_cols`] in plain arithmetic at every level (no FMA at
/// `Avx2Fma`): bitwise the scalar combine (twiddle products, then
/// `nufft-fft`'s `bfly4`).
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly4_cols_plain(d: &mut [Complex32], tw: [&[Complex32]; 3], at: ColBlocks, forward: bool) {
    at.check(4, d.len(), &tw.map(<[_]>::len));
    let p = d.as_mut_ptr();
    // SAFETY: as in `bfly2_cols`.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_cols::<false>(p, tw, at, forward) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly4_cols(p, tw, at, forward) },
        IsaLevel::StrictScalar => unsafe { strict::bfly4_cols(p, tw, at, forward) },
        _ => unsafe { scalar::bfly4_cols(p, tw, at, forward) },
    }
}

/// Radix-3 combine over `b` interleaved lines (layout in [`ColBlocks`])
/// in plain arithmetic at every level: bitwise the scalar combine
/// `t = (d0, d1·tw[0], d2·tw[1])` followed by `nufft-fft`'s `bfly3`.
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly3_cols(d: &mut [Complex32], tw: [&[Complex32]; 2], at: ColBlocks, forward: bool) {
    at.check(3, d.len(), &tw.map(<[_]>::len));
    let p = d.as_mut_ptr();
    // SAFETY: as in `bfly2_cols`.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly3_cols(p, tw, at, forward) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly3_cols(p, tw, at, forward) },
        IsaLevel::StrictScalar => unsafe { strict::bfly3_cols(p, tw, at, forward) },
        _ => unsafe { scalar::bfly3_cols(p, tw, at, forward) },
    }
}

/// Radix-5 combine over `b` interleaved lines (layout in [`ColBlocks`])
/// in plain arithmetic at every level: bitwise the scalar combine
/// `t = (d0, d1·tw[0], …, d4·tw[3])` followed by `nufft-fft`'s `bfly5`.
///
/// # Panics
/// Panics if `at` is inconsistent or `d` is shorter than its extent.
#[inline]
pub fn bfly5_cols(d: &mut [Complex32], tw: [&[Complex32]; 4], at: ColBlocks, forward: bool) {
    at.check(5, d.len(), &tw.map(<[_]>::len));
    let p = d.as_mut_ptr();
    // SAFETY: as in `bfly2_cols`.
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2Fma => unsafe { avx2::bfly5_cols(p, tw, at, forward) },
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Sse2 => unsafe { sse2::bfly5_cols(p, tw, at, forward) },
        IsaLevel::StrictScalar => unsafe { strict::bfly5_cols(p, tw, at, forward) },
        _ => unsafe { scalar::bfly5_cols(p, tw, at, forward) },
    }
}

/// Runs `$body` once per (node, column) of a column-kernel call (layout
/// in [`ColBlocks`]), with `$e` pointing at the column's first element in
/// digit block 0 (block `q` starts `q·step` further on) and `$w` bound to
/// `$prep`, the column's twiddles prepared for the arm, evaluated at
/// column index `$k`. Must be expanded in an `unsafe` context whose caller
/// guarantees every element of the call lies in `d`'s allocation.
///
/// The walk is node-major, so each node's blocks stream in order as in
/// the recursion; a column-major walk would put consecutive butterflies a
/// node stride apart, and power-of-two node strides alias every 4 KiB
/// against the stores still in flight. With one column per node (a tile's
/// innermost stage, which has the most nodes) `$prep` runs once for all
/// nodes: the twiddle broadcasts are hoisted out of the node loop.
macro_rules! for_each_col {
    ($d:expr, $at:expr, $m:expr, |$k:ident| $prep:block, |$e:ident, $w:pat_param| $body:block) => {{
        let (d, at, m): (*mut Complex32, ColBlocks, usize) = ($d, $at, $m);
        if m == 1 {
            let $k = 0usize;
            let $w = $prep;
            for g in 0..at.nodes {
                let $e = d.add(g * at.node_stride);
                $body
            }
        } else {
            for g in 0..at.nodes {
                let node = d.add(g * at.node_stride);
                for $k in 0..m {
                    let $w = $prep;
                    let $e = node.add($k * at.b);
                    $body
                }
            }
        }
    }};
}

/// Scalar reference arms: plain `Complex32` operator arithmetic, identical
/// element-for-element to the scalar butterflies in `nufft-fft`.
mod scalar {
    use super::{ColBlocks, Complex32};

    /// `sign·√3/2`, the imaginary part of the radix-3 root `W3`.
    const HALF_SQRT3: f32 = 0.866_025_4;
    /// cos/sin of 2π/5 and 4π/5 (the radix-5 roots).
    pub(super) const C1: f32 = 0.309_017;
    pub(super) const S1: f32 = 0.951_056_5;
    pub(super) const C2: f32 = -0.809_017;
    pub(super) const S2: f32 = 0.587_785_24;

    /// The `(re, im)` factors of the radix-3 rotation `sign·i·(√3/2)·z`:
    /// `re = k.0·z.im`, `im = k.1·z.re` (the scalar `bfly3`'s products).
    #[inline(always)]
    pub(super) fn bfly3_rot(sign: f32) -> (f32, f32) {
        (-sign * HALF_SQRT3, sign * HALF_SQRT3)
    }

    /// `(a + b·w, a − b·w)` with plain complex arithmetic.
    #[inline(always)]
    pub(super) fn bfly2_one(a: Complex32, b: Complex32, w: Complex32) -> (Complex32, Complex32) {
        let t = b * w;
        (a + t, a - t)
    }

    /// Twiddled 4-point DFT of `(a, b, c, d)`; `sign` is −1 forward, +1
    /// backward (the arithmetic of `nufft-fft`'s `bfly4`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_one(
        a: Complex32,
        b: Complex32,
        c: Complex32,
        d: Complex32,
        w1: Complex32,
        w2: Complex32,
        w3: Complex32,
        sign: f32,
    ) -> (Complex32, Complex32, Complex32, Complex32) {
        let (b, c, d) = (b * w1, c * w2, d * w3);
        let s02 = a + c;
        let d02 = a - c;
        let s13 = b + d;
        let d13 = b - d;
        let j = Complex32::new(-sign * d13.im, sign * d13.re);
        (s02 + s13, d02 + j, s02 - s13, d02 - j)
    }

    /// Twiddled 3-point DFT of `x` (the arithmetic of `nufft-fft`'s
    /// `bfly3` after the plain twiddle products).
    #[inline(always)]
    pub(super) fn bfly3_one(x: [Complex32; 3], w: [Complex32; 2], sign: f32) -> [Complex32; 3] {
        let (a, b, c) = (x[0], x[1] * w[0], x[2] * w[1]);
        let (kr, ki) = bfly3_rot(sign);
        let sum = b + c;
        let diff = b - c;
        let rot = Complex32::new(kr * diff.im, ki * diff.re);
        let mid = a - sum.scale(0.5);
        [a + sum, mid + rot, mid - rot]
    }

    /// Twiddled 5-point DFT of `x` (the arithmetic of `nufft-fft`'s
    /// `bfly5` after the plain twiddle products).
    #[inline(always)]
    pub(super) fn bfly5_one(x: [Complex32; 5], w: [Complex32; 4], sign: f32) -> [Complex32; 5] {
        let a = x[0];
        let (b, c, d, e) = (x[1] * w[0], x[2] * w[1], x[3] * w[2], x[4] * w[3]);
        let (p1, m1) = (b + e, b - e);
        let (p2, m2) = (c + d, c - d);
        let r1 = a + p1.scale(C1) + p2.scale(C2);
        let r2 = a + p1.scale(C2) + p2.scale(C1);
        let i1 =
            Complex32::new(-sign * (S1 * m1.im + S2 * m2.im), sign * (S1 * m1.re + S2 * m2.re));
        let i2 =
            Complex32::new(-sign * (S2 * m1.im - S1 * m2.im), sign * (S2 * m1.re - S1 * m2.re));
        [a + p1 + p2, r1 + i1, r2 + i2, r2 - i2, r1 - i1]
    }

    /// Runs `f` — one radix-`R` combine of `R` elements under their `T`
    /// twiddles — at element `i` of every block, in place.
    ///
    /// # Safety
    /// Each `p[q]` must be valid for reads and writes at offset `i`.
    #[inline(always)]
    pub(super) unsafe fn one_at<const R: usize, const T: usize>(
        p: &[*mut Complex32; R],
        i: usize,
        w: [Complex32; T],
        load: impl Fn(*const Complex32) -> Complex32,
        f: impl Fn([Complex32; R], [Complex32; T]) -> [Complex32; R],
    ) {
        // Index loops rather than `array::from_fn`/`map`, which LLVM does
        // not reliably inline here.
        let mut x = [Complex32::ZERO; R];
        for q in 0..R {
            // SAFETY: the caller guarantees every offset is in bounds.
            x[q] = load(unsafe { p[q].add(i) });
        }
        let y = f(x, w);
        for q in 0..R {
            // SAFETY: as above.
            unsafe { p[q].add(i).write(y[q]) };
        }
    }

    /// The `R` digit-block pointers of the column at `e`, `step` apart.
    ///
    /// # Safety
    /// The offsets must lie in the allocation `e` points into.
    #[inline(always)]
    pub(super) unsafe fn blocks<const R: usize>(
        e: *mut Complex32,
        step: usize,
    ) -> [*mut Complex32; R] {
        let mut p = [e; R];
        for (q, x) in p.iter_mut().enumerate() {
            // SAFETY: the caller guarantees the offsets are in bounds.
            *x = unsafe { e.add(q * step) };
        }
        p
    }

    /// Runs `f` over every element of a column-kernel call (layout in
    /// [`ColBlocks`]): element `lane` of column `k` of every node combines
    /// under twiddles `tw[·][k]`, its inputs read through `load`. The
    /// scalar and strict-scalar arms of every column kernel.
    ///
    /// # Safety
    /// Every element `at` names over `tw[0].len()` columns must be valid
    /// for reads and writes through `d`.
    #[inline(always)]
    pub(super) unsafe fn cols_with<const R: usize, const T: usize>(
        d: *mut Complex32,
        tw: [&[Complex32]; T],
        at: ColBlocks,
        load: impl Fn(*const Complex32) -> Complex32,
        f: impl Fn([Complex32; R], [Complex32; T]) -> [Complex32; R],
    ) {
        #![allow(unsafe_op_in_unsafe_fn)]
        let prep = |k: usize| {
            let mut w = [Complex32::ZERO; T];
            for (x, row) in w.iter_mut().zip(tw) {
                *x = row[k];
            }
            w
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, w| {
            let p = blocks::<R>(e, at.step);
            for lane in 0..at.b {
                one_at(&p, lane, w, &load, &f);
            }
        });
    }

    /// The radix-2 column combine of [`bfly2_one`] as an array map.
    #[inline(always)]
    pub(super) fn bfly2_arr(x: [Complex32; 2], w: [Complex32; 1]) -> [Complex32; 2] {
        let (a, b) = bfly2_one(x[0], x[1], w[0]);
        [a, b]
    }

    /// The radix-4 column combine of [`bfly4_one`] as an array map.
    #[inline(always)]
    pub(super) fn bfly4_arr(x: [Complex32; 4], w: [Complex32; 3], sign: f32) -> [Complex32; 4] {
        let (a, b, c, d) = bfly4_one(x[0], x[1], x[2], x[3], w[0], w[1], w[2], sign);
        [a, b, c, d]
    }

    /// # Safety
    /// As [`cols_with`].
    pub(super) unsafe fn bfly2_cols(d: *mut Complex32, tw: &[Complex32], at: ColBlocks) {
        // SAFETY: `cols_with` only loads in-bounds element pointers.
        unsafe { cols_with(d, [tw], at, |z| *z, bfly2_arr) };
    }

    /// # Safety
    /// As [`cols_with`].
    pub(super) unsafe fn bfly3_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 2],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| *z, |x, w| bfly3_one(x, w, sign)) };
    }

    /// # Safety
    /// As [`cols_with`].
    pub(super) unsafe fn bfly4_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 3],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| *z, |x, w| bfly4_arr(x, w, sign)) };
    }

    /// # Safety
    /// As [`cols_with`].
    pub(super) unsafe fn bfly5_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 4],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| *z, |x, w| bfly5_one(x, w, sign)) };
    }

    pub(super) fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        for k in 0..tw.len() {
            let (x, y) = bfly2_one(d0[k], d1[k], tw[k]);
            d0[k] = x;
            d1[k] = y;
        }
    }

    pub(super) fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        for k in 0..d0.len() {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..d0.len() {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            let (x0, x1, x2, x3) =
                bfly4_one(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
        }
    }
}

/// Strict-scalar arms: per-element `black_box` forces element-at-a-time
/// memory traffic, defeating SLP/loop auto-vectorization (the paper's
/// true-scalar baseline). Same arithmetic as [`scalar`].
mod strict {
    use super::scalar::{bfly2_arr, bfly3_one, bfly4_arr, bfly5_one, cols_with};
    use super::{ColBlocks, Complex32};
    use core::hint::black_box;

    pub(super) fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        for k in 0..tw.len() {
            let a = *black_box(&d0[k]);
            let t = *black_box(&d1[k]) * tw[k];
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        for k in 0..d0.len() {
            let a = *black_box(&d0[k]);
            let t = *black_box(&d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..d0.len() {
            let a = *black_box(&d0[k]);
            let b = *black_box(&d1[k]);
            let c = *black_box(&d2[k]);
            let d = *black_box(&d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            let a = *black_box(&d0[k]);
            let b = *black_box(&d1[k]) * tw1[k];
            let c = *black_box(&d2[k]) * tw2[k];
            let d = *black_box(&d3[k]) * tw3[k];
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    /// Loads through `black_box`: one element at a time, never vectorized.
    ///
    /// # Safety
    /// `z` must be valid for reads.
    #[inline(always)]
    unsafe fn opaque(z: *const Complex32) -> Complex32 {
        // SAFETY: the caller guarantees `z` is valid.
        unsafe { *black_box(&*z) }
    }

    /// # Safety
    /// As `scalar::cols_with`.
    pub(super) unsafe fn bfly2_cols(d: *mut Complex32, tw: &[Complex32], at: ColBlocks) {
        // SAFETY: `cols_with` only loads in-bounds element pointers.
        unsafe { cols_with(d, [tw], at, |z| opaque(z), bfly2_arr) };
    }

    /// # Safety
    /// As `scalar::cols_with`.
    pub(super) unsafe fn bfly3_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 2],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| opaque(z), |x, w| bfly3_one(x, w, sign)) };
    }

    /// # Safety
    /// As `scalar::cols_with`.
    pub(super) unsafe fn bfly4_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 3],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| opaque(z), |x, w| bfly4_arr(x, w, sign)) };
    }

    /// # Safety
    /// As `scalar::cols_with`.
    pub(super) unsafe fn bfly5_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 4],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        // SAFETY: as above.
        unsafe { cols_with(d, tw, at, |z| opaque(z), |x, w| bfly5_one(x, w, sign)) };
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::scalar::{bfly2_arr, bfly3_one, bfly3_rot, bfly4_arr, bfly5_one, blocks, one_at};
    use super::{ColBlocks, Complex32};
    use core::arch::x86_64::*;

    /// Complex multiply of two interleaved pairs: `re = ar·wr − ai·wi`,
    /// `im = ai·wr + ar·wi` — the plain (non-FMA) shape, so lane results
    /// are bitwise equal to scalar `Complex32` multiplication.
    #[inline(always)]
    unsafe fn cmul2(a: __m128, w: __m128) -> __m128 {
        let wr = _mm_shuffle_ps(w, w, 0b1010_0000); // [wr0, wr0, wr1, wr1]
        let wi = _mm_shuffle_ps(w, w, 0b1111_0101); // [wi0, wi0, wi1, wi1]
        let asw = _mm_shuffle_ps(a, a, 0b1011_0001); // [ai0, ar0, ai1, ar1]
        let t1 = _mm_mul_ps(a, wr); // [ar·wr, ai·wr, …]
        let t2 = _mm_mul_ps(asw, wi); // [ai·wi, ar·wi, …]
                                      // Negate the real lanes of t2, then add: re = ar·wr − ai·wi.
        let neg_re = _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN));
        _mm_add_ps(t1, _mm_xor_ps(t2, neg_re))
    }

    /// `sign·i·z` per complex lane: swap re/im then negate one lane.
    #[inline(always)]
    unsafe fn rot90_2(z: __m128, forward: bool) -> __m128 {
        let sw = _mm_shuffle_ps(z, z, 0b1011_0001); // [im, re] per complex
                                                    // forward (sign −1): j = (im, −re); backward: j = (−im, re).
        let mask = if forward {
            _mm_castsi128_ps(_mm_set_epi32(i32::MIN, 0, i32::MIN, 0))
        } else {
            _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN))
        };
        _mm_xor_ps(sw, mask)
    }

    /// Broadcast-twiddle form of [`cmul2`]: the same plain lane arithmetic
    /// with `w = (wr, wi)` splatted across both complexes.
    #[inline(always)]
    unsafe fn cmul2_bcast(x: __m128, wr: __m128, wi: __m128) -> __m128 {
        let neg_re = _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN));
        let xsw = _mm_shuffle_ps(x, x, 0b1011_0001);
        _mm_add_ps(_mm_mul_ps(x, wr), _mm_xor_ps(_mm_mul_ps(xsw, wi), neg_re))
    }

    /// Swaps re/im within each complex lane.
    #[inline(always)]
    unsafe fn swap2(z: __m128) -> __m128 {
        _mm_shuffle_ps(z, z, 0b1011_0001)
    }

    /// # Safety
    /// CPU must support SSE2 (guaranteed on x86_64; kept unsafe for raw
    /// pointer use and symmetry with the AVX arm).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        let m = tw.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut k = 0;
        while k + 2 <= m {
            let a = _mm_loadu_ps(p0.add(2 * k));
            let t = cmul2(_mm_loadu_ps(p1.add(2 * k)), _mm_loadu_ps(pw.add(2 * k)));
            _mm_storeu_ps(p0.add(2 * k), _mm_add_ps(a, t));
            _mm_storeu_ps(p1.add(2 * k), _mm_sub_ps(a, t));
            k += 2;
        }
        while k < m {
            // Plain complex mul matches cmul2 lane arithmetic bitwise.
            let a = d0[k];
            let t = d1[k] * tw[k];
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let m = tw1.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let (w1, w2, w3) =
            (tw1.as_ptr() as *const f32, tw2.as_ptr() as *const f32, tw3.as_ptr() as *const f32);
        let mut k = 0;
        while k + 2 <= m {
            let o = 2 * k;
            let a = _mm_loadu_ps(p0.add(o));
            let b = cmul2(_mm_loadu_ps(p1.add(o)), _mm_loadu_ps(w1.add(o)));
            let c = cmul2(_mm_loadu_ps(p2.add(o)), _mm_loadu_ps(w2.add(o)));
            let d = cmul2(_mm_loadu_ps(p3.add(o)), _mm_loadu_ps(w3.add(o)));
            let s02 = _mm_add_ps(a, c);
            let d02 = _mm_sub_ps(a, c);
            let s13 = _mm_add_ps(b, d);
            let j = rot90_2(_mm_sub_ps(b, d), forward);
            _mm_storeu_ps(p0.add(o), _mm_add_ps(s02, s13));
            _mm_storeu_ps(p1.add(o), _mm_add_ps(d02, j));
            _mm_storeu_ps(p2.add(o), _mm_sub_ps(s02, s13));
            _mm_storeu_ps(p3.add(o), _mm_sub_ps(d02, j));
            k += 2;
        }
        while k < m {
            let (x0, x1, x2, x3) =
                super::scalar::bfly4_one(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        let m = d0.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let mut k = 0;
        while k + 2 <= m {
            let a = _mm_loadu_ps(p0.add(2 * k));
            let t = _mm_loadu_ps(p1.add(2 * k));
            _mm_storeu_ps(p0.add(2 * k), _mm_add_ps(a, t));
            _mm_storeu_ps(p1.add(2 * k), _mm_sub_ps(a, t));
            k += 2;
        }
        while k < m {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let m = d0.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let mut k = 0;
        while k + 2 <= m {
            let o = 2 * k;
            let a = _mm_loadu_ps(p0.add(o));
            let b = _mm_loadu_ps(p1.add(o));
            let c = _mm_loadu_ps(p2.add(o));
            let d = _mm_loadu_ps(p3.add(o));
            let s02 = _mm_add_ps(a, c);
            let d02 = _mm_sub_ps(a, c);
            let s13 = _mm_add_ps(b, d);
            let j = rot90_2(_mm_sub_ps(b, d), forward);
            _mm_storeu_ps(p0.add(o), _mm_add_ps(s02, s13));
            _mm_storeu_ps(p1.add(o), _mm_add_ps(d02, j));
            _mm_storeu_ps(p2.add(o), _mm_sub_ps(s02, s13));
            _mm_storeu_ps(p3.add(o), _mm_sub_ps(d02, j));
            k += 2;
        }
        while k < m {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`]; every element `at` names over `tw.len()` columns
    /// must be valid for reads and writes through `d`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_cols(d: *mut Complex32, tw: &[Complex32], at: ColBlocks) {
        let prep = |k: usize| {
            let w = tw[k];
            (w, _mm_set1_ps(w.re), _mm_set1_ps(w.im))
        };
        for_each_col!(d, at, tw.len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let (f0, f1) = (e as *mut f32, e.add(at.step) as *mut f32);
            let mut lane = 0;
            while lane + 2 <= at.b {
                let o = 2 * lane;
                let a = _mm_loadu_ps(f0.add(o));
                let t = cmul2_bcast(_mm_loadu_ps(f1.add(o)), wr, wi);
                _mm_storeu_ps(f0.add(o), _mm_add_ps(a, t));
                _mm_storeu_ps(f1.add(o), _mm_sub_ps(a, t));
                lane += 2;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, at.step), lane, [w], |z| *z, bfly2_arr);
            }
        });
    }

    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly4_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 3],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k], tw[2][k]];
            let wr = [_mm_set1_ps(w[0].re), _mm_set1_ps(w[1].re), _mm_set1_ps(w[2].re)];
            let wi = [_mm_set1_ps(w[0].im), _mm_set1_ps(w[1].im), _mm_set1_ps(w[2].im)];
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s), e.add(3 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 2 <= at.b {
                let o = 2 * lane;
                let a = _mm_loadu_ps(f[0].add(o));
                let bb = cmul2_bcast(_mm_loadu_ps(f[1].add(o)), wr[0], wi[0]);
                let c = cmul2_bcast(_mm_loadu_ps(f[2].add(o)), wr[1], wi[1]);
                let dd = cmul2_bcast(_mm_loadu_ps(f[3].add(o)), wr[2], wi[2]);
                let s02 = _mm_add_ps(a, c);
                let d02 = _mm_sub_ps(a, c);
                let s13 = _mm_add_ps(bb, dd);
                let j = rot90_2(_mm_sub_ps(bb, dd), forward);
                _mm_storeu_ps(f[0].add(o), _mm_add_ps(s02, s13));
                _mm_storeu_ps(f[1].add(o), _mm_add_ps(d02, j));
                _mm_storeu_ps(f[2].add(o), _mm_sub_ps(s02, s13));
                _mm_storeu_ps(f[3].add(o), _mm_sub_ps(d02, j));
                lane += 2;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, s), lane, w, |z| *z, |x, w| bfly4_arr(x, w, sign));
            }
        });
    }

    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly3_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 2],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (kr, ki) = bfly3_rot(sign);
        let krot = _mm_setr_ps(kr, ki, kr, ki);
        let half = _mm_set1_ps(0.5);
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k]];
            let wr = [_mm_set1_ps(w[0].re), _mm_set1_ps(w[1].re)];
            let wi = [_mm_set1_ps(w[0].im), _mm_set1_ps(w[1].im)];
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 2 <= at.b {
                let o = 2 * lane;
                let a = _mm_loadu_ps(f[0].add(o));
                let x1 = cmul2_bcast(_mm_loadu_ps(f[1].add(o)), wr[0], wi[0]);
                let x2 = cmul2_bcast(_mm_loadu_ps(f[2].add(o)), wr[1], wi[1]);
                let sum = _mm_add_ps(x1, x2);
                let rot = _mm_mul_ps(swap2(_mm_sub_ps(x1, x2)), krot);
                let mid = _mm_sub_ps(a, _mm_mul_ps(sum, half));
                _mm_storeu_ps(f[0].add(o), _mm_add_ps(a, sum));
                _mm_storeu_ps(f[1].add(o), _mm_add_ps(mid, rot));
                _mm_storeu_ps(f[2].add(o), _mm_sub_ps(mid, rot));
                lane += 2;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, s), lane, w, |z| *z, |x, w| bfly3_one(x, w, sign));
            }
        });
    }

    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly5_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 4],
        at: ColBlocks,
        forward: bool,
    ) {
        use super::scalar::{C1, C2, S1, S2};
        let sign = if forward { -1.0f32 } else { 1.0 };
        let sg = _mm_setr_ps(-sign, sign, -sign, sign);
        let (c1, c2) = (_mm_set1_ps(C1), _mm_set1_ps(C2));
        let (s1, s2) = (_mm_set1_ps(S1), _mm_set1_ps(S2));
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k], tw[2][k], tw[3][k]];
            let wr = [w[0].re, w[1].re, w[2].re, w[3].re].map(|v| _mm_set1_ps(v));
            let wi = [w[0].im, w[1].im, w[2].im, w[3].im].map(|v| _mm_set1_ps(v));
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s), e.add(3 * s), e.add(4 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 2 <= at.b {
                let o = 2 * lane;
                let a = _mm_loadu_ps(f[0].add(o));
                let c = |q: usize| cmul2_bcast(_mm_loadu_ps(f[q].add(o)), wr[q - 1], wi[q - 1]);
                let x = [c(1), c(2), c(3), c(4)];
                let (p1, m1) = (_mm_add_ps(x[0], x[3]), _mm_sub_ps(x[0], x[3]));
                let (p2, m2) = (_mm_add_ps(x[1], x[2]), _mm_sub_ps(x[1], x[2]));
                let r1 = _mm_add_ps(_mm_add_ps(a, _mm_mul_ps(p1, c1)), _mm_mul_ps(p2, c2));
                let r2 = _mm_add_ps(_mm_add_ps(a, _mm_mul_ps(p1, c2)), _mm_mul_ps(p2, c1));
                let (m1s, m2s) = (swap2(m1), swap2(m2));
                let i1 = _mm_mul_ps(_mm_add_ps(_mm_mul_ps(m1s, s1), _mm_mul_ps(m2s, s2)), sg);
                let i2 = _mm_mul_ps(_mm_sub_ps(_mm_mul_ps(m1s, s2), _mm_mul_ps(m2s, s1)), sg);
                _mm_storeu_ps(f[0].add(o), _mm_add_ps(_mm_add_ps(a, p1), p2));
                _mm_storeu_ps(f[1].add(o), _mm_add_ps(r1, i1));
                _mm_storeu_ps(f[2].add(o), _mm_add_ps(r2, i2));
                _mm_storeu_ps(f[3].add(o), _mm_sub_ps(r2, i2));
                _mm_storeu_ps(f[4].add(o), _mm_sub_ps(r1, i1));
                lane += 2;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, s), lane, w, |z| *z, |x, w| bfly5_one(x, w, sign));
            }
        });
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::scalar::{bfly3_one, bfly3_rot, bfly5_one, blocks, one_at};
    use super::{ColBlocks, Complex32};
    use core::arch::x86_64::*;

    /// FMA-contracted complex multiply of four interleaved pairs:
    /// `re = fma(ar, wr, −ai·wi)`, `im = fma(ai, wr, ar·wi)` via
    /// `fmaddsub`. [`cmul_one`] is its exact scalar equivalent.
    #[inline(always)]
    unsafe fn cmul4(a: __m256, w: __m256) -> __m256 {
        let wr = _mm256_moveldup_ps(w);
        let wi = _mm256_movehdup_ps(w);
        let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
        _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi))
    }

    /// Broadcast-twiddle variant of [`cmul4`]: with `FMA` the same per-lane
    /// arithmetic, without it the plain shape `re = ar·wr − ai·wi`,
    /// `im = ai·wr + ar·wi` (bitwise scalar `Complex32` multiplication).
    #[inline(always)]
    unsafe fn cmul4_bcast<const FMA: bool>(a: __m256, wr: __m256, wi: __m256) -> __m256 {
        let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
        if FMA {
            _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi))
        } else {
            _mm256_addsub_ps(_mm256_mul_ps(a, wr), _mm256_mul_ps(asw, wi))
        }
    }

    /// Scalar tail op matching [`cmul4`] bit-for-bit (FMA contraction via
    /// `mul_add`, which lowers to the same fused operation).
    #[inline(always)]
    fn cmul_one(a: Complex32, w: Complex32) -> Complex32 {
        let tr = a.im * w.im;
        let ti = a.re * w.im;
        Complex32::new(a.re.mul_add(w.re, -tr), a.im.mul_add(w.re, ti))
    }

    /// Scalar tail op matching [`cmul4_bcast`]`::<FMA>` bit-for-bit.
    #[inline(always)]
    fn cmul_one_as<const FMA: bool>(a: Complex32, w: Complex32) -> Complex32 {
        if FMA {
            cmul_one(a, w)
        } else {
            a * w
        }
    }

    /// Scalar tail of the radix-4 butterfly with [`cmul_one_as`]`::<FMA>`
    /// twiddle multiplies (matches the vector arithmetic lane-for-lane).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn bfly4_one_as<const FMA: bool>(
        a: Complex32,
        b: Complex32,
        c: Complex32,
        d: Complex32,
        w1: Complex32,
        w2: Complex32,
        w3: Complex32,
        sign: f32,
    ) -> (Complex32, Complex32, Complex32, Complex32) {
        let (b, c, d) =
            (cmul_one_as::<FMA>(b, w1), cmul_one_as::<FMA>(c, w2), cmul_one_as::<FMA>(d, w3));
        let s02 = a + c;
        let d02 = a - c;
        let s13 = b + d;
        let d13 = b - d;
        let j = Complex32::new(-sign * d13.im, sign * d13.re);
        (s02 + s13, d02 + j, s02 - s13, d02 - j)
    }

    /// `sign·i·z` per complex lane.
    #[inline(always)]
    unsafe fn rot90_4(z: __m256, forward: bool) -> __m256 {
        let sw = _mm256_shuffle_ps(z, z, 0b1011_0001);
        let mask = if forward {
            _mm256_castsi256_ps(_mm256_set_epi32(
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
            ))
        } else {
            _mm256_castsi256_ps(_mm256_set_epi32(
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
            ))
        };
        _mm256_xor_ps(sw, mask)
    }

    /// # Safety
    /// CPU must support AVX2 and FMA (checked by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        let m = tw.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut k = 0;
        while k + 4 <= m {
            let a = _mm256_loadu_ps(p0.add(2 * k));
            let t = cmul4(_mm256_loadu_ps(p1.add(2 * k)), _mm256_loadu_ps(pw.add(2 * k)));
            _mm256_storeu_ps(p0.add(2 * k), _mm256_add_ps(a, t));
            _mm256_storeu_ps(p1.add(2 * k), _mm256_sub_ps(a, t));
            k += 4;
        }
        while k < m {
            let a = d0[k];
            let t = cmul_one(d1[k], tw[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let m = tw1.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let (w1, w2, w3) =
            (tw1.as_ptr() as *const f32, tw2.as_ptr() as *const f32, tw3.as_ptr() as *const f32);
        let mut k = 0;
        while k + 4 <= m {
            let o = 2 * k;
            let a = _mm256_loadu_ps(p0.add(o));
            let b = cmul4(_mm256_loadu_ps(p1.add(o)), _mm256_loadu_ps(w1.add(o)));
            let c = cmul4(_mm256_loadu_ps(p2.add(o)), _mm256_loadu_ps(w2.add(o)));
            let d = cmul4(_mm256_loadu_ps(p3.add(o)), _mm256_loadu_ps(w3.add(o)));
            let s02 = _mm256_add_ps(a, c);
            let d02 = _mm256_sub_ps(a, c);
            let s13 = _mm256_add_ps(b, d);
            let j = rot90_4(_mm256_sub_ps(b, d), forward);
            _mm256_storeu_ps(p0.add(o), _mm256_add_ps(s02, s13));
            _mm256_storeu_ps(p1.add(o), _mm256_add_ps(d02, j));
            _mm256_storeu_ps(p2.add(o), _mm256_sub_ps(s02, s13));
            _mm256_storeu_ps(p3.add(o), _mm256_sub_ps(d02, j));
            k += 4;
        }
        while k < m {
            let (x0, x1, x2, x3) =
                bfly4_one_as::<true>(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        let m = d0.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let mut k = 0;
        while k + 4 <= m {
            let a = _mm256_loadu_ps(p0.add(2 * k));
            let t = _mm256_loadu_ps(p1.add(2 * k));
            _mm256_storeu_ps(p0.add(2 * k), _mm256_add_ps(a, t));
            _mm256_storeu_ps(p1.add(2 * k), _mm256_sub_ps(a, t));
            k += 4;
        }
        while k < m {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let m = d0.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let mut k = 0;
        while k + 4 <= m {
            let o = 2 * k;
            let a = _mm256_loadu_ps(p0.add(o));
            let b = _mm256_loadu_ps(p1.add(o));
            let c = _mm256_loadu_ps(p2.add(o));
            let d = _mm256_loadu_ps(p3.add(o));
            let s02 = _mm256_add_ps(a, c);
            let d02 = _mm256_sub_ps(a, c);
            let s13 = _mm256_add_ps(b, d);
            let j = rot90_4(_mm256_sub_ps(b, d), forward);
            _mm256_storeu_ps(p0.add(o), _mm256_add_ps(s02, s13));
            _mm256_storeu_ps(p1.add(o), _mm256_add_ps(d02, j));
            _mm256_storeu_ps(p2.add(o), _mm256_sub_ps(s02, s13));
            _mm256_storeu_ps(p3.add(o), _mm256_sub_ps(d02, j));
            k += 4;
        }
        while k < m {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
            k += 1;
        }
    }

    /// Radix-2 columns in the `FMA` (fused) or plain arithmetic shape.
    ///
    /// # Safety
    /// See [`bfly2_rows`]; every element `at` names over `tw.len()` columns
    /// must be valid for reads and writes through `d`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_cols<const FMA: bool>(
        d: *mut Complex32,
        tw: &[Complex32],
        at: ColBlocks,
    ) {
        let prep = |k: usize| {
            let w = tw[k];
            (w, _mm256_set1_ps(w.re), _mm256_set1_ps(w.im))
        };
        for_each_col!(d, at, tw.len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let (f0, f1) = (e as *mut f32, e.add(at.step) as *mut f32);
            let mut lane = 0;
            while lane + 4 <= at.b {
                let o = 2 * lane;
                let a = _mm256_loadu_ps(f0.add(o));
                let t = cmul4_bcast::<FMA>(_mm256_loadu_ps(f1.add(o)), wr, wi);
                _mm256_storeu_ps(f0.add(o), _mm256_add_ps(a, t));
                _mm256_storeu_ps(f1.add(o), _mm256_sub_ps(a, t));
                lane += 4;
            }
            for lane in lane..at.b {
                one_at(
                    &blocks(e, at.step),
                    lane,
                    [w],
                    |z| *z,
                    |x, w| {
                        let t = cmul_one_as::<FMA>(x[1], w[0]);
                        [x[0] + t, x[0] - t]
                    },
                );
            }
        });
    }

    /// Radix-4 columns in the `FMA` (fused) or plain arithmetic shape.
    ///
    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly4_cols<const FMA: bool>(
        d: *mut Complex32,
        tw: [&[Complex32]; 3],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k], tw[2][k]];
            let wr = [_mm256_set1_ps(w[0].re), _mm256_set1_ps(w[1].re), _mm256_set1_ps(w[2].re)];
            let wi = [_mm256_set1_ps(w[0].im), _mm256_set1_ps(w[1].im), _mm256_set1_ps(w[2].im)];
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s), e.add(3 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 4 <= at.b {
                let o = 2 * lane;
                let a = _mm256_loadu_ps(f[0].add(o));
                let bb = cmul4_bcast::<FMA>(_mm256_loadu_ps(f[1].add(o)), wr[0], wi[0]);
                let c = cmul4_bcast::<FMA>(_mm256_loadu_ps(f[2].add(o)), wr[1], wi[1]);
                let dd = cmul4_bcast::<FMA>(_mm256_loadu_ps(f[3].add(o)), wr[2], wi[2]);
                let s02 = _mm256_add_ps(a, c);
                let d02 = _mm256_sub_ps(a, c);
                let s13 = _mm256_add_ps(bb, dd);
                let j = rot90_4(_mm256_sub_ps(bb, dd), forward);
                _mm256_storeu_ps(f[0].add(o), _mm256_add_ps(s02, s13));
                _mm256_storeu_ps(f[1].add(o), _mm256_add_ps(d02, j));
                _mm256_storeu_ps(f[2].add(o), _mm256_sub_ps(s02, s13));
                _mm256_storeu_ps(f[3].add(o), _mm256_sub_ps(d02, j));
                lane += 4;
            }
            for lane in lane..at.b {
                one_at(
                    &blocks(e, s),
                    lane,
                    w,
                    |z| *z,
                    |x, w| {
                        let (a, b, c, d) =
                            bfly4_one_as::<FMA>(x[0], x[1], x[2], x[3], w[0], w[1], w[2], sign);
                        [a, b, c, d]
                    },
                );
            }
        });
    }

    /// Swaps re/im within each complex lane.
    #[inline(always)]
    unsafe fn swap4(z: __m256) -> __m256 {
        _mm256_shuffle_ps(z, z, 0b1011_0001)
    }

    /// Plain-shape radix-3 columns (no FMA).
    ///
    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly3_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 2],
        at: ColBlocks,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (kr, ki) = bfly3_rot(sign);
        let krot = _mm256_setr_ps(kr, ki, kr, ki, kr, ki, kr, ki);
        let half = _mm256_set1_ps(0.5);
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k]];
            let wr = [_mm256_set1_ps(w[0].re), _mm256_set1_ps(w[1].re)];
            let wi = [_mm256_set1_ps(w[0].im), _mm256_set1_ps(w[1].im)];
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 4 <= at.b {
                let o = 2 * lane;
                let a = _mm256_loadu_ps(f[0].add(o));
                let x1 = cmul4_bcast::<false>(_mm256_loadu_ps(f[1].add(o)), wr[0], wi[0]);
                let x2 = cmul4_bcast::<false>(_mm256_loadu_ps(f[2].add(o)), wr[1], wi[1]);
                let sum = _mm256_add_ps(x1, x2);
                let rot = _mm256_mul_ps(swap4(_mm256_sub_ps(x1, x2)), krot);
                let mid = _mm256_sub_ps(a, _mm256_mul_ps(sum, half));
                _mm256_storeu_ps(f[0].add(o), _mm256_add_ps(a, sum));
                _mm256_storeu_ps(f[1].add(o), _mm256_add_ps(mid, rot));
                _mm256_storeu_ps(f[2].add(o), _mm256_sub_ps(mid, rot));
                lane += 4;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, s), lane, w, |z| *z, |x, w| bfly3_one(x, w, sign));
            }
        });
    }

    /// Plain-shape radix-5 columns (no FMA).
    ///
    /// # Safety
    /// See [`bfly2_cols`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly5_cols(
        d: *mut Complex32,
        tw: [&[Complex32]; 4],
        at: ColBlocks,
        forward: bool,
    ) {
        use super::scalar::{C1, C2, S1, S2};
        let sign = if forward { -1.0f32 } else { 1.0 };
        let sg = _mm256_setr_ps(-sign, sign, -sign, sign, -sign, sign, -sign, sign);
        let (c1, c2) = (_mm256_set1_ps(C1), _mm256_set1_ps(C2));
        let (s1, s2) = (_mm256_set1_ps(S1), _mm256_set1_ps(S2));
        let prep = |k: usize| {
            let w = [tw[0][k], tw[1][k], tw[2][k], tw[3][k]];
            let wr = [w[0].re, w[1].re, w[2].re, w[3].re].map(|v| _mm256_set1_ps(v));
            let wi = [w[0].im, w[1].im, w[2].im, w[3].im].map(|v| _mm256_set1_ps(v));
            (w, wr, wi)
        };
        for_each_col!(d, at, tw[0].len(), |k| { prep(k) }, |e, (w, wr, wi)| {
            let s = at.step;
            let f = [e, e.add(s), e.add(2 * s), e.add(3 * s), e.add(4 * s)].map(|x| x as *mut f32);
            let mut lane = 0;
            while lane + 4 <= at.b {
                let o = 2 * lane;
                let a = _mm256_loadu_ps(f[0].add(o));
                let c = |q: usize| {
                    cmul4_bcast::<false>(_mm256_loadu_ps(f[q].add(o)), wr[q - 1], wi[q - 1])
                };
                let x = [c(1), c(2), c(3), c(4)];
                let (p1, m1) = (_mm256_add_ps(x[0], x[3]), _mm256_sub_ps(x[0], x[3]));
                let (p2, m2) = (_mm256_add_ps(x[1], x[2]), _mm256_sub_ps(x[1], x[2]));
                let r1 =
                    _mm256_add_ps(_mm256_add_ps(a, _mm256_mul_ps(p1, c1)), _mm256_mul_ps(p2, c2));
                let r2 =
                    _mm256_add_ps(_mm256_add_ps(a, _mm256_mul_ps(p1, c2)), _mm256_mul_ps(p2, c1));
                let (m1s, m2s) = (swap4(m1), swap4(m2));
                let i1 = _mm256_mul_ps(
                    _mm256_add_ps(_mm256_mul_ps(m1s, s1), _mm256_mul_ps(m2s, s2)),
                    sg,
                );
                let i2 = _mm256_mul_ps(
                    _mm256_sub_ps(_mm256_mul_ps(m1s, s2), _mm256_mul_ps(m2s, s1)),
                    sg,
                );
                _mm256_storeu_ps(f[0].add(o), _mm256_add_ps(_mm256_add_ps(a, p1), p2));
                _mm256_storeu_ps(f[1].add(o), _mm256_add_ps(r1, i1));
                _mm256_storeu_ps(f[2].add(o), _mm256_add_ps(r2, i2));
                _mm256_storeu_ps(f[3].add(o), _mm256_sub_ps(r2, i2));
                _mm256_storeu_ps(f[4].add(o), _mm256_sub_ps(r1, i1));
                lane += 4;
            }
            for lane in lane..at.b {
                one_at(&blocks(e, s), lane, w, |z| *z, |x, w| bfly5_one(x, w, sign));
            }
        });
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
                let x = (i as f32 + salt as f32 * 0.37) * 0.61;
                Complex32::new((1.3 * x).sin() + 0.2, (0.7 * x).cos() - 0.1)
            })
            .collect()
    }

    fn twiddles(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / (2 * n) as f64).to_f32())
            .collect()
    }

    /// f64 oracle for one radix-2 combine element.
    fn naive_bfly2(a: Complex32, b: Complex32, w: Complex32) -> (Complex32, Complex32) {
        let t = b.to_f64() * w.to_f64();
        ((a.to_f64() + t).to_f32(), (a.to_f64() - t).to_f32())
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
    fn bfly2_rows_matches_oracle_at_every_level() {
        for m in [1usize, 2, 3, 4, 5, 7, 8, 13, 16] {
            let tw = twiddles(m);
            let a0 = demo(m, 1);
            let b0 = demo(m, 2);
            for_each_isa(|level| {
                let mut a = a0.clone();
                let mut b = b0.clone();
                bfly2_rows(&mut a, &mut b, &tw);
                for k in 0..m {
                    let (x, y) = naive_bfly2(a0[k], b0[k], tw[k]);
                    assert!(
                        (a[k].re - x.re).abs() < 1e-5
                            && (a[k].im - x.im).abs() < 1e-5
                            && (b[k].re - y.re).abs() < 1e-5
                            && (b[k].im - y.im).abs() < 1e-5,
                        "m={m} k={k} level={level:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn cols_match_rows_bitwise_at_every_level() {
        // The bit-compatibility contract: broadcast (cols) and per-element
        // (rows) kernels produce identical bits at the same ISA level.
        for (m, b) in [(3usize, 2usize), (4, 2), (5, 4), (8, 4), (1, 4), (2, 3)] {
            let tw = twiddles(m);
            let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m * b, s)).collect();
            for_each_isa(|level| {
                // cols: interleaved layout [k*b + lane], the four digit
                // blocks back to back.
                let mut flat = blocks.concat();
                bfly4_cols(&mut flat, [&tw, &tw, &tw], ColBlocks::one(b, m * b), true);
                let c: Vec<Vec<Complex32>> = flat.chunks(m * b).map(<[_]>::to_vec).collect();
                // rows: transform each lane separately via length-m rows.
                let mut r = blocks.clone();
                for lane in 0..b {
                    let mut lanes: Vec<Vec<Complex32>> =
                        r.iter().map(|blk| (0..m).map(|k| blk[k * b + lane]).collect()).collect();
                    {
                        let [l0, l1, l2, l3] = &mut lanes[..] else { unreachable!() };
                        bfly4_rows(l0, l1, l2, l3, &tw, &tw, &tw, true);
                    }
                    for (blk, lv) in r.iter_mut().zip(&lanes) {
                        for k in 0..m {
                            blk[k * b + lane] = lv[k];
                        }
                    }
                }
                for (cq, rq) in c.iter().zip(&r) {
                    for (x, y) in cq.iter().zip(rq) {
                        assert!(
                            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                            "cols/rows bit mismatch m={m} b={b} level={level:?}: {x:?} vs {y:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn bfly4_rows_matches_scalar_reference() {
        for m in [1usize, 2, 4, 6, 9, 16] {
            let tw1 = twiddles(m);
            let tw2: Vec<Complex32> = tw1.iter().map(|w| *w * *w).collect();
            let tw3: Vec<Complex32> = tw1.iter().map(|w| *w * *w * *w).collect();
            for forward in [true, false] {
                let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m, s + 7)).collect();
                // Scalar reference at the Scalar level.
                let mut want = blocks.clone();
                {
                    let _guard = test_isa_guard();
                    set_isa_override(IsaLevel::Scalar).unwrap();
                    let [w0, w1, w2, w3] = &mut want[..] else { unreachable!() };
                    bfly4_rows(w0, w1, w2, w3, &tw1, &tw2, &tw3, forward);
                    set_isa_override(detect_isa()).unwrap();
                }
                for_each_isa(|level| {
                    let mut got = blocks.clone();
                    let [g0, g1, g2, g3] = &mut got[..] else { unreachable!() };
                    bfly4_rows(g0, g1, g2, g3, &tw1, &tw2, &tw3, forward);
                    for (gq, wq) in got.iter().zip(&want) {
                        for (g, w) in gq.iter().zip(wq) {
                            assert!(
                                (g.re - w.re).abs() < 1e-5 && (g.im - w.im).abs() < 1e-5,
                                "m={m} fwd={forward} level={level:?}: {g:?} vs {w:?}"
                            );
                        }
                    }
                });
            }
        }
    }

    /// The no-twiddle butterflies equal the twiddled kernels at unit
    /// twiddles, bitwise, at every level — multiplying by `1 + 0i` is exact
    /// in every arm's arithmetic shape (including FMA), so this pins that
    /// hoisting the twiddle out of the butterfly loses nothing.
    #[test]
    fn nt_butterflies_match_unit_twiddle_kernels_bitwise() {
        for m in [1usize, 2, 3, 4, 5, 8, 13] {
            let ones = vec![Complex32::ONE; m];
            let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m, s + 11)).collect();
            for forward in [true, false] {
                for_each_isa(|level| {
                    let mut nt = blocks.clone();
                    {
                        let [n0, n1, n2, n3] = &mut nt[..] else { unreachable!() };
                        bfly4_nt(n0, n1, n2, n3, forward);
                    }
                    let mut tw = blocks.clone();
                    {
                        let [t0, t1, t2, t3] = &mut tw[..] else { unreachable!() };
                        bfly4_rows(t0, t1, t2, t3, &ones, &ones, &ones, forward);
                    }
                    for (nq, tq) in nt.iter().zip(&tw) {
                        for (x, y) in nq.iter().zip(tq) {
                            assert!(
                                x.re.to_bits() == y.re.to_bits()
                                    && x.im.to_bits() == y.im.to_bits(),
                                "bfly4 m={m} fwd={forward} level={level:?}: {x:?} vs {y:?}"
                            );
                        }
                    }
                    let mut nt2 = (blocks[0].clone(), blocks[1].clone());
                    bfly2_nt(&mut nt2.0, &mut nt2.1);
                    let mut tw2 = (blocks[0].clone(), blocks[1].clone());
                    bfly2_rows(&mut tw2.0, &mut tw2.1, &ones);
                    assert_eq!(nt2, tw2, "bfly2 m={m} level={level:?}");
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn bfly2_rows_rejects_mismatched_rows() {
        let mut a = vec![Complex32::ZERO; 3];
        let mut b = vec![Complex32::ZERO; 4];
        bfly2_rows(&mut a, &mut b, &twiddles(3));
    }
}
