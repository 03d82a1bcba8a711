//! Per-sample box kernels — the W-specialized Part 2 inner kernels of
//! §III-C.
//!
//! A 2D or 3D sample whose innermost window row does not wrap touches a
//! tensor-product *box* of grid cells: a set of rows, each a contiguous run
//! of `taps` complex values. The row kernels of [`crate::rows`] take one row
//! per call, so a W = 4 3D gather makes 64 calls, each re-reading the ISA
//! level, re-checking lengths, re-expanding the same innermost weights and
//! folding its vector horizontally around two FMAs of useful work. The box
//! kernels take the whole box in one call:
//!
//! * **One dispatch per sample.** The caller obtains a [`BoxIsa`] once per
//!   sample and describes the box by its two outer axes ([`BoxAxis`]: first
//!   index, extent, stride, weights — the kernel steps and wraps the outer
//!   indices itself, so no tap costs a division). The safe wrappers here
//!   check every row against the grid at once, through the row at each
//!   axis's largest visited index, then enter one AVX2+FMA kernel.
//! * **Monomorphized on the row width.** The kernel is specialized on
//!   `NV = ⌈taps/4⌉ ∈ 1..=5` four-complex vectors per row (and on whether
//!   the last one is partial), so the row loop is fully unrolled and the
//!   `NV` row accumulators live in registers across every outer row. A
//!   gather applies the innermost weights and folds the lanes once per
//!   sample; a scatter multiplies the sample value into the expanded
//!   innermost weights once, so each row costs `NV` FMAs.
//! * **Masked tails.** The partial last vector of a row is read with
//!   `_mm256_maskload_ps` and written with `_mm256_maskstore_ps`. An
//!   unmasked tail would read past the grid allocation on the last grid
//!   row, and a scatter would write cells outside the task's halo box —
//!   the only region the scheduler's exclusion edges protect from
//!   concurrently running tasks — turning a read-modify-write of a
//!   neighbour's cell into a lost update.
//!
//! There is no box kernel below [`IsaLevel::Avx2Fma`]: [`BoxIsa::active`]
//! returns `None` there and callers keep their row path, whose bits are
//! therefore unchanged at those levels. The box kernels accumulate in a
//! different order than the row path (outer weights first, innermost
//! weights last), so at AVX2 their results differ from the row path by
//! rounding only.

use crate::dispatch::{active_isa, IsaLevel};
use nufft_math::Complex32;

#[cfg(target_arch = "x86_64")]
use crate::avx;

/// Widest innermost row the box kernels take: five four-complex vectors.
pub const MAX_BOX_TAPS: usize = 20;

/// Proof that the box kernels can run on this host: issued by
/// [`BoxIsa::active`] only while the active ISA level is
/// [`IsaLevel::Avx2Fma`], which [`crate::set_isa_override`] never sets on a
/// host without AVX2 and FMA.
#[derive(Clone, Copy, Debug)]
pub struct BoxIsa(Avx2Fma);

#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Avx2Fma;

/// Off x86-64 there is no AVX2, so no token can exist.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
enum Avx2Fma {}

impl BoxIsa {
    /// The per-sample ISA dispatch: `Some` when the active level has box
    /// kernels, `None` when the caller must take its row path.
    #[inline]
    pub fn active() -> Option<BoxIsa> {
        match active_isa() {
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Avx2Fma => Some(BoxIsa(Avx2Fma)),
            _ => None,
        }
    }
}

/// One outer axis of a sample's box: taps at grid indices `first`,
/// `first + 1`, … — wrapping from `extent − 1` back to 0 — whose rows lie
/// `stride` elements apart, weighted by `w`.
#[derive(Clone, Copy, Debug)]
pub struct BoxAxis<'a> {
    /// Index of the first tap, in `0..extent`.
    pub first: usize,
    /// Grid extent along the axis: the index after `extent − 1` is 0.
    pub extent: usize,
    /// Elements between consecutive indices.
    pub stride: usize,
    /// One weight per tap.
    pub w: &'a [f32],
}

impl BoxAxis<'static> {
    /// The single row of weight 1 standing in for a 2D box's middle axis.
    pub const UNIT: BoxAxis<'static> = BoxAxis { first: 0, extent: 1, stride: 0, w: &[1.0] };
}

impl<'a> BoxAxis<'a> {
    /// Largest index the taps visit (for `first < extent` and at least one
    /// tap): the last tap's, unless the taps wrap past `extent − 1`.
    fn last(&self) -> usize {
        match self.first.checked_add(self.w.len()) {
            Some(end) if end <= self.extent => end - 1,
            _ => self.extent - 1,
        }
    }

    /// `(row offset, weight)` per tap, in tap order.
    #[inline(always)]
    pub(crate) fn rows(&self) -> AxisRows<'a> {
        AxisRows { index: self.first, axis: *self }
    }
}

/// Iterator behind [`BoxAxis::rows`]: steps the index, wrapping at the
/// extent, so no tap costs a division.
pub(crate) struct AxisRows<'a> {
    index: usize,
    axis: BoxAxis<'a>,
}

impl Iterator for AxisRows<'_> {
    type Item = (usize, f32);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, f32)> {
        let (&w, rest) = self.axis.w.split_first()?;
        self.axis.w = rest;
        let off = self.index * self.axis.stride;
        self.index += 1;
        if self.index == self.axis.extent {
            self.index = 0;
        }
        Some((off, w))
    }
}

/// One sample's box of grid rows. Row `(i, j)` starts at element
/// `row(i, j) = gx·x.stride + gy·y.stride + z0`, where `gx` and `gy` are the
/// grid indices of tap `i` along `x` and tap `j` along `y`; it carries the
/// outer weight `x.w[i] · y.w[j]` and spans `w_z.len()` contiguous cells
/// weighted by `w_z`. A 2D box has `y = BoxAxis::UNIT`.
#[derive(Clone, Copy, Debug)]
pub struct BoxRows<'a> {
    /// Outermost axis.
    pub x: BoxAxis<'a>,
    /// Middle axis ([`BoxAxis::UNIT`] in 2D).
    pub y: BoxAxis<'a>,
    /// Offset of every row's first cell along the innermost axis.
    pub z0: usize,
    /// Innermost weights: one per cell of every row.
    pub w_z: &'a [f32],
}

impl BoxRows<'_> {
    /// Checks every row against a grid of `grid_len` elements at once — the
    /// row at the largest visited index of each outer axis, plus `taps`,
    /// must fit — and returns `taps`, or 0 when the box is empty.
    ///
    /// # Panics
    /// Panics if `w_z` is longer than [`MAX_BOX_TAPS`], if an outer axis
    /// starts outside its extent, or if a row leaves the grid.
    #[inline]
    pub(crate) fn check(&self, grid_len: usize) -> usize {
        let taps = self.w_z.len();
        assert!(taps <= MAX_BOX_TAPS, "box row of {taps} taps exceeds MAX_BOX_TAPS");
        if taps == 0 || self.x.w.is_empty() || self.y.w.is_empty() {
            return 0;
        }
        assert!(
            self.x.first < self.x.extent && self.y.first < self.y.extent,
            "box axis starts outside its extent"
        );
        let end = self.x.last().checked_mul(self.x.stride).and_then(|ox| {
            let oy = self.y.last().checked_mul(self.y.stride)?;
            ox.checked_add(oy)?.checked_add(self.z0)?.checked_add(taps)
        });
        assert!(end.is_some_and(|e| e <= grid_len), "box row out of grid bounds");
        taps
    }
}

/// Selects the kernel instance for `taps` (checked `1..=MAX_BOX_TAPS`):
/// `NV = ⌈taps/4⌉` vectors, the last one partial unless `4 | taps`.
#[cfg(target_arch = "x86_64")]
macro_rules! by_width {
    ($taps:expr, $kernel:ident $(::<$c:literal>)?, $($arg:expr),*) => {
        match (usize::div_ceil($taps, 4), $taps % 4 != 0) {
            (1, false) => avx::$kernel::<1, false $(, $c)?>($($arg),*),
            (1, true) => avx::$kernel::<1, true $(, $c)?>($($arg),*),
            (2, false) => avx::$kernel::<2, false $(, $c)?>($($arg),*),
            (2, true) => avx::$kernel::<2, true $(, $c)?>($($arg),*),
            (3, false) => avx::$kernel::<3, false $(, $c)?>($($arg),*),
            (3, true) => avx::$kernel::<3, true $(, $c)?>($($arg),*),
            (4, false) => avx::$kernel::<4, false $(, $c)?>($($arg),*),
            (4, true) => avx::$kernel::<4, true $(, $c)?>($($arg),*),
            (5, false) => avx::$kernel::<5, false $(, $c)?>($($arg),*),
            (5, true) => avx::$kernel::<5, true $(, $c)?>($($arg),*),
            _ => unreachable!("box row of {} taps", $taps),
        }
    };
}

/// `Σ_{i,j,k} x.w[i]·y.w[j]·w_z[k] · grid[row(i, j) + k]` — one sample's
/// forward (gather) convolution over its whole box ([`BoxRows`] defines
/// `row(i, j)`).
///
/// # Panics
/// Panics if `w_z` is longer than [`MAX_BOX_TAPS`], if an outer axis starts
/// outside its extent, or if a row leaves `grid`.
#[inline]
pub fn gather_box(isa: BoxIsa, grid: &[Complex32], rows: &BoxRows<'_>) -> Complex32 {
    let taps = rows.check(grid.len());
    if taps == 0 {
        return Complex32::ZERO;
    }
    match isa.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `BoxIsa` exists only while AVX2+FMA is the active level,
        // which is never set on a host without them. `check` bounds-checked
        // every row once per sample (`1 ≤ taps ≤ MAX_BOX_TAPS`, largest row
        // end ≤ grid.len()), `by_width` picks the instance matching `taps`,
        // and the kernel reads a partial last vector under the tail mask,
        // so no lane past a row's last tap is read.
        Avx2Fma => unsafe { by_width!(taps, gather_box::<1>, [grid.as_ptr()], rows)[0] },
    }
}

/// [`gather_box`] over two channel grids sharing one box: the Part 1 weights
/// are expanded once for both. Bitwise-equal per channel to two
/// [`gather_box`] calls.
///
/// # Panics
/// As [`gather_box`], for either grid.
#[inline]
pub fn gather_box2(
    isa: BoxIsa,
    ga: &[Complex32],
    gb: &[Complex32],
    rows: &BoxRows<'_>,
) -> (Complex32, Complex32) {
    let taps = rows.check(ga.len().min(gb.len()));
    if taps == 0 {
        return (Complex32::ZERO, Complex32::ZERO);
    }
    match isa.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gather_box`: the token proves AVX2+FMA, `check`
        // bounds-checked every row once per sample against the shorter
        // grid, so every row is in bounds of both, and both grids' partial
        // last vectors are read under the tail mask.
        Avx2Fma => {
            let [a, b] =
                unsafe { by_width!(taps, gather_box::<2>, [ga.as_ptr(), gb.as_ptr()], rows) };
            (a, b)
        }
    }
}

/// `grid[row(i, j) + k] += x.w[i]·y.w[j]·w_z[k] · val` — one sample's
/// adjoint (scatter) convolution over its whole box. Cells outside the box
/// are neither read nor written.
///
/// # Panics
/// As [`gather_box`].
#[inline]
pub fn scatter_box(isa: BoxIsa, grid: &mut [Complex32], rows: &BoxRows<'_>, val: Complex32) {
    let taps = rows.check(grid.len());
    if taps == 0 {
        return;
    }
    match isa.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gather_box`: the token proves AVX2+FMA, `check`
        // bounds-checked every row once per sample, and the kernel reads and
        // writes a partial last vector only under the tail mask, so it
        // touches no cell outside the box — neither past the allocation nor
        // outside the caller's halo box.
        Avx2Fma => unsafe { by_width!(taps, scatter_box, grid.as_mut_ptr(), rows, val) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override, test_isa_guard};

    /// Every box cell's grid index and weight.
    fn cells(rows: &BoxRows<'_>) -> Vec<(usize, f32)> {
        let mut out = Vec::new();
        for (ox, wx) in rows.x.rows() {
            for (oy, wy) in rows.y.rows() {
                for (k, &wz) in rows.w_z.iter().enumerate() {
                    out.push((ox + oy + rows.z0 + k, wx * wy * wz));
                }
            }
        }
        out
    }

    /// Gather reference in `f64`.
    fn reference(grid: &[Complex32], rows: &BoxRows<'_>) -> (f64, f64) {
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for (i, w) in cells(rows) {
            re += w as f64 * grid[i].re as f64;
            im += w as f64 * grid[i].im as f64;
        }
        (re, im)
    }

    #[test]
    fn box_kernels_match_reference_at_every_width() {
        let _guard = test_isa_guard();
        if detect_isa() < IsaLevel::Avx2Fma {
            return;
        }
        set_isa_override(IsaLevel::Avx2Fma).unwrap();
        let isa = BoxIsa::active().expect("AVX2 host issues a token");
        let grid: Vec<Complex32> = (0..600)
            .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let other: Vec<Complex32> = grid.iter().map(|z| Complex32::new(z.im, -z.re)).collect();
        // x wraps from index 3 back to 0 and 1; y stays inside its extent.
        let x = BoxAxis { first: 3, extent: 4, stride: 120, w: &[0.5, 1.0, 0.25] };
        let y = BoxAxis { first: 1, extent: 4, stride: 25, w: &[0.75, 1.0] };
        let val = Complex32::new(0.5, -2.0);
        for taps in 1..=MAX_BOX_TAPS {
            let w_z: Vec<f32> = (0..taps).map(|k| 0.1 + 0.05 * k as f32).collect();
            let rows = BoxRows { x, y, z0: 2, w_z: &w_z };
            let got = gather_box(isa, &grid, &rows);
            let (re, im) = reference(&grid, &rows);
            assert!(
                (got.re as f64 - re).abs() < 1e-5 && (got.im as f64 - im).abs() < 1e-5,
                "gather taps={taps}: {got:?} vs ({re}, {im})"
            );
            let (a, b) = gather_box2(isa, &grid, &other, &rows);
            let single = gather_box(isa, &other, &rows);
            assert_eq!((a.re.to_bits(), a.im.to_bits()), (got.re.to_bits(), got.im.to_bits()));
            assert_eq!(
                (b.re.to_bits(), b.im.to_bits()),
                (single.re.to_bits(), single.im.to_bits())
            );

            // Scatter onto a zero grid: the box gets `val·w`, nothing else moves.
            let mut out = vec![Complex32::ZERO; grid.len()];
            scatter_box(isa, &mut out, &rows, val);
            let mut want = vec![Complex32::ZERO; grid.len()];
            for (i, w) in cells(&rows) {
                want[i] = val.scale(w);
            }
            for (i, (g, w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    (g.re - w.re).abs() < 1e-6 && (g.im - w.im).abs() < 1e-6,
                    "scatter taps={taps} cell {i}: {g:?} vs {w:?}"
                );
            }
        }
        set_isa_override(detect_isa()).unwrap();
    }

    #[test]
    fn token_follows_the_override() {
        let _guard = test_isa_guard();
        set_isa_override(IsaLevel::Sse2.min(detect_isa())).unwrap();
        assert!(BoxIsa::active().is_none());
        set_isa_override(detect_isa()).unwrap();
        assert_eq!(BoxIsa::active().is_some(), detect_isa() == IsaLevel::Avx2Fma);
    }

    #[test]
    #[should_panic(expected = "out of grid bounds")]
    fn box_rejects_an_axis_whose_taps_overflow_the_index() {
        // first + taps overflows usize: the taps wrap at the extent, so the
        // largest visited index is extent − 1 and its row is far past the grid.
        let x = BoxAxis { first: usize::MAX - 2, extent: usize::MAX, stride: 1, w: &[1.0; 4] };
        let rows = BoxRows { x, y: BoxAxis::UNIT, z0: 0, w_z: &[1.0] };
        rows.check(16);
    }

    #[test]
    #[should_panic(expected = "out of grid bounds")]
    fn box_rejects_a_row_past_the_grid() {
        let x = BoxAxis { first: 1, extent: 2, stride: 8, w: &[1.0] };
        let rows = BoxRows { x, y: BoxAxis::UNIT, z0: 1, w_z: &[1.0; 8] };
        rows.check(16);
    }
}
