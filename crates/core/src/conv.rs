//! The convolution kernels (Figure 2 of the paper).
//!
//! Part 1 computes, per sample and dimension, the window of grid neighbors
//! `x1 = ⌈u−W⌉ … x2 = ⌊u+W⌋` and their kernel weights via LUT. Part 2 is the
//! separable convolution proper: the forward operator *gathers* weighted
//! grid values into the sample, the adjoint *scatters* the sample into the
//! grid. The innermost dimension is contiguous in memory, so Part 2
//! vectorizes within a sample along it (§III-C): at AVX2+FMA a 2D/3D sample
//! whose innermost row does not wrap goes through one `nufft-simd` box
//! kernel call ([`nufft_simd::boxes`]) covering its whole window box; 1D
//! samples, wrapping rows and the lower ISA levels go row by row through
//! the `nufft-simd` row kernels, with wrap-around rows split into at most
//! two contiguous segments.
//!
//! Privatized tasks scatter into a local buffer in *unwrapped* coordinates
//! (every neighbor of a task's samples lies within its halo box, so no mod
//! arithmetic is needed there); the reduction adds the buffer back into the
//! global grid with wrapping.

use crate::kernel::InterpKernel;
use nufft_math::Complex32;
use nufft_simd::boxes::{
    gather_box, gather_box2, scatter_box, BoxAxis, BoxIsa, BoxRows, MAX_BOX_TAPS,
};
use nufft_simd::{gather_row, gather_row2, scatter_row, scatter_row2};

/// Maximum taps per dimension: `2W+1` with the paper's largest `W = 8`.
pub const MAX_TAPS: usize = 17;

/// One dimension's interpolation window for one sample (Part 1 output).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// First (unwrapped) neighbor index `x1 = ⌈u−W⌉`; may be negative or
    /// reach past the grid edge — wrapping is Part 2's job.
    pub start: i32,
    /// Number of taps `lx = x2 − x1 + 1` (`2W` or `2W+1`).
    pub len: usize,
    /// Kernel weights for each tap.
    pub w: [f32; MAX_TAPS],
}

impl Window {
    /// An empty window — staging storage for drivers that overwrite it
    /// per sample before use.
    pub const EMPTY: Window = Window { start: 0, len: 0, w: [0.0; MAX_TAPS] };

    /// Part 1 for one coordinate: neighbor range and kernel weights, via
    /// the kernel's row evaluator (LUT lerp or the fitted Horner fast
    /// path, whichever the family provides).
    ///
    /// `wrad` is the kernel radius `W`; `u` must lie in `[0, M)`. The
    /// bounds are computed in `f64`, where `u ± W` is exact — an `f32`
    /// `u + W` can round *up* across an integer and admit a tap just
    /// outside the true support, overflowing privatized halo buffers — and
    /// rounded by truncate-and-compare (`ceil_i32`, `floor_i32`), which
    /// the baseline x86-64 target does without the libm calls `f64::ceil`
    /// and `f64::floor` compile to there.
    #[inline]
    pub fn compute(u: f32, wrad: f32, kernel: &InterpKernel) -> Window {
        let x1 = ceil_i32(u as f64 - wrad as f64);
        let x2 = floor_i32(u as f64 + wrad as f64);
        let len = (x2 - x1 + 1) as usize;
        debug_assert!(len <= MAX_TAPS, "window of {len} taps exceeds MAX_TAPS");
        let mut w = [0.0f32; MAX_TAPS];
        kernel.eval_row(x1, len, u, &mut w);
        Window { start: x1, len, w }
    }

    /// Borrowed view of this window — the form the Part 2 kernels consume.
    #[inline]
    pub fn as_ref(&self) -> WinRef<'_> {
        WinRef { start: self.start, w: &self.w[..self.len] }
    }
}

/// `⌈x⌉` as an `i32`, for `|x| < 2³¹`: the truncation, plus one where it
/// fell below `x`. Equals `x.ceil() as i32` (NaN gives 0 in both).
#[inline(always)]
fn ceil_i32(x: f64) -> i32 {
    let t = x as i32;
    t + (x > t as f64) as i32
}

/// `⌊x⌋` as an `i32`, for `|x| < 2³¹`: the truncation, minus one where it
/// rose above `x`. Equals `x.floor() as i32` (NaN gives 0 in both).
#[inline(always)]
fn floor_i32(x: f64) -> i32 {
    let t = x as i32;
    t - (x < t as f64) as i32
}

/// A borrowed one-dimensional window: first neighbor index plus the live
/// weight row. This is the common currency of the Part 2 convolution
/// kernels — it views either a freshly computed [`Window`] (on-the-fly
/// Part 1) or a row of a plan-owned precomputed window table, so both
/// sources share one execution path.
#[derive(Clone, Copy, Debug)]
pub struct WinRef<'a> {
    /// First (unwrapped) neighbor index; wrapping is Part 2's job.
    pub start: i32,
    /// Kernel weights, one per tap (`w.len()` taps).
    pub w: &'a [f32],
}

impl WinRef<'_> {
    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True for a zero-tap window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

/// Borrows a full D-dimensional window stack.
#[inline]
pub fn win_refs<const D: usize>(win: &[Window; D]) -> [WinRef<'_>; D] {
    core::array::from_fn(|d| win[d].as_ref())
}

#[inline(always)]
fn wrap(x: i32, m: usize) -> usize {
    x.rem_euclid(m as i32) as usize
}

/// One 2D/3D sample's box for the [`nufft_simd::boxes`] kernels in a grid
/// of extents `ext`, where `first(d)` is the grid index of `win[d].start`;
/// or `None` where the row path runs: no box kernel at the active ISA level
/// (checked first, so the lower levels pay nothing more), 1D, an innermost
/// row that wraps or is wider than [`MAX_BOX_TAPS`].
#[inline(always)]
fn sample_box<'a, const D: usize>(
    ext: &[usize; D],
    win: &[WinRef<'a>; D],
    first: impl Fn(usize) -> usize,
) -> Option<(BoxIsa, BoxRows<'a>)> {
    if D == 1 || win[D - 1].len() > MAX_BOX_TAPS {
        return None;
    }
    let isa = BoxIsa::active()?;
    let z0 = first(D - 1);
    if z0 + win[D - 1].len() > ext[D - 1] {
        return None;
    }
    let axis = |d: usize| BoxAxis {
        first: first(d),
        extent: ext[d],
        stride: ext[d + 1..].iter().product(),
        w: win[d].w,
    };
    let y = if D == 3 { axis(1) } else { BoxAxis::UNIT };
    Some((isa, BoxRows { x: axis(0), y, z0, w_z: win[D - 1].w }))
}

/// Scatters `val` along one (possibly wrapping) grid row: the innermost loop
/// of the adjoint convolution.
#[inline(always)]
fn scatter_wrapped_row(
    grid: &mut [Complex32],
    row_base: usize,
    m_last: usize,
    wz: WinRef<'_>,
    val: Complex32,
) {
    let n = wz.len();
    let z0 = wrap(wz.start, m_last);
    if z0 + n <= m_last {
        scatter_row(&mut grid[row_base + z0..row_base + z0 + n], wz.w, val);
    } else {
        let first = m_last - z0;
        scatter_row(&mut grid[row_base + z0..row_base + m_last], &wz.w[..first], val);
        scatter_row(&mut grid[row_base..row_base + n - first], &wz.w[first..], val);
    }
}

/// Gathers one (possibly wrapping) grid row weighted by `wz`.
#[inline(always)]
fn gather_wrapped_row(
    grid: &[Complex32],
    row_base: usize,
    m_last: usize,
    wz: WinRef<'_>,
) -> Complex32 {
    let n = wz.len();
    let z0 = wrap(wz.start, m_last);
    if z0 + n <= m_last {
        gather_row(&grid[row_base + z0..row_base + z0 + n], wz.w)
    } else {
        let first = m_last - z0;
        let a = gather_row(&grid[row_base + z0..row_base + m_last], &wz.w[..first]);
        let b = gather_row(&grid[row_base..row_base + n - first], &wz.w[first..]);
        a + b
    }
}

/// [`gather_wrapped_row`] over two channel grids sharing one weight row —
/// bitwise-equal per channel to two independent one-grid gathers (the
/// `gather_row2` kernels guarantee it per row, and the wrap split adds the
/// two segments in the same order).
#[inline(always)]
fn gather_wrapped_row2(
    ga: &[Complex32],
    gb: &[Complex32],
    row_base: usize,
    m_last: usize,
    wz: WinRef<'_>,
) -> (Complex32, Complex32) {
    let n = wz.len();
    let z0 = wrap(wz.start, m_last);
    if z0 + n <= m_last {
        gather_row2(
            &ga[row_base + z0..row_base + z0 + n],
            &gb[row_base + z0..row_base + z0 + n],
            wz.w,
        )
    } else {
        let first = m_last - z0;
        let (a0, b0) = gather_row2(
            &ga[row_base + z0..row_base + m_last],
            &gb[row_base + z0..row_base + m_last],
            &wz.w[..first],
        );
        let (a1, b1) = gather_row2(
            &ga[row_base..row_base + n - first],
            &gb[row_base..row_base + n - first],
            &wz.w[first..],
        );
        (a0 + a1, b0 + b1)
    }
}

/// Adjoint (scatter) convolution of one sample onto the global grid
/// (Figure 2, Part 2b).
#[inline]
pub fn adjoint_scatter<const D: usize>(
    grid: &mut [Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
    val: Complex32,
) {
    if let Some((isa, rows)) = sample_box(m, win, |d| wrap(win[d].start, m[d])) {
        scatter_box(isa, grid, &rows, val);
        return;
    }
    match D {
        1 => scatter_wrapped_row(grid, 0, m[0], win[0], val),
        2 => {
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let f = val.scale(win[0].w[ix]);
                scatter_wrapped_row(grid, gx * m[1], m[1], win[1], f);
            }
        }
        3 => {
            // Small-W fast path (§III-C "SIMD across several y iterations"):
            // when the z-row does not wrap, fuse pairs of y-rows through
            // scatter_row2 so one weight-expansion feeds two FMA rows.
            let lz = win[2].len();
            let z0 = wrap(win[2].start, m[2]);
            let z_contiguous = z0 + lz <= m[2];
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let fx = win[0].w[ix];
                let mut iy = 0;
                if z_contiguous {
                    while iy + 2 <= win[1].len() {
                        let gy0 = wrap(win[1].start + iy as i32, m[1]);
                        let gy1 = wrap(win[1].start + (iy + 1) as i32, m[1]);
                        let f0 = val.scale(fx * win[1].w[iy]);
                        let f1 = val.scale(fx * win[1].w[iy + 1]);
                        let b0 = (gx * m[1] + gy0) * m[2] + z0;
                        let b1 = (gx * m[1] + gy1) * m[2] + z0;
                        // SAFETY: gy0 != gy1 (adjacent wrapped indices on a
                        // grid of extent ≥ 2W+1 > 1), so the two rows are
                        // disjoint subslices of `grid`.
                        let (r0, r1) = unsafe {
                            let base = grid.as_mut_ptr();
                            (
                                core::slice::from_raw_parts_mut(base.add(b0), lz),
                                core::slice::from_raw_parts_mut(base.add(b1), lz),
                            )
                        };
                        scatter_row2(r0, f0, r1, f1, win[2].w);
                        iy += 2;
                    }
                }
                while iy < win[1].len() {
                    let gy = wrap(win[1].start + iy as i32, m[1]);
                    let f = val.scale(fx * win[1].w[iy]);
                    scatter_wrapped_row(grid, (gx * m[1] + gy) * m[2], m[2], win[2], f);
                    iy += 1;
                }
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Forward (gather) convolution of one sample from the global grid
/// (Figure 2, Part 2a).
#[inline]
pub fn forward_gather<const D: usize>(
    grid: &[Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
) -> Complex32 {
    if let Some((isa, rows)) = sample_box(m, win, |d| wrap(win[d].start, m[d])) {
        return gather_box(isa, grid, &rows);
    }
    match D {
        1 => gather_wrapped_row(grid, 0, m[0], win[0]),
        2 => {
            let mut acc = Complex32::ZERO;
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let row = gather_wrapped_row(grid, gx * m[1], m[1], win[1]);
                acc += row.scale(win[0].w[ix]);
            }
            acc
        }
        3 => {
            let mut acc = Complex32::ZERO;
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let fx = win[0].w[ix];
                for iy in 0..win[1].len() {
                    let gy = wrap(win[1].start + iy as i32, m[1]);
                    let row = gather_wrapped_row(grid, (gx * m[1] + gy) * m[2], m[2], win[2]);
                    acc += row.scale(fx * win[1].w[iy]);
                }
            }
            acc
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Channel-paired forward gather: one sample's window applied to two grids
/// at once, amortizing the Part 1 lookup and the weight expansion across
/// channels (the multi-channel forward driver's inner step).
///
/// Bitwise-equal per channel to two independent [`forward_gather`] calls:
/// each channel's accumulator sees the identical operation sequence, and
/// the paired row kernels guarantee per-row equality at every ISA level.
#[inline]
pub fn forward_gather2<const D: usize>(
    ga: &[Complex32],
    gb: &[Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
) -> (Complex32, Complex32) {
    if let Some((isa, rows)) = sample_box(m, win, |d| wrap(win[d].start, m[d])) {
        return gather_box2(isa, ga, gb, &rows);
    }
    match D {
        1 => gather_wrapped_row2(ga, gb, 0, m[0], win[0]),
        2 => {
            let mut acc_a = Complex32::ZERO;
            let mut acc_b = Complex32::ZERO;
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let (ra, rb) = gather_wrapped_row2(ga, gb, gx * m[1], m[1], win[1]);
                acc_a += ra.scale(win[0].w[ix]);
                acc_b += rb.scale(win[0].w[ix]);
            }
            (acc_a, acc_b)
        }
        3 => {
            let mut acc_a = Complex32::ZERO;
            let mut acc_b = Complex32::ZERO;
            for ix in 0..win[0].len() {
                let gx = wrap(win[0].start + ix as i32, m[0]);
                let fx = win[0].w[ix];
                for iy in 0..win[1].len() {
                    let gy = wrap(win[1].start + iy as i32, m[1]);
                    let base = (gx * m[1] + gy) * m[2];
                    let (ra, rb) = gather_wrapped_row2(ga, gb, base, m[2], win[2]);
                    acc_a += ra.scale(fx * win[1].w[iy]);
                    acc_b += rb.scale(fx * win[1].w[iy]);
                }
            }
            (acc_a, acc_b)
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Adjoint scatter into a privatized local buffer (no wrapping: the buffer
/// covers the task's halo box in unwrapped coordinates, §III-B4).
///
/// `origin` is the buffer's unwrapped starting coordinate per dimension and
/// `size` its extents; every window tap is guaranteed in range by
/// preprocessing.
#[inline]
pub fn adjoint_scatter_local<const D: usize>(
    buf: &mut [Complex32],
    origin: &[i32; D],
    size: &[usize; D],
    win: &[WinRef<'_>; D],
    val: Complex32,
) {
    if let Some((isa, rows)) = sample_box(size, win, |d| (win[d].start - origin[d]) as usize) {
        scatter_box(isa, buf, &rows, val);
        return;
    }
    match D {
        1 => {
            let l0 = (win[0].start - origin[0]) as usize;
            scatter_row(&mut buf[l0..l0 + win[0].len()], win[0].w, val);
        }
        2 => {
            let ly = (win[1].start - origin[1]) as usize;
            for ix in 0..win[0].len() {
                let lx = (win[0].start - origin[0]) as usize + ix;
                let f = val.scale(win[0].w[ix]);
                let base = lx * size[1] + ly;
                scatter_row(&mut buf[base..base + win[1].len()], win[1].w, f);
            }
        }
        3 => {
            let lz = (win[2].start - origin[2]) as usize;
            for ix in 0..win[0].len() {
                let lx = (win[0].start - origin[0]) as usize + ix;
                let fx = win[0].w[ix];
                for iy in 0..win[1].len() {
                    let ly = (win[1].start - origin[1]) as usize + iy;
                    let f = val.scale(fx * win[1].w[iy]);
                    let base = (lx * size[1] + ly) * size[2] + lz;
                    scatter_row(&mut buf[base..base + win[2].len()], win[2].w, f);
                }
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Reduces a privatized buffer into the global grid with wrapping — the
/// decoupled reduction phase of §III-B4. Rows are added via the SIMD
/// accumulate kernel, split at the wrap point when needed.
pub fn reduce_local<const D: usize>(
    grid: &mut [Complex32],
    m: &[usize; D],
    buf: &[Complex32],
    origin: &[i32; D],
    size: &[usize; D],
) {
    match D {
        1 => {
            add_wrapped_row(grid, 0, m[0], origin[0], &buf[..size[0]]);
        }
        2 => {
            for lx in 0..size[0] {
                let gx = wrap(origin[0] + lx as i32, m[0]);
                let row = &buf[lx * size[1]..(lx + 1) * size[1]];
                add_wrapped_row(grid, gx * m[1], m[1], origin[1], row);
            }
        }
        3 => {
            for lx in 0..size[0] {
                let gx = wrap(origin[0] + lx as i32, m[0]);
                for ly in 0..size[1] {
                    let gy = wrap(origin[1] + ly as i32, m[1]);
                    let row =
                        &buf[(lx * size[1] + ly) * size[2]..(lx * size[1] + ly + 1) * size[2]];
                    add_wrapped_row(grid, (gx * m[1] + gy) * m[2], m[2], origin[2], row);
                }
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// `grid[base + (origin + i) mod m] += row[i]`, split into contiguous runs.
#[inline]
fn add_wrapped_row(
    grid: &mut [Complex32],
    row_base: usize,
    m_last: usize,
    origin: i32,
    row: &[Complex32],
) {
    debug_assert!(row.len() <= m_last, "privatized row wider than the grid");
    let z0 = wrap(origin, m_last);
    if z0 + row.len() <= m_last {
        nufft_simd::accumulate(&mut grid[row_base + z0..row_base + z0 + row.len()], row);
    } else {
        let first = m_last - z0;
        nufft_simd::accumulate(&mut grid[row_base + z0..row_base + m_last], &row[..first]);
        nufft_simd::accumulate(&mut grid[row_base..row_base + row.len() - first], &row[first..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::InterpKernel;

    fn kernel() -> InterpKernel {
        InterpKernel::new(2.0, 2.0)
    }

    /// The truncate-and-compare bounds equal `ceil`/`floor` on integers,
    /// their neighbours one ulp away, half-integers, zero of both signs,
    /// and the negative differences `u − W` near the grid's low edge.
    #[test]
    fn truncating_bounds_match_ceil_and_floor() {
        let mut xs = vec![0.0f64, -0.0, 0.5, -0.5, 1e-300, -1e-300, f64::NAN];
        for k in -40i32..=40 {
            for base in [k as f64, k as f64 + 0.5] {
                xs.extend([base, base.next_up(), base.next_down(), base + 0.25, base - 0.25]);
            }
        }
        // u − W for u just above an integer, exactly as Window::compute
        // forms it from f32 operands.
        for u in [0.0f32, 1e-7, 0.5, 2.0, 3.999_999_8, 121.0 - 2f32.powi(-17)] {
            for w in [1.5f32, 2.0, 2.5, 4.0, 8.0] {
                xs.extend([u as f64 - w as f64, u as f64 + w as f64]);
            }
        }
        for x in xs {
            assert_eq!(ceil_i32(x), x.ceil() as i32, "ceil({x:e})");
            assert_eq!(floor_i32(x), x.floor() as i32, "floor({x:e})");
        }
    }

    #[test]
    fn window_taps_and_range() {
        let k = kernel();
        // Non-integer coordinate: 2W taps.
        let w = Window::compute(5.3, 2.0, &k);
        assert_eq!(w.start, 4); // ceil(3.3)
        assert_eq!(w.len, 4); // 4,5,6,7 (floor(7.3))
                              // Integer coordinate: 2W+1 taps.
        let w = Window::compute(5.0, 2.0, &k);
        assert_eq!(w.start, 3);
        assert_eq!(w.len, 5);
        // Weights are symmetric for the integer case.
        assert!((w.w[0] - w.w[4]).abs() < 1e-6);
        assert!((w.w[1] - w.w[3]).abs() < 1e-6);
        // Peak at the center tap.
        assert!(w.w[2] > w.w[1]);
    }

    #[test]
    fn window_taps_never_exceed_the_true_support() {
        // Regression: an f32 `u + W` can round up across an integer
        // (binade-crossing, e.g. u = 121 − 2⁻¹⁷, W = 8: f32(u+8) = 129.0)
        // and admit a tap outside [u−W, u+W], overflowing privatized halo
        // buffers. Bounds must be computed exactly.
        let k8 = InterpKernel::new(8.0, 2.0);
        let hazardous = 121.0f32 - 2.0f32.powi(-17);
        let w = Window::compute(hazardous, 8.0, &k8);
        let last = (w.start + w.len as i32 - 1) as f64;
        assert!(last - hazardous as f64 <= 8.0, "tap {last} outside support of u={hazardous}");
        // And fuzz the invariant across binades and widths.
        let k = kernel();
        for i in 0..20000 {
            let u = f32::from_bits((i as u32).wrapping_mul(2654435761) % 0x4380_0000);
            if !(0.0..1000.0).contains(&u) {
                continue;
            }
            for (wrad, kk) in [(2.0f32, &k), (8.0, &k8)] {
                let w = Window::compute(u, wrad, kk);
                let first = w.start as f64;
                let last = (w.start + w.len as i32 - 1) as f64;
                assert!(first >= u as f64 - wrad as f64 - 1e-12, "u={u} w={wrad}");
                assert!(last <= u as f64 + wrad as f64 + 1e-12, "u={u} w={wrad}");
            }
        }
    }

    #[test]
    fn window_near_zero_goes_negative() {
        let k = kernel();
        let w = Window::compute(0.5, 2.0, &k);
        assert_eq!(w.start, -1); // ceil(-1.5)
        assert_eq!(w.len, 4);
    }

    #[test]
    fn scatter_gather_1d_round_trip_weights() {
        let k = kernel();
        let m = [16usize];
        let mut grid = vec![Complex32::ZERO; 16];
        let win = [Window::compute(7.4, 2.0, &k)];
        adjoint_scatter(&mut grid, &m, &win_refs(&win), Complex32::ONE);
        // gather at the same point returns Σ w².
        let got = forward_gather(&grid, &m, &win_refs(&win));
        let want: f32 = win[0].w[..win[0].len].iter().map(|x| x * x).sum();
        assert!((got.re - want).abs() < 1e-6 && got.im.abs() < 1e-9);
    }

    #[test]
    fn scatter_wraps_across_edge_1d() {
        let k = kernel();
        let m = [16usize];
        let mut grid = vec![Complex32::ZERO; 16];
        let win = [Window::compute(0.5, 2.0, &k)];
        adjoint_scatter(&mut grid, &m, &win_refs(&win), Complex32::ONE);
        // Taps at −1,0,1,2 → grid 15,0,1,2.
        assert!(grid[15].re > 0.0);
        assert!(grid[0].re > 0.0);
        assert!(grid[2].re > 0.0);
        assert_eq!(grid[3], Complex32::ZERO);
        // Total mass conserved.
        let mass: f32 = grid.iter().map(|z| z.re).sum();
        let want: f32 = win[0].w[..win[0].len].iter().sum();
        assert!((mass - want).abs() < 1e-6);
    }

    #[test]
    fn scatter_3d_mass_conservation_with_wrap() {
        let k = kernel();
        let m = [8usize, 8, 8];
        let mut grid = vec![Complex32::ZERO; 512];
        // Coordinate near a corner: wraps in every dimension.
        let win = [
            Window::compute(0.3, 2.0, &k),
            Window::compute(7.6, 2.0, &k),
            Window::compute(0.1, 2.0, &k),
        ];
        let val = Complex32::new(2.0, -1.0);
        adjoint_scatter(&mut grid, &m, &win_refs(&win), val);
        let mass: Complex32 = grid.iter().copied().sum();
        let wsum: f32 = (0..3).map(|d| win[d].w[..win[d].len].iter().sum::<f32>()).product();
        assert!((mass.re - val.re * wsum).abs() < 1e-4);
        assert!((mass.im - val.im * wsum).abs() < 1e-4);
    }

    #[test]
    fn gather_is_exact_adjoint_of_scatter_3d() {
        // ⟨scatter(v), g⟩ == v·conj(gather(g)) ... with real weights:
        // gather(scatter(e)) over two different windows equals the windows'
        // overlap inner product either way round.
        let k = kernel();
        let m = [8usize, 8, 8];
        let win_a = [
            Window::compute(3.2, 2.0, &k),
            Window::compute(4.7, 2.0, &k),
            Window::compute(2.9, 2.0, &k),
        ];
        let win_b = [
            Window::compute(4.1, 2.0, &k),
            Window::compute(3.9, 2.0, &k),
            Window::compute(3.4, 2.0, &k),
        ];
        let mut ga = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut ga, &m, &win_refs(&win_a), Complex32::ONE);
        let mut gb = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut gb, &m, &win_refs(&win_b), Complex32::ONE);
        // ⟨A e, B e⟩ both ways.
        let ab = forward_gather(&ga, &m, &win_refs(&win_b)).re;
        let ba = forward_gather(&gb, &m, &win_refs(&win_a)).re;
        assert!((ab - ba).abs() < 1e-5, "{ab} vs {ba}");
    }

    #[test]
    fn local_scatter_plus_reduce_equals_direct_scatter() {
        let k = kernel();
        let m = [8usize, 8, 8];
        // Task halo box around a corner-adjacent cell: origin may be
        // negative.
        let origin = [-2i32, 3, -2];
        let size = [7usize, 5, 8];
        let mut buf = vec![Complex32::ZERO; size.iter().product()];
        let win = [
            Window::compute(1.4, 2.0, &k),
            Window::compute(5.5, 2.0, &k),
            Window::compute(0.2, 2.0, &k),
        ];
        let val = Complex32::new(1.0, 2.0);
        adjoint_scatter_local(&mut buf, &origin, &size, &win_refs(&win), val);

        let mut via_private = vec![Complex32::ZERO; 512];
        reduce_local(&mut via_private, &m, &buf, &origin, &size);

        let mut direct = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut direct, &m, &win_refs(&win), val);

        for (i, (a, b)) in via_private.iter().zip(&direct).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6,
                "mismatch at {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn gather_from_constant_grid_sums_weights() {
        let k = kernel();
        let m = [8usize, 8];
        let grid = vec![Complex32::new(3.0, 0.0); 64];
        let win = [Window::compute(3.3, 2.0, &k), Window::compute(6.8, 2.0, &k)];
        let got = forward_gather(&grid, &m, &win_refs(&win));
        let want: f32 = 3.0
            * win[0].w[..win[0].len].iter().sum::<f32>()
            * win[1].w[..win[1].len].iter().sum::<f32>();
        assert!((got.re - want).abs() < 1e-4);
    }
}
