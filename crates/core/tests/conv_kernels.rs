//! Per-sample convolution kernels: the AVX2 box path of `conv` (one
//! `nufft_simd::boxes` call per 2D/3D sample) against the row path it
//! replaces (one `nufft_simd` row-kernel call per grid row).
//!
//! * **Agreement.** `forward_gather`, `adjoint_scatter` and
//!   `adjoint_scatter_local` agree with a row-by-row reference built from
//!   `gather_row`/`scatter_row` to `1e-5` of the sum of absolute tap
//!   contributions, for D ∈ {2, 3}, innermost tap counts 1..=17 (kernel
//!   windows at fractional and integral `u`), and windows that sit inside
//!   the grid, end flush with its last cell, or wrap. At AVX2 this compares
//!   the box path with the row path; below it, the row path with itself.
//! * **Tails stay inside the box.** Every grid cell outside the sample's
//!   box — in particular the cell just past each window row, and the
//!   cells just past the end of the grid slice — holds a signalling-NaN
//!   canary. A gather must stay finite (no canary was read) and a scatter
//!   must leave every canary bitwise unchanged (none was written, nor
//!   read and stored back: arithmetic on a signalling NaN sets its quiet
//!   bit).
//! * **Channel pairing.** `forward_gather2` equals two `forward_gather`
//!   calls bitwise under every ISA override.
//! * **Part 1 windows.** The LUT families' window rows (AVX2 gathers at
//!   that level, a scalar loop below it) equal StrictScalar's bitwise at
//!   every level, for tap counts 1..=17.

use nufft_core::conv::{
    adjoint_scatter, adjoint_scatter_local, forward_gather, forward_gather2, WinRef, Window,
};
use nufft_core::kernel::DEFAULT_LUT_DENSITY;
use nufft_core::{InterpKernel, KernelChoice};
use nufft_math::Complex32;
use nufft_simd::{detect_isa, gather_row, scatter_row, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes the tests: the ISA override is process-global.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_guard() -> std::sync::MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Signalling NaN: any arithmetic on it returns a quiet NaN, so a canary
/// that was loaded and stored back changes bits.
const CANARY: Complex32 = Complex32::new(f32::from_bits(0x7f80_0001), f32::from_bits(0x7f80_0002));

/// Canary cells kept past the end of every grid slice.
const SLACK: usize = 8;

fn is_canary(z: Complex32) -> bool {
    z.re.to_bits() == CANARY.re.to_bits() && z.im.to_bits() == CANARY.im.to_bits()
}

/// Runs `f` at every ISA level the host supports, then restores detection.
fn for_each_isa(mut f: impl FnMut(IsaLevel)) {
    let detected = detect_isa();
    for level in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if level <= detected {
            set_isa_override(level).unwrap();
            f(level);
        }
    }
    set_isa_override(detected).unwrap();
}

/// ES kernel windows whose tap counts cover 1..=17: radii 0.5..=8 at
/// integral, half-integral and fractional `u`.
fn kernel_windows() -> Vec<Window> {
    let mut out = Vec::new();
    for half in 1..=16 {
        let wrad = half as f32 * 0.5;
        let kernel =
            InterpKernel::of(KernelChoice::EsKernel, wrad as f64, 2.0, DEFAULT_LUT_DENSITY);
        for u in [20.0f32, 20.5, 20.3] {
            out.push(Window::compute(u, wrad, &kernel));
        }
    }
    let mut taps: Vec<usize> = out.iter().map(|w| w.len).collect();
    taps.sort_unstable();
    taps.dedup();
    assert_eq!(taps, (1..=17).collect::<Vec<_>>(), "tap counts covered");
    out
}

/// Deterministic finite cell value in `[-1, 1]²`.
fn cell(i: usize, salt: f32) -> Complex32 {
    Complex32::new((i as f32 * 0.37 + salt).sin(), (i as f32 * 0.23 - salt).cos())
}

fn wrap(x: i32, m: usize) -> usize {
    x.rem_euclid(m as i32) as usize
}

/// Flat grid index of tap `t` of the sample's box (wrapping every axis).
fn box_cells<const D: usize>(m: &[usize; D], win: &[WinRef<'_>; D]) -> Vec<(usize, f32)> {
    let mut out = vec![(0usize, 1.0f32)];
    for d in 0..D {
        let mut next = Vec::new();
        for &(base, w) in &out {
            for (t, &wt) in win[d].w.iter().enumerate() {
                next.push((base * m[d] + wrap(win[d].start + t as i32, m[d]), w * wt));
            }
        }
        out = next;
    }
    out
}

/// A grid slice of `len` cells plus `SLACK` canaries past its end; cells in
/// `live` get finite values, every other cell a canary.
fn canaried(len: usize, live: &[(usize, f32)], salt: f32) -> Vec<Complex32> {
    let mut g = vec![CANARY; len + SLACK];
    for &(i, _) in live {
        g[i] = cell(i, salt);
    }
    g
}

/// One grid row `[base + start, base + start + w.len())` of extent `m_last`,
/// split at the wrap point.
fn row_segments(base: usize, start: i32, n: usize, m_last: usize) -> [(usize, usize, usize); 2] {
    let z0 = wrap(start, m_last);
    let first = n.min(m_last - z0);
    [(base + z0, 0, first), (base, first, n - first)]
}

/// The row path: one `gather_row` per (wrapped) grid row.
fn row_gather<const D: usize>(
    grid: &[Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
) -> Complex32 {
    let wz = win[D - 1];
    let row = |base: usize| {
        let mut acc = Complex32::ZERO;
        for (at, k, n) in row_segments(base, wz.start, wz.len(), m[D - 1]) {
            acc += gather_row(&grid[at..at + n], &wz.w[k..k + n]);
        }
        acc
    };
    let mut acc = Complex32::ZERO;
    for ix in 0..win[0].len() {
        let gx = wrap(win[0].start + ix as i32, m[0]);
        if D == 2 {
            acc += row(gx * m[1]).scale(win[0].w[ix]);
        } else {
            for iy in 0..win[1].len() {
                let gy = wrap(win[1].start + iy as i32, m[1]);
                acc += row((gx * m[1] + gy) * m[2]).scale(win[0].w[ix] * win[1].w[iy]);
            }
        }
    }
    acc
}

/// The row path: one `scatter_row` per (wrapped) grid row.
fn row_scatter<const D: usize>(
    grid: &mut [Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
    val: Complex32,
) {
    let wz = win[D - 1];
    let mut row = |base: usize, f: Complex32| {
        for (at, k, n) in row_segments(base, wz.start, wz.len(), m[D - 1]) {
            scatter_row(&mut grid[at..at + n], &wz.w[k..k + n], f);
        }
    };
    for ix in 0..win[0].len() {
        let gx = wrap(win[0].start + ix as i32, m[0]);
        if D == 2 {
            row(gx * m[1], val.scale(win[0].w[ix]));
        } else {
            for iy in 0..win[1].len() {
                let gy = wrap(win[1].start + iy as i32, m[1]);
                row((gx * m[1] + gy) * m[2], val.scale(win[0].w[ix] * win[1].w[iy]));
            }
        }
    }
}

fn near(a: Complex32, b: Complex32, tol: f32) -> bool {
    (a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol
}

fn bits(z: Complex32) -> (u32, u32) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Window starts along one axis of extent `m`: inside, flush with the end,
/// and wrapping past it.
fn placements(len: usize, m: usize) -> [i32; 3] {
    [1, (m - len) as i32, (m - len) as i32 + 2]
}

/// Every placement of outer windows `outer` and each kernel window as the
/// innermost one, on a grid of extents `m`. The two outer axes move
/// together, so the box's last row is the grid's last row whenever all
/// three windows end flush with the grid.
fn cases<const D: usize>(m: [usize; D], outer: &[Window], mut f: impl FnMut([WinRef<'_>; D])) {
    let inner = kernel_windows();
    for wz in &inner {
        for (k, wo) in outer.iter().enumerate() {
            let wy = &outer[(k + 1) % outer.len()];
            for sz in placements(wz.len, m[D - 1]) {
                for (p, sx) in placements(wo.len, m[0]).into_iter().enumerate() {
                    let mut win: [WinRef<'_>; D] = core::array::from_fn(|_| wz.as_ref());
                    win[0] = WinRef { start: sx, w: &wo.w[..wo.len] };
                    if D == 3 {
                        let sy = placements(wy.len, m[1])[p];
                        win[1] = WinRef { start: sy, w: &wy.w[..wy.len] };
                    }
                    win[D - 1] = WinRef { start: sz, w: &wz.w[..wz.len] };
                    f(win);
                }
            }
        }
    }
}

fn outer_windows() -> Vec<Window> {
    let all = kernel_windows();
    [1usize, 4, 9, 17]
        .iter()
        .map(|&taps| *all.iter().find(|w| w.len == taps).expect("tap count present"))
        .collect()
}

fn check_gather<const D: usize>(m: [usize; D]) {
    let len: usize = m.iter().product();
    let outer = outer_windows();
    for_each_isa(|level| {
        cases(m, &outer, |win| {
            let live = box_cells(&m, &win);
            let ga = canaried(len, &live, 0.0);
            let gb = canaried(len, &live, 1.5);
            let scale: f32 =
                live.iter().map(|&(i, w)| w.abs() * (ga[i].re.abs() + ga[i].im.abs())).sum();
            let got = forward_gather(&ga[..len], &m, &win);
            let want = row_gather(&ga[..len], &m, &win);
            let what = format!("D={D} {level:?} starts={:?}", win.map(|w| (w.start, w.len())));
            assert!(got.re.is_finite() && got.im.is_finite(), "{what}: gather read a canary");
            assert!(near(got, want, 1e-5 * scale), "{what}: {got:?} vs row path {want:?}");
            let (pa, pb) = forward_gather2(&ga[..len], &gb[..len], &m, &win);
            let b = forward_gather(&gb[..len], &m, &win);
            assert_eq!(bits(pa), bits(got), "{what}: forward_gather2 channel a");
            assert_eq!(bits(pb), bits(b), "{what}: forward_gather2 channel b");
        });
    });
}

fn check_scatter<const D: usize>(m: [usize; D]) {
    let len: usize = m.iter().product();
    let outer = outer_windows();
    let val = Complex32::new(0.7, -1.3);
    for_each_isa(|level| {
        cases(m, &outer, |win| {
            let live = box_cells(&m, &win);
            let g0 = canaried(len, &live, 0.5);
            let scale: f32 =
                live.iter().map(|&(_, w)| w.abs()).sum::<f32>() * (val.re.abs() + val.im.abs());
            let mut got = g0.clone();
            adjoint_scatter(&mut got[..len], &m, &win, val);
            let mut want = g0.clone();
            row_scatter(&mut want[..len], &m, &win, val);
            let what = format!("D={D} {level:?} starts={:?}", win.map(|w| (w.start, w.len())));
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                if is_canary(g0[i]) {
                    assert!(is_canary(*a), "{what}: canary {i} touched: {a:?}");
                } else {
                    assert!(near(*a, *b, 1e-5 * scale), "{what}: cell {i}: {a:?} vs {b:?}");
                }
            }
        });
    });
}

/// Privatized scatter: the box sits in a halo buffer one cell larger than
/// the box along every axis, with the spare cell after the box (`lead = 0`:
/// a canary just past each row) or before it (`lead = 1`: the last row
/// ends flush with the buffer, its next cell is past the slice).
fn check_scatter_local<const D: usize>() {
    let m = [40usize; D];
    let outer = outer_windows();
    let val = Complex32::new(-0.4, 0.9);
    for_each_isa(|level| {
        cases(m, &outer, |win| {
            if win[0].start != 1 || win[D - 1].start != 1 {
                return; // the halo box follows the window: one placement suffices
            }
            for lead in [0i32, 1] {
                let origin: [i32; D] = core::array::from_fn(|d| win[d].start - lead);
                let size: [usize; D] = core::array::from_fn(|d| win[d].len() + 1);
                let len: usize = size.iter().product();
                let local: [WinRef<'_>; D] =
                    core::array::from_fn(|d| WinRef { start: lead, w: win[d].w });
                let live = box_cells(&size, &local);
                let b0 = canaried(len, &live, 2.0);
                let scale: f32 =
                    live.iter().map(|&(_, w)| w.abs()).sum::<f32>() * (val.re.abs() + val.im.abs());
                let mut got = b0.clone();
                adjoint_scatter_local(&mut got[..len], &origin, &size, &win, val);
                let mut want = b0.clone();
                row_scatter(&mut want[..len], &size, &local, val);
                let what =
                    format!("local D={D} {level:?} lead={lead} taps={:?}", win.map(|w| w.len()));
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    if is_canary(b0[i]) {
                        assert!(is_canary(*a), "{what}: canary {i} touched: {a:?}");
                    } else {
                        assert!(near(*a, *b, 1e-5 * scale), "{what}: cell {i}: {a:?} vs {b:?}");
                    }
                }
            }
        });
    });
}

#[test]
fn box_gather_agrees_with_row_path_2d() {
    let _guard = isa_guard();
    check_gather([17usize, 19]);
}

#[test]
fn box_gather_agrees_with_row_path_3d() {
    let _guard = isa_guard();
    check_gather([17usize, 18, 19]);
}

#[test]
fn box_scatter_agrees_with_row_path_2d() {
    let _guard = isa_guard();
    check_scatter([17usize, 19]);
}

#[test]
fn box_scatter_agrees_with_row_path_3d() {
    let _guard = isa_guard();
    check_scatter([17usize, 18, 19]);
}

#[test]
fn box_scatter_local_agrees_with_row_path() {
    let _guard = isa_guard();
    check_scatter_local::<2>();
    check_scatter_local::<3>();
}

/// Part 1 through the LUT row kernel: at every ISA level `Window::compute`
/// (bounds and weights) and every prefix of its row (`eval_row` at tap
/// counts 1..=17) are bitwise equal to StrictScalar's, for Kaiser–Bessel
/// at W ∈ {1.5, 2, 2.5, 4, 8} and a Gaussian, at coordinates on and one
/// ulp either side of integers and half-integers — where taps land on
/// table points and the bounds flip — plus generic fractions.
#[test]
fn part1_lut_windows_match_strict_scalar_bitwise() {
    let _guard = isa_guard();
    let mut kernels: Vec<InterpKernel> =
        [1.5, 2.0, 2.5, 4.0, 8.0].iter().map(|&w| InterpKernel::new(w, 2.0)).collect();
    kernels.push(InterpKernel::of(KernelChoice::Gaussian, 3.0, 2.0, DEFAULT_LUT_DENSITY));
    let mut coords = Vec::new();
    for base in [9.0f32, 9.5, 10.0, 10.5, 63.0, 63.5] {
        coords.extend([base, base.next_up(), base.next_down(), base + 0.3, base + 0.71]);
    }
    let mut want = Vec::new();
    set_isa_override(IsaLevel::StrictScalar).unwrap();
    for k in &kernels {
        for &u in &coords {
            let win = Window::compute(u, k.w() as f32, k);
            assert!(!k.uses_horner());
            let rows: Vec<Vec<f32>> = (1..=win.len)
                .map(|taps| {
                    let mut row = vec![0.0f32; taps];
                    k.eval_row(win.start, taps, u, &mut row);
                    row
                })
                .collect();
            want.push((win, rows));
        }
    }
    for_each_isa(|level| {
        let mut want = want.iter();
        for k in &kernels {
            for &u in &coords {
                let (w_win, w_rows) = want.next().unwrap();
                let win = Window::compute(u, k.w() as f32, k);
                let label = format!("{level:?} W={} u={u}", k.w());
                assert_eq!((win.start, win.len), (w_win.start, w_win.len), "{label}: bounds");
                let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&win.w), bits(&w_win.w), "{label}: window weights");
                for (taps, w_row) in (1..=win.len).zip(w_rows) {
                    let mut row = vec![f32::NAN; taps];
                    k.eval_row(win.start, taps, u, &mut row);
                    assert_eq!(bits(&row), bits(w_row), "{label}: {taps}-tap row");
                }
            }
        }
        assert!(kernels.iter().any(|k| Window::compute(9.0, k.w() as f32, k).len == 17));
    });
}
