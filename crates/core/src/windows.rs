//! Plan-owned window tables: precomputed Part 1 (Figure 7 amortization).
//!
//! The paper's Figure 7 shows the per-sample window/LUT computation
//! ("Part 1") is a non-trivial slice of convolution time, and the headline
//! use case — iterative CG reconstruction over a fixed trajectory —
//! recomputes it on every operator apply. [`WindowTable`] stores the exact
//! Part 1 output once at plan build, in a packed structure-of-arrays
//! layout (per-sample `start: i32` + fixed-stride `f32` weight rows) that
//! the existing Part 2 row kernels load directly via [`WinRef`].
//!
//! The table stores the *bit-exact* output of [`Window::compute`], so a
//! precomputed apply is bitwise-identical to an on-the-fly apply at every
//! ISA level — the equality is by construction, not by tolerance.
//!
//! [`WindowMode::Auto`] resolves by memory budget: the table costs
//! `≈ samples × D × (stride × 4 + 5)` bytes (see
//! [`WindowTable::estimate_bytes`]), which for a 3D trajectory at `W = 4`
//! is ~200 B/sample — usually an easy win for 2D, a deliberate choice
//! for large 3D point sets.

use crate::conv::{WinRef, Window, MAX_TAPS};
use crate::kernel::InterpKernel;
use crate::stage::SAMPLE_GRAIN;
use nufft_parallel::exec::Executor;
use std::sync::Arc;

/// How a plan obtains per-sample interpolation windows (Part 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WindowMode {
    /// Recompute every window on every apply (no extra memory) — the
    /// historical behavior.
    #[default]
    OnTheFly,
    /// Compute all windows once at plan build and reuse the table on every
    /// apply.
    Precomputed,
    /// Precompute iff the table fits the given memory budget in bytes.
    Auto(usize),
}

impl WindowMode {
    /// Resolves `Auto` against a concrete table size, leaving the two
    /// concrete modes untouched.
    pub fn resolve(self, table_bytes: usize) -> WindowMode {
        match self {
            WindowMode::Auto(budget) => {
                if table_bytes <= budget {
                    WindowMode::Precomputed
                } else {
                    WindowMode::OnTheFly
                }
            }
            other => other,
        }
    }
}

/// Raw-pointer wrapper for the disjoint per-sample writes of the parallel
/// table build (same soundness argument as the operator drivers: every
/// index `i` writes its own rows).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: all users write pairwise-disjoint regions.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 precise capture would otherwise grab the
    /// raw-pointer field itself, which is not `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

/// Packed SoA table of every sample's D windows, in the plan's *internal*
/// (reordered) sample order so table reads during convolution are
/// sequential.
///
/// Layout, indexed by `idx = i * D + d`:
/// * `starts[idx]` — first (unwrapped) neighbor index;
/// * `lens[idx]` — tap count (≤ [`MAX_TAPS`], so `u8` suffices);
/// * `weights[idx * stride ..][..lens[idx]]` — the live weight row.
///
/// `stride` is the maximum tap count rounded up to a full 32-byte SIMD
/// vector of `f32`, keeping every weight row aligned-stride loadable and
/// the tail of each row zero.
pub struct WindowTable<const D: usize> {
    stride: usize,
    starts: Vec<i32>,
    lens: Vec<u8>,
    weights: Vec<f32>,
}

impl<const D: usize> WindowTable<D> {
    /// Weight-row stride for kernel radius `wrad`: `2⌈W⌉+1` rounded up to
    /// 8 floats.
    pub fn stride_for(wrad: f64) -> usize {
        let taps = 2 * wrad.ceil() as usize + 1;
        taps.min(MAX_TAPS).next_multiple_of(8)
    }

    /// Table size in bytes for `n` samples (the `Auto` heuristic's input).
    pub fn estimate_bytes(n: usize, wrad: f64) -> usize {
        let per_dim = Self::stride_for(wrad) * core::mem::size_of::<f32>()
            + core::mem::size_of::<i32>()
            + core::mem::size_of::<u8>();
        n * D * per_dim
    }

    /// Builds the table by running Part 1 once over every coordinate
    /// (parallelized over samples). Stores the exact [`Window::compute`]
    /// output, so table lookups reproduce on-the-fly windows bit-for-bit.
    pub fn build(coords: &[[f32; D]], wrad: f32, kernel: &InterpKernel, exec: &Executor) -> Self {
        let n = coords.len();
        let stride = Self::stride_for(wrad as f64);
        let mut starts = vec![0i32; n * D];
        let mut lens = vec![0u8; n * D];
        let mut weights = vec![0.0f32; n * D * stride];
        {
            let sp = SendPtr(starts.as_mut_ptr());
            let lp = SendPtr(lens.as_mut_ptr());
            let wp = SendPtr(weights.as_mut_ptr());
            exec.parallel_for(n, SAMPLE_GRAIN, |range, _w| {
                for i in range {
                    for d in 0..D {
                        let win = Window::compute(coords[i][d], wrad, kernel);
                        debug_assert!(win.len <= stride, "window wider than table stride");
                        let idx = i * D + d;
                        // SAFETY: each sample index writes only its own
                        // rows; ranges are disjoint across workers.
                        unsafe {
                            *sp.get().add(idx) = win.start;
                            *lp.get().add(idx) = win.len as u8;
                            core::ptr::copy_nonoverlapping(
                                win.w.as_ptr(),
                                wp.get().add(idx * stride),
                                win.len,
                            );
                        }
                    }
                }
            });
        }
        WindowTable { stride, starts, lens, weights }
    }

    /// The table `mode` calls for over `coords`: none unless `mode`
    /// resolves to [`WindowMode::Precomputed`] at this table's size, and
    /// then `held` (a table over the same coordinates) or a fresh
    /// [`WindowTable::build`].
    pub(crate) fn for_mode(
        mode: WindowMode,
        held: Option<Arc<Self>>,
        coords: &[[f32; D]],
        wrad: f64,
        kernel: &InterpKernel,
        exec: &Executor,
    ) -> Option<Arc<Self>> {
        match mode.resolve(Self::estimate_bytes(coords.len(), wrad)) {
            WindowMode::Precomputed => Some(
                held.unwrap_or_else(|| Arc::new(Self::build(coords, wrad as f32, kernel, exec))),
            ),
            _ => None,
        }
    }

    /// Number of samples tabled.
    pub fn len(&self) -> usize {
        self.starts.len() / D
    }

    /// True if the table holds no samples.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Actual heap footprint of the table in bytes.
    pub fn bytes(&self) -> usize {
        self.weights.len() * core::mem::size_of::<f32>()
            + self.starts.len() * core::mem::size_of::<i32>()
            + self.lens.len()
    }

    /// Sample `i`'s D windows as borrowed rows — zero-copy, directly
    /// consumable by the Part 2 kernels.
    #[inline]
    pub fn windows(&self, i: usize) -> [WinRef<'_>; D] {
        core::array::from_fn(|d| {
            let idx = i * D + d;
            let len = self.lens[idx] as usize;
            let base = idx * self.stride;
            WinRef { start: self.starts[idx], w: &self.weights[base..base + len] }
        })
    }
}

/// Where a convolution driver gets its windows: Part 1 on the fly, or the
/// plan's precomputed table. One branch per sample, perfectly predicted —
/// both arms feed the identical Part 2 path.
pub enum WindowSource<'a, const D: usize> {
    /// Compute Part 1 per sample from coordinates.
    Fly { coords: &'a [[f32; D]], wrad: f32, kernel: &'a InterpKernel },
    /// Read the precomputed table.
    Table(&'a WindowTable<D>),
}

impl<'a, const D: usize> WindowSource<'a, D> {
    /// Reads `table` if one is held, else computes Part 1 on the fly from
    /// `coords` at radius `wrad`.
    pub(crate) fn new(
        table: Option<&'a WindowTable<D>>,
        coords: &'a [[f32; D]],
        wrad: f32,
        kernel: &'a InterpKernel,
    ) -> Self {
        match table {
            Some(t) => WindowSource::Table(t),
            None => WindowSource::Fly { coords, wrad, kernel },
        }
    }

    /// Sample `i`'s windows. `stage` is caller-provided staging storage for
    /// the on-the-fly arm (so the driver's hot loop performs no allocation);
    /// the table arm borrows straight from the table.
    #[inline]
    pub fn at<'s>(&'s self, i: usize, stage: &'s mut [Window; D]) -> [WinRef<'s>; D] {
        match self {
            WindowSource::Fly { coords, wrad, kernel } => {
                for d in 0..D {
                    stage[d] = Window::compute(coords[i][d], *wrad, kernel);
                }
                crate::conv::win_refs(stage)
            }
            WindowSource::Table(t) => t.windows(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelChoice, DEFAULT_LUT_DENSITY};

    fn kernel() -> InterpKernel {
        InterpKernel::of(KernelChoice::KaiserBessel, 2.0, 2.0, DEFAULT_LUT_DENSITY)
    }

    #[test]
    fn table_reproduces_window_compute_bitwise() {
        let k = kernel();
        let coords: Vec<[f32; 2]> = (0..257)
            .map(|i| {
                let u = (i as f32 * 0.613) % 16.0;
                let v = (i as f32 * 7.41) % 16.0;
                [u, v]
            })
            .collect();
        let exec = Executor::new(2);
        let table = WindowTable::<2>::build(&coords, 2.0, &k, &exec);
        assert_eq!(table.len(), coords.len());
        let mut stage = [Window::EMPTY; 2];
        let fly = WindowSource::Fly { coords: &coords, wrad: 2.0, kernel: &k };
        for i in 0..coords.len() {
            let from_table = table.windows(i);
            let from_fly = fly.at(i, &mut stage);
            for d in 0..2 {
                assert_eq!(from_table[d].start, from_fly[d].start, "start i={i} d={d}");
                assert_eq!(from_table[d].len(), from_fly[d].len(), "len i={i} d={d}");
                for (a, b) in from_table[d].w.iter().zip(from_fly[d].w) {
                    assert_eq!(a.to_bits(), b.to_bits(), "weight bits i={i} d={d}");
                }
            }
        }
    }

    #[test]
    fn auto_resolves_by_budget() {
        let n = 10_000;
        let bytes = WindowTable::<3>::estimate_bytes(n, 4.0);
        assert_eq!(WindowMode::Auto(bytes).resolve(bytes), WindowMode::Precomputed);
        assert_eq!(WindowMode::Auto(bytes - 1).resolve(bytes), WindowMode::OnTheFly);
        assert_eq!(WindowMode::Precomputed.resolve(usize::MAX), WindowMode::Precomputed);
        assert_eq!(WindowMode::OnTheFly.resolve(0), WindowMode::OnTheFly);
    }

    #[test]
    fn estimate_matches_actual_footprint() {
        let k = kernel();
        let coords: Vec<[f32; 1]> = (0..100).map(|i| [(i as f32 * 0.37) % 16.0]).collect();
        let exec = Executor::new(1);
        let table = WindowTable::<1>::build(&coords, 2.0, &k, &exec);
        assert_eq!(table.bytes(), WindowTable::<1>::estimate_bytes(100, 2.0));
    }

    #[test]
    fn stride_is_simd_friendly() {
        assert_eq!(WindowTable::<2>::stride_for(2.0), 8); // 5 taps -> 8
        assert_eq!(WindowTable::<2>::stride_for(4.0), 16); // 9 taps -> 16
        assert_eq!(WindowTable::<2>::stride_for(8.0), 24); // 17 taps -> 24
    }
}
