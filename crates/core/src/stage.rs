//! Public, independently-plannable **stage operators** — the building
//! blocks every NUFFT transform is composed from.
//!
//! [`NufftPlan`](crate::plan::NufftPlan) used to hard-code four apply
//! pipelines over private drivers. This module extracts those drivers into
//! four first-class operators with explicit buffer contracts:
//!
//! * [`SpreadOp`] — the adjoint *scatter* convolution: non-uniform samples
//!   accumulated onto an oversampled grid under the paper's task graph
//!   (Gray-code exclusion edges, selective privatization, canonical
//!   tile-major visit order — so output is deterministic at every thread
//!   count);
//! * [`InterpOp`] — the forward *gather* convolution: off-grid values
//!   interpolated from a transformed grid, one dynamic chunked loop;
//! * [`FftOp`] — the oversampled n-dimensional FFT over the plan's
//!   tile/grain decomposition, including the four-step (sub-FFT +
//!   cache-blocked transpose) strategy and its `fs` intermediate buffer;
//! * [`DeconvOp`] — the roll-off correction: scaled embed of an image into
//!   the oversampled grid, and the adjoint scaled extract.
//!
//! The plan's fused DAG builders consume the same stage state
//! (`crate::fused` builds per-stage DAG *fragments* from it), and the
//! graph's convolution nodes call the same per-chunk and per-task bodies
//! the [`InterpOp`] and [`SpreadOp`] drivers run, so every plan operator is
//! bitwise-equal to the composition of its stages. The [`SpreadOp`]
//! driver's graph is the fused adjoint's spread fragment on its own: the
//! same expansion of the task graph, run by the same executor entry.
//! Type-3 transforms ([`crate::type3::Type3Plan`]) and the standalone
//! `spread_only`/`interp_only` entry points are built from the same four
//! operators.
//!
//! ## Buffer contracts
//!
//! * `SpreadOp::apply(samples, grid)` — `grid.len() == grid_len()`; the
//!   grid is zeroed then accumulated into (deterministic order).
//! * `InterpOp::apply(grid, out)` — pure reads of `grid`, one write per
//!   sample at its original (caller-order) position.
//! * `FftOp::apply(data, dir)` — in-place, unnormalized in both
//!   directions (the exact adjoint pair). `FftOp::apply_banded` is its
//!   zero-aware form for a grid holding an embedded image: the forward
//!   input must be zero outside the image band, and the backward output
//!   is valid only inside it.
//! * `DeconvOp::embed(image, grid)` / `extract(grid, image)` — image is
//!   the centered `n`-extent block of the `m`-extent grid, multiplied by
//!   the kernel's inverse Fourier roll-off.
//!
//! Steady-state applies of every operator are allocation-free: all scratch
//! (task-graph run state, per-worker FFT tiles, the four-step `fs` buffer,
//! privatized halo buffers) is operator-owned and reused.

use crate::conv::{
    adjoint_scatter, adjoint_scatter_local, forward_gather, forward_gather2, reduce_local, Window,
    MAX_TAPS,
};
use crate::fused::{self, TilePlan, TileSet};
use crate::grid::{embed_scaled, extract_scaled, Geometry};
use crate::kernel::InterpKernel;
use crate::plan::NufftConfig;
use crate::scale::build_scale;
use crate::tasks::{preprocess, Preprocess, PreprocessConfig};
use crate::windows::{WindowSource, WindowTable};
use core::ops::Range;
use nufft_fft::{Direction, FftNd, FftStrategy};
use nufft_math::Complex32;
use nufft_parallel::exec::{DagScratch, Executor, JobPriority, TaskPhase};
use nufft_parallel::graph::{Dag, DagBuilder, QueuePolicy};
use nufft_parallel::scratch::WorkerLocal;
use std::sync::Arc;

/// Complex elements per 64-byte cache line: chunk boundaries of contiguous
/// output loops are rounded to this so two workers never split a line.
pub(crate) const LANE_ALIGN: usize = 64 / core::mem::size_of::<Complex32>();

/// Samples per chunk of the per-sample loops: the forward gather (stage
/// driver and fused graph) and the window-table build.
pub(crate) const SAMPLE_GRAIN: usize = 256;

/// Raw-pointer wrapper for disjoint-region writes from worker threads.
///
/// Soundness is established by the callers: grid writers are serialized by
/// the task graph (adjacent tasks never run concurrently — see the
/// exclusion tests in `nufft-parallel`), forward gathers write distinct
/// output slots, and FFT lines are pairwise disjoint.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: see type docs — all users write pairwise-disjoint regions.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 precise capture would otherwise grab the
    /// raw-pointer field itself, which is not `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Sizes the §III-B1 partition grid from the thread count: ~8 tasks per
/// thread overall.
pub(crate) fn default_partitions(threads: usize, ndim: usize) -> usize {
    let target = (8 * threads) as f64;
    (target.powf(1.0 / ndim as f64).ceil() as usize).max(2)
}

/// Validates the kernel-radius invariants shared by every conv stage.
pub(crate) fn check_kernel_fit<const D: usize>(m: &[usize; D], w: f64) {
    assert!((1..=3).contains(&D), "only 1D/2D/3D supported");
    assert!(w > 0.0, "kernel radius must be positive");
    let taps = 2 * w.ceil() as usize + 1;
    assert!(
        taps <= MAX_TAPS,
        "kernel radius W={w} needs {taps} taps per window, exceeding MAX_TAPS={MAX_TAPS}"
    );
    for d in 0..D {
        assert!(m[d] >= taps, "grid extent {} too small for kernel radius W={w}", m[d]);
    }
}

// ---------------------------------------------------------------------------
// SpreadOp
// ---------------------------------------------------------------------------

/// The adjoint scatter-convolution stage: accumulates weighted kernel
/// windows of every non-uniform sample onto an oversampled grid, under the
/// paper's task-graph scheduler with selective privatization.
///
/// Owns everything the scatter reuses across applies: the preprocessing
/// (partitions, task graph, canonical sample order), the kernel + LUT, the
/// optional precomputed window table, the privatized halo buffers, the
/// task graph's expansion into a [`Dag`] and its run scratch — so
/// steady-state applies allocate nothing.
pub struct SpreadOp<const D: usize> {
    /// Oversampled grid extents.
    pub(crate) m: [usize; D],
    pub(crate) grid_len: usize,
    /// Shared preprocessing (also read by [`InterpOp`] and the fused
    /// builders).
    pub(crate) pre: Arc<Preprocess<D>>,
    pub(crate) kernel: Arc<InterpKernel>,
    /// Kernel radius in grid units.
    pub(crate) wrad: f32,
    /// Ready-queue discipline of the task-graph traversal.
    pub(crate) policy: QueuePolicy,
    /// Precomputed Part 1 windows (shared with the matching [`InterpOp`]).
    pub(crate) windows: Option<Arc<WindowTable<D>>>,
    /// Privatized tasks' halo buffers, indexed by `buf_of_task`. Each
    /// buffer holds `priv_channels` back-to-back copies of its region so
    /// the batched adjoint privatizes per channel.
    pub(crate) priv_bufs: Vec<Vec<Complex32>>,
    /// Per-channel region length of each privatized buffer.
    pub(crate) priv_lens: Vec<usize>,
    /// Channel capacity the privatized buffers are currently sized for.
    pub(crate) priv_channels: usize,
    /// Staged `(base, per_channel_len)` pointers into `priv_bufs`,
    /// refreshed (without allocating) at the top of every apply.
    pub(crate) priv_ptrs: Vec<(SendPtr<Complex32>, usize)>,
    pub(crate) buf_of_task: Vec<u32>,
    /// The task graph expanded into plain nodes at plan time, tagged like
    /// the fused adjoint's scatter nodes and prioritized by their task's
    /// sample count.
    pub(crate) dag: Dag,
    /// Reusable run state of `dag` (shards, pending counters, node logs).
    pub(crate) scratch: DagScratch,
}

impl<const D: usize> SpreadOp<D> {
    /// [`SpreadOp::plan`] with the kernel family and its parameters derived
    /// from a relative-accuracy tolerance (the ES kernel by default — see
    /// [`NufftConfig::with_tolerance`]); `cfg`'s non-kernel knobs are kept.
    ///
    /// # Panics
    /// See [`SpreadOp::plan`]; additionally panics unless `0 < eps < 1`.
    pub fn plan_with_tolerance(
        m: [usize; D],
        coords: Vec<[f32; D]>,
        cfg: &NufftConfig,
        eps: f64,
        exec: &Executor,
    ) -> Self {
        Self::plan(m, coords, &(*cfg).with_tolerance(eps), exec)
    }

    /// Plans a standalone spread operator for grid extents `m` and sample
    /// coordinates already in grid units `[0, m)` per dimension. Honors the
    /// config's partitioning, privatization, sort and window-mode knobs
    /// (`cfg.alpha` only affects the kernel shape parameter).
    ///
    /// # Panics
    /// Panics if `D ∉ {1,2,3}`, the kernel does not fit the grid
    /// (`m < 2⌈W⌉+1`), the kernel is wider than [`MAX_TAPS`], or a
    /// coordinate is out of range.
    pub fn plan(m: [usize; D], coords: Vec<[f32; D]>, cfg: &NufftConfig, exec: &Executor) -> Self {
        check_kernel_fit(&m, cfg.w);
        let kernel = Arc::new(InterpKernel::of(cfg.kernel, cfg.w, cfg.alpha, cfg.lut_density));
        let threads = exec.threads().max(1);
        let partitions = cfg.partitions_per_dim.unwrap_or_else(|| default_partitions(threads, D));
        let pcfg = PreprocessConfig {
            partitions_per_dim: partitions,
            w: cfg.w,
            fixed_partitions: cfg.fixed_partitions,
            privatization: cfg.privatization,
            threads: exec.threads(),
            sort: cfg.sort,
            tile: (4.0 * cfg.w).ceil() as usize,
        };
        let pre = Arc::new(preprocess(&coords, m, &pcfg));
        let windows =
            WindowTable::for_mode(cfg.window_mode, None, &pre.coords, cfg.w, &kernel, exec);
        Self::from_parts(m, pre, kernel, cfg.w as f32, cfg.policy, windows)
    }

    /// Assembles a spread operator from already-built parts (the plan
    /// constructor times preprocessing itself and shares the kernel and
    /// window table with the sibling [`InterpOp`]).
    pub(crate) fn from_parts(
        m: [usize; D],
        pre: Arc<Preprocess<D>>,
        kernel: Arc<InterpKernel>,
        wrad: f32,
        policy: QueuePolicy,
        windows: Option<Arc<WindowTable<D>>>,
    ) -> Self {
        let grid_len: usize = m.iter().product();
        let mut priv_bufs = Vec::new();
        let mut priv_lens = Vec::new();
        let mut buf_of_task = vec![u32::MAX; pre.graph.len()];
        for (t, region) in pre.regions.iter().enumerate() {
            if let Some(r) = region {
                buf_of_task[t] = priv_bufs.len() as u32;
                priv_bufs.push(vec![Complex32::ZERO; r.len()]);
                priv_lens.push(r.len());
            }
        }
        let graph = &pre.graph;
        let mut builder = DagBuilder::new();
        graph.expand_into(&mut builder, |t, phase| (fused::task_tag(t, phase), graph.weight(t)));
        let dag = builder.build();
        SpreadOp {
            m,
            grid_len,
            pre,
            kernel,
            wrad,
            policy,
            windows,
            priv_bufs,
            priv_lens,
            priv_channels: 1,
            priv_ptrs: Vec::new(),
            buf_of_task,
            dag,
            scratch: DagScratch::new(),
        }
    }

    /// Number of non-uniform samples this operator was planned for.
    pub fn num_samples(&self) -> usize {
        self.pre.coords.len()
    }

    /// Oversampled grid extents.
    pub fn grid_extents(&self) -> [usize; D] {
        self.m
    }

    /// Grid element count (`Π m_d`) — the required output buffer length.
    pub fn grid_len(&self) -> usize {
        self.grid_len
    }

    /// Scatters all samples onto `grid` (zeroed first): `grid` gains
    /// `Σ_i samples[i] · window_i`. Output is bitwise-deterministic across
    /// thread counts and sort modes (canonical tile-major accumulation
    /// order).
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the operator.
    pub fn apply(
        &mut self,
        exec: &Executor,
        priority: JobPriority,
        samples: &[Complex32],
        grid: &mut [Complex32],
    ) {
        assert_eq!(samples.len(), self.num_samples(), "sample buffer length mismatch");
        assert_eq!(grid.len(), self.grid_len, "grid buffer length mismatch");
        grid.fill(Complex32::ZERO);
        self.refresh_priv_ptrs();
        let source =
            WindowSource::new(self.windows.as_deref(), &self.pre.coords, self.wrad, &self.kernel);
        let grid_ptrs = [SendPtr(grid.as_mut_ptr())];
        let scatter = Scatter {
            pre: &self.pre,
            source: &source,
            m: &self.m,
            grid_ptrs: &grid_ptrs,
            grid_len: self.grid_len,
            priv_ptrs: &self.priv_ptrs,
            buf_of_task: &self.buf_of_task,
            samples: &[samples],
        };
        exec.run_dag(&self.dag, self.policy, priority, &mut self.scratch, |_node, tag, _w| {
            let phase = fused::task_phase(fused::kind_of(tag)).expect("a scatter-task node");
            // SAFETY: the expanded task graph never runs adjacent tasks'
            // shared-grid nodes (whose halo boxes overlap) concurrently and
            // runs a privatized task's reduce after its convolve — see the
            // exclusion tests in `nufft-parallel`. `grid` is borrowed for
            // the whole dispatch.
            unsafe { scatter.run_task(fused::index_of(tag), phase) }
        });
    }

    /// The operator's current window source (table if held, else on the
    /// fly).
    pub(crate) fn window_source(&self) -> WindowSource<'_, D> {
        WindowSource::new(self.windows.as_deref(), &self.pre.coords, self.wrad, &self.kernel)
    }

    /// Grows the privatized halo buffers to hold `channels` back-to-back
    /// region copies each (no-op when already large enough).
    pub(crate) fn ensure_priv_channels(&mut self, channels: usize) {
        if channels > self.priv_channels {
            for (buf, &len) in self.priv_bufs.iter_mut().zip(&self.priv_lens) {
                buf.resize(channels * len, Complex32::ZERO);
            }
            self.priv_channels = channels;
        }
    }

    /// Restages the `(base, per_channel_len)` pointer cache into the
    /// privatized buffers. Reuses the vector's capacity — allocation-free
    /// after the first apply.
    pub(crate) fn refresh_priv_ptrs(&mut self) {
        self.priv_ptrs.clear();
        let lens = &self.priv_lens;
        self.priv_ptrs.extend(
            self.priv_bufs.iter_mut().zip(lens).map(|(b, &l)| (SendPtr(b.as_mut_ptr()), l)),
        );
    }
}

// ---------------------------------------------------------------------------
// InterpOp
// ---------------------------------------------------------------------------

/// The forward gather-convolution stage: interpolates off-grid sample
/// values from an (already transformed) oversampled grid. Shares the
/// preprocessing, kernel and window table with its sibling [`SpreadOp`] by
/// `Arc` — planning one trajectory once serves both directions.
pub struct InterpOp<const D: usize> {
    pub(crate) m: [usize; D],
    pub(crate) grid_len: usize,
    pub(crate) pre: Arc<Preprocess<D>>,
    pub(crate) kernel: Arc<InterpKernel>,
    pub(crate) wrad: f32,
    pub(crate) windows: Option<Arc<WindowTable<D>>>,
}

impl<const D: usize> InterpOp<D> {
    /// An interpolation operator over the same trajectory, kernel and
    /// window table as `spread` (cheap: shares the `Arc`s).
    pub fn from_spread(spread: &SpreadOp<D>) -> Self {
        InterpOp {
            m: spread.m,
            grid_len: spread.grid_len,
            pre: Arc::clone(&spread.pre),
            kernel: Arc::clone(&spread.kernel),
            wrad: spread.wrad,
            windows: spread.windows.clone(),
        }
    }

    /// Plans a standalone interpolation operator (see [`SpreadOp::plan`]
    /// for the coordinate convention and panics).
    pub fn plan(m: [usize; D], coords: Vec<[f32; D]>, cfg: &NufftConfig, exec: &Executor) -> Self {
        Self::from_spread(&SpreadOp::plan(m, coords, cfg, exec))
    }

    /// [`InterpOp::plan`] with kernel parameters derived from a
    /// relative-accuracy tolerance (see [`NufftConfig::with_tolerance`]).
    ///
    /// # Panics
    /// See [`SpreadOp::plan`]; additionally panics unless `0 < eps < 1`.
    pub fn plan_with_tolerance(
        m: [usize; D],
        coords: Vec<[f32; D]>,
        cfg: &NufftConfig,
        eps: f64,
        exec: &Executor,
    ) -> Self {
        Self::plan(m, coords, &(*cfg).with_tolerance(eps), exec)
    }

    /// Number of non-uniform samples this operator was planned for.
    pub fn num_samples(&self) -> usize {
        self.pre.coords.len()
    }

    /// Grid element count (`Π m_d`) — the required input buffer length.
    pub fn grid_len(&self) -> usize {
        self.grid_len
    }

    /// Gathers every sample's value from `grid`: `out[p]` receives the
    /// interpolation at trajectory point `p` (original caller order).
    /// Pure reads of `grid`; bitwise-deterministic at any thread count.
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the operator.
    pub fn apply(&self, exec: &Executor, grid: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(grid.len(), self.grid_len, "grid buffer length mismatch");
        assert_eq!(out.len(), self.num_samples(), "sample buffer length mismatch");
        let source = self.window_source();
        // The gather only reads through this pointer.
        let grid_ptrs = [SendPtr(grid.as_ptr().cast_mut())];
        let out_ptrs = [SendPtr(out.as_mut_ptr())];
        let gather = Gather {
            pre: &self.pre,
            source: &source,
            m: &self.m,
            grid_ptrs: &grid_ptrs,
            grid_len: self.grid_len,
            out_ptrs: &out_ptrs,
        };
        // Storage order IS the traversal here: under `SortMode::TileMajor`
        // each chunk streams grid tiles; forward gathers are pure reads, so
        // the result is permutation-invariant (each write lands at the
        // original position `order[i]`) and no de-permutation pass is
        // needed — outputs are bitwise-identical across sort modes.
        exec.parallel_for_aligned(self.num_samples(), SAMPLE_GRAIN, LANE_ALIGN, |range, _w| {
            // SAFETY: `grid` is borrowed shared and `out` exclusively for
            // the whole dispatch; the executor's ranges partition the
            // samples, so their output slots are disjoint.
            unsafe { gather.run(range) }
        });
    }

    pub(crate) fn window_source(&self) -> WindowSource<'_, D> {
        WindowSource::new(self.windows.as_deref(), &self.pre.coords, self.wrad, &self.kernel)
    }
}

// ---------------------------------------------------------------------------
// FftOp
// ---------------------------------------------------------------------------

/// The oversampled-FFT stage: an n-dimensional in-place FFT parallelized
/// as SIMD-width tiles of adjacent lines per axis, with the four-step
/// (sub-FFT + cache-blocked transpose) strategy on out-of-cache axes.
/// Owns the tile/grain decomposition, per-worker tile scratch and the
/// four-step `fs` intermediate buffer — applies are allocation-free.
pub struct FftOp {
    pub(crate) fft: FftNd,
    /// Plan-owned FFT tile/grain decomposition (hoisted out of per-call
    /// computation).
    pub(crate) tile_plan: TilePlan,
    /// Per-worker FFT tile scratch, sized once at plan build.
    pub(crate) scratch: WorkerLocal<Vec<Complex32>>,
    /// Four-step intermediate spectrum buffer (`fs`): one grid-sized region
    /// per four-step axis per concurrent channel, empty when every axis
    /// runs the recursive path.
    pub(crate) fs: Vec<Complex32>,
    pub(crate) grid_len: usize,
}

impl FftOp {
    /// Plans an FFT stage for `shape` under `strategy` (see
    /// [`FftStrategy`]), sized for `threads` workers.
    pub fn plan(shape: &[usize], strategy: FftStrategy, llc_budget: usize, threads: usize) -> Self {
        Self::plan_banded(shape, shape, strategy, llc_budget, threads)
    }

    /// [`FftOp::plan`] for a grid that holds an `image`-extent block at the
    /// centered embed's positions (per axis `d`, `image[d] ≤ shape[d]`):
    /// besides the full transform, the plan lists the tiles the zero-aware
    /// passes of [`FftOp::apply_banded`] run. The *band* of axis `d` is
    /// the grid indices `g` with `(g + ⌊image[d]/2⌋) mod shape[d] <
    /// image[d]` — the positions [`crate::grid::embed_scaled`] fills and
    /// [`crate::grid::extract_scaled`] reads.
    pub fn plan_banded(
        shape: &[usize],
        image: &[usize],
        strategy: FftStrategy,
        llc_budget: usize,
        threads: usize,
    ) -> Self {
        let fft = FftNd::with_strategy(shape, strategy, llc_budget);
        let tile_plan = TilePlan::new(&fft, image, threads);
        let tile_b = tile_plan.b;
        let scratch =
            WorkerLocal::new(threads, |_| vec![Complex32::ZERO; fft.batch_scratch_len(tile_b)]);
        // One grid-sized region **per four-step axis** (see
        // `FftNd::fs_slots`): the fused DAG lets a later axis's sub-FFT
        // shards start while an earlier axis's combine shards still read
        // their sub-spectra, so axes may not share a region.
        let grid_len = fft.len();
        let fs = vec![Complex32::ZERO; grid_len * fft.fs_slots()];
        FftOp { fft, tile_plan, scratch, fs, grid_len }
    }

    /// The transform extents.
    pub fn shape(&self) -> &[usize] {
        self.fft.shape()
    }

    /// Element count (`Π shape_d`) — the required buffer length.
    pub fn len(&self) -> usize {
        self.grid_len
    }

    /// Whether the transform is empty (never, for a planned op).
    pub fn is_empty(&self) -> bool {
        self.grid_len == 0
    }

    /// In-place n-dimensional FFT of `data`, unnormalized in both
    /// directions (so `Forward` then `Backward` scales by `len()`).
    ///
    /// Every axis runs as SIMD-width tiles of adjacent lines sharded over
    /// the executor, one dispatch per axis. The tile lists and chunk grain
    /// come from the plan-owned tile plan and tile scratch from the op's
    /// per-worker arena — no computation or allocation at apply time. A
    /// four-step axis runs as two dispatches over finer shards — tile ×
    /// column-group sub-FFTs into `fs`, then tile × k-block combines back —
    /// with the join between them standing in for the fused graph's
    /// sub → combine edges.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn apply(&mut self, exec: &Executor, data: &mut [Complex32], dir: Direction) {
        self.run(exec, data, dir, TileSet::All);
    }

    /// The zero-aware form of [`FftOp::apply`] on a [`FftOp::plan_banded`]
    /// plan: same arithmetic per line, fewer lines.
    ///
    /// * `Forward` requires `data` to be zero outside the band on every
    ///   axis (an embedded image); the output is the full transform. Axis
    ///   `k` skips the lines whose indices on the axes after `k` leave the
    ///   band: they are still all zero, which is what their transform
    ///   would write back.
    /// * `Backward` transforms any `data`, but its output is valid only
    ///   inside the band on every axis (where an extract reads); elsewhere
    ///   it holds partial results. Axis `k` skips the lines whose indices
    ///   on the axes before `k` leave the band: nothing reads them again.
    ///
    /// With `image == shape` both are exactly [`FftOp::apply`].
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn apply_banded(&mut self, exec: &Executor, data: &mut [Complex32], dir: Direction) {
        let set = match dir {
            Direction::Forward => TileSet::Forward,
            Direction::Backward => TileSet::Adjoint,
        };
        self.run(exec, data, dir, set);
    }

    fn run(&mut self, exec: &Executor, data: &mut [Complex32], dir: Direction, set: TileSet) {
        assert_eq!(data.len(), self.grid_len, "fft buffer length mismatch");
        let Self { fft, tile_plan: tp, scratch, fs, .. } = self;
        let base = SendPtr(data.as_mut_ptr());
        let b = tp.b;
        for axis in 0..fft.shape().len() {
            let list = tp.list(set, axis);
            let tiles = &list.tiles[..];
            let align = tp.axes[axis].align;
            if let Some((colg, kbg)) = tp.axes[axis].shards {
                debug_assert!(fs.len() >= fft.len(), "fs scratch not sized for four-step");
                let fsp = SendPtr(fs.as_mut_ptr());
                exec.parallel_for_aligned(tiles.len() * colg, list.grain, align, |range, w| {
                    // SAFETY: the executor guarantees worker `w` is the only
                    // thread using slot `w` during this dispatch.
                    let scratch = unsafe { scratch.get(w) };
                    for i in range {
                        // SAFETY: distinct (tile, column-group) shards read
                        // and write disjoint regions.
                        unsafe {
                            fft.fs_sub_pass_raw(
                                base.get(),
                                fsp.get(),
                                axis,
                                tiles[i / colg] as usize,
                                i % colg,
                                b,
                                scratch,
                                dir,
                            )
                        };
                    }
                });
                exec.parallel_for_aligned(tiles.len() * kbg, list.grain, align, |range, w| {
                    // SAFETY: as above.
                    let scratch = unsafe { scratch.get(w) };
                    for i in range {
                        // SAFETY: distinct (tile, k-block) shards touch
                        // disjoint regions; every sub pass completed at the
                        // join of the previous dispatch.
                        unsafe {
                            fft.fs_combine_pass_raw(
                                fsp.get(),
                                base.get(),
                                axis,
                                tiles[i / kbg] as usize,
                                i % kbg,
                                b,
                                scratch,
                                dir,
                            )
                        };
                    }
                });
                continue;
            }
            // Tile-chunk boundaries rounded to a full cache line of complex
            // elements keep two workers off the same line of line-starts
            // (on the contiguous axis also to whole runs of `b` lines).
            exec.parallel_for_aligned(tiles.len(), list.grain, align, |range, w| {
                // SAFETY: the executor guarantees worker `w` is the only
                // thread using slot `w` during this dispatch.
                let scratch = unsafe { scratch.get(w) };
                // SAFETY: tiles of one axis are pairwise disjoint; the axes
                // are processed with a barrier between them (parallel_for
                // joins before returning).
                unsafe {
                    fft.transform_tiles_raw(base.get(), axis, &tiles[range], b, scratch, dir)
                };
            });
        }
    }

    /// Grows the four-step `fs` intermediate buffer to `channels`
    /// concurrent copies of its per-axis slot set (no-op on recursive-only
    /// plans — the buffer stays empty — or when already large enough).
    pub(crate) fn ensure_channels(&mut self, channels: usize) {
        if self.fs.is_empty() {
            return;
        }
        let need = self.grid_len * self.fft.fs_slots() * channels;
        if self.fs.len() < need {
            self.fs.resize(need, Complex32::ZERO);
        }
    }
}

// ---------------------------------------------------------------------------
// DeconvOp
// ---------------------------------------------------------------------------

/// The roll-off correction stage: the centered embed of an `n`-extent
/// image into the `m`-extent oversampled grid scaled by the kernel's
/// inverse Fourier transform, and its exact adjoint (the scaled extract).
pub struct DeconvOp<const D: usize> {
    pub(crate) geo: Geometry<D>,
    pub(crate) scale: Vec<f32>,
}

impl<const D: usize> DeconvOp<D> {
    /// Plans a deconvolution stage from image extents and the stage
    /// geometry's kernel.
    pub fn plan(n: [usize; D], alpha: f64, kernel: &InterpKernel) -> Self {
        let geo = Geometry::new(n, alpha);
        let scale = build_scale(&geo, kernel);
        DeconvOp { geo, scale }
    }

    /// Problem geometry (image extents `n`, grid extents `m`).
    pub fn geometry(&self) -> &Geometry<D> {
        &self.geo
    }

    /// Zeroes `grid` and writes `image · scale` into its centered block.
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the geometry.
    pub fn embed(&self, image: &[Complex32], grid: &mut [Complex32]) {
        assert_eq!(image.len(), self.geo.image_len(), "image length mismatch");
        assert_eq!(grid.len(), self.geo.grid_len(), "grid length mismatch");
        grid.fill(Complex32::ZERO);
        embed_scaled(&self.geo, image, &self.scale, grid);
    }

    /// Extracts the centered block of `grid` into `out`, multiplied by the
    /// same scale — the exact adjoint of [`DeconvOp::embed`].
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the geometry.
    pub fn extract(&self, grid: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(grid.len(), self.geo.grid_len(), "grid length mismatch");
        assert_eq!(out.len(), self.geo.image_len(), "image length mismatch");
        extract_scaled(&self.geo, grid, &self.scale, out);
    }
}

// ---------------------------------------------------------------------------
// Convolution bodies (shared by the stage drivers and the fused graphs)
// ---------------------------------------------------------------------------

/// One forward gather over `grid_ptrs.len()` channels: the state a gather
/// chunk reads. [`InterpOp::apply`] runs it over executor ranges and the
/// fused forward graph over its gather nodes, so both run this one body.
pub(crate) struct Gather<'a, const D: usize> {
    pub(crate) pre: &'a Preprocess<D>,
    pub(crate) source: &'a WindowSource<'a, D>,
    pub(crate) m: &'a [usize; D],
    /// Channel `c`'s oversampled spectrum (`grid_len` elements, only read).
    pub(crate) grid_ptrs: &'a [SendPtr<Complex32>],
    pub(crate) grid_len: usize,
    /// Channel `c`'s output base, written at permuted positions `order[i]`.
    pub(crate) out_ptrs: &'a [SendPtr<Complex32>],
}

impl<const D: usize> Gather<'_, D> {
    /// Gathers the samples at storage positions `range`: one Part 1 window
    /// fetch per sample, then a Part 2 gather per channel — channel pairs
    /// go through [`forward_gather2`], which shares one weight expansion
    /// across both grids while staying bitwise-equal to two single gathers.
    ///
    /// # Safety
    /// Every grid must hold `grid_len` elements that nothing writes during
    /// the call, every output must hold one slot per sample, and no other
    /// thread may write the slots `order[range]` of any output meanwhile.
    #[inline]
    pub(crate) unsafe fn run(&self, range: Range<usize>) {
        let Gather { pre, source, m, grid_ptrs, grid_len, out_ptrs } = *self;
        let order = &pre.order[..];
        let channels = grid_ptrs.len();
        // SAFETY: the caller keeps the grids readable and unwritten.
        let grid = |c: usize| unsafe {
            core::slice::from_raw_parts(grid_ptrs[c].get() as *const Complex32, grid_len)
        };
        let mut stage = [Window::EMPTY; D];
        for i in range {
            let win = source.at(i, &mut stage);
            let slot = order[i] as usize;
            let mut c = 0;
            while c + 2 <= channels {
                let (va, vb) = forward_gather2(grid(c), grid(c + 1), m, &win);
                // SAFETY: `order` is a permutation and the caller owns the
                // slots of `range`; each (c, i) writes a distinct slot.
                unsafe {
                    *out_ptrs[c].get().add(slot) = va;
                    *out_ptrs[c + 1].get().add(slot) = vb;
                }
                c += 2;
            }
            if c < channels {
                let v = forward_gather(grid(c), m, &win);
                // SAFETY: as above.
                unsafe { *out_ptrs[c].get().add(slot) = v };
            }
        }
    }
}

/// One adjoint scatter over `grid_ptrs.len()` channels: the state every
/// task body reads. [`SpreadOp::apply`] runs it over the conv/priv/reduce
/// nodes of its expanded task graph and the fused adjoint graph over the
/// same nodes, so both run these bodies. A privatized task convolves into `channels`
/// back-to-back copies of its halo region and its decoupled reduction
/// folds each copy into the matching grid; at one channel this is the
/// paper's single-operator protocol, so batched output is
/// bitwise-identical to repeated single applies.
pub(crate) struct Scatter<'a, const D: usize> {
    pub(crate) pre: &'a Preprocess<D>,
    pub(crate) source: &'a WindowSource<'a, D>,
    pub(crate) m: &'a [usize; D],
    /// Channel `c`'s grid (`grid_len` elements).
    pub(crate) grid_ptrs: &'a [SendPtr<Complex32>],
    pub(crate) grid_len: usize,
    /// `(base, per-channel length)` of each privatized task's buffer.
    pub(crate) priv_ptrs: &'a [(SendPtr<Complex32>, usize)],
    pub(crate) buf_of_task: &'a [u32],
    /// Channel `c`'s sample values, in caller order.
    pub(crate) samples: &'a [&'a [Complex32]],
}

impl<const D: usize> Scatter<'_, D> {
    /// Runs `phase` of task `t` for every channel. Samples are visited in
    /// the **canonical tile-major order** via [`Preprocess::visit`]
    /// regardless of sort mode, pinning the floating-point accumulation
    /// order — sorted and unsorted plans produce bitwise-identical grids
    /// (DESIGN.md §14).
    ///
    /// # Safety
    /// The caller orders the calls as the task graph does: `Normal` and
    /// `Reduce` bodies of adjacent tasks (whose halo boxes overlap) never
    /// run concurrently, a task's `Reduce` follows its `PrivateConvolve`,
    /// and nothing else touches a task's halo box while it runs. Each
    /// privatized buffer holds at least `channels` region copies
    /// ([`SpreadOp::ensure_priv_channels`]).
    #[inline]
    pub(crate) unsafe fn run_task(&self, t: usize, phase: TaskPhase) {
        let Scatter { pre, source, m, grid_ptrs, grid_len, priv_ptrs, buf_of_task, samples } =
            *self;
        let order = &pre.order[..];
        let channels = grid_ptrs.len();
        match phase {
            TaskPhase::Normal => {
                let mut stage = [Window::EMPTY; D];
                for vi in pre.ranges[t].clone() {
                    let i = pre.visit(vi);
                    let win = source.at(i, &mut stage);
                    let slot = order[i] as usize;
                    for (c, gp) in grid_ptrs.iter().enumerate() {
                        // SAFETY: this task only touches its own halo box
                        // of each channel's grid, which the caller keeps
                        // exclusive.
                        let grid = unsafe { core::slice::from_raw_parts_mut(gp.get(), grid_len) };
                        adjoint_scatter(grid, m, &win, samples[c][slot]);
                    }
                }
            }
            TaskPhase::PrivateConvolve => {
                let region = pre.regions[t].expect("privatized task has region");
                let (base, clen) = priv_ptrs[buf_of_task[t] as usize];
                // SAFETY: each privatized task owns its buffer exclusively
                // and its phases never overlap; the buffer holds ≥
                // `channels` region copies.
                let buf_all =
                    unsafe { core::slice::from_raw_parts_mut(base.get(), channels * clen) };
                buf_all.fill(Complex32::ZERO);
                let mut stage = [Window::EMPTY; D];
                for vi in pre.ranges[t].clone() {
                    let i = pre.visit(vi);
                    let win = source.at(i, &mut stage);
                    let slot = order[i] as usize;
                    for c in 0..channels {
                        adjoint_scatter_local(
                            &mut buf_all[c * clen..(c + 1) * clen],
                            &region.origin,
                            &region.size,
                            &win,
                            samples[c][slot],
                        );
                    }
                }
            }
            TaskPhase::Reduce => {
                let region = pre.regions[t].expect("privatized task has region");
                let (base, clen) = priv_ptrs[buf_of_task[t] as usize];
                for (c, gp) in grid_ptrs.iter().enumerate() {
                    // SAFETY: reductions run under the same exclusion as
                    // normal tasks; the buffer was filled by this task's
                    // convolve phase, which has completed.
                    let grid = unsafe { core::slice::from_raw_parts_mut(gp.get(), grid_len) };
                    let buf =
                        unsafe { core::slice::from_raw_parts(base.get().add(c * clen), clen) };
                    reduce_local(grid, m, buf, &region.origin, &region.size);
                }
            }
        }
    }
}
