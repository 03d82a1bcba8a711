//! The NUFFT plan: preprocess once, apply forward/adjoint many times.
//!
//! [`NufftPlan`] is a **composition of the four stage operators** in
//! [`crate::stage`]: a [`SpreadOp`] (adjoint scatter convolution), an
//! [`InterpOp`] (forward gather convolution), an [`FftOp`] (oversampled
//! n-dimensional FFT) and a [`DeconvOp`] (roll-off scale + embed/extract).
//! The plan owns one instance of each, plus the oversampled grid
//! workspace(s) and the fused whole-operator graphs. The two operators are
//! exact adjoints of each other:
//!
//! * [`NufftPlan::forward`] (the paper's FWD, MRI "type 2"):
//!   [`DeconvOp::embed`] → [`FftOp`] forward → [`InterpOp`] gather;
//! * [`NufftPlan::adjoint`] (the paper's ADJ, "type 1"):
//!   [`SpreadOp`] scatter → [`FftOp`] backward (unnormalized) →
//!   [`DeconvOp::extract`].
//!
//! The standalone pieces are public too: [`NufftPlan::spread_only`] and
//! [`NufftPlan::interp_only`] run just the convolution stage (density
//! estimation / off-grid resampling workloads), and
//! [`crate::type3::Type3Plan`] composes the same operators into a
//! nonuniform→nonuniform (type-3) transform.
//!
//! All four transform paths (single and batched, forward and adjoint) run
//! through *one* convolution engine — the stage drivers in `crate::stage` —
//! so the batched variants are bitwise-identical to a loop of single
//! applies at `C = 1` by construction, and the privatization protocol
//! applies to the batched adjoint as well.
//!
//! Steady-state applies perform **zero heap allocations**: the task-graph
//! run state, FFT tile scratch and four-step `fs` buffer live inside the
//! stage operators, and pointer staging uses reusable plan vectors
//! (verified by the umbrella crate's counting-allocator test).
//!
//! Every phase is timed ([`OpTimers`]) and the adjoint convolution records
//! per-worker/per-task execution logs ([`NufftPlan::last_run_stats`]) for
//! the load-balance experiments.

use crate::conv::{
    adjoint_scatter, adjoint_scatter_local, forward_gather, forward_gather2, reduce_local, Window,
};
use crate::fused::{self, FusedApply, TilePlan, TileSet};
use crate::grid::{embed_scaled_slab, extract_scaled_range, Geometry};
use crate::kernel::{beatty_beta, InterpKernel, KernelChoice, DEFAULT_LUT_DENSITY};
use crate::stage::{
    check_kernel_fit, default_partitions, DeconvOp, FftOp, InterpOp, SendPtr, SpreadOp,
    SAMPLE_GRAIN,
};
use crate::tasks::{preprocess, Preprocess, PreprocessConfig, SortMode};
use crate::windows::{WindowMode, WindowSource, WindowTable};
use nufft_fft::{Direction, FftNd, FftStrategy};
use nufft_math::Complex32;
use nufft_parallel::exec::{DagScratch, Executor, JobPriority, RunStats, TaskPhase, TaskRecord};
use nufft_parallel::graph::{Dag, QueuePolicy, TaskGraph};
use nufft_parallel::scratch::WorkerLocal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How an operator application is scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One heterogeneous task graph — built at plan time — covers the whole
    /// operator (scale/zero slabs, per-axis FFT tile chunks, the scatter
    /// task graph, gather/extract chunks) and runs in a single executor
    /// dispatch with **no joins between phases**: a worker finishing its
    /// last axis-0 FFT chunk starts an axis-1 chunk whose inputs are ready
    /// while stragglers still work on axis 0. Output is bitwise-identical
    /// to [`ExecMode::Phased`]. See `crate::fused` and DESIGN.md §12.
    #[default]
    Fused,
    /// The historical pipeline: each phase is a separate executor dispatch
    /// with an implicit join after it (`D + 2` joins per apply). Retained
    /// for A/B measurement (`benches/fused.rs`) and for experiments that
    /// want clean per-phase attribution.
    Phased,
}

/// Plan construction knobs. `Default` reproduces the paper's main
/// configuration: α = 2, W = 4, priority queue, variable-width partitions,
/// selective privatization on, and the §III-D sample sort on `Auto`
/// (tile-major layout when the trajectory is disordered).
#[derive(Clone, Copy, Debug)]
pub struct NufftConfig {
    /// Grid oversampling factor α = M/N.
    pub alpha: f64,
    /// Kernel radius `W` in oversampled-grid units.
    pub w: f64,
    /// Worker threads.
    pub threads: usize,
    /// Ready-queue discipline for the adjoint convolution.
    pub policy: QueuePolicy,
    /// Partitions per dimension (`None` = sized from the thread count).
    pub partitions_per_dim: Option<usize>,
    /// Use fixed-width partitions (Figure 11 baseline) instead of
    /// variable-width.
    pub fixed_partitions: bool,
    /// Enable selective privatization (Eq. 6).
    pub privatization: bool,
    /// Bin-sort policy for the internal sample layout (§III-D + the
    /// cuFINUFFT-style tile sort): [`SortMode::TileMajor`] permutes
    /// storage so conv hot loops stream grid tiles, [`SortMode::None`]
    /// keeps caller order, [`SortMode::Auto`] (default) decides from the
    /// trajectory's measured disorder. Operator output is
    /// bitwise-identical across all modes.
    pub sort: SortMode,
    /// Kernel family (Kaiser–Bessel is the paper's; Gaussian is the
    /// Greengard–Lee comparison kernel).
    pub kernel: KernelChoice,
    /// Kernel LUT entries per unit argument.
    pub lut_density: usize,
    /// How Part 1 windows are obtained at apply time: recomputed on the
    /// fly (historical default), precomputed into a plan-owned table, or
    /// chosen automatically under a memory budget. See
    /// [`crate::windows::WindowMode`] and `benches/windows.rs`.
    pub window_mode: WindowMode,
    /// Whole-operator scheduling: one fused task graph (default) or the
    /// historical barrier-per-phase pipeline. Bitwise-identical output
    /// either way.
    pub exec_mode: ExecMode,
    /// Admission priority of this plan's dispatches when several tenants
    /// share one persistent pool: the fair-share scheduler grants runnable
    /// jobs worker steps proportional to their priority tickets, so a
    /// `High` 2D forward keeps progressing under a `Low` 3D adjoint flood.
    pub admission: JobPriority,
    /// Per-axis FFT execution strategy: `Auto` (default) runs the four-step
    /// (sub-FFT + cache-blocked transpose) decomposition on axes whose
    /// lines exceed [`NufftConfig::fft_llc_budget`] and the recursive path
    /// otherwise; `Recursive`/`FourStep` force one path on every (eligible)
    /// axis. Output is bitwise-identical across strategies.
    pub fft_strategy: FftStrategy,
    /// The `Auto` threshold in bytes: an axis whose single line of complex
    /// data exceeds this budget (nominally the per-core LLC share) runs
    /// four-step.
    pub fft_llc_budget: usize,
}

impl Default for NufftConfig {
    fn default() -> Self {
        NufftConfig {
            alpha: 2.0,
            w: 4.0,
            threads: Executor::host_threads(),
            policy: QueuePolicy::Priority,
            partitions_per_dim: None,
            fixed_partitions: false,
            privatization: true,
            sort: SortMode::Auto,
            kernel: KernelChoice::KaiserBessel,
            lut_density: DEFAULT_LUT_DENSITY,
            window_mode: WindowMode::OnTheFly,
            exec_mode: ExecMode::Fused,
            admission: JobPriority::Normal,
            fft_strategy: FftStrategy::Auto,
            fft_llc_budget: nufft_fft::DEFAULT_LLC_BUDGET,
        }
    }
}

impl NufftConfig {
    /// Tolerance-driven configuration: maps a requested relative accuracy
    /// `eps` to a kernel family and its `(W, α, LUT density)` operating
    /// point, leaving every other knob at its default. The default family
    /// is the ES kernel with the FINUFFT width rule
    /// `ns = ⌈log₁₀(1/eps)⌉ + 1` at α = 2 — the narrowest kernel (and the
    /// Horner fast path) for the requested accuracy. Explicit `(W, α)`
    /// construction is untouched: a config built by hand behaves exactly
    /// as before.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`.
    pub fn tolerance(eps: f64) -> Self {
        Self::default().with_tolerance(eps)
    }

    /// Re-derives this config's kernel parameters from a tolerance,
    /// keeping all non-kernel knobs (threads, sort, exec mode, …). Uses
    /// the default ES family; see [`NufftConfig::with_tolerance_family`]
    /// for the per-family mapping rules.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`.
    pub fn with_tolerance(self, eps: f64) -> Self {
        self.with_tolerance_family(eps, KernelChoice::EsKernel)
    }

    /// Re-derives this config's kernel parameters from a tolerance for a
    /// chosen family, at the config's current oversampling α:
    ///
    /// * **ES** — width `ns = 2W = ⌈log₁₀(1/eps)⌉ + 1` (clamped to the
    ///   supported 2..=16 cells), the FINUFFT rule;
    /// * **Kaiser–Bessel** — the narrowest half-cell width whose aliasing
    ///   model `10·e^{−β(W,α)}` meets `eps`, with the LUT density raised
    ///   as `√(1/eps)` so table interpolation error (≈ 5·10⁻⁵ at the
    ///   default 512) never swamps the budget;
    /// * **Gaussian** — the Greengard–Lee truncation model
    ///   `eps ≈ 10·e^{−πW(1−1/(2α))}`, rounded up to a half cell.
    ///
    /// The derived `(kernel, W, lut_density)` are all part of the plan
    /// registry key, so plans at different tolerances never alias; equal
    /// tolerances map to equal keys and share one plan.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`.
    pub fn with_tolerance_family(mut self, eps: f64, family: KernelChoice) -> Self {
        assert!(
            eps > 0.0 && eps < 1.0,
            "tolerance must be a relative accuracy in (0, 1), got {eps}"
        );
        self.kernel = family;
        match family {
            KernelChoice::EsKernel => {
                let ns = ((1.0 / eps).log10().ceil() + 1.0).clamp(2.0, 16.0);
                self.w = ns / 2.0;
            }
            KernelChoice::KaiserBessel => {
                let mut w = 1.0f64;
                while w < 8.0 && 10.0 * (-beatty_beta(w, self.alpha)).exp() > eps {
                    w += 0.5;
                }
                self.w = w;
                let density = (DEFAULT_LUT_DENSITY as f64 * (5e-5 / eps).sqrt())
                    .max(DEFAULT_LUT_DENSITY as f64) as usize;
                self.lut_density = density.next_power_of_two().clamp(512, 8192);
            }
            KernelChoice::Gaussian => {
                let decay = core::f64::consts::PI * (1.0 - 1.0 / (2.0 * self.alpha));
                let w = ((10.0 / eps).ln() / decay).clamp(1.0, 8.0);
                self.w = (w * 2.0).ceil() / 2.0;
            }
        }
        self
    }
}

/// Wall-clock breakdown of one operator application, in seconds — the
/// quantities behind Figures 3 and 8.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimers {
    /// Scale phase: roll-off multiply + embed/extract.
    pub scale: f64,
    /// Oversampled (i)FFT.
    pub fft: f64,
    /// Convolution interpolation (includes grid zeroing for the adjoint).
    pub conv: f64,
    /// End-to-end operator time.
    pub total: f64,
    /// Four-step sub-FFT pass portion of `fft` (wall-clock span; zero when
    /// every axis runs the recursive path).
    pub fft_sub: f64,
    /// Four-step transpose-and-combine pass portion of `fft` (wall-clock
    /// span; zero when every axis runs the recursive path).
    pub fft_transpose: f64,
    /// CPU-seconds summed across workers inside the combine pass's fused
    /// twiddle/gather sweep — the transpose-read half of `fft_transpose`,
    /// isolating the hoisted twiddle multiply from the in-cache butterflies.
    pub fft_twiddle: f64,
}

/// A reusable D-dimensional NUFFT plan (D ∈ {1, 2, 3}).
pub struct NufftPlan<const D: usize> {
    cfg: NufftConfig,
    geo: Geometry<D>,
    exec: Executor,
    /// Adjoint scatter-convolution stage (owns preprocessing, kernel,
    /// window table, privatized halo buffers and the graph run scratch).
    spread: SpreadOp<D>,
    /// Forward gather-convolution stage (shares the spread's `Arc`s).
    interp: InterpOp<D>,
    /// Oversampled-FFT stage (owns the tile plan, per-worker tile scratch
    /// and the four-step `fs` intermediate buffer).
    fft_op: FftOp,
    /// Roll-off correction stage (geometry + scale array).
    deconv: DeconvOp<D>,
    grid: Vec<Complex32>,
    /// Extra grids for the batched (multi-coil) operators, grown on demand.
    batch_grids: Vec<Vec<Complex32>>,
    /// Reusable pointer staging for the batched operators.
    ptr_scratch: Vec<SendPtr<Complex32>>,
    /// Second staging vector for operators that need two pointer sets at
    /// once (fused batch: grids + outputs).
    ptr_scratch2: Vec<SendPtr<Complex32>>,
    /// Fused whole-operator graphs, cached per channel count: `(C, graph)`.
    fused_fwd: Vec<(usize, FusedApply)>,
    fused_adj: Vec<(usize, FusedApply)>,
    /// Fused spread-only graph (zero slabs + scatter task graph, no FFT or
    /// extract fragments), built on first [`NufftPlan::spread_only`].
    fused_spread: Option<FusedApply>,
    /// Reusable fused-graph run state (shards, pending counters, node logs).
    dag_scratch: DagScratch,
    /// Conv-phase stats synthesized from the last fused adjoint's node log,
    /// shaped like the phased scheduler's (for `last_run_stats`).
    fused_stats: RunStats,
    preprocess_seconds: f64,
    last_forward: OpTimers,
    last_adjoint: OpTimers,
    /// Which scratch holds the most recent adjoint-convolution stats.
    stats_source: StatsSource,
}

/// Where `last_run_stats` should read from (nowhere until an adjoint ran).
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsSource {
    None,
    Phased,
    Fused,
}

impl<const D: usize> NufftPlan<D> {
    /// Builds a plan for image extents `n` and a trajectory in normalized
    /// frequencies `ν ∈ [-1/2, 1/2)` per dimension.
    ///
    /// # Panics
    /// Panics if `D ∉ {1,2,3}`, extents are zero, the kernel does not fit
    /// the grid (`M < 2W+1`), the kernel is wider than
    /// [`crate::conv::MAX_TAPS`], or a trajectory point is out of range.
    pub fn new(n: [usize; D], traj: &[[f64; D]], cfg: NufftConfig) -> Self {
        assert!((1..=3).contains(&D), "only 1D/2D/3D supported");
        let geo = Geometry::new(n, cfg.alpha);
        Self::from_grid_coords(n, Self::to_grid_coords(&geo, traj), cfg)
    }

    /// Tolerance-driven planning: [`NufftPlan::new`] with the kernel
    /// family and its parameters derived from the requested relative
    /// accuracy (the ES kernel by default — see
    /// [`NufftConfig::with_tolerance`]) and every other knob at its
    /// default.
    ///
    /// # Panics
    /// See [`NufftPlan::new`]; additionally panics unless `0 < eps < 1`.
    pub fn with_tolerance(n: [usize; D], traj: &[[f64; D]], eps: f64) -> Self {
        Self::new(n, traj, NufftConfig::tolerance(eps))
    }

    /// [`NufftPlan::new`] on a caller-supplied executor (several plans
    /// interleave their applies on one shared worker pool) and an optional
    /// prebuilt window table. Used by [`crate::registry::PlanRegistry`];
    /// see [`NufftPlan::from_grid_coords_shared`] for the sharing rules.
    ///
    /// # Panics
    /// See [`NufftPlan::new`]; additionally panics if a shared table's
    /// sample count does not match the trajectory.
    pub fn new_shared(
        n: [usize; D],
        traj: &[[f64; D]],
        cfg: NufftConfig,
        exec: Executor,
        windows: Option<Arc<WindowTable<D>>>,
    ) -> Self {
        assert!((1..=3).contains(&D), "only 1D/2D/3D supported");
        let geo = Geometry::new(n, cfg.alpha);
        Self::from_grid_coords_shared(n, Self::to_grid_coords(&geo, traj), cfg, exec, windows)
    }

    /// Normalized frequencies `ν ∈ [-1/2, 1/2)` → oversampled-grid units
    /// `[0, M)` (the internal coordinate convention).
    fn to_grid_coords(geo: &Geometry<D>, traj: &[[f64; D]]) -> Vec<[f32; D]> {
        traj.iter()
            .map(|p| {
                core::array::from_fn(|d| {
                    assert!(
                        (-0.5..0.5).contains(&p[d]),
                        "trajectory component {} outside [-1/2, 1/2)",
                        p[d]
                    );
                    let mf = geo.m[d] as f64;
                    let mut u = ((p[d] + 0.5) * mf) as f32;
                    if u >= geo.m[d] as f32 {
                        u -= geo.m[d] as f32;
                    }
                    u
                })
            })
            .collect()
    }

    /// Builds a plan from coordinates already in oversampled-grid units
    /// `[0, M)`.
    ///
    /// # Panics
    /// See [`NufftPlan::new`].
    pub fn from_grid_coords(n: [usize; D], coords: Vec<[f32; D]>, cfg: NufftConfig) -> Self {
        let exec = Executor::new(cfg.threads.max(1));
        Self::from_grid_coords_shared(n, coords, cfg, exec, None)
    }

    /// [`NufftPlan::from_grid_coords`] on a caller-supplied executor and an
    /// optional prebuilt window table.
    ///
    /// The executor's thread count overrides `cfg.threads` (every plan on a
    /// shared pool must agree with the pool's width; the stored config is
    /// normalized so `config()` reflects reality). A shared table is only
    /// valid when it was built by a plan with the *same* trajectory and
    /// preprocessing configuration — the internal sample order (task
    /// binning and [`SortMode`] layout) must match — which
    /// [`crate::registry::PlanRegistry`] guarantees by keying tables on
    /// (grid, kernel params, sort mode, trajectory fingerprint).
    ///
    /// # Panics
    /// See [`NufftPlan::new`]; additionally panics if a shared table's
    /// sample count does not match the trajectory.
    pub fn from_grid_coords_shared(
        n: [usize; D],
        coords: Vec<[f32; D]>,
        mut cfg: NufftConfig,
        exec: Executor,
        shared_windows: Option<Arc<WindowTable<D>>>,
    ) -> Self {
        cfg.threads = exec.threads();
        let geo = Geometry::new(n, cfg.alpha);
        check_kernel_fit(&geo.m, cfg.w);
        let kernel = Arc::new(InterpKernel::of(cfg.kernel, cfg.w, cfg.alpha, cfg.lut_density));
        let deconv = DeconvOp::plan(n, cfg.alpha, &kernel);
        let threads = cfg.threads.max(1);
        let fft_op =
            FftOp::plan_banded(&geo.m, &geo.n, cfg.fft_strategy, cfg.fft_llc_budget, threads);

        let partitions = cfg.partitions_per_dim.unwrap_or_else(|| default_partitions(threads, D));
        let pcfg = PreprocessConfig {
            partitions_per_dim: partitions,
            w: cfg.w,
            fixed_partitions: cfg.fixed_partitions,
            privatization: cfg.privatization,
            threads: cfg.threads,
            sort: cfg.sort,
            tile: (4.0 * cfg.w).ceil() as usize,
        };
        let t0 = Instant::now();
        let pre = Arc::new(preprocess(&coords, geo.m, &pcfg));
        let preprocess_seconds = t0.elapsed().as_secs_f64();

        let windows = match shared_windows {
            Some(table) => {
                assert_eq!(
                    table.len(),
                    pre.coords.len(),
                    "shared window table sample count mismatch"
                );
                Some(table)
            }
            None => match cfg
                .window_mode
                .resolve(WindowTable::<D>::estimate_bytes(pre.coords.len(), cfg.w))
            {
                WindowMode::Precomputed => {
                    Some(Arc::new(WindowTable::build(&pre.coords, cfg.w as f32, &kernel, &exec)))
                }
                _ => None,
            },
        };

        let spread = SpreadOp::from_parts(geo.m, pre, kernel, cfg.w as f32, cfg.policy, windows);
        let interp = InterpOp::from_spread(&spread);

        let grid = vec![Complex32::ZERO; geo.grid_len()];
        NufftPlan {
            cfg,
            geo,
            exec,
            spread,
            interp,
            fft_op,
            deconv,
            grid,
            batch_grids: Vec::new(),
            ptr_scratch: Vec::new(),
            ptr_scratch2: Vec::new(),
            fused_fwd: Vec::new(),
            fused_adj: Vec::new(),
            fused_spread: None,
            dag_scratch: DagScratch::new(),
            fused_stats: RunStats::default(),
            preprocess_seconds,
            last_forward: OpTimers::default(),
            last_adjoint: OpTimers::default(),
            stats_source: StatsSource::None,
        }
    }

    /// Problem geometry.
    pub fn geometry(&self) -> &Geometry<D> {
        &self.geo
    }

    /// Active configuration.
    pub fn config(&self) -> &NufftConfig {
        &self.cfg
    }

    /// Number of non-uniform samples.
    pub fn num_samples(&self) -> usize {
        self.spread.num_samples()
    }

    /// Image element count (`Π n_d`).
    pub fn image_len(&self) -> usize {
        self.geo.image_len()
    }

    /// Oversampled grid element count (`Π m_d`) — the buffer length
    /// [`NufftPlan::spread_only`] / [`NufftPlan::interp_only`] work with.
    pub fn grid_len(&self) -> usize {
        self.geo.grid_len()
    }

    /// The preprocessing wall time (Figure 14).
    pub fn preprocess_seconds(&self) -> f64 {
        self.preprocess_seconds
    }

    /// The task-dependency graph (weights = task sample counts) — consumed
    /// by the `nufft-sim` scaling experiments.
    pub fn graph(&self) -> &TaskGraph {
        &self.spread.pre.graph
    }

    /// The *effective* sort mode after [`SortMode::Auto`] resolution —
    /// never `Auto`.
    pub fn sort_mode(&self) -> SortMode {
        self.spread.pre.sort
    }

    /// Plan-time tile-revisit count of the forward gather's grid traversal
    /// (storage order): the number of times a walk over the samples
    /// re-enters a grid tile it already visited. 0 ⇒ perfect streaming;
    /// ~`num_samples` ⇒ every sample is a cache-cold jump. Fixed per plan,
    /// also stamped into [`NufftPlan::last_run_stats`] after adjoints.
    pub fn gather_tile_revisits(&self) -> u64 {
        self.spread.pre.storage_revisits
    }

    /// Plan-time tile-revisit count of the adjoint scatter's canonical
    /// (tile-major) traversal — identical across sort modes by the
    /// determinism rule; under [`SortMode::None`] the scatter still pays
    /// random *sample-data* reads through the scan indirection.
    pub fn scatter_tile_revisits(&self) -> u64 {
        self.spread.pre.canonical_revisits
    }

    /// Phase breakdown of the most recent [`NufftPlan::forward`].
    pub fn forward_timers(&self) -> OpTimers {
        self.last_forward
    }

    /// Phase breakdown of the most recent [`NufftPlan::adjoint`].
    pub fn adjoint_timers(&self) -> OpTimers {
        self.last_adjoint
    }

    /// Per-worker/per-task execution log of the most recent adjoint
    /// convolution. Under [`ExecMode::Fused`] this is synthesized from the
    /// fused run's node log (conv/priv/reduce nodes only), so consumers see
    /// the same shape either way.
    pub fn last_run_stats(&self) -> Option<&RunStats> {
        match self.stats_source {
            StatsSource::None => None,
            StatsSource::Phased => Some(self.spread.scratch.stats()),
            StatsSource::Fused => Some(&self.fused_stats),
        }
    }

    /// The active scheduling mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.cfg.exec_mode
    }

    /// Switches between the fused whole-operator graph and the historical
    /// phased pipeline. Output is bitwise-identical in both modes; only
    /// scheduling (and hence timing attribution) changes.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.cfg.exec_mode = mode;
    }

    /// The fused whole-operator graph for one direction and channel count,
    /// building (and caching) it if this plan hasn't used it yet — consumed
    /// by the `nufft-sim` fused-vs-phased replay experiments.
    pub fn fused_dag(&mut self, adjoint: bool, channels: usize) -> &Dag {
        let i = self.ensure_fused(adjoint, channels);
        let cache = if adjoint { &self.fused_adj } else { &self.fused_fwd };
        &cache[i].1.dag
    }

    /// The *effective* window mode after `Auto` resolution: `Precomputed`
    /// when the plan holds a table, `OnTheFly` otherwise.
    pub fn window_mode(&self) -> WindowMode {
        if self.spread.windows.is_some() {
            WindowMode::Precomputed
        } else {
            WindowMode::OnTheFly
        }
    }

    /// Heap footprint of the precomputed window table, if one is held.
    pub fn window_table_bytes(&self) -> Option<usize> {
        self.spread.windows.as_ref().map(|t| t.bytes())
    }

    /// Heap bytes of the kernel-evaluation structure the Part 1 hot path
    /// reads per window: the fitted Horner coefficient table when the
    /// kernel family provides the fast-eval path, the interpolation LUT
    /// otherwise. The cache-pressure observable of the matched-accuracy
    /// kernel A/B (`benches/kernels.rs`).
    pub fn kernel_eval_bytes(&self) -> usize {
        self.spread.kernel.eval_table_bytes()
    }

    /// Switches the Part 1 window source after construction: building the
    /// table on a transition to `Precomputed` (or an `Auto` that resolves
    /// so — see [`WindowMode::resolve`]) and dropping it on a transition
    /// back to `OnTheFly`. Either source yields bitwise-identical operator
    /// output; only apply time and memory footprint change. Both conv
    /// stages switch together.
    pub fn set_window_mode(&mut self, mode: WindowMode) {
        self.cfg.window_mode = mode;
        let resolved = mode
            .resolve(WindowTable::<D>::estimate_bytes(self.spread.pre.coords.len(), self.cfg.w));
        match resolved {
            WindowMode::Precomputed => {
                if self.spread.windows.is_none() {
                    let table = Arc::new(WindowTable::build(
                        &self.spread.pre.coords,
                        self.cfg.w as f32,
                        &self.spread.kernel,
                        &self.exec,
                    ));
                    self.spread.windows = Some(Arc::clone(&table));
                    self.interp.windows = Some(table);
                }
            }
            _ => {
                self.spread.windows = None;
                self.interp.windows = None;
            }
        }
    }

    /// The plan's window table as a shareable handle, if one is held —
    /// [`crate::registry::PlanRegistry`] stashes this after the first build
    /// of a key so later plan instances skip Part 1 entirely.
    pub fn shared_window_table(&self) -> Option<Arc<WindowTable<D>>> {
        self.spread.windows.clone()
    }

    /// The executor this plan dispatches on (clone to share the pool).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// This plan's admission priority on a shared pool.
    pub fn admission_priority(&self) -> JobPriority {
        self.cfg.admission
    }

    /// Sets the admission priority of subsequent applies — the per-request
    /// quality-of-service knob of the service layer.
    pub fn set_admission_priority(&mut self, priority: JobPriority) {
        self.cfg.admission = priority;
    }

    /// The plan's spread (adjoint scatter-convolution) stage.
    pub fn spread_op(&self) -> &SpreadOp<D> {
        &self.spread
    }

    /// The plan's interpolation (forward gather-convolution) stage.
    pub fn interp_op(&self) -> &InterpOp<D> {
        &self.interp
    }

    /// The plan's FFT stage.
    pub fn fft_op(&self) -> &FftOp {
        &self.fft_op
    }

    /// The oversampled-FFT work of one apply, as `(run, total)` tiles per
    /// axis: `Direction::Forward` for [`NufftPlan::forward`]'s pass over
    /// the embedded image, `Direction::Backward` for
    /// [`NufftPlan::adjoint`]'s pass ahead of the extract. A tile is
    /// [`FftNd::batch_width`] adjacent lines (one line on the last axis);
    /// the zero-aware passes skip the tiles whose lines are all zero
    /// (forward) or never read (adjoint). Batched applies run the same
    /// tiles per channel.
    pub fn fft_tiles(&self, dir: Direction) -> Vec<(usize, usize)> {
        let set = match dir {
            Direction::Forward => TileSet::Forward,
            Direction::Backward => TileSet::Adjoint,
        };
        let tp = &self.fft_op.tile_plan;
        (0..D).map(|axis| (tp.list(set, axis).tiles.len(), tp.axes[axis].tiles)).collect()
    }

    /// The plan's deconvolution (roll-off scale) stage.
    pub fn deconv_op(&self) -> &DeconvOp<D> {
        &self.deconv
    }

    /// Forward NUFFT: image → samples. `out[p]` receives the DTFT
    /// approximation at trajectory point `p` (original sample order).
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn forward(&mut self, image: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(image.len(), self.geo.image_len(), "image length mismatch");
        assert_eq!(out.len(), self.num_samples(), "sample buffer length mismatch");
        let t_start = Instant::now();

        if self.cfg.exec_mode == ExecMode::Fused {
            let idx = self.ensure_fused(false, 1);
            let grid_ptrs = [SendPtr(self.grid.as_mut_ptr())];
            let out_ptrs = [SendPtr(out.as_mut_ptr())];
            let images = [image];
            let twiddle_ns = AtomicU64::new(0);
            {
                let Self { cfg, geo, exec, spread, fft_op, deconv, dag_scratch, fused_fwd, .. } =
                    self;
                let fa = &fused_fwd[idx].1;
                let fs_ptr = SendPtr(fft_op.fs.as_mut_ptr());
                let source = spread.window_source();
                Self::fused_forward_run(
                    exec,
                    cfg.policy,
                    cfg.admission,
                    dag_scratch,
                    fa,
                    &fft_op.tile_plan,
                    &fft_op.fft,
                    geo,
                    &deconv.scale,
                    &spread.pre,
                    &source,
                    &fft_op.scratch,
                    &images,
                    &grid_ptrs,
                    &out_ptrs,
                    fs_ptr,
                    &twiddle_ns,
                );
            }
            self.last_forward = Self::fused_forward_timers(
                self.dag_scratch.stats(),
                t_start,
                twiddle_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            );
            self.trace_fused(false);
            return;
        }

        // Phase 1: scale + embed.
        let t0 = Instant::now();
        self.deconv.embed(image, &mut self.grid);
        let scale_t = t0.elapsed().as_secs_f64();

        // Phase 2: oversampled FFT (lines parallelized per axis).
        let t0 = Instant::now();
        let split = self.fft_op.apply_split(
            &self.exec,
            &mut self.grid,
            Direction::Forward,
            TileSet::Forward,
        );
        let fft_t = t0.elapsed().as_secs_f64();

        // Phase 3: gather convolution, dynamic loop partitioning.
        let t0 = Instant::now();
        let out_ptrs = [SendPtr(out.as_mut_ptr())];
        self.interp.gather_ptrs(&self.exec, core::slice::from_ref(&self.grid), &out_ptrs);
        let conv_t = t0.elapsed().as_secs_f64();

        self.last_forward = OpTimers {
            scale: scale_t,
            fft: fft_t,
            conv: conv_t,
            total: t_start.elapsed().as_secs_f64(),
            fft_sub: split.sub,
            fft_transpose: split.transpose,
            fft_twiddle: split.twiddle,
        };
    }

    /// Adjoint NUFFT: samples → image. Exact conjugate-transpose of
    /// [`NufftPlan::forward`] (no normalization is applied; divide by
    /// `Π M_d` for the inverse-FFT convention).
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn adjoint(&mut self, samples: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(samples.len(), self.num_samples(), "sample buffer length mismatch");
        assert_eq!(out.len(), self.geo.image_len(), "image length mismatch");
        let t_start = Instant::now();

        if self.cfg.exec_mode == ExecMode::Fused {
            let idx = self.ensure_fused(true, 1);
            self.spread.refresh_priv_ptrs();
            let grid_ptrs = [SendPtr(self.grid.as_mut_ptr())];
            let out_ptrs = [SendPtr(out.as_mut_ptr())];
            let samples_by_channel = [samples];
            let twiddle_ns = AtomicU64::new(0);
            {
                let Self { cfg, geo, exec, spread, fft_op, deconv, dag_scratch, fused_adj, .. } =
                    self;
                let fa = &fused_adj[idx].1;
                let fs_ptr = SendPtr(fft_op.fs.as_mut_ptr());
                let source = spread.window_source();
                Self::fused_adjoint_run(
                    exec,
                    cfg.policy,
                    cfg.admission,
                    dag_scratch,
                    fa,
                    &fft_op.tile_plan,
                    &fft_op.fft,
                    geo,
                    &deconv.scale,
                    &spread.pre,
                    &source,
                    &fft_op.scratch,
                    &grid_ptrs,
                    &spread.priv_ptrs,
                    &spread.buf_of_task,
                    &samples_by_channel,
                    &out_ptrs,
                    fs_ptr,
                    &twiddle_ns,
                );
            }
            Self::synth_conv_stats(
                self.dag_scratch.stats(),
                &mut self.fused_stats,
                self.spread.pre.canonical_revisits,
            );
            self.stats_source = StatsSource::Fused;
            self.last_adjoint = Self::fused_adjoint_timers(
                self.dag_scratch.stats(),
                t_start,
                twiddle_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            );
            self.trace_fused(true);
            return;
        }

        // Phase 1: scatter convolution under the task graph.
        let t0 = Instant::now();
        self.grid.fill(Complex32::ZERO);
        self.run_adjoint_convolution(samples);
        let conv_t = t0.elapsed().as_secs_f64();

        // Phase 2: unnormalized backward FFT (the exact FFT adjoint).
        let t0 = Instant::now();
        let split = self.fft_op.apply_split(
            &self.exec,
            &mut self.grid,
            Direction::Backward,
            TileSet::Adjoint,
        );
        let fft_t = t0.elapsed().as_secs_f64();

        // Phase 3: extract + scale.
        let t0 = Instant::now();
        self.deconv.extract(&self.grid, out);
        let scale_t = t0.elapsed().as_secs_f64();

        self.last_adjoint = OpTimers {
            scale: scale_t,
            fft: fft_t,
            conv: conv_t,
            total: t_start.elapsed().as_secs_f64(),
            fft_sub: split.sub,
            fft_transpose: split.transpose,
            fft_twiddle: split.twiddle,
        };
    }

    /// Standalone adjoint **spread**: scatters `samples` onto the
    /// oversampled grid `grid` (length [`NufftPlan::grid_len`]) — the
    /// convolution stage alone, no FFT or deconvolution. `grid` is zeroed
    /// first; the accumulation order is the canonical tile-major one, so
    /// output is bitwise-deterministic across thread counts, sort modes
    /// and exec modes (the fused spread graph carries the same Gray-code
    /// exclusion edges as the full adjoint).
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn spread_only(&mut self, samples: &[Complex32], grid: &mut [Complex32]) {
        assert_eq!(samples.len(), self.num_samples(), "sample buffer length mismatch");
        assert_eq!(grid.len(), self.geo.grid_len(), "grid buffer length mismatch");

        if self.cfg.exec_mode == ExecMode::Fused {
            self.ensure_fused_spread();
            self.spread.refresh_priv_ptrs();
            let grid_ptrs = [SendPtr(grid.as_mut_ptr())];
            let out_ptrs: [SendPtr<Complex32>; 0] = [];
            let samples_by_channel = [samples];
            let twiddle_ns = AtomicU64::new(0);
            {
                let Self {
                    cfg, geo, exec, spread, fft_op, deconv, dag_scratch, fused_spread, ..
                } = self;
                let fa = fused_spread.as_ref().expect("spread graph just built");
                let fs_ptr = SendPtr(fft_op.fs.as_mut_ptr());
                let source = spread.window_source();
                Self::fused_adjoint_run(
                    exec,
                    cfg.policy,
                    cfg.admission,
                    dag_scratch,
                    fa,
                    &fft_op.tile_plan,
                    &fft_op.fft,
                    geo,
                    &deconv.scale,
                    &spread.pre,
                    &source,
                    &fft_op.scratch,
                    &grid_ptrs,
                    &spread.priv_ptrs,
                    &spread.buf_of_task,
                    &samples_by_channel,
                    &out_ptrs,
                    fs_ptr,
                    &twiddle_ns,
                );
            }
            Self::synth_conv_stats(
                self.dag_scratch.stats(),
                &mut self.fused_stats,
                self.spread.pre.canonical_revisits,
            );
            self.stats_source = StatsSource::Fused;
            return;
        }

        self.spread.apply(&self.exec, self.cfg.admission, samples, grid);
        self.stats_source = StatsSource::Phased;
    }

    /// Standalone forward **interpolation**: gathers every sample's value
    /// from an oversampled grid (length [`NufftPlan::grid_len`]) into
    /// `out` (original caller order). Pure reads of `grid`; the same
    /// single dynamic-loop dispatch under either exec mode.
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn interp_only(&self, grid: &[Complex32], out: &mut [Complex32]) {
        self.interp.apply(&self.exec, grid, out);
    }

    /// Batched forward NUFFT over `C` images sharing this trajectory (the
    /// multichannel/SENSE case): the per-sample interpolation windows
    /// (Part 1) are obtained once and reused across all channels, and
    /// channel pairs share one weight expansion in the SIMD row kernels.
    ///
    /// `images[c]` and `outs[c]` follow the same conventions as
    /// [`NufftPlan::forward`]. Holds `C` oversampled grids concurrently.
    ///
    /// # Panics
    /// Panics if `images.len() != outs.len()` or any buffer length is
    /// wrong.
    pub fn forward_batch(&mut self, images: &[&[Complex32]], outs: &mut [&mut [Complex32]]) {
        assert_eq!(images.len(), outs.len(), "channel count mismatch");
        let channels = images.len();
        if channels == 0 {
            return;
        }
        self.ensure_batch_grids(channels);
        for c in 0..channels {
            assert_eq!(images[c].len(), self.geo.image_len(), "image {c} length mismatch");
            assert_eq!(outs[c].len(), self.num_samples(), "output {c} length mismatch");
        }

        if self.cfg.exec_mode == ExecMode::Fused {
            // One graph fuses all channels' embed + FFT with the shared
            // gather — channel c's axis-1 chunks overlap channel c+1's
            // axis-0 chunks instead of running as C sequential pipelines.
            let idx = self.ensure_fused(false, channels);
            self.ptr_scratch.clear();
            self.ptr_scratch.extend(outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())));
            self.ptr_scratch2.clear();
            self.ptr_scratch2
                .extend(self.batch_grids[..channels].iter_mut().map(|g| SendPtr(g.as_mut_ptr())));
            let twiddle_ns = AtomicU64::new(0);
            {
                let Self {
                    cfg,
                    geo,
                    exec,
                    spread,
                    fft_op,
                    deconv,
                    dag_scratch,
                    fused_fwd,
                    ptr_scratch,
                    ptr_scratch2,
                    ..
                } = self;
                let fa = &fused_fwd[idx].1;
                let fs_ptr = SendPtr(fft_op.fs.as_mut_ptr());
                let source = spread.window_source();
                Self::fused_forward_run(
                    exec,
                    cfg.policy,
                    cfg.admission,
                    dag_scratch,
                    fa,
                    &fft_op.tile_plan,
                    &fft_op.fft,
                    geo,
                    &deconv.scale,
                    &spread.pre,
                    &source,
                    &fft_op.scratch,
                    images,
                    ptr_scratch2,
                    ptr_scratch,
                    fs_ptr,
                    &twiddle_ns,
                );
            }
            self.trace_fused(false);
            return;
        }

        for c in 0..channels {
            self.deconv.embed(images[c], &mut self.batch_grids[c]);
            self.fft_op.apply_split(
                &self.exec,
                &mut self.batch_grids[c],
                Direction::Forward,
                TileSet::Forward,
            );
        }
        self.ptr_scratch.clear();
        self.ptr_scratch.extend(outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())));
        self.interp.gather_ptrs(&self.exec, &self.batch_grids[..channels], &self.ptr_scratch);
    }

    /// Batched adjoint NUFFT over `C` sample vectors sharing this
    /// trajectory; windows are obtained once per sample and scattered into
    /// all `C` grids under a single task-graph traversal, with the full
    /// selective-privatization protocol (per-channel halo buffers).
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn adjoint_batch(&mut self, samples: &[&[Complex32]], outs: &mut [&mut [Complex32]]) {
        assert_eq!(samples.len(), outs.len(), "channel count mismatch");
        let channels = samples.len();
        if channels == 0 {
            return;
        }
        for c in 0..channels {
            assert_eq!(samples[c].len(), self.num_samples(), "samples {c} length mismatch");
            assert_eq!(outs[c].len(), self.geo.image_len(), "output {c} length mismatch");
        }
        self.ensure_batch_grids(channels);
        self.spread.ensure_priv_channels(channels);
        self.spread.refresh_priv_ptrs();

        if self.cfg.exec_mode == ExecMode::Fused {
            // One graph covers zeroing, the privatized scatter protocol,
            // every channel's inverse FFT and the extracts — per-channel
            // FFTs overlap each other and the scatter's tail.
            let idx = self.ensure_fused(true, channels);
            self.ptr_scratch.clear();
            self.ptr_scratch
                .extend(self.batch_grids[..channels].iter_mut().map(|g| SendPtr(g.as_mut_ptr())));
            self.ptr_scratch2.clear();
            self.ptr_scratch2.extend(outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())));
            let twiddle_ns = AtomicU64::new(0);
            {
                let Self {
                    cfg,
                    geo,
                    exec,
                    spread,
                    fft_op,
                    deconv,
                    dag_scratch,
                    fused_adj,
                    ptr_scratch,
                    ptr_scratch2,
                    ..
                } = self;
                let fa = &fused_adj[idx].1;
                let fs_ptr = SendPtr(fft_op.fs.as_mut_ptr());
                let source = spread.window_source();
                Self::fused_adjoint_run(
                    exec,
                    cfg.policy,
                    cfg.admission,
                    dag_scratch,
                    fa,
                    &fft_op.tile_plan,
                    &fft_op.fft,
                    geo,
                    &deconv.scale,
                    &spread.pre,
                    &source,
                    &fft_op.scratch,
                    ptr_scratch,
                    &spread.priv_ptrs,
                    &spread.buf_of_task,
                    samples,
                    ptr_scratch2,
                    fs_ptr,
                    &twiddle_ns,
                );
            }
            Self::synth_conv_stats(
                self.dag_scratch.stats(),
                &mut self.fused_stats,
                self.spread.pre.canonical_revisits,
            );
            self.stats_source = StatsSource::Fused;
            self.trace_fused(true);
            return;
        }

        for g in &mut self.batch_grids[..channels] {
            g.fill(Complex32::ZERO);
        }
        self.ptr_scratch.clear();
        self.ptr_scratch
            .extend(self.batch_grids[..channels].iter_mut().map(|g| SendPtr(g.as_mut_ptr())));
        {
            let Self { cfg, exec, spread, ptr_scratch, .. } = self;
            spread.accumulate_ptrs(exec, cfg.admission, ptr_scratch, samples);
        }
        self.stats_source = StatsSource::Phased;
        for c in 0..channels {
            self.fft_op.apply_split(
                &self.exec,
                &mut self.batch_grids[c],
                Direction::Backward,
                TileSet::Adjoint,
            );
            self.deconv.extract(&self.batch_grids[c], outs[c]);
        }
    }

    fn ensure_batch_grids(&mut self, channels: usize) {
        let glen = self.geo.grid_len();
        while self.batch_grids.len() < channels {
            self.batch_grids.push(vec![Complex32::ZERO; glen]);
        }
    }

    /// Runs only the adjoint *convolution* (grid zeroing + scatter under
    /// the task graph) and returns its wall time in seconds. The grid
    /// workspace afterwards holds the scattered data. Used by throughput
    /// experiments (Table III) that must not pay for the FFT per
    /// measurement.
    pub fn adjoint_convolution_only(&mut self, samples: &[Complex32]) -> f64 {
        assert_eq!(samples.len(), self.num_samples(), "sample buffer length mismatch");
        let t0 = Instant::now();
        self.grid.fill(Complex32::ZERO);
        self.run_adjoint_convolution(samples);
        t0.elapsed().as_secs_f64()
    }

    /// Runs only the forward *convolution* (gather from the current grid
    /// workspace contents) and returns its wall time in seconds.
    pub fn forward_convolution_only(&mut self, out: &mut [Complex32]) -> f64 {
        assert_eq!(out.len(), self.num_samples(), "sample buffer length mismatch");
        let t0 = Instant::now();
        let out_ptrs = [SendPtr(out.as_mut_ptr())];
        self.interp.gather_ptrs(&self.exec, core::slice::from_ref(&self.grid), &out_ptrs);
        t0.elapsed().as_secs_f64()
    }

    /// Runs only Part 1 of the convolution (window/LUT computation) over
    /// every sample and returns the elapsed seconds — the Figure 7
    /// diagnostic. Always computes on the fly, regardless of the plan's
    /// window mode (this *is* the cost a table amortizes away).
    pub fn part1_seconds(&self) -> f64 {
        let wrad = self.cfg.w as f32;
        let t0 = Instant::now();
        let mut sink = 0.0f32;
        for c in &self.spread.pre.coords {
            for d in 0..D {
                let w = Window::compute(c[d], wrad, &self.spread.kernel);
                sink += w.w[0] + w.w[w.len - 1];
            }
        }
        std::hint::black_box(sink);
        t0.elapsed().as_secs_f64()
    }

    /// Scatter convolution of all samples into the (pre-zeroed) grid under
    /// the task graph, including the privatization protocol. Single-channel
    /// entry point over the spread stage.
    fn run_adjoint_convolution(&mut self, samples: &[Complex32]) {
        let grid_ptrs = [SendPtr(self.grid.as_mut_ptr())];
        self.spread.accumulate_ptrs(&self.exec, self.cfg.admission, &grid_ptrs, &[samples]);
        self.stats_source = StatsSource::Phased;
    }

    /// Builds (or finds the cached) fused graph for one direction and
    /// channel count. Graph construction allocates; it happens at most once
    /// per `(direction, C)` over a plan's lifetime, so warmed-up applies
    /// stay allocation-free.
    fn ensure_fused(&mut self, adjoint: bool, channels: usize) -> usize {
        self.fft_op.ensure_channels(channels);
        let cache = if adjoint { &self.fused_adj } else { &self.fused_fwd };
        if let Some(i) = cache.iter().position(|(c, _)| *c == channels) {
            return i;
        }
        let wc = self.cfg.w.ceil() as usize;
        let threads = self.exec.threads();
        let fa = if adjoint {
            fused::build_adjoint(
                &self.geo,
                &self.fft_op.fft,
                &self.fft_op.tile_plan,
                &self.spread.pre,
                wc,
                threads,
                channels,
            )
        } else {
            fused::build_forward(
                &self.geo,
                &self.fft_op.fft,
                &self.fft_op.tile_plan,
                &self.spread.pre,
                wc,
                SAMPLE_GRAIN,
                threads,
                channels,
            )
        };
        let cache = if adjoint { &mut self.fused_adj } else { &mut self.fused_fwd };
        cache.push((channels, fa));
        cache.len() - 1
    }

    /// Builds (once) the fused spread-only graph: the adjoint graph's zero
    /// and scatter fragments with no FFT or extract stages downstream.
    fn ensure_fused_spread(&mut self) {
        if self.fused_spread.is_none() {
            let wc = self.cfg.w.ceil() as usize;
            self.fused_spread =
                Some(fused::build_spread(&self.geo, &self.spread.pre, wc, self.exec.threads()));
        }
    }

    /// Executes one fused four-step shard ([`fused::KIND_FFT_SUB`] or
    /// [`fused::KIND_FFT_TRN`]): the pass over the node's chunk of `set`'s
    /// tile list, against channel `c`'s grid and its region of the
    /// stage-owned `fs` buffer. Shared by the forward and adjoint
    /// dispatchers.
    #[allow(clippy::too_many_arguments)]
    fn run_fourstep_shard(
        tag: u64,
        tp: &TilePlan,
        set: TileSet,
        fft: &FftNd,
        fft_scratch: &WorkerLocal<Vec<Complex32>>,
        grid_ptrs: &[SendPtr<Complex32>],
        fs: SendPtr<Complex32>,
        grid_len: usize,
        twiddle_ns: &AtomicU64,
        w: usize,
        dir: Direction,
    ) {
        let axis = fused::axis_of(tag);
        let c = fused::channel_of(tag);
        let (colg, kbg) = tp.axes[axis].shards.expect("four-step node on a recursive axis");
        let list = tp.list(set, axis);
        let idx = fused::index_of(tag);
        // SAFETY: worker `w` owns scratch slot `w` while this node runs.
        let scratch = unsafe { fft_scratch.get(w) };
        // SAFETY: `FftOp::ensure_channels` sized `fs` to `fs_slots()` grids
        // per channel; each four-step axis owns a slot so a later axis's
        // sub shards never overwrite spectra an earlier axis's combine
        // shards are still reading.
        let fsp = unsafe { fs.get().add((c * fft.fs_slots() + fft.fs_slot(axis)) * grid_len) };
        if fused::kind_of(tag) == fused::KIND_FFT_SUB {
            let (chunk, cg) = (idx / colg, idx % colg);
            for &tile in list.chunk(chunk) {
                // SAFETY: distinct (tile, column-group) shards read and
                // write disjoint regions; graph edges order this node after
                // every writer of its read set.
                unsafe {
                    fft.fs_sub_pass_raw(
                        grid_ptrs[c].get(),
                        fsp,
                        axis,
                        tile as usize,
                        cg,
                        tp.b,
                        scratch,
                        dir,
                    )
                };
            }
        } else {
            let (chunk, kblock) = (idx / kbg, idx % kbg);
            let mut tw = 0.0;
            for &tile in list.chunk(chunk) {
                // SAFETY: distinct (tile, k-block) shards touch disjoint
                // regions; the chunk's sub shards are all edge-ordered
                // before this node.
                tw += unsafe {
                    fft.fs_combine_pass_raw(
                        fsp,
                        grid_ptrs[c].get(),
                        axis,
                        tile as usize,
                        kblock,
                        tp.b,
                        scratch,
                        dir,
                    )
                };
            }
            twiddle_ns.fetch_add((tw * 1e9) as u64, Ordering::Relaxed);
        }
    }

    /// Executes a fused forward graph: scale slabs, FFT tile chunks and
    /// gather chunks dispatched as one DAG. Every node body is the same
    /// code the stage drivers run over the same decomposition, so the
    /// output is bitwise-identical to the phased pipeline.
    #[allow(clippy::too_many_arguments)]
    fn fused_forward_run(
        exec: &Executor,
        policy: QueuePolicy,
        priority: JobPriority,
        scratch: &mut DagScratch,
        fa: &FusedApply,
        tp: &TilePlan,
        fft: &FftNd,
        geo: &Geometry<D>,
        scale: &[f32],
        pre: &Preprocess<D>,
        source: &WindowSource<'_, D>,
        fft_scratch: &WorkerLocal<Vec<Complex32>>,
        images: &[&[Complex32]],
        grid_ptrs: &[SendPtr<Complex32>],
        out_ptrs: &[SendPtr<Complex32>],
        fs: SendPtr<Complex32>,
        twiddle_ns: &AtomicU64,
    ) {
        let channels = grid_ptrs.len();
        let grid_len = geo.grid_len();
        let m = &geo.m;
        let order = &pre.order;
        let b = tp.b;
        exec.run_dag_reuse_prio(&fa.dag, policy, priority, scratch, |_node, tag, w| {
            match fused::kind_of(tag) {
                fused::KIND_SCALE => {
                    let c = fused::channel_of(tag);
                    let lo = fused::index_of(tag) * fa.slab;
                    let len = (grid_len - lo).min(fa.slab);
                    // SAFETY: slabs of one channel partition its grid; only
                    // this node writes this slab, and every reader is
                    // ordered after it by graph edges.
                    let slab =
                        unsafe { core::slice::from_raw_parts_mut(grid_ptrs[c].get().add(lo), len) };
                    embed_scaled_slab(geo, images[c], scale, slab, lo);
                }
                fused::KIND_FFT => {
                    let axis = fused::axis_of(tag);
                    let c = fused::channel_of(tag);
                    let chunk = tp.list(TileSet::Forward, axis).chunk(fused::index_of(tag));
                    // SAFETY: worker `w` owns scratch slot `w` while this
                    // node runs.
                    let scratch = unsafe { fft_scratch.get(w) };
                    // SAFETY: tiles of one axis are pairwise disjoint; graph
                    // edges order this chunk after the last writer of each
                    // of its elements and before all its readers.
                    unsafe {
                        fft.transform_tiles_raw(
                            grid_ptrs[c].get(),
                            axis,
                            chunk,
                            b,
                            scratch,
                            Direction::Forward,
                        )
                    };
                }
                fused::KIND_FFT_SUB | fused::KIND_FFT_TRN => {
                    Self::run_fourstep_shard(
                        tag,
                        tp,
                        TileSet::Forward,
                        fft,
                        fft_scratch,
                        grid_ptrs,
                        fs,
                        grid_len,
                        twiddle_ns,
                        w,
                        Direction::Forward,
                    );
                }
                fused::KIND_GATHER => {
                    let (lo, hi) = fa.chunks[fused::index_of(tag)];
                    let mut stage = [Window::EMPTY; D];
                    for i in lo as usize..hi as usize {
                        let win = source.at(i, &mut stage);
                        let slot = order[i] as usize;
                        let mut c = 0;
                        while c + 2 <= channels {
                            // SAFETY: the chunk's task-box elements are
                            // fully transformed (last-axis → gather edges)
                            // and nothing writes the grids once their
                            // readers start; concurrent gathers only read.
                            let (ga, gb) = unsafe {
                                (
                                    core::slice::from_raw_parts(
                                        grid_ptrs[c].get() as *const Complex32,
                                        grid_len,
                                    ),
                                    core::slice::from_raw_parts(
                                        grid_ptrs[c + 1].get() as *const Complex32,
                                        grid_len,
                                    ),
                                )
                            };
                            let (va, vb) = forward_gather2(ga, gb, m, &win);
                            // SAFETY: `order` is a permutation; each (c, i)
                            // writes a distinct slot of channel c's output.
                            unsafe {
                                *out_ptrs[c].get().add(slot) = va;
                                *out_ptrs[c + 1].get().add(slot) = vb;
                            }
                            c += 2;
                        }
                        if c < channels {
                            // SAFETY: as above.
                            let g = unsafe {
                                core::slice::from_raw_parts(
                                    grid_ptrs[c].get() as *const Complex32,
                                    grid_len,
                                )
                            };
                            let v = forward_gather(g, m, &win);
                            // SAFETY: as above.
                            unsafe { *out_ptrs[c].get().add(slot) = v };
                        }
                    }
                }
                k => unreachable!("node kind {k} in a forward graph"),
            }
        });
    }

    /// Executes a fused adjoint graph: zero slabs, the scatter task graph
    /// (with the privatization protocol), per-channel inverse-FFT chunks
    /// and extract chunks as one DAG. Bitwise-identical to the phased
    /// pipeline — the Gray-code exclusion edges fix the accumulation order.
    /// A spread-only graph (no FFT/extract fragments) runs through the
    /// same dispatcher with an empty `out_ptrs`.
    #[allow(clippy::too_many_arguments)]
    fn fused_adjoint_run(
        exec: &Executor,
        policy: QueuePolicy,
        priority: JobPriority,
        scratch: &mut DagScratch,
        fa: &FusedApply,
        tp: &TilePlan,
        fft: &FftNd,
        geo: &Geometry<D>,
        scale: &[f32],
        pre: &Preprocess<D>,
        source: &WindowSource<'_, D>,
        fft_scratch: &WorkerLocal<Vec<Complex32>>,
        grid_ptrs: &[SendPtr<Complex32>],
        priv_ptrs: &[(SendPtr<Complex32>, usize)],
        buf_of_task: &[u32],
        samples: &[&[Complex32]],
        out_ptrs: &[SendPtr<Complex32>],
        fs: SendPtr<Complex32>,
        twiddle_ns: &AtomicU64,
    ) {
        let channels = grid_ptrs.len();
        let grid_len = geo.grid_len();
        let image_len = geo.image_len();
        let m = &geo.m;
        let order = &pre.order;
        let b = tp.b;
        exec.run_dag_reuse_prio(&fa.dag, policy, priority, scratch, |_node, tag, w| {
            match fused::kind_of(tag) {
                fused::KIND_ZERO => {
                    let lo = fused::index_of(tag) * fa.slab;
                    let len = (grid_len - lo).min(fa.slab);
                    for gp in grid_ptrs {
                        // SAFETY: zero slabs partition the grids and every
                        // other toucher of these elements is ordered after
                        // this node (directly or via its covering task).
                        unsafe { core::slice::from_raw_parts_mut(gp.get().add(lo), len) }
                            .fill(Complex32::ZERO);
                    }
                }
                fused::KIND_CONV => {
                    let t = fused::index_of(tag);
                    let mut stage = [Window::EMPTY; D];
                    for vi in pre.ranges[t].clone() {
                        let i = pre.visit(vi);
                        let win = source.at(i, &mut stage);
                        let slot = order[i] as usize;
                        for (c, gp) in grid_ptrs.iter().enumerate() {
                            // SAFETY: the Gray-code edges serialize adjacent
                            // tasks exactly as the phased scheduler does;
                            // this task only touches its own halo box.
                            let grid =
                                unsafe { core::slice::from_raw_parts_mut(gp.get(), grid_len) };
                            adjoint_scatter(grid, m, &win, samples[c][slot]);
                        }
                    }
                }
                fused::KIND_PRIV => {
                    let t = fused::index_of(tag);
                    let region = pre.regions[t].expect("privatized task has region");
                    let (base, clen) = priv_ptrs[buf_of_task[t] as usize];
                    // SAFETY: each privatized task owns its buffer
                    // exclusively; its reduce node is ordered after this
                    // one by an edge.
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
                fused::KIND_REDUCE => {
                    let t = fused::index_of(tag);
                    let region = pre.regions[t].expect("privatized task has region");
                    let (base, clen) = priv_ptrs[buf_of_task[t] as usize];
                    for (c, gp) in grid_ptrs.iter().enumerate() {
                        // SAFETY: reductions carry the task's exclusion
                        // edges; the private buffer was filled by the
                        // convolve node this one depends on.
                        let grid = unsafe { core::slice::from_raw_parts_mut(gp.get(), grid_len) };
                        let buf =
                            unsafe { core::slice::from_raw_parts(base.get().add(c * clen), clen) };
                        reduce_local(grid, m, buf, &region.origin, &region.size);
                    }
                }
                fused::KIND_FFT => {
                    let axis = fused::axis_of(tag);
                    let c = fused::channel_of(tag);
                    let chunk = tp.list(TileSet::Adjoint, axis).chunk(fused::index_of(tag));
                    // SAFETY: worker `w` owns scratch slot `w` while this
                    // node runs.
                    let scratch = unsafe { fft_scratch.get(w) };
                    // SAFETY: tiles of one axis are pairwise disjoint; graph
                    // edges order this chunk after the last writer of each
                    // of its elements and before all its readers.
                    unsafe {
                        fft.transform_tiles_raw(
                            grid_ptrs[c].get(),
                            axis,
                            chunk,
                            b,
                            scratch,
                            Direction::Backward,
                        )
                    };
                }
                fused::KIND_FFT_SUB | fused::KIND_FFT_TRN => {
                    Self::run_fourstep_shard(
                        tag,
                        tp,
                        TileSet::Adjoint,
                        fft,
                        fft_scratch,
                        grid_ptrs,
                        fs,
                        grid_len,
                        twiddle_ns,
                        w,
                        Direction::Backward,
                    );
                }
                fused::KIND_EXTRACT => {
                    let c = fused::channel_of(tag);
                    let lo = fused::index_of(tag) * fa.img_chunk;
                    let len = (image_len - lo).min(fa.img_chunk);
                    // SAFETY: reads are ordered after the last-axis FFT
                    // chunks covering this image range; image chunks of one
                    // channel are disjoint, so the write is exclusive.
                    let grid = unsafe {
                        core::slice::from_raw_parts(
                            grid_ptrs[c].get() as *const Complex32,
                            grid_len,
                        )
                    };
                    let out =
                        unsafe { core::slice::from_raw_parts_mut(out_ptrs[c].get().add(lo), len) };
                    extract_scaled_range(geo, grid, scale, out, lo);
                }
                k => unreachable!("node kind {k} in an adjoint graph"),
            }
        });
    }

    /// Forward phase timers from a fused node log: each "phase" is the
    /// wall-clock span its kind was in flight (spans overlap — that overlap
    /// is exactly what fusion buys).
    fn fused_forward_timers(
        stats: &nufft_parallel::exec::DagRunStats,
        t_start: Instant,
        twiddle: f64,
    ) -> OpTimers {
        OpTimers {
            scale: fused::kind_span(stats, |k| k == fused::KIND_SCALE),
            fft: fused::kind_span(stats, |k| {
                matches!(k, fused::KIND_FFT | fused::KIND_FFT_SUB | fused::KIND_FFT_TRN)
            }),
            conv: fused::kind_span(stats, |k| k == fused::KIND_GATHER),
            total: t_start.elapsed().as_secs_f64(),
            fft_sub: fused::kind_span(stats, |k| k == fused::KIND_FFT_SUB),
            fft_transpose: fused::kind_span(stats, |k| k == fused::KIND_FFT_TRN),
            fft_twiddle: twiddle,
        }
    }

    /// Adjoint phase timers from a fused node log (conv includes zeroing,
    /// as in the phased pipeline).
    fn fused_adjoint_timers(
        stats: &nufft_parallel::exec::DagRunStats,
        t_start: Instant,
        twiddle: f64,
    ) -> OpTimers {
        OpTimers {
            scale: fused::kind_span(stats, |k| k == fused::KIND_EXTRACT),
            fft: fused::kind_span(stats, |k| {
                matches!(k, fused::KIND_FFT | fused::KIND_FFT_SUB | fused::KIND_FFT_TRN)
            }),
            conv: fused::kind_span(stats, |k| {
                matches!(
                    k,
                    fused::KIND_ZERO | fused::KIND_CONV | fused::KIND_PRIV | fused::KIND_REDUCE
                )
            }),
            total: t_start.elapsed().as_secs_f64(),
            fft_sub: fused::kind_span(stats, |k| k == fused::KIND_FFT_SUB),
            fft_transpose: fused::kind_span(stats, |k| k == fused::KIND_FFT_TRN),
            fft_twiddle: twiddle,
        }
    }

    /// Rebuilds `fused_stats` (shaped like the phased scheduler's
    /// [`RunStats`]) from the conv/priv/reduce records of a fused run, so
    /// `last_run_stats` serves the load-balance experiments in either mode.
    /// Reuses the destination's capacity — allocation-free once warm.
    fn synth_conv_stats(
        src: &nufft_parallel::exec::DagRunStats,
        dst: &mut RunStats,
        tile_revisits: u64,
    ) {
        dst.tile_revisits = tile_revisits;
        dst.worker_busy.clear();
        dst.worker_busy.resize(src.worker_busy.len(), 0.0);
        dst.log.clear();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in &src.log {
            let phase = match fused::kind_of(r.tag) {
                fused::KIND_CONV => TaskPhase::Normal,
                fused::KIND_PRIV => TaskPhase::PrivateConvolve,
                fused::KIND_REDUCE => TaskPhase::Reduce,
                _ => continue,
            };
            dst.log.push(TaskRecord {
                task: fused::index_of(r.tag),
                phase,
                worker: r.worker,
                start: r.start,
                end: r.end,
            });
            dst.worker_busy[r.worker] += r.end - r.start;
            lo = lo.min(r.start);
            hi = hi.max(r.end);
        }
        dst.makespan = if hi > lo { hi - lo } else { 0.0 };
    }

    /// Dumps the last fused run as Chrome `trace_event` JSON when
    /// `NUFFT_TRACE=<path>` is set (load in `chrome://tracing` or Perfetto).
    fn trace_fused(&self, adjoint: bool) {
        if let Some(path) = trace_path() {
            fused::write_trace(path, self.dag_scratch.stats(), adjoint);
        }
    }
}

/// The `NUFFT_TRACE` destination, read from the environment once per
/// process (keeping warmed-up applies allocation-free).
fn trace_path() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("NUFFT_TRACE").ok()).as_deref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_mapping_reference_points() {
        // ES width rule ns = ⌈log₁₀(1/eps)⌉ + 1 at α = 2, clamped to the
        // supported cell range.
        let c = NufftConfig::tolerance(1e-6);
        assert_eq!(c.kernel, KernelChoice::EsKernel);
        assert_eq!(c.w, 3.5);
        assert_eq!(NufftConfig::tolerance(1e-2).w, 1.5);
        assert_eq!(NufftConfig::tolerance(0.5).w, 1.0);
        assert_eq!(NufftConfig::tolerance(1e-30).w, 8.0);

        // KB: narrowest half-cell width meeting the 10·e^{−β} aliasing
        // model, with the LUT densified ∝ √(1/eps) past the default.
        let kb = NufftConfig::default().with_tolerance_family(1e-6, KernelChoice::KaiserBessel);
        assert_eq!(kb.w, 3.5);
        assert_eq!(kb.lut_density, 4096);
        let kb = NufftConfig::default().with_tolerance_family(1e-2, KernelChoice::KaiserBessel);
        assert_eq!(kb.w, 2.0);
        assert_eq!(kb.lut_density, DEFAULT_LUT_DENSITY);

        // At matched accuracy the ES kernel is never wider than KB — the
        // headline of the matched-accuracy A/B (`benches/kernels.rs`).
        for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
            let es = NufftConfig::default().with_tolerance(eps);
            let kb = NufftConfig::default().with_tolerance_family(eps, KernelChoice::KaiserBessel);
            assert!(es.w <= kb.w, "eps={eps}: ES W={} > KB W={}", es.w, kb.w);
        }

        // Gaussian: Greengard–Lee truncation model, half-cell rounding —
        // visibly wider than both at tight eps (the reason it is not the
        // tolerance default).
        let g = NufftConfig::default().with_tolerance_family(1e-4, KernelChoice::Gaussian);
        assert_eq!(g.kernel, KernelChoice::Gaussian);
        assert_eq!(g.w, 5.0); // ln(10/eps)/(π·(1−1/4)) ≈ 4.89
    }

    #[test]
    fn tolerance_keeps_non_kernel_knobs() {
        let c = NufftConfig { threads: 3, fft_llc_budget: 99, ..NufftConfig::default() }
            .with_tolerance(1e-3);
        assert_eq!((c.threads, c.fft_llc_budget), (3, 99));
        assert_eq!(c.kernel, KernelChoice::EsKernel);
    }

    #[test]
    #[should_panic(expected = "tolerance must be")]
    fn tolerance_rejects_out_of_range() {
        let _ = NufftConfig::tolerance(0.0);
    }
}
