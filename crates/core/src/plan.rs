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
//! Each direction runs as **one** fused whole-operator task graph per
//! channel count (`crate::fused`, DESIGN.md §12): the single applies are
//! the `C = 1` case of the batched ones, so batched output is
//! bitwise-identical to a loop of single applies by construction, and the
//! privatization protocol applies to the batched adjoint as well. The
//! graph's convolution nodes run the same task bodies as the stage drivers
//! in `crate::stage`, so every operator is bitwise-equal to the composition
//! of its stage operators.
//!
//! Steady-state applies perform **zero heap allocations**: the task-graph
//! run state, FFT tile scratch and four-step `fs` buffer live inside the
//! stage operators and the plan, and pointer staging uses reusable plan
//! vectors (verified by the umbrella crate's counting-allocator test).
//!
//! Every phase is timed ([`OpTimers`]) and the adjoint convolution records
//! per-worker/per-task execution logs ([`NufftPlan::last_run_stats`]) for
//! the load-balance experiments.

use crate::conv::Window;
use crate::fused::{self, FusedApply, TilePlan, TileSet};
use crate::grid::{embed_scaled_slab, extract_scaled_range, Geometry};
use crate::kernel::{beatty_beta, InterpKernel, KernelChoice, DEFAULT_LUT_DENSITY};
use crate::stage::{
    check_kernel_fit, default_partitions, DeconvOp, FftOp, Gather, InterpOp, Scatter, SendPtr,
    SpreadOp, SAMPLE_GRAIN,
};
use crate::tasks::{preprocess, Preprocess, PreprocessConfig, SortMode};
use crate::windows::{WindowMode, WindowSource, WindowTable};
use nufft_fft::{Direction, FftNd, FftStrategy};
use nufft_math::Complex32;
use nufft_parallel::exec::{DagScratch, Executor, JobPriority, RunStats, TaskRecord};
use nufft_parallel::graph::{Dag, QueuePolicy, TaskGraph};
use nufft_parallel::scratch::WorkerLocal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Plan construction knobs. `Default` reproduces the paper's main
/// configuration: α = 2, W = 4, priority queue, variable-width partitions,
/// selective privatization on, and the §III-D sample sort on `Auto`
/// (tile-major layout when the trajectory is disordered). No knob picks a
/// schedule: every apply runs as one fused task graph (DESIGN.md §12).
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
    /// keeping all non-kernel knobs (threads, sort, FFT strategy, …). Uses
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
/// quantities behind Figures 3 and 8. Each phase is the span its node
/// kinds were in flight in the fused graph (first start to last end).
/// The graph overlaps phases, so the spans can sum to more than `total`.
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
    /// Oversampled grids, one per channel of the widest apply so far.
    /// `grids[0]` is allocated at build; it is also the workspace of the
    /// convolution-only entry points.
    grids: Vec<Vec<Complex32>>,
    /// Reusable per-channel pointer staging of one apply: its grids and
    /// its outputs.
    grid_ptrs: Vec<SendPtr<Complex32>>,
    out_ptrs: Vec<SendPtr<Complex32>>,
    /// Fused whole-operator graphs, cached per channel count: `(C, graph)`.
    fused_fwd: Vec<(usize, FusedApply)>,
    fused_adj: Vec<(usize, FusedApply)>,
    /// Reusable fused-graph run state (shards, pending counters, node logs).
    dag_scratch: DagScratch,
    /// Per-task stats synthesized from the conv/priv/reduce records of the
    /// last scatter's node log (`None` until a scatter ran).
    conv_stats: Option<RunStats>,
    preprocess_seconds: f64,
    last_forward: OpTimers,
    last_adjoint: OpTimers,
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
            None => {
                WindowTable::for_mode(cfg.window_mode, None, &pre.coords, cfg.w, &kernel, &exec)
            }
        };

        let spread = SpreadOp::from_parts(geo.m, pre, kernel, cfg.w as f32, cfg.policy, windows);
        let interp = InterpOp::from_spread(&spread);

        let grids = vec![vec![Complex32::ZERO; geo.grid_len()]];
        NufftPlan {
            cfg,
            geo,
            exec,
            spread,
            interp,
            fft_op,
            deconv,
            grids,
            grid_ptrs: Vec::new(),
            out_ptrs: Vec::new(),
            fused_fwd: Vec::new(),
            fused_adj: Vec::new(),
            dag_scratch: DagScratch::new(),
            conv_stats: None,
            preprocess_seconds,
            last_forward: OpTimers::default(),
            last_adjoint: OpTimers::default(),
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

    /// The trajectory in oversampled-grid units `[0, M)`, in the caller's
    /// sample order (the plan stores it in its internal layout). A plan
    /// built [`NufftPlan::from_grid_coords`] from these coordinates sees
    /// exactly this plan's samples. Allocates the returned vector.
    pub fn grid_coords(&self) -> Vec<[f32; D]> {
        let pre = &self.spread.pre;
        let mut out = vec![[0.0f32; D]; pre.coords.len()];
        for (c, &slot) in pre.coords.iter().zip(&pre.order) {
            out[slot as usize] = *c;
        }
        out
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

    /// Phase breakdown of the most recent forward apply
    /// ([`NufftPlan::forward`] or [`NufftPlan::forward_batch`]). The first
    /// apply at a channel count also builds its graph inside `total`; warm
    /// the plan before timing it.
    pub fn forward_timers(&self) -> OpTimers {
        self.last_forward
    }

    /// Phase breakdown of the most recent adjoint apply
    /// ([`NufftPlan::adjoint`] or [`NufftPlan::adjoint_batch`]); see
    /// [`NufftPlan::forward_timers`] on cold applies.
    pub fn adjoint_timers(&self) -> OpTimers {
        self.last_adjoint
    }

    /// Per-worker/per-task execution log of the most recent adjoint
    /// scatter, synthesized from the conv/priv/reduce node records of the
    /// graph that ran it: the fused graph after [`NufftPlan::adjoint`] or
    /// [`NufftPlan::adjoint_batch`], the [`SpreadOp`]'s own graph after
    /// [`NufftPlan::spread_only`] or [`NufftPlan::adjoint_convolution_only`].
    /// `None` until a scatter ran.
    pub fn last_run_stats(&self) -> Option<&RunStats> {
        self.conv_stats.as_ref()
    }

    /// The fused whole-operator graph for one direction and channel count,
    /// building (and caching) it if this plan hasn't used it yet — consumed
    /// by `nufft-sim`, which replays it barrier-free and join-per-phase to
    /// model what fusion buys at core counts the host lacks.
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
        let spread = &mut self.spread;
        let held = spread.windows.take();
        spread.windows = WindowTable::for_mode(
            mode,
            held,
            &spread.pre.coords,
            self.cfg.w,
            &spread.kernel,
            &self.exec,
        );
        self.interp.windows = spread.windows.clone();
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
    /// approximation at trajectory point `p` (original sample order). The
    /// `C = 1` case of [`NufftPlan::forward_batch`].
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn forward(&mut self, image: &[Complex32], out: &mut [Complex32]) {
        self.forward_batch(&[image], &mut [out]);
    }

    /// Adjoint NUFFT: samples → image. Exact conjugate-transpose of
    /// [`NufftPlan::forward`] (no normalization is applied; divide by
    /// `Π M_d` for the inverse-FFT convention). The `C = 1` case of
    /// [`NufftPlan::adjoint_batch`].
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn adjoint(&mut self, samples: &[Complex32], out: &mut [Complex32]) {
        self.adjoint_batch(&[samples], &mut [out]);
    }

    /// Standalone adjoint **spread**: scatters `samples` onto the
    /// oversampled grid `grid` (length [`NufftPlan::grid_len`]) through the
    /// plan's [`SpreadOp`] — the convolution stage alone, no FFT or
    /// deconvolution. `grid` is zeroed first; the accumulation order is the
    /// canonical tile-major one, so output is bitwise-deterministic across
    /// thread counts and sort modes, and bitwise-equal to the scatter inside
    /// [`NufftPlan::adjoint`] (whose graph carries the same Gray-code
    /// exclusion edges and task bodies).
    ///
    /// # Panics
    /// Panics if buffer lengths don't match the plan.
    pub fn spread_only(&mut self, samples: &[Complex32], grid: &mut [Complex32]) {
        self.spread.apply(&self.exec, self.cfg.admission, samples, grid);
        self.record_conv_stats(false);
    }

    /// Standalone forward **interpolation**: gathers every sample's value
    /// from an oversampled grid (length [`NufftPlan::grid_len`]) into
    /// `out` (original caller order) through the plan's [`InterpOp`]: pure
    /// reads of `grid` in one dynamic-loop dispatch, with the gather body
    /// the fused forward graph runs.
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
        for c in 0..channels {
            assert_eq!(images[c].len(), self.geo.image_len(), "image {c} length mismatch");
            assert_eq!(outs[c].len(), self.num_samples(), "output {c} length mismatch");
        }
        let t_start = Instant::now();
        // One graph fuses all channels' embed + FFT with the shared
        // gather — channel c's axis-1 chunks overlap channel c+1's
        // axis-0 chunks instead of running as C sequential pipelines.
        let idx = self.ensure_fused(false, channels);
        self.stage_ptrs(outs);
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
                grid_ptrs,
                out_ptrs,
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
                grid_ptrs,
                out_ptrs,
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
        let t_start = Instant::now();
        // One graph covers zeroing, the privatized scatter protocol,
        // every channel's inverse FFT and the extracts — per-channel
        // FFTs overlap each other and the scatter's tail.
        let idx = self.ensure_fused(true, channels);
        self.spread.ensure_priv_channels(channels);
        self.spread.refresh_priv_ptrs();
        self.stage_ptrs(outs);
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
                grid_ptrs,
                out_ptrs,
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
                grid_ptrs,
                &spread.priv_ptrs,
                &spread.buf_of_task,
                samples,
                out_ptrs,
                fs_ptr,
                &twiddle_ns,
            );
        }
        self.record_conv_stats(true);
        self.last_adjoint = Self::fused_adjoint_timers(
            self.dag_scratch.stats(),
            t_start,
            twiddle_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        self.trace_fused(true);
    }

    /// Stages the grid and output pointers of an apply over `outs.len()`
    /// channels, growing the grid set if needed. Reuses the vectors'
    /// capacity — allocation-free once warm.
    fn stage_ptrs(&mut self, outs: &mut [&mut [Complex32]]) {
        let channels = outs.len();
        let glen = self.geo.grid_len();
        while self.grids.len() < channels {
            self.grids.push(vec![Complex32::ZERO; glen]);
        }
        self.grid_ptrs.clear();
        self.grid_ptrs.extend(self.grids[..channels].iter_mut().map(|g| SendPtr(g.as_mut_ptr())));
        self.out_ptrs.clear();
        self.out_ptrs.extend(outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())));
    }

    /// Runs only the adjoint *convolution* (grid zeroing + scatter under
    /// the task graph, through the plan's [`SpreadOp`]) and returns its
    /// wall time in seconds. The grid workspace afterwards holds the
    /// scattered data. Used by throughput experiments (Table III) that
    /// must not pay for the FFT per measurement.
    pub fn adjoint_convolution_only(&mut self, samples: &[Complex32]) -> f64 {
        let t0 = Instant::now();
        self.spread.apply(&self.exec, self.cfg.admission, samples, &mut self.grids[0]);
        self.record_conv_stats(false);
        t0.elapsed().as_secs_f64()
    }

    /// Runs only the forward *convolution* (gather from the current grid
    /// workspace contents) and returns its wall time in seconds.
    pub fn forward_convolution_only(&mut self, out: &mut [Complex32]) -> f64 {
        let t0 = Instant::now();
        self.interp.apply(&self.exec, &self.grids[0], out);
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
    /// gather chunks dispatched as one DAG. The gather nodes run the
    /// [`InterpOp`]'s own body ([`Gather::run`]) and every other node writes
    /// disjoint elements, so the output is bitwise-identical to the stage
    /// composition.
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
        let grid_len = geo.grid_len();
        let b = tp.b;
        let gather = Gather { pre, source, m: &geo.m, grid_ptrs, grid_len, out_ptrs };
        exec.run_dag(&fa.dag, policy, priority, scratch, |_node, tag, w| {
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
                    // SAFETY: the chunk's task-box elements are fully
                    // transformed (last-axis → gather edges) and nothing
                    // writes the grids once their readers start; gather
                    // chunks partition the samples, so their output slots
                    // are disjoint.
                    unsafe { gather.run(lo as usize..hi as usize) };
                }
                k => unreachable!("node kind {k} in a forward graph"),
            }
        });
    }

    /// Executes a fused adjoint graph: zero slabs, the scatter task graph
    /// (with the privatization protocol), per-channel inverse-FFT chunks
    /// and extract chunks as one DAG. The conv/priv/reduce nodes run the
    /// [`SpreadOp`]'s own task bodies ([`Scatter::run_task`]) under the
    /// same Gray-code exclusion edges, which fix the accumulation order, so
    /// the output is bitwise-identical to the stage composition.
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
        let grid_len = geo.grid_len();
        let image_len = geo.image_len();
        let b = tp.b;
        let scatter = Scatter {
            pre,
            source,
            m: &geo.m,
            grid_ptrs,
            grid_len,
            priv_ptrs,
            buf_of_task,
            samples,
        };
        exec.run_dag(&fa.dag, policy, priority, scratch, |_node, tag, w| {
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
                kind @ (fused::KIND_CONV | fused::KIND_PRIV | fused::KIND_REDUCE) => {
                    let phase = fused::task_phase(kind).expect("a scatter-task kind");
                    // SAFETY: the Gray-code edges serialize adjacent tasks'
                    // shared-grid writes exactly as the stage driver's task
                    // graph does, each reduce node follows its convolve
                    // node, and the zero slabs covering a task's box
                    // precede it.
                    unsafe { scatter.run_task(fused::index_of(tag), phase) };
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

    /// Adjoint phase timers from a fused node log (conv includes the grid
    /// zeroing).
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

    /// Rebuilds `conv_stats` from the scatter that just ran: the fused
    /// adjoint's node log (`fused`) or the spread stage's.
    fn record_conv_stats(&mut self, fused: bool) {
        let src = if fused { self.dag_scratch.stats() } else { self.spread.scratch.stats() };
        let dst = self.conv_stats.get_or_insert_with(RunStats::default);
        Self::synth_conv_stats(src, dst, self.spread.pre.canonical_revisits);
    }

    /// Fills `dst` from the conv/priv/reduce records of `src`, so
    /// `last_run_stats` has one shape whichever graph scattered last. The
    /// scatter traversal is fixed at plan time, so its tile-revisit count
    /// is a plan constant stamped next to the timing log. Reuses the
    /// destination's capacity — allocation-free once warm.
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
            let Some(phase) = fused::task_phase(fused::kind_of(r.tag)) else {
                continue;
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

    /// The spread stage's own graph is the fused adjoint's spread fragment
    /// on its own — the same nodes in the same order, the same Gray-code
    /// and privatization edges, priorities from the task weights — and
    /// `last_run_stats` after `spread_only` holds one record per node.
    #[test]
    fn spread_stage_graph_is_the_fused_spread_fragment() {
        // Center-heavy samples, so the dense central tasks privatize.
        let traj: Vec<[f64; 2]> = (0..2000)
            .map(|i| {
                let r = 0.5 * (i as f64 / 2000.0).powi(3);
                let th = i as f64 * 2.399963;
                [r * th.cos(), r * th.sin()]
            })
            .collect();
        let cfg =
            NufftConfig { threads: 2, w: 3.0, partitions_per_dim: Some(4), ..Default::default() };
        let mut plan = NufftPlan::new([16, 16], &traj, cfg);
        assert!(plan.graph().num_privatized() > 0, "the case must privatize");
        let stage = plan.spread.dag.clone();
        let scatter = |dag: &Dag, v: u32| fused::task_phase(fused::kind_of(dag.tag(v))).is_some();
        let fused = plan.fused_dag(true, 1).clone();
        let base = (0..fused.len() as u32).position(|v| scatter(&fused, v)).unwrap() as u32;
        for v in 0..stage.len() as u32 {
            let f = base + v;
            assert_eq!(stage.tag(v), fused.tag(f), "node {v}");
            let t = fused::index_of(stage.tag(v));
            assert_eq!(stage.priority(v), plan.graph().weight(t), "node {v}");
            let want: Vec<u32> =
                fused.succs(f).iter().filter(|&&s| scatter(&fused, s)).map(|&s| s - base).collect();
            assert_eq!(stage.succs(v), &want[..], "node {v}");
        }
        assert!(!scatter(&fused, base + stage.len() as u32), "the fragment is contiguous");

        let samples = vec![Complex32::new(1.0, -0.5); traj.len()];
        let mut grid = vec![Complex32::ZERO; plan.grid_len()];
        plan.spread_only(&samples, &mut grid);
        let stats = plan.last_run_stats().expect("spread_only records stats");
        assert_eq!(stats.worker_busy.len(), 2);
        assert_eq!(stats.tile_revisits, plan.scatter_tile_revisits());
        let mut units: Vec<u64> =
            stats.log.iter().map(|r| fused::task_tag(r.task, r.phase)).collect();
        units.sort_unstable();
        let mut want: Vec<u64> = (0..stage.len() as u32).map(|v| stage.tag(v)).collect();
        want.sort_unstable();
        assert_eq!(units, want, "one record per stage node");
    }

    #[test]
    fn grid_coords_come_back_in_caller_order() {
        // A shuffled trajectory that the tile sort permutes internally.
        let coords: Vec<[f32; 2]> = (0..500)
            .map(|i| [((i * 37) % 64) as f32 + 0.25, ((i * 11) % 64) as f32 + 0.5])
            .collect();
        for sort in [SortMode::None, SortMode::TileMajor] {
            let cfg = NufftConfig { threads: 1, w: 2.0, sort, ..NufftConfig::default() };
            let plan = NufftPlan::from_grid_coords([32, 32], coords.clone(), cfg);
            assert_eq!(plan.grid_coords(), coords, "{sort:?}");
        }
    }
}
