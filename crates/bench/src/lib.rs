//! Shared harness for the reproduction experiments.
//!
//! The `repro` binary (`cargo run --release -p nufft-bench --bin repro`)
//! regenerates every table and figure of the paper's evaluation. This
//! library holds the pieces every experiment shares: run-scale control,
//! dataset construction, single-core cost-model calibration for the
//! `nufft-sim` core-scaling studies, and text/CSV report emission.
//!
//! ## Scaling to the host
//!
//! The paper's testbeds were 12–40-core Xeon servers; experiments here run
//! on whatever executes them (the development container has one core).
//! Two mechanisms compensate:
//!
//! * [`RunScale`] divides the Table I sample counts (grid sizes stay
//!   faithful), keeping single-core wall times in seconds rather than
//!   hours; every report records the scale used;
//! * multi-core points (10/20/40) come from [`nufft_sim`] replaying the
//!   *actual* task graphs produced by preprocessing, with a [`nufft_sim::CostModel`]
//!   calibrated from measured single-core convolution times.

pub mod experiments;
pub mod report;

use nufft_core::{NufftConfig, NufftPlan, OpTimers};
use nufft_math::Complex32;
use nufft_sim::LinearCost;
use nufft_traj::{DatasetKind, DatasetParams};

/// How much to shrink the paper's datasets for the host.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Divide interleave counts (S) by this factor.
    pub sample_div: usize,
    /// Cap on image extent N (larger rows are shrunk to this, preserving
    /// relative shape). `usize::MAX` disables the cap.
    pub n_cap: usize,
    /// Timing repetitions per measurement (median reported).
    pub reps: usize,
}

impl RunScale {
    /// Default quick profile: N capped at 96 with the sampling rate
    /// preserved, so the convolution-vs-FFT balance keeps the paper's
    /// shape while single-core experiments stay in the seconds range.
    pub fn quick() -> Self {
        RunScale { sample_div: 1, n_cap: 96, reps: 2 }
    }

    /// Tiny profile for CI smoke runs.
    pub fn tiny() -> Self {
        RunScale { sample_div: 8, n_cap: 48, reps: 1 }
    }

    /// Full paper-parameter profile (hours of single-core time).
    pub fn full() -> Self {
        RunScale { sample_div: 1, n_cap: usize::MAX, reps: 3 }
    }

    /// Parses from CLI-ish tokens: `--full`, `--tiny`, `--scale <div>`,
    /// `--ncap <n>`, `--reps <r>`.
    pub fn from_args(args: &[String]) -> Self {
        let mut s = RunScale::quick();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => s = RunScale::full(),
                "--tiny" => s = RunScale::tiny(),
                "--scale" => {
                    s.sample_div =
                        it.next().and_then(|v| v.parse().ok()).expect("--scale <divisor>");
                }
                "--ncap" => {
                    s.n_cap = it.next().and_then(|v| v.parse().ok()).expect("--ncap <N>");
                }
                "--reps" => {
                    s.reps = it.next().and_then(|v| v.parse().ok()).expect("--reps <count>");
                }
                _ => {}
            }
        }
        s
    }

    /// Applies the scale to a Table I row: the image extent is capped, the
    /// interleave structure rebuilt so the *sampling rate* `K·S/N³` is
    /// `SR/sample_div` — keeping samples-per-grid-point (and hence the
    /// convolution-vs-FFT balance) faithful to the paper.
    pub fn apply(&self, p: &DatasetParams) -> DatasetParams {
        let n = p.n.min(self.n_cap);
        let k = p.k.min(2 * n);
        let target = (n as f64).powi(3) * p.sr / self.sample_div as f64;
        let s = ((target / k as f64).round() as usize).max(1);
        DatasetParams { n, k, s, sr: (k * s) as f64 / (n as f64).powi(3) }
    }

    /// Scale used by the *simulation-based* scaling experiments
    /// (Figures 9–12). Their cost is one calibration convolution per
    /// configuration, so they can afford the paper's true dataset sizes —
    /// which the load-balance shapes depend on — except under `--tiny`.
    pub fn apply_for_sim(&self, p: &DatasetParams) -> DatasetParams {
        if self.n_cap <= 64 {
            self.apply(p)
        } else {
            *p
        }
    }
}

/// A fully-built benchmark problem: trajectory + plan + sample data.
pub struct Problem {
    /// Which distribution.
    pub kind: DatasetKind,
    /// Scaled parameters actually used.
    pub params: DatasetParams,
    /// The NUFFT plan.
    pub plan: NufftPlan<3>,
    /// Synthetic sample values (for adjoint calls).
    pub samples: Vec<Complex32>,
    /// Synthetic image (for forward calls).
    pub image: Vec<Complex32>,
}

/// Builds a 3D problem for the given dataset kind/parameters.
pub fn build_problem(kind: DatasetKind, params: &DatasetParams, cfg: NufftConfig) -> Problem {
    let traj = nufft_traj::dataset::generate(kind, params, 42);
    let plan = NufftPlan::new([params.n; 3], &traj.points, cfg);
    let k = traj.len();
    let samples: Vec<Complex32> = (0..k)
        .map(|i| {
            let t = i as f32 * 1e-3;
            Complex32::new((t * 3.7).sin(), (t * 1.3).cos() * 0.5)
        })
        .collect();
    let image: Vec<Complex32> = (0..params.n.pow(3))
        .map(|i| Complex32::new(((i % 97) as f32) / 97.0 - 0.5, ((i % 61) as f32) / 61.0 - 0.5))
        .collect();
    Problem { kind, params: *params, plan, samples, image }
}

/// Median of `reps` runs of `f` (seconds).
pub fn time_median(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The apply with the median `total` among `reps` timed calls of `apply`,
/// after one untimed warm-up call. `apply` runs one operator application
/// and returns its [`OpTimers`]. The warm-up keeps one-time costs out of
/// the figures: a plan builds a direction's fused graph on that
/// direction's first apply, inside `total`.
pub fn warm_median_timers(reps: usize, mut apply: impl FnMut() -> OpTimers) -> OpTimers {
    apply();
    let mut runs: Vec<OpTimers> = (0..reps.max(1)).map(|_| apply()).collect();
    runs.sort_by(|a, b| a.total.total_cmp(&b.total));
    runs[runs.len() / 2]
}

/// [`warm_median_timers`] of a problem's forward and adjoint, in that
/// order.
pub fn plan_timers(prob: &mut Problem, reps: usize) -> (OpTimers, OpTimers) {
    let Problem { plan, samples, image, .. } = prob;
    let mut s_out = vec![Complex32::ZERO; samples.len()];
    let mut i_out = vec![Complex32::ZERO; image.len()];
    let ft = warm_median_timers(reps, || {
        plan.forward(image, &mut s_out);
        plan.forward_timers()
    });
    let at = warm_median_timers(reps, || {
        plan.adjoint(samples, &mut i_out);
        plan.adjoint_timers()
    });
    (ft, at)
}

/// Calibrates a [`LinearCost`] for the simulator from one measured
/// single-core adjoint convolution: the per-sample cost is timed on a
/// warmed 1-worker plan over `plan`'s samples, config and partition count
/// (`plan` itself may run on many workers, and the simulator wants the
/// cost of one); per-task setup and queue costs are absolute
/// microarchitectural constants (they do not scale with the kernel width).
pub fn calibrate_cost(plan: &NufftPlan<3>, samples: &[Complex32]) -> LinearCost {
    let cfg = plan.config();
    let partitions = cfg
        .partitions_per_dim
        .unwrap_or_else(|| plan.graph().dims().iter().copied().max().unwrap_or(1));
    let one = NufftConfig { threads: 1, partitions_per_dim: Some(partitions), ..*cfg };
    let mut serial = NufftPlan::from_grid_coords(plan.geometry().n, plan.grid_coords(), one);
    serial.adjoint_convolution_only(samples);
    let conv_s = serial.adjoint_convolution_only(samples);
    let n = plan.num_samples().max(1);
    let per_sample = conv_s / n as f64;
    LinearCost {
        per_task: 3.0e-6, // window setup + first-touch
        per_sample,
        reduce_per_sample: per_sample * 0.12, // reduction row-adds are cheap
        queue_cost: 2.0e-6,                   // serialized lock+pop
    }
}

/// The host's detected thread count (for "measured" columns).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Standard simulated core counts reported by the scaling experiments.
pub const SIM_CORES: [usize; 4] = [1, 10, 20, 40];
