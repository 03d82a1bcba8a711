//! `apply3d_random`: the paper's main case, where the convolution is heavy.
//!
//! A 3D N = 48 image and 110 592 variable-density Gaussian samples
//! (σ = 0.125) under the default paper configuration (Kaiser–Bessel,
//! W = 4, α = 2, `SortMode::Auto`, `ExecMode::Fused`). One closed-loop
//! caller alternates forward and adjoint; a job is one forward+adjoint
//! pair. The 96³ fine grid (7 MiB) is larger than a 2 MiB per-core L2, so
//! spread/interp, the sort, the scheduler and privatization dominate.

use crate::common::{
    job_loop, oracle_rel_err, pick, quiet_jobs, report_applies, report_jobs, report_traced_loop,
    same_bits, setup, Rng,
};
use crate::host::{peak_rss_mb, THREADS};
use crate::probe;
use crate::Ctx;
use nufft::core::{NufftConfig, NufftPlan};
use nufft::math::Complex32;
use std::sync::Arc;

const N: usize = 48;
/// 48 interleaves of 2304 samples: 110 592 points, one per image voxel.
const INTERLEAVES: usize = 48;
const PER_INTERLEAVE: usize = 2304;
const SIGMA: f64 = 0.125;
/// Oracle points: each costs one direct sum over all 110 592 voxels.
const ORACLE_POINTS: usize = 256;
/// Length of the windows the quiet half of a run is chosen from.
const WINDOW_S: f64 = 2.0;
/// Largest accepted oracle error: KB W = 4 at α = 2 is far below this in
/// single precision.
pub const REL_ERR_MAX: f64 = 1e-3;

pub fn run(ctx: &mut Ctx) {
    let mut rng = Rng::new(ctx.seed);
    let n = [N; 3];
    let traj = nufft::traj::random(PER_INTERLEAVE, INTERLEAVES, SIGMA, ctx.seed).points;
    let cfg = NufftConfig { threads: THREADS, ..NufftConfig::default() };
    let image = rng.complex_vec(N * N * N);
    let samples = rng.complex_vec(traj.len());
    let report = &mut ctx.report;

    let s = setup(n, &traj, cfg, &image, &samples, report, |_| {});
    let mut plan: NufftPlan<3> = s.plan;
    let err = oracle_rel_err(&mut plan, n, &traj, ORACLE_POINTS, &mut rng);
    report.check(err < REL_ERR_MAX, format_args!("oracle error {err:e} ≥ {REL_ERR_MAX:e}"));
    report.set("rel_err", err);
    report.set("peak_rss_mb", peak_rss_mb());

    let mut out = vec![Complex32::ZERO; traj.len()];
    let mut img = vec![Complex32::ZERO; N * N * N];
    let (mut fwd_s, mut adj_s) = (Vec::new(), Vec::new());
    let (stats, overhead_ms) = job_loop(ctx.seconds, &ctx.tracer, |parent, tracer| {
        fwd_s.push(tracer.time("plan.forward", parent, 0, || plan.forward(&image, &mut out)).1);
        report.check(same_bits(&out, &s.want_fwd), "forward differs from the first forward");
        adj_s.push(tracer.time("plan.adjoint", parent, 0, || plan.adjoint(&samples, &mut img)).1);
        report.check(same_bits(&img, &s.want_adj), "adjoint differs from the first adjoint");
    });
    // A traced run's samples end with the traced half.
    let off = fwd_s.len() - stats.job_s.len();
    let keep = quiet_jobs(&stats.job_s, WINDOW_S);
    report_applies(report, &pick(&fwd_s[off..], &keep), &pick(&adj_s[off..], &keep));
    let jobs = pick(&stats.job_s, &keep);
    report_jobs(report, &jobs, jobs.iter().sum());

    if ctx.tracer.enabled() {
        report_traced_loop(report, &ctx.tracer, &stats.late_s, overhead_ms, "job");
        probe::operator(&mut plan, &mut rng, &ctx.tracer, 12, report);
        probe::batch(&mut plan, &mut rng, &ctx.tracer, 2, 3, report);
        drop(plan);
        probe::service_closed(
            cfg,
            n,
            &Arc::new(traj),
            (&image, &samples),
            (&s.want_fwd, &s.want_adj),
            &ctx.tracer,
            6,
            report,
        );
        for name in ["recon.cg_iters", "recon.nufft_calls", "recon.err"] {
            report.set(name, 0.0);
        }
    }
}
