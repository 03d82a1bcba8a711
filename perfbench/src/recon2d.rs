//! `recon2d_sense`: the one workload where the FFT and the batched path are
//! heavy and the convolution is light.
//!
//! A 2D N = 256 image (512² fine grid, 2 MiB per coil, 16 MiB over 8
//! coils), a 256-spoke radial trajectory of 131 072 samples and 8 synthetic
//! coils, planned with `with_tolerance(1e-3)` (ES kernel, W = 2). A job is
//! one `IterativeRecon` CG-SENSE solve of a fixed 10 iterations (`tol = 0`,
//! so every solve does the same work) through `forward_batch` /
//! `adjoint_batch`; single-coil applies follow each solve. The radial trajectory makes `SortMode::Auto` resolve to
//! no sort, so this workload bypasses sorting.

use crate::common::{
    job_loop, oracle_rel_err, pick, quiet_jobs, report_applies, report_jobs, report_traced_loop,
    same_bits, setup, Rng,
};
use crate::host::{peak_rss_mb, THREADS};
use crate::probe;
use crate::stats::median;
use crate::Ctx;
use nufft::core::NufftConfig;
use nufft::math::error::rel_l2_c32;
use nufft::math::Complex32;
use nufft::mri::coils::synthetic_coils;
use nufft::mri::dcf::radial_dcf;
use nufft::mri::phantom::phantom_2d;
use nufft::mri::IterativeRecon;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 256;
const SPOKES: usize = 256;
const PER_SPOKE: usize = 512;
const COILS: usize = 8;
const CG_ITERS: usize = 10;
const EPS: f64 = 1e-3;
const LAMBDA: f32 = 1e-4;
/// Largest accepted oracle error of the ES operator planned for `EPS`.
pub const REL_ERR_MAX: f64 = 1e-2;
/// Largest accepted reconstruction error against the phantom after
/// `CG_ITERS` iterations.
pub const RECON_ERR_MAX: f64 = 0.2;
/// Single-coil applies after each solve, as a share of the solve's time.
const SINGLES_SHARE: f64 = 0.15;
/// Oracle points: each costs one direct sum over all 65 536 pixels.
const ORACLE_POINTS: usize = 256;

pub fn run(ctx: &mut Ctx) {
    let mut rng = Rng::new(ctx.seed);
    let n = [N; 2];
    let traj = nufft::traj::radial_2d(PER_SPOKE, SPOKES, ctx.seed).points;
    let cfg = NufftConfig { threads: THREADS, ..NufftConfig::default() }.with_tolerance(EPS);
    let coils = synthetic_coils::<2>(N, COILS);
    let truth = phantom_2d(N);
    let dcf = radial_dcf(&traj);
    let coil_images: Vec<Vec<Complex32>> =
        coils.iter().map(|s| s.iter().zip(&truth).map(|(&s, &x)| s * x).collect()).collect();
    let image = rng.complex_vec(N * N);
    let samples = rng.complex_vec(traj.len());
    let report = &mut ctx.report;

    // Steady state includes the solver's window table and the first
    // batched applies; the first forward batch is also the coil data.
    let mut data: Vec<Vec<Complex32>> = vec![vec![Complex32::ZERO; traj.len()]; COILS];
    let mut scratch: Vec<Vec<Complex32>> = vec![vec![Complex32::ZERO; N * N]; COILS];
    let s = setup(n, &traj, cfg, &image, &samples, report, |plan| {
        drop(IterativeRecon::new(plan, coils.clone(), dcf.clone(), LAMBDA));
        let imgs: Vec<&[Complex32]> = coil_images.iter().map(Vec::as_slice).collect();
        let mut ksp: Vec<&mut [Complex32]> = data.iter_mut().map(Vec::as_mut_slice).collect();
        plan.forward_batch(&imgs, &mut ksp);
        let ksp: Vec<&[Complex32]> = data.iter().map(Vec::as_slice).collect();
        let mut out: Vec<&mut [Complex32]> = scratch.iter_mut().map(Vec::as_mut_slice).collect();
        plan.adjoint_batch(&ksp, &mut out);
    });
    let mut plan = s.plan;
    let err = oracle_rel_err(&mut plan, n, &traj, ORACLE_POINTS, &mut rng);
    report.check(err < REL_ERR_MAX, format_args!("oracle error {err:e} ≥ {REL_ERR_MAX:e}"));
    report.set("rel_err", err);
    report.set("peak_rss_mb", peak_rss_mb());

    // Each job is a solve followed by single applies for a fixed share of
    // the solve's time, so both are sampled across the whole run.
    let mut out = vec![Complex32::ZERO; traj.len()];
    let mut img = vec![Complex32::ZERO; N * N];
    // Per job: the solve time, and the single applies that followed it.
    let (mut solve_s, mut fwd_s, mut adj_s) =
        (Vec::new(), Vec::<Vec<f64>>::new(), Vec::<Vec<f64>>::new());
    let mut first: Option<Vec<Complex32>> = None;
    let (mut recon_err, mut cg_iters, mut nufft_calls) = (f64::NAN, 0, 0);
    let (stats, overhead_ms) = job_loop(ctx.seconds, &ctx.tracer, |parent, tracer| {
        let mut recon = IterativeRecon::new(&mut plan, coils.clone(), dcf.clone(), LAMBDA);
        let (rep, secs) =
            tracer.time("recon.reconstruct", parent, 0, || recon.reconstruct(&data, CG_ITERS, 0.0));
        solve_s.push(secs);
        recon_err = rel_l2_c32(&rep.image, &truth);
        cg_iters = rep.cg.iterations;
        nufft_calls = rep.nufft_calls;
        report.check(
            recon_err < RECON_ERR_MAX,
            format_args!("reconstruction error {recon_err} ≥ {RECON_ERR_MAX}"),
        );
        let want = first.get_or_insert_with(|| rep.image.clone());
        report.check(same_bits(&rep.image, want), "solve differs from the first solve");

        let (mut f, mut a) = (Vec::new(), Vec::new());
        let until = Instant::now() + Duration::from_secs_f64(secs * SINGLES_SHARE);
        while Instant::now() < until {
            f.push(tracer.time("plan.forward", parent, 0, || plan.forward(&image, &mut out)).1);
            report.check(same_bits(&out, &s.want_fwd), "forward differs from the first forward");
            a.push(tracer.time("plan.adjoint", parent, 0, || plan.adjoint(&samples, &mut img)).1);
            report.check(same_bits(&img, &s.want_adj), "adjoint differs from the first adjoint");
        }
        fwd_s.push(f);
        adj_s.push(a);
    });
    // A traced run's jobs end with the traced half; each solve is a window.
    let off = solve_s.len() - stats.job_s.len();
    let keep = quiet_jobs(&solve_s[off..], 0.0);
    let singles = |v: &[Vec<f64>]| {
        keep.iter().flat_map(|&j| v[off + j].iter().copied()).collect::<Vec<f64>>()
    };
    report_applies(report, &singles(&fwd_s), &singles(&adj_s));
    let solves = pick(&solve_s[off..], &keep);
    report_jobs(report, &solves, solves.iter().sum());
    report.headline("recon_s", median(&solves), "s");
    report.headline("recon_err", recon_err, "1");

    if ctx.tracer.enabled() {
        report_traced_loop(report, &ctx.tracer, &stats.late_s, overhead_ms, "job");
        report.set("recon.cg_iters", cg_iters as f64);
        report.set("recon.nufft_calls", nufft_calls as f64);
        report.set("recon.err", recon_err);
        probe::operator(&mut plan, &mut rng, &ctx.tracer, 12, report);
        probe::batch(&mut plan, &mut rng, &ctx.tracer, COILS, 4, report);
        drop(plan);
        probe::service_closed(
            cfg,
            n,
            &Arc::new(traj),
            (&image, &samples),
            (&s.want_fwd, &s.want_adj),
            &ctx.tracer,
            8,
            report,
        );
    }
}
