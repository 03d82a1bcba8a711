//! Per-layer probes of the traced run. Each times the calls into one
//! layer's public functions on the workload's own operator:
//!
//! * `core::stage` — `spread_only`, `interp_only`, an `FftOp` planned like
//!   the plan's own, and the plan's `DeconvOp`, next to the monolithic
//!   `forward`/`adjoint` they compose (the unattributed remainder);
//! * `nufft-parallel` — `last_run_stats` after each adjoint;
//! * the batched applies `nufft-mri` drives (`forward_batch` /
//!   `adjoint_batch`);
//! * `core::registry` — `PlanRegistry::checkout` hits and closed-loop
//!   `NufftService` requests.
//!
//! Work counts (taps, flops, bytes) are computed from the problem size, not
//! measured: they repeat exactly and can be cited as counts.

use crate::common::{same_bits, Rng};
use crate::report::Report;
use crate::stats::{median, percentile, unattributed};
use crate::trace::Tracer;
use nufft::core::{
    ApplyOp, ApplyRequest, FftOp, JobPriority, NufftConfig, NufftPlan, NufftService, PlanRegistry,
};
use nufft::fft::Direction;
use nufft::math::Complex32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

const MS: f64 = 1e3;
const C32: f64 = 8.0;
const F32: f64 = 4.0;

/// Times every stage of `plan` and its monolithic applies, `reps` rounds,
/// and records the `spread.*`, `interp.*`, `fft.*`, `deconv.*`, `op.*`,
/// `sort.*`, `runtime.*` and `plan.*_bytes` metrics.
pub fn operator<const D: usize>(
    plan: &mut NufftPlan<D>,
    rng: &mut Rng,
    tracer: &Tracer,
    reps: usize,
    report: &mut Report,
) {
    let cfg = *plan.config();
    let m = plan.spread_op().grid_extents();
    let exec = plan.executor().clone();
    let mut fft = FftOp::plan(&m, cfg.fft_strategy, cfg.fft_llc_budget, cfg.threads);
    let image = rng.complex_vec(plan.image_len());
    let samples = rng.complex_vec(plan.num_samples());
    let mut grid = vec![Complex32::ZERO; plan.grid_len()];
    let mut out = vec![Complex32::ZERO; plan.num_samples()];
    let mut img = vec![Complex32::ZERO; plan.image_len()];

    // fwd, adj, embed, fft_fwd, interp, spread, fft_bwd, extract.
    let mut t: [Vec<f64>; 8] = Default::default();
    let (mut efficiency, mut makespan) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let id = tracer.reserve();
        let parent = Some(id);
        let t0 = Instant::now();
        t[0].push(tracer.time("plan.forward", parent, 0, || plan.forward(&image, &mut out)).1);
        t[1].push(tracer.time("plan.adjoint", parent, 0, || plan.adjoint(&samples, &mut img)).1);
        if let Some(stats) = plan.last_run_stats() {
            efficiency.push(stats.efficiency());
            makespan.push(stats.makespan * MS);
        }
        let deconv = plan.deconv_op();
        t[2].push(tracer.time("deconv.embed", parent, 0, || deconv.embed(&image, &mut grid)).1);
        t[3].push(
            tracer
                .time("fft.forward", parent, 0, || fft.apply(&exec, &mut grid, Direction::Forward))
                .1,
        );
        t[4].push(tracer.time("interp.apply", parent, 0, || plan.interp_only(&grid, &mut out)).1);
        t[5].push(
            tracer.time("spread.apply", parent, 0, || plan.spread_only(&samples, &mut grid)).1,
        );
        t[6].push(
            tracer
                .time("fft.backward", parent, 0, || {
                    fft.apply(&exec, &mut grid, Direction::Backward)
                })
                .1,
        );
        let deconv = plan.deconv_op();
        t[7].push(tracer.time("deconv.extract", parent, 0, || deconv.extract(&grid, &mut img)).1);
        tracer.record(id, "probe.stages", None, 0, t0, Instant::now());
    }
    let [fwd, adj, embed, fft_fwd, interp, spread, fft_bwd, extract] = t.map(|v| median(&v) * MS);

    // Computed work counts.
    let k = plan.num_samples() as f64;
    let taps_per_sample = (2.0 * cfg.w.ceil() + 1.0).powi(D as i32);
    let taps = k * taps_per_sample;
    // A tap is a real weight times a complex value accumulated (4 flops)
    // plus the D − 1 products forming the separable weight.
    let flops_per_tap = 4.0 + (D - 1) as f64;
    let per_sample_bytes = C32 + F32 * D as f64; // value + coordinates
    let spread_bytes = taps * 2.0 * C32 + k * per_sample_bytes; // grid read-modify-write
    let interp_bytes = taps * C32 + k * per_sample_bytes; // grid read
    let grid_len = plan.grid_len() as f64;
    let img_len = plan.image_len() as f64;
    let fft_flops = 5.0 * grid_len * grid_len.log2();
    let fft_bytes = D as f64 * 2.0 * C32 * grid_len; // one read + write per axis pass
                                                     // Embed zero-fills the grid and writes the scaled image; extract reads
                                                     // the image block; both read the image and the scale array once.
    let deconv_bytes = C32 * grid_len + 2.0 * img_len * (2.0 * C32 + F32);

    report.set("spread.ms_p50", spread);
    report.set("spread.taps", taps);
    report.set("spread.ns_per_tap", spread * 1e6 / taps);
    report.set("spread.bytes", spread_bytes);
    report.set("spread.flop_per_byte", taps * flops_per_tap / spread_bytes);
    report.set("interp.ms_p50", interp);
    report.set("interp.ns_per_tap", interp * 1e6 / taps);
    report.set("interp.bytes", interp_bytes);
    report.set("interp.flop_per_byte", taps * flops_per_tap / interp_bytes);
    report.set("sort.gather_revisits", plan.gather_tile_revisits() as f64);
    report.set("sort.scatter_revisits", plan.scatter_tile_revisits() as f64);
    report.set("fft.fwd_ms_p50", fft_fwd);
    report.set("fft.bwd_ms_p50", fft_bwd);
    report.set("fft.flops", fft_flops);
    report.set("fft.gflop_s", fft_flops / (fft_fwd * 1e-3) * 1e-9);
    report.set("fft.bytes", fft_bytes);
    report.set("fft.flop_per_byte", fft_flops / fft_bytes);
    report.set("deconv.embed_ms_p50", embed);
    report.set("deconv.extract_ms_p50", extract);
    report.set("deconv.bytes", deconv_bytes);
    report.set("op.fwd_ms_p50", fwd);
    report.set("op.adj_ms_p50", adj);
    report.set("op.fwd_unattributed_ms", unattributed(fwd, &[embed, fft_fwd, interp]));
    report.set("op.adj_unattributed_ms", unattributed(adj, &[spread, fft_bwd, extract]));
    report.set("runtime.adj_efficiency", median(&efficiency));
    report.set("runtime.adj_makespan_ms", median(&makespan));
    report.set("plan.window_table_bytes", plan.window_table_bytes().unwrap_or(0) as f64);
    report.set("plan.kernel_eval_bytes", plan.kernel_eval_bytes() as f64);
}

/// Times `forward_batch`/`adjoint_batch` over `channels` vectors, checks
/// each channel bitwise against a single apply, and records `batch.*`
/// (the per-channel ratio is batch time over `channels` single applies).
pub fn batch<const D: usize>(
    plan: &mut NufftPlan<D>,
    rng: &mut Rng,
    tracer: &Tracer,
    channels: usize,
    reps: usize,
    report: &mut Report,
) {
    let images: Vec<Vec<Complex32>> =
        (0..channels).map(|_| rng.complex_vec(plan.image_len())).collect();
    let samples: Vec<Vec<Complex32>> =
        (0..channels).map(|_| rng.complex_vec(plan.num_samples())).collect();
    let mut ksp: Vec<Vec<Complex32>> = vec![vec![Complex32::ZERO; plan.num_samples()]; channels];
    let mut imgs: Vec<Vec<Complex32>> = vec![vec![Complex32::ZERO; plan.image_len()]; channels];
    let mut single_fwd = vec![Complex32::ZERO; plan.num_samples()];
    let mut single_adj = vec![Complex32::ZERO; plan.image_len()];

    let (mut bf, mut ba, mut sf, mut sa) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let img_refs: Vec<&[Complex32]> = images.iter().map(Vec::as_slice).collect();
        let mut ksp_refs: Vec<&mut [Complex32]> = ksp.iter_mut().map(Vec::as_mut_slice).collect();
        bf.push(
            tracer
                .time("batch.forward", None, 0, || plan.forward_batch(&img_refs, &mut ksp_refs))
                .1,
        );
        let smp_refs: Vec<&[Complex32]> = samples.iter().map(Vec::as_slice).collect();
        let mut img_out: Vec<&mut [Complex32]> = imgs.iter_mut().map(Vec::as_mut_slice).collect();
        ba.push(
            tracer.time("batch.adjoint", None, 0, || plan.adjoint_batch(&smp_refs, &mut img_out)).1,
        );
        let c = rep % channels;
        sf.push(
            tracer.time("plan.forward", None, 0, || plan.forward(&images[c], &mut single_fwd)).1,
        );
        sa.push(
            tracer.time("plan.adjoint", None, 0, || plan.adjoint(&samples[c], &mut single_adj)).1,
        );
        report.check(same_bits(&ksp[c], &single_fwd), format_args!("batch forward channel {c}"));
        report.check(same_bits(&imgs[c], &single_adj), format_args!("batch adjoint channel {c}"));
    }
    let (bf, ba, sf, sa) = (median(&bf), median(&ba), median(&sf), median(&sa));
    report.set("batch.channels", channels as f64);
    report.set("batch.fwd_ms_p50", bf * MS);
    report.set("batch.adj_ms_p50", ba * MS);
    report.set("batch.per_channel_ratio", (bf + ba) / (channels as f64 * (sf + sa)));
}

/// Times `checkout` hits on `registry` for key `(n, traj)` (primed first)
/// and returns them in microseconds.
pub fn checkout_hits_us<const D: usize>(
    registry: &PlanRegistry<D>,
    n: [usize; D],
    traj: &[[f64; D]],
    tracer: &Tracer,
    reps: usize,
) -> Vec<f64> {
    drop(registry.checkout(n, traj));
    (0..reps)
        .map(|_| {
            let (lease, s) =
                tracer.time("registry.checkout", None, 0, || registry.checkout(n, traj));
            drop(lease);
            s * 1e6
        })
        .collect()
}

/// Runs `requests` closed-loop service requests (alternating forward and
/// adjoint) against a fresh registry for the workload's operator, checks
/// each response bitwise against the solo applies `want_fwd`/`want_adj`
/// of `image`/`samples`, and records `registry.*` and `service.*`.
#[allow(clippy::too_many_arguments)]
pub fn service_closed<const D: usize>(
    cfg: NufftConfig,
    n: [usize; D],
    traj: &Arc<Vec<[f64; D]>>,
    inputs: (&[Complex32], &[Complex32]),
    want: (&[Complex32], &[Complex32]),
    tracer: &Tracer,
    requests: usize,
    report: &mut Report,
) {
    let registry = Arc::new(PlanRegistry::new(cfg));
    let checkout = checkout_hits_us(&registry, n, traj, tracer, 32);
    let svc = NufftService::with_registry(Arc::clone(&registry));
    let (mut submit_us, mut wait_ms, mut total_ms) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..requests {
        let (op, input, want) = if i % 2 == 0 {
            (ApplyOp::Forward, inputs.0, want.0)
        } else {
            (ApplyOp::Adjoint, inputs.1, want.1)
        };
        let req = ApplyRequest {
            n,
            traj: Arc::clone(traj),
            op,
            input: input.to_vec(),
            priority: JobPriority::Normal,
        };
        let id = tracer.reserve();
        let req_id = i as u64 + 1;
        let t0 = Instant::now();
        let (handle, s) = tracer.time("service.submit", Some(id), req_id, || svc.submit(req));
        let (got, w) = tracer.time("service.wait", Some(id), req_id, || {
            catch_unwind(AssertUnwindSafe(|| handle.wait()))
        });
        tracer.record(id, "svc.request", None, req_id, t0, Instant::now());
        submit_us.push(s * 1e6);
        wait_ms.push(w * MS);
        total_ms.push(t0.elapsed().as_secs_f64() * MS);
        report.check(
            got.is_ok_and(|g| same_bits(&g, want)),
            format_args!("service request {i} ({op:?}) differs from its solo apply"),
        );
    }
    let stats = registry.stats();
    report.set("registry.checkout_us_p50", median(&checkout));
    report.set("registry.hits", stats.hits as f64);
    report.set("registry.misses", stats.misses as f64);
    report.set("service.submit_us_p50", median(&submit_us));
    report.set("service.wait_ms_p50", median(&wait_ms));
    report.set("service.ms_p99", percentile(&total_ms, 99.0));
}
