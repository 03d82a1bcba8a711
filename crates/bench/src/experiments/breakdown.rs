//! Figures 3, 7, 8 and Table II: execution-time breakdowns and the
//! headline baseline-vs-optimized comparison.

use crate::report::{secs, speedup, Table};
use crate::{
    build_problem, calibrate_cost, host_threads, plan_timers, time_median, warm_median_timers,
    RunScale,
};
use nufft_baselines::sequential::SequentialNufft;
use nufft_core::NufftConfig;
use nufft_math::Complex32;
use nufft_parallel::graph::QueuePolicy;
use nufft_sim::simulate;
use nufft_traj::{DatasetKind, TABLE1};

/// The Fig. 3/8/Table II workload: Table I row 2 (N=256, SR=0.75), W=4.
fn workload(scale: &RunScale) -> nufft_traj::DatasetParams {
    scale.apply(&TABLE1[1])
}

/// Figure 3: sub-kernel breakdown of the scalar sequential code.
pub fn fig3(scale: &RunScale) {
    let p = workload(scale);
    let traj = nufft_traj::dataset::generate(DatasetKind::Radial, &p, 42);
    let mut seq = SequentialNufft::new([p.n; 3], &traj.points, 2.0, 4.0);
    let image: Vec<Complex32> =
        (0..p.n.pow(3)).map(|i| Complex32::new((i % 13) as f32, 0.5)).collect();
    let mut samples = vec![Complex32::ZERO; traj.len()];
    let ft = warm_median_timers(scale.reps, || {
        seq.forward(&image, &mut samples);
        seq.forward_timers()
    });
    let mut out = vec![Complex32::ZERO; p.n.pow(3)];
    let at = warm_median_timers(scale.reps, || {
        seq.adjoint(&samples, &mut out);
        seq.adjoint_timers()
    });

    let total = ft.total + at.total;
    let pct = |x: f64| format!("{:.1}%", 100.0 * x / total);
    let mut t = Table::new(
        &format!(
            "Figure 3 — scalar sequential breakdown (radial, N={}, {} samples, W=4)",
            p.n,
            p.total_samples()
        ),
        &["sub-kernel", "seconds", "% of total"],
    );
    t.row(&["FWD scale".into(), secs(ft.scale), pct(ft.scale)]);
    t.row(&["FWD 3D FFT".into(), secs(ft.fft), pct(ft.fft)]);
    t.row(&["FWD convolution".into(), secs(ft.conv), pct(ft.conv)]);
    t.row(&["ADJ convolution".into(), secs(at.conv), pct(at.conv)]);
    t.row(&["ADJ 3D iFFT".into(), secs(at.fft), pct(at.fft)]);
    t.row(&["ADJ scale".into(), secs(at.scale), pct(at.scale)]);
    t.row(&["total".into(), secs(total), "100%".into()]);
    t.emit("fig3");
    let conv_frac = (ft.conv + at.conv) / total;
    println!(
        "  convolution share: {:.0}% (paper: convolution dominates the sequential code)",
        conv_frac * 100.0
    );
}

/// Figure 7: Part 1 (windows/LUT) vs Part 2 (interpolation) share of the
/// convolution across W.
pub fn fig7(scale: &RunScale) {
    let p = workload(scale);
    let mut t = Table::new(
        "Figure 7 — convolution time split: Part 1 (kernel/coords) vs Part 2 (interpolation)",
        &["W", "part1", "ADJ part2", "FWD part2", "part1 % of ADJ", "part1 % of FWD"],
    );
    for w in [2.0f64, 4.0, 6.0, 8.0] {
        let cfg = NufftConfig { threads: 1, w, ..NufftConfig::default() };
        let mut prob = build_problem(DatasetKind::Radial, &p, cfg);
        let part1 = time_median(scale.reps, || prob.plan.part1_seconds());
        let adj = time_median(scale.reps, || prob.plan.adjoint_convolution_only(&prob.samples));
        let mut out = vec![Complex32::ZERO; prob.samples.len()];
        let fwd = time_median(scale.reps, || prob.plan.forward_convolution_only(&mut out));
        t.row(&[
            format!("{w:.0}"),
            secs(part1),
            secs((adj - part1).max(0.0)),
            secs((fwd - part1).max(0.0)),
            format!("{:.1}%", 100.0 * part1 / adj.max(1e-12)),
            format!("{:.1}%", 100.0 * part1 / fwd.max(1e-12)),
        ]);
    }
    t.emit("fig7");
    println!("  paper shape: Part 1 share shrinks as W grows (O(W) vs O(W^3) work)");
}

/// Models the makespan of `lines` independent equal-cost line transforms on
/// `p` workers (used to project FFT times to core counts we don't have).
fn fft_projection(fft_1core: f64, lines: usize, p: usize) -> f64 {
    let per_line = fft_1core / lines.max(1) as f64;
    (lines as f64 / p as f64).ceil() * per_line
}

/// Figure 8: breakdown after all optimizations (measured at host threads +
/// simulated 40-core projection). Each measured phase is the span its
/// node kinds were in flight in the fused graph; the spans overlap.
pub fn fig8(scale: &RunScale) {
    let p = workload(scale);
    let cfg = NufftConfig { threads: host_threads(), w: 4.0, ..NufftConfig::default() };
    let mut prob = build_problem(DatasetKind::Radial, &p, cfg);
    let (ft, at) = plan_timers(&mut prob, scale.reps);

    // 40-core projection: adjoint conv via the scheduler simulator on a
    // task graph partitioned *for* 40 cores, forward conv + FFT via the
    // independent-lines model, scale phase serial.
    let cfg40 = NufftConfig { threads: 40, partitions_per_dim: Some(8), ..cfg };
    let prob40 = build_problem(DatasetKind::Radial, &p, cfg40);
    let model = calibrate_cost(&prob40.plan, &prob40.samples);
    let conv40 = simulate(prob40.plan.graph(), QueuePolicy::Priority, 40, &model).makespan;
    let m = prob.plan.geometry().m[0];
    let lines = 3 * m * m;
    let fwd_conv40 = ft.conv * cfg.threads as f64 / 40.0;

    let mut t = Table::new(
        &format!(
            "Figure 8 — optimized breakdown (radial, N={}, W=4; measured @{} threads, projected @40)",
            p.n,
            cfg.threads
        ),
        &["sub-kernel", "measured", "projected @40 cores"],
    );
    t.row(&["FWD scale".into(), secs(ft.scale), secs(ft.scale)]);
    t.row(&["FWD 3D FFT".into(), secs(ft.fft), secs(fft_projection(ft.fft, lines, 40))]);
    t.row(&["FWD convolution".into(), secs(ft.conv), secs(fwd_conv40)]);
    t.row(&["ADJ convolution".into(), secs(at.conv), secs(conv40)]);
    t.row(&["ADJ 3D iFFT".into(), secs(at.fft), secs(fft_projection(at.fft, lines, 40))]);
    t.row(&["ADJ scale".into(), secs(at.scale), secs(at.scale)]);
    t.emit("fig8");
    println!("  paper shape: FFT/convolution gap narrows sharply vs Figure 3");
}

/// Table II: baseline vs most-optimized times for convolution / FFT / NUFFT.
pub fn tab2(scale: &RunScale) {
    let p = workload(scale);
    // Baseline: scalar sequential.
    let traj = nufft_traj::dataset::generate(DatasetKind::Radial, &p, 42);
    let mut seq = SequentialNufft::new([p.n; 3], &traj.points, 2.0, 4.0);
    let image: Vec<Complex32> =
        (0..p.n.pow(3)).map(|i| Complex32::new((i % 13) as f32, 0.5)).collect();
    let mut samples = vec![Complex32::ZERO; traj.len()];
    let bft = warm_median_timers(scale.reps, || {
        seq.forward(&image, &mut samples);
        seq.forward_timers()
    });
    let mut out_img = vec![Complex32::ZERO; p.n.pow(3)];
    let bat = warm_median_timers(scale.reps, || {
        seq.adjoint(&samples, &mut out_img);
        seq.adjoint_timers()
    });
    let base_conv = bft.conv + bat.conv;
    let base_fft = bft.fft + bat.fft;
    let base_total = bft.total + bat.total;

    // Optimized: measured at host threads.
    let cfg = NufftConfig { threads: host_threads(), w: 4.0, ..NufftConfig::default() };
    let mut prob = build_problem(DatasetKind::Radial, &p, cfg);
    let (oft, oat) = plan_timers(&mut prob, scale.reps);
    let opt_conv = oft.conv + oat.conv;
    let opt_fft = oft.fft + oat.fft;
    let opt_total = oft.total + oat.total;

    // 40-core projection (graph partitioned for the simulated machine).
    let cfg40 = NufftConfig { threads: 40, partitions_per_dim: Some(8), ..cfg };
    let prob40 = build_problem(DatasetKind::Radial, &p, cfg40);
    let model = calibrate_cost(&prob40.plan, &prob40.samples);
    let adj40 = simulate(prob40.plan.graph(), QueuePolicy::Priority, 40, &model).makespan;
    let m = prob.plan.geometry().m[0];
    let lines = 3 * m * m;
    let conv40 = adj40 + oft.conv * cfg.threads as f64 / 40.0;
    let fft40 = fft_projection(opt_fft, 2 * lines, 40);
    let total40 = conv40 + fft40 + oft.scale + oat.scale;

    let mut t = Table::new(
        &format!(
            "Table II — baseline vs optimized (radial, N={}, W=4, {} samples)",
            p.n,
            p.total_samples()
        ),
        &["configuration", "Convolution", "3D FFT", "NUFFT"],
    );
    t.row(&[
        "baseline (scalar sequential)".into(),
        secs(base_conv),
        secs(base_fft),
        secs(base_total),
    ]);
    t.row(&[
        format!("optimized (measured, {} threads)", cfg.threads),
        secs(opt_conv),
        secs(opt_fft),
        secs(opt_total),
    ]);
    t.row(&["optimized (projected, 40 cores)".into(), secs(conv40), secs(fft40), secs(total40)]);
    t.row(&[
        "speedup (projected @40)".into(),
        speedup(base_conv / conv40),
        speedup(base_fft / fft40),
        speedup(base_total / total40),
    ]);
    t.emit("tab2");
    println!("  paper: conv 147.5x, FFT 28.3x, NUFFT 92.8x on 40 cores (WSM40C)");
}
