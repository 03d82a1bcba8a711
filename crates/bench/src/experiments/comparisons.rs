//! Tables IV and V: comparisons against published implementations.

use crate::report::{secs, speedup, Table};
use crate::{calibrate_cost, host_threads, warm_median_timers, RunScale};
use nufft_baselines::privatized::PrivatizedAdjoint;
use nufft_core::{NufftConfig, NufftPlan};
use nufft_math::Complex32;
use nufft_parallel::graph::QueuePolicy;
use nufft_sim::simulate;
use nufft_traj::generators::radial;

/// Table IV: vs the Shu et al. full-grid-privatization CPU implementation
/// (paper: N=240, K=512, S=8047, OF≈1.25; Shu used W=2.5, the paper W=4).
pub fn tab4(scale: &RunScale) {
    let full = scale.sample_div == 1 && scale.n_cap >= 240;
    let n = if full { 240usize } else { 120 };
    let k = if full { 512 } else { 256 };
    let s = (8047 / scale.sample_div / if full { 1 } else { 8 }).max(64);
    let traj = radial(k, s, 17);
    let threads = host_threads();
    let alpha = 1.25;
    let w = 4.0;

    // Ours.
    let cfg = NufftConfig { threads, w, alpha, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let ksamples: Vec<Complex32> =
        (0..traj.len()).map(|i| Complex32::new((i as f32 * 0.01).sin(), 0.25)).collect();
    let image: Vec<Complex32> =
        (0..n.pow(3)).map(|i| Complex32::new((i % 11) as f32 * 0.1, 0.0)).collect();
    let mut img_out = vec![Complex32::ZERO; n.pow(3)];
    let mut smp_out = vec![Complex32::ZERO; traj.len()];
    let ours_adj = warm_median_timers(scale.reps, || {
        plan.adjoint(&ksamples, &mut img_out);
        plan.adjoint_timers()
    })
    .total;
    let ours_fwd = warm_median_timers(scale.reps, || {
        plan.forward(&image, &mut smp_out);
        plan.forward_timers()
    })
    .total;

    // Shu-style comparator: full-grid privatization (W=2.5 per the paper's
    // description of that implementation).
    let mut shu = PrivatizedAdjoint::new([n; 3], &traj.points, alpha, 2.5, threads);
    let shu_adj = warm_median_timers(scale.reps, || {
        shu.adjoint(&ksamples, &mut img_out);
        shu.adjoint_timers()
    })
    .total;

    // 12-core projection of the adjoint (the paper's WSM12C) via the
    // simulator for ours; for the Shu baseline the reduction is serial-ish
    // per element and the scatter is embarrassingly parallel:
    let model = calibrate_cost(&plan, &ksamples);
    let ours12 = simulate(plan.graph(), QueuePolicy::Priority, 12, &model).makespan;

    let mut t = Table::new(
        &format!(
            "Table IV — vs full-grid privatization (N={n}, K={k}, S={s}, alpha=1.25, {} threads)",
            threads
        ),
        &["implementation", "ADJ", "FWD", "total"],
    );
    t.row(&[
        "ours (W=4, measured)".into(),
        secs(ours_adj),
        secs(ours_fwd),
        secs(ours_adj + ours_fwd),
    ]);
    t.row(&[
        "Shu-style full-grid privatization (W=2.5, measured)".into(),
        secs(shu_adj),
        "-".into(),
        "-".into(),
    ]);
    t.row(&["ours ADJ conv projected @12 cores".into(), secs(ours12), "-".into(), "-".into()]);
    t.row(&[
        "ADJ speedup ours vs Shu-style (same host, same threads)".into(),
        speedup(shu_adj / ours_adj),
        "-".into(),
        "-".into(),
    ]);
    t.emit("tab4");
    println!("  paper: ours 0.28s ADJ / 0.26s FWD vs Shu 1.40s / 0.90s on WSM12C (4.26x total)");
    println!("  note: Shu-style pays T full-grid reductions; the gap widens with threads");
}

/// Table V: vs the GTX 480 GPU implementation (published constants).
/// N=344 exercises the Bluestein FFT path (M=688=16·43).
pub fn tab5(scale: &RunScale) {
    let full = scale.sample_div == 1 && scale.n_cap >= 344;
    // 86·2 = 172 = 4·43 keeps the Bluestein path exercised when scaled.
    let n = if full { 344usize } else { 86 };
    let k = if full { 344 } else { 86 };
    let s = (9000 / scale.sample_div / if full { 1 } else { 4 }).max(64);
    let traj = radial(k, s, 23);
    let threads = host_threads();
    let cfg = NufftConfig { threads, w: 4.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let m = plan.geometry().m[0];
    let ksamples: Vec<Complex32> =
        (0..traj.len()).map(|i| Complex32::new(0.5, (i as f32 * 0.02).cos())).collect();
    let image: Vec<Complex32> =
        (0..n.pow(3)).map(|i| Complex32::new(0.1 * (i % 7) as f32, 0.0)).collect();
    let mut img_out = vec![Complex32::ZERO; n.pow(3)];
    let mut smp_out = vec![Complex32::ZERO; traj.len()];
    let adj = warm_median_timers(scale.reps, || {
        plan.adjoint(&ksamples, &mut img_out);
        plan.adjoint_timers()
    })
    .total;
    let fwd = warm_median_timers(scale.reps, || {
        plan.forward(&image, &mut smp_out);
        plan.forward_timers()
    })
    .total;

    let model = calibrate_cost(&plan, &ksamples);
    let adj16 = simulate(plan.graph(), QueuePolicy::Priority, 16, &model).makespan;

    let mut t = Table::new(
        &format!(
            "Table V — vs GTX480 published numbers (N={n}, M={m} via {} FFT, K={k}, S={s})",
            if m % 43 == 0 { "Bluestein" } else { "mixed-radix" }
        ),
        &["implementation", "ADJ", "FWD", "total"],
    );
    t.row(&[format!("ours (measured, {threads} threads)"), secs(adj), secs(fwd), secs(adj + fwd)]);
    t.row(&["ours ADJ conv projected @16 cores".into(), secs(adj16), "-".into(), "-".into()]);
    t.row(&[
        "GTX480 (Nam et al., published, full size)".into(),
        "0.94s".into(),
        "0.66s".into(),
        "1.60s".into(),
    ]);
    t.row(&["SNB16C (paper, full size)".into(), "0.58s".into(), "0.54s".into(), "1.11s".into()]);
    t.emit("tab5");
    println!("  paper: SNB16C beats the GPU 1.44x; published rows above are literature constants");
}
