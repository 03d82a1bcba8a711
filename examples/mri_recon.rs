//! Iterative multichannel 3D MRI reconstruction — the paper's headline
//! application (abstract: "iterative multichannel reconstruction of a
//! 240×240×240 image could execute in just over 3 minutes").
//!
//! Simulates an 8-coil radial acquisition of a 3D Shepp–Logan phantom and
//! reconstructs it with CG-SENSE. Pass a size to scale up:
//!
//! ```text
//! cargo run --release --example mri_recon            # N = 32 (seconds)
//! cargo run --release --example mri_recon -- 64      # larger
//! cargo run --release --example mri_recon -- 240 8   # the paper's setting
//! ```

use nufft::core::{NufftConfig, NufftPlan};
use nufft::math::error::rel_l2_c32;
use nufft::math::Complex32;
use nufft::mri::coils::synthetic_coils;
use nufft::mri::dcf::radial_dcf;
use nufft::mri::phantom::phantom_3d;
use nufft::mri::recon::{gridding_recon, IterativeRecon};
use nufft::traj::generators::radial;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(32);
    let num_coils: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let cg_iters = 10;

    // Acquisition: radial spokes at ~Nyquist for the sphere.
    let k = 2 * n;
    let spokes = (n * n) / 2;
    println!("N = {n}³, {num_coils} coils, {spokes} spokes × {k} samples");

    let t0 = Instant::now();
    let truth = phantom_3d(n);
    let traj = radial(k, spokes, 11);
    println!("phantom + trajectory: {:.1}s ({} samples)", t0.elapsed().as_secs_f64(), traj.len());

    let t0 = Instant::now();
    let mut plan = NufftPlan::new([n; 3], &traj.points, NufftConfig::default());
    println!(
        "plan built in {:.1}s (preprocessing {:.2}s, {} tasks, {} privatized)",
        t0.elapsed().as_secs_f64(),
        plan.preprocess_seconds(),
        plan.graph().len(),
        plan.graph().num_privatized()
    );

    // Simulate the multichannel acquisition.
    let t0 = Instant::now();
    let coils = synthetic_coils::<3>(n, num_coils);
    let mut data = Vec::with_capacity(num_coils);
    for coil in &coils {
        let weighted: Vec<Complex32> = truth.iter().zip(coil).map(|(&x, &s)| x * s).collect();
        let mut y = vec![Complex32::ZERO; traj.len()];
        plan.forward(&weighted, &mut y);
        data.push(y);
    }
    println!("simulated {} coil acquisitions in {:.1}s", num_coils, t0.elapsed().as_secs_f64());

    // Non-iterative gridding baseline (single combined channel for speed).
    let dcf = radial_dcf(&traj.points);
    let t0 = Instant::now();
    let grid_img = gridding_recon(&mut plan, &data[0], &dcf);
    let grid_time = t0.elapsed().as_secs_f64();
    // Compare against the coil-weighted truth it actually observes.
    let coil_truth: Vec<Complex32> = truth.iter().zip(&coils[0]).map(|(&x, &s)| x * s).collect();
    let e_grid = rel_l2_c32(&grid_img, &coil_truth);

    // Iterative CG-SENSE.
    let t0 = Instant::now();
    let mut recon = IterativeRecon::new(&mut plan, coils, dcf, 1e-4);
    let report = recon.reconstruct(&data, cg_iters, 1e-6);
    let iter_time = t0.elapsed().as_secs_f64();
    let e_iter = rel_l2_c32(&report.image, &truth);

    println!();
    println!("gridding  (1 NUFFT)    : {grid_time:6.1}s   rel. error {e_grid:.3} (single coil)");
    println!(
        "CG-SENSE  ({} NUFFTs)  : {iter_time:6.1}s   rel. error {e_iter:.3} ({} CG iters, converged: {})",
        report.nufft_calls,
        report.cg.iterations,
        report.cg.converged
    );
    // The NUFFTs build the right-hand side and the PSF; every CG iteration
    // runs the Toeplitz normal operator (one 2N-grid FFT round trip per coil).
    println!("per CG iteration       : {:.2}s", iter_time / report.cg.iterations.max(1) as f64);
}
