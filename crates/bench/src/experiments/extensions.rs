//! Extension experiments beyond the paper's tables and figures:
//!
//! * `extgather` — scatter (ours) vs gather-based (Obeid, §VI) adjoint
//!   convolution across W: quantifies the "does not scale with large
//!   convolution window sizes" critique;
//! * `exttoeplitz` — explicit forward+adjoint pair vs the circulant
//!   Toeplitz embedding inside an iterative solver;
//! * `extkernel` — NUFFT accuracy across kernel widths for Kaiser–Bessel
//!   vs Gaussian (Greengard–Lee), against the exact DTFT.

use crate::report::{secs, speedup, Table};
use crate::{host_threads, time_median, RunScale};
use nufft_baselines::gather::GatherAdjoint;
use nufft_core::{KernelChoice, NufftConfig, NufftPlan};
use nufft_math::error::rel_l2_mixed;
use nufft_math::Complex32;
use nufft_mri::ToeplitzNormal;
use nufft_traj::generators::radial;

/// Gather vs scatter adjoint convolution across kernel widths.
pub fn extgather(scale: &RunScale) {
    let n = 32usize.min(scale.n_cap);
    let k = 2 * n;
    let spokes = (n * n / 2).max(16);
    let traj = radial(k, spokes, 3);
    let samples: Vec<Complex32> =
        (0..traj.len()).map(|i| Complex32::new(1.0, i as f32 * 1e-3)).collect();
    let threads = host_threads();
    let mut t = Table::new(
        &format!(
            "Extension — scatter (TDG) vs gather (Obeid §VI) adjoint convolution \
             (radial, N={n}, {} samples, {threads} threads)",
            traj.len()
        ),
        &["W", "scatter conv", "gather conv", "gather/scatter"],
    );
    for w in [2.0f64, 4.0, 6.0] {
        let mut plan = NufftPlan::new(
            [n; 3],
            &traj.points,
            NufftConfig { threads, w, ..NufftConfig::default() },
        );
        let ts = time_median(scale.reps, || plan.adjoint_convolution_only(&samples));
        let mut gather = GatherAdjoint::new([n; 3], &traj.points, 2.0, w, threads);
        let mut grid = vec![Complex32::ZERO; plan.geometry().grid_len()];
        let tg = time_median(scale.reps, || {
            gather.convolve(&samples, &mut grid);
            gather.last_conv_seconds()
        });
        t.row(&[format!("{w:.0}"), secs(ts), secs(tg), format!("{:.1}x", tg / ts)]);
    }
    t.emit("extgather");
    println!("  expected: the gather ratio grows with W (every sample revisited (2W)^3 times)");
}

/// Toeplitz-embedded normal operator vs the explicit pair.
pub fn exttoeplitz(scale: &RunScale) {
    let n = 48usize.min(scale.n_cap);
    let k = 2 * n;
    let spokes = n * n / 2;
    let traj = radial(k, spokes, 5);
    let cfg = NufftConfig { threads: host_threads(), w: 4.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let weights = vec![1.0f32; traj.len()];
    let t0 = std::time::Instant::now();
    let mut toep = ToeplitzNormal::new(&plan, &weights);
    let setup = t0.elapsed().as_secs_f64();

    let x: Vec<Complex32> =
        (0..n * n * n).map(|i| Complex32::new((i % 17) as f32 * 0.1, 0.2)).collect();
    let mut ksp = vec![Complex32::ZERO; traj.len()];
    let mut out = vec![Complex32::ZERO; n * n * n];
    let explicit = time_median(scale.reps, || {
        let t0 = std::time::Instant::now();
        plan.forward(&x, &mut ksp);
        plan.adjoint(&ksp, &mut out);
        t0.elapsed().as_secs_f64()
    });
    let embedded = time_median(scale.reps, || {
        let t0 = std::time::Instant::now();
        toep.apply(&[], &x, &mut out);
        t0.elapsed().as_secs_f64()
    });

    let mut t = Table::new(
        &format!(
            "Extension — normal operator A†A per CG iteration (radial, N={n}, {} samples)",
            traj.len()
        ),
        &["method", "time / iteration", "speedup", "setup"],
    );
    t.row(&["explicit forward+adjoint".into(), secs(explicit), speedup(1.0), "-".into()]);
    t.row(&[
        "Toeplitz circulant embedding".into(),
        secs(embedded),
        speedup(explicit / embedded),
        secs(setup),
    ]);
    t.emit("exttoeplitz");
    println!("  the embedding replaces both convolutions with one 2N-grid FFT round trip");
}

/// NUFFT forward accuracy vs the exact DTFT across kernels and widths.
pub fn extkernel(_scale: &RunScale) {
    let n = [24usize, 24];
    let traj: Vec<[f64; 2]> = (0..400)
        .map(|i| {
            [
                ((i as f64 + 1.0) * 0.618_033_988_749_894_9) % 1.0 - 0.5,
                ((i as f64 + 1.0) * 0.414_213_562_373_095) % 1.0 - 0.5,
            ]
        })
        .collect();
    let image: Vec<Complex32> =
        (0..576).map(|i| Complex32::new((i as f32 * 0.05).sin() + 0.3, 0.2)).collect();
    let want = nufft_baselines::direct::forward(&image, n, &traj);

    let mut t = Table::new(
        "Extension — forward NUFFT relative L2 error vs exact DTFT (2D, alpha = 2)",
        &["W", "Kaiser-Bessel", "Gaussian (Greengard-Lee)"],
    );
    for w in [2.0f64, 3.0, 4.0, 6.0] {
        let mut cells = vec![format!("{w:.0}")];
        for kernel in [KernelChoice::KaiserBessel, KernelChoice::Gaussian] {
            let cfg = NufftConfig { threads: 1, w, kernel, ..NufftConfig::default() };
            let mut plan = NufftPlan::new(n, &traj, cfg);
            let mut got = vec![Complex32::ZERO; traj.len()];
            plan.forward(&image, &mut got);
            cells.push(format!("{:.2e}", rel_l2_mixed(&got, &want)));
        }
        t.row(&cells);
    }
    t.emit("extkernel");
    println!("  expected: KB beats the Gaussian at every width (why the paper uses KB)");
}
