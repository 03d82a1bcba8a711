//! Full reconstruction pipeline: phantom → trajectory → simulated
//! acquisition → iterative reconstruction, across the workspace crates.

use nufft::core::{NufftConfig, NufftPlan};
use nufft::fft::{shift, FftNd};
use nufft::math::error::rel_l2_c32;
use nufft::math::Complex32;
use nufft::mri::coils::{sos_combine, synthetic_coils};
use nufft::mri::dcf::{pipe_menon, radial_dcf};
use nufft::mri::phantom::phantom_3d;
use nufft::mri::recon::{gridding_recon, IterativeRecon};
use nufft::traj::generators::radial;

/// Projects an image onto the spectral ball `|ν| ≤ 1/2` — the best any
/// reconstruction from *radial* data can do, since radial spokes never
/// sample the corner frequencies of the cube band.
fn ball_limit(img: &[Complex32], n: usize) -> Vec<Complex32> {
    let plan = FftNd::new(&[n, n, n]);
    let mut f = img.to_vec();
    plan.forward(&mut f);
    shift::fftshift(&mut f, &[n, n, n]);
    let c = n as f64 / 2.0;
    for ix in 0..n {
        for iy in 0..n {
            for iz in 0..n {
                let r =
                    ((ix as f64 - c).powi(2) + (iy as f64 - c).powi(2) + (iz as f64 - c).powi(2))
                        .sqrt();
                if r > c {
                    f[(ix * n + iy) * n + iz] = Complex32::ZERO;
                }
            }
        }
    }
    shift::ifftshift(&mut f, &[n, n, n]);
    plan.inverse(&mut f);
    f
}

#[test]
fn three_d_radial_cg_recon_reaches_the_ball_limited_optimum() {
    let n = 16usize;
    let truth = phantom_3d(n);
    // Radial at ~1.5x angular Nyquist for a small volume.
    let traj = radial(2 * n, n * n, 3);
    let cfg = NufftConfig { threads: 2, w: 3.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);

    let mut y = vec![Complex32::ZERO; traj.len()];
    plan.forward(&truth, &mut y);

    let dcf = radial_dcf(&traj.points);
    let grid_img = gridding_recon(&mut plan, &y, &dcf);
    // The achievable target: the truth restricted to the sampled ball.
    let target = ball_limit(&truth, n);
    let e_grid = rel_l2_c32(&grid_img, &target);

    let mut it = IterativeRecon::new(&mut plan, vec![], dcf, 1e-5);
    let rep = it.reconstruct(&[y], 20, 1e-9);
    let e_iter = rel_l2_c32(&rep.image, &target);

    assert!(e_iter < e_grid, "iterative ({e_iter}) must beat gridding ({e_grid})");
    // Within the sampled subspace the solve should be accurate; the ball
    // projection is an idealization (kernel roll-off blurs the boundary
    // shell), so the bound is loose.
    assert!(e_iter < 0.35, "3D radial CG error vs ball-limited target: {e_iter}");
    // And against the raw truth, the error must sit at (not above) the
    // null-space floor.
    let floor = rel_l2_c32(&target, &truth);
    let e_raw = rel_l2_c32(&rep.image, &truth);
    assert!(e_raw < floor * 1.15, "recon error {e_raw} should approach the sampling floor {floor}");
    assert!(rep.cg.iterations > 1);
}

#[test]
fn multicoil_3d_recon_and_sos() {
    let n = 12usize;
    let truth = phantom_3d(n);
    let traj = radial(2 * n, n * n, 7);
    let cfg = NufftConfig { threads: 2, w: 2.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let coils = synthetic_coils::<3>(n, 4);

    let mut data = Vec::new();
    let mut coil_imgs = Vec::new();
    for coil in &coils {
        let weighted: Vec<Complex32> = truth.iter().zip(coil).map(|(&x, &s)| x * s).collect();
        coil_imgs.push(weighted.clone());
        let mut y = vec![Complex32::ZERO; traj.len()];
        plan.forward(&weighted, &mut y);
        data.push(y);
    }
    // SoS of the per-coil truths reproduces |truth| (maps are normalized).
    let sos = sos_combine(&coil_imgs);
    for (s, t) in sos.iter().zip(&truth) {
        assert!((s - t.abs()).abs() < 1e-4);
    }

    let dcf = radial_dcf(&traj.points);
    let mut it = IterativeRecon::new(&mut plan, coils, dcf, 1e-4);
    let rep = it.reconstruct(&data, 12, 1e-9);
    // Radial data cannot recover the spectral corners: compare against the
    // ball-limited truth.
    let target = ball_limit(&truth, n);
    let e = rel_l2_c32(&rep.image, &target);
    assert!(e < 0.35, "multicoil recon error vs ball-limited target: {e}");
    // Against the raw truth the error must approach the sampling floor.
    let floor = rel_l2_c32(&target, &truth);
    let e_raw = rel_l2_c32(&rep.image, &truth);
    assert!(e_raw < floor * 1.2, "raw error {e_raw} vs floor {floor}");
}

/// The CG-SENSE solve runs on the Toeplitz normal operator, whose passes
/// are elementwise or per FFT line, so it is bitwise the same at every
/// worker count (`NUFFT_THREADS` adds one; the CI stress step runs 16).
/// Partitions are pinned and privatization is off so the plan's own
/// adjoint, which builds the right-hand side and the PSF, is too.
#[test]
fn multicoil_3d_solve_is_bitwise_stable_across_worker_counts() {
    let n = 10usize;
    let truth = phantom_3d(n);
    let traj = radial(2 * n, n * n, 7);
    let coils = synthetic_coils::<3>(n, 3);
    let base = NufftConfig {
        w: 2.0,
        partitions_per_dim: Some(3),
        privatization: false,
        ..NufftConfig::default()
    };
    let mut plan = NufftPlan::new([n; 3], &traj.points, NufftConfig { threads: 1, ..base });
    let data: Vec<Vec<Complex32>> = coils
        .iter()
        .map(|s| {
            let img: Vec<Complex32> = truth.iter().zip(s).map(|(&x, &s)| x * s).collect();
            let mut y = vec![Complex32::ZERO; traj.len()];
            plan.forward(&img, &mut y);
            y
        })
        .collect();
    let dcf = radial_dcf(&traj.points);
    let stress = std::env::var("NUFFT_THREADS").ok().and_then(|s| s.parse().ok());
    let mut want: Option<Vec<Complex32>> = None;
    for threads in [1usize, 3].into_iter().chain(stress) {
        let mut plan = NufftPlan::new([n; 3], &traj.points, NufftConfig { threads, ..base });
        let rep = IterativeRecon::new(&mut plan, coils.clone(), dcf.clone(), 1e-4)
            .reconstruct(&data, 6, 0.0);
        assert_eq!(rep.nufft_calls, 3 + 1, "3 adjoints for b, one for the PSF");
        let want = want.get_or_insert_with(|| rep.image.clone());
        for (i, (p, q)) in rep.image.iter().zip(want.iter()).enumerate() {
            assert!(
                p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
                "threads {threads}, voxel {i}: {p:?} vs {q:?}"
            );
        }
    }
}

#[test]
fn pipe_menon_weights_improve_gridding() {
    let n = 16usize;
    let truth = phantom_3d(n);
    let traj = radial(2 * n, n * n, 5);
    let cfg = NufftConfig { threads: 1, w: 3.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let mut y = vec![Complex32::ZERO; traj.len()];
    plan.forward(&truth, &mut y);

    let uniform = vec![1.0f32; traj.len()];
    let e_unweighted = rel_l2_c32(&gridding_recon(&mut plan, &y, &uniform), &truth);
    let w = pipe_menon(&mut plan, 8);
    // Normalize the gridding gain to compare fairly: scale output to best
    // match the truth (gridding has an arbitrary global factor per DCF).
    let img = gridding_recon(&mut plan, &y, &w);
    let num: f64 = img.iter().zip(&truth).map(|(&a, &b)| (a.to_f64().conj() * b.to_f64()).re).sum();
    let den: f64 = img.iter().map(|z| z.to_f64().norm_sqr()).sum();
    let alpha = (num / den.max(1e-30)) as f32;
    let scaled: Vec<Complex32> = img.iter().map(|&z| z.scale(alpha)).collect();
    let e_pm = rel_l2_c32(&scaled, &truth);
    assert!(
        e_pm < e_unweighted,
        "Pipe–Menon ({e_pm}) should beat unweighted gridding ({e_unweighted})"
    );
}
