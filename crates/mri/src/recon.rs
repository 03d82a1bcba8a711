//! Non-Cartesian reconstructions.
//!
//! * [`gridding_recon`] — the fast, non-iterative baseline the paper's
//!   intro contrasts against: density-compensate, one adjoint NUFFT,
//!   normalize. One NUFFT application total.
//! * [`IterativeRecon`] — CG-SENSE: solves
//!   `(Σ_c S_c† A† D A S_c + λI) x = Σ_c S_c† A† D y_c`
//!   with [`conjugate_gradient`]. The right-hand side is one batched
//!   adjoint over the coils; the normal operator is the
//!   [`ToeplitzNormal`] convolution, one `2N`-grid FFT round trip per coil
//!   per CG iteration with no gridding. This is the workload whose runtime
//!   the paper's speedups unlock ("iterative multichannel reconstruction …
//!   in just over 3 minutes").

use crate::cg::{conjugate_gradient, CgReport};
use crate::toeplitz::ToeplitzNormal;
use nufft_core::{NufftPlan, WindowMode};
use nufft_math::Complex32;

/// Window-table budget for iterative reconstruction: the plan is applied
/// again for every solve's right-hand side and by callers that interleave
/// solves with their own applies, so precomputing Part 1 pays for itself —
/// but stay on the fly past this table size (256 MiB) rather than blow the
/// cache/memory budget on huge 3D trajectories.
const RECON_WINDOW_BUDGET: usize = 256 << 20;

/// Density-compensated gridding (adjoint) reconstruction.
///
/// `dcf` weights each k-space sample; the output is normalized by the total
/// grid gain `Π M_d` so intensities are comparable to the source image.
pub fn gridding_recon<const D: usize>(
    plan: &mut NufftPlan<D>,
    kspace: &[Complex32],
    dcf: &[f32],
) -> Vec<Complex32> {
    assert_eq!(kspace.len(), dcf.len(), "kspace/dcf length mismatch");
    let weighted: Vec<Complex32> = kspace.iter().zip(dcf).map(|(&y, &w)| y.scale(w)).collect();
    let mut image = vec![Complex32::ZERO; plan.image_len()];
    plan.adjoint(&weighted, &mut image);
    let gain = 1.0 / plan.geometry().grid_len() as f32;
    for z in &mut image {
        *z *= gain;
    }
    image
}

/// Result of an iterative reconstruction.
#[derive(Clone, Debug)]
pub struct ReconReport {
    /// The reconstructed image.
    pub image: Vec<Complex32>,
    /// CG convergence data.
    pub cg: CgReport,
    /// NUFFT applies this call made, counting each channel of a batched
    /// apply: `C` adjoints for the right-hand side, plus one for the PSF
    /// on the call that builds the normal operator. CG itself makes none.
    pub nufft_calls: usize,
}

/// CG-SENSE iterative reconstruction over one shared trajectory.
pub struct IterativeRecon<'a, const D: usize> {
    plan: &'a mut NufftPlan<D>,
    /// Per-coil sensitivity maps (empty ⇒ single uniform coil).
    coils: Vec<Vec<Complex32>>,
    /// Per-sample density weights applied inside the normal operator.
    dcf: Vec<f32>,
    /// Tikhonov weight λ.
    pub lambda: f32,
    /// The normal operator, built by the first [`IterativeRecon::reconstruct`]
    /// and reused by later ones.
    normal: Option<ToeplitzNormal<D>>,
}

impl<'a, const D: usize> IterativeRecon<'a, D> {
    /// Creates a reconstructor. Pass an empty `coils` vector for
    /// single-channel; `dcf` may be all-ones.
    pub fn new(
        plan: &'a mut NufftPlan<D>,
        coils: Vec<Vec<Complex32>>,
        dcf: Vec<f32>,
        lambda: f32,
    ) -> Self {
        let k = plan.num_samples();
        assert_eq!(dcf.len(), k, "dcf length mismatch");
        for (c, m) in coils.iter().enumerate() {
            assert_eq!(m.len(), plan.image_len(), "coil {c} map length mismatch");
        }
        // Callers keep applying the plan around the solves: amortize Part 1
        // with a precomputed window table when it fits the budget.
        // Bitwise-neutral — only apply time changes (see `nufft-core`'s
        // window-mode equality tests).
        if plan.window_mode() == WindowMode::OnTheFly {
            plan.set_window_mode(WindowMode::Auto(RECON_WINDOW_BUDGET));
        }
        IterativeRecon { plan, coils, dcf, lambda, normal: None }
    }

    /// Number of channels (1 when no coil maps were provided).
    pub fn num_coils(&self) -> usize {
        self.coils.len().max(1)
    }

    /// Reconstructs from per-coil k-space data (`data.len()` must equal
    /// [`IterativeRecon::num_coils`]). The operator is normalized by the
    /// plan's grid gain `1/Π M_d`, so λ is scale-free-ish.
    pub fn reconstruct(
        &mut self,
        data: &[Vec<Complex32>],
        max_iters: usize,
        tol: f64,
    ) -> ReconReport {
        let nc = self.num_coils();
        assert_eq!(data.len(), nc, "expected {nc} coils of data");
        let k = self.plan.num_samples();
        let img_len = self.plan.image_len();
        for (c, y) in data.iter().enumerate() {
            assert_eq!(y.len(), k, "coil {c} data length mismatch");
        }
        let gain = 1.0 / self.plan.geometry().grid_len() as f32;

        // b = Σ_c S_c† A† D y_c, one batched adjoint over the coils (each
        // channel is bitwise the single adjoint).
        let mut b = vec![Complex32::ZERO; img_len];
        {
            let weighted: Vec<Vec<Complex32>> = data
                .iter()
                .map(|y| y.iter().zip(&self.dcf).map(|(&y, &w)| y.scale(w)).collect())
                .collect();
            let mut imgs = vec![vec![Complex32::ZERO; img_len]; nc];
            let w_refs: Vec<&[Complex32]> = weighted.iter().map(Vec::as_slice).collect();
            let mut img_refs: Vec<&mut [Complex32]> =
                imgs.iter_mut().map(Vec::as_mut_slice).collect();
            self.plan.adjoint_batch(&w_refs, &mut img_refs);
            for (c, img) in imgs.iter().enumerate() {
                for i in 0..img_len {
                    let s = if self.coils.is_empty() {
                        Complex32::ONE
                    } else {
                        self.coils[c][i].conj()
                    };
                    b[i] += (s * img[i]).scale(gain);
                }
            }
        }
        let mut nufft_calls = nc;

        if self.normal.is_none() {
            let weights: Vec<f32> = self.dcf.iter().map(|&w| w * gain).collect();
            self.normal = Some(ToeplitzNormal::new(self.plan, &weights));
            nufft_calls += 1;
        }
        let normal = self.normal.as_mut().expect("normal operator built above");
        let coils = &self.coils;
        let mut x = vec![Complex32::ZERO; img_len];
        let report = conjugate_gradient(
            |input: &[Complex32], out: &mut [Complex32]| normal.apply(coils, input, out),
            &b,
            &mut x,
            self.lambda,
            max_iters,
            tol,
        );
        ReconReport { image: x, cg: report, nufft_calls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coils::synthetic_coils;
    use crate::dcf::radial_dcf;
    use crate::phantom::phantom_2d;
    use nufft_core::NufftConfig;
    use nufft_math::error::rel_l2_c32;

    /// Radial-ish 2D trajectory (center-dense like real acquisitions).
    fn radial2(spokes: usize, per: usize) -> Vec<[f64; 2]> {
        let mut t = Vec::with_capacity(spokes * per);
        for s in 0..spokes {
            let ang = core::f64::consts::PI * s as f64 / spokes as f64;
            for j in 0..per {
                let r = (j as f64 + 0.5) / per as f64 - 0.5;
                t.push([(r * ang.cos()).clamp(-0.5, 0.4999), (r * ang.sin()).clamp(-0.5, 0.4999)]);
            }
        }
        t
    }

    fn cfg() -> NufftConfig {
        NufftConfig { threads: 2, w: 3.0, ..NufftConfig::default() }
    }

    /// Quasi-random trajectory covering the whole square band (radial
    /// leaves the spectral corners unsampled, which caps any solver's
    /// accuracy on a sharp phantom).
    fn fullband2(count: usize) -> Vec<[f64; 2]> {
        (0..count)
            .map(|i| {
                [
                    ((i as f64 + 1.0) * 0.618_033_988_749_894_9) % 1.0 - 0.5,
                    ((i as f64 + 1.0) * 0.414_213_562_373_095) % 1.0 - 0.5,
                ]
            })
            .collect()
    }

    #[test]
    fn iterative_beats_gridding_single_coil() {
        let n = 24usize;
        let truth = phantom_2d(n);
        let traj = fullband2(2 * n * n); // 2x oversampled, full band
        let mut plan = NufftPlan::new([n, n], &traj, cfg());

        // Simulate data with the forward model.
        let mut y = vec![Complex32::ZERO; traj.len()];
        plan.forward(&truth, &mut y);

        let dcf = vec![1.0f32; traj.len()]; // near-uniform density
        let grid_img = gridding_recon(&mut plan, &y, &dcf);

        let mut it = IterativeRecon::new(&mut plan, vec![], dcf.clone(), 1e-5);
        let rep = it.reconstruct(&[y.clone()], 30, 1e-10);

        let e_grid = rel_l2_c32(&grid_img, &truth);
        let e_iter = rel_l2_c32(&rep.image, &truth);
        assert!(e_iter < 0.5 * e_grid, "iterative ({e_iter}) should beat gridding ({e_grid})");
        assert!(e_iter < 0.05, "iterative recon too inaccurate: {e_iter}");
        // One adjoint for b and one for the PSF: CG runs on the Toeplitz
        // operator, which makes no NUFFT applies.
        assert_eq!(rep.nufft_calls, 2);
    }

    #[test]
    fn multichannel_recovers_phantom() {
        let n = 16usize;
        let truth = phantom_2d(n);
        let traj = radial2(32, 32);
        let mut plan = NufftPlan::new([n, n], &traj, cfg());
        let coils = synthetic_coils::<2>(n, 4);

        // Simulate per-coil data.
        let mut data = Vec::new();
        for c in 0..4 {
            let weighted: Vec<Complex32> =
                truth.iter().zip(&coils[c]).map(|(&x, &s)| x * s).collect();
            let mut y = vec![Complex32::ZERO; traj.len()];
            plan.forward(&weighted, &mut y);
            data.push(y);
        }

        let dcf = radial_dcf(&traj);
        let mut it = IterativeRecon::new(&mut plan, coils, dcf, 1e-4);
        assert_eq!(it.num_coils(), 4);
        let rep = it.reconstruct(&data, 20, 1e-8);
        let e = rel_l2_c32(&rep.image, &truth);
        assert!(e < 0.1, "multichannel recon error {e}");
    }

    /// Multi-coil radial problem, its data simulated on a 1-worker plan.
    struct Sense {
        traj: Vec<[f64; 2]>,
        coils: Vec<Vec<Complex32>>,
        dcf: Vec<f32>,
        data: Vec<Vec<Complex32>>,
    }

    fn sense_problem(n: usize) -> Sense {
        let truth = phantom_2d(n);
        let traj = radial2(32, 32);
        let coils = synthetic_coils::<2>(n, 4);
        let mut plan = NufftPlan::new([n, n], &traj, NufftConfig { threads: 1, ..cfg() });
        let data = coils
            .iter()
            .map(|s| {
                let img: Vec<Complex32> = truth.iter().zip(s).map(|(&x, &s)| x * s).collect();
                let mut y = vec![Complex32::ZERO; traj.len()];
                plan.forward(&img, &mut y);
                y
            })
            .collect();
        let dcf = radial_dcf(&traj);
        Sense { traj, coils, dcf, data }
    }

    #[test]
    fn solve_matches_explicit_operator_cg() {
        // The same CG-SENSE system with the explicit Σ_c S_c† A† D A S_c as
        // the normal operator.
        use crate::toeplitz::tests::explicit_normal;
        let n = 16usize;
        let Sense { traj, coils, dcf, data } = sense_problem(n);
        let mut plan = NufftPlan::new([n, n], &traj, cfg());
        let rep = IterativeRecon::new(&mut plan, coils.clone(), dcf.clone(), 1e-4)
            .reconstruct(&data, 8, 0.0);

        let gain = 1.0 / plan.geometry().grid_len() as f32;
        let len = n * n;
        let mut b = vec![Complex32::ZERO; len];
        let mut tmp = vec![Complex32::ZERO; len];
        for (s, y) in coils.iter().zip(&data) {
            let w: Vec<Complex32> = y.iter().zip(&dcf).map(|(&y, &w)| y.scale(w)).collect();
            plan.adjoint(&w, &mut tmp);
            for i in 0..len {
                b[i] += (s[i].conj() * tmp[i]).scale(gain);
            }
        }
        let mut x = vec![Complex32::ZERO; len];
        conjugate_gradient(
            |inp: &[Complex32], out: &mut [Complex32]| {
                let v = explicit_normal(&mut plan, &coils, &dcf, inp);
                for (o, z) in out.iter_mut().zip(v) {
                    *o = z.scale(gain);
                }
            },
            &b,
            &mut x,
            1e-4,
            8,
            0.0,
        );
        let gap = rel_l2_c32(&rep.image, &x);
        assert!(gap < 2e-3, "Toeplitz solve vs explicit-operator solve: {gap}");
        assert_eq!(rep.nufft_calls, 4 + 1, "4 adjoints for b, one for the PSF");
    }

    #[test]
    fn solves_are_bitwise_reproducible_across_solves_and_workers() {
        // Pinned partitions and no privatization, so that only the schedule
        // varies with the worker count: Eq. 6 sizes the privatized set by
        // the worker count, and a privatized task sums its halo cells in
        // another order, so with privatization on the plan's own adjoint
        // is not bitwise stable across worker counts on this problem.
        // `NUFFT_THREADS` adds an oversubscribed worker count (the CI
        // stress step runs 16).
        let stress = std::env::var("NUFFT_THREADS").ok().and_then(|s| s.parse().ok());
        let n = 16usize;
        let Sense { traj, coils, dcf, data } = sense_problem(n);
        let mut want: Option<Vec<Complex32>> = None;
        for threads in [1usize, 2, 4].into_iter().chain(stress) {
            let cfg =
                NufftConfig { threads, partitions_per_dim: Some(4), privatization: false, ..cfg() };
            let mut plan = NufftPlan::new([n, n], &traj, cfg);
            for _ in 0..2 {
                let mut it = IterativeRecon::new(&mut plan, coils.clone(), dcf.clone(), 1e-4);
                let first = it.reconstruct(&data, 6, 0.0);
                // The second solve reuses the first one's PSF.
                let again = it.reconstruct(&data, 6, 0.0);
                assert_eq!(again.nufft_calls, 4);
                let want = want.get_or_insert_with(|| first.image.clone());
                for img in [&first.image, &again.image] {
                    for (i, (p, q)) in img.iter().zip(want.iter()).enumerate() {
                        assert!(
                            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
                            "threads {threads}, pixel {i}: {p:?} vs {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cg_residuals_shrink() {
        let n = 12usize;
        let truth = phantom_2d(n);
        let traj = radial2(24, 24);
        let mut plan = NufftPlan::new([n, n], &traj, cfg());
        let mut y = vec![Complex32::ZERO; traj.len()];
        plan.forward(&truth, &mut y);
        let dcf = vec![1.0f32; traj.len()];
        let mut it = IterativeRecon::new(&mut plan, vec![], dcf, 1e-3);
        let rep = it.reconstruct(&[y], 10, 1e-12);
        let res = &rep.cg.residuals;
        assert!(res.len() >= 3);
        assert!(res.last().unwrap() < &res[0]);
    }
}
