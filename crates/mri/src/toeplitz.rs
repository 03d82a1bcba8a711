//! Toeplitz embedding of the multi-coil NUFFT normal operator — the normal
//! operator [`crate::recon::IterativeRecon`] runs.
//!
//! Inside CG only the composite `x ↦ Σ_c S_c† A† D A S_c x` is needed, and
//! `A†DA` is a (weighted) *convolution* with the point-spread function
//! `T[k] = Σ_p w_p·e^{+2πi ν_p·k}`, `k ∈ (−N, N)^D`. Embedding `T` in a
//! circulant on a `2N` grid turns every coil's share of a CG iteration into
//! one `2N`-FFT round trip and a pointwise multiply: no convolution
//! interpolation and no trajectory access after setup (Fessler et al.,
//! "Toeplitz-based iterative image reconstruction for MRI with correction
//! for magnetic field inhomogeneity", IEEE TSP 2005 — the fast path for
//! the iterative multichannel reconstructions the paper motivates).
//!
//! * **Setup** (once per trajectory and weights): one adjoint NUFFT of the
//!   weights on a `2N`-image plan over the caller's samples, then one full
//!   forward FFT of the shifted PSF. That plan's fine grid is `(2αN)^D`,
//!   `2^D` times the caller's, and lives only during the build.
//! * **Apply**, per coil: embed `S_c·x` in the `2N` pad, forward FFT, scale
//!   by the eigenvalues, backward FFT, accumulate `S_c*·(·)` from the pad's
//!   image block. Both FFTs run the zero-aware banded passes
//!   ([`FftOp::apply_banded`]) and every elementwise pass runs on the
//!   caller plan's worker pool; every buffer is operator-owned, so applies
//!   are allocation-free.
//!
//! The trajectory's work is done once and reused for every coil and every
//! iteration, and the operator is bitwise reproducible at any worker
//! count (every pass is elementwise or per FFT line).

use nufft_core::grid::{embed_slab_with, for_each_embed_run, Geometry};
use nufft_core::{Executor, FftOp, NufftConfig, NufftPlan, WindowMode};
use nufft_fft::shift::ifftshift;
use nufft_fft::Direction;
use nufft_math::Complex32;

/// Elements per chunk of the elementwise passes (32 KiB of pad).
const PASS_GRAIN: usize = 4096;
/// Complex elements per 64-byte cache line: chunk boundaries are rounded
/// to it, so two workers never write one line.
const LANE_ALIGN: usize = 64 / core::mem::size_of::<Complex32>();

/// The circulant-embedded multi-coil normal operator
/// `x ↦ Σ_c S_c† A† D A S_c x` of a [`NufftPlan`] and per-sample weights
/// `D`, applied with `2N`-grid FFTs on the plan's worker pool.
pub struct ToeplitzNormal<const D: usize> {
    /// Embedding geometry: image `N`, pad `2N` (the NUFFT grid's
    /// wrap-embed convention).
    geo: Geometry<D>,
    /// The caller plan's worker pool.
    exec: Executor,
    /// Banded FFT plan of the pad.
    fft: FftOp,
    /// Eigenvalues of the circulant on the pad (the DFT of the PSF, with
    /// the inverse transform's `1/len` folded in). The PSF is Hermitian
    /// for real weights, so they are real.
    eig: Vec<f32>,
    /// The `2N` pad, reused by every coil.
    pad: Vec<Complex32>,
}

impl<const D: usize> ToeplitzNormal<D> {
    /// Builds the normal operator of `plan` with per-sample `weights` (the
    /// DCF times any constant the caller folds in; all-ones gives plain
    /// `A†A`), in the plan's sample order.
    ///
    /// The PSF comes from one adjoint on a `2N`-image plan built on
    /// `plan`'s executor with `plan`'s configuration (so its kernel sets
    /// the PSF accuracy), on-the-fly windows, and `plan`'s grid
    /// coordinates rescaled to the larger grid. That plan and its
    /// `2^D`-times-larger fine grid are dropped before this returns.
    ///
    /// # Panics
    /// Panics if `weights.len() != plan.num_samples()`.
    pub fn new(plan: &NufftPlan<D>, weights: &[f32]) -> Self {
        assert_eq!(weights.len(), plan.num_samples(), "weights/trajectory length mismatch");
        let Geometry { n, m } = *plan.geometry();
        let cfg = *plan.config();
        let exec = plan.executor().clone();
        let n2: [usize; D] = core::array::from_fn(|d| 2 * n[d]);

        // PSF T[k], k ∈ [−N, N)^D: one adjoint of the weights on a 2N
        // image over the same samples (ν = u/M − 1/2 = u'/M' − 1/2).
        let mut t = {
            let m2 = Geometry::new(n2, cfg.alpha).m;
            let coords = plan
                .grid_coords()
                .into_iter()
                .map(|u| core::array::from_fn(|d| rescale(u[d], m[d], m2[d])))
                .collect();
            let psf_cfg = NufftConfig { window_mode: WindowMode::OnTheFly, ..cfg };
            let mut psf_plan =
                NufftPlan::from_grid_coords_shared(n2, coords, psf_cfg, exec.clone(), None);
            let w: Vec<Complex32> = weights.iter().map(|&w| Complex32::new(w, 0.0)).collect();
            let mut t = vec![Complex32::ZERO; n2.iter().product()];
            psf_plan.adjoint(&w, &mut t);
            t
        };

        // The adjoint returns T[k] at position k + N per dimension; rotating
        // by N puts T[0] at index 0 — the circulant kernel layout. Index N
        // (T[±N]) is never referenced by the block (|i − j| ≤ N − 1).
        ifftshift(&mut t, &n2);
        let mut fft =
            FftOp::plan_banded(&n2, &n, cfg.fft_strategy, cfg.fft_llc_budget, exec.threads());
        fft.apply(&exec, &mut t, Direction::Forward);
        let inv = 1.0 / t.len() as f32;
        let eig = t.iter().map(|z| z.re * inv).collect();
        // The PSF's buffer becomes the pad: every apply overwrites it whole.
        ToeplitzNormal { geo: Geometry { n, m: n2 }, exec, fft, eig, pad: t }
    }

    /// Image extents.
    pub fn image_extents(&self) -> [usize; D] {
        self.geo.n
    }

    /// Applies `out = Σ_c S_c† A† D A S_c x` over the sensitivity maps
    /// `coils` (empty: one uniform coil, `out = A†DA x`). Coils accumulate
    /// in order, so the output is bitwise the same at any worker count.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn apply(&mut self, coils: &[Vec<Complex32>], x: &[Complex32], out: &mut [Complex32]) {
        let img_len = self.geo.image_len();
        assert_eq!(x.len(), img_len, "input length mismatch");
        assert_eq!(out.len(), img_len, "output length mismatch");
        for (c, s) in coils.iter().enumerate() {
            assert_eq!(s.len(), img_len, "coil {c} map length mismatch");
        }
        let Self { geo, exec, fft, eig, pad } = self;
        for c in 0..coils.len().max(1) {
            let s = coils.get(c).map(Vec::as_slice);
            exec.parallel_chunks_mut(pad, PASS_GRAIN, LANE_ALIGN, |lo, slab| match s {
                Some(s) => embed_slab_with(geo, slab, lo, |f| s[f] * x[f]),
                None => embed_slab_with(geo, slab, lo, |f| x[f]),
            });
            fft.apply_banded(exec, pad, Direction::Forward);
            exec.parallel_chunks_mut(pad, PASS_GRAIN, LANE_ALIGN, |lo, chunk| {
                for (z, &e) in chunk.iter_mut().zip(&eig[lo..]) {
                    *z = z.scale(e);
                }
            });
            fft.apply_banded(exec, pad, Direction::Backward);
            let pad = &*pad;
            exec.parallel_chunks_mut(out, PASS_GRAIN, LANE_ALIGN, |lo, chunk| {
                for_each_embed_run(geo, lo, lo + chunk.len(), |i, g, len| {
                    let dst = &mut chunk[i - lo..][..len];
                    let src = &pad[g..][..len];
                    match s {
                        None => dst.copy_from_slice(src),
                        Some(s) => {
                            let s = &s[i..][..len];
                            for k in 0..len {
                                let v = s[k].conj() * src[k];
                                dst[k] = if c == 0 { v } else { dst[k] + v };
                            }
                        }
                    }
                });
            });
        }
    }
}

/// Grid coordinate `u ∈ [0, m)` on an `m2`-point grid (`ν = u/m − 1/2`
/// kept): exact when `m2 = 2m`, the α = 2 case.
fn rescale(u: f32, m: usize, m2: usize) -> f32 {
    let v = (u as f64 * m2 as f64 / m as f64) as f32;
    if v >= m2 as f32 {
        v - m2 as f32
    } else {
        v
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coils::synthetic_coils;
    use nufft_math::error::rel_l2_c32;

    fn traj<const D: usize>(count: usize) -> Vec<[f64; D]> {
        const STEP: [f64; 3] = [0.618_034, 0.414_214, 0.732_051];
        (0..count).map(|i| core::array::from_fn(|d| ((i as f64 * STEP[d]) % 1.0) - 0.5)).collect()
    }

    fn cfg(alpha: f64) -> NufftConfig {
        NufftConfig { threads: 2, w: 4.0, alpha, ..NufftConfig::default() }
    }

    fn signal(len: usize) -> Vec<Complex32> {
        (0..len).map(|i| Complex32::new((i as f32 * 0.2).sin(), (i as f32 * 0.1).cos())).collect()
    }

    /// The explicit normal operator through the plan, as a reference:
    /// `Σ_c S_c† A†(w ⊙ A S_c x)` (one uniform coil when `coils` is empty).
    pub(crate) fn explicit_normal<const D: usize>(
        plan: &mut NufftPlan<D>,
        coils: &[Vec<Complex32>],
        w: &[f32],
        x: &[Complex32],
    ) -> Vec<Complex32> {
        let (k, len) = (plan.num_samples(), plan.image_len());
        let mut out = vec![Complex32::ZERO; len];
        let (mut img, mut ksp, mut back) =
            (vec![Complex32::ZERO; len], vec![Complex32::ZERO; k], vec![Complex32::ZERO; len]);
        for c in 0..coils.len().max(1) {
            let s = |i: usize| coils.get(c).map_or(Complex32::ONE, |s| s[i]);
            for i in 0..len {
                img[i] = s(i) * x[i];
            }
            plan.forward(&img, &mut ksp);
            for (z, &wi) in ksp.iter_mut().zip(w) {
                *z = z.scale(wi);
            }
            plan.adjoint(&ksp, &mut back);
            for i in 0..len {
                out[i] += s(i).conj() * back[i];
            }
        }
        out
    }

    fn matches_explicit<const D: usize>(n: usize, samples: usize, coils: usize, alpha: f64) -> f64 {
        let traj = traj::<D>(samples);
        let weights: Vec<f32> = (0..samples).map(|i| 0.5 + (i % 7) as f32 * 0.2).collect();
        let maps = if coils == 0 { vec![] } else { synthetic_coils::<D>(n, coils) };
        let x = signal(n.pow(D as u32));
        let mut plan = NufftPlan::new([n; D], &traj, cfg(alpha));
        let want = explicit_normal(&mut plan, &maps, &weights, &x);
        let mut toep = ToeplitzNormal::new(&plan, &weights);
        let mut got = vec![Complex32::ZERO; x.len()];
        toep.apply(&maps, &x, &mut got);
        rel_l2_c32(&got, &want)
    }

    #[test]
    fn toeplitz_matches_explicit_normal_operator() {
        // 1 and 4 coils (0 = one uniform coil). At α = 2 the pad is the
        // caller's grid (2N = M); at α = 1.25 it is not (M = 1.25N), and
        // the PSF plan's coordinates are rescaled to its own grid.
        for (coils, alpha) in [(0, 2.0), (4, 2.0), (1, 1.25), (4, 1.25)] {
            let e2 = matches_explicit::<2>(16, 300, coils, alpha);
            assert!(e2 < 2e-3, "2D, {coils} coils, alpha {alpha}: {e2}");
            let e3 = matches_explicit::<3>(8, 600, coils, alpha);
            assert!(e3 < 2e-3, "3D, {coils} coils, alpha {alpha}: {e3}");
        }
    }

    #[test]
    fn grid_coordinates_rescale_to_the_same_frequencies() {
        // α = 2: the 2N plan's grid is exactly twice the caller's.
        assert_eq!(rescale(3.25, 32, 64), 6.5);
        // α = 1.25 on N = 13: M = 16, M' = round(32.5) = 33.
        let (m, m2) = (Geometry::new([13], 1.25).m[0], Geometry::new([26], 1.25).m[0]);
        assert_eq!((m, m2), (16, 33));
        let u = 5.5f32;
        let nu = u as f64 / m as f64 - 0.5;
        assert!((rescale(u, m, m2) as f64 / m2 as f64 - 0.5 - nu).abs() < 1e-7);
        assert!(rescale(15.999_999, m, m2) < m2 as f32);
    }

    #[test]
    fn toeplitz_is_hermitian_and_psd() {
        let n = 12usize;
        let traj = traj::<2>(200);
        let weights = vec![1.0f32; 200];
        let coils = synthetic_coils::<2>(n, 3);
        let plan = NufftPlan::new([n, n], &traj, cfg(2.0));
        let mut toep = ToeplitzNormal::new(&plan, &weights);
        let a: Vec<Complex32> = (0..144).map(|i| Complex32::new((i as f32).sin(), 0.3)).collect();
        let b: Vec<Complex32> =
            (0..144).map(|i| Complex32::new(0.2, (i as f32 * 0.7).cos())).collect();
        let mut ta = vec![Complex32::ZERO; 144];
        let mut tb = vec![Complex32::ZERO; 144];
        toep.apply(&coils, &a, &mut ta);
        toep.apply(&coils, &b, &mut tb);
        let dot = |x: &[Complex32], y: &[Complex32]| -> nufft_math::Complex64 {
            x.iter().zip(y).map(|(&p, &q)| p.to_f64().conj() * q.to_f64()).sum()
        };
        // Hermitian: ⟨Ta, b⟩ == ⟨a, Tb⟩.
        let lhs = dot(&ta, &b);
        let rhs = dot(&a, &tb);
        assert!((lhs - rhs).abs() / lhs.abs().max(1e-9) < 1e-3, "{lhs:?} vs {rhs:?}");
        // PSD: ⟨Ta, a⟩ ≥ 0 (it equals Σ_c ‖√w·A S_c a‖²).
        let quad = dot(&ta, &a);
        assert!(quad.re > 0.0 && quad.im.abs() < 1e-3 * quad.re);
    }

    #[test]
    fn toeplitz_cg_solves_like_plan_cg() {
        // CG with the Toeplitz operator lands where CG with the explicit
        // forward/adjoint pair does, and both recover the truth.
        use crate::cg::conjugate_gradient;
        let n = 12usize;
        let traj = traj::<2>(400);
        let weights = vec![1.0f32; 400];
        let coils = synthetic_coils::<2>(n, 2);
        let truth: Vec<Complex32> =
            (0..144).map(|i| Complex32::new((i % 13) as f32 * 0.1, 0.0)).collect();

        let mut plan = NufftPlan::new([n, n], &traj, cfg(2.0));
        let b = explicit_normal(&mut plan, &coils, &weights, &truth);
        let solve = |op: &mut dyn FnMut(&[Complex32], &mut [Complex32])| {
            let mut x = vec![Complex32::ZERO; 144];
            let report = conjugate_gradient(op, &b, &mut x, 1e-5, 40, 1e-9);
            assert!(report.iterations > 1);
            x
        };
        let mut toep = ToeplitzNormal::new(&plan, &weights);
        let x_toep = solve(&mut |inp, out| toep.apply(&coils, inp, out));
        let x_expl = solve(&mut |inp, out| {
            out.copy_from_slice(&explicit_normal(&mut plan, &coils, &weights, inp))
        });
        let err = rel_l2_c32(&x_toep, &truth);
        assert!(err < 0.05, "Toeplitz-CG recon error {err}");
        let gap = rel_l2_c32(&x_toep, &x_expl);
        assert!(gap < 1e-3, "Toeplitz-CG vs explicit-CG: {gap}");
    }
}
