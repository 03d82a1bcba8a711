//! Type-3 NUFFT (nonuniform → nonuniform), composed from the stage
//! operators.
//!
//! The type-3 transform evaluates
//!
//! ```text
//! f_k = Σ_j c_j · e^{-2πi s_k · x_j},        k = 0..K
//! ```
//!
//! for arbitrary real source positions `x_j` and target frequencies `s_k`
//! — neither side lives on a grid, so neither the type-1 nor the type-2
//! plan applies directly. Following the classic reduction (Lee & Greengard
//! 2005; FINUFFT's `t3` path), the transform factors through an
//! intermediate **fine grid** built entirely from existing stages:
//!
//! 1. **Spread** ([`SpreadOp`]): scatter the strengths onto a fine grid of
//!    extents `nf` with spacing `h_d = 1/(2·α·S_d)` chosen from the target
//!    bandwidth `S_d = max_k |s_{k,d}|`, at grid coordinates
//!    `u_j = x_j/h + nf/2`. The grid is sized so every kernel window fits
//!    without wrapping: `nf_d ≥ 2(X_d/h_d + W + 1)` with
//!    `X_d = max_j |x_{j,d}|`, rounded up to an FFT-fast length
//!    ([`nufft_fft::next_fast_len`]).
//! 2. **Inner type-2** ([`NufftPlan::forward`]): treat the fine grid as an
//!    image and evaluate its transform at the scaled frequencies
//!    `ν_k = s_k·h`. The spacing guarantees `|ν_k| ≤ 1/(2α) < 1/2`, i.e.
//!    the scaled targets always fit the inner plan's normalized band —
//!    this is where the FFT (including the four-step strategy) and the
//!    inner kernel's deconvolution happen.
//! 3. **Postscale**: divide out the *outer* spreading kernel,
//!    `f_k = t_k / Π_d Â(s_{k,d}·h_d)`. With the plan's centered
//!    convention (`phase = ν·(u − nf/2)`), `u_j − nf/2 = x_j/h` exactly,
//!    so the correction is purely real — no residual phase ramp.
//!
//! The adjoint runs the exact transpose: postscale, inner adjoint, then
//! **interp** ([`InterpOp`]) at the source coordinates — so
//! `⟨forward(c), f⟩ == ⟨c, adjoint(f)⟩` to rounding, and both directions
//! inherit the stages' bitwise determinism across thread counts.
//!
//! Accuracy: two kernels are traversed (outer spread + the inner plan's),
//! so the error budget is a small constant multiple of a single-transform
//! budget at the same `(W, σ)` — calibrated in `tests/type3_accuracy.rs`
//! against the direct `f64` DTFT oracle.
//!
//! ```
//! use nufft_core::{NufftConfig, NufftPlan};
//! use nufft_math::Complex32;
//!
//! // 60 sources at arbitrary positions, 40 arbitrary target frequencies.
//! let sources: Vec<[f64; 1]> = (0..60).map(|j| [(j as f64 * 0.37).sin() * 3.0]).collect();
//! let targets: Vec<[f64; 1]> = (0..40).map(|k| [(k as f64 * 0.59).cos() * 2.5]).collect();
//! let cfg = NufftConfig { threads: 2, w: 3.0, ..NufftConfig::default() };
//! let mut plan = NufftPlan::type3(&sources, &targets, cfg);
//!
//! let strengths = vec![Complex32::ONE; sources.len()];
//! let mut spectrum = vec![Complex32::ZERO; targets.len()];
//! plan.forward(&strengths, &mut spectrum);
//! ```

use crate::plan::{NufftConfig, NufftPlan};
use crate::stage::{InterpOp, SpreadOp};
use nufft_math::Complex32;
use nufft_parallel::exec::{Executor, JobPriority};

/// A planned type-3 transform: `num_sources` arbitrary positions →
/// `num_targets` arbitrary frequencies.
///
/// All intermediate buffers (fine grid, staged target values) are owned by
/// the plan, so repeated [`Type3Plan::forward`] / [`Type3Plan::adjoint`]
/// applies are allocation-free once warm — pinned by
/// `tests/alloc_steady_state.rs`.
pub struct Type3Plan<const D: usize> {
    cfg: NufftConfig,
    exec: Executor,
    /// Outer scatter of source strengths onto the fine grid.
    spread: SpreadOp<D>,
    /// Adjoint-side gather at the source coordinates (shares the spread's
    /// preprocessing and window table).
    interp: InterpOp<D>,
    /// Inner type-2 plan over the fine grid at the scaled targets.
    inner: NufftPlan<D>,
    /// The fine grid (the inner plan's "image").
    fine: Vec<Complex32>,
    /// Staging for postscaled target values on the adjoint path.
    stage_k: Vec<Complex32>,
    /// `1 / Π_d Â(s_{k,d}·h_d)` — the outer kernel's deconvolution,
    /// purely real (see module docs).
    postscale: Vec<f32>,
    /// Fine-grid extents per dimension.
    nf: [usize; D],
    /// Fine-grid spacing per dimension (source units per grid cell).
    h: [f64; D],
}

impl<const D: usize> NufftPlan<D> {
    /// Plans a type-3 transform `f_k = Σ_j c_j·e^{-2πi s_k·x_j}` from
    /// `sources` positions to `targets` frequencies (both in arbitrary
    /// real units — unlike [`NufftPlan::new`], nothing is normalized).
    ///
    /// # Panics
    /// See [`Type3Plan::new`].
    pub fn type3(sources: &[[f64; D]], targets: &[[f64; D]], cfg: NufftConfig) -> Type3Plan<D> {
        Type3Plan::new(sources, targets, cfg)
    }
}

impl<const D: usize> Type3Plan<D> {
    /// Plans a type-3 transform on a fresh executor of `cfg.threads`
    /// workers.
    ///
    /// # Panics
    /// Panics if `sources` or `targets` is empty, `cfg.alpha ≤ 1` (the
    /// scaled targets would not fit the inner plan's band), or any
    /// [`NufftPlan::new`] precondition fails for the derived fine grid.
    pub fn new(sources: &[[f64; D]], targets: &[[f64; D]], cfg: NufftConfig) -> Self {
        let exec = Executor::new(cfg.threads.max(1));
        Self::new_shared(sources, targets, cfg, exec)
    }

    /// Tolerance-driven type-3 planning: [`Type3Plan::new`] with the
    /// kernel family and its parameters derived from the requested
    /// relative accuracy (the ES kernel by default — see
    /// [`NufftConfig::with_tolerance`]) and every other knob at its
    /// default.
    ///
    /// # Panics
    /// See [`Type3Plan::new`]; additionally panics unless `0 < eps < 1`.
    pub fn with_tolerance(sources: &[[f64; D]], targets: &[[f64; D]], eps: f64) -> Self {
        Self::new(sources, targets, NufftConfig::tolerance(eps))
    }

    /// [`Type3Plan::new`] on a caller-supplied executor (the registry's
    /// shared-pool path). `cfg.threads` is normalized to the executor's
    /// worker count.
    pub fn new_shared(
        sources: &[[f64; D]],
        targets: &[[f64; D]],
        mut cfg: NufftConfig,
        exec: Executor,
    ) -> Self {
        assert!(D >= 1 && D <= 3, "type-3 supports 1–3 dimensions");
        assert!(!sources.is_empty(), "type-3 requires at least one source");
        assert!(!targets.is_empty(), "type-3 requires at least one target");
        assert!(cfg.alpha > 1.0, "type-3 requires oversampling alpha > 1 (got {})", cfg.alpha);
        cfg.threads = exec.threads();

        // Geometry: spacing from the target bandwidth, extents from the
        // source spread plus a no-wrap kernel margin (module docs).
        let w = cfg.w;
        let wc = w.ceil() as usize;
        let mut nf = [0usize; D];
        let mut h = [0f64; D];
        for d in 0..D {
            let s_max = targets.iter().map(|s| s[d].abs()).fold(0.0f64, f64::max);
            let x_max = sources.iter().map(|x| x[d].abs()).fold(0.0f64, f64::max);
            h[d] = if s_max > 0.0 { 1.0 / (2.0 * cfg.alpha * s_max) } else { 1.0 };
            // +1 beyond the two-sided margin so the floor-centering below
            // stays interior even when `next_fast_len` lands on an odd
            // extent (`⌊nf/2⌋` sits half a cell left of center).
            let min_nf =
                ((2.0 * (x_max / h[d] + w + 1.0)).ceil() as usize + 1).max(2 * (wc + 1) + 1);
            nf[d] = nufft_fft::next_fast_len(min_nf);
        }

        // Outer spread at fine-grid coordinates u_j = x_j/h + ⌊nf/2⌋; the
        // margin keeps every window interior (no wraparound ever fires).
        // The center MUST be the integer ⌊nf/2⌋ — the plan's phase
        // convention is `ν·(u − ⌊nf/2⌋)` — or odd extents pick up a
        // half-cell phase ramp.
        let coords: Vec<[f32; D]> = sources
            .iter()
            .map(|x| core::array::from_fn(|d| (x[d] / h[d] + (nf[d] / 2) as f64) as f32))
            .collect();
        let mut spread = SpreadOp::plan(nf, coords, &cfg, &exec);
        let interp = InterpOp::from_spread(&spread);
        spread.ensure_priv_channels(1);

        // Inner type-2 over the fine grid at the scaled targets
        // ν_k = s_k·h ∈ [-1/(2α), 1/(2α)] ⊂ [-1/2, 1/2).
        let traj_inner: Vec<[f64; D]> =
            targets.iter().map(|s| core::array::from_fn(|d| s[d] * h[d])).collect();
        let inner = NufftPlan::new_shared(nf, &traj_inner, cfg, exec.clone(), None);

        // Outer-kernel deconvolution at the targets, in cycles per fine
        // grid cell — real because the centered phase cancels exactly.
        let postscale: Vec<f32> = targets
            .iter()
            .map(|s| {
                let mut p = 1.0f64;
                for d in 0..D {
                    p *= spread.kernel.fourier(s[d] * h[d]);
                }
                (1.0 / p) as f32
            })
            .collect();

        let fine = vec![Complex32::ZERO; spread.grid_len()];
        let stage_k = vec![Complex32::ZERO; targets.len()];
        Type3Plan { cfg, exec, spread, interp, inner, fine, stage_k, postscale, nf, h }
    }

    /// Number of source points `x_j` (the forward input length).
    pub fn num_sources(&self) -> usize {
        self.spread.num_samples()
    }

    /// Number of target frequencies `s_k` (the forward output length).
    pub fn num_targets(&self) -> usize {
        self.postscale.len()
    }

    /// Intermediate fine-grid extents (diagnostics and memory estimates —
    /// the inner plan oversamples this once more by `α`).
    pub fn fine_extents(&self) -> [usize; D] {
        self.nf
    }

    /// Fine-grid spacing per dimension, in source units per grid cell.
    pub fn fine_spacing(&self) -> [f64; D] {
        self.h
    }

    /// Sets the fair-share admission priority for every stage's dispatches
    /// on a shared pool.
    pub fn set_admission_priority(&mut self, priority: JobPriority) {
        self.cfg.admission = priority;
        self.inner.set_admission_priority(priority);
    }

    /// Forward type-3: `out[k] = Σ_j strengths[j]·e^{-2πi s_k·x_j}`
    /// (approximation; see module docs for the error budget).
    /// Bitwise-deterministic at any thread count.
    ///
    /// # Panics
    /// Panics if `strengths.len() != num_sources()` or
    /// `out.len() != num_targets()`.
    pub fn forward(&mut self, strengths: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(strengths.len(), self.num_sources(), "strengths length mismatch");
        assert_eq!(out.len(), self.num_targets(), "output length mismatch");
        self.spread.apply(&self.exec, self.cfg.admission, strengths, &mut self.fine);
        self.inner.forward(&self.fine, out);
        for (o, &p) in out.iter_mut().zip(&self.postscale) {
            o.re *= p;
            o.im *= p;
        }
    }

    /// Adjoint type-3: `out[j] = Σ_k samples[k]·e^{+2πi s_k·x_j}` — the
    /// exact conjugate transpose of [`Type3Plan::forward`] (postscale,
    /// inner adjoint, gather at the sources).
    ///
    /// # Panics
    /// Panics if `samples.len() != num_targets()` or
    /// `out.len() != num_sources()`.
    pub fn adjoint(&mut self, samples: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(samples.len(), self.num_targets(), "samples length mismatch");
        assert_eq!(out.len(), self.num_sources(), "output length mismatch");
        for ((t, &s), &p) in self.stage_k.iter_mut().zip(samples).zip(&self.postscale) {
            *t = Complex32::new(s.re * p, s.im * p);
        }
        self.inner.adjoint(&self.stage_k, &mut self.fine);
        self.interp.apply(&self.exec, &self.fine, out);
    }
}
