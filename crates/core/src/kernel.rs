//! Interpolation kernels: the plan's kernel layer (§II-B).
//!
//! A kernel *family* plugs into the rest of the stack through three
//! capabilities, all owned by [`InterpKernel`]:
//!
//! 1. **point evaluation** — `eval_exact` (reference `f64`) and the Part 1
//!    row evaluator [`InterpKernel::eval_row`] the convolution drivers call;
//! 2. **a continuous Fourier transform** — [`InterpKernel::fourier`], which
//!    the roll-off correction ([`crate::scale`]) and the type-3 postscale
//!    divide by. Closed form where one exists; otherwise tabulated by
//!    Gauss–Legendre quadrature at kernel build (the FINUFFT approach);
//! 3. **an optional fast-eval path** — a fitted piecewise-polynomial Horner
//!    table evaluated by the SIMD sweep in `nufft_simd::horner`, replacing
//!    the LUT when the family provides a fit.
//!
//! Three families are built in:
//!
//! * **Kaiser–Bessel** — the paper's workhorse,
//!   `I(x) = I₀(β·√(1 − (x/W)²)) / I₀(β)` with Beatty's minimal-oversampling
//!   β and the closed-form transform
//!   `Â(ξ) = (2W/I₀(β)) · sinhc(√(β² − (2πWξ)²))`. Evaluated by LUT with
//!   linear interpolation (the Dale et al. optimization).
//! * **Gaussian** — Greengard & Lee's classical kernel `e^{−x²/(4τ)}`,
//!   simpler but measurably less accurate at equal width.
//! * **Exponential of semicircle (ES)** — FINUFFT's kernel
//!   `φ(x) = e^{β(√(1 − (x/W)²) − 1)}`, numerically indistinguishable from
//!   KB at equal width but *cheap*: it needs no Bessel function, and because
//!   every tap of a window shares one fractional offset it admits a
//!   piecewise-polynomial fit (one polynomial per integer tap offset,
//!   Chebyshev-interpolated at build) evaluated by a lane-parallel FMA
//!   Horner sweep. Its transform has no closed form, so `fourier` sums a
//!   prebuilt Gauss–Legendre rule with the kernel values folded into the
//!   weights.
//!
//! The LUT error at the default density is below the convolution's own
//! single-precision round-off for the default widths; tolerance-driven
//! planning ([`crate::plan::NufftConfig::with_tolerance`]) raises the
//! density when a tighter budget demands it — or sidesteps the issue
//! entirely by picking the ES family's near-exact Horner path.

use nufft_math::bessel::bessel_i0;
use nufft_math::quad::gauss_legendre_on;
use nufft_math::special::kb_ft_shape;

/// Default LUT samples per unit of kernel argument.
pub const DEFAULT_LUT_DENSITY: usize = 512;

/// Gauss–Legendre nodes for tabulated kernel transforms: enough for the
/// oscillation range the deconvolution ever queries (`|2πξW| ≲ 40`), with
/// geometric-convergence headroom for the smooth part of the integrand.
const FT_QUAD_NODES: usize = 80;

/// Which kernel family a plan interpolates with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Kaiser–Bessel with Beatty's β — the paper's kernel (default).
    KaiserBessel,
    /// Truncated Gaussian with the Greengard–Lee spreading parameter.
    Gaussian,
    /// FINUFFT's "exponential of semicircle" kernel with the β(W, σ) rule
    /// from Barnett et al., evaluated by the piecewise-polynomial Horner
    /// fast path whenever the width `2W` is a whole number of grid cells.
    EsKernel,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    KaiserBessel { beta: f64, inv_i0_beta: f64 },
    Gaussian { tau: f64 },
    Es { beta: f64 },
}

/// Fitted piecewise polynomials for the Horner fast-eval path: one
/// polynomial per integer tap offset, in the shared window argument
/// `z = 2(u − x1 − (W−1)) − 1 ∈ (−1, 1]`. Coefficient-major layout (row
/// `r` holds every piece's coefficient of `z^(rows−1−r)`, `stride` wide) —
/// exactly what [`nufft_simd::horner_row`] streams.
#[derive(Clone, Debug)]
struct HornerTable {
    /// Coefficients per piece (degree + 1).
    rows: usize,
    /// Row stride: piece count rounded up to a full 8-float vector.
    stride: usize,
    coeffs: Vec<f32>,
}

/// Gauss–Legendre tabulation of a kernel transform with no closed form:
/// `Â(ξ) = 2·Σ_j weighted[j]·cos(2πξ·node[j])` over nodes on `[0, W]`
/// (the kernel is even), with the kernel values pre-folded into the
/// weights at build.
#[derive(Clone, Debug)]
struct FtQuad {
    /// `(x_j, w_j·φ(x_j))` pairs.
    nodes: Vec<(f64, f64)>,
}

/// A prepared interpolation kernel: shape parameters plus the evaluation
/// tables (LUT always; Horner fit and transform quadrature per family).
#[derive(Clone, Debug)]
pub struct InterpKernel {
    /// Kernel radius in oversampled grid units (the paper's `W`).
    w: f64,
    shape: Shape,
    /// Table of kernel values at `x = i / density`.
    lut: Vec<f32>,
    /// Samples per unit argument.
    density: f64,
    /// Fast-eval fit (ES kernels with integral width `2W`).
    horner: Option<HornerTable>,
    /// Tabulated continuous transform (families without a closed form).
    ft_quad: Option<FtQuad>,
}

/// Beatty et al.'s β for kernel width `2W` (grid units) at oversampling `α`:
/// `β = π·√((2W/α)²·(α − 1/2)² − 0.8)`.
///
/// # Panics
/// Panics if `w ≤ 0`, `α ≤ 1`, or the `(W, α)` pair is degenerate — i.e.
/// `(2W/α)²·(α − 1/2)² ≤ 0.8`, where the formula's discriminant vanishes
/// and the window would silently collapse to a boxcar (β = 0). Widen the
/// kernel or raise the oversampling instead.
pub fn beatty_beta(w: f64, alpha: f64) -> f64 {
    assert!(w > 0.0, "kernel radius must be positive");
    assert!(alpha > 1.0, "oversampling factor must exceed 1");
    let kw = 2.0 * w;
    let t = (kw / alpha) * (alpha - 0.5);
    let disc = t * t - 0.8;
    assert!(
        disc > 0.0,
        "degenerate Kaiser–Bessel parameters (W={w}, α={alpha}): \
         (2W/α)²·(α−1/2)² = {:.4} ≤ 0.8, so β would be 0 and the window \
         degenerates to a boxcar; increase W or α",
        t * t
    );
    core::f64::consts::PI * disc.sqrt()
}

/// Greengard–Lee's Gaussian spreading parameter, converted to oversampled
/// grid units: `τ = W·α / (4π·(α − 1/2))` — equalizes the truncation and
/// aliasing error exponents.
pub fn greengard_lee_tau(w: f64, alpha: f64) -> f64 {
    assert!(w > 0.0, "kernel radius must be positive");
    assert!(alpha > 1.0, "oversampling factor must exceed 1");
    w * alpha / (4.0 * core::f64::consts::PI * (alpha - 0.5))
}

/// The FINUFFT β rule for the ES kernel at width `ns = 2W` and
/// oversampling σ = α: `β = c·ns` with `c = 2.30` at σ = 2 (empirically
/// tweaked to 2.20/2.26/2.38 for ns = 2/3/4) and
/// `c = 0.97·π·(1 − 1/(2σ))` for other oversampling factors.
///
/// # Panics
/// Panics if `w ≤ 0` or `alpha ≤ 1`.
pub fn es_beta(w: f64, alpha: f64) -> f64 {
    assert!(w > 0.0, "kernel radius must be positive");
    assert!(alpha > 1.0, "oversampling factor must exceed 1");
    let ns = 2.0 * w;
    let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
    let beta_over_ns = if near(alpha, 2.0) {
        if near(ns, 2.0) {
            2.20
        } else if near(ns, 3.0) {
            2.26
        } else if near(ns, 4.0) {
            2.38
        } else {
            2.30
        }
    } else {
        0.97 * core::f64::consts::PI * (1.0 - 1.0 / (2.0 * alpha))
    };
    beta_over_ns * ns
}

impl InterpKernel {
    /// Kaiser–Bessel kernel for radius `w` at oversampling `alpha` (default
    /// LUT density).
    pub fn new(w: f64, alpha: f64) -> Self {
        Self::with_density(w, beatty_beta(w, alpha), DEFAULT_LUT_DENSITY)
    }

    /// Builds the kernel of the given family.
    pub fn of(choice: KernelChoice, w: f64, alpha: f64, density: usize) -> Self {
        match choice {
            KernelChoice::KaiserBessel => Self::with_density(w, beatty_beta(w, alpha), density),
            KernelChoice::Gaussian => Self::gaussian(w, greengard_lee_tau(w, alpha), density),
            KernelChoice::EsKernel => Self::es(w, es_beta(w, alpha), density),
        }
    }

    /// Kaiser–Bessel with explicit β and LUT density.
    ///
    /// # Panics
    /// Panics if `w ≤ 0`, `beta ≤ 0` or `density == 0`.
    pub fn with_density(w: f64, beta: f64, density: usize) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        let inv_i0_beta = 1.0 / bessel_i0(beta);
        Self::build(w, Shape::KaiserBessel { beta, inv_i0_beta }, density)
    }

    /// Truncated Gaussian `e^{−x²/(4τ)}` with explicit τ and LUT density.
    ///
    /// # Panics
    /// Panics if `w ≤ 0`, `tau ≤ 0` or `density == 0`.
    pub fn gaussian(w: f64, tau: f64, density: usize) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        Self::build(w, Shape::Gaussian { tau }, density)
    }

    /// Exponential-of-semicircle kernel `e^{β(√(1−(x/W)²)−1)}` with explicit
    /// β. When the width `2W` is a whole number of grid cells the kernel
    /// also fits its Horner fast-eval table (the case every
    /// tolerance-planned width produces); other radii keep the LUT path.
    ///
    /// # Panics
    /// Panics if `w ≤ 0`, `beta ≤ 0` or `density == 0`.
    pub fn es(w: f64, beta: f64, density: usize) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        Self::build(w, Shape::Es { beta }, density)
    }

    fn build(w: f64, shape: Shape, density: usize) -> Self {
        assert!(w > 0.0, "kernel radius must be positive");
        assert!(density > 0, "LUT density must be positive");
        let n = (w * density as f64).ceil() as usize + 2;
        let lut = (0..n)
            .map(|i| {
                let x = i as f64 / density as f64;
                eval_shape(&shape, x, w) as f32
            })
            .collect();
        let (horner, ft_quad) = match shape {
            Shape::Es { .. } => (fit_horner(&shape, w), Some(build_ft_quad(&shape, w))),
            _ => (None, None),
        };
        InterpKernel { w, shape, lut, density: density as f64, horner, ft_quad }
    }

    /// Kernel radius `W`.
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Shape parameter β of a Kaiser–Bessel or ES kernel.
    ///
    /// # Panics
    /// Panics for kernels with no β (Gaussian).
    pub fn beta(&self) -> f64 {
        match self.shape {
            Shape::KaiserBessel { beta, .. } | Shape::Es { beta } => beta,
            Shape::Gaussian { .. } => panic!("Gaussian kernel has no beta"),
        }
    }

    /// True when Part 1 rows go through the fitted Horner fast path
    /// instead of the LUT.
    pub fn uses_horner(&self) -> bool {
        self.horner.is_some()
    }

    /// Heap bytes of the structure the *hot* Part 1 path actually touches:
    /// the Horner coefficient table when the fast path is fitted, the LUT
    /// otherwise. The cache-pressure observable of the matched-accuracy
    /// kernel A/B (`benches/kernels.rs`).
    pub fn eval_table_bytes(&self) -> usize {
        match &self.horner {
            Some(h) => h.coeffs.len() * core::mem::size_of::<f32>(),
            None => self.lut.len() * core::mem::size_of::<f32>(),
        }
    }

    /// Exact kernel value (double precision, no table).
    pub fn eval_exact(&self, x: f64) -> f64 {
        eval_shape(&self.shape, x.abs(), self.w)
    }

    /// Table lookup with linear interpolation; out-of-support arguments
    /// return 0.
    #[inline]
    pub fn eval_lut(&self, x: f32) -> f32 {
        let ax = x.abs();
        if ax as f64 > self.w {
            return 0.0;
        }
        let pos = ax * self.density as f32;
        let i = pos as usize;
        let frac = pos - i as f32;
        // The table has 2 slack entries, so i+1 is always in range for
        // in-support arguments.
        let a = self.lut[i];
        let b = self.lut[i + 1];
        a + (b - a) * frac
    }

    /// Part 1 row evaluation: fills `out[i] ≈ I((x1 + i) − u)` for every
    /// tap `i < len` in one pass — the single entry point
    /// `Window::compute`, and therefore every window source (on-the-fly,
    /// `WindowTable` precompute) and every gather/scatter driver, consumes.
    /// Dispatches to the fitted Horner sweep when the family provides one,
    /// else to the LUT row path; either way the result is a deterministic
    /// function of `(x1, len, u)`, bitwise-identical across ISA levels and
    /// thread counts. Every tap must be in support (`|x1 + i − u| ≤ W`),
    /// which `Window::compute`'s exact-`f64` bounds guarantee.
    ///
    /// # Panics
    /// Panics if `out.len() < len`.
    #[inline]
    pub fn eval_row(&self, x1: i32, len: usize, u: f32, out: &mut [f32]) {
        match &self.horner {
            Some(h) => {
                // All taps share one fractional offset: with
                // `s = u − x1 ∈ (W−1, W]`, tap `i`'s argument is
                // `i − (W−1) − t` for `t = s − (W−1) ∈ (0, 1]`, so piece
                // `i` is evaluated at `z = 2t − 1 ∈ (−1, 1]`.
                let t = u as f64 - x1 as f64 - (self.w - 1.0);
                let z = (2.0 * t - 1.0) as f32;
                nufft_simd::horner_row(&h.coeffs, h.stride, h.rows, z, &mut out[..len]);
            }
            None => self.eval_lut_row(x1, len, u, out),
        }
    }

    /// LUT arm of [`InterpKernel::eval_row`]: hoists the LUT scale
    /// conversion and the per-tap support branch out of the loop; results
    /// are identical to per-tap [`eval_lut`] calls.
    ///
    /// [`eval_lut`]: InterpKernel::eval_lut
    ///
    /// # Panics
    /// Panics if `out.len() < len`.
    #[inline]
    pub fn eval_lut_row(&self, x1: i32, len: usize, u: f32, out: &mut [f32]) {
        let dens = self.density as f32;
        let lut = &self.lut[..];
        for (i, o) in out[..len].iter_mut().enumerate() {
            let ax = ((x1 + i as i32) as f32 - u).abs();
            debug_assert!(ax as f64 <= self.w, "tap outside kernel support");
            let pos = ax * dens;
            let idx = pos as usize;
            let frac = pos - idx as f32;
            // The table has 2 slack entries past W·density, so idx+1 is in
            // range for every in-support tap.
            let a = lut[idx];
            let b = lut[idx + 1];
            *o = a + (b - a) * frac;
        }
    }

    /// The kernel's continuous Fourier transform `Â(ξ)`, with `ξ` in cycles
    /// per grid unit — what the roll-off correction divides by.
    pub fn fourier(&self, xi: f64) -> f64 {
        match self.shape {
            Shape::KaiserBessel { beta, inv_i0_beta } => {
                let t = core::f64::consts::TAU * self.w * xi;
                2.0 * self.w * inv_i0_beta * kb_ft_shape(beta, t)
            }
            Shape::Gaussian { tau } => {
                // FT of the untruncated Gaussian; the truncation tail is
                // below the kernel's own accuracy by construction of τ.
                2.0 * (core::f64::consts::PI * tau).sqrt()
                    * (-4.0 * core::f64::consts::PI.powi(2) * xi * xi * tau).exp()
            }
            Shape::Es { .. } => {
                // No closed form: evenness gives Â(ξ) = 2∫₀^W φ(x)cos(2πξx)dx,
                // summed over the prebuilt rule with φ folded into the weights.
                let q = self.ft_quad.as_ref().expect("ES kernel builds its FT quadrature");
                let c = core::f64::consts::TAU * xi;
                2.0 * q.nodes.iter().map(|&(x, wphi)| wphi * (c * x).cos()).sum::<f64>()
            }
        }
    }
}

fn eval_shape(shape: &Shape, x: f64, w: f64) -> f64 {
    if x > w {
        return 0.0;
    }
    match *shape {
        Shape::KaiserBessel { beta, inv_i0_beta } => {
            let r = x / w;
            bessel_i0(beta * (1.0 - r * r).max(0.0).sqrt()) * inv_i0_beta
        }
        Shape::Gaussian { tau } => (-x * x / (4.0 * tau)).exp(),
        Shape::Es { beta } => {
            let r = x / w;
            (beta * ((1.0 - r * r).max(0.0).sqrt() - 1.0)).exp()
        }
    }
}

/// Builds the Gauss–Legendre tabulation of the transform integrand over
/// `[0, W]` with the kernel values pre-folded into the weights.
fn build_ft_quad(shape: &Shape, w: f64) -> FtQuad {
    let nodes = gauss_legendre_on(FT_QUAD_NODES, 0.0, w)
        .into_iter()
        .map(|(x, wt)| (x, wt * eval_shape(shape, x, w)))
        .collect();
    FtQuad { nodes }
}

/// Fits the piecewise-polynomial Horner table: one Chebyshev interpolant
/// per integer tap offset, converted to monomial coefficients in `f64` and
/// stored `f32` coefficient-major. Requires the width `2W` to be a whole
/// number of cells (so windows have a fixed piece structure); returns
/// `None` otherwise and the kernel keeps its LUT path.
fn fit_horner(shape: &Shape, w: f64) -> Option<HornerTable> {
    let ns2 = 2.0 * w;
    if (ns2 - ns2.round()).abs() > 1e-9 {
        return None;
    }
    let ns = ns2.round() as usize;
    // Piece i covers tap argument [i − W, i − W + 1); piece ns exists only
    // for the integer-boundary window (t = 1, argument exactly W).
    let pieces = ns + 1;
    // Chebyshev truncation decays geometrically for the analytic interior;
    // the √-type edge behavior is damped by the kernel's own e^{−β} there.
    // ns + 6 keeps the fit at the f32 floor across every operating point.
    let degree = (ns + 6).clamp(9, 15);
    let rows = degree + 1;
    let stride = pieces.next_multiple_of(8);
    let mut coeffs = vec![0.0f32; rows * stride];
    let n = rows; // interpolation nodes per piece
    for i in 0..ns {
        // Sample at the Chebyshev roots z_k = cos(π(k+½)/n) — never the
        // endpoints, so the support-edge argument x = ±W is never hit.
        let fk: Vec<f64> = (0..n)
            .map(|k| {
                let z = (core::f64::consts::PI * (k as f64 + 0.5) / n as f64).cos();
                let t = 0.5 * (z + 1.0);
                let x = i as f64 - w + (1.0 - t);
                eval_shape(shape, x.abs(), w)
            })
            .collect();
        // Chebyshev coefficients by the discrete cosine sum.
        let cheb: Vec<f64> = (0..n)
            .map(|j| {
                let scale = if j == 0 { 1.0 } else { 2.0 } / n as f64;
                scale
                    * (0..n)
                        .map(|k| {
                            fk[k]
                                * (core::f64::consts::PI * j as f64 * (k as f64 + 0.5) / n as f64)
                                    .cos()
                        })
                        .sum::<f64>()
            })
            .collect();
        // Chebyshev → monomial via the T_{k+1} = 2z·T_k − T_{k−1} recurrence.
        let mut mono = vec![0.0f64; n];
        let mut t_prev = vec![0.0f64; n]; // T_{k−1}
        let mut t_cur = vec![0.0f64; n]; // T_k
        t_prev[0] = 1.0;
        mono[0] += cheb[0];
        if n > 1 {
            t_cur[1] = 1.0;
            mono[1] += cheb[1];
        }
        for j in 2..n {
            let mut t_next = vec![0.0f64; n];
            for p in 0..j {
                t_next[p + 1] += 2.0 * t_cur[p];
            }
            for p in 0..n {
                t_next[p] -= t_prev[p];
            }
            for p in 0..n {
                mono[p] += cheb[j] * t_next[p];
            }
            core::mem::swap(&mut t_prev, &mut t_cur);
            core::mem::swap(&mut t_cur, &mut t_next);
        }
        // Row r holds the coefficient of z^(degree − r).
        for r in 0..rows {
            coeffs[r * stride + i] = mono[degree - r] as f32;
        }
    }
    // Piece ns: consulted only at z = 1 (tap argument exactly W) — a
    // constant polynomial pinning the support-edge value.
    coeffs[degree * stride + ns] = eval_shape(shape, w, w) as f32;
    Some(HornerTable { rows, stride, coeffs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beatty_beta_reference_values() {
        // α = 2, W = 4 (kernel width 8): β = π·√(4²·1.5² − 0.8).
        let b = beatty_beta(4.0, 2.0);
        let want = core::f64::consts::PI * (16.0f64 * 2.25 - 0.8).sqrt();
        assert!((b - want).abs() < 1e-12);
        // β grows with W and with α.
        assert!(beatty_beta(6.0, 2.0) > beatty_beta(4.0, 2.0));
        assert!(beatty_beta(4.0, 2.0) > beatty_beta(4.0, 1.25));
    }

    #[test]
    #[should_panic(expected = "degenerates to a boxcar")]
    fn beatty_beta_rejects_degenerate_parameters() {
        // W = 0.5, α = 2: (2W/α)²·(α−1/2)² = 0.5625 ≤ 0.8 — previously a
        // silent clamp to β = 0 (a boxcar window with no diagnostic).
        let _ = beatty_beta(0.5, 2.0);
    }

    #[test]
    fn es_beta_reference_values() {
        // σ = 2 rule: β = 2.30·ns with the small-width tweaks.
        assert!((es_beta(3.5, 2.0) - 2.30 * 7.0).abs() < 1e-12);
        assert!((es_beta(1.0, 2.0) - 2.20 * 2.0).abs() < 1e-12);
        assert!((es_beta(1.5, 2.0) - 2.26 * 3.0).abs() < 1e-12);
        assert!((es_beta(2.0, 2.0) - 2.38 * 4.0).abs() < 1e-12);
        // General-σ rule: β = 0.97·π·(1 − 1/(2σ))·ns.
        let want = 0.97 * core::f64::consts::PI * (1.0 - 1.0 / 2.5) * 6.0;
        assert!((es_beta(3.0, 1.25) - want).abs() < 1e-12);
    }

    #[test]
    fn kernel_peaks_at_zero_and_vanishes_at_w() {
        let k = InterpKernel::new(4.0, 2.0);
        // Normalized form: I(0) = I0(β)/I0(β) = 1.
        assert!((k.eval_exact(0.0) - 1.0).abs() < 1e-12);
        // At |x| = W the argument of I0 is 0, so I(W) = 1/I0(β) — tiny.
        assert!(k.eval_exact(4.0) < 1e-6);
        assert_eq!(k.eval_exact(4.1), 0.0);

        let es = InterpKernel::of(KernelChoice::EsKernel, 4.0, 2.0, 512);
        assert!((es.eval_exact(0.0) - 1.0).abs() < 1e-12);
        // φ(W) = e^{−β} exactly.
        assert!((es.eval_exact(4.0) - (-es.beta()).exp()).abs() < 1e-15);
        assert_eq!(es.eval_exact(4.1), 0.0);
    }

    #[test]
    fn kernel_is_even_and_monotone_on_positive_axis() {
        for k in [
            InterpKernel::new(3.0, 2.0),
            InterpKernel::of(KernelChoice::Gaussian, 3.0, 2.0, 512),
            InterpKernel::of(KernelChoice::EsKernel, 3.0, 2.0, 512),
        ] {
            let mut prev = k.eval_exact(0.0);
            for i in 1..=30 {
                let x = i as f64 * 0.1;
                let v = k.eval_exact(x);
                assert!(v < prev, "not decreasing at {x}");
                assert_eq!(k.eval_exact(-x), v);
                prev = v;
            }
        }
    }

    #[test]
    fn lut_matches_exact_within_interpolation_error() {
        for k in [
            InterpKernel::new(4.0, 2.0),
            InterpKernel::of(KernelChoice::Gaussian, 4.0, 2.0, DEFAULT_LUT_DENSITY),
        ] {
            for i in 0..=4000 {
                let x = i as f64 * 1e-3;
                let exact = k.eval_exact(x) as f32;
                let lut = k.eval_lut(x as f32);
                assert!((lut - exact).abs() < 5e-5, "LUT error at x={x}: {lut} vs {exact}");
            }
        }
    }

    /// The row evaluator is bit-identical to per-tap `eval_lut` calls over
    /// the windows `Window::compute` produces (LUT families).
    #[test]
    fn lut_row_matches_per_tap_lookups() {
        for k in
            [InterpKernel::new(4.0, 2.0), InterpKernel::of(KernelChoice::Gaussian, 3.0, 2.0, 256)]
        {
            assert!(!k.uses_horner());
            let w = k.w();
            for step in 0..200 {
                let u = step as f32 * 0.173 + 0.01;
                let x1 = (u as f64 - w).ceil() as i32;
                let x2 = (u as f64 + w).floor() as i32;
                let len = (x2 - x1 + 1) as usize;
                let mut row = [0.0f32; 32];
                k.eval_row(x1, len, u, &mut row);
                for i in 0..len {
                    let want = k.eval_lut((x1 + i as i32) as f32 - u);
                    assert_eq!(
                        row[i].to_bits(),
                        want.to_bits(),
                        "u={u} tap {i}: {} vs {want}",
                        row[i]
                    );
                }
            }
        }
    }

    /// The fitted Horner fast path reproduces the exact ES kernel to the
    /// single-precision floor at every width the tolerance planner can
    /// pick, over every tap of densely swept windows.
    #[test]
    fn horner_fit_matches_exact_evaluation() {
        for ns in [2usize, 3, 4, 5, 7, 8, 10, 13, 16] {
            let w = ns as f64 / 2.0;
            let k = InterpKernel::of(KernelChoice::EsKernel, w, 2.0, 64);
            assert!(k.uses_horner(), "ns={ns} must fit a Horner table");
            let mut worst = 0.0f64;
            for step in 0..=1000 {
                let u = 20.0 + step as f32 * 1e-3; // sweeps one full cell
                let x1 = (u as f64 - w).ceil() as i32;
                let x2 = (u as f64 + w).floor() as i32;
                let len = (x2 - x1 + 1) as usize;
                let mut row = [0.0f32; 32];
                k.eval_row(x1, len, u, &mut row);
                for i in 0..len {
                    let exact = k.eval_exact((x1 + i as i32) as f64 - u as f64);
                    worst = worst.max((row[i] as f64 - exact).abs());
                }
            }
            // The support-edge √-singularity limits the Chebyshev fit to
            // algebraic convergence on the two outermost pieces, but its
            // contribution is damped by the kernel's own edge magnitude
            // e^{−β} — i.e. the family's accuracy floor at that width. The
            // fit must sit below that floor (or the f32 floor, whichever
            // binds).
            let tol = (0.6 * (-k.beta()).exp()).max(2e-6);
            assert!(worst < tol, "ns={ns}: Horner fit error {worst:.3e} above budget {tol:.3e}");
        }
    }

    /// Half-cell widths have no fixed piece structure; the ES kernel then
    /// falls back to the LUT row path and stays consistent with it.
    #[test]
    fn es_without_integral_width_uses_lut() {
        let k = InterpKernel::es(1.25, es_beta(1.25, 2.0), 512);
        assert!(!k.uses_horner());
        let mut a = [0.0f32; 8];
        let mut b = [0.0f32; 8];
        let (u, x1, len) = (10.4f32, 10i32, 2usize);
        k.eval_row(x1, len, u, &mut a);
        k.eval_lut_row(x1, len, u, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn eval_table_bytes_reports_the_hot_structure() {
        let kb = InterpKernel::new(4.0, 2.0);
        assert_eq!(kb.eval_table_bytes(), ((4.0f64 * 512.0).ceil() as usize + 2) * 4);
        let es = InterpKernel::of(KernelChoice::EsKernel, 4.0, 2.0, 512);
        // ns = 8 → 9 pieces (stride 16), degree 14 → 15 rows.
        assert_eq!(es.eval_table_bytes(), 15 * 16 * 4);
        assert!(es.eval_table_bytes() < kb.eval_table_bytes() / 4);
    }

    #[test]
    fn lut_out_of_support_is_zero() {
        let k = InterpKernel::new(2.0, 2.0);
        assert_eq!(k.eval_lut(2.0001), 0.0);
        assert_eq!(k.eval_lut(-5.0), 0.0);
    }

    #[test]
    fn higher_density_reduces_lut_error() {
        let coarse = InterpKernel::with_density(4.0, beatty_beta(4.0, 2.0), 16);
        let fine = InterpKernel::with_density(4.0, beatty_beta(4.0, 2.0), 2048);
        let mut e_coarse = 0.0f32;
        let mut e_fine = 0.0f32;
        for i in 0..1000 {
            let x = i as f32 * 4.0e-3;
            let exact = coarse.eval_exact(x as f64) as f32;
            e_coarse = e_coarse.max((coarse.eval_lut(x) - exact).abs());
            e_fine = e_fine.max((fine.eval_lut(x) - exact).abs());
        }
        assert!(e_fine < e_coarse / 4.0, "fine {e_fine} vs coarse {e_coarse}");
    }

    #[test]
    fn fourier_transform_matches_numeric_quadrature() {
        for k in [
            InterpKernel::new(4.0, 2.0),
            InterpKernel::of(KernelChoice::Gaussian, 4.0, 2.0, 512),
            InterpKernel::of(KernelChoice::EsKernel, 4.0, 2.0, 512),
            InterpKernel::of(KernelChoice::EsKernel, 1.5, 2.0, 512),
        ] {
            for &xi in &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5] {
                // Simpson quadrature of ∫ I(x)·cos(2πξx) dx over [-W, W].
                let n = 4000;
                let h = 2.0 * k.w() / n as f64;
                let f = |x: f64| k.eval_exact(x) * (core::f64::consts::TAU * xi * x).cos();
                let mut s = f(-k.w()) + f(k.w());
                for i in 1..n {
                    let x = -k.w() + i as f64 * h;
                    s += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
                }
                let numeric = s * h / 3.0;
                let analytic = k.fourier(xi);
                // Tolerance relative to the DC gain: the Gaussian closed
                // form ignores the truncated tail (≈ e^{−W²/4τ} ≈ 1e-4 of
                // DC by construction of τ).
                assert!(
                    (numeric - analytic).abs() < 2e-4 * k.fourier(0.0),
                    "xi={xi}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn fourier_peak_at_dc_and_decay() {
        for k in
            [InterpKernel::new(4.0, 2.0), InterpKernel::of(KernelChoice::EsKernel, 4.0, 2.0, 512)]
        {
            let dc = k.fourier(0.0);
            assert!(dc > 0.0);
            let edge = k.fourier(0.25);
            assert!(edge > 0.0 && edge < dc);
            // Aliasing band (ξ = 0.75 maps into the oscillatory tail): tiny.
            assert!(k.fourier(0.75).abs() < 0.05 * dc);
        }
    }

    #[test]
    fn gaussian_tau_balances_truncation_and_aliasing() {
        let w = 4.0;
        let alpha = 2.0;
        let tau = greengard_lee_tau(w, alpha);
        // Truncation magnitude at |x| = W.
        let trunc = (-w * w / (4.0 * tau)).exp();
        assert!(trunc < 1e-3, "truncation too large: {trunc}");
        // The FT at the first alias of the band edge is comparably small
        // relative to DC.
        let k = InterpKernel::of(KernelChoice::Gaussian, w, alpha, 512);
        let alias = k.fourier(1.0 - 1.0 / (2.0 * alpha)) / k.fourier(0.0);
        assert!(alias < 1e-3, "aliasing too large: {alias}");
    }

    #[test]
    #[should_panic(expected = "no beta")]
    fn gaussian_has_no_beta() {
        let _ = InterpKernel::of(KernelChoice::Gaussian, 2.0, 2.0, 64).beta();
    }
}
