//! Conjugate gradients on the (regularized) normal equations.
//!
//! Solves `(N + λI)·x = b` for a Hermitian positive semi-definite operator
//! `N` given as a matrix-free closure — in this crate `N = A†DA` (single
//! coil) or `N = Σ_c S_c†A†DAS_c` (SENSE). Inner products accumulate in
//! `f64` ([`nufft_simd::dotc`]), which keeps iteration counts stable in
//! single precision.

use nufft_math::Complex32;
use nufft_simd::{dotc, sum_norm_sqr};

/// Convergence report of one CG solve.
#[derive(Clone, Debug)]
pub struct CgReport {
    /// Relative residual ‖r_k‖/‖b‖ after each completed iteration.
    pub residuals: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// True if the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Runs CG for `(op + λI)x = b`, starting from `x` (commonly zeros).
///
/// `op(input, output)` must apply the Hermitian PSD operator. It runs once
/// per iteration, plus once for the initial residual when `x` is not all
/// zero. Terminates at `max_iters` or when the relative residual falls
/// below `tol`.
///
/// # Panics
/// Panics if buffer lengths disagree.
pub fn conjugate_gradient<F>(
    mut op: F,
    b: &[Complex32],
    x: &mut [Complex32],
    lambda: f32,
    max_iters: usize,
    tol: f64,
) -> CgReport
where
    F: FnMut(&[Complex32], &mut [Complex32]),
{
    assert_eq!(b.len(), x.len(), "rhs/solution length mismatch");
    let n = b.len();
    let mut r = vec![Complex32::ZERO; n];
    let mut ap = vec![Complex32::ZERO; n];

    // r = b − (op + λI)x, which is b itself from a zero start (the usual
    // one) — so that start costs no operator call.
    if x.iter().all(|&z| z == Complex32::ZERO) {
        r.copy_from_slice(b);
    } else {
        op(x, &mut ap);
        for i in 0..n {
            r[i] = b[i] - ap[i] - x[i].scale(lambda);
        }
    }
    let mut p = r.clone();
    let b_norm = sum_norm_sqr(b).sqrt().max(1e-30);
    let mut rs_old = sum_norm_sqr(&r);
    let mut residuals = Vec::with_capacity(max_iters);
    let mut converged = rs_old.sqrt() / b_norm <= tol;

    let mut it = 0;
    while it < max_iters && !converged {
        op(&p, &mut ap);
        for i in 0..n {
            ap[i] += p[i].scale(lambda);
        }
        let p_ap = dotc(&p, &ap).re;
        if p_ap <= 0.0 {
            // Numerical breakdown (operator not PSD at this precision).
            break;
        }
        let alpha = (rs_old / p_ap) as f32;
        for i in 0..n {
            x[i] += p[i].scale(alpha);
            r[i] -= ap[i].scale(alpha);
        }
        let rs_new = sum_norm_sqr(&r);
        let rel = rs_new.sqrt() / b_norm;
        residuals.push(rel);
        it += 1;
        if rel <= tol {
            converged = true;
            break;
        }
        let beta = (rs_new / rs_old) as f32;
        for i in 0..n {
            p[i] = r[i] + p[i].scale(beta);
        }
        rs_old = rs_new;
    }
    CgReport { residuals, iterations: it, converged }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense Hermitian PSD test operator `A†A` from a random-ish complex A.
    fn psd_op(n: usize) -> impl FnMut(&[Complex32], &mut [Complex32]) {
        let a: Vec<Complex32> = (0..n * n)
            .map(|i| {
                Complex32::new(
                    ((i * 37 % 101) as f32 / 101.0) - 0.5,
                    ((i * 53 % 97) as f32 / 97.0) - 0.5,
                )
            })
            .collect();
        move |x: &[Complex32], out: &mut [Complex32]| {
            // out = A† (A x).
            let mut ax = vec![Complex32::ZERO; n];
            for r in 0..n {
                let mut acc = Complex32::ZERO;
                for c in 0..n {
                    acc += a[r * n + c] * x[c];
                }
                ax[r] = acc;
            }
            for c in 0..n {
                let mut acc = Complex32::ZERO;
                for r in 0..n {
                    acc += a[r * n + c].conj() * ax[r];
                }
                out[c] = acc;
            }
        }
    }

    #[test]
    fn solves_small_psd_system() {
        let n = 12;
        let mut op = psd_op(n);
        // Build b = (A†A + λ)x* for a known x*.
        let x_true: Vec<Complex32> =
            (0..n).map(|i| Complex32::new(i as f32 * 0.3 - 1.0, 0.5 - i as f32 * 0.1)).collect();
        let lambda = 0.1f32;
        let mut b = vec![Complex32::ZERO; n];
        op(&x_true, &mut b);
        for i in 0..n {
            b[i] += x_true[i].scale(lambda);
        }
        let mut x = vec![Complex32::ZERO; n];
        let report = conjugate_gradient(&mut op, &b, &mut x, lambda, 200, 1e-7);
        assert!(report.converged, "CG did not converge: {:?}", report.residuals.last());
        let err = nufft_math::error::rel_l2_c32(&x, &x_true);
        assert!(err < 1e-4, "solution error {err}");
    }

    #[test]
    fn residuals_decrease_monotonically_overall() {
        let n = 16;
        let mut op = psd_op(n);
        let b: Vec<Complex32> =
            (0..n).map(|i| Complex32::new(1.0 / (i as f32 + 1.0), 0.2)).collect();
        let mut x = vec![Complex32::ZERO; n];
        let report = conjugate_gradient(&mut op, &b, &mut x, 0.05, 50, 1e-10);
        let first = report.residuals.first().copied().unwrap_or(1.0);
        let last = report.residuals.last().copied().unwrap_or(1.0);
        assert!(last < first, "no overall progress: {first} -> {last}");
    }

    #[test]
    fn identity_operator_converges_in_one_iteration() {
        let n = 8;
        let b: Vec<Complex32> = (0..n).map(|i| Complex32::new(i as f32, -1.0)).collect();
        let mut x = vec![Complex32::ZERO; n];
        let report = conjugate_gradient(
            |inp: &[Complex32], out: &mut [Complex32]| out.copy_from_slice(inp),
            &b,
            &mut x,
            0.0,
            10,
            1e-9,
        );
        assert!(report.iterations <= 2, "took {} iterations", report.iterations);
        let err = nufft_math::error::rel_l2_c32(&x, &b);
        assert!(err < 1e-5);
    }

    #[test]
    fn operator_calls_per_solve() {
        // A zero start needs no call for the initial residual; any other
        // start pays one.
        let n = 10;
        let b: Vec<Complex32> = (0..n).map(|i| Complex32::new(1.0, i as f32 * 0.1)).collect();
        for (start, extra) in [(0.0f32, 0usize), (0.5, 1)] {
            let mut op = psd_op(n);
            let mut calls = 0usize;
            let mut x = vec![Complex32::new(start, 0.0); n];
            let report = conjugate_gradient(
                |inp: &[Complex32], out: &mut [Complex32]| {
                    calls += 1;
                    op(inp, out)
                },
                &b,
                &mut x,
                0.1,
                5,
                0.0,
            );
            assert_eq!(report.iterations, 5);
            assert_eq!(calls, report.iterations + extra, "start {start}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let n = 6;
        let b = vec![Complex32::ZERO; n];
        let mut x = vec![Complex32::ZERO; n];
        let report = conjugate_gradient(
            |inp: &[Complex32], out: &mut [Complex32]| out.copy_from_slice(inp),
            &b,
            &mut x,
            0.0,
            10,
            1e-9,
        );
        assert!(report.converged);
        assert!(x.iter().all(|z| z.abs() == 0.0));
    }
}
