//! 1D complex FFT plans.
//!
//! A [`Fft`] is an immutable, `Sync` plan for one transform length: the
//! factorization into radices, per-stage twiddle tables, and (when the length
//! has a prime factor above `MAX_RADIX` (13)) a
//! prepared Bluestein chirp. Plans are built once per NUFFT plan and shared
//! across worker threads; execution takes caller-provided scratch so the hot
//! path never allocates.

use crate::bluestein::Bluestein;
use crate::butterflies::{bfly2, bfly3, bfly4, bfly5, bfly_generic, generic_roots, MAX_RADIX};
use nufft_math::{Complex32, Complex64};
use nufft_simd::fft_rows;
use std::sync::OnceLock;

/// Picks a radix-2/4 stage's arithmetic shape. On the per-line path, stages
/// whose sub-transform length `m` is at least this use the dispatched
/// (FMA-contracted at AVX2) row butterflies of `nufft_simd::fft_rows`;
/// smaller stages stay on the inline scalar loop in plain arithmetic — at
/// the bottom of the recursion there are many tiny combines (e.g. 128
/// radix-2 nodes with `m = 1` for n = 512) where row-kernel dispatch
/// would dominate. The batched tile path in [`crate::batch`] runs vector
/// column kernels at every stage and branches on the *same* threshold only
/// to pick the fused or the plain kernel, so both paths run the identical
/// arithmetic per element (the bit-identity contract).
pub(crate) const MIN_SIMD_M: usize = 4;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `e^{-2πi nk/N}` — signal to spectrum.
    Forward,
    /// `e^{+2πi nk/N}` — the unnormalized adjoint of [`Direction::Forward`].
    Backward,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

/// One Cooley–Tukey stage: radix `r` splitting a length-`r·m` transform.
pub(crate) struct Stage {
    pub(crate) radix: usize,
    pub(crate) m: usize,
    /// Forward twiddles `W_{r·m}^{q·k}` for `q ∈ [1, r)`, `k ∈ [0, m)`,
    /// laid out `[(q-1)·m + k]`.
    pub(crate) twiddles: Vec<Complex32>,
    /// `r×r` forward root table for the generic butterfly (empty for
    /// specialized radices 2–5).
    pub(crate) roots: Vec<Complex32>,
}

/// Backward-direction twiddle/root tables, one `Vec` per stage, each the
/// elementwise conjugate of the forward table. Built lazily on the first
/// backward transform so a plan that only ever runs forward (e.g. the
/// forward-only NUFFT, or Bluestein's inner convolution FFT) never pays the
/// memory.
pub(crate) struct BwdTables {
    pub(crate) twiddles: Vec<Vec<Complex32>>,
    pub(crate) roots: Vec<Vec<Complex32>>,
}

enum Kind {
    /// Pure mixed-radix Cooley–Tukey.
    CooleyTukey,
    /// Chirp-z for lengths with large prime factors.
    Bluestein(Box<Bluestein>),
}

/// A reusable 1D complex-to-complex FFT plan.
///
/// ```
/// use nufft_fft::Fft;
/// use nufft_math::Complex32;
///
/// let plan = Fft::new(8);
/// let mut x = vec![Complex32::ZERO; 8];
/// x[0] = Complex32::ONE;            // unit impulse …
/// plan.forward(&mut x);
/// assert!(x.iter().all(|z| (z.re - 1.0).abs() < 1e-6)); // … flat spectrum
/// ```
pub struct Fft {
    n: usize,
    stages: Vec<Stage>,
    kind: Kind,
    /// Lazily materialized backward tables (see [`BwdTables`]).
    bwd: OnceLock<BwdTables>,
}

/// Splits `n` into butterfly radices, largest-radix-first preference for 4.
fn factorize(n: usize) -> Option<Vec<usize>> {
    let mut rem = n;
    let mut factors = Vec::new();
    while rem.is_multiple_of(4) {
        factors.push(4);
        rem /= 4;
    }
    for p in [2usize, 3, 5, 7, 11, 13] {
        while rem.is_multiple_of(p) {
            factors.push(p);
            rem /= p;
        }
    }
    if rem == 1 {
        Some(factors)
    } else {
        None // contains a prime factor > MAX_RADIX
    }
}

impl Fft {
    /// Prepares a plan for length-`n` transforms.
    ///
    /// Any `n ≥ 1` is supported; lengths whose prime factors all lie within
    /// `{2,3,5,7,11,13}` use mixed-radix Cooley–Tukey, anything else uses
    /// Bluestein's algorithm.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        match factorize(n) {
            Some(factors) => {
                let mut stages = Vec::with_capacity(factors.len());
                let mut size = n;
                for &r in &factors {
                    let m = size / r;
                    let mut twiddles = vec![Complex32::ZERO; (r - 1) * m];
                    for q in 1..r {
                        for k in 0..m {
                            let angle =
                                -core::f64::consts::TAU * ((q * k) % size) as f64 / size as f64;
                            twiddles[(q - 1) * m + k] = Complex64::cis(angle).to_f32();
                        }
                    }
                    let roots = if r > 5 { generic_roots(r) } else { Vec::new() };
                    stages.push(Stage { radix: r, m, twiddles, roots });
                    size = m;
                }
                Fft { n, stages, kind: Kind::CooleyTukey, bwd: OnceLock::new() }
            }
            None => Fft {
                n,
                stages: Vec::new(),
                kind: Kind::Bluestein(Box::new(Bluestein::new(n))),
                bwd: OnceLock::new(),
            },
        }
    }

    /// Whether this plan runs the mixed-radix Cooley–Tukey path (as opposed
    /// to Bluestein); only Cooley–Tukey plans support batched tiles.
    pub(crate) fn is_ct(&self) -> bool {
        matches!(self.kind, Kind::CooleyTukey)
    }

    /// The Cooley–Tukey stage list (empty for Bluestein plans).
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The backward tables, conjugating the forward ones on first use.
    /// Bitwise, `conj` only flips the sign of `im`, so precomputing changes
    /// no result bit relative to conjugating inside the stage loop.
    pub(crate) fn bwd_tables(&self) -> &BwdTables {
        self.bwd.get_or_init(|| BwdTables {
            twiddles: self
                .stages
                .iter()
                .map(|s| s.twiddles.iter().map(|w| w.conj()).collect())
                .collect(),
            roots: self.stages.iter().map(|s| s.roots.iter().map(|w| w.conj()).collect()).collect(),
        })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — plans for length 0 cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Scratch length required by [`Fft::process_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::CooleyTukey => self.n,
            Kind::Bluestein(b) => b.scratch_len(),
        }
    }

    /// In-place transform using caller-provided scratch (hot path; does not
    /// allocate).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()` or scratch is too short.
    pub fn process_with_scratch(
        &self,
        data: &mut [Complex32],
        scratch: &mut [Complex32],
        dir: Direction,
    ) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        match &self.kind {
            Kind::CooleyTukey => {
                let bwd = match dir {
                    Direction::Forward => None,
                    Direction::Backward => Some(self.bwd_tables()),
                };
                let scratch = &mut scratch[..self.n];
                scratch.copy_from_slice(data);
                self.recurse(0, scratch, 0, 1, data, bwd);
            }
            Kind::Bluestein(b) => b.process(data, scratch, dir),
        }
    }

    /// In-place forward transform (allocates scratch; see
    /// [`Fft::process_with_scratch`] for the allocation-free form).
    pub fn forward(&self, data: &mut [Complex32]) {
        let mut scratch = vec![Complex32::ZERO; self.scratch_len()];
        self.process_with_scratch(data, &mut scratch, Direction::Forward);
    }

    /// In-place unnormalized backward transform — the exact adjoint of
    /// [`Fft::forward`].
    pub fn backward(&self, data: &mut [Complex32]) {
        let mut scratch = vec![Complex32::ZERO; self.scratch_len()];
        self.process_with_scratch(data, &mut scratch, Direction::Backward);
    }

    /// In-place normalized inverse: `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Complex32]) {
        self.backward(data);
        let s = 1.0 / self.n as f32;
        for z in data {
            *z *= s;
        }
    }

    /// Decimation-in-time recursion.
    ///
    /// Reads `src[off + j·stride]` for `j ∈ [0, size_at(level))`, writes the
    /// transform into `dst[..size]`. All invocations at a given `level` share
    /// the stage's twiddle table. `bwd` is `Some` for backward transforms
    /// (tables pre-conjugated; see [`Fft::bwd_tables`]).
    fn recurse(
        &self,
        level: usize,
        src: &[Complex32],
        off: usize,
        stride: usize,
        dst: &mut [Complex32],
        bwd: Option<&BwdTables>,
    ) {
        if level == self.stages.len() {
            // Only a length-1 plan gets here; longer ones stop a level early.
            debug_assert_eq!(dst.len(), 1);
            dst[0] = src[off];
            return;
        }
        let stage = &self.stages[level];
        let r = stage.radix;
        let m = stage.m;
        debug_assert_eq!(dst.len(), r * m);

        // Sub-transforms: Y_q = FFT_m(x[q + r·t]) into dst[q·m..(q+1)·m]. At
        // the last stage (`m == 1`) they are single elements, read straight
        // from the source.
        if level + 1 == self.stages.len() {
            for q in 0..r {
                dst[q] = src[off + q * stride];
            }
        } else {
            for q in 0..r {
                self.recurse(
                    level + 1,
                    src,
                    off + q * stride,
                    stride * r,
                    &mut dst[q * m..(q + 1) * m],
                    bwd,
                );
            }
        }

        // Combine: X[k + m·k2] = Σ_q W^{qk}·Y_q[k] · W_r^{q·k2}.
        let forward = bwd.is_none();
        let tw = match bwd {
            None => &stage.twiddles[..],
            Some(t) => &t.twiddles[level][..],
        };
        match r {
            2 if m >= MIN_SIMD_M => {
                let (d0, d1) = dst.split_at_mut(m);
                fft_rows::bfly2_rows(d0, d1, tw);
            }
            4 if m >= MIN_SIMD_M => {
                let (d01, d23) = dst.split_at_mut(2 * m);
                let (d0, d1) = d01.split_at_mut(m);
                let (d2, d3) = d23.split_at_mut(m);
                let (tw1, rest) = tw.split_at(m);
                let (tw2, tw3) = rest.split_at(m);
                fft_rows::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward);
            }
            _ => {
                let roots = match bwd {
                    None => &stage.roots[..],
                    Some(t) => &t.roots[level][..],
                };
                let sign = if forward { -1.0f32 } else { 1.0 };
                let mut t = [Complex32::ZERO; MAX_RADIX];
                let mut s = [Complex32::ZERO; MAX_RADIX];
                for k in 0..m {
                    t[0] = dst[k];
                    for q in 1..r {
                        t[q] = dst[q * m + k] * tw[(q - 1) * m + k];
                    }
                    match r {
                        2 => bfly2(&mut t[..2]),
                        3 => bfly3(&mut t[..3], sign),
                        4 => bfly4(&mut t[..4], sign),
                        5 => bfly5(&mut t[..5], sign),
                        _ => bfly_generic(&mut t[..r], &mut s[..r], roots),
                    }
                    for (k2, &v) in t[..r].iter().enumerate() {
                        dst[k2 * m + k] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dft32;
    use nufft_math::error::rel_l2_c32;

    fn demo_signal(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| {
                let x = i as f32;
                Complex32::new((0.3 * x).sin() + 0.1 * x, (0.7 * x).cos() - 0.05 * x)
            })
            .collect()
    }

    #[test]
    fn factorize_basic() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![4, 2]));
        assert_eq!(factorize(16), Some(vec![4, 4]));
        assert_eq!(factorize(60), Some(vec![4, 3, 5]));
        assert_eq!(factorize(13), Some(vec![13]));
        assert_eq!(factorize(17), None);
        assert_eq!(factorize(688), None); // 16 · 43
    }

    #[test]
    fn matches_naive_dft_many_sizes() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 20, 24, 36, 60, 64, 100, 128, 243,
            256,
        ] {
            let x = demo_signal(n);
            let plan = Fft::new(n);
            for dir in [Direction::Forward, Direction::Backward] {
                let mut got = x.clone();
                let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
                plan.process_with_scratch(&mut got, &mut scratch, dir);
                let want = naive_dft32(&x, dir);
                let err = rel_l2_c32(&got, &want);
                assert!(err < 2e-5, "n={n} dir={dir:?}: rel err {err}");
            }
        }
    }

    #[test]
    fn bluestein_sizes_match_naive() {
        for n in [17usize, 31, 43, 97, 101, 344, 688] {
            let x = demo_signal(n);
            let plan = Fft::new(n);
            let mut got = x.clone();
            plan.forward(&mut got);
            let want = naive_dft32(&x, Direction::Forward);
            let err = rel_l2_c32(&got, &want);
            assert!(err < 5e-5, "bluestein n={n}: rel err {err}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in [8usize, 30, 128, 343, 97] {
            let x = demo_signal(n);
            let plan = Fft::new(n);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            let err = rel_l2_c32(&y, &x);
            assert!(err < 1e-5, "n={n}: round-trip err {err}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 120;
        let x = demo_signal(n);
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.to_f64().norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.to_f64().norm_sqr()).sum();
        assert!(((ey / n as f64) - ex).abs() < 1e-3 * ex, "Parseval violated: {ey} vs {ex}");
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // ⟨F x, y⟩ == ⟨x, F† y⟩ where F† is `backward`.
        let n = 48;
        let x = demo_signal(n);
        let y: Vec<Complex32> = (0..n)
            .map(|i| Complex32::new((i as f32 * 0.11).cos(), (i as f32 * 0.23).sin()))
            .collect();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.backward(&mut fy);
        let dot = |a: &[Complex32], b: &[Complex32]| -> Complex64 {
            a.iter().zip(b).map(|(&p, &q)| p.to_f64().conj() * q.to_f64()).sum()
        };
        let lhs = dot(&fx, &y);
        let rhs = dot(&x, &fy);
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs:?} vs {rhs:?}");
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut x = vec![Complex32::ZERO; n];
        x[0] = Complex32::ONE;
        Fft::new(n).forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-6 && z.im.abs() < 1e-6);
        }
    }

    #[test]
    fn shifted_impulse_produces_phase_ramp() {
        let n = 32;
        let shift = 3usize;
        let mut x = vec![Complex32::ZERO; n];
        x[shift] = Complex32::ONE;
        Fft::new(n).forward(&mut x);
        for (k, z) in x.iter().enumerate() {
            let want = Complex64::cis(-core::f64::consts::TAU * (shift * k) as f64 / n as f64);
            assert!((z.to_f64() - want).abs() < 1e-5, "k={k}");
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = Fft::new(1);
        let mut x = vec![Complex32::new(2.5, -1.5)];
        plan.forward(&mut x);
        assert_eq!(x[0], Complex32::new(2.5, -1.5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        let _ = Fft::new(0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_buffer_length_rejected() {
        let plan = Fft::new(8);
        let mut x = vec![Complex32::ZERO; 7];
        plan.forward(&mut x);
    }
}
