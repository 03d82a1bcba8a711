//! From-scratch complex FFT substrate for the NUFFT suite.
//!
//! The paper uses Intel MKL's FFTW-interface FFT for the oversampled
//! Cartesian transforms; this crate plays that role. It provides:
//!
//! * [`Fft`] — a 1D complex-to-complex plan: recursive decimation-in-time
//!   mixed-radix Cooley–Tukey with specialized radix-2/3/4/5 butterflies,
//!   generic small-prime butterflies up to 13, and Bluestein's chirp-z
//!   algorithm for lengths with larger prime factors (e.g. the 688 = 16·43
//!   oversampled grid of the Table V dataset);
//! * [`FftNd`] — row-major n-dimensional transforms built from 1D line
//!   transforms, executed in SIMD-friendly tiles of adjacent lines for
//!   strided axes, with raw per-tile/per-line entry points that
//!   `nufft-core` uses to parallelize work across the task pool;
//! * [`FftStrategy`] — per-plan choice between the depth-first recursive
//!   path and the four-step (Bailey) decomposition of [`fourstep`], whose
//!   sub-FFT + cache-blocked-transpose sweeps keep out-of-LLC axis lines
//!   bandwidth-friendly while staying bit-identical to the recursive path;
//! * [`shift`] — `fftshift` / index "chopping" utilities (§II-B of the
//!   paper);
//! * [`naive`] — `O(n²)` reference DFTs in `f64`, the oracle for every FFT
//!   test and the accuracy baseline for the NUFFT experiments.
//!
//! Conventions: `forward` computes `X[k] = Σ_n x[n]·e^{-2πi nk/N}`
//! (unnormalized); [`Fft::backward`] is its exact adjoint (unnormalized
//! `e^{+2πi nk/N}` sum); [`Fft::inverse`] is `backward` scaled by `1/N` so
//! that `inverse(forward(x)) == x`.

// Index-based loops below frequently address several parallel arrays
// at once; clippy's iterator suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod fourstep;
pub mod naive;
pub mod ndim;
pub mod plan;
pub mod shift;

mod batch;
mod bluestein;
mod butterflies;

pub use fourstep::{FftStrategy, DEFAULT_LLC_BUDGET};
pub use ndim::FftNd;
pub use plan::{Direction, Fft};

/// Smallest length `≥ n` whose prime factorization uses only the
/// specialized butterfly radices (2, 3, 5, 7, 11, 13), so a plan of that
/// length never falls back to Bluestein. Type-3 planning uses this to
/// size intermediate fine grids: the grid is a free parameter there, so
/// it may as well land on a fast length.
pub fn next_fast_len(n: usize) -> usize {
    let mut n = n.max(1);
    loop {
        let mut r = n;
        for p in [2usize, 3, 5, 7, 11, 13] {
            while r.is_multiple_of(p) {
                r /= p;
            }
        }
        if r == 1 {
            return n;
        }
        n += 1;
    }
}

/// Serializes the unit tests that override the process-global ISA level
/// with the ones comparing two execution paths bitwise: an override landing
/// between the two runs of a comparison would pit one level against another.
#[cfg(test)]
pub(crate) fn isa_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn next_fast_len_is_smooth_and_minimal() {
        assert_eq!(super::next_fast_len(0), 1);
        assert_eq!(super::next_fast_len(13), 13);
        assert_eq!(super::next_fast_len(17), 18);
        assert_eq!(super::next_fast_len(101), 104); // 101 prime; 104 = 8·13
        for n in [37usize, 241, 1031] {
            let f = super::next_fast_len(n);
            assert!(f >= n);
            let mut r = f;
            for p in [2usize, 3, 5, 7, 11, 13] {
                while r.is_multiple_of(p) {
                    r /= p;
                }
            }
            assert_eq!(r, 1, "{f} not smooth");
        }
    }
}
