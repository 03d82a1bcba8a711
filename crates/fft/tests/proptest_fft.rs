//! Property tests for the FFT engine over random signals and lengths, on
//! the `nufft-testkit` harness. A failure prints a `NUFFT_PROP_SEED=...`
//! replay seed.

use nufft_fft::naive::naive_dft32;
use nufft_fft::{Direction, Fft, FftNd};
use nufft_math::error::rel_l2_c32;
use nufft_math::{Complex32, Complex64};
use nufft_testkit::prop_check;

#[test]
fn forward_matches_naive() {
    prop_check("forward_matches_naive", 0xFF7_0001, 48, |rng| {
        let n = rng.gen_usize(1..200);
        let x = rng.gen_c32_vec(n, 10.0);
        let plan = Fft::new(n);
        let mut got = x.clone();
        plan.forward(&mut got);
        let want = naive_dft32(&x, Direction::Forward);
        assert!(rel_l2_c32(&got, &want) < 1e-4, "n={n}");
    });
}

#[test]
fn round_trip_is_identity() {
    prop_check("round_trip_is_identity", 0xFF7_0002, 48, |rng| {
        let n = rng.gen_usize(1..300);
        let x = rng.gen_c32_vec(n, 1.0);
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert!(rel_l2_c32(&y, &x) < 1e-4, "n={n}");
    });
}

/// Round trip pinned to the two non-power-of-two code paths the oversampled
/// grids exercise: pure mixed-radix lengths (2^a·3^b·5^c) and lengths with
/// a large prime factor, which take the Bluestein chirp-z route.
#[test]
fn round_trip_mixed_radix_and_bluestein() {
    const MIXED_RADIX: [usize; 8] = [6, 30, 60, 300, 360, 500, 720, 960];
    const BLUESTEIN: [usize; 8] = [7, 97, 127, 251, 499, 688, 743, 1009];
    prop_check("round_trip_mixed_radix_and_bluestein", 0xFF7_0003, 32, |rng| {
        let pool = if rng.gen_bool() { &MIXED_RADIX } else { &BLUESTEIN };
        let n = pool[rng.gen_usize(0..pool.len())];
        let x = rng.gen_c32_vec(n, 2.0);
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert!(rel_l2_c32(&y, &x) < 1e-4, "n={n}");
        // And the forward pass itself must agree with the naive DFT for the
        // smaller lengths (the naive oracle is quadratic).
        if n <= 360 {
            let mut f = x.clone();
            plan.forward(&mut f);
            let want = naive_dft32(&x, Direction::Forward);
            assert!(rel_l2_c32(&f, &want) < 1e-4, "n={n} forward vs naive");
        }
    });
}

#[test]
fn linearity() {
    prop_check("linearity", 0xFF7_0004, 32, |rng| {
        let x = rng.gen_c32_vec(64, 10.0);
        let y = rng.gen_c32_vec(64, 10.0);
        let a = rng.gen_f32(-3.0..3.0);
        let plan = Fft::new(64);
        // F(x + a·y) == F(x) + a·F(y)
        let mut lhs: Vec<Complex32> = x.iter().zip(&y).map(|(&p, &q)| p + q.scale(a)).collect();
        plan.forward(&mut lhs);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);
        let rhs: Vec<Complex32> = fx.iter().zip(&fy).map(|(&p, &q)| p + q.scale(a)).collect();
        assert!(rel_l2_c32(&lhs, &rhs) < 1e-4);
    });
}

#[test]
fn parseval() {
    prop_check("parseval", 0xFF7_0005, 32, |rng| {
        let x = rng.gen_c32_vec(90, 10.0);
        let plan = Fft::new(90);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.to_f64().norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.to_f64().norm_sqr()).sum();
        assert!((ey / 90.0 - ex).abs() <= 1e-4 * ex.max(1.0));
    });
}

#[test]
fn circular_shift_theorem() {
    prop_check("circular_shift_theorem", 0xFF7_0006, 32, |rng| {
        let x = rng.gen_c32_vec(32, 10.0);
        let shift = rng.gen_usize(0..32);
        // FFT of circularly shifted signal = phase ramp × FFT.
        let plan = Fft::new(32);
        let mut shifted = x.clone();
        shifted.rotate_right(shift);
        plan.forward(&mut shifted);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        for (k, (s, f)) in shifted.iter().zip(&fx).enumerate() {
            let ph = Complex64::cis(-core::f64::consts::TAU * (shift * k % 32) as f64 / 32.0);
            let want = (f.to_f64() * ph).to_f32();
            assert!(
                (s.re - want.re).abs() < 2e-3 && (s.im - want.im).abs() < 2e-3,
                "shift={shift} k={k}"
            );
        }
    });
}

/// The batched (tiled) path must be *bit-identical* to the per-line path
/// for every shape, direction, and ISA level — the contract that lets the
/// scheduler pick either path freely. Shapes cover batched mixed-radix
/// strided axes (96 = 2⁵·3, 120, 126 = 2·3²·7), a Bluestein extent (31)
/// that exercises the per-line fallback, 3D remainder tiles, and on the
/// contiguous axis packed runs (`[8, 96]`), a leftover line (`[5, 60]`:
/// five lines at width 2 or 4), radix 3 at m = 15 and m = 5 with radix 5 at
/// m = 1 (`[6, 45]`: 45 = 3·3·5), and a 3D grid (`[3, 4, 40]`). Every case
/// runs every shape.
#[test]
fn batched_bit_identical_to_per_line_under_isa_overrides() {
    use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
    const SHAPES: [&[usize]; 10] = [
        &[96, 8],
        &[120, 5],
        &[31, 12],
        &[8, 126],
        &[16, 3, 10],
        &[12, 18],
        &[8, 96],
        &[5, 60],
        &[6, 45],
        &[3, 4, 40],
    ];
    let detected = detect_isa();
    let levels = [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma];
    prop_check("batched_bit_identical_to_per_line", 0xFF7_0008, 16, |rng| {
        for shape in SHAPES {
            let len: usize = shape.iter().product();
            let x = rng.gen_c32_vec(len, 2.0);
            let plan = FftNd::new(shape);
            for &level in levels.iter().filter(|&&l| l <= detected) {
                set_isa_override(level).unwrap();
                for dir in [Direction::Forward, Direction::Backward] {
                    let mut batched = x.clone();
                    plan.process(&mut batched, dir);
                    let mut per_line = x.clone();
                    plan.process_per_line(&mut per_line, dir);
                    for (i, (g, w)) in batched.iter().zip(&per_line).enumerate() {
                        assert!(
                            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                            "shape {shape:?} {dir:?} {} i={i}: {g:?} vs {w:?}",
                            level.name()
                        );
                    }
                }
            }
        }
        set_isa_override(detected).unwrap();
    });
}

#[test]
fn nd_round_trip() {
    prop_check("nd_round_trip", 0xFF7_0007, 32, |rng| {
        let a = rng.gen_usize(1..8);
        let b = rng.gen_usize(1..8);
        let c = rng.gen_usize(1..8);
        let x = rng.gen_c32_vec(a * b * c, 1.0);
        let plan = FftNd::new(&[a, b, c]);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert!(rel_l2_c32(&y, &x) < 1e-4, "dims [{a}, {b}, {c}]");
    });
}
