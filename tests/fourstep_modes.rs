//! Four-step vs recursive FFT strategy at the full-operator level.
//!
//! The `nufft-fft` unit tests pin per-transform bit identity; this matrix
//! pins the end-to-end contract the scheduler relies on: a plan forced to
//! `FftStrategy::FourStep` produces **bitwise-identical** output to the
//! recursive plan for all four operators, at every ISA level the host
//! supports, at 1/2/4 threads (the fused DAG's sub-FFT/transpose shard
//! nodes; `FftOp::apply`'s two-pass driver is pinned by
//! `tests/fft_pruning.rs`). Geometries cover a mixed-radix power-of-two-times-three
//! axis (96), a three-prime axis (120), and a Bluestein axis (31 — the
//! four-step plan must fall back to recursive there and still agree).
//!
//! The CI stress step re-runs this binary with `NUFFT_THREADS=16` to
//! oversubscribe the shard scheduling.

use nufft::core::{NufftConfig, NufftPlan, PlanRegistry};
use nufft::fft::{FftStrategy, DEFAULT_LLC_BUDGET};
use nufft::math::Complex32;
use nufft::simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes tests: the ISA override is process-global.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn traj2(count: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| [((i as f64 * 0.618) % 1.0) - 0.5, ((i as f64 * 0.414) % 1.0) - 0.5])
        .collect()
}

fn signal(n: usize, phase: f32) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * 0.13 + phase).sin(), (i as f32 * 0.07).cos()))
        .collect()
}

fn assert_bits_eq(a: &[Complex32], b: &[Complex32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(
            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
            "{what}: element {i} differs: {p:?} vs {q:?}"
        );
    }
}

fn plan_cfg(threads: usize, strategy: FftStrategy, alpha: f64) -> NufftConfig {
    NufftConfig {
        threads,
        w: 3.0,
        alpha,
        partitions_per_dim: Some(4),
        fft_strategy: strategy,
        ..NufftConfig::default()
    }
}

/// All four operators, forced four-step vs recursive, bitwise.
fn check_fourstep_matches_recursive(n: [usize; 2], alpha: f64, threads: usize, label: &str) {
    let traj = traj2(350);
    let img_len = n[0] * n[1];
    let k = traj.len();
    let channels = 2usize;

    let mut four = NufftPlan::new(n, &traj, plan_cfg(threads, FftStrategy::FourStep, alpha));
    let mut rec = NufftPlan::new(n, &traj, plan_cfg(threads, FftStrategy::Recursive, alpha));

    let image = signal(img_len, 0.0);
    let samples = signal(k, 1.3);

    // forward
    let mut out_f = vec![Complex32::ZERO; k];
    let mut out_r = vec![Complex32::ZERO; k];
    four.forward(&image, &mut out_f);
    rec.forward(&image, &mut out_r);
    assert_bits_eq(&out_f, &out_r, &format!("{label}: forward"));

    // adjoint
    let mut img_f = vec![Complex32::ZERO; img_len];
    let mut img_r = vec![Complex32::ZERO; img_len];
    four.adjoint(&samples, &mut img_f);
    rec.adjoint(&samples, &mut img_r);
    assert_bits_eq(&img_f, &img_r, &format!("{label}: adjoint"));

    // forward_batch
    let images: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(img_len, c as f32)).collect();
    let image_refs: Vec<&[Complex32]> = images.iter().map(|v| v.as_slice()).collect();
    let mut bout_f = vec![vec![Complex32::ZERO; k]; channels];
    let mut bout_r = vec![vec![Complex32::ZERO; k]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bout_f.iter_mut().map(|v| v.as_mut_slice()).collect();
        four.forward_batch(&image_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bout_r.iter_mut().map(|v| v.as_mut_slice()).collect();
        rec.forward_batch(&image_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bout_f[c], &bout_r[c], &format!("{label}: forward_batch ch{c}"));
    }

    // adjoint_batch
    let datas: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(k, 2.0 + c as f32)).collect();
    let data_refs: Vec<&[Complex32]> = datas.iter().map(|v| v.as_slice()).collect();
    let mut bimg_f = vec![vec![Complex32::ZERO; img_len]; channels];
    let mut bimg_r = vec![vec![Complex32::ZERO; img_len]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_f.iter_mut().map(|v| v.as_mut_slice()).collect();
        four.adjoint_batch(&data_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_r.iter_mut().map(|v| v.as_mut_slice()).collect();
        rec.adjoint_batch(&data_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bimg_f[c], &bimg_r[c], &format!("{label}: adjoint_batch ch{c}"));
    }
}

/// Grid-axis regimes: `(n, alpha)` pairs whose oversampled extents hit the
/// lengths named in the plan-selection design — 96 = 2⁵·3 (mixed radix),
/// 120 = 2³·3·5 (three primes), 31 (prime → Bluestein, four-step falls
/// back to recursive on that axis and must still match): `round(1.25·25)`
/// = 31 keeps the oversampling above the Kaiser–Bessel β's `α > 1` floor.
const GEOMETRIES: [([usize; 2], f64); 3] = [([48, 8], 2.0), ([60, 5], 2.0), ([25, 13], 1.25)];

#[test]
fn fourstep_matches_recursive_bitwise_across_isa_threads_and_modes() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let detected = detect_isa();
    for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if isa > detected {
            continue;
        }
        set_isa_override(isa).unwrap();
        for (n, alpha) in GEOMETRIES {
            for threads in [1usize, 2, 4] {
                let label = format!("n={n:?} alpha={alpha} isa={isa:?} threads={threads}");
                check_fourstep_matches_recursive(n, alpha, threads, &label);
            }
        }
    }
    set_isa_override(detected).unwrap();
}

/// Worker count for the oversubscription stress: `NUFFT_THREADS` override
/// (CI runs 16), else 8.
fn env_threads() -> usize {
    std::env::var("NUFFT_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(8)
}

/// Oversubscribed fused four-step: many more workers than shard-level
/// parallelism per chunk, repeated applies on one plan — the schedule
/// varies run to run, the bits may not.
#[test]
fn fourstep_fused_stress_oversubscribed() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let threads = env_threads();
    let n = [48usize, 8];
    let traj = traj2(500);
    let img_len = n[0] * n[1];
    let image = signal(img_len, 0.4);
    let samples = signal(traj.len(), 2.2);

    let mut four = NufftPlan::new(n, &traj, plan_cfg(threads, FftStrategy::FourStep, 2.0));
    let mut rec = NufftPlan::new(n, &traj, plan_cfg(threads, FftStrategy::Recursive, 2.0));

    let mut out_r = vec![Complex32::ZERO; traj.len()];
    let mut img_r = vec![Complex32::ZERO; img_len];
    rec.forward(&image, &mut out_r);
    rec.adjoint(&samples, &mut img_r);

    let mut out_f = vec![Complex32::ZERO; traj.len()];
    let mut img_f = vec![Complex32::ZERO; img_len];
    for round in 0..10 {
        four.forward(&image, &mut out_f);
        assert_bits_eq(&out_f, &out_r, &format!("round {round}: forward"));
        four.adjoint(&samples, &mut img_f);
        assert_bits_eq(&img_f, &img_r, &format!("round {round}: adjoint"));
    }
}

/// Forced-strategy plans must never alias in the registry: a four-step
/// instance owns an `fs` transpose buffer and a differently sharded fused
/// DAG, so `PlanKey` keeps strategy (and the Auto budget) apart even
/// though outputs are bitwise-identical.
#[test]
fn forced_strategy_plans_never_alias_in_registry() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = [16usize, 16];
    let traj = traj2(120);
    let mk = |strategy, budget| {
        let cfg = NufftConfig {
            threads: 1,
            w: 3.0,
            fft_strategy: strategy,
            fft_llc_budget: budget,
            ..NufftConfig::default()
        };
        PlanRegistry::<2>::new(cfg)
    };
    let auto = mk(FftStrategy::Auto, DEFAULT_LLC_BUDGET);
    let rec = mk(FftStrategy::Recursive, DEFAULT_LLC_BUDGET);
    let four = mk(FftStrategy::FourStep, DEFAULT_LLC_BUDGET);
    let tight = mk(FftStrategy::Auto, 0);

    let keys = [
        auto.key_of(n, &traj),
        rec.key_of(n, &traj),
        four.key_of(n, &traj),
        tight.key_of(n, &traj),
    ];
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "registry keys {i} and {j} alias");
        }
    }

    // Sanity: the differently keyed plans still agree bitwise.
    let samples = signal(traj.len(), 0.9);
    let mut img_a = vec![Complex32::ZERO; 256];
    let mut img_b = vec![Complex32::ZERO; 256];
    rec.checkout(n, &traj).adjoint(&samples, &mut img_a);
    four.checkout(n, &traj).adjoint(&samples, &mut img_b);
    assert_bits_eq(&img_a, &img_b, "registry-held strategies");
}
