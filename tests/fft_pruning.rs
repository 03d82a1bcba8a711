//! Zero-aware oversampled FFT passes at the full-operator level.
//!
//! A plan's forward FFT skips the tiles an embed leaves all-zero, and its
//! adjoint FFT skips the tiles the extract never reads (DESIGN.md §9,
//! "zero-aware passes"). Neither may change a bit: this matrix pins
//! `forward`, `adjoint`, `forward_batch` and `adjoint_batch` to the stage
//! composition through a **full** `FftOp::apply` —
//! `DeconvOp::embed → FftOp → interp_only` forward and
//! `spread_only → FftOp → DeconvOp::extract` adjoint — across dimension,
//! even and odd extents (band edges off the tile width, so some tiles lie
//! only partly in the band), oversampling, FFT strategy, ISA level, thread
//! count and channel count. It also pins the tile counts the passes run,
//! which repeat exactly.
//!
//! The CI stress step re-runs this binary with `NUFFT_THREADS=16` to
//! oversubscribe the pruned fused graphs.

use nufft::core::{FftOp, NufftConfig, NufftPlan};
use nufft::fft::{Direction, FftStrategy};
use nufft::math::Complex32;
use nufft::parallel::exec::Executor;
use nufft::simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes tests: the ISA override is process-global.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic quasi-random points in `[-1/2, 1/2)^D`.
fn traj<const D: usize>(count: usize) -> Vec<[f64; D]> {
    const STEPS: [f64; 3] = [0.618_033_988, 0.414_213_562, 0.732_050_808];
    (0..count)
        .map(|i| core::array::from_fn(|d| ((i as f64 + 0.5) * STEPS[d]) % 1.0 - 0.5))
        .collect()
}

fn signal(n: usize, phase: f32) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * 0.13 + phase).sin(), (i as f32 * 0.07 - phase).cos()))
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
    NufftConfig { threads, w: 3.0, alpha, fft_strategy: strategy, ..NufftConfig::default() }
}

/// The reference: every operator as a stage composition through a full
/// `FftOp::apply` planned like the plan's own FFT stage.
struct Reference<const D: usize> {
    fft: FftOp,
    exec: Executor,
}

impl<const D: usize> Reference<D> {
    fn new(plan: &NufftPlan<D>) -> Self {
        let c = plan.config();
        let m = plan.geometry().m;
        Reference {
            fft: FftOp::plan(&m, c.fft_strategy, c.fft_llc_budget, c.threads),
            exec: Executor::new(c.threads),
        }
    }

    fn forward(&mut self, plan: &NufftPlan<D>, image: &[Complex32]) -> Vec<Complex32> {
        let mut grid = vec![Complex32::ZERO; plan.grid_len()];
        plan.deconv_op().embed(image, &mut grid);
        self.fft.apply(&self.exec, &mut grid, Direction::Forward);
        let mut out = vec![Complex32::ZERO; plan.num_samples()];
        plan.interp_only(&grid, &mut out);
        out
    }

    fn adjoint(&mut self, plan: &mut NufftPlan<D>, samples: &[Complex32]) -> Vec<Complex32> {
        let mut grid = vec![Complex32::ZERO; plan.grid_len()];
        plan.spread_only(samples, &mut grid);
        self.fft.apply(&self.exec, &mut grid, Direction::Backward);
        let mut out = vec![Complex32::ZERO; plan.image_len()];
        plan.deconv_op().extract(&grid, &mut out);
        out
    }
}

/// All four operators of `plan` against the full-FFT stage composition,
/// bitwise: single applies (one channel) and batched applies over
/// `CHANNELS` channels. Each operator runs twice, so the second apply
/// starts from the grids (and four-step `fs` buffers) the first one left.
fn check_plan<const D: usize>(plan: &mut NufftPlan<D>, label: &str) {
    const CHANNELS: usize = 3;
    let mut reference = Reference::new(plan);
    let (img_len, k) = (plan.image_len(), plan.num_samples());
    let images: Vec<Vec<Complex32>> = (0..CHANNELS).map(|c| signal(img_len, c as f32)).collect();
    let datas: Vec<Vec<Complex32>> = (0..CHANNELS).map(|c| signal(k, 1.7 + c as f32)).collect();
    let want_fwd: Vec<Vec<Complex32>> =
        images.iter().map(|im| reference.forward(plan, im)).collect();
    let want_adj: Vec<Vec<Complex32>> = datas.iter().map(|d| reference.adjoint(plan, d)).collect();

    for round in 0..2 {
        let mut out = vec![Complex32::ZERO; k];
        plan.forward(&images[0], &mut out);
        assert_bits_eq(&out, &want_fwd[0], &format!("{label} round {round}: forward"));

        let mut img = vec![Complex32::ZERO; img_len];
        plan.adjoint(&datas[0], &mut img);
        assert_bits_eq(&img, &want_adj[0], &format!("{label} round {round}: adjoint"));

        let image_refs: Vec<&[Complex32]> = images.iter().map(|v| v.as_slice()).collect();
        let mut outs = vec![vec![Complex32::ZERO; k]; CHANNELS];
        {
            let mut refs: Vec<&mut [Complex32]> =
                outs.iter_mut().map(|v| v.as_mut_slice()).collect();
            plan.forward_batch(&image_refs, &mut refs);
        }
        for c in 0..CHANNELS {
            let what = format!("{label} round {round}: forward_batch ch{c}");
            assert_bits_eq(&outs[c], &want_fwd[c], &what);
        }

        let data_refs: Vec<&[Complex32]> = datas.iter().map(|v| v.as_slice()).collect();
        let mut imgs = vec![vec![Complex32::ZERO; img_len]; CHANNELS];
        {
            let mut refs: Vec<&mut [Complex32]> =
                imgs.iter_mut().map(|v| v.as_mut_slice()).collect();
            plan.adjoint_batch(&data_refs, &mut refs);
        }
        for c in 0..CHANNELS {
            let what = format!("{label} round {round}: adjoint_batch ch{c}");
            assert_bits_eq(&imgs[c], &want_adj[c], &what);
        }
    }
}

/// Whether some axis of `plan` skips tiles in some direction — so the
/// matrix really exercises the zero-aware passes. (At α = 1.25 the band
/// can cover every 4-line tile of an axis, and then only the adjoint
/// skips.)
fn skips_tiles<const D: usize>(plan: &NufftPlan<D>) -> bool {
    [Direction::Forward, Direction::Backward]
        .iter()
        .any(|&dir| plan.fft_tiles(dir).iter().any(|&(run, total)| run < total))
}

/// Image extents per dimension, each checked at α = 2 and α = 1.25. The
/// odd extents put the band edges `N − ⌊N/2⌋` and `M − ⌊N/2⌋` off the
/// tile width (e.g. N = 7, M = 14: edges 4 and 11), so some forward tiles
/// hold band and non-band lines; the even ones land their edges on even
/// indices (N = 12, M = 24: edges 6 and 18, off the AVX2 width of 4).
/// N = 15 at α = 1.25 gives M = 19, a Bluestein axis.
const GEOMETRIES_2D: [[usize; 2]; 3] = [[10, 7], [12, 12], [12, 15]];
const GEOMETRIES_3D: [[usize; 3]; 2] = [[8, 6, 7], [6, 8, 6]];
const ALPHAS: [f64; 2] = [2.0, 1.25];
const ISAS: [IsaLevel; 4] =
    [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma];

fn sweep<const D: usize>(geometries: &[[usize; D]], samples: usize) {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let detected = detect_isa();
    let traj = traj::<D>(samples);
    for isa in ISAS {
        if isa > detected {
            continue;
        }
        set_isa_override(isa).expect("level at or below the detected one");
        for &n in geometries {
            for alpha in ALPHAS {
                for strategy in [FftStrategy::Recursive, FftStrategy::FourStep] {
                    for threads in [1usize, 2, 4] {
                        let label = format!(
                            "n={n:?} alpha={alpha} {strategy:?} isa={isa:?} threads={threads}"
                        );
                        let mut plan = NufftPlan::new(n, &traj, plan_cfg(threads, strategy, alpha));
                        assert!(skips_tiles(&plan), "{label}: no tile skipped");
                        check_plan(&mut plan, &label);
                    }
                }
            }
        }
    }
    set_isa_override(detected).expect("detected level");
}

#[test]
fn pruned_2d_matches_full_fft_composition_bitwise() {
    sweep::<2>(&GEOMETRIES_2D, 300);
}

#[test]
fn pruned_3d_matches_full_fft_composition_bitwise() {
    sweep::<3>(&GEOMETRIES_3D, 400);
}

/// Worker count for the oversubscription stress: `NUFFT_THREADS` override
/// (CI runs 16), else 8.
fn env_threads() -> usize {
    std::env::var("NUFFT_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(8)
}

/// Oversubscribed pruned fused graphs, recursive and four-step: many more
/// workers than FFT chunks per axis, so the slab → later-axis edges of
/// skipped forward tiles race for real; repeated applies vary the
/// schedule, the bits may not.
#[test]
fn pruned_fused_stress_oversubscribed() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let threads = env_threads();
    let traj = traj::<3>(600);
    for strategy in [FftStrategy::Recursive, FftStrategy::FourStep] {
        let cfg = plan_cfg(threads, strategy, 2.0);
        let mut plan = NufftPlan::new([10, 7, 9], &traj, cfg);
        let mut reference = Reference::new(&plan);
        let image = signal(plan.image_len(), 0.4);
        let samples = signal(plan.num_samples(), 2.2);
        let want_fwd = reference.forward(&plan, &image);
        let want_adj = reference.adjoint(&mut plan, &samples);
        let mut out = vec![Complex32::ZERO; plan.num_samples()];
        let mut img = vec![Complex32::ZERO; plan.image_len()];
        for round in 0..10 {
            plan.forward(&image, &mut out);
            assert_bits_eq(&out, &want_fwd, &format!("{strategy:?} round {round}: forward"));
            plan.adjoint(&samples, &mut img);
            assert_bits_eq(&img, &want_adj, &format!("{strategy:?} round {round}: adjoint"));
        }
    }
}

/// The work the zero-aware passes remove, as exact tile counts at AVX2
/// (4-line tiles): `(run, total)` per axis. At α = 2 the forward runs
/// 1/4, 1/2 and all of the lines on the three axes of a 96³ grid, the
/// adjoint all, 1/2 and 1/4; in 2D it is 1/2 + 1 each way round.
#[test]
fn tile_counts_at_avx2() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let detected = detect_isa();
    if set_isa_override(IsaLevel::Avx2Fma).is_err() {
        eprintln!("tile_counts_at_avx2: host below AVX2+FMA ({detected:?}); skipped");
        return;
    }
    let cfg = NufftConfig { threads: 1, ..NufftConfig::default() };
    let p3 = NufftPlan::new([48, 48, 48], &traj::<3>(16), cfg);
    assert_eq!(p3.geometry().m, [96, 96, 96]);
    assert_eq!(p3.fft_tiles(Direction::Forward), [(576, 2304), (1152, 2304), (9216, 9216)]);
    assert_eq!(p3.fft_tiles(Direction::Backward), [(2304, 2304), (1152, 2304), (2304, 9216)]);

    let p2 = NufftPlan::new([256, 256], &traj::<2>(16), cfg);
    assert_eq!(p2.geometry().m, [512, 512]);
    assert_eq!(p2.fft_tiles(Direction::Forward), [(64, 128), (512, 512)]);
    assert_eq!(p2.fft_tiles(Direction::Backward), [(128, 128), (256, 512)]);

    // A 1D plan's one line holds the whole band: nothing to skip.
    let p1 = NufftPlan::new([64], &traj::<1>(16), cfg);
    assert_eq!(p1.fft_tiles(Direction::Forward), [(1, 1)]);
    assert_eq!(p1.fft_tiles(Direction::Backward), [(1, 1)]);
    set_isa_override(detected).expect("detected level");
}
