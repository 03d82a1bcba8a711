//! Sort-mode equality: a plan built with the tile-major bin sort must
//! produce **bitwise-identical** operator output to an unsorted plan — at
//! every ISA level, at every thread count, for all four operators.
//!
//! This is the tripwire for the determinism rule (DESIGN.md §14): the
//! adjoint scatter visits samples in the canonical tile-major order under
//! *every* [`SortMode`] (via the plan-time `scan` indirection when storage
//! is unsorted), and the forward gather is a pure per-sample read written
//! back at the caller's original position — so equality holds by
//! construction, and these tests keep it that way. The shuffled trajectory
//! is the adversarial input: maximal disorder, so any visit-order slip
//! shows up as a different floating-point accumulation immediately.

use nufft_core::{NufftConfig, NufftPlan, SortMode};
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes every test that applies operators: the ISA override is
/// process-global, so a concurrent test could flip the dispatch level
/// between two applies that are being compared bitwise.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_guard() -> std::sync::MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

fn cfg(threads: usize, sort: SortMode) -> NufftConfig {
    NufftConfig {
        threads,
        w: 3.0,
        // Pin the task decomposition so the comparison varies only the
        // sample layout (and ISA / thread count), never the partitioning.
        partitions_per_dim: Some(4),
        sort,
        ..NufftConfig::default()
    }
}

/// Applies all four operators with both sort modes and asserts every
/// output pair is bit-identical. `channels = 3` exercises both the paired
/// and the remainder lane of the channel loop.
fn check_all_ops_match(traj: &[[f64; 2]], threads: usize, label: &str) {
    let n = [16usize, 16];
    let img_len = 256;
    let k = traj.len();
    let channels = 3usize;

    let mut unsorted = NufftPlan::new(n, traj, cfg(threads, SortMode::None));
    let mut sorted = NufftPlan::new(n, traj, cfg(threads, SortMode::TileMajor));
    assert_eq!(unsorted.sort_mode(), SortMode::None, "{label}");
    assert_eq!(sorted.sort_mode(), SortMode::TileMajor, "{label}");

    let image = signal(img_len, 0.0);
    let samples = signal(k, 1.3);

    // forward
    let mut out_u = vec![Complex32::ZERO; k];
    let mut out_s = vec![Complex32::ZERO; k];
    unsorted.forward(&image, &mut out_u);
    sorted.forward(&image, &mut out_s);
    assert_bits_eq(&out_u, &out_s, &format!("{label}: forward"));

    // adjoint
    let mut img_u = vec![Complex32::ZERO; img_len];
    let mut img_s = vec![Complex32::ZERO; img_len];
    unsorted.adjoint(&samples, &mut img_u);
    sorted.adjoint(&samples, &mut img_s);
    assert_bits_eq(&img_u, &img_s, &format!("{label}: adjoint"));

    // forward_batch
    let images: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(img_len, c as f32)).collect();
    let image_refs: Vec<&[Complex32]> = images.iter().map(|v| v.as_slice()).collect();
    let mut bout_u = vec![vec![Complex32::ZERO; k]; channels];
    let mut bout_s = vec![vec![Complex32::ZERO; k]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bout_u.iter_mut().map(|v| v.as_mut_slice()).collect();
        unsorted.forward_batch(&image_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bout_s.iter_mut().map(|v| v.as_mut_slice()).collect();
        sorted.forward_batch(&image_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bout_u[c], &bout_s[c], &format!("{label}: forward_batch ch{c}"));
    }

    // adjoint_batch
    let datas: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(k, 2.0 + c as f32)).collect();
    let data_refs: Vec<&[Complex32]> = datas.iter().map(|v| v.as_slice()).collect();
    let mut bimg_u = vec![vec![Complex32::ZERO; img_len]; channels];
    let mut bimg_s = vec![vec![Complex32::ZERO; img_len]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_u.iter_mut().map(|v| v.as_mut_slice()).collect();
        unsorted.adjoint_batch(&data_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_s.iter_mut().map(|v| v.as_mut_slice()).collect();
        sorted.adjoint_batch(&data_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bimg_u[c], &bimg_s[c], &format!("{label}: adjoint_batch ch{c}"));
    }
}

#[test]
fn sorted_matches_unsorted_bitwise_across_isa_and_threads() {
    let _guard = isa_guard();
    // The worst case the sort exists for: a shuffled random trajectory.
    let traj = nufft_traj::shuffled_2d(25, 14, 0.15, 11).points;
    let detected = detect_isa();
    for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if isa > detected {
            continue;
        }
        set_isa_override(isa).unwrap();
        for threads in [1usize, 2, 4] {
            check_all_ops_match(&traj, threads, &format!("isa={isa:?} threads={threads}"));
        }
    }
    set_isa_override(detected).unwrap();
}

#[test]
fn auto_resolves_per_trajectory_and_stays_bitwise() {
    let _guard = isa_guard();
    let n = [16usize, 16];

    // Shuffled (disordered) → TileMajor; radial spokes (ordered) → None.
    let shuffled = nufft_traj::shuffled_2d(25, 12, 0.15, 3).points;
    let radial = nufft_traj::radial_2d(25, 12, 3).points;
    let auto_sh = NufftPlan::new(n, &shuffled, cfg(2, SortMode::Auto));
    assert_eq!(auto_sh.sort_mode(), SortMode::TileMajor, "shuffled should sort");
    let auto_ra = NufftPlan::new(n, &radial, cfg(2, SortMode::Auto));
    assert_eq!(auto_ra.sort_mode(), SortMode::None, "radial spokes should not");

    // And Auto output is bitwise-equal to both explicit modes.
    let image = signal(256, 0.4);
    let mut auto_sh = auto_sh;
    let mut none = NufftPlan::new(n, &shuffled, cfg(2, SortMode::None));
    let mut out_a = vec![Complex32::ZERO; shuffled.len()];
    let mut out_n = vec![Complex32::ZERO; shuffled.len()];
    auto_sh.forward(&image, &mut out_a);
    none.forward(&image, &mut out_n);
    assert_bits_eq(&out_a, &out_n, "auto forward vs explicit None");
}

#[test]
fn tile_revisits_expose_the_locality_win() {
    let _guard = isa_guard();
    let n = [32usize, 32];
    let traj = nufft_traj::shuffled_2d(40, 25, 0.15, 17).points;
    let sorted = NufftPlan::new(n, &traj, cfg(2, SortMode::TileMajor));
    let unsorted = NufftPlan::new(n, &traj, cfg(2, SortMode::None));
    // The observable: the shuffled walk re-enters tiles constantly, the
    // sorted walk streams them. The canonical (scatter) walk is shared.
    assert!(
        sorted.gather_tile_revisits() * 2 < unsorted.gather_tile_revisits(),
        "sorted {} vs unsorted {} revisits",
        sorted.gather_tile_revisits(),
        unsorted.gather_tile_revisits()
    );
    assert_eq!(sorted.scatter_tile_revisits(), unsorted.scatter_tile_revisits());

    // And it lands in the per-run stats of both scatter paths: the fused
    // adjoint graph and the spread stage driver behind `spread_only`.
    let samples = signal(traj.len(), 0.7);
    let mut img = vec![Complex32::ZERO; 32 * 32];
    let mut plan = NufftPlan::new(n, &traj, cfg(2, SortMode::TileMajor));
    plan.adjoint(&samples, &mut img);
    let stats = plan.last_run_stats().expect("adjoint records stats");
    assert_eq!(stats.tile_revisits, plan.scatter_tile_revisits(), "adjoint");
    let mut grid = vec![Complex32::ZERO; plan.grid_len()];
    plan.spread_only(&samples, &mut grid);
    let stats = plan.last_run_stats().expect("spread_only records stats");
    assert_eq!(stats.tile_revisits, plan.scatter_tile_revisits(), "spread_only");
}
