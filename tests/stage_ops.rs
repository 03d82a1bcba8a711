//! The stage-graph contract: the public `SpreadOp` / `InterpOp` / `FftOp`
//! / `DeconvOp` operators compose — through their documented buffer
//! contracts alone — into the exact monolithic operators, and the
//! standalone `spread_only` / `interp_only` entry points agree across
//! execution modes.
//!
//! These tests are what lets downstream users build custom pipelines
//! (density estimation, gridding-only recon steps) out of stages without
//! losing the plan paths' determinism guarantees.

use nufft::core::plan::ExecMode;
use nufft::core::{FftOp, InterpOp, NufftConfig, NufftPlan, SpreadOp};
use nufft::fft::Direction;
use nufft::math::{Complex32, Complex64};
use nufft::parallel::exec::Executor;
use nufft_testkit::Rng;

fn assert_bitwise(a: &[Complex32], b: &[Complex32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} differs: {x:?} vs {y:?}"
        );
    }
}

fn traj2(count: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| [((i as f64 * 0.618) % 1.0) - 0.5, ((i as f64 * 0.414) % 1.0) - 0.5])
        .collect()
}

fn cfg(threads: usize, mode: ExecMode) -> NufftConfig {
    NufftConfig {
        threads,
        w: 3.0,
        partitions_per_dim: Some(4),
        exec_mode: mode,
        ..NufftConfig::default()
    }
}

/// `spread_only` under the fused spread DAG and the phased scatter driver
/// produce bitwise-identical grids — the spread fragment emitted by
/// `build_spread` is the same graph slice the full adjoint uses.
#[test]
fn spread_only_fused_matches_phased_bitwise() {
    let traj = traj2(400);
    let samples = Rng::seed_from_u64(31).gen_c32_vec(traj.len(), 1.0);
    for threads in [1usize, 2, 4] {
        let mut phased = NufftPlan::new([24, 24], &traj, cfg(threads, ExecMode::Phased));
        let mut fused = NufftPlan::new([24, 24], &traj, cfg(threads, ExecMode::Fused));
        let mut gp = vec![Complex32::ZERO; phased.grid_len()];
        let mut gf = vec![Complex32::ZERO; fused.grid_len()];
        // Two rounds: the first builds the fused spread DAG lazily, the
        // second runs it warm.
        for round in 0..2 {
            phased.spread_only(&samples, &mut gp);
            fused.spread_only(&samples, &mut gf);
            assert_bitwise(&gp, &gf, &format!("spread_only at {threads} threads round {round}"));
        }
    }
}

/// Manually composing the plan's public stages — `spread_only`, then a
/// freshly planned `FftOp` (same shape/strategy), then
/// `DeconvOp::extract` — reproduces `NufftPlan::adjoint` bitwise.
#[test]
fn stages_compose_to_adjoint_bitwise() {
    let traj = traj2(500);
    let samples = Rng::seed_from_u64(47).gen_c32_vec(traj.len(), 1.0);
    let c = cfg(2, ExecMode::Phased);
    let mut plan = NufftPlan::new([20, 20], &traj, c);

    let mut want = vec![Complex32::ZERO; 20 * 20];
    plan.adjoint(&samples, &mut want);

    let geo = *plan.deconv_op().geometry();
    let exec = Executor::new(c.threads);
    let mut fft = FftOp::plan(&geo.m, c.fft_strategy, c.fft_llc_budget, c.threads);
    let mut grid = vec![Complex32::ZERO; plan.grid_len()];
    plan.spread_only(&samples, &mut grid);
    fft.apply(&exec, &mut grid, Direction::Backward);
    let mut got = vec![Complex32::ZERO; 20 * 20];
    plan.deconv_op().extract(&grid, &mut got);

    assert_bitwise(&want, &got, "stage-composed adjoint");
}

/// The forward direction composes the same way: `DeconvOp::embed`, a
/// forward `FftOp`, then `interp_only` equals `NufftPlan::forward`.
#[test]
fn stages_compose_to_forward_bitwise() {
    let traj = traj2(500);
    let image = Rng::seed_from_u64(53).gen_c32_vec(20 * 20, 1.0);
    let c = cfg(2, ExecMode::Phased);
    let mut plan = NufftPlan::new([20, 20], &traj, c);

    let mut want = vec![Complex32::ZERO; traj.len()];
    plan.forward(&image, &mut want);

    let geo = *plan.deconv_op().geometry();
    let exec = Executor::new(c.threads);
    let mut fft = FftOp::plan(&geo.m, c.fft_strategy, c.fft_llc_budget, c.threads);
    let mut grid = vec![Complex32::ZERO; plan.grid_len()];
    plan.deconv_op().embed(&image, &mut grid);
    fft.apply(&exec, &mut grid, Direction::Forward);
    let mut got = vec![Complex32::ZERO; traj.len()];
    plan.interp_only(&grid, &mut got);

    assert_bitwise(&want, &got, "stage-composed forward");
}

/// Standalone `SpreadOp` / `InterpOp` planned directly from grid-unit
/// coordinates (no `NufftPlan`) are exact transposes: the dot test
/// ⟨S·x, g⟩ == ⟨x, Sᵀ·g⟩ holds to f32 round-off, because both sides
/// gather/scatter through the identical per-sample windows.
#[test]
fn standalone_spread_interp_are_transposes() {
    let m = [28usize, 28];
    let coords: Vec<[f32; 2]> = (0..350)
        .map(|i| [((i as f32 * 0.618) % 1.0) * 28.0, ((i as f32 * 0.414) % 1.0) * 28.0])
        .collect();
    let c = NufftConfig { threads: 2, w: 3.0, ..NufftConfig::default() };
    let exec = Executor::new(c.threads);
    let mut spread = SpreadOp::plan(m, coords.clone(), &c, &exec);
    let interp = InterpOp::from_spread(&spread);
    assert_eq!(spread.grid_extents(), m);
    assert_eq!(spread.grid_len(), interp.grid_len());

    let x = Rng::seed_from_u64(61).gen_c32_vec(coords.len(), 1.0);
    let g = Rng::seed_from_u64(62).gen_c32_vec(spread.grid_len(), 1.0);

    let mut sx = vec![Complex32::ZERO; spread.grid_len()];
    spread.apply(&exec, nufft::parallel::exec::JobPriority::Normal, &x, &mut sx);
    let mut stg = vec![Complex32::ZERO; coords.len()];
    interp.apply(&exec, &g, &mut stg);

    let lhs: Complex64 = sx.iter().zip(&g).map(|(&a, &b)| a.to_f64().conj() * b.to_f64()).sum();
    let rhs: Complex64 = x.iter().zip(&stg).map(|(&a, &b)| a.to_f64().conj() * b.to_f64()).sum();
    let scale = lhs.abs().max(rhs.abs()).max(1e-9);
    assert!(
        (lhs - rhs).abs() / scale < 1e-4,
        "spread/interp transpose dot test: {lhs:?} vs {rhs:?}"
    );
}

/// `interp_only` agrees with the plan's own interp stage applied by hand,
/// and is a pure gather: the input grid is untouched.
#[test]
fn interp_only_matches_stage_apply() {
    let traj = traj2(300);
    let c = cfg(2, ExecMode::Phased);
    let plan = NufftPlan::new([16, 16], &traj, c);
    let exec = Executor::new(c.threads);
    let grid = Rng::seed_from_u64(71).gen_c32_vec(plan.grid_len(), 1.0);
    let grid_before = grid.clone();

    let mut a = vec![Complex32::ZERO; traj.len()];
    plan.interp_only(&grid, &mut a);
    let mut b = vec![Complex32::ZERO; traj.len()];
    plan.interp_op().apply(&exec, &grid, &mut b);

    assert_bitwise(&a, &b, "interp_only vs InterpOp::apply");
    assert_bitwise(&grid, &grid_before, "interp input grid must be untouched");
}

/// The standalone scatter is bitwise-stable across worker counts once the
/// layout is pinned (partitions fixed, privatization off) — same contract
/// as `tests/determinism.rs` for the in-plan path.
#[test]
fn standalone_spread_is_deterministic_across_threads() {
    let m = [24usize, 24];
    let coords: Vec<[f32; 2]> = (0..320)
        .map(|i| [((i as f32 * 0.377) % 1.0) * 24.0, ((i as f32 * 0.709) % 1.0) * 24.0])
        .collect();
    let x = Rng::seed_from_u64(83).gen_c32_vec(coords.len(), 1.0);
    let mut grids = Vec::new();
    for threads in [1usize, 2, 4] {
        let c = NufftConfig {
            threads,
            w: 3.0,
            partitions_per_dim: Some(4),
            privatization: false,
            ..NufftConfig::default()
        };
        let exec = Executor::new(threads);
        let mut spread = SpreadOp::plan(m, coords.clone(), &c, &exec);
        let mut g = vec![Complex32::ZERO; spread.grid_len()];
        spread.apply(&exec, nufft::parallel::exec::JobPriority::Normal, &x, &mut g);
        grids.push(g);
    }
    assert_bitwise(&grids[0], &grids[1], "standalone spread 2 threads vs 1");
    assert_bitwise(&grids[0], &grids[2], "standalone spread 4 threads vs 1");
}
