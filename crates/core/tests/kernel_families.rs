//! Kernel-family determinism matrix, run for each family (ES with its
//! Horner fast-eval path, Kaiser–Bessel with its LUT) over the full
//! StrictScalar/Scalar/SSE2/AVX2 × 1/2/4-thread grid:
//!
//! * **operator outputs** — `forward` and `adjoint`, each one fused task
//!   graph — are bitwise-identical to the composition of the plan's stage
//!   operators *at a fixed ISA level* — the repo's determinism contract
//!   (DESIGN.md §9/§14; Part 2 row convolution legitimately reassociates
//!   between ISA levels, so cross-ISA identity is not asserted at the
//!   operator level);
//! * **Part 1 windows** — where the new ES Horner evaluator actually
//!   dispatches per ISA (8-wide FMA on AVX2, fused scalar elsewhere) —
//!   are bitwise-identical *across* ISA levels for every kernel family,
//!   the stronger contract the Horner layer is built to keep;
//! * the `determinism.rs` cross-worker-count guarantee extends to the ES
//!   family in its 3D configuration.

use nufft_core::{FftOp, KernelChoice, NufftConfig, NufftPlan};
use nufft_fft::Direction;
use nufft_math::Complex32;
use nufft_parallel::exec::Executor;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes the tests: the ISA override is process-global.
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

fn cfg(family: KernelChoice, threads: usize) -> NufftConfig {
    NufftConfig {
        threads,
        // W = 3 (ns = 6): the ES kernel fits its Horner table here, so the
        // matrix genuinely exercises the dispatched fast path.
        w: 3.0,
        kernel: family,
        // Pin the task decomposition so only ISA / threads vary.
        partitions_per_dim: Some(4),
        ..NufftConfig::default()
    }
}

/// One full application of all four operators; the plan is built *under*
/// the active ISA override so plan-time window work is covered too.
fn run_all_ops(traj: &[[f64; 2]], family: KernelChoice, threads: usize) -> [Vec<Complex32>; 4] {
    let n = [16usize, 16];
    let img_len = 256;
    let k = traj.len();
    let mut plan = NufftPlan::new(n, traj, cfg(family, threads));
    let grid_len = plan.grid_len();

    let image = signal(img_len, 0.0);
    let samples = signal(k, 1.3);
    let grid_in = signal(grid_len, 2.6);

    let mut fwd = vec![Complex32::ZERO; k];
    plan.forward(&image, &mut fwd);
    let mut adj = vec![Complex32::ZERO; img_len];
    plan.adjoint(&samples, &mut adj);
    let mut spread = vec![Complex32::ZERO; grid_len];
    plan.spread_only(&samples, &mut spread);
    let mut interp = vec![Complex32::ZERO; k];
    plan.interp_only(&grid_in, &mut interp);
    [fwd, adj, spread, interp]
}

const OPS: [&str; 4] = ["forward", "adjoint", "spread_only", "interp_only"];

/// `forward` and `adjoint` of a plan built under the active ISA override,
/// against the stage composition through a full `FftOp::apply` planned
/// like the plan's own (the reference `tests/fft_pruning.rs` uses):
/// `DeconvOp::embed → FftOp → interp_only` and
/// `spread_only → FftOp → DeconvOp::extract`.
fn check_matches_stage_composition(
    traj: &[[f64; 2]],
    family: KernelChoice,
    threads: usize,
    label: &str,
) {
    let mut plan = NufftPlan::new([16, 16], traj, cfg(family, threads));
    let c = *plan.config();
    let exec = Executor::new(threads);
    let mut fft = FftOp::plan(&plan.geometry().m, c.fft_strategy, c.fft_llc_budget, threads);
    let image = signal(plan.image_len(), 0.0);
    let samples = signal(plan.num_samples(), 1.3);
    let mut grid = vec![Complex32::ZERO; plan.grid_len()];

    plan.deconv_op().embed(&image, &mut grid);
    fft.apply(&exec, &mut grid, Direction::Forward);
    let mut want = vec![Complex32::ZERO; plan.num_samples()];
    plan.interp_only(&grid, &mut want);
    let mut got = vec![Complex32::ZERO; plan.num_samples()];
    plan.forward(&image, &mut got);
    assert_bits_eq(&got, &want, &format!("{label}: forward"));

    plan.spread_only(&samples, &mut grid);
    fft.apply(&exec, &mut grid, Direction::Backward);
    let mut want = vec![Complex32::ZERO; plan.image_len()];
    plan.deconv_op().extract(&grid, &mut want);
    let mut got = vec![Complex32::ZERO; plan.image_len()];
    plan.adjoint(&samples, &mut got);
    assert_bits_eq(&got, &want, &format!("{label}: adjoint"));
}

#[test]
fn each_family_matches_its_stage_composition_at_every_isa_and_thread_count() {
    let _guard = isa_guard();
    let traj = nufft_traj::shuffled_2d(25, 14, 0.15, 29).points;
    let detected = detect_isa();

    for family in [KernelChoice::EsKernel, KernelChoice::KaiserBessel] {
        for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
            if isa > detected {
                continue;
            }
            set_isa_override(isa).unwrap();
            for threads in [1usize, 2, 4] {
                // Reference per (ISA, worker count): the stage composition.
                // (2D adjoint accumulation order is worker-count-dependent
                // by design — `tests/determinism.rs` pins the 3D
                // cross-worker guarantee, extended to ES below.)
                let label = format!("{family:?} isa={isa:?} threads={threads}");
                check_matches_stage_composition(&traj, family, threads, &label);
            }
        }
    }
    set_isa_override(detected).unwrap();
}

/// The kernel layer's own cross-ISA contract: Part 1 windows — the one
/// place the ES Horner evaluator dispatches per ISA level — are
/// bitwise-identical at every level, for every family, over a dense sweep
/// of fractional coordinates. (Operator outputs may differ across ISA
/// because Part 2 reassociates; windows may not.)
#[test]
fn part1_windows_are_bitwise_identical_across_isa_levels() {
    use nufft_core::conv::Window;
    use nufft_core::kernel::InterpKernel;

    let _guard = isa_guard();
    let detected = detect_isa();
    for choice in [KernelChoice::EsKernel, KernelChoice::KaiserBessel, KernelChoice::Gaussian] {
        let kernel = InterpKernel::of(choice, 3.0, 2.0, 512);
        for step in 0..400 {
            let u = 3.0 + step as f32 * 0.0173;
            set_isa_override(IsaLevel::StrictScalar).unwrap();
            let want = Window::compute(u, 3.0, &kernel);
            for isa in [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
                if isa > detected {
                    continue;
                }
                set_isa_override(isa).unwrap();
                let got = Window::compute(u, 3.0, &kernel);
                assert_eq!(got.start, want.start, "{choice:?} u={u} {isa:?}: start");
                assert_eq!(got.len, want.len, "{choice:?} u={u} {isa:?}: len");
                for i in 0..got.len {
                    assert_eq!(
                        got.w[i].to_bits(),
                        want.w[i].to_bits(),
                        "{choice:?} u={u} {isa:?}: tap {i}: {} vs {}",
                        got.w[i],
                        want.w[i]
                    );
                }
            }
        }
    }
    set_isa_override(detected).unwrap();
}

/// The `determinism.rs` cross-worker-count guarantee, extended to the ES
/// family: in the pinned-partition 3D configuration, the adjoint grid is
/// bitwise-identical at 1/2/4 workers even though Part 1 runs the
/// ISA-dispatched Horner evaluator on every worker.
#[test]
fn es_adjoint_is_bitwise_stable_across_worker_counts() {
    let _guard = isa_guard();
    let mut rng = nufft_testkit::Rng::seed_from_u64(42);
    let traj: Vec<[f64; 3]> =
        (0..400).map(|_| core::array::from_fn(|_| rng.gen_f64(0.0..1.0) - 0.5)).collect();
    let samples = nufft_testkit::Rng::seed_from_u64(42 ^ 0xFF).gen_c32_vec(400, 1.0);

    let grid = |threads: usize| {
        let cfg = NufftConfig {
            threads,
            w: 3.0,
            kernel: KernelChoice::EsKernel,
            partitions_per_dim: Some(4),
            ..NufftConfig::default()
        };
        let mut plan = NufftPlan::new([12, 12, 12], &traj, cfg);
        let mut out = vec![Complex32::ZERO; 12 * 12 * 12];
        plan.adjoint(&samples, &mut out);
        out
    };
    let reference = grid(1);
    for threads in [2usize, 4] {
        assert_bits_eq(&grid(threads), &reference, &format!("ES 3D adjoint threads={threads}"));
    }
}

/// Sanity cross-check: the two families are genuinely different kernels —
/// their outputs must *not* coincide (a copy-paste dispatch bug that sent
/// both families down one path would sail through the matrix above).
#[test]
fn families_produce_different_outputs() {
    let _guard = isa_guard();
    let traj = nufft_traj::shuffled_2d(25, 14, 0.15, 31).points;
    let es = run_all_ops(&traj, KernelChoice::EsKernel, 2);
    let kb = run_all_ops(&traj, KernelChoice::KaiserBessel, 2);
    for (op, (a, b)) in OPS.iter().zip(es.iter().zip(kb.iter())) {
        assert!(
            a.iter().zip(b.iter()).any(|(p, q)| p.re.to_bits() != q.re.to_bits()),
            "{op}: ES and KB outputs are identical — family dispatch is broken"
        );
    }
}
