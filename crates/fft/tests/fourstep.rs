//! Four-step vs recursive parity at the `nufft-fft` layer.
//!
//! The operator-level matrix (ISA × threads × operators) lives in the
//! workspace `tests/fourstep_modes.rs`; this file pins the underlying contract the
//! scheduler relies on — a forced-four-step plan is *bit-identical* to the
//! recursive plan for every shape/axis regime, direction, and ISA level —
//! plus the `Auto` heuristic's plan-time selection behaviour.

use nufft_fft::{Direction, FftNd, FftStrategy, DEFAULT_LLC_BUDGET};
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// ISA overrides are process-global; tests touching them serialize here.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn demo(len: usize, salt: u32) -> Vec<Complex32> {
    (0..len)
        .map(|i| {
            let x = i as f32 * 0.37 + salt as f32 * 1.7;
            Complex32::new((0.8 * x).sin() + 0.02 * x, (0.3 * x).cos() - 0.01 * x)
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex32], b: &[Complex32], ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx} i={i}: {x:?} vs {y:?}"
        );
    }
}

/// Forced four-step == recursive, bitwise, across every ISA level the host
/// supports, both directions, for shapes covering: long 1D (pure stride-1),
/// long strided axes, remainder tiles, mixed radices (96 = 2⁵·3,
/// 120 = 2³·3·5, 300 = 2²·3·5²), a Bluestein extent (31, ineligible →
/// recursive fallback inside the four-step plan), and small forced splits.
#[test]
fn fourstep_bit_identical_to_recursive_under_isa_overrides() {
    let _guard = ISA_LOCK.lock().unwrap();
    const SHAPES: [&[usize]; 8] =
        [&[4096], &[96, 8], &[8, 96], &[120, 5], &[31, 120], &[300, 3], &[48, 5, 12], &[16, 16]];
    let detected = detect_isa();
    let levels = [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma];
    for &level in levels.iter().filter(|&&l| l <= detected) {
        set_isa_override(level).unwrap();
        for (salt, &shape) in SHAPES.iter().enumerate() {
            let len: usize = shape.iter().product();
            let x = demo(len, salt as u32);
            let recursive = FftNd::with_strategy(shape, FftStrategy::Recursive, DEFAULT_LLC_BUDGET);
            let fourstep = FftNd::with_strategy(shape, FftStrategy::FourStep, DEFAULT_LLC_BUDGET);
            for dir in [Direction::Forward, Direction::Backward] {
                let mut a = x.clone();
                recursive.process(&mut a, dir);
                let mut b = x.clone();
                fourstep.process(&mut b, dir);
                assert_bits_eq(&b, &a, &format!("shape {shape:?} {dir:?} {}", level.name()));
            }
        }
    }
    set_isa_override(detected).unwrap();
}

/// Per-axis parity: each axis pass on its own (not just the full separable
/// product) must agree bitwise, for both the strided and contiguous regime.
#[test]
fn fourstep_single_axis_passes_match_bitwise() {
    let _guard = ISA_LOCK.lock().unwrap();
    let detected = detect_isa();
    set_isa_override(detected).unwrap();
    let shape = [60usize, 64];
    let len = shape.iter().product();
    let x = demo(len, 9);
    let recursive = FftNd::with_strategy(&shape, FftStrategy::Recursive, DEFAULT_LLC_BUDGET);
    let fourstep = FftNd::with_strategy(&shape, FftStrategy::FourStep, DEFAULT_LLC_BUDGET);
    for axis in 0..shape.len() {
        assert!(fourstep.axis_fourstep(axis), "axis {axis} should be eligible");
        for dir in [Direction::Forward, Direction::Backward] {
            let mut a = x.clone();
            recursive.transform_axis(&mut a, axis, dir);
            let mut b = x.clone();
            fourstep.transform_axis(&mut b, axis, dir);
            assert_bits_eq(&b, &a, &format!("axis {axis} {dir:?}"));
        }
    }
}

/// `Auto` strategy selection: in-budget axes stay recursive, out-of-budget
/// eligible axes go four-step, Bluestein axes never do.
#[test]
fn auto_heuristic_selects_by_line_footprint() {
    let auto_default = FftNd::new(&[256, 256]);
    assert!(!auto_default.axis_fourstep(0), "64 KiB line must stay in-budget");
    assert!(!auto_default.axis_fourstep(1));

    // A zero budget pushes every eligible axis onto the four-step path.
    let tiny = FftNd::with_strategy(&[96, 31], FftStrategy::Auto, 0);
    assert!(tiny.axis_fourstep(0));
    assert!(!tiny.axis_fourstep(1), "Bluestein 31 is ineligible");

    let forced = FftNd::with_strategy(&[96, 31], FftStrategy::Recursive, 0);
    assert!(!forced.axis_fourstep(0));
    assert!(!forced.axis_fourstep(1));
}

/// The fused-DAG footprint metadata: column groups partition each tile's
/// read set, k-blocks partition each tile's write set, and
/// `fs_kblock_of_element` inverts the k-block enumeration.
#[test]
fn fs_shard_footprints_partition_each_tile() {
    for shape in [&[64usize, 6][..], &[6, 64], &[48, 3, 4]] {
        let plan = FftNd::with_strategy(shape, FftStrategy::FourStep, 0);
        for axis in 0..shape.len() {
            if !plan.axis_fourstep(axis) {
                continue;
            }
            for b in [2usize, 4] {
                for tile in 0..plan.num_tiles(axis, b) {
                    let mut in_tile = vec![false; plan.len()];
                    plan.for_each_tile_element(axis, tile, b, |e| in_tile[e] = true);
                    let mut seen = vec![0usize; plan.len()];
                    for cg in 0..plan.fs_col_groups(axis, b) {
                        plan.for_each_fs_col_element(axis, tile, cg, b, |e| {
                            seen[e] += 1;
                            assert_eq!(plan.fs_col_group_of_element(axis, e, b), cg);
                        });
                    }
                    for (e, (&c, &t)) in seen.iter().zip(&in_tile).enumerate() {
                        assert_eq!(
                            c, t as usize,
                            "shape {shape:?} axis {axis} b={b} tile {tile} elem {e} (col groups)"
                        );
                    }
                    let mut seen = vec![0usize; plan.len()];
                    for kb in 0..plan.fs_k_blocks(axis) {
                        plan.for_each_fs_kblock_element(axis, tile, kb, b, |e| {
                            seen[e] += 1;
                            assert_eq!(plan.fs_kblock_of_element(axis, e), kb);
                            assert_eq!(plan.tile_of_element(axis, e, b), tile);
                        });
                    }
                    for (e, (&c, &t)) in seen.iter().zip(&in_tile).enumerate() {
                        assert_eq!(
                            c, t as usize,
                            "shape {shape:?} axis {axis} b={b} tile {tile} elem {e} (k-blocks)"
                        );
                    }
                }
            }
        }
    }
}
