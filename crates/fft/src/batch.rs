//! Batched (tiled) execution of Cooley–Tukey transforms over several lines
//! at once.
//!
//! The n-D transform applies a 1D FFT to every line of every axis. For a
//! strided axis the per-line path gathers one line at a time into a bounce
//! buffer — each gathered element touches a fresh cache line of which it
//! uses 8 bytes, and every twiddle is reloaded per line. The batched path
//! instead runs a tile of `b` lines element-interleaved (`tile[j·b +
//! lane]` = element `j` of line `lane`) through the whole Cooley–Tukey
//! transform: every twiddle load is amortized over `b` lines and the
//! column butterflies in `nufft_simd::fft_rows` consume full SIMD vectors
//! of always-contiguous data at every stage. On a strided axis the tile's
//! lines are memory-adjacent (they differ by one in the innermost index),
//! so element `j` of all `b` lines is one contiguous `b`-complex run of the
//! grid; on the contiguous axis `b` consecutive lines are packed by a
//! `b×n` transpose.
//!
//! The tile runs stage by stage ([`transform_runs`]). One pass copies the
//! leaves — the source runs, in the mixed-radix digit-reversed order the
//! depth-first recursion reads them — and then each stage, innermost
//! first, is one dispatched column-kernel call over all of that stage's
//! nodes ([`nufft_simd::fft_rows::ColBlocks`]): 5 kernel calls for a
//! 512-point tile (radices 4·4·4·4·2).
//!
//! Bit-identity: the stage order only regroups independent butterflies —
//! every node of a stage reads what the stage below wrote and nothing
//! else — and each element keeps its arithmetic. At a fixed ISA level the
//! column kernels perform the same per-element arithmetic as the kernels
//! of the per-line path — the fused (FMA at AVX2) radix-2/4 kernels where
//! `Fft::recurse` runs the fused row kernels (`m ≥ MIN_SIMD_M`), the plain
//! column kernels where it runs its scalar combine (radix 3 and 5 at every
//! `m`, radix 2 and 4 below `MIN_SIMD_M`) — so a batched transform is
//! bit-identical to transforming the same lines one at a time. Radix 7, 11
//! and 13 keep the scalar combine on both paths.
//! `crates/fft/tests/proptest_fft.rs` pins this under every ISA override,
//! and this module's tests pin the stage driver to the recursive one it
//! replaced.

use crate::butterflies::{bfly_generic, MAX_RADIX};
use crate::plan::{Direction, Fft, Stage, MIN_SIMD_M};
use nufft_math::Complex32;
use nufft_simd::fft_rows::{self, ColBlocks};

/// Backward-direction twiddle/root tables of a plan, indexed by absolute
/// stage level like `plan.stages()` (the four-step combine runs levels
/// `j−1..0` of the full tables).
pub(crate) type BwdView<'a> = (&'a [Vec<Complex32>], &'a [Vec<Complex32>]);

/// Transforms the `b` interleaved lines packed in `src` (layout
/// `[j·b + lane]`, `src.len() == plan.len()·b`) into `dst`, same layout.
///
/// # Panics
/// Panics if the lengths mismatch, and (debug) if `plan` is not
/// Cooley–Tukey; the caller ([`crate::FftNd`]) guarantees both.
pub(crate) fn transform_tile(
    plan: &Fft,
    src: &[Complex32],
    dst: &mut [Complex32],
    b: usize,
    dir: Direction,
) {
    assert_eq!(src.len(), plan.len() * b, "tile length mismatch");
    // SAFETY: run `j` is `src[j·b..][..b]`, inside `src`, which cannot
    // overlap the exclusively borrowed `dst`.
    unsafe { transform_runs(plan, 0, src.as_ptr(), b, &mut dst[..src.len()], b, dir) };
}

/// Transforms `b` interleaved lines through the stage suffix
/// `plan.stages()[from..]` into `dst` (layout `[j·b + lane]`,
/// `dst.len() = len·b` for the suffix length `len`). Element `j` of the
/// lines is the `b`-complex run at `src + j·run_stride`. `from = 0` is the
/// whole transform; the four-step sub-FFT pass (`crate::fourstep`) enters
/// at its split level — the greedy factorizer guarantees a suffix is
/// exactly the stage list of a plan for the suffix length.
///
/// One pass copies the leaves in digit-reversed order ([`gather_leaves`]),
/// then each stage, innermost first, combines all of its nodes in one
/// [`combine_cols`] call.
///
/// # Safety
/// For every `j < len`, `src + j·run_stride` must be valid for reads of
/// `b` elements that no other thread writes and that do not overlap
/// `dst`.
pub(crate) unsafe fn transform_runs(
    plan: &Fft,
    from: usize,
    src: *const Complex32,
    run_stride: usize,
    dst: &mut [Complex32],
    b: usize,
    dir: Direction,
) {
    debug_assert!(plan.is_ct(), "batched tiles require a Cooley-Tukey plan");
    let stages = &plan.stages()[from..];
    let len = stages.first().map_or(1, |s| s.radix * s.m);
    assert_eq!(dst.len(), len * b, "tile length mismatch");
    // SAFETY: forwarded from the caller.
    unsafe { gather_leaves(stages, src, run_stride, dst, b) };
    let bwd = match dir {
        Direction::Forward => None,
        Direction::Backward => Some(plan.bwd_tables()),
    };
    for (i, stage) in stages.iter().enumerate().rev() {
        let (tw, roots) = match bwd {
            None => (&stage.twiddles[..], &stage.roots[..]),
            Some(t) => (&t.twiddles[from + i][..], &t.roots[from + i][..]),
        };
        let (r, m) = (stage.radix, stage.m);
        let node = r * m * b;
        let at = ColBlocks { b, step: m * b, nodes: len * b / node, node_stride: node };
        combine_cols(dst, stage, tw, roots, 0, m, at, bwd.is_none());
    }
}

/// Copies a tile's leaves: run `p` of `dst` (`dst[p·b..][..b]`) receives
/// source run `rev(p)`, the mixed-radix digit reversal of `p` over the
/// radices of `stages` — the order in which the depth-first recursion's
/// last stage reads its inputs. With `p = Σ q_l·m_l`, `rev(p) = Σ q_l·s_l`
/// where `s_l = r_0·…·r_{l−1}`; the digits and `rev(p)` advance as an
/// odometer on the stack, so the pass needs no table and no allocation.
///
/// # Safety
/// As [`transform_runs`].
unsafe fn gather_leaves(
    stages: &[Stage],
    src: *const Complex32,
    run_stride: usize,
    dst: &mut [Complex32],
    b: usize,
) {
    // SAFETY (every `run`): the caller guarantees each run `j < len` is
    // readable, and the odometer only yields `j < len`.
    let run = |j: usize| unsafe { core::slice::from_raw_parts(src.add(j * run_stride), b) };
    let Some(last) = stages.last() else {
        // A length-1 transform is its own spectrum.
        copy_run(dst, run(0));
        return;
    };
    // Every radix is at least 2, so a plan has fewer stages than bits.
    const MAX_LEVELS: usize = usize::BITS as usize;
    let outer = stages.len() - 1;
    let mut stride = [0usize; MAX_LEVELS];
    let mut digit = [0usize; MAX_LEVELS];
    let mut s = 1;
    for (l, st) in stages.iter().enumerate() {
        stride[l] = s;
        s *= st.radix;
    }
    let mut at = 0;
    for group in dst.chunks_exact_mut(last.radix * b) {
        // The innermost digit: `last.radix` runs `stride[outer]` apart.
        for (q, out) in group.chunks_exact_mut(b).enumerate() {
            copy_run(out, run(at + q * stride[outer]));
        }
        for l in (0..outer).rev() {
            digit[l] += 1;
            at += stride[l];
            if digit[l] < stages[l].radix {
                break;
            }
            digit[l] = 0;
            at -= stages[l].radix * stride[l];
        }
    }
}

/// `dst.copy_from_slice(src)` with the batch widths of the SIMD levels
/// (2 and 4 complexes) as fixed-size moves: a run is far too short to pay
/// for the `memcpy` call a runtime-length copy becomes.
#[inline(always)]
pub(crate) fn copy_run(dst: &mut [Complex32], src: &[Complex32]) {
    match dst.len() {
        4 => dst[..4].copy_from_slice(&src[..4]),
        2 => dst[..2].copy_from_slice(&src[..2]),
        _ => dst.copy_from_slice(src),
    }
}

#[cfg(test)]
thread_local! {
    /// [`combine_cols`] calls on this thread, for the call-count tests.
    static COMBINE_CALLS: core::cell::Cell<usize> = const { core::cell::Cell::new(0) };
}

/// One combine of `stage` over `kb` columns of `at.b` interleaved lines in
/// each of `at.nodes` nodes (layout in [`ColBlocks`]): digit `q`'s twiddles
/// are `tw[(q−1)·m + toff..][..kb]`, broadcast across the lanes and shared
/// by every node. `tw`/`roots` are the stage's tables for the transform
/// direction (`forward` selects the butterfly sign).
///
/// Radix 2 and 4 run the fused column kernels at `m ≥ MIN_SIMD_M` and the
/// plain ones below it, radix 3 and 5 the plain ones at every `m` — each
/// the arithmetic the per-line `Fft::recurse` performs at that stage.
/// Radix 7, 11 and 13 keep its scalar combine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_cols(
    d: &mut [Complex32],
    stage: &Stage,
    tw: &[Complex32],
    roots: &[Complex32],
    toff: usize,
    kb: usize,
    at: ColBlocks,
    forward: bool,
) {
    #[cfg(test)]
    COMBINE_CALLS.with(|c| c.set(c.get() + 1));
    let (r, m) = (stage.radix, stage.m);
    let row = |q: usize| &tw[(q - 1) * m + toff..][..kb];
    match r {
        2 if m >= MIN_SIMD_M => fft_rows::bfly2_cols(d, row(1), at),
        2 => fft_rows::bfly2_cols_plain(d, row(1), at),
        3 => fft_rows::bfly3_cols(d, [row(1), row(2)], at, forward),
        4 if m >= MIN_SIMD_M => fft_rows::bfly4_cols(d, [row(1), row(2), row(3)], at, forward),
        4 => fft_rows::bfly4_cols_plain(d, [row(1), row(2), row(3)], at, forward),
        5 => fft_rows::bfly5_cols(d, [row(1), row(2), row(3), row(4)], at, forward),
        _ => {
            let (b, step) = (at.b, at.step);
            let mut t = [Complex32::ZERO; MAX_RADIX];
            let mut s = [Complex32::ZERO; MAX_RADIX];
            for g in 0..at.nodes {
                let node = &mut d[g * at.node_stride..];
                for k in 0..kb {
                    for lane in 0..b {
                        let i = k * b + lane;
                        t[0] = node[i];
                        for q in 1..r {
                            t[q] = node[i + q * step] * tw[(q - 1) * m + toff + k];
                        }
                        bfly_generic(&mut t[..r], &mut s[..r], roots);
                        for (k2, &v) in t[..r].iter().enumerate() {
                            node[i + k2 * step] = v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_simd::{detect_isa, set_isa_override, IsaLevel};

    const LEVELS: [IsaLevel; 4] =
        [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma];

    fn demo(len: usize, salt: u32) -> Vec<Complex32> {
        (0..len)
            .map(|i| {
                let x = i as f32 * 0.17 + salt as f32;
                Complex32::new((0.9 * x).sin(), (0.4 * x).cos())
            })
            .collect()
    }

    fn assert_bits_eq(got: &[Complex32], want: &[Complex32], what: impl Fn(usize) -> String) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{}: {g:?} vs {w:?}",
                what(i)
            );
        }
    }

    /// The depth-first recursion the stage driver replaced: the structure
    /// of `Fft::recurse` with every element index scaled by `b`, one
    /// [`combine_cols`] call per node. Kept as the driver's bitwise
    /// reference. `bwd` holds the plan's full backward tables.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        stages: &[Stage],
        level: usize,
        src: &[Complex32],
        off: usize,
        stride: usize,
        dst: &mut [Complex32],
        b: usize,
        bwd: Option<BwdView<'_>>,
    ) {
        if level == stages.len() {
            // Only a length-1 plan gets here; longer ones stop a level early.
            dst.copy_from_slice(&src[off * b..(off + 1) * b]);
            return;
        }
        let stage = &stages[level];
        let (r, m) = (stage.radix, stage.m);
        if level + 1 == stages.len() {
            // Last stage (`m == 1`): its sub-transforms are single elements,
            // read straight from the source.
            for q in 0..r {
                let at = (off + q * stride) * b;
                dst[q * b..(q + 1) * b].copy_from_slice(&src[at..at + b]);
            }
        } else {
            for q in 0..r {
                let sub = &mut dst[q * m * b..(q + 1) * m * b];
                recurse(stages, level + 1, src, off + q * stride, stride * r, sub, b, bwd);
            }
        }
        let (tw, roots) = match bwd {
            None => (&stage.twiddles[..], &stage.roots[..]),
            Some((tws, rts)) => (&tws[level][..], &rts[level][..]),
        };
        let at = ColBlocks::one(b, m * b);
        combine_cols(dst, stage, tw, roots, 0, m, at, bwd.is_none());
    }

    /// A batched tile equals transforming each lane with the 1D plan — for
    /// every radix mix the factorizer produces, both directions.
    #[test]
    fn tile_matches_per_lane_bitwise() {
        let _isa = crate::isa_test_lock();
        for n in [1usize, 4, 8, 12, 16, 30, 60, 96, 120, 126] {
            let plan = Fft::new(n);
            for b in [2usize, 3, 4] {
                for dir in [Direction::Forward, Direction::Backward] {
                    let lanes: Vec<Vec<Complex32>> = (0..b as u32).map(|s| demo(n, s)).collect();
                    // Interleave into a tile and transform batched.
                    let mut tile = vec![Complex32::ZERO; n * b];
                    for (lane, l) in lanes.iter().enumerate() {
                        for j in 0..n {
                            tile[j * b + lane] = l[j];
                        }
                    }
                    let packed = tile.clone();
                    transform_tile(&plan, &packed, &mut tile, b, dir);
                    // Transform each lane with the ordinary per-line plan.
                    let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
                    for (lane, l) in lanes.iter().enumerate() {
                        let mut want = l.clone();
                        plan.process_with_scratch(&mut want, &mut scratch, dir);
                        for j in 0..n {
                            let got = tile[j * b + lane];
                            assert!(
                                got.re.to_bits() == want[j].re.to_bits()
                                    && got.im.to_bits() == want[j].im.to_bits(),
                                "n={n} b={b} {dir:?} lane={lane} j={j}: {got:?} vs {:?}",
                                want[j]
                            );
                        }
                    }
                }
            }
        }
    }

    /// Under every ISA override, the stage driver equals the recursive
    /// driver it replaced, bitwise: every length class (radix 2/3/4/5
    /// mixes, radix 7/11/13 and their squares, the 96- and 512-point
    /// workload lines), `b` from 1 to 9, both directions, entry at every
    /// stage suffix (the four-step sub-FFT's entry), and leaves read from
    /// packed runs and from runs with gaps between them.
    #[test]
    fn stage_driver_matches_recursive_reference_bitwise() {
        let _isa = crate::isa_test_lock();
        let detected = detect_isa();
        let lengths =
            [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16, 96, 100, 112, 121, 169, 486, 512, 1000, 1024];
        for &level in LEVELS.iter().filter(|&&l| l <= detected) {
            set_isa_override(level).unwrap();
            for n in lengths {
                let plan = Fft::new(n);
                let stages = plan.stages();
                let t = plan.bwd_tables();
                for j in 0..=stages.len() {
                    let len = stages.get(j).map_or(1, |s| s.radix * s.m);
                    for b in 1..=9usize {
                        let src = demo(len * b, (n + 31 * j + 7 * b) as u32);
                        for dir in [Direction::Forward, Direction::Backward] {
                            let bwd = match dir {
                                Direction::Forward => None,
                                Direction::Backward => Some((&t.twiddles[..], &t.roots[..])),
                            };
                            let mut want = vec![Complex32::ZERO; len * b];
                            recurse(stages, j, &src, 0, 1, &mut want, b, bwd);
                            for run_stride in [b, b + 2] {
                                // Runs `run_stride` apart, NaN in the gaps.
                                let mut runs =
                                    vec![Complex32::new(f32::NAN, f32::NAN); len * run_stride];
                                for (e, run) in src.chunks_exact(b).enumerate() {
                                    runs[e * run_stride..][..b].copy_from_slice(run);
                                }
                                let mut got = vec![Complex32::ZERO; len * b];
                                // SAFETY: run `e < len` is `runs[e·run_stride..][..b]`.
                                unsafe {
                                    transform_runs(
                                        &plan,
                                        j,
                                        runs.as_ptr(),
                                        run_stride,
                                        &mut got,
                                        b,
                                        dir,
                                    )
                                };
                                assert_bits_eq(&got, &want, |i| {
                                    format!(
                                        "{} n={n} j={j} b={b} stride={run_stride} {dir:?} i={i}",
                                        level.name()
                                    )
                                });
                            }
                        }
                    }
                }
            }
        }
        set_isa_override(detected).unwrap();
    }

    /// A tile issues one column-kernel call per stage, where the recursion
    /// issued one per node: 5 against 341 for a 512-point tile
    /// (4·4·4·4·2) and 4 against 53 for a 96-point one (4·4·2·3).
    #[test]
    fn one_column_kernel_call_per_stage() {
        let calls = |f: &mut dyn FnMut()| {
            COMBINE_CALLS.with(|c| c.set(0));
            f();
            COMBINE_CALLS.with(core::cell::Cell::get)
        };
        for (n, stages, nodes) in [(512usize, 5usize, 341usize), (96, 4, 53)] {
            let (plan, b) = (Fft::new(n), 4);
            let src = demo(n * b, 3);
            let mut dst = vec![Complex32::ZERO; n * b];
            let dir = Direction::Forward;
            assert_eq!(calls(&mut || transform_tile(&plan, &src, &mut dst, b, dir)), stages);
            let mut rec = || recurse(plan.stages(), 0, &src, 0, 1, &mut dst, b, None);
            assert_eq!(calls(&mut rec), nodes);
        }
    }

    /// The per-lane scalar combine the batched recursion ran before the
    /// column kernels: twiddle products, then `bfly2`…`bfly5`, one lane at
    /// a time. `d` holds `r` blocks of `m·b`, `tw` the stage's `(r−1)·m`
    /// twiddles.
    fn scalar_combine(
        r: usize,
        d: &mut [Complex32],
        tw: &[Complex32],
        m: usize,
        b: usize,
        fwd: bool,
    ) {
        use crate::butterflies::{bfly2, bfly3, bfly4, bfly5};
        let sign = if fwd { -1.0f32 } else { 1.0 };
        let mut t = [Complex32::ZERO; MAX_RADIX];
        for k in 0..m {
            for lane in 0..b {
                t[0] = d[k * b + lane];
                for q in 1..r {
                    t[q] = d[(q * m + k) * b + lane] * tw[(q - 1) * m + k];
                }
                match r {
                    2 => bfly2(&mut t[..2]),
                    3 => bfly3(&mut t[..3], sign),
                    4 => bfly4(&mut t[..4], sign),
                    5 => bfly5(&mut t[..5], sign),
                    _ => unreachable!(),
                }
                for (k2, &v) in t[..r].iter().enumerate() {
                    d[(k2 * m + k) * b + lane] = v;
                }
            }
        }
    }

    /// Runs the column kernel for radix `r` over the nodes of `at` — the
    /// plain-arithmetic kernels that replace the scalar combine:
    /// `bfly2_cols_plain`, `bfly3_cols`, `bfly4_cols_plain`, `bfly5_cols`.
    fn kernel_combine(
        r: usize,
        d: &mut [Complex32],
        tw: &[Complex32],
        m: usize,
        at: ColBlocks,
        fwd: bool,
    ) {
        let row = |q: usize| &tw[(q - 1) * m..q * m];
        match r {
            2 => fft_rows::bfly2_cols_plain(d, row(1), at),
            3 => fft_rows::bfly3_cols(d, [row(1), row(2)], at, fwd),
            4 => fft_rows::bfly4_cols_plain(d, [row(1), row(2), row(3)], at, fwd),
            5 => fft_rows::bfly5_cols(d, [row(1), row(2), row(3), row(4)], at, fwd),
            _ => unreachable!(),
        }
    }

    /// Under every ISA override, each plain column kernel equals the scalar
    /// combine it replaces, lane by lane and bitwise — vector bodies and
    /// scalar tails alike (`b` from 1 to 9 covers every `b mod width`), for
    /// every radix, several `m`, both directions, and 1, 2 or 5 nodes per
    /// call at a node stride that leaves a gap after each node (which the
    /// kernels must leave untouched).
    #[test]
    fn column_kernels_match_scalar_combine_bitwise() {
        let _isa = crate::isa_test_lock();
        let detected = detect_isa();
        for &level in LEVELS.iter().filter(|&&l| l <= detected) {
            set_isa_override(level).unwrap();
            for r in [2usize, 3, 4, 5] {
                for m in [1usize, 2, 3, 5, 8] {
                    // The stage twiddles of a length-r·m plan, conjugated for
                    // the backward direction as the plan's tables are.
                    let fwd_tw: Vec<Complex32> = (1..r)
                        .flat_map(|q| (0..m).map(move |k| (q, k)))
                        .map(|(q, k)| {
                            let angle = -core::f64::consts::TAU * (q * k) as f64 / (r * m) as f64;
                            nufft_math::Complex64::cis(angle).to_f32()
                        })
                        .collect();
                    for b in 1..=9usize {
                        for nodes in [1usize, 2, 5] {
                            let node = r * m * b;
                            let at = ColBlocks { b, step: m * b, nodes, node_stride: node + 3 };
                            for fwd in [true, false] {
                                let tw: Vec<Complex32> = fwd_tw
                                    .iter()
                                    .map(|w| if fwd { *w } else { w.conj() })
                                    .collect();
                                let salt = (r * 1000 + m * 100 + b * 10 + nodes) as u32;
                                let x = demo(nodes * at.node_stride, salt);
                                let mut want = x.clone();
                                for g in 0..nodes {
                                    let nd = &mut want[g * at.node_stride..][..node];
                                    scalar_combine(r, nd, &tw, m, b, fwd);
                                }
                                let mut got = x.clone();
                                kernel_combine(r, &mut got, &tw, m, at, fwd);
                                assert_bits_eq(&got, &want, |i| {
                                    let (g, e) = (i / at.node_stride, i % at.node_stride);
                                    format!(
                                        "{} r={r} m={m} b={b} nodes={nodes} fwd={fwd} node={g} \
                                         lane={} k={}",
                                        level.name(),
                                        e % b,
                                        (e / b) % m
                                    )
                                });
                            }
                        }
                    }
                }
            }
        }
        set_isa_override(detected).unwrap();
    }
}
