//! Batched (tiled) execution of Cooley–Tukey transforms over several lines
//! at once.
//!
//! The n-D transform applies a 1D FFT to every line of every axis. For a
//! strided axis the per-line path gathers one line at a time into a bounce
//! buffer — each gathered element touches a fresh cache line of which it
//! uses 8 bytes, and every twiddle is reloaded per line. The batched path
//! instead packs a tile of `b` lines element-interleaved (`tile[j·b +
//! lane]` = element `j` of line `lane`) and runs the whole Cooley–Tukey
//! recursion across the tile: every twiddle load is amortized over `b`
//! lines and the column butterflies in `nufft_simd::fft_rows` consume full
//! SIMD vectors of always-contiguous data at every stage. On a strided
//! axis the tile's lines are memory-adjacent (they differ by one in the
//! innermost index), so each gather step is one contiguous `b`-complex
//! copy; on the contiguous axis `b` consecutive lines are packed by a
//! `b×n` transpose.
//!
//! Bit-identity: at a fixed ISA level the column kernels perform the same
//! per-element arithmetic as the kernels of the per-line path — the fused
//! (FMA at AVX2) radix-2/4 kernels where `Fft::recurse` runs the fused row
//! kernels (`m ≥ MIN_SIMD_M`), the plain column kernels where it runs its
//! scalar combine (radix 3 and 5 at every `m`, radix 2 and 4 below
//! `MIN_SIMD_M`) — so a batched transform is bit-identical to transforming
//! the same lines one at a time. Radix 7, 11 and 13 keep the scalar
//! combine on both paths. `crates/fft/tests/proptest_fft.rs` pins this
//! under every ISA override.

use crate::butterflies::{bfly_generic, MAX_RADIX};
use crate::plan::{Direction, Fft, Stage, MIN_SIMD_M};
use nufft_math::Complex32;
use nufft_simd::fft_rows;

/// Backward-direction twiddle/root tables for a stage slice, indexed
/// parallel to the `stages` passed to [`recurse`]. Callers running a stage
/// *suffix* (the four-step sub-FFT pass) slice the plan's full tables with
/// the same offset, so `twiddles[level]` always matches `stages[level]`.
pub(crate) type BwdView<'a> = (&'a [Vec<Complex32>], &'a [Vec<Complex32>]);

/// Transforms the `b` interleaved lines packed in `src` (layout
/// `[j·b + lane]`, `src.len() == plan.len()·b`) into `dst`, same layout.
///
/// # Panics
/// Panics (debug) if `plan` is not Cooley–Tukey or lengths mismatch; the
/// caller ([`crate::FftNd`]) guarantees both.
pub(crate) fn transform_tile(
    plan: &Fft,
    src: &[Complex32],
    dst: &mut [Complex32],
    b: usize,
    dir: Direction,
) {
    debug_assert!(plan.is_ct(), "batched tiles require a Cooley-Tukey plan");
    debug_assert_eq!(src.len(), plan.len() * b);
    let bwd = match dir {
        Direction::Forward => None,
        Direction::Backward => {
            let t = plan.bwd_tables();
            Some((&t.twiddles[..], &t.roots[..]))
        }
    };
    recurse(plan.stages(), 0, src, 0, 1, &mut dst[..src.len()], b, bwd);
}

/// Decimation-in-time recursion over a `b`-line tile: the exact structure of
/// `Fft::recurse` with every element index scaled by `b` (line-interleaved
/// layout) and the combine running across lanes. Exposed crate-wide so
/// the four-step path (`crate::fourstep`) can run a stage *suffix* — the
/// greedy factorizer guarantees `stages[j..]` is exactly the stage list of a
/// plan for the suffix length, so the sub-FFT pass reuses these kernels
/// unchanged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recurse(
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
        debug_assert_eq!(dst.len(), b);
        dst.copy_from_slice(&src[off * b..(off + 1) * b]);
        return;
    }
    let stage = &stages[level];
    let (r, m) = (stage.radix, stage.m);
    debug_assert_eq!(dst.len(), r * m * b);

    if level + 1 == stages.len() {
        // Last stage (`m == 1`): its sub-transforms are single elements,
        // read straight from the source.
        for q in 0..r {
            let at = (off + q * stride) * b;
            copy_run(&mut dst[q * b..(q + 1) * b], &src[at..at + b]);
        }
    } else {
        for q in 0..r {
            recurse(
                stages,
                level + 1,
                src,
                off + q * stride,
                stride * r,
                &mut dst[q * m * b..(q + 1) * m * b],
                b,
                bwd,
            );
        }
    }

    let (tw, roots) = match bwd {
        None => (&stage.twiddles[..], &stage.roots[..]),
        Some((tws, rts)) => (&tws[level][..], &rts[level][..]),
    };
    combine_cols(dst, m * b, stage, tw, roots, 0, m, b, bwd.is_none());
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

/// Splits `d` into `R` blocks of `len` elements starting `step` apart.
fn blocks<const R: usize>(d: &mut [Complex32], step: usize, len: usize) -> [&mut [Complex32]; R] {
    let mut rest = d;
    core::array::from_fn(|_| {
        let cur = core::mem::take(&mut rest);
        let (head, tail) = cur.split_at_mut(step.min(cur.len()));
        rest = tail;
        &mut head[..len]
    })
}

/// One combine of `stage` over `kb` columns of `b` interleaved lines:
/// digit `q`'s block is `d[q·step..][..kb·b]` and its twiddles are
/// `tw[(q−1)·m + toff..][..kb]`, broadcast across the lanes. `tw`/`roots`
/// are the stage's tables for the transform direction (`forward` selects
/// the butterfly sign).
///
/// Radix 2 and 4 run the fused column kernels at `m ≥ MIN_SIMD_M` and the
/// plain ones below it, radix 3 and 5 the plain ones at every `m` — each
/// the arithmetic the per-line `Fft::recurse` performs at that stage.
/// Radix 7, 11 and 13 keep its scalar combine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_cols(
    d: &mut [Complex32],
    step: usize,
    stage: &Stage,
    tw: &[Complex32],
    roots: &[Complex32],
    toff: usize,
    kb: usize,
    b: usize,
    forward: bool,
) {
    let (r, m) = (stage.radix, stage.m);
    let len = kb * b;
    let row = |q: usize| &tw[(q - 1) * m + toff..][..kb];
    match r {
        2 => {
            let [d0, d1] = blocks(d, step, len);
            if m >= MIN_SIMD_M {
                fft_rows::bfly2_cols(d0, d1, row(1), b);
            } else {
                fft_rows::bfly2_cols_plain(d0, d1, row(1), b);
            }
        }
        3 => {
            let [d0, d1, d2] = blocks(d, step, len);
            fft_rows::bfly3_cols(d0, d1, d2, row(1), row(2), b, forward);
        }
        4 => {
            let [d0, d1, d2, d3] = blocks(d, step, len);
            let (tw1, tw2, tw3) = (row(1), row(2), row(3));
            if m >= MIN_SIMD_M {
                fft_rows::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, b, forward);
            } else {
                fft_rows::bfly4_cols_plain(d0, d1, d2, d3, tw1, tw2, tw3, b, forward);
            }
        }
        5 => {
            let rows = [row(1), row(2), row(3), row(4)];
            fft_rows::bfly5_cols(blocks(d, step, len), rows, b, forward);
        }
        _ => {
            let mut t = [Complex32::ZERO; MAX_RADIX];
            let mut s = [Complex32::ZERO; MAX_RADIX];
            for k in 0..kb {
                for lane in 0..b {
                    let at = k * b + lane;
                    t[0] = d[at];
                    for q in 1..r {
                        t[q] = d[at + q * step] * tw[(q - 1) * m + toff + k];
                    }
                    bfly_generic(&mut t[..r], &mut s[..r], roots);
                    for (k2, &v) in t[..r].iter().enumerate() {
                        d[at + k2 * step] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(len: usize, salt: u32) -> Vec<Complex32> {
        (0..len)
            .map(|i| {
                let x = i as f32 * 0.17 + salt as f32;
                Complex32::new((0.9 * x).sin(), (0.4 * x).cos())
            })
            .collect()
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

    /// Runs the column kernel for radix `r` — the plain-arithmetic kernels
    /// that replace the scalar combine: `bfly2_cols_plain`, `bfly3_cols`,
    /// `bfly4_cols_plain`, `bfly5_cols`.
    fn kernel_combine(
        r: usize,
        d: &mut [Complex32],
        tw: &[Complex32],
        m: usize,
        b: usize,
        fwd: bool,
    ) {
        let row = |q: usize| &tw[(q - 1) * m..q * m];
        match r {
            2 => {
                let [d0, d1] = blocks(d, m * b, m * b);
                fft_rows::bfly2_cols_plain(d0, d1, row(1), b);
            }
            3 => {
                let [d0, d1, d2] = blocks(d, m * b, m * b);
                fft_rows::bfly3_cols(d0, d1, d2, row(1), row(2), b, fwd);
            }
            4 => {
                let [d0, d1, d2, d3] = blocks(d, m * b, m * b);
                fft_rows::bfly4_cols_plain(d0, d1, d2, d3, row(1), row(2), row(3), b, fwd);
            }
            5 => {
                let rows = [row(1), row(2), row(3), row(4)];
                fft_rows::bfly5_cols(blocks(d, m * b, m * b), rows, b, fwd);
            }
            _ => unreachable!(),
        }
    }

    /// Under every ISA override, each plain column kernel equals the scalar
    /// combine it replaces, lane by lane and bitwise — vector bodies and
    /// scalar tails alike (`b` from 1 to 9 covers every `b mod width`), for
    /// every radix, several `m` and both directions.
    #[test]
    fn column_kernels_match_scalar_combine_bitwise() {
        use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
        let _isa = crate::isa_test_lock();
        let detected = detect_isa();
        let levels = [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma];
        for &level in levels.iter().filter(|&&l| l <= detected) {
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
                        for fwd in [true, false] {
                            let tw: Vec<Complex32> =
                                fwd_tw.iter().map(|w| if fwd { *w } else { w.conj() }).collect();
                            let x = demo(r * m * b, (r * 100 + m * 10 + b) as u32);
                            let mut want = x.clone();
                            scalar_combine(r, &mut want, &tw, m, b, fwd);
                            let mut got = x.clone();
                            kernel_combine(r, &mut got, &tw, m, b, fwd);
                            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    g.re.to_bits() == w.re.to_bits()
                                        && g.im.to_bits() == w.im.to_bits(),
                                    "{} r={r} m={m} b={b} fwd={fwd} lane={} k={}: {g:?} vs {w:?}",
                                    level.name(),
                                    i % b,
                                    (i / b) % m
                                );
                            }
                        }
                    }
                }
            }
        }
        set_isa_override(detected).unwrap();
    }
}
