//! Four-step (Bailey) decomposition of one long-axis transform.
//!
//! A length-`n = n1·n2` Cooley–Tukey transform is the DIT recursion of
//! [`crate::plan::Fft`]: descend through the stage list, compute leaf
//! sub-transforms, combine on the way back up. The recursive path walks that
//! tree depth-first, which for an out-of-cache line means every combine level
//! re-streams the whole line. The four-step path executes the *same* tree in
//! two cache-friendly sweeps around a split level `j` with
//! `n1 = P = r_0·…·r_{j-1} ≈ √n`:
//!
//! 1. **Sub-FFT pass** — the `P` leaf calls at level `j` are independent
//!    length-`n2` transforms of the decimated sequences `x[c + P·t]`
//!    (`c ∈ [0, P)`). Each runs through the batched tile driver entered at
//!    the stage suffix (`crate::batch::transform_runs` from `from = j`) and
//!    lands in a block-major intermediate buffer: column `c`'s spectrum
//!    occupies block `β(c)` (the digit-reversed block index the recursion
//!    would have written it to), positions `β·n2 .. (β+1)·n2`.
//! 2. **Combine pass** — the remaining levels `j-1 .. 0` only ever mix
//!    elements with the *same* within-block offset `k ∈ [0, n2)`: at level
//!    `l` the butterfly at offset `k` touches `dst[(g·r_l + q)·m_l + k]` and
//!    `k mod n2` is invariant because `n2 | m_l`. So the combine is run per
//!    *k-block* — a cache-blocked gather of `P × kbw` elements (one `kbw`-wide
//!    slab from every block, the "blocked transpose"), all `j` combine levels
//!    applied in cache, then one scatter to the output. The level-`(j-1)`
//!    twiddle multiply is hoisted into the gather
//!    ([`nufft_simd::gather_chunks_cmul`]) whenever that level takes the SIMD
//!    kernel branch, so the transpose is a single read-modify-write sweep.
//!
//! Bit-identity with the recursive path holds at every ISA level because
//! (a) the sub-FFT pass runs the identical stage-suffix kernels, (b) the
//! per-level kernel-regime decision (`radix ∈ {2,4} && m ≥ MIN_SIMD_M`)
//! is reproduced exactly, and (c) within a regime the SIMD kernels are
//! elementwise-uniform — `cmul4`, its broadcast form, and the `mul_add`
//! tail produce identical bits per element (pinned in `nufft-simd`), so
//! regrouping elements into different vector calls cannot change results.

use crate::batch::{combine_cols, BwdView};
use crate::plan::{Fft, Stage, MIN_SIMD_M};
use nufft_math::Complex32;
use nufft_simd::fft_rows::{self, ColBlocks};

/// Per-axis FFT execution strategy for [`crate::FftNd`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FftStrategy {
    /// Size heuristic: four-step when one line of the axis overflows the
    /// configured last-level-cache budget, recursive otherwise.
    #[default]
    Auto,
    /// Always the depth-first recursive path.
    Recursive,
    /// Four-step on every eligible axis (Cooley–Tukey with ≥ 2 stages);
    /// ineligible axes (Bluestein, single-stage) stay recursive.
    FourStep,
}

/// Default LLC budget for [`FftStrategy::Auto`]: one line above 2 MiB of
/// complex data (n > 256 Ki elements) is considered out-of-cache. Per-core
/// LLC share on the paper's Xeon-class parts is 1.375–2.5 MiB; staying at
/// the low end keeps `Auto` from ever slowing an in-cache grid down.
pub const DEFAULT_LLC_BUDGET: usize = 2 * 1024 * 1024;

/// Target working-set size (in complex elements) for one combine k-block:
/// `P · kb · b ≈ 64 Ki` elements = 512 KiB, comfortably inside L2 alongside
/// the twiddle slices.
const KBLOCK_TARGET_ELEMS: usize = 65536;

/// A planned four-step split of one axis plan. Pure geometry plus the
/// combine-sweep arithmetic; gather/scatter against the grid lives in
/// [`crate::FftNd`], which owns the line/tile layout.
pub(crate) struct FourStep {
    /// Split level: `stages[..j]` are the combine levels, `stages[j..]` the
    /// sub-FFT suffix.
    pub(crate) j: usize,
    /// `n1 = r_0·…·r_{j-1}` — number of columns / blocks.
    pub(crate) p: usize,
    /// Sub-FFT length (`n / p`).
    pub(crate) n2: usize,
    /// Combine k-block width (≤ `n2`, multiple of 8 unless clamped by `n2`).
    pub(crate) kb: usize,
    /// Whether the level-`(j-1)` twiddle multiply is hoisted into the
    /// transpose gather. True exactly when that level takes the SIMD kernel
    /// branch (`r_{j-1} ∈ {2,4}` and `n2 ≥ MIN_SIMD_M`), where the hoisted
    /// complex multiply is the bitwise-identical FMA shape; scalar-regime
    /// levels keep the plain multiply inside the combine loop.
    pub(crate) fuse_gather: bool,
}

impl FourStep {
    /// Plans a four-step split for `fft`, or `None` when the plan is not
    /// eligible (Bluestein, or fewer than two stages — nothing to split).
    /// `b` is the batch width the k-block sizing assumes.
    pub(crate) fn plan(fft: &Fft, b: usize) -> Option<FourStep> {
        if !fft.is_ct() {
            return None;
        }
        let stages = fft.stages();
        if stages.len() < 2 {
            return None;
        }
        let n = fft.len();
        // Split where the column count is closest to √n: minimizes the
        // larger of the two passes' per-line working sets.
        let mut best = (usize::MAX, 1usize, 1usize); // (|p² − n|, j, p)
        let mut p = 1usize;
        for (l, s) in stages[..stages.len() - 1].iter().enumerate() {
            p *= s.radix;
            let d = (p * p).abs_diff(n);
            if d < best.0 {
                best = (d, l + 1, p);
            }
        }
        let (_, j, p) = best;
        let n2 = n / p;
        let kb = (KBLOCK_TARGET_ELEMS / (p * b.max(1)).max(1)).max(8) & !7;
        let kb = kb.min(n2);
        let r_last = stages[j - 1].radix;
        let fuse_gather = (r_last == 2 || r_last == 4) && n2 >= MIN_SIMD_M;
        Some(FourStep { j, p, n2, kb, fuse_gather })
    }

    /// Number of combine k-blocks per line.
    pub(crate) fn k_blocks(&self) -> usize {
        self.n2.div_ceil(self.kb)
    }

    /// The input column feeding block `beta`: inverts the dst placement of
    /// the DIT recursion. Block index digits are big-endian in the per-level
    /// quotients (`β = Σ q_l·M_l`, `M_l = m_l/n2`); the column is their
    /// little-endian composition (`c = Σ q_l·stride_l`,
    /// `stride_l = r_0·…·r_{l-1}`). The passes only need the forward map
    /// ([`FourStep::block_of_col`]); this inverse documents the bijection
    /// and pins it in the unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn col_of_block(&self, stages: &[Stage], beta: usize) -> usize {
        let mut rem = beta;
        let mut stride = 1usize;
        let mut c = 0usize;
        for s in &stages[..self.j] {
            let big_m = self.p / (stride * s.radix);
            c += (rem / big_m) * stride;
            rem %= big_m;
            stride *= s.radix;
        }
        c
    }

    /// The block receiving column `c`'s sub-spectrum — inverse of
    /// [`FourStep::col_of_block`].
    pub(crate) fn block_of_col(&self, stages: &[Stage], c: usize) -> usize {
        let mut stride = 1usize;
        let mut beta = 0usize;
        for s in &stages[..self.j] {
            let big_m = self.p / (stride * s.radix);
            beta += ((c / stride) % s.radix) * big_m;
            stride *= s.radix;
        }
        beta
    }

    /// Runs combine levels `j-1 .. 0` over a gathered k-block working set.
    ///
    /// `work` holds `p` block rows of `kbw·lanes` elements each, laid out
    /// `work[(β·kbw + κ)·lanes + lane]` with `κ` the offset within the
    /// k-block starting at absolute offset `k0`. When
    /// [`FourStep::fuse_gather`] is set the caller has already applied the
    /// level-`(j-1)` twiddles during the gather and that level runs the
    /// no-twiddle butterflies.
    pub(crate) fn combine_work(
        &self,
        stages: &[Stage],
        bwd: Option<BwdView<'_>>,
        work: &mut [Complex32],
        k0: usize,
        kbw: usize,
        lanes: usize,
    ) {
        let forward = bwd.is_none();
        let row = kbw * lanes;
        debug_assert_eq!(work.len(), self.p * row);
        for l in (0..self.j).rev() {
            let stage = &stages[l];
            let r = stage.radix;
            let m = stage.m;
            let big_m = m / self.n2;
            let groups = self.p / (r * big_m);
            let (tw, roots) = match bwd {
                None => (&stage.twiddles[..], &stage.roots[..]),
                Some((tws, rts)) => (&tws[l][..], &rts[l][..]),
            };
            let simd = (r == 2 || r == 4) && m >= MIN_SIMD_M;
            let hoisted = self.fuse_gather && l == self.j - 1;
            let step = big_m * row;
            for g in 0..groups {
                for bl in 0..big_m {
                    let base = (g * r * big_m + bl) * row;
                    // Absolute twiddle offset of this row's first element for
                    // digit q is (q-1)·m + bl·n2 + k0.
                    let toff = bl * self.n2 + k0;
                    let at = ColBlocks::one(lanes, step);
                    if simd && r == 2 {
                        let tw1 = &tw[toff..toff + kbw];
                        if hoisted || lanes == 1 {
                            let (lo, hi) = work.split_at_mut(base + step);
                            let d0 = &mut lo[base..base + row];
                            let d1 = &mut hi[..row];
                            if hoisted {
                                fft_rows::bfly2_nt(d0, d1);
                            } else {
                                fft_rows::bfly2_rows(d0, d1, tw1);
                            }
                        } else {
                            fft_rows::bfly2_cols(&mut work[base..base + step + row], tw1, at);
                        }
                    } else if simd && r == 4 {
                        let quad = &mut work[base..base + 3 * step + row];
                        let tw1 = &tw[toff..toff + kbw];
                        let tw2 = &tw[m + toff..m + toff + kbw];
                        let tw3 = &tw[2 * m + toff..2 * m + toff + kbw];
                        if hoisted || lanes == 1 {
                            let (c0, rest) = quad.split_at_mut(step);
                            let (c1, rest) = rest.split_at_mut(step);
                            let (c2, c3) = rest.split_at_mut(step);
                            let (d0, d1) = (&mut c0[..row], &mut c1[..row]);
                            let (d2, d3) = (&mut c2[..row], &mut c3[..row]);
                            if hoisted {
                                fft_rows::bfly4_nt(d0, d1, d2, d3, forward);
                            } else {
                                fft_rows::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward);
                            }
                        } else {
                            fft_rows::bfly4_cols(quad, [tw1, tw2, tw3], at, forward);
                        }
                    } else {
                        // Plain regime: the column kernels (radix 7/11/13:
                        // the scalar loop) run the exact per-element
                        // arithmetic of the recursive combine.
                        let d = &mut work[base..];
                        combine_cols(d, stage, tw, roots, toff, kbw, at, forward);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `col_of_block` and `block_of_col` are mutually inverse bijections on
    /// `[0, P)` for every factorization the planner produces.
    #[test]
    fn block_column_maps_are_inverse_bijections() {
        for n in [8usize, 16, 48, 60, 96, 120, 240, 360, 1024, 4096] {
            let fft = Fft::new(n);
            let fs = FourStep::plan(&fft, 4).expect("eligible");
            assert_eq!(fs.p * fs.n2, n);
            let stages = fft.stages();
            let mut seen = vec![false; fs.p];
            for beta in 0..fs.p {
                let c = fs.col_of_block(stages, beta);
                assert!(c < fs.p, "n={n} beta={beta}: column {c} out of range");
                assert!(!seen[c], "n={n}: column {c} hit twice");
                seen[c] = true;
                assert_eq!(fs.block_of_col(stages, c), beta, "n={n} beta={beta}");
            }
        }
    }

    /// The split lands near √n and the k-block width stays within `n2`.
    #[test]
    fn planner_picks_balanced_splits() {
        for n in [64usize, 256, 4096, 65536, 262144] {
            let fft = Fft::new(n);
            let fs = FourStep::plan(&fft, 4).unwrap();
            let ratio = fs.p as f64 / (n as f64).sqrt();
            assert!(
                (0.24..=4.1).contains(&ratio),
                "n={n}: p={} n2={} badly unbalanced",
                fs.p,
                fs.n2
            );
            assert!(fs.kb >= 1 && fs.kb <= fs.n2);
            assert_eq!(fs.k_blocks(), fs.n2.div_ceil(fs.kb));
        }
    }

    /// Bluestein and single-stage plans are ineligible.
    #[test]
    fn ineligible_plans_are_rejected() {
        assert!(FourStep::plan(&Fft::new(31), 4).is_none()); // Bluestein
        assert!(FourStep::plan(&Fft::new(5), 4).is_none()); // single stage
        assert!(FourStep::plan(&Fft::new(1), 4).is_none()); // degenerate
    }
}
