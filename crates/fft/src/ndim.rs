//! n-dimensional FFT over row-major (C-order) complex buffers.
//!
//! The transform is separable: each axis is handled by a 1D [`Fft`] applied
//! to every line along that axis. Lines are grouped into *tiles*: on a
//! strided axis a tile is [`FftNd::batch_width`] memory-adjacent lines, on
//! the contiguous innermost axis one line. Tiles run through the batched
//! Cooley–Tukey path (`crate::batch`), which amortizes twiddle loads over
//! `b` lines and keeps every access contiguous — on the contiguous axis
//! by packing each run of `b` consecutive listed lines with a transpose —
//! or fall back to the per-line path for remainder tiles, shorter runs and
//! Bluestein axes. The tile-list and per-line entry points
//! ([`FftNd::num_tiles`], [`FftNd::transform_tiles_raw`],
//! [`FftNd::transform_line_raw`]) exist so `nufft-core` can shard work
//! across its worker pool — the plan itself is `Sync`, and the tiles (and
//! lines) of one axis are pairwise disjoint.

use crate::batch::copy_run;
use crate::fourstep::{FftStrategy, FourStep, DEFAULT_LLC_BUDGET};
use crate::plan::{Direction, Fft};
use nufft_math::Complex32;

/// An n-dimensional complex FFT plan for a fixed row-major shape.
pub struct FftNd {
    shape: Vec<usize>,
    plans: Vec<Fft>,
    len: usize,
    strategy: FftStrategy,
    /// Per-axis four-step split; `None` runs the recursive path.
    splits: Vec<Option<FourStep>>,
}

impl FftNd {
    /// Prepares a plan for `shape` (row-major; last axis contiguous) with
    /// the default [`FftStrategy::Auto`] selection.
    ///
    /// # Panics
    /// Panics if `shape` is empty or any extent is zero.
    pub fn new(shape: &[usize]) -> Self {
        Self::with_strategy(shape, FftStrategy::Auto, DEFAULT_LLC_BUDGET)
    }

    /// Prepares a plan with an explicit per-axis execution strategy.
    /// `llc_budget` (bytes) is the [`FftStrategy::Auto`] threshold: an axis
    /// whose single line of complex data exceeds it runs four-step. Forced
    /// [`FftStrategy::FourStep`] applies to every eligible axis regardless
    /// of size; Bluestein and single-stage axes always stay recursive. Both
    /// paths are bit-identical at a fixed ISA level, so the strategy is pure
    /// execution policy.
    ///
    /// # Panics
    /// Panics if `shape` is empty or any extent is zero.
    pub fn with_strategy(shape: &[usize], strategy: FftStrategy, llc_budget: usize) -> Self {
        assert!(!shape.is_empty(), "shape must have at least one axis");
        assert!(shape.iter().all(|&n| n > 0), "all extents must be positive");
        let plans: Vec<Fft> = shape.iter().map(|&n| Fft::new(n)).collect();
        let len = shape.iter().product();
        let b = Self::batch_width();
        let splits = shape
            .iter()
            .zip(&plans)
            .map(|(&n, plan)| {
                let want = match strategy {
                    FftStrategy::Recursive => false,
                    FftStrategy::FourStep => true,
                    FftStrategy::Auto => n * core::mem::size_of::<Complex32>() > llc_budget,
                };
                if want {
                    FourStep::plan(plan, b)
                } else {
                    None
                }
            })
            .collect();
        FftNd { shape: shape.to_vec(), plans, len, strategy, splits }
    }

    /// The strategy this plan was built with.
    pub fn strategy(&self) -> FftStrategy {
        self.strategy
    }

    /// Whether `axis` runs the four-step (sub-FFT + blocked-transpose)
    /// path. When false, the axis uses the recursive tile path and none of
    /// the `fs_*` entry points may be called for it.
    pub fn axis_fourstep(&self, axis: usize) -> bool {
        self.splits[axis].is_some()
    }

    fn split(&self, axis: usize) -> &FourStep {
        self.splits[axis].as_ref().expect("axis does not use the four-step path")
    }

    /// Number of four-step axes = number of `fs` scratch slots a caller
    /// must provision. Each four-step axis needs its **own** `len()`-sized
    /// region when passes of different axes may overlap (the fused DAG):
    /// an axis's sub-FFT pass writes `fs` at different element positions
    /// than it reads the grid, so reusing one region across axes would
    /// race with the previous axis's combine pass still reading it.
    pub fn fs_slots(&self) -> usize {
        self.splits.iter().filter(|s| s.is_some()).count()
    }

    /// The `fs` scratch slot index of a four-step `axis` (its rank among
    /// the four-step axes); callers offset their scratch by
    /// `fs_slot(axis) · len()`.
    pub fn fs_slot(&self, axis: usize) -> usize {
        debug_assert!(self.axis_fourstep(axis));
        self.splits[..axis].iter().filter(|s| s.is_some()).count()
    }

    /// The row-major shape this plan transforms.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (zero extents are rejected at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Element stride between consecutive entries along `axis`.
    pub fn axis_stride(&self, axis: usize) -> usize {
        self.shape[axis + 1..].iter().product()
    }

    /// Number of independent lines along `axis`.
    pub fn num_lines(&self, axis: usize) -> usize {
        self.len / self.shape[axis]
    }

    /// Start offset of line `line` along `axis`.
    ///
    /// Lines are indexed by `(outer, inner)` flattened as
    /// `line = outer·stride + inner` where `stride = axis_stride(axis)` and
    /// `outer` ranges over the axes before `axis`.
    pub fn line_start(&self, axis: usize, line: usize) -> usize {
        let stride = self.axis_stride(axis);
        let outer = line / stride;
        let inner = line % stride;
        outer * self.shape[axis] * stride + inner
    }

    /// Scratch length required per worker for any axis of this plan.
    pub fn scratch_len(&self) -> usize {
        let fft_scratch = self.plans.iter().map(|p| p.scratch_len()).max().unwrap_or(0);
        let line_buf = self.shape.iter().copied().max().unwrap_or(0);
        fft_scratch + line_buf
    }

    /// Lines per tile for the batched strided-axis path at the active ISA
    /// level: the SIMD complex-lane count (2 for SSE2, 4 for AVX2), floored
    /// at 2 so the scalar levels still amortize twiddle loads.
    pub fn batch_width() -> usize {
        nufft_simd::active_isa().c32_lanes().max(2)
    }

    /// Scratch length required per worker by [`FftNd::transform_tiles_raw`]
    /// with tiles of `b` lines (covers the per-line fallback too).
    pub fn batch_scratch_len(&self, b: usize) -> usize {
        let ct_max = self
            .shape
            .iter()
            .zip(&self.plans)
            .filter(|(_, p)| p.is_ct())
            .map(|(&n, _)| n)
            .max()
            .unwrap_or(0);
        self.scratch_len().max(2 * b * ct_max)
    }

    /// Number of tiles of width `b` along `axis`. Tiles group memory-adjacent
    /// lines within one `outer` block (they never straddle an outer
    /// boundary); the contiguous innermost axis has one line per tile.
    pub fn num_tiles(&self, axis: usize, b: usize) -> usize {
        assert!(b > 0, "tile width must be positive");
        let stride = self.axis_stride(axis);
        if stride == 1 {
            self.num_lines(axis)
        } else {
            let outers = self.len / (self.shape[axis] * stride);
            outers * stride.div_ceil(b)
        }
    }

    /// The tile (of width `b`, indexed as in [`FftNd::num_tiles`]) whose
    /// lines contain element `elem` for a transform along `axis`. Together
    /// with [`FftNd::for_each_tile_element`] this is the tile read/write
    /// footprint metadata a fused task graph needs: a consumer of element
    /// `elem` after the axis pass must order itself behind exactly this
    /// tile's task, instead of behind an all-axis join.
    pub fn tile_of_element(&self, axis: usize, elem: usize, b: usize) -> usize {
        debug_assert!(elem < self.len);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        if stride == 1 {
            // One contiguous line per tile.
            elem / n
        } else {
            let outer = elem / (n * stride);
            let inner = elem % stride;
            outer * stride.div_ceil(b) + inner / b
        }
    }

    /// The lines of tile `tile` of `axis` at width `b`, as `(outer, inner)`:
    /// `outer` is the row-major offset of the tile's indices on the axes
    /// before `axis` (one value per tile — tiles never straddle an outer
    /// block), `inner` the range of row-major offsets of its lines' indices
    /// on the axes after it. Line `(outer, i)` starts at
    /// `outer·shape[axis]·stride + i`; the contiguous innermost axis has
    /// one line per tile and `inner == 0..1`.
    pub fn tile_lines(
        &self,
        axis: usize,
        tile: usize,
        b: usize,
    ) -> (usize, core::ops::Range<usize>) {
        let stride = self.axis_stride(axis);
        if stride == 1 {
            (tile, 0..1)
        } else {
            let tiles_per_outer = stride.div_ceil(b);
            let inner0 = (tile % tiles_per_outer) * b;
            (tile / tiles_per_outer, inner0..(inner0 + b).min(stride))
        }
    }

    /// Calls `f` for every element read (and written) by tile `tile` of
    /// `axis` at width `b` — the inverse of [`FftNd::tile_of_element`].
    /// Tiles of one axis partition the buffer, so iterating all tiles
    /// visits every element exactly once.
    pub fn for_each_tile_element(
        &self,
        axis: usize,
        tile: usize,
        b: usize,
        mut f: impl FnMut(usize),
    ) {
        self.for_each_tile_run(axis, tile, b, |start, len| (start..start + len).for_each(&mut f));
    }

    /// The run form of [`FftNd::for_each_tile_element`]: calls `f(start,
    /// len)` for each run of contiguous elements of tile `tile` of `axis`
    /// at width `b`, in ascending order — one run of the tile's lines per
    /// axis position on a strided axis, the whole line on the contiguous
    /// one. A fused task graph resolves an element's writer once per run.
    pub fn for_each_tile_run(
        &self,
        axis: usize,
        tile: usize,
        b: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let (outer, inner) = self.tile_lines(axis, tile, b);
        let base = outer * n * stride + inner.start;
        if stride == 1 {
            f(base, n);
        } else {
            for j in 0..n {
                f(base + j * stride, inner.len());
            }
        }
    }

    /// Width (in columns) of one sub-FFT column group of a four-step axis.
    /// Columns are split into at most four groups per tile so a fused task
    /// graph gets intra-tile parallelism without exploding node count; on
    /// the contiguous innermost axis the width is rounded up to a whole
    /// number of `b`-column batches so no batch straddles a group boundary.
    pub fn fs_col_group_width(&self, axis: usize, b: usize) -> usize {
        assert!(b > 0, "batch width must be positive");
        let p = self.split(axis).p;
        let g = p.div_ceil(4);
        if self.axis_stride(axis) == 1 {
            g.next_multiple_of(b)
        } else {
            g
        }
    }

    /// Number of sub-FFT column groups per tile of a four-step axis (the
    /// first-pass shard count).
    pub fn fs_col_groups(&self, axis: usize, b: usize) -> usize {
        self.split(axis).p.div_ceil(self.fs_col_group_width(axis, b))
    }

    /// Number of combine k-blocks per tile of a four-step axis (the
    /// second-pass shard count).
    pub fn fs_k_blocks(&self, axis: usize) -> usize {
        self.split(axis).k_blocks()
    }

    /// The sub-FFT column group of `axis` that *reads* element `elem` — the
    /// read-side inverse of [`FftNd::for_each_fs_col_element`], used by a
    /// fused task graph to order a four-step axis's first pass behind
    /// exactly the writers of its columns.
    pub fn fs_col_group_of_element(&self, axis: usize, elem: usize, b: usize) -> usize {
        let four = self.split(axis);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let pos = if stride == 1 { elem % n } else { (elem / stride) % n };
        (pos % four.p) / self.fs_col_group_width(axis, b)
    }

    /// The combine k-block of `axis` that *writes* element `elem` — the
    /// writer-lookup a fused task graph needs to order consumers of a
    /// four-step axis behind exactly one second-pass task (paired with
    /// [`FftNd::tile_of_element`] for the tile coordinate).
    pub fn fs_kblock_of_element(&self, axis: usize, elem: usize) -> usize {
        let four = self.split(axis);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let pos = if stride == 1 { elem % n } else { (elem / stride) % n };
        (pos % four.n2) / four.kb
    }

    /// Calls `f` for every grid element *read* by sub-FFT column group `cg`
    /// of tile `tile` on four-step `axis`: the decimated sequences
    /// `x[c + P·t]` of its columns, across the tile's lines. The groups of
    /// one tile partition the tile's elements.
    pub fn for_each_fs_col_element(
        &self,
        axis: usize,
        tile: usize,
        cg: usize,
        b: usize,
        mut f: impl FnMut(usize),
    ) {
        self.for_each_fs_col_run(axis, tile, cg, b, |start, len| {
            (start..start + len).for_each(&mut f)
        });
    }

    /// The run form of [`FftNd::for_each_fs_col_element`]: calls `f(start,
    /// len)` for each run of contiguous elements the column group reads,
    /// in ascending order — per decimation step `t`, the group's columns
    /// `c + P·t` as one run on the contiguous axis, else one run of the
    /// tile's lines per column.
    pub fn for_each_fs_col_run(
        &self,
        axis: usize,
        tile: usize,
        cg: usize,
        b: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let four = self.split(axis);
        let (p, n2) = (four.p, four.n2);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let w = self.fs_col_group_width(axis, b);
        let c_lo = cg * w;
        let c_hi = (c_lo + w).min(p);
        let (outer, inner) = self.tile_lines(axis, tile, b);
        let base = outer * n * stride + inner.start;
        for t in 0..n2 {
            if stride == 1 {
                f(base + p * t + c_lo, c_hi - c_lo);
            } else {
                for c in c_lo..c_hi {
                    f(base + (c + p * t) * stride, inner.len());
                }
            }
        }
    }

    /// Calls `f` for every grid element *written* by combine k-block
    /// `kblock` of tile `tile` on four-step `axis` (axis positions `p` with
    /// `p mod n2` inside the k-block, across all blocks). The same set is
    /// the pass's read footprint of the intermediate buffer, and the
    /// k-blocks of one tile partition the tile's elements.
    pub fn for_each_fs_kblock_element(
        &self,
        axis: usize,
        tile: usize,
        kblock: usize,
        b: usize,
        mut f: impl FnMut(usize),
    ) {
        let four = self.split(axis);
        let (p, n2) = (four.p, four.n2);
        let k0 = kblock * four.kb;
        let kbw = four.kb.min(n2 - k0);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        if stride == 1 {
            let start = tile * n;
            for beta in 0..p {
                for k in k0..k0 + kbw {
                    f(start + beta * n2 + k);
                }
            }
        } else {
            let tiles_per_outer = stride.div_ceil(b);
            let outer = tile / tiles_per_outer;
            let inner0 = (tile % tiles_per_outer) * b;
            let lines_here = b.min(stride - inner0);
            let base = outer * n * stride + inner0;
            for beta in 0..p {
                for k in k0..k0 + kbw {
                    let e0 = base + (beta * n2 + k) * stride;
                    for l in 0..lines_here {
                        f(e0 + l);
                    }
                }
            }
        }
    }

    /// Four-step pass 1 for column group `cg` of tile `tile`: gathers each
    /// column's decimated sequence from `src`, runs the length-`n2`
    /// stage-suffix sub-FFT through the batched kernels, and scatters the
    /// spectrum into its digit-reversed block of `fs` (same line layout as
    /// the grid). `scratch` must be at least [`FftNd::batch_scratch_len`]
    /// `(b)` long.
    ///
    /// # Safety
    /// `src` and `fs` must each point to buffers of [`FftNd::len`] elements
    /// ([`FftNd::for_each_fs_col_element`] gives this call's `src` read set;
    /// it writes the `fs` blocks of its columns), and no other thread may
    /// concurrently write those regions. Distinct `(tile, cg)` pairs write
    /// disjoint `fs` regions, so sharding them across threads is sound.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn fs_sub_pass_raw(
        &self,
        src: *const Complex32,
        fs: *mut Complex32,
        axis: usize,
        tile: usize,
        cg: usize,
        b: usize,
        scratch: &mut [Complex32],
        dir: Direction,
    ) {
        let four = self.split(axis);
        let plan = &self.plans[axis];
        let stages = plan.stages();
        let bwd = match dir {
            Direction::Forward => None,
            Direction::Backward => {
                let t = plan.bwd_tables();
                Some((&t.twiddles[..], &t.roots[..]))
            }
        };
        let (p, n2) = (four.p, four.n2);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let w = self.fs_col_group_width(axis, b);
        let c_lo = cg * w;
        let c_hi = (c_lo + w).min(p);
        if stride == 1 {
            // Batch up to `b` *adjacent columns* per sub-FFT tile: element
            // `t` of columns `c0..c0+w` is the contiguous run
            // `src[c0 + P·t ..][..w]`, and `w ≤ P` keeps the runs disjoint.
            let start = tile * n;
            let mut c0 = c_lo;
            while c0 < c_hi {
                let cols = b.min(c_hi - c0);
                let (seq, rest) = scratch.split_at_mut(n2 * cols);
                let out = &mut rest[..n2 * cols];
                let sv = core::slice::from_raw_parts(src.add(start + c0), (n2 - 1) * p + cols);
                nufft_simd::gather_chunks(seq, sv, cols, p);
                crate::batch::recurse(stages, four.j, seq, 0, 1, out, cols, bwd);
                for lane in 0..cols {
                    let beta = four.block_of_col(stages, c0 + lane);
                    let dv = core::slice::from_raw_parts_mut(fs.add(start + beta * n2), n2);
                    nufft_simd::gather_chunks(dv, &out[lane..], 1, cols);
                }
                c0 += cols;
            }
        } else {
            // Strided axis: the tile's `lines_here` memory-adjacent lines
            // ride as interleaved lanes, one column at a time.
            let tiles_per_outer = stride.div_ceil(b);
            let outer = tile / tiles_per_outer;
            let inner0 = (tile % tiles_per_outer) * b;
            let lanes = b.min(stride - inner0);
            let base = outer * n * stride + inner0;
            for c in c_lo..c_hi {
                let (seq, rest) = scratch.split_at_mut(n2 * lanes);
                let out = &mut rest[..n2 * lanes];
                let sv = core::slice::from_raw_parts(
                    src.add(base + c * stride),
                    (n2 - 1) * p * stride + lanes,
                );
                nufft_simd::gather_chunks(seq, sv, lanes, p * stride);
                crate::batch::recurse(stages, four.j, seq, 0, 1, out, lanes, bwd);
                let beta = four.block_of_col(stages, c);
                let dv = core::slice::from_raw_parts_mut(
                    fs.add(base + beta * n2 * stride),
                    (n2 - 1) * stride + lanes,
                );
                nufft_simd::scatter_chunks(out, dv, lanes, stride);
            }
        }
    }

    /// Four-step pass 2 for k-block `kblock` of tile `tile`: the
    /// cache-blocked transpose-and-combine. Gathers one `kbw`-wide slab from
    /// every block of `fs` — applying the innermost combine level's twiddles
    /// during the gather when the split hoists them — runs combine levels
    /// `j-1..0` in cache, and scatters the finished spectrum slab into
    /// `dst`. Returns the seconds spent in the gather/twiddle sweep (the
    /// transpose-read half of the pass) for the caller's timing split.
    /// `scratch` must be at least [`FftNd::batch_scratch_len`]`(b)` long.
    ///
    /// # Safety
    /// `fs` and `dst` must each point to buffers of [`FftNd::len`] elements;
    /// this call reads and writes exactly the elements enumerated by
    /// [`FftNd::for_each_fs_kblock_element`] (`fs` reads, `dst` writes), and
    /// no other thread may concurrently access them. Distinct
    /// `(tile, kblock)` pairs touch disjoint regions. Every sub-FFT pass of
    /// the tile must have completed first.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn fs_combine_pass_raw(
        &self,
        fs: *const Complex32,
        dst: *mut Complex32,
        axis: usize,
        tile: usize,
        kblock: usize,
        b: usize,
        scratch: &mut [Complex32],
        dir: Direction,
    ) -> f64 {
        let four = self.split(axis);
        let plan = &self.plans[axis];
        let stages = plan.stages();
        let bwd = match dir {
            Direction::Forward => None,
            Direction::Backward => {
                let t = plan.bwd_tables();
                Some((&t.twiddles[..], &t.roots[..]))
            }
        };
        let (p, n2) = (four.p, four.n2);
        let k0 = kblock * four.kb;
        let kbw = four.kb.min(n2 - k0);
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let r_last = stages[four.j - 1].radix;
        let tw_last = match bwd {
            None => &stages[four.j - 1].twiddles[..],
            Some((tws, _)) => &tws[four.j - 1][..],
        };
        if stride == 1 {
            let start = tile * n;
            let work = &mut scratch[..p * kbw];
            let t0 = std::time::Instant::now();
            for beta in 0..p {
                let sv = core::slice::from_raw_parts(fs.add(start + beta * n2 + k0), kbw);
                let drow = &mut work[beta * kbw..(beta + 1) * kbw];
                let q = beta % r_last;
                if four.fuse_gather && q != 0 {
                    let tws = &tw_last[(q - 1) * n2 + k0..][..kbw];
                    nufft_simd::gather_chunks_cmul(drow, sv, tws, 1, 1);
                } else {
                    drow.copy_from_slice(sv);
                }
            }
            let gather_secs = t0.elapsed().as_secs_f64();
            four.combine_work(stages, bwd, work, k0, kbw, 1);
            for beta in 0..p {
                let dv = core::slice::from_raw_parts_mut(dst.add(start + beta * n2 + k0), kbw);
                dv.copy_from_slice(&work[beta * kbw..(beta + 1) * kbw]);
            }
            gather_secs
        } else {
            let tiles_per_outer = stride.div_ceil(b);
            let outer = tile / tiles_per_outer;
            let inner0 = (tile % tiles_per_outer) * b;
            let lanes = b.min(stride - inner0);
            let base = outer * n * stride + inner0;
            let row = kbw * lanes;
            let work = &mut scratch[..p * row];
            let t0 = std::time::Instant::now();
            for beta in 0..p {
                let sv = core::slice::from_raw_parts(
                    fs.add(base + (beta * n2 + k0) * stride),
                    (kbw - 1) * stride + lanes,
                );
                let drow = &mut work[beta * row..(beta + 1) * row];
                let q = beta % r_last;
                if four.fuse_gather && q != 0 {
                    let tws = &tw_last[(q - 1) * n2 + k0..][..kbw];
                    nufft_simd::gather_chunks_cmul(drow, sv, tws, lanes, stride);
                } else {
                    nufft_simd::gather_chunks(drow, sv, lanes, stride);
                }
            }
            let gather_secs = t0.elapsed().as_secs_f64();
            four.combine_work(stages, bwd, work, k0, kbw, lanes);
            for beta in 0..p {
                let dv = core::slice::from_raw_parts_mut(
                    dst.add(base + (beta * n2 + k0) * stride),
                    (kbw - 1) * stride + lanes,
                );
                nufft_simd::scatter_chunks(&work[beta * row..(beta + 1) * row], dv, lanes, stride);
            }
            gather_secs
        }
    }

    /// Transforms the tiles `tiles` of `axis` (width `b`, distinct ids as in
    /// [`FftNd::num_tiles`] — typically one chunk of an ascending tile list)
    /// through a raw base pointer.
    ///
    /// On a strided axis each full tile of a Cooley–Tukey axis takes the
    /// batched path; remainder tiles (fewer than `b` lines at the end of an
    /// outer block) and Bluestein axes fall back to the per-line path. On
    /// the contiguous axis a tile is one line: every run of `b` consecutive
    /// ids in `tiles` is packed into one interleaved tile (a `b×n`
    /// transpose) and sent through the batched path, while the lines of
    /// shorter runs — and every line of a Bluestein axis, or at an ISA
    /// level without vector lanes — go per line. The per-line path is
    /// bit-identical (see `crate::batch`), so how `tiles` is chunked never
    /// changes a result bit.
    ///
    /// `scratch` must be at least [`FftNd::batch_scratch_len`]`(b)` long.
    ///
    /// # Safety
    /// `base` must point to the start of a buffer of [`FftNd::len`] elements
    /// valid for reads and writes, and no other thread may concurrently
    /// access the elements of these tiles (tiles of the same axis are
    /// pairwise disjoint, so sharding disjoint id slices across threads is
    /// sound).
    pub unsafe fn transform_tiles_raw(
        &self,
        base: *mut Complex32,
        axis: usize,
        tiles: &[u32],
        b: usize,
        scratch: &mut [Complex32],
        dir: Direction,
    ) {
        if self.axis_stride(axis) > 1 {
            for &tile in tiles {
                self.transform_strided_tile(base, axis, tile as usize, b, scratch, dir);
            }
            return;
        }
        let n = self.shape[axis];
        let plan = &self.plans[axis];
        // Packing pays only when a tile feeds vector lanes: at the scalar
        // levels the two transposes cost more than batching saves
        // (`BENCH_fft.json`), so there every line goes per line.
        let pack = b > 1 && plan.is_ct() && nufft_simd::active_isa().c32_lanes() > 1;
        let mut i = 0;
        while i < tiles.len() {
            let line = tiles[i] as usize;
            // Pack only ids that list every line of the run: the transform
            // then touches no line outside `tiles`.
            let run = pack
                && tiles.get(i..i + b).is_some_and(|ids| {
                    ids.iter().enumerate().all(|(j, &t)| t as usize == line + j)
                });
            if !run {
                self.transform_line_raw(base, axis, line, scratch, dir);
                i += 1;
                continue;
            }
            // The run's lines are one contiguous b×n block starting at
            // line·n: pack it transposed, transform, unpack.
            let lines = core::slice::from_raw_parts_mut(base.add(line * n), n * b);
            let (tile, rest) = scratch.split_at_mut(n * b);
            let packed = &mut rest[..n * b];
            nufft_simd::transpose(packed, lines, b);
            crate::batch::transform_tile(plan, packed, tile, b, dir);
            nufft_simd::transpose(lines, tile, n);
            i += b;
        }
    }

    /// Transforms tile `tile` of strided `axis`: a full tile of a
    /// Cooley–Tukey axis through the batched path, anything else per line.
    ///
    /// # Safety
    /// As [`FftNd::transform_tiles_raw`] for this one tile.
    unsafe fn transform_strided_tile(
        &self,
        base: *mut Complex32,
        axis: usize,
        tile: usize,
        b: usize,
        scratch: &mut [Complex32],
        dir: Direction,
    ) {
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let tiles_per_outer = stride.div_ceil(b);
        let outer = tile / tiles_per_outer;
        let inner0 = (tile % tiles_per_outer) * b;
        let lines_here = b.min(stride - inner0);
        let plan = &self.plans[axis];
        if lines_here == b && plan.is_ct() {
            let start = outer * n * stride + inner0;
            let (tile_buf, rest) = scratch.split_at_mut(n * b);
            let packed = &mut rest[..n * b];
            // Gather: lines inner0..inner0+b are adjacent in memory, so
            // element j of all b lines is one contiguous b-complex run.
            for (j, run) in packed.chunks_exact_mut(b).enumerate() {
                let line = core::slice::from_raw_parts(base.add(start + j * stride), b);
                copy_run(run, line);
            }
            crate::batch::transform_tile(plan, packed, tile_buf, b, dir);
            for (j, run) in tile_buf[..n * b].chunks_exact(b).enumerate() {
                let line = core::slice::from_raw_parts_mut(base.add(start + j * stride), b);
                copy_run(line, run);
            }
        } else {
            for l in 0..lines_here {
                let line = outer * stride + inner0 + l;
                self.transform_line_raw(base, axis, line, scratch, dir);
            }
        }
    }

    /// Transforms a single line along `axis` through a raw base pointer.
    ///
    /// `scratch` must be at least [`FftNd::scratch_len`] long.
    ///
    /// # Safety
    /// `base` must point to the start of a buffer of [`FftNd::len`]
    /// elements valid for reads and writes, and no other thread may
    /// concurrently access the elements of this line (other lines of the
    /// same axis are disjoint, so sharding whole lines across threads is
    /// sound).
    pub unsafe fn transform_line_raw(
        &self,
        base: *mut Complex32,
        axis: usize,
        line: usize,
        scratch: &mut [Complex32],
        dir: Direction,
    ) {
        let n = self.shape[axis];
        let stride = self.axis_stride(axis);
        let start = self.line_start(axis, line);
        let plan = &self.plans[axis];
        if stride == 1 {
            // Contiguous line: transform in place.
            let lane = core::slice::from_raw_parts_mut(base.add(start), n);
            plan.process_with_scratch(lane, scratch, dir);
        } else {
            let (buf, fft_scratch) = scratch.split_at_mut(n);
            for j in 0..n {
                buf[j] = *base.add(start + j * stride);
            }
            plan.process_with_scratch(buf, fft_scratch, dir);
            for j in 0..n {
                *base.add(start + j * stride) = buf[j];
            }
        }
    }

    /// Transforms every line of `axis` sequentially via the batched tile
    /// path (on the contiguous axis: packed runs of `b` lines).
    ///
    /// # Panics
    /// Panics if `data.len()` doesn't match the plan.
    pub fn transform_axis(&self, data: &mut [Complex32], axis: usize, dir: Direction) {
        assert_eq!(data.len(), self.len, "data length mismatch");
        let b = Self::batch_width();
        let mut scratch = vec![Complex32::ZERO; self.batch_scratch_len(b)];
        let base = data.as_mut_ptr();
        if self.axis_fourstep(axis) {
            // Sequential four-step: sub-FFT sweep into a local intermediate
            // buffer, then the blocked transpose-and-combine sweep back into
            // `data`. (`nufft-core` drives the same passes with a plan-owned
            // buffer and shards them across its pool.)
            let mut fs = vec![Complex32::ZERO; self.len];
            let fsp = fs.as_mut_ptr();
            for tile in 0..self.num_tiles(axis, b) {
                for cg in 0..self.fs_col_groups(axis, b) {
                    // SAFETY: we hold &mut data and process shards one at a
                    // time; `fs` is exclusively ours.
                    unsafe {
                        self.fs_sub_pass_raw(base, fsp, axis, tile, cg, b, &mut scratch, dir)
                    };
                }
            }
            for tile in 0..self.num_tiles(axis, b) {
                for kblock in 0..self.fs_k_blocks(axis) {
                    // SAFETY: as above; all sub-FFT passes completed.
                    unsafe {
                        self.fs_combine_pass_raw(
                            fsp,
                            base,
                            axis,
                            tile,
                            kblock,
                            b,
                            &mut scratch,
                            dir,
                        )
                    };
                }
            }
            return;
        }
        let tiles: Vec<u32> = (0..self.num_tiles(axis, b) as u32).collect();
        // SAFETY: we hold &mut data and process tiles one at a time.
        unsafe { self.transform_tiles_raw(base, axis, &tiles, b, &mut scratch, dir) };
    }

    /// Transforms every line of `axis` sequentially, one line at a time —
    /// the reference arm for the batched path (bit-identical at a fixed ISA
    /// level; kept for tests and benchmarks).
    ///
    /// # Panics
    /// Panics if `data.len()` doesn't match the plan.
    pub fn transform_axis_per_line(&self, data: &mut [Complex32], axis: usize, dir: Direction) {
        assert_eq!(data.len(), self.len, "data length mismatch");
        let mut scratch = vec![Complex32::ZERO; self.scratch_len()];
        let base = data.as_mut_ptr();
        for line in 0..self.num_lines(axis) {
            // SAFETY: we hold &mut data and process lines one at a time.
            unsafe { self.transform_line_raw(base, axis, line, &mut scratch, dir) };
        }
    }

    /// Full n-dimensional transform (sequential over axes and tiles).
    pub fn process(&self, data: &mut [Complex32], dir: Direction) {
        for axis in 0..self.shape.len() {
            self.transform_axis(data, axis, dir);
        }
    }

    /// Full n-dimensional transform through the per-line reference path.
    pub fn process_per_line(&self, data: &mut [Complex32], dir: Direction) {
        for axis in 0..self.shape.len() {
            self.transform_axis_per_line(data, axis, dir);
        }
    }

    /// Forward n-dimensional transform.
    pub fn forward(&self, data: &mut [Complex32]) {
        self.process(data, Direction::Forward);
    }

    /// Unnormalized backward transform (exact adjoint of [`FftNd::forward`]).
    pub fn backward(&self, data: &mut [Complex32]) {
        self.process(data, Direction::Backward);
    }

    /// Normalized inverse: `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Complex32]) {
        self.backward(data);
        let s = 1.0 / self.len as f32;
        for z in data {
            *z *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_math::error::rel_l2_c32;
    use nufft_math::Complex64;

    fn demo(len: usize) -> Vec<Complex32> {
        (0..len).map(|i| Complex32::new((i as f32 * 0.13).sin(), (i as f32 * 0.29).cos())).collect()
    }

    /// Naive n-D DFT oracle in f64.
    fn naive_nd(x: &[Complex32], shape: &[usize], sign: f64) -> Vec<Complex32> {
        let len = x.len();
        let mut out = vec![Complex64::ZERO; len];
        let nd = shape.len();
        let mut strides = vec![1usize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        let unravel = |mut i: usize| -> Vec<usize> {
            let mut idx = vec![0; nd];
            for d in 0..nd {
                idx[d] = i / strides[d];
                i %= strides[d];
            }
            idx
        };
        for (ko, out_z) in out.iter_mut().enumerate() {
            let kk = unravel(ko);
            let mut acc = Complex64::ZERO;
            for (jo, &v) in x.iter().enumerate() {
                let jj = unravel(jo);
                let mut ph = 0.0;
                for d in 0..nd {
                    ph += (jj[d] * kk[d]) as f64 / shape[d] as f64;
                }
                acc += v.to_f64() * Complex64::cis(sign * core::f64::consts::TAU * ph);
            }
            *out_z = acc;
        }
        out.into_iter().map(|z| z.to_f32()).collect()
    }

    #[test]
    fn line_geometry_is_consistent() {
        let plan = FftNd::new(&[2, 3, 4]);
        assert_eq!(plan.axis_stride(0), 12);
        assert_eq!(plan.axis_stride(1), 4);
        assert_eq!(plan.axis_stride(2), 1);
        assert_eq!(plan.num_lines(0), 12);
        assert_eq!(plan.num_lines(1), 8);
        assert_eq!(plan.num_lines(2), 6);
        // Every element belongs to exactly one line per axis.
        for axis in 0..3 {
            let stride = plan.axis_stride(axis);
            let n = plan.shape()[axis];
            let mut seen = vec![false; plan.len()];
            for line in 0..plan.num_lines(axis) {
                let s = plan.line_start(axis, line);
                for j in 0..n {
                    let idx = s + j * stride;
                    assert!(!seen[idx], "element {idx} visited twice on axis {axis}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "axis {axis} missed elements");
        }
    }

    #[test]
    fn matches_naive_2d() {
        let shape = [6usize, 8];
        let x = demo(48);
        let plan = FftNd::new(&shape);
        let mut got = x.clone();
        plan.forward(&mut got);
        let want = naive_nd(&x, &shape, -1.0);
        let err = rel_l2_c32(&got, &want);
        assert!(err < 2e-5, "2d err {err}");
    }

    #[test]
    fn matches_naive_3d() {
        let shape = [4usize, 5, 6];
        let x = demo(120);
        let plan = FftNd::new(&shape);
        for (dir, sign) in [(Direction::Forward, -1.0), (Direction::Backward, 1.0)] {
            let mut got = x.clone();
            plan.process(&mut got, dir);
            let want = naive_nd(&x, &shape, sign);
            let err = rel_l2_c32(&got, &want);
            assert!(err < 2e-5, "3d {dir:?} err {err}");
        }
    }

    #[test]
    fn inverse_round_trips_3d() {
        let shape = [8usize, 4, 10];
        let x = demo(320);
        let plan = FftNd::new(&shape);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert!(rel_l2_c32(&y, &x) < 1e-5);
    }

    #[test]
    fn one_dimensional_plan_matches_1d_fft() {
        let n = 30;
        let x = demo(n);
        let nd = FftNd::new(&[n]);
        let fft = Fft::new(n);
        let mut a = x.clone();
        let mut b = x.clone();
        nd.forward(&mut a);
        fft.forward(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn separable_impulse_3d() {
        // A delta at the origin transforms to all-ones.
        let shape = [3usize, 4, 5];
        let mut x = vec![Complex32::ZERO; 60];
        x[0] = Complex32::ONE;
        FftNd::new(&shape).forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-5 && z.im.abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = FftNd::new(&[4, 0]);
    }

    /// Every line of an axis is covered by exactly one tile, for widths that
    /// divide the stride evenly and ones that leave remainders.
    #[test]
    fn tile_geometry_covers_each_line_once() {
        let plan = FftNd::new(&[3, 5, 4]);
        for axis in 0..3 {
            for b in [1usize, 2, 3, 4, 7] {
                let stride = plan.axis_stride(axis);
                let tiles_per_outer = if stride == 1 { 1 } else { stride.div_ceil(b) };
                let mut seen = vec![0usize; plan.num_lines(axis)];
                for tile in 0..plan.num_tiles(axis, b) {
                    if stride == 1 {
                        seen[tile] += 1;
                        continue;
                    }
                    let outer = tile / tiles_per_outer;
                    let inner0 = (tile % tiles_per_outer) * b;
                    for l in 0..b.min(stride - inner0) {
                        seen[outer * stride + inner0 + l] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "axis {axis} b={b}: line coverage {seen:?}");
            }
        }
    }

    /// The run walks hand out non-empty runs in ascending, non-overlapping
    /// order, each inside one block of the axis's stride (its elements
    /// share every index up to the axis; on the contiguous axis, one
    /// line) — what a fused graph's wiring walk relies on.
    #[test]
    fn tile_and_column_runs_ascend_within_one_block() {
        use crate::FftStrategy;
        let check = |runs: &[(usize, usize)], block: usize, what: &str| {
            for (i, &(s, l)) in runs.iter().enumerate() {
                assert!(l > 0, "{what}: empty run");
                assert_eq!(s / block, (s + l - 1) / block, "{what}: run crosses a block");
                assert!(i == 0 || runs[i - 1].0 + runs[i - 1].1 <= s, "{what}: not ascending");
            }
        };
        for shape in [&[3usize, 5, 4][..], &[6, 8], &[7], &[2, 2, 2, 3], &[16, 12]] {
            for strategy in [FftStrategy::Recursive, FftStrategy::FourStep] {
                let plan = FftNd::with_strategy(shape, strategy, 0);
                for axis in 0..shape.len() {
                    let stride = plan.axis_stride(axis);
                    let block = if stride == 1 { shape[axis] } else { stride };
                    for b in [2usize, 4] {
                        for tile in 0..plan.num_tiles(axis, b) {
                            let what = format!("{shape:?} {strategy:?} axis {axis} b={b} {tile}");
                            let mut runs = Vec::new();
                            plan.for_each_tile_run(axis, tile, b, |s, l| runs.push((s, l)));
                            check(&runs, block, &what);
                            if !plan.axis_fourstep(axis) {
                                continue;
                            }
                            for cg in 0..plan.fs_col_groups(axis, b) {
                                runs.clear();
                                plan.for_each_fs_col_run(axis, tile, cg, b, |s, l| {
                                    runs.push((s, l))
                                });
                                check(&runs, block, &format!("{what} column group {cg}"));
                            }
                        }
                    }
                }
            }
        }
    }

    /// `tile_of_element` and `for_each_tile_element` are mutually inverse
    /// and partition the buffer for every axis and width.
    #[test]
    fn tile_element_footprints_partition_the_buffer() {
        for shape in [&[3usize, 5, 4][..], &[6, 8], &[7], &[2, 2, 2, 3]] {
            let plan = FftNd::new(shape);
            for axis in 0..shape.len() {
                for b in [1usize, 2, 3, 4, 7] {
                    let mut seen = vec![0usize; plan.len()];
                    for tile in 0..plan.num_tiles(axis, b) {
                        plan.for_each_tile_element(axis, tile, b, |e| {
                            seen[e] += 1;
                            assert_eq!(
                                plan.tile_of_element(axis, e, b),
                                tile,
                                "shape {shape:?} axis {axis} b={b} elem {e}"
                            );
                        });
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "shape {shape:?} axis {axis} b={b}: coverage {seen:?}"
                    );
                }
            }
        }
    }

    /// The batched axis transform is bit-identical to the per-line one on
    /// shapes exercising full tiles, remainder tiles, and a Bluestein axis.
    #[test]
    fn batched_axis_matches_per_line_bitwise() {
        let _isa = crate::isa_test_lock();
        for shape in [&[6usize, 8][..], &[5, 7, 6], &[17, 4], &[4, 17], &[3, 3, 3]] {
            let len: usize = shape.iter().product();
            let x = demo(len);
            let plan = FftNd::new(shape);
            for dir in [Direction::Forward, Direction::Backward] {
                let mut batched = x.clone();
                plan.process(&mut batched, dir);
                let mut per_line = x.clone();
                plan.process_per_line(&mut per_line, dir);
                for (i, (g, w)) in batched.iter().zip(&per_line).enumerate() {
                    assert!(
                        g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                        "shape {shape:?} {dir:?} i={i}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    /// Splits the tile ids `0..tiles` into the slices a tile-list executor
    /// could hand [`FftNd::transform_tiles_raw`]: first the ids with
    /// `id % 7 < 5` (runs of five with gaps of two) in chunks of 6, 1, 3,
    /// 5, 2 and 4 ids, then the rest (runs of two) in chunks of 3.
    fn gappy_slices(tiles: usize) -> Vec<Vec<u32>> {
        let ids = 0..tiles as u32;
        let (first, rest): (Vec<u32>, Vec<u32>) = ids.partition(|&id| id % 7 < 5);
        let mut slices = Vec::new();
        let mut it = first.into_iter().peekable();
        for len in [6usize, 1, 3, 5, 2, 4].into_iter().cycle() {
            if it.peek().is_none() {
                break;
            }
            slices.push(it.by_ref().take(len).collect());
        }
        slices.extend(rest.chunks(3).map(|c| c.to_vec()));
        slices
    }

    /// The slice entry point equals the per-line path bitwise when fed tile
    /// lists with gaps and runs shorter than `b` — on strided axes, on the
    /// contiguous axis (packed runs, leftover lines), and on Bluestein axes,
    /// contiguous (17) and strided (19), at several widths.
    #[test]
    fn tile_slices_with_gaps_match_per_line_bitwise() {
        let _isa = crate::isa_test_lock();
        for shape in [&[6usize, 40][..], &[3, 4, 40], &[8, 96], &[5, 17], &[19, 12], &[30]] {
            let plan = FftNd::new(shape);
            let x = demo(plan.len());
            for b in [2usize, 3, 4] {
                for dir in [Direction::Forward, Direction::Backward] {
                    let mut got = x.clone();
                    let mut scratch = vec![Complex32::ZERO; plan.batch_scratch_len(b)];
                    for axis in 0..shape.len() {
                        for slice in gappy_slices(plan.num_tiles(axis, b)) {
                            // SAFETY: exclusive access to `got`; slices run
                            // one at a time.
                            unsafe {
                                plan.transform_tiles_raw(
                                    got.as_mut_ptr(),
                                    axis,
                                    &slice,
                                    b,
                                    &mut scratch,
                                    dir,
                                )
                            };
                        }
                    }
                    let mut want = x.clone();
                    plan.process_per_line(&mut want, dir);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                            "shape {shape:?} b={b} {dir:?} i={i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }
}
