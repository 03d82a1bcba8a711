//! Fused whole-transform task graphs (the tentpole of the barrier-free
//! pipeline).
//!
//! Composing an operator from its stage operators runs scale → per-axis
//! FFT → convolution with an executor-level join after every stage —
//! `D + 2` stragglers' worth of idle time per apply. This module builds,
//! once per plan and channel count, a single heterogeneous [`Dag`] whose
//! nodes cover *every* phase of an operator and whose edges are the actual
//! data dependencies between them, so one `Executor::run_dag` dispatch
//! replaces all the joins. It is the only schedule
//! [`NufftPlan`](crate::plan::NufftPlan) runs:
//!
//! * **`Scale`** (forward) — one contiguous grid *slab* per node per
//!   channel, filled with the inverse-embed map (zero outside the image,
//!   `image·scale` inside) so no separate zeroing pass exists;
//! * **`Zero`** (adjoint) — one grid slab per node, zeroed across all
//!   channels;
//! * **`Fft`** — a chunk of one axis's listed SIMD tiles of one channel
//!   (from the plan-owned `TilePlan`, whose full lists
//!   [`crate::stage::FftOp`] shards too; the zero-aware passes list only
//!   the tiles an operator needs — see `TileSet`);
//! * **`Conv`/`Priv`/`Reduce`** — the adjoint scatter tasks with their
//!   Gray-code exclusion edges carried over verbatim, privatized tasks
//!   split into a dependency-free `Priv` convolve and a `Reduce` that
//!   inherits the edges: the task graph's expansion, node for node the
//!   graph the spread stage driver runs on its own;
//! * **`Gather`** (forward) — a chunk of one task's samples (so a chunk's
//!   kernel windows stay inside that task's halo box);
//! * **`Extract`** (adjoint) — a contiguous image chunk.
//!
//! ## Per-stage fragments
//!
//! Each stage operator contributes its node set through one `emit_*`
//! fragment function and its data dependencies through one `connect_*`
//! function; the whole-operator builders (`build_forward`,
//! `build_adjoint`) are thin compositions of those fragments instead of
//! bespoke compilers.
//!
//! ## Edge construction
//!
//! Edges are exact at the node granularity (conservative only up to
//! chunking), and the walks that find them go by *run* of elements that
//! share one writer, with one writer lookup per run:
//!
//! * last writer → axis *k*: a chunk depends, for each element it reads,
//!   on the element's last writer — the chunk of the latest earlier axis
//!   whose tile holding it runs, else (forward) the `Scale` slab. The
//!   chunk's tiles hand out their read set as contiguous runs
//!   ([`FftNd::for_each_tile_run`], [`FftNd::for_each_fs_col_run`]); along
//!   a run an earlier axis's tile only changes at a `b`-element boundary
//!   of its inner offset, so each run splits at those points (and at slab
//!   ends), found by mask and addition, and the writer comes from a
//!   tile → chunk table. Writers are deduplicated per chunk with a stamp
//!   array: O(runs) per axis, not all-to-all;
//! * conv → first-axis FFT and last-axis FFT → gather: a task's halo box
//!   (cell ± ⌈W⌉, wrapped) is walked row by row with an odometer, and each
//!   row maps to zero slabs and axis-0 tiles (spread) or to its last-axis
//!   line (gather); four-step column groups and k-blocks come from
//!   per-position tables, once per box;
//! * last-axis FFT → extract: each image chunk's embed runs map to
//!   last-axis tiles.
//!
//! A per-element walk, kept as a test reference (`tests::reference`),
//! pins the run walks to the graph it builds.
//!
//! In the adjoint, `Zero → Fft` edges are intentionally omitted: partition
//! cells tile the grid and every task's box contains its cell, so for any
//! element `e` the chain `Zero(slab(e)) → Conv(cell_task(e)) →
//! Fft(chunk(e))` already orders the zeroing before the first FFT read —
//! the covering argument in DESIGN.md §12.
//!
//! ## Why this preserves bitwise output
//!
//! Per-element arithmetic is schedule-independent everywhere except the
//! adjoint scatter, where the summation *order* on shared grid cells is
//! fixed by the Gray-code edges (adjacent tasks are totally ordered, and
//! the direction of each edge — not the schedule — decides who goes
//! first). Those edges are copied into the fused graph unchanged, the
//! gather and scatter nodes call the stage drivers' own bodies, every
//! other node writes disjoint elements, and the slab/chunk decompositions
//! partition their domains; so fused output is bitwise equal to the stage
//! composition at any thread count and ISA — pinned by
//! `tests/fft_pruning.rs`.

use crate::grid::Geometry;
use crate::tasks::Preprocess;
use nufft_fft::FftNd;
use nufft_math::Complex32;
use nufft_parallel::exec::{DagRunStats, TaskPhase};
use nufft_parallel::graph::{Dag, DagBuilder, NodeId};

/// Complex elements per 64-byte cache line (slab/chunk boundaries are
/// rounded to this so two nodes never split a line of contiguous output).
const LANE_ALIGN: usize = 64 / core::mem::size_of::<Complex32>();

/// Relative priority weight of one sample convolution vs one grid-element
/// touch (a `W`-wide window does ~(2W+1)^D multiply-adds).
const W_SAMPLE: u64 = 32;

/// Node kinds, packed into the tag's top byte.
pub const KIND_SCALE: u8 = 0;
/// Adjoint grid-zeroing slab (all channels).
pub const KIND_ZERO: u8 = 1;
/// A run of consecutive FFT tiles of one axis of one channel.
pub const KIND_FFT: u8 = 2;
/// A non-privatized adjoint scatter task (Gray-code exclusion edges).
pub const KIND_CONV: u8 = 3;
/// A privatized task's convolve into its private buffer (no deps).
pub const KIND_PRIV: u8 = 4;
/// A privatized task's reduction into the shared grids.
pub const KIND_REDUCE: u8 = 5;
/// A chunk of one task's samples gathered from the spectra.
pub const KIND_GATHER: u8 = 6;
/// A contiguous image chunk of the adjoint's final extract.
pub const KIND_EXTRACT: u8 = 7;
/// A four-step sub-FFT shard: one column group of a run of tiles on a
/// four-step axis (pass 1; reads the grid, writes the `fs` intermediate).
pub const KIND_FFT_SUB: u8 = 8;
/// A four-step transpose-and-combine shard: one k-block of a run of tiles
/// (pass 2; reads `fs`, writes the finished spectrum back to the grid).
pub const KIND_FFT_TRN: u8 = 9;

/// Packs `(kind, axis, channel, index)` into an opaque node tag.
pub fn tag(kind: u8, axis: usize, channel: usize, index: usize) -> u64 {
    debug_assert!(axis < 256 && channel < 65536 && index <= u32::MAX as usize);
    ((kind as u64) << 56) | ((axis as u64) << 48) | ((channel as u64) << 32) | index as u64
}

/// The kind byte of a node tag.
pub fn kind_of(tag: u64) -> u8 {
    (tag >> 56) as u8
}

/// The FFT axis of a node tag (meaningful for [`KIND_FFT`]).
pub fn axis_of(tag: u64) -> usize {
    ((tag >> 48) & 0xFF) as usize
}

/// The channel of a node tag.
pub fn channel_of(tag: u64) -> usize {
    ((tag >> 32) & 0xFFFF) as usize
}

/// The kind-specific index of a node tag (slab, chunk, or task id).
pub fn index_of(tag: u64) -> usize {
    (tag & 0xFFFF_FFFF) as usize
}

/// Short kind name for traces and diagnostics.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_SCALE => "scale",
        KIND_ZERO => "zero",
        KIND_FFT => "fft",
        KIND_CONV => "conv",
        KIND_PRIV => "priv",
        KIND_REDUCE => "reduce",
        KIND_GATHER => "gather",
        KIND_EXTRACT => "extract",
        KIND_FFT_SUB => "fft_sub",
        KIND_FFT_TRN => "fft_trn",
        _ => "?",
    }
}

/// The phase index a node would occupy in a join-per-phase schedule —
/// used by `nufft-sim` to replay the same node set with barriers between
/// phases and measure what the fusion buys.
///
/// Forward: scale = 0, FFT axis k = 1+k, gather = 1+D.
/// Adjoint: zero = 0, conv/priv/reduce = 1, FFT axis k = 2+k,
/// extract = 2+D.
pub fn node_phase(tag: u64, adjoint: bool, ndim: usize) -> usize {
    match kind_of(tag) {
        KIND_SCALE | KIND_ZERO => 0,
        KIND_CONV | KIND_PRIV | KIND_REDUCE => 1,
        KIND_FFT | KIND_FFT_SUB | KIND_FFT_TRN => axis_of(tag) + if adjoint { 2 } else { 1 },
        KIND_GATHER => 1 + ndim,
        KIND_EXTRACT => 2 + ndim,
        _ => unreachable!("unknown node kind"),
    }
}

/// The scatter-task phase a conv-stage node kind runs ([`KIND_CONV`],
/// [`KIND_PRIV`], [`KIND_REDUCE`]), or `None` for every other kind.
pub(crate) fn task_phase(kind: u8) -> Option<TaskPhase> {
    match kind {
        KIND_CONV => Some(TaskPhase::Normal),
        KIND_PRIV => Some(TaskPhase::PrivateConvolve),
        KIND_REDUCE => Some(TaskPhase::Reduce),
        _ => None,
    }
}

/// The tag of scatter task `t`'s node for `phase` — the inverse of
/// [`task_phase`], shared by the fused adjoint and the spread stage's own
/// graph.
pub(crate) fn task_tag(t: usize, phase: TaskPhase) -> u64 {
    let kind = match phase {
        TaskPhase::Normal => KIND_CONV,
        TaskPhase::PrivateConvolve => KIND_PRIV,
        TaskPhase::Reduce => KIND_REDUCE,
    };
    tag(kind, 0, 0, t)
}

/// Which tiles of each axis an FFT pass runs — the zero-aware passes of
/// DESIGN.md §9. The image band of axis `d` is the grid indices `g` with
/// `(g + ⌊N_d/2⌋) mod M_d < N_d`: the positions the embed fills and the
/// extract reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TileSet {
    /// Every tile: the public full transform ([`crate::stage::FftOp::apply`]).
    All = 0,
    /// The forward operator's pass over an embedded image: axis `k` runs a
    /// tile if one of its lines has every index on the axes after `k`
    /// inside the band. Every other line is still all +0.0, which is what
    /// its transform would write back.
    Forward = 1,
    /// The adjoint's pass ahead of the extract: axis `k` runs a tile if its
    /// indices on the axes before `k` all lie inside the band. No other
    /// line is ever read again.
    Adjoint = 2,
}

/// Plan-owned FFT tile decomposition: per axis, the tile count at the
/// plan's batch width, the four-step shard counts, and per [`TileSet`] the
/// tiles that run with the chunk grain the executor shards them in —
/// derived once at construction, so applies only walk lists.
#[derive(Clone, Debug)]
pub(crate) struct TilePlan {
    /// Lines per tile (the SIMD batch width at plan-build time).
    pub(crate) b: usize,
    pub(crate) axes: Vec<AxisPlan>,
    /// Per tile set (indexed by `TileSet as usize`), per axis.
    lists: [Vec<TileList>; 3],
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisPlan {
    /// Tiles of width `b` along this axis.
    pub(crate) tiles: usize,
    /// `parallel_for` chunk alignment for [`crate::stage::FftOp::apply`]: a
    /// cache line of line starts, on the contiguous axis rounded up to a
    /// multiple of `b` so every chunk holds whole packed runs.
    pub(crate) align: usize,
    /// Four-step shard counts `(col_groups, k_blocks)` per tile chunk, or
    /// `None` for the recursive tile path. When set, a chunk splits into
    /// `col_groups` sub-FFT nodes followed by `k_blocks` combine nodes
    /// instead of one [`KIND_FFT`] node.
    pub(crate) shards: Option<(usize, usize)>,
}

/// The tiles one axis runs under one [`TileSet`], in chunks.
#[derive(Clone, Debug)]
pub(crate) struct TileList {
    /// Ascending ids of the tiles that run.
    pub(crate) tiles: Vec<u32>,
    /// Tiles per executor chunk (and per fused FFT node).
    pub(crate) grain: usize,
}

impl TileList {
    /// `unit` is the number of tiles a chunk must hold whole runs of: `b`
    /// on the contiguous axis (where runs of `b` lines pack into one batched
    /// tile), 1 elsewhere.
    fn new(tiles: Vec<u32>, threads: usize, unit: usize) -> Self {
        // ~4 chunks per worker for stealable slack, capped so one chunk
        // never dominates an axis.
        let grain = (tiles.len() / (4 * threads)).clamp(1, 64).next_multiple_of(unit);
        TileList { tiles, grain }
    }

    /// Number of chunks (the fused [`KIND_FFT`] node count on a recursive
    /// axis; four-step axes split each chunk into shards).
    pub(crate) fn chunks(&self) -> usize {
        self.tiles.len().div_ceil(self.grain)
    }

    /// The tiles of chunk `k`.
    pub(crate) fn chunk(&self, k: usize) -> &[u32] {
        let lo = k * self.grain;
        &self.tiles[lo..(lo + self.grain).min(self.tiles.len())]
    }
}

/// Row-major flags over the index space of `band`'s axes: whether every
/// index lies inside its axis's band (`[true]` for no axes).
fn band_mask(band: &[Vec<bool>]) -> Vec<bool> {
    band.iter().fold(vec![true], |mask, axis| {
        mask.iter().flat_map(|&m| axis.iter().map(move |&g| m && g)).collect()
    })
}

impl TilePlan {
    /// Tile lists for `fft` over the grid an `image`-extent embed fills
    /// (per axis, `image[d] ≤ shape[d]`). With `image == shape` every set
    /// lists every tile. Costs O(tiles + lines / extent) per axis.
    pub(crate) fn new(fft: &FftNd, image: &[usize], threads: usize) -> Self {
        let shape = fft.shape();
        assert_eq!(image.len(), shape.len(), "image rank must match the FFT's");
        let b = FftNd::batch_width();
        let band: Vec<Vec<bool>> = shape
            .iter()
            .zip(image)
            .map(|(&m, &n)| (0..m).map(|g| (g + n / 2) % m < n).collect())
            .collect();
        let mut axes = Vec::with_capacity(shape.len());
        let mut lists: [Vec<TileList>; 3] = Default::default();
        for axis in 0..shape.len() {
            let tiles = fft.num_tiles(axis, b);
            let shards = fft
                .axis_fourstep(axis)
                .then(|| (fft.fs_col_groups(axis, b), fft.fs_k_blocks(axis)));
            let unit = if fft.axis_stride(axis) == 1 { b } else { 1 };
            let align = (LANE_ALIGN / b).max(1).next_multiple_of(unit);
            axes.push(AxisPlan { tiles, align, shards });
            let outer_in = band_mask(&band[..axis]);
            let inner_in = band_mask(&band[axis + 1..]);
            let (mut fwd, mut adj) = (Vec::new(), Vec::new());
            for tile in 0..tiles {
                let (outer, inner) = fft.tile_lines(axis, tile, b);
                if inner_in[inner].contains(&true) {
                    fwd.push(tile as u32);
                }
                if outer_in[outer] {
                    adj.push(tile as u32);
                }
            }
            let all = (0..tiles as u32).collect();
            lists[TileSet::All as usize].push(TileList::new(all, threads, unit));
            lists[TileSet::Forward as usize].push(TileList::new(fwd, threads, unit));
            lists[TileSet::Adjoint as usize].push(TileList::new(adj, threads, unit));
        }
        TilePlan { b, axes, lists }
    }

    /// The tiles `axis` runs under `set`.
    pub(crate) fn list(&self, set: TileSet, axis: usize) -> &TileList {
        &self.lists[set as usize][axis]
    }
}

/// One [`TileSet`]'s view of the FFT stage for graph wiring: per axis, the
/// chunk of every listed tile and the shard of every axis position, so the
/// wiring walks resolve a node with table reads instead of divisions.
struct FftLayout<'a> {
    fft: &'a FftNd,
    tp: &'a TilePlan,
    set: TileSet,
    axes: Vec<AxisWiring>,
}

/// One axis's wiring tables (see [`FftLayout`]).
struct AxisWiring {
    /// Per tile: the chunk of the axis's list holding it, or
    /// [`FftLayout::SKIPPED`].
    chunk: Vec<u32>,
    /// Entry shards per chunk: four-step column groups, else 1.
    colg: usize,
    /// Writer shards per chunk: four-step k-blocks, else 1.
    kbg: usize,
    /// Per axis position: the column group reading it (0 on a recursive
    /// axis).
    col_group: Vec<Piece>,
    /// Per axis position: the k-block writing it (0 on a recursive axis).
    kblock: Vec<Piece>,
}

/// A shard index at one axis position, plus the end of the run of
/// positions sharing it — so a walk over a position range visits each
/// shard run once ([`for_each_piece`]).
#[derive(Clone, Copy)]
struct Piece {
    id: u32,
    end: u32,
}

/// The [`Piece`] table of positions `0..n` under `id`.
fn pieces(n: usize, id: impl Fn(usize) -> usize) -> Vec<Piece> {
    let mut out = vec![Piece { id: 0, end: 0 }; n];
    for pos in (0..n).rev() {
        let id = id(pos) as u32;
        let end = match out.get(pos + 1) {
            Some(next) if next.id == id => next.end,
            _ => pos as u32 + 1,
        };
        out[pos] = Piece { id, end };
    }
    out
}

/// Calls `f(id)` once per run of equal ids over positions `[lo, hi)`.
fn for_each_piece(pieces: &[Piece], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    let mut pos = lo;
    while pos < hi {
        let p = pieces[pos];
        f(p.id as usize);
        pos = p.end as usize;
    }
}

impl AxisWiring {
    /// The chunk holding `tile`, which the wiring knows runs.
    fn running(&self, tile: usize) -> usize {
        let chunk = self.chunk[tile];
        assert_ne!(chunk, FftLayout::SKIPPED, "tile {tile} does not run");
        chunk as usize
    }
}

impl<'a> FftLayout<'a> {
    const SKIPPED: u32 = u32::MAX;

    fn new(fft: &'a FftNd, tp: &'a TilePlan, set: TileSet) -> Self {
        assert!(tp.b.is_power_of_two(), "the wiring walks split runs at b-line boundaries by mask");
        let axes = (0..fft.ndim())
            .map(|axis| {
                let list = tp.list(set, axis);
                let mut chunk = vec![Self::SKIPPED; tp.axes[axis].tiles];
                for (i, &tile) in list.tiles.iter().enumerate() {
                    chunk[tile as usize] = (i / list.grain) as u32;
                }
                let (n, stride) = (fft.shape()[axis], fft.axis_stride(axis));
                let (colg, kbg) = tp.axes[axis].shards.unwrap_or((1, 1));
                let (col_group, kblock) = if tp.axes[axis].shards.is_some() {
                    (
                        pieces(n, |pos| fft.fs_col_group_of_element(axis, pos * stride, tp.b)),
                        pieces(n, |pos| fft.fs_kblock_of_element(axis, pos * stride)),
                    )
                } else {
                    (pieces(n, |_| 0), pieces(n, |_| 0))
                };
                AxisWiring { chunk, colg, kbg, col_group, kblock }
            })
            .collect();
        FftLayout { fft, tp, set, axes }
    }

    fn list(&self, axis: usize) -> &TileList {
        self.tp.list(self.set, axis)
    }

    /// Nodes that write the axis's *finished* spectrum: tile chunks on a
    /// recursive axis, chunk × k-block combine shards on a four-step one.
    /// Consumers of the axis's elements wire edges from these.
    fn writer_shards(&self, axis: usize) -> usize {
        self.list(axis).chunks() * self.axes[axis].kbg
    }
}

/// A fused operator graph plus the lookup tables its nodes execute from.
pub(crate) struct FusedApply {
    pub(crate) dag: Dag,
    /// Gather chunk sample ranges `[lo, hi)` in internal order (forward
    /// graphs only; indexed by a `KIND_GATHER` node's tag index).
    pub(crate) chunks: Vec<(u32, u32)>,
    /// Grid elements per `Scale`/`Zero` slab.
    pub(crate) slab: usize,
    /// Image elements per `Extract` chunk (adjoint graphs only).
    pub(crate) img_chunk: usize,
}

/// Sizes a contiguous domain decomposition: ~8 pieces per worker, aligned
/// to cache lines, never zero.
fn piece_len(total: usize, threads: usize) -> usize {
    total.div_ceil((threads * 8).max(1)).next_multiple_of(LANE_ALIGN).max(LANE_ALIGN)
}

/// Stamp-array deduplicator: `hit` returns true the first time `id` is
/// seen since the last `next`.
struct Stamp {
    marks: Vec<u32>,
    cur: u32,
}

impl Stamp {
    fn new(n: usize) -> Self {
        Stamp { marks: vec![u32::MAX; n], cur: 0 }
    }

    fn next(&mut self) {
        self.cur = self.cur.checked_add(1).expect("stamp counter overflow");
    }

    fn hit(&mut self, id: usize) -> bool {
        if self.marks[id] != self.cur {
            self.marks[id] = self.cur;
            true
        } else {
            false
        }
    }
}

/// The `Scale`/`Zero` slab of a walked element, found by stepping slab by
/// slab from the previous element's: the walks move in short strides, so
/// this costs additions where `e / slab` would cost a division.
struct SlabCursor {
    len: usize,
    slab: usize,
    lo: usize,
}

impl SlabCursor {
    fn new(len: usize) -> Self {
        SlabCursor { len, slab: 0, lo: 0 }
    }

    /// The slab holding element `e`.
    fn seek(&mut self, e: usize) -> usize {
        while e < self.lo {
            self.slab -= 1;
            self.lo -= self.len;
        }
        while e >= self.lo + self.len {
            self.slab += 1;
            self.lo += self.len;
        }
        self.slab
    }

    /// One past the last element of the slab found last.
    fn end(&self) -> usize {
        self.lo + self.len
    }
}

/// The wrapped positions `lo .. lo + len` of one grid dimension of extent
/// `m` (`len ≤ m`), as at most two `(start, len)` segments.
fn wrapped_segments(lo: i32, len: usize, m: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    let start = lo.rem_euclid(m as i32) as usize;
    let head = len.min(m - start);
    [(start, head), (0, len - head)].into_iter().filter(|&(_, l)| l > 0)
}

/// Visits the rows of a task's wrapped halo box — origin `lo` (may be
/// negative), extent `len` per dimension (≤ `m[d]`, capped by the caller,
/// so wrapped coordinates never self-overlap) — calling `f(w)` with each
/// row's wrapped coordinates on the dimensions before the last (`w[D − 1]`
/// is 0; [`wrapped_segments`] gives the row's last-dimension span). The
/// coordinates advance by an odometer with compare-and-reset wrapping.
fn for_each_box_row<const D: usize>(
    m: &[usize; D],
    lo: &[i32; D],
    len: &[usize; D],
    mut f: impl FnMut(&[usize; D]),
) {
    let dl = D - 1;
    let first: [usize; D] =
        core::array::from_fn(|d| if d < dl { lo[d].rem_euclid(m[d] as i32) as usize } else { 0 });
    let (mut w, mut off) = (first, [0usize; D]);
    loop {
        f(&w);
        let mut d = dl;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            off[d] += 1;
            w[d] += 1;
            if w[d] == m[d] {
                w[d] = 0;
            }
            if off[d] < len[d] {
                break;
            }
            off[d] = 0;
            w[d] = first[d];
        }
    }
}

/// A task's halo box (cell ± ⌈W⌉), extents capped at the grid so wrapped
/// coordinates stay distinct.
fn task_box<const D: usize>(
    pre: &Preprocess<D>,
    m: &[usize; D],
    wc: usize,
    t: usize,
) -> ([i32; D], [usize; D]) {
    let idx: [usize; D] = pre.graph.unflatten(t).try_into().expect("dims match D");
    let (start, end) = pre.parts.cell(&idx);
    let mut lo = [0i32; D];
    let mut len = [0usize; D];
    for d in 0..D {
        lo[d] = start[d] as i32 - wc as i32;
        len[d] = (end[d] - start[d] + 2 * wc).min(m[d]);
    }
    (lo, len)
}

/// Emits the FFT node run of one `(channel, axis)` pair over the axis's
/// listed tiles, plus — on a four-step axis — the intra-axis sub → combine
/// edges. Returns the `(entry, writer)` node bases: producers of the
/// axis's elements wire to `entry + entry_shard_of(..)`, consumers wire
/// from `writer + writer_shard_of(..)` (the same base on a recursive axis).
///
/// A four-step chunk's combine shards each read every block of the chunk's
/// `fs` region, and the chunk's sub-FFT shards together write exactly that
/// region — so the intra-chunk wiring is complete bipartite and no
/// cross-chunk edges exist (shards never straddle a tile chunk).
fn add_axis_nodes(
    builder: &mut DagBuilder,
    lay: &FftLayout<'_>,
    axis: usize,
    c: usize,
) -> (NodeId, NodeId) {
    let list = lay.list(axis);
    let chunks = list.chunks();
    let lines = if lay.fft.axis_stride(axis) == 1 { 1 } else { lay.tp.b };
    // Approximate element count of the chunk — the node's priority weight
    // (~log-factor work per element folded into a flat 4).
    let chunk_weight = |k: usize| (4 * lay.fft.shape()[axis] * lines * list.chunk(k).len()) as u64;
    match lay.tp.axes[axis].shards {
        None => {
            let base = builder.len() as NodeId;
            for k in 0..chunks {
                builder.add_node(tag(KIND_FFT, axis, c, k), chunk_weight(k));
            }
            (base, base)
        }
        Some((colg, kbg)) => {
            let sub = builder.len() as NodeId;
            for k in 0..chunks {
                let w = (chunk_weight(k) / colg as u64).max(1);
                for cg in 0..colg {
                    builder.add_node(tag(KIND_FFT_SUB, axis, c, k * colg + cg), w);
                }
            }
            let trn = builder.len() as NodeId;
            for k in 0..chunks {
                let w = (chunk_weight(k) / kbg as u64).max(1);
                for kb in 0..kbg {
                    builder.add_node(tag(KIND_FFT_TRN, axis, c, k * kbg + kb), w);
                }
            }
            for k in 0..chunks {
                for cg in 0..colg {
                    for kb in 0..kbg {
                        builder.add_edge(
                            sub + (k * colg + cg) as NodeId,
                            trn + (k * kbg + kb) as NodeId,
                        );
                    }
                }
            }
            (sub, trn)
        }
    }
}

/// Rewrites every node's scheduling priority to be **phase-major**:
/// `(phases_remaining << 48) | work`, so the ready queue pops the oldest
/// phase first and the heaviest node within a phase. This changes nothing
/// about readiness — a worker still takes newer-phase work whenever no
/// older-phase node is ready, so the graph stays barrier-free — but at low
/// parallelism it keeps the grid traversal streaming phase-by-phase
/// (axis-by-axis for the FFT) instead of ping-ponging a larger-than-cache
/// grid between phases. Weights are untouched: cost models
/// (`nufft_sim::DagCostModel`) keep reading real work estimates.
fn apply_phase_priorities(builder: &mut DagBuilder, adjoint: bool, ndim: usize) {
    let last_phase = (if adjoint { 2 + ndim } else { 1 + ndim }) as u64;
    const WORK_MASK: u64 = (1 << 48) - 1;
    for v in 0..builder.len() as u32 {
        let phase = node_phase(builder.node_tag(v), adjoint, ndim) as u64;
        let work = builder.node_weight(v).min(WORK_MASK);
        builder.set_priority(v, ((last_phase - phase) << 48) | work);
    }
}

// ---------------------------------------------------------------------------
// Per-stage DAG fragments
// ---------------------------------------------------------------------------

/// Scale-stage fragment (forward embed): one slab run per channel.
/// Returns the per-channel node bases.
fn emit_scale_fragment(
    builder: &mut DagBuilder,
    grid_len: usize,
    slab: usize,
    channels: usize,
) -> Vec<NodeId> {
    let nslabs = grid_len.div_ceil(slab);
    (0..channels)
        .map(|c| {
            let base = builder.len() as NodeId;
            for s in 0..nslabs {
                let elems = (grid_len - s * slab).min(slab);
                builder.add_node(tag(KIND_SCALE, 0, c, s), elems as u64);
            }
            base
        })
        .collect()
}

/// Zero-stage fragment (adjoint grid clear): one slab run, each node
/// zeroing every channel's slab. Returns the node base.
fn emit_zero_fragment(
    builder: &mut DagBuilder,
    grid_len: usize,
    slab: usize,
    channels: usize,
) -> NodeId {
    let nslabs = grid_len.div_ceil(slab);
    let base = builder.len() as NodeId;
    for s in 0..nslabs {
        let elems = (grid_len - s * slab).min(slab);
        builder.add_node(tag(KIND_ZERO, 0, 0, s), (elems * channels) as u64);
    }
    base
}

/// Spread-stage fragment (adjoint scatter): the task graph's expansion
/// ([`TaskGraph::expand_into`]) — privatized tasks as a `(Priv → Reduce)`
/// pair, others as a single `Conv` node, plus the Gray-code exclusion
/// edges **verbatim**, which fix the per-cell summation order and hence
/// bitwise output. Returns `conv_shared[t]`, the node carrying task `t`'s
/// shared-grid writes (and hence its ordering edges).
///
/// [`TaskGraph::expand_into`]: nufft_parallel::graph::TaskGraph::expand_into
fn emit_spread_fragment<const D: usize>(
    builder: &mut DagBuilder,
    pre: &Preprocess<D>,
    channels: usize,
) -> Vec<NodeId> {
    pre.graph.expand_into(builder, |t, phase| {
        let weight = match phase {
            TaskPhase::Reduce => {
                (pre.regions[t].expect("privatized task has region").len() * channels) as u64
            }
            _ => pre.ranges[t].len() as u64 * W_SAMPLE,
        };
        (task_tag(t, phase), weight)
    })
}

/// FFT-stage fragment: per-channel, per-axis node runs (with the
/// four-step sub → combine intra-axis edges). Returns the
/// `(entry, writer)` bases indexed `[channel][axis]`.
fn emit_fft_fragment(
    builder: &mut DagBuilder,
    lay: &FftLayout<'_>,
    channels: usize,
) -> Vec<Vec<(NodeId, NodeId)>> {
    (0..channels)
        .map(|c| (0..lay.fft.ndim()).map(|axis| add_axis_nodes(builder, lay, axis, c)).collect())
        .collect()
}

/// Interp-stage fragment (forward gather): chunks of one task's samples,
/// shared across channels. Chunk boundaries land on cache-line multiples
/// (`order` is near-identity within a task) and never cross a task
/// boundary, so a chunk's windows stay inside its task's halo box.
/// Returns `(node base, chunk sample ranges, chunk ids per task)`.
fn emit_interp_fragment<const D: usize>(
    builder: &mut DagBuilder,
    pre: &Preprocess<D>,
    gather_grain: usize,
) -> (NodeId, Vec<(u32, u32)>, Vec<core::ops::Range<usize>>) {
    let base = builder.len() as NodeId;
    let mut chunks: Vec<(u32, u32)> = Vec::new();
    let mut task_chunks: Vec<core::ops::Range<usize>> = Vec::with_capacity(pre.graph.len());
    for r in &pre.ranges {
        let first = chunks.len();
        let mut lo = r.start;
        while lo < r.end {
            let hi = (lo + gather_grain).next_multiple_of(LANE_ALIGN).min(r.end);
            builder.add_node(tag(KIND_GATHER, 0, 0, chunks.len()), (hi - lo) as u64 * W_SAMPLE);
            chunks.push((lo as u32, hi as u32));
            lo = hi;
        }
        task_chunks.push(first..chunks.len());
    }
    (base, chunks, task_chunks)
}

/// Deconvolve-stage fragment (adjoint extract): per-channel contiguous
/// image chunks. Returns the per-channel node bases.
fn emit_extract_fragment(
    builder: &mut DagBuilder,
    image_len: usize,
    img_chunk: usize,
    channels: usize,
) -> Vec<NodeId> {
    let nchunks = image_len.div_ceil(img_chunk);
    (0..channels)
        .map(|c| {
            let base = builder.len() as NodeId;
            for k in 0..nchunks {
                let elems = (image_len - k * img_chunk).min(img_chunk);
                builder.add_node(tag(KIND_EXTRACT, 0, c, k), elems as u64);
            }
            base
        })
        .collect()
}

/// Wires the spread fragment's inputs and outputs per task box: `zero slab
/// → conv` for the slabs of every box row (a task reads-modifies-writes its
/// box) and `conv → axis-0 entry` for the shards holding the box, in every
/// channel. `Zero → Fft` is transitively covered (see module docs).
///
/// An axis-0 tile holds `b` lines across every axis-0 position, so the
/// box's axis-0 tiles are those of its rows at one axis-0 position, and its
/// column groups (four-step) those of its axis-0 positions; the box is a
/// product, so every pairing occurs.
#[allow(clippy::too_many_arguments)]
fn connect_spread_edges<const D: usize>(
    builder: &mut DagBuilder,
    geo: &Geometry<D>,
    lay: &FftLayout<'_>,
    pre: &Preprocess<D>,
    wc: usize,
    channels: usize,
    zero_base: NodeId,
    conv_shared: &[NodeId],
    slab: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
) {
    let gs = geo.grid_strides();
    let sh = lay.tp.b.trailing_zeros();
    // The adjoint's axis 0 runs every tile: nothing precedes it.
    let aw = &lay.axes[0];
    let mut slabs = SlabCursor::new(slab);
    let mut slab_stamp = Stamp::new(geo.grid_len().div_ceil(slab));
    let mut chunk_stamp = Stamp::new(lay.list(0).chunks());
    let (mut chunks, mut groups): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for t in 0..pre.graph.len() {
        slab_stamp.next();
        chunk_stamp.next();
        let (lo, len) = task_box(pre, &geo.m, wc, t);
        let segs = wrapped_segments(lo[D - 1], len[D - 1], geo.m[D - 1]);
        for_each_box_row(&geo.m, &lo, &len, |w| {
            let row: usize = (0..D - 1).map(|d| w[d] * gs[d]).sum();
            for (s, l) in segs.clone() {
                let first = slabs.seek(row + s);
                for sl in first..=slabs.seek(row + s + l - 1) {
                    if slab_stamp.hit(sl) {
                        builder.add_edge(zero_base + sl as NodeId, conv_shared[t]);
                    }
                }
            }
        });
        chunks.clear();
        if D == 1 {
            // A 1D grid is one line: one tile.
            chunks.push(aw.running(0));
        } else {
            let mut plane = len;
            plane[0] = 1;
            for_each_box_row(&geo.m, &lo, &plane, |w| {
                let x: usize = (1..D - 1).map(|d| w[d] * gs[d]).sum();
                for (s, l) in segs.clone() {
                    for tile in (x + s) >> sh..=(x + s + l - 1) >> sh {
                        let chunk = aw.running(tile);
                        if chunk_stamp.hit(chunk) {
                            chunks.push(chunk);
                        }
                    }
                }
            });
        }
        groups.clear();
        for (s, l) in wrapped_segments(lo[0], len[0], geo.m[0]) {
            for_each_piece(&aw.col_group, s, s + l, |g| {
                if !groups.contains(&g) {
                    groups.push(g);
                }
            });
        }
        for &chunk in &chunks {
            for &g in &groups {
                let shard = (chunk * aw.colg + g) as NodeId;
                for c in 0..channels {
                    builder.add_edge(conv_shared[t], fft_base[c][0].0 + shard);
                }
            }
        }
    }
}

/// The forward's `Scale` slabs, as the writer of last resort in
/// [`connect_fft_chain`]: `(elements per slab, per-channel node bases)`.
struct ScaleSlabs<'a> {
    slab: usize,
    base: &'a [NodeId],
}

/// One earlier axis `j`'s view of a tile being wired on axis `k > j`.
/// Every element of the tile shares its indices on the axes before `k`, so
/// it lies in one `s_j`-element block of `j` (fixed indices up to `j`),
/// where `j`'s tiles are runs of `b` consecutive elements with consecutive
/// ids, all in one k-block.
struct Earlier<'a> {
    /// First element of the block.
    blk: usize,
    /// Tile id of the block's first `b` elements.
    tile: usize,
    /// Writer id of the block's k-block in chunk 0.
    id: usize,
    /// Writer ids per chunk (`j`'s k-block count).
    kbg: usize,
    chunk: &'a [u32],
}

/// The last-writer lookup of [`connect_fft_chain`]'s run walk, for the
/// tile being wired: its [`Earlier`] axes and the forward's slab cursor.
struct LastWriter<'a> {
    earlier: Vec<Earlier<'a>>,
    slabs: Option<SlabCursor>,
    /// `b`, and the shift and mask that divide by it.
    b: usize,
    sh: u32,
    mask: usize,
}

impl LastWriter<'_> {
    /// The writer id of element `e` and the end (≤ `end`) of the piece
    /// from `e` it wrote: the latest earlier axis whose tile holding `e`
    /// runs, up to the next `b`-element tile boundary of every axis
    /// consulted; else the slab, up to its end too.
    #[inline]
    fn at(&mut self, e: usize, end: usize) -> (usize, usize) {
        let mut next = end;
        for ej in self.earlier.iter().rev() {
            let x = e - ej.blk;
            next = next.min(e + self.b - (x & self.mask));
            let chunk = ej.chunk[ej.tile + (x >> self.sh)];
            if chunk != FftLayout::SKIPPED {
                return (ej.id + chunk as usize * ej.kbg, next);
            }
        }
        let slabs = self
            .slabs
            .as_mut()
            .expect("an adjoint element read on axis k ≥ 1 was written on axis k − 1");
        let slab = slabs.seek(e);
        (slab, next.min(slabs.end()))
    }
}

/// Wires each FFT axis's entries, in every channel, from the **last
/// writer** of every element they read: the latest earlier axis whose tile
/// holding the element runs, else the forward's `Scale` slab. With
/// `slabs` (the forward) this covers axis 0 too; without (the adjoint,
/// whose axis 0 is fed by the scatter) it starts at axis 1.
///
/// The walk goes by run, not by element: an entry shard's tiles hand out
/// their read set as contiguous runs ([`FftNd::for_each_tile_run`],
/// [`FftNd::for_each_fs_col_run`]), and along a run the last writer only
/// changes where a consulted earlier axis crosses a `b`-element tile
/// boundary (or, for the slab, a slab boundary) — so each run splits into
/// pieces at those points, found by mask and addition, with one writer
/// lookup per piece. Writers are deduplicated per entry shard under one
/// dense id space — slab ids first, then each axis's writer shards — so a
/// shard gets one edge per distinct writer.
fn connect_fft_chain(
    builder: &mut DagBuilder,
    lay: &FftLayout<'_>,
    channels: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
    slabs: Option<ScaleSlabs<'_>>,
) {
    let fft = lay.fft;
    let (ndim, shape, b) = (fft.ndim(), fft.shape(), lay.tp.b);
    let nslabs = slabs.as_ref().map_or(0, |s| fft.len().div_ceil(s.slab));
    // axis_id[j] = the first writer id of axis j; axis_id[ndim] = total.
    let mut axis_id = vec![nslabs];
    for axis in 0..ndim {
        axis_id.push(axis_id[axis] + lay.writer_shards(axis));
    }
    let writer_node = |c: usize, id: usize| match &slabs {
        Some(s) if id < nslabs => s.base[c] + id as NodeId,
        _ => {
            let j = axis_id.partition_point(|&start| start <= id) - 1;
            fft_base[c][j].1 + (id - axis_id[j]) as NodeId
        }
    };
    let mut stamp = Stamp::new(axis_id[ndim]);
    let mut walk = LastWriter {
        earlier: Vec::with_capacity(ndim),
        slabs: slabs.as_ref().map(|s| SlabCursor::new(s.slab)),
        b,
        sh: b.trailing_zeros(),
        mask: b - 1,
    };
    let first = if slabs.is_some() { 0 } else { 1 };
    for axis in first..ndim {
        let (list, aw) = (lay.list(axis), &lay.axes[axis]);
        let four_step = lay.tp.axes[axis].shards.is_some();
        for chunk in 0..list.chunks() {
            for cg in 0..aw.colg {
                stamp.next();
                let entry = (chunk * aw.colg + cg) as NodeId;
                // Consecutive pieces often share a writer: skip its stamp.
                let mut prev = usize::MAX;
                for &tile in list.chunk(chunk) {
                    let tile = tile as usize;
                    let (outer, inner) = fft.tile_lines(axis, tile, b);
                    let e0 = outer * shape[axis] * fft.axis_stride(axis) + inner.start;
                    walk.earlier.clear();
                    walk.earlier.extend((0..axis).map(|j| {
                        let s = fft.axis_stride(j);
                        Earlier {
                            blk: e0 - e0 % s,
                            tile: e0 / (shape[j] * s) * s.div_ceil(b),
                            id: axis_id[j] + lay.axes[j].kblock[e0 / s % shape[j]].id as usize,
                            kbg: lay.axes[j].kbg,
                            chunk: &lay.axes[j].chunk,
                        }
                    }));
                    let mut wire = |start: usize, len: usize| {
                        let (mut e, end) = (start, start + len);
                        while e < end {
                            let (w, next) = walk.at(e, end);
                            if w != prev && stamp.hit(w) {
                                for c in 0..channels {
                                    builder
                                        .add_edge(writer_node(c, w), fft_base[c][axis].0 + entry);
                                }
                            }
                            prev = w;
                            e = next;
                        }
                    };
                    if four_step {
                        fft.for_each_fs_col_run(axis, tile, cg, b, &mut wire);
                    } else {
                        fft.for_each_tile_run(axis, tile, b, &mut wire);
                    }
                }
            }
        }
    }
}

/// Wires last-axis FFT writers → gather chunks: a task's chunks read its
/// halo box, so they depend on the last-axis writer shards containing the
/// box's rows — in every channel (one gather chunk writes all channels'
/// outputs). The forward's last axis runs every tile, so it is the last
/// writer of every element a gather reads: per box row, the row's line in
/// each k-block the box's last-dimension span meets.
#[allow(clippy::too_many_arguments)]
fn connect_interp_inputs<const D: usize>(
    builder: &mut DagBuilder,
    geo: &Geometry<D>,
    lay: &FftLayout<'_>,
    pre: &Preprocess<D>,
    wc: usize,
    channels: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
    gather_base: NodeId,
    task_chunks: &[core::ops::Range<usize>],
) {
    let last = D - 1;
    let aw = &lay.axes[last];
    // Line (last-axis tile) id strides of the rows' wrapped coordinates.
    let gs = geo.grid_strides();
    let line_strides: [usize; D] = core::array::from_fn(|d| gs[d] / geo.m[last]);
    let (mut deps, mut kblocks): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut task_stamp = Stamp::new(lay.writer_shards(last));
    for t in 0..pre.graph.len() {
        if task_chunks[t].is_empty() {
            continue;
        }
        task_stamp.next();
        deps.clear();
        kblocks.clear();
        let (lo, len) = task_box(pre, &geo.m, wc, t);
        for (s, l) in wrapped_segments(lo[last], len[last], geo.m[last]) {
            for_each_piece(&aw.kblock, s, s + l, |kb| {
                if !kblocks.contains(&kb) {
                    kblocks.push(kb);
                }
            });
        }
        for_each_box_row(&geo.m, &lo, &len, |w| {
            let line: usize = (0..last).map(|d| w[d] * line_strides[d]).sum();
            let chunk = aw.running(line);
            for &kb in &kblocks {
                let shard = chunk * aw.kbg + kb;
                if task_stamp.hit(shard) {
                    deps.push(shard);
                }
            }
        });
        for g in task_chunks[t].clone() {
            for &dep in &deps {
                for c in 0..channels {
                    builder
                        .add_edge(fft_base[c][last].1 + dep as NodeId, gather_base + g as NodeId);
                }
            }
        }
    }
}

/// Wires last-axis FFT writers → extract chunks: an image chunk reads the
/// wrapped embed positions of its flat range, walked as the embed map's
/// runs ([`crate::grid::for_each_embed_run`]), each inside one grid line.
/// Band elements lie in listed tiles on every adjoint axis.
#[allow(clippy::too_many_arguments)]
fn connect_extract_inputs<const D: usize>(
    builder: &mut DagBuilder,
    geo: &Geometry<D>,
    lay: &FftLayout<'_>,
    channels: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
    extract_base: &[NodeId],
    img_chunk: usize,
) {
    let image_len = geo.image_len();
    let (last, m_last) = (D - 1, geo.m[D - 1]);
    let aw = &lay.axes[last];
    let mut ex_stamp = Stamp::new(lay.writer_shards(last));
    for k in 0..image_len.div_ceil(img_chunk) {
        ex_stamp.next();
        let lo = k * img_chunk;
        let hi = (lo + img_chunk).min(image_len);
        crate::grid::for_each_embed_run(geo, lo, hi, |_, g, len| {
            let line = g / m_last;
            let chunk = aw.running(line);
            let pos = g - line * m_last;
            for_each_piece(&aw.kblock, pos, pos + len, |kb| {
                let shard = chunk * aw.kbg + kb;
                if ex_stamp.hit(shard) {
                    for c in 0..channels {
                        builder.add_edge(
                            fft_base[c][last].1 + shard as NodeId,
                            extract_base[c] + k as NodeId,
                        );
                    }
                }
            });
        });
    }
}

// ---------------------------------------------------------------------------
// Whole-operator builders (fragment compositions)
// ---------------------------------------------------------------------------

/// Builds the fused **forward** graph for `channels` channels:
/// scale slabs → per-axis FFT chunks over the [`TileSet::Forward`] lists
/// (per channel) → gather chunks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_forward<const D: usize>(
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    pre: &Preprocess<D>,
    wc: usize,
    gather_grain: usize,
    threads: usize,
    channels: usize,
) -> FusedApply {
    let grid_len = geo.grid_len();
    let slab = piece_len(grid_len, threads);
    let lay = FftLayout::new(fft, tp, TileSet::Forward);
    let mut builder = DagBuilder::new();

    let scale_base = emit_scale_fragment(&mut builder, grid_len, slab, channels);
    let fft_base = emit_fft_fragment(&mut builder, &lay, channels);
    let (gather_base, chunks, task_chunks) = emit_interp_fragment(&mut builder, pre, gather_grain);

    connect_fft_chain(
        &mut builder,
        &lay,
        channels,
        &fft_base,
        Some(ScaleSlabs { slab, base: &scale_base }),
    );
    connect_interp_inputs(
        &mut builder,
        geo,
        &lay,
        pre,
        wc,
        channels,
        &fft_base,
        gather_base,
        &task_chunks,
    );

    apply_phase_priorities(&mut builder, false, D);
    FusedApply { dag: builder.build(), chunks, slab, img_chunk: 0 }
}

/// Builds the fused **adjoint** graph for `channels` channels:
/// zero slabs → conv/priv/reduce tasks (Gray edges preserved) → per-axis
/// FFT chunks over the [`TileSet::Adjoint`] lists (per channel) → extract
/// chunks.
pub(crate) fn build_adjoint<const D: usize>(
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    pre: &Preprocess<D>,
    wc: usize,
    threads: usize,
    channels: usize,
) -> FusedApply {
    let grid_len = geo.grid_len();
    let image_len = geo.image_len();
    let slab = piece_len(grid_len, threads);
    let img_chunk = piece_len(image_len, threads);
    let lay = FftLayout::new(fft, tp, TileSet::Adjoint);
    let mut builder = DagBuilder::new();

    let zero_base = emit_zero_fragment(&mut builder, grid_len, slab, channels);
    let conv_shared = emit_spread_fragment(&mut builder, pre, channels);
    let fft_base = emit_fft_fragment(&mut builder, &lay, channels);
    let extract_base = emit_extract_fragment(&mut builder, image_len, img_chunk, channels);

    connect_spread_edges(
        &mut builder,
        geo,
        &lay,
        pre,
        wc,
        channels,
        zero_base,
        &conv_shared,
        slab,
        &fft_base,
    );
    connect_fft_chain(&mut builder, &lay, channels, &fft_base, None);
    connect_extract_inputs(&mut builder, geo, &lay, channels, &fft_base, &extract_base, img_chunk);

    apply_phase_priorities(&mut builder, true, D);
    FusedApply { dag: builder.build(), chunks: Vec::new(), slab, img_chunk }
}

/// Writes a Chrome `trace_event` JSON (load in `chrome://tracing` or
/// Perfetto) of one fused run's per-node spans. Timestamps are
/// microseconds from run start; tracks (`tid`) are workers.
pub(crate) fn write_trace(path: &str, stats: &DagRunStats, adjoint: bool) {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(stats.log.len() * 112 + 64);
    s.push_str("{\"traceEvents\":[");
    for (i, r) in stats.log.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = kind_of(r.tag);
        let name = kind_name(kind);
        let _ = write!(
            s,
            "\n{{\"name\":\"{name}[ax{ax} ch{ch} #{ix}]\",\"cat\":\"{name}\",\"ph\":\"X\",\
             \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid}}}",
            ax = axis_of(r.tag),
            ch = channel_of(r.tag),
            ix = index_of(r.tag),
            ts = r.start * 1e6,
            dur = (r.end - r.start).max(0.0) * 1e6,
            pid = if adjoint { 1 } else { 0 },
            tid = r.worker,
        );
    }
    s.push_str("\n]}\n");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("NUFFT_TRACE: failed to write {path}: {e}");
    }
}

/// The wall-clock span (first start to last end) of all records whose
/// kind satisfies `pred` — the fused analogue of a phase timer. Spans of
/// different kinds overlap by design; each is still an honest "this phase
/// was in flight for X seconds".
pub(crate) fn kind_span(stats: &DagRunStats, pred: impl Fn(u8) -> bool) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in &stats.log {
        if pred(kind_of(r.tag)) {
            lo = lo.min(r.start);
            hi = hi.max(r.end);
        }
    }
    if hi > lo {
        hi - lo
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A box walk as flat `(start, len)` runs: [`for_each_box_row`]'s rows
    /// times the [`wrapped_segments`] of the last dimension.
    fn for_each_box_run<const D: usize>(
        m: &[usize; D],
        gs: &[usize; D],
        lo: &[i32; D],
        len: &[usize; D],
        mut f: impl FnMut(usize, usize),
    ) {
        let segs = wrapped_segments(lo[D - 1], len[D - 1], m[D - 1]);
        for_each_box_row(m, lo, len, |w| {
            let row: usize = (0..D - 1).map(|d| w[d] * gs[d]).sum();
            for (s, l) in segs.clone() {
                f(row + s, l);
            }
        });
    }

    /// Every element of a wrapped box, decoded one at a time — the oracle
    /// the box walks are checked against.
    fn box_elements<const D: usize>(m: &[usize; D], lo: &[i32; D], len: &[usize; D]) -> Vec<usize> {
        let gs: [usize; D] = core::array::from_fn(|d| m[d + 1..].iter().product());
        (0..len.iter().product::<usize>())
            .map(|mut k| {
                let mut e = 0;
                for d in (0..D).rev() {
                    let off = (k % len[d]) as i32;
                    k /= len[d];
                    e += (lo[d] + off).rem_euclid(m[d] as i32) as usize * gs[d];
                }
                e
            })
            .collect()
    }

    #[test]
    fn tag_round_trips() {
        let t = tag(KIND_FFT, 2, 7, 123456);
        assert_eq!(kind_of(t), KIND_FFT);
        assert_eq!(axis_of(t), 2);
        assert_eq!(channel_of(t), 7);
        assert_eq!(index_of(t), 123456);
    }

    #[test]
    fn box_runs_cover_wrapped_box_exactly_once() {
        let m = [8usize, 6];
        let gs = [6usize, 1];
        // Box hanging off both edges: origin (−2, 4), size (5, 4) wraps in
        // both dimensions.
        let mut seen = vec![0usize; 48];
        for_each_box_run(&m, &gs, &[-2, 4], &[5, 4], |start, len| {
            for e in start..start + len {
                seen[e] += 1;
            }
        });
        let mut want = vec![0usize; 48];
        for i in 0..5i32 {
            for j in 0..4i32 {
                let r = (-2 + i).rem_euclid(8) as usize;
                let c = (4 + j).rem_euclid(6) as usize;
                want[r * 6 + c] += 1;
            }
        }
        assert_eq!(seen, want);
    }

    #[test]
    fn box_runs_full_extent_has_no_duplicates() {
        // len == m in every dimension: the capped "covers everything" case.
        let m = [4usize, 6];
        let gs = [6usize, 1];
        let mut seen = vec![0usize; 24];
        for_each_box_run(&m, &gs, &[-1, 3], &[4, 6], |start, len| {
            for e in start..start + len {
                seen[e] += 1;
            }
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn box_runs_1d() {
        let m = [10usize];
        let gs = [1usize];
        let mut runs = Vec::new();
        for_each_box_run(&m, &gs, &[8], &[5], |start, len| runs.push((start, len)));
        assert_eq!(runs, vec![(8, 2), (0, 3)]);
    }

    /// What a [`Case`] varies: everything a fused graph's shape depends
    /// on besides the grid extents.
    #[derive(Clone, Copy, Debug)]
    struct Spec {
        alpha: f64,
        strategy: nufft_fft::FftStrategy,
        /// Worker count: sets the tile-list chunk grains, the slab and
        /// image-chunk sizes and the Eq. 6 privatization threshold.
        threads: usize,
        channels: usize,
        privatization: bool,
        /// Kernel radius `W`: the halo width and minimum partition width.
        w: f64,
    }

    impl Default for Spec {
        fn default() -> Self {
            Spec {
                alpha: 2.0,
                strategy: nufft_fft::FftStrategy::Recursive,
                threads: 2,
                channels: 1,
                privatization: true,
                w: 2.0,
            }
        }
    }

    /// One graph-building input set: a small plan's geometry, FFT and
    /// tile lists, preprocessed tasks and channel count.
    struct Case<const D: usize> {
        geo: Geometry<D>,
        fft: FftNd,
        tp: TilePlan,
        pre: Preprocess<D>,
        wc: usize,
        channels: usize,
        threads: usize,
    }

    /// A node's grid footprint, from its body's semantics (not from its
    /// edges): the phase it runs in and the elements it reads and writes,
    /// as `channel · grid_len + element`. Four-step sub shards read the
    /// grid and write only `fs`; combine shards write the grid.
    struct Footprint {
        phase: usize,
        reads: Vec<usize>,
        writes: Vec<usize>,
    }

    impl<const D: usize> Case<D> {
        fn new(n: [usize; D], strategy: nufft_fft::FftStrategy, channels: usize) -> Self {
            Self::with(n, Spec { strategy, channels, ..Spec::default() })
        }

        fn with(n: [usize; D], spec: Spec) -> Self {
            let threads = spec.threads;
            let geo = Geometry::new(n, spec.alpha);
            let fft = FftNd::with_strategy(&geo.m, spec.strategy, nufft_fft::DEFAULT_LLC_BUDGET);
            let tp = TilePlan::new(&fft, &geo.n, threads);
            let coords: Vec<[f32; D]> = (0..300)
                .map(|i| {
                    core::array::from_fn(|d| {
                        let step = [0.618_034f32, 0.414_214, 0.732_051][d];
                        ((i as f32 + 0.5) * step).fract() * geo.m[d] as f32
                    })
                })
                .collect();
            let pcfg = crate::tasks::PreprocessConfig {
                partitions_per_dim: 3,
                w: spec.w,
                threads,
                privatization: spec.privatization,
                tile: 8,
                ..Default::default()
            };
            let pre = crate::tasks::preprocess(&coords, geo.m, &pcfg);
            Case { geo, fft, tp, pre, wc: spec.w.ceil() as usize, channels: spec.channels, threads }
        }

        fn task_box_elems(&self, t: usize) -> Vec<usize> {
            let (lo, len) = task_box(&self.pre, &self.geo.m, self.wc, t);
            box_elements(&self.geo.m, &lo, &len)
        }

        fn all_channels(&self, elems: &[usize]) -> Vec<usize> {
            let glen = self.geo.grid_len();
            (0..self.channels).flat_map(|c| elems.iter().map(move |&e| c * glen + e)).collect()
        }

        fn footprint(&self, fa: &FusedApply, v: usize, adjoint: bool) -> Footprint {
            let (geo, fft, tp) = (&self.geo, &self.fft, &self.tp);
            let set = if adjoint { TileSet::Adjoint } else { TileSet::Forward };
            let glen = geo.grid_len();
            let t = fa.dag.tag(v as NodeId);
            let (kind, axis, c, idx) = (kind_of(t), axis_of(t), channel_of(t), index_of(t));
            let phase = node_phase(t, adjoint, D);
            let mut f = Footprint { phase, reads: Vec::new(), writes: Vec::new() };
            let slab = |s: usize| s * fa.slab..((s + 1) * fa.slab).min(glen);
            match kind {
                KIND_SCALE => f.writes.extend(slab(idx).map(|e| c * glen + e)),
                KIND_ZERO => f.writes = self.all_channels(&slab(idx).collect::<Vec<_>>()),
                KIND_CONV | KIND_REDUCE => f.writes = self.all_channels(&self.task_box_elems(idx)),
                KIND_PRIV => {}
                KIND_FFT | KIND_FFT_SUB | KIND_FFT_TRN => {
                    let (colg, kbg) = tp.axes[axis].shards.unwrap_or((1, 1));
                    let chunk = match kind {
                        KIND_FFT => idx,
                        KIND_FFT_SUB => idx / colg,
                        _ => idx / kbg,
                    };
                    for &tile in tp.list(set, axis).chunk(chunk) {
                        let (tile, b) = (tile as usize, tp.b);
                        let mut elems = Vec::new();
                        let mut push = |e: usize| elems.push(c * glen + e);
                        match kind {
                            KIND_FFT => fft.for_each_tile_element(axis, tile, b, &mut push),
                            KIND_FFT_SUB => {
                                fft.for_each_fs_col_element(axis, tile, idx % colg, b, &mut push)
                            }
                            _ => {
                                fft.for_each_fs_kblock_element(axis, tile, idx % kbg, b, &mut push)
                            }
                        }
                        if kind != KIND_FFT_TRN {
                            f.reads.extend(&elems);
                        }
                        if kind != KIND_FFT_SUB {
                            f.writes.extend(&elems);
                        }
                    }
                }
                KIND_GATHER => {
                    let lo = fa.chunks[idx].0 as usize;
                    let task = self.pre.ranges.iter().position(|r| r.contains(&lo));
                    f.reads =
                        self.all_channels(&self.task_box_elems(task.expect("chunk in a task")));
                }
                KIND_EXTRACT => {
                    let lo = idx * fa.img_chunk;
                    let count = (geo.image_len() - lo).min(fa.img_chunk);
                    let gs = geo.grid_strides();
                    crate::grid::for_each_index_range(&geo.n, lo, count, |_, i| {
                        let g: usize = (0..D)
                            .map(|d| (i[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d] * gs[d])
                            .sum();
                        f.reads.push(c * glen + g);
                    });
                }
                k => unreachable!("kind {k}"),
            }
            f
        }

        /// The wiring contract of a fused graph, checked element by
        /// element: every element a node reads has its **last writers**
        /// (the writers in the latest earlier phase — for a skipped forward
        /// tile, the `Scale` slab) among the node's ancestors; every pair
        /// of nodes writing one element is ordered; and every combine shard
        /// follows all sub-FFT shards of its chunk (they fill the `fs`
        /// region it reads).
        fn check_wiring(&self, fa: &FusedApply, adjoint: bool, label: &str) {
            let fp: Vec<Footprint> =
                (0..fa.dag.len()).map(|v| self.footprint(fa, v, adjoint)).collect();
            let anc = ancestors(&fa.dag);
            let is_anc = |a: usize, v: usize| anc[v][a / 64] >> (a % 64) & 1 == 1;
            let mut writers: Vec<Vec<usize>> =
                vec![Vec::new(); self.geo.grid_len() * self.channels];
            for (v, f) in fp.iter().enumerate() {
                for &e in &f.writes {
                    writers[e].push(v);
                }
            }
            for (e, ws) in writers.iter().enumerate() {
                for (i, &a) in ws.iter().enumerate() {
                    for &b in &ws[i + 1..] {
                        assert!(
                            a == b || is_anc(a, b) || is_anc(b, a),
                            "{label}: writers {a} and {b} of element {e} are unordered"
                        );
                    }
                }
            }
            for (v, f) in fp.iter().enumerate() {
                for &e in &f.reads {
                    let last =
                        writers[e].iter().map(|&w| fp[w].phase).filter(|&p| p < f.phase).max();
                    let last =
                        last.unwrap_or_else(|| panic!("{label}: node {v} reads unwritten {e}"));
                    for &w in writers[e].iter().filter(|&&w| fp[w].phase == last) {
                        assert!(
                            is_anc(w, v),
                            "{label}: last writer {w} of element {e} does not precede reader {v}"
                        );
                    }
                }
                let t = fa.dag.tag(v as NodeId);
                if kind_of(t) == KIND_FFT_TRN {
                    let (colg, kbg) = self.tp.axes[axis_of(t)].shards.expect("four-step axis");
                    let sub_of_chunk = |s: u64| {
                        kind_of(s) == KIND_FFT_SUB
                            && axis_of(s) == axis_of(t)
                            && channel_of(s) == channel_of(t)
                            && index_of(s) / colg == index_of(t) / kbg
                    };
                    for u in (0..fa.dag.len()).filter(|&u| sub_of_chunk(fa.dag.tag(u as NodeId))) {
                        assert!(is_anc(u, v), "{label}: combine {v} does not follow sub-FFT {u}");
                    }
                }
            }
        }

        fn check_graphs(&self, label: &str) {
            let (threads, channels) = (self.threads, self.channels);
            let (geo, fft, tp, pre, wc) = (&self.geo, &self.fft, &self.tp, &self.pre, self.wc);
            let fa = build_forward(geo, fft, tp, pre, wc, 16, threads, channels);
            self.check_wiring(&fa, false, &format!("{label} forward"));
            let fa = build_adjoint(geo, fft, tp, pre, wc, threads, channels);
            self.check_wiring(&fa, true, &format!("{label} adjoint"));
        }
    }

    /// `anc[v]` = bitset of the strict ancestors of node `v`.
    fn ancestors(dag: &Dag) -> Vec<Vec<u64>> {
        let n = dag.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            for &s in dag.succs(v as NodeId) {
                preds[s as usize].push(v);
            }
        }
        let mut pending: Vec<u32> = (0..n).map(|v| dag.pred_count(v as NodeId)).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&v| pending[v] == 0).collect();
        let mut anc = vec![vec![0u64; n.div_ceil(64)]; n];
        let mut seen = 0;
        while let Some(v) = ready.pop() {
            seen += 1;
            for &p in &preds[v] {
                let from = anc[p].clone();
                for (x, y) in anc[v].iter_mut().zip(&from) {
                    *x |= *y;
                }
                anc[v][p / 64] |= 1 << (p % 64);
            }
            for &s in dag.succs(v as NodeId) {
                pending[s as usize] -= 1;
                if pending[s as usize] == 0 {
                    ready.push(s as usize);
                }
            }
        }
        assert_eq!(seen, n, "graph has a cycle");
        anc
    }

    #[test]
    fn pruned_graphs_wire_every_read_from_its_last_writer() {
        use nufft_fft::FftStrategy::{FourStep, Recursive};
        for strategy in [Recursive, FourStep] {
            for channels in [1, 2] {
                let label = format!("{strategy:?} channels={channels}");
                Case::new([8, 6], strategy, channels).check_graphs(&format!("[8, 6] {label}"));
                Case::new([6, 4, 5], strategy, channels)
                    .check_graphs(&format!("[6, 4, 5] {label}"));
            }
        }
        // Band edges off every tile width (N = 7 at M = 14: edges 4 and
        // 11), so forward tiles hold band and non-band lines, whose
        // elements reach later axes from earlier ones, not from the slab.
        for strategy in [Recursive, FourStep] {
            let case = Case::new([9, 7], strategy, 2);
            let partly = case.tp.list(TileSet::Forward, 0).tiles.iter().any(|&tile| {
                let (_, inner) = case.fft.tile_lines(0, tile as usize, case.tp.b);
                let in_band = |i: usize| (i + 3) % 14 < 7;
                inner.clone().any(in_band) && !inner.clone().all(in_band)
            });
            assert!(partly, "no partly-banded tile at width {}", case.tp.b);
            case.check_graphs(&format!("[9, 7] {strategy:?}"));
            Case::new([7, 9, 5], strategy, 1).check_graphs(&format!("[7, 9, 5] {strategy:?}"));
        }
    }

    #[test]
    fn box_runs_match_the_element_oracle() {
        // Boxes inside, hanging off either edge and spanning the grid, in
        // 1D–3D.
        let m3 = [7usize, 5, 6];
        let gs3 = [30usize, 6, 1];
        for (lo, len) in [([1, 0, 2], [3, 5, 2]), ([-2, 3, -1], [7, 4, 6]), ([5, -4, 4], [4, 2, 5])]
        {
            let mut got = Vec::new();
            for_each_box_run(&m3, &gs3, &lo, &len, |s, l| got.extend(s..s + l));
            let mut want = box_elements(&m3, &lo, &len);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "box {lo:?} {len:?}");
        }
        let mut got = Vec::new();
        for_each_box_run(&[9], &[1], &[-3], &[9], |s, l| got.extend(s..s + l));
        assert_eq!(got, box_elements(&[9], &[-3], &[9]));
    }

    /// The per-element wiring walk, the reference the run walks are pinned
    /// to: each element a node reads is resolved to its writer on its own,
    /// through the FFT plan's per-element footprint functions and a search
    /// of the tile lists, and each halo box is decoded element by element.
    mod reference {
        use super::super::*;
        use super::box_elements;
        use std::collections::BTreeSet;

        fn chunk_of_tile(lay: &FftLayout<'_>, axis: usize, tile: usize) -> Option<usize> {
            let list = lay.list(axis);
            list.tiles.binary_search(&(tile as u32)).ok().map(|p| p / list.grain)
        }

        fn entry_shard_of(lay: &FftLayout<'_>, axis: usize, e: usize) -> Option<usize> {
            let (fft, b) = (lay.fft, lay.tp.b);
            let chunk = chunk_of_tile(lay, axis, fft.tile_of_element(axis, e, b))?;
            Some(match lay.tp.axes[axis].shards {
                Some((colg, _)) => chunk * colg + fft.fs_col_group_of_element(axis, e, b),
                None => chunk,
            })
        }

        fn writer_shard_of(lay: &FftLayout<'_>, axis: usize, e: usize) -> Option<usize> {
            let chunk = chunk_of_tile(lay, axis, lay.fft.tile_of_element(axis, e, lay.tp.b))?;
            Some(match lay.tp.axes[axis].shards {
                Some((_, kbg)) => chunk * kbg + lay.fft.fs_kblock_of_element(axis, e),
                None => chunk,
            })
        }

        fn connect_fft_chain(
            builder: &mut DagBuilder,
            lay: &FftLayout<'_>,
            channels: usize,
            fft_base: &[Vec<(NodeId, NodeId)>],
            slabs: Option<ScaleSlabs<'_>>,
        ) {
            let (fft, b, ndim) = (lay.fft, lay.tp.b, lay.fft.ndim());
            let nslabs = slabs.as_ref().map_or(0, |s| fft.len().div_ceil(s.slab));
            let mut axis_id = vec![nslabs];
            for axis in 0..ndim {
                axis_id.push(axis_id[axis] + lay.writer_shards(axis));
            }
            let writer_node = |c: usize, id: usize| match &slabs {
                Some(s) if id < nslabs => s.base[c] + id as NodeId,
                _ => {
                    let j = axis_id.partition_point(|&start| start <= id) - 1;
                    fft_base[c][j].1 + (id - axis_id[j]) as NodeId
                }
            };
            for axis in if slabs.is_some() { 0 } else { 1 }..ndim {
                let list = lay.list(axis);
                let shards = lay.tp.axes[axis].shards;
                let colg = shards.map_or(1, |(colg, _)| colg);
                for chunk in 0..list.chunks() {
                    for cg in 0..colg {
                        let mut writers = BTreeSet::new();
                        let mut read = |e: usize| {
                            let w = (0..axis)
                                .rev()
                                .find_map(|j| writer_shard_of(lay, j, e).map(|s| axis_id[j] + s))
                                .unwrap_or_else(|| e / slabs.as_ref().expect("a writer").slab);
                            writers.insert(w);
                        };
                        for &tile in list.chunk(chunk) {
                            if shards.is_some() {
                                fft.for_each_fs_col_element(axis, tile as usize, cg, b, &mut read);
                            } else {
                                fft.for_each_tile_element(axis, tile as usize, b, &mut read);
                            }
                        }
                        let entry = (chunk * colg + cg) as NodeId;
                        for w in writers {
                            for c in 0..channels {
                                builder.add_edge(writer_node(c, w), fft_base[c][axis].0 + entry);
                            }
                        }
                    }
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn build_forward<const D: usize>(
            geo: &Geometry<D>,
            fft: &FftNd,
            tp: &TilePlan,
            pre: &Preprocess<D>,
            wc: usize,
            gather_grain: usize,
            threads: usize,
            channels: usize,
        ) -> FusedApply {
            let grid_len = geo.grid_len();
            let slab = piece_len(grid_len, threads);
            let lay = FftLayout::new(fft, tp, TileSet::Forward);
            let mut builder = DagBuilder::new();
            let scale_base = emit_scale_fragment(&mut builder, grid_len, slab, channels);
            let fft_base = emit_fft_fragment(&mut builder, &lay, channels);
            let (gather_base, chunks, task_chunks) =
                emit_interp_fragment(&mut builder, pre, gather_grain);
            let slabs = Some(ScaleSlabs { slab, base: &scale_base });
            connect_fft_chain(&mut builder, &lay, channels, &fft_base, slabs);
            // Gather chunks read their task's halo box, last written by the
            // last axis.
            for t in 0..pre.graph.len() {
                let (lo, len) = task_box(pre, &geo.m, wc, t);
                let deps: BTreeSet<usize> = box_elements(&geo.m, &lo, &len)
                    .into_iter()
                    .map(|e| writer_shard_of(&lay, D - 1, e).expect("last axis runs every tile"))
                    .collect();
                for g in task_chunks[t].clone() {
                    for &dep in &deps {
                        for c in 0..channels {
                            builder.add_edge(
                                fft_base[c][D - 1].1 + dep as NodeId,
                                gather_base + g as NodeId,
                            );
                        }
                    }
                }
            }
            apply_phase_priorities(&mut builder, false, D);
            FusedApply { dag: builder.build(), chunks, slab, img_chunk: 0 }
        }

        pub(super) fn build_adjoint<const D: usize>(
            geo: &Geometry<D>,
            fft: &FftNd,
            tp: &TilePlan,
            pre: &Preprocess<D>,
            wc: usize,
            threads: usize,
            channels: usize,
        ) -> FusedApply {
            let (grid_len, image_len) = (geo.grid_len(), geo.image_len());
            let slab = piece_len(grid_len, threads);
            let img_chunk = piece_len(image_len, threads);
            let lay = FftLayout::new(fft, tp, TileSet::Adjoint);
            let mut builder = DagBuilder::new();
            let zero_base = emit_zero_fragment(&mut builder, grid_len, slab, channels);
            let conv_shared = emit_spread_fragment(&mut builder, pre, channels);
            let fft_base = emit_fft_fragment(&mut builder, &lay, channels);
            let extract_base = emit_extract_fragment(&mut builder, image_len, img_chunk, channels);
            // A task reads-modifies-writes its halo box: after the zero
            // slabs holding it, before the axis-0 shards reading it.
            for t in 0..pre.graph.len() {
                let (lo, len) = task_box(pre, &geo.m, wc, t);
                let elems = box_elements(&geo.m, &lo, &len);
                let slabs: BTreeSet<usize> = elems.iter().map(|&e| e / slab).collect();
                let shards: BTreeSet<usize> = elems
                    .iter()
                    .map(|&e| entry_shard_of(&lay, 0, e).expect("axis 0 runs every tile"))
                    .collect();
                for s in slabs {
                    builder.add_edge(zero_base + s as NodeId, conv_shared[t]);
                }
                for shard in shards {
                    for c in 0..channels {
                        builder.add_edge(conv_shared[t], fft_base[c][0].0 + shard as NodeId);
                    }
                }
            }
            connect_fft_chain(&mut builder, &lay, channels, &fft_base, None);
            // An image chunk reads the wrapped embed positions of its range.
            let gs = geo.grid_strides();
            for k in 0..image_len.div_ceil(img_chunk) {
                let lo = k * img_chunk;
                let mut deps = BTreeSet::new();
                crate::grid::for_each_index_range(
                    &geo.n,
                    lo,
                    (image_len - lo).min(img_chunk),
                    |_, idx| {
                        let g: usize = (0..D)
                            .map(|d| (idx[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d] * gs[d])
                            .sum();
                        deps.insert(writer_shard_of(&lay, D - 1, g).expect("band tiles run"));
                    },
                );
                for shard in deps {
                    for c in 0..channels {
                        builder.add_edge(
                            fft_base[c][D - 1].1 + shard as NodeId,
                            extract_base[c] + k as NodeId,
                        );
                    }
                }
            }
            apply_phase_priorities(&mut builder, true, D);
            FusedApply { dag: builder.build(), chunks: Vec::new(), slab, img_chunk }
        }
    }

    fn assert_same_dag(got: &Dag, want: &Dag, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: node count");
        assert_eq!(got.num_edges(), want.num_edges(), "{label}: edge count");
        for v in 0..got.len() as NodeId {
            assert_eq!(got.tag(v), want.tag(v), "{label}: tag of node {v}");
            assert_eq!(got.weight(v), want.weight(v), "{label}: weight of node {v}");
            assert_eq!(got.priority(v), want.priority(v), "{label}: priority of node {v}");
            assert_eq!(got.pred_count(v), want.pred_count(v), "{label}: preds of node {v}");
            assert_eq!(got.succs(v), want.succs(v), "{label}: successors of node {v}");
        }
    }

    impl<const D: usize> Case<D> {
        /// Builds both directions with the run walks and the per-element
        /// reference and asserts the graphs are identical. Returns whether
        /// any task was privatized and whether a strided axis's stride is
        /// not a multiple of the tile width `b`.
        fn check_against_reference(&self, label: &str) -> (bool, bool) {
            let (geo, fft, tp, pre, wc) = (&self.geo, &self.fft, &self.tp, &self.pre, self.wc);
            let (threads, channels) = (self.threads, self.channels);
            let got = build_forward(geo, fft, tp, pre, wc, 16, threads, channels);
            let want = reference::build_forward(geo, fft, tp, pre, wc, 16, threads, channels);
            assert_same_dag(&got.dag, &want.dag, &format!("{label} forward"));
            assert_eq!(got.chunks, want.chunks, "{label}: gather chunks");
            let got = build_adjoint(geo, fft, tp, pre, wc, threads, channels);
            let want = reference::build_adjoint(geo, fft, tp, pre, wc, threads, channels);
            assert_same_dag(&got.dag, &want.dag, &format!("{label} adjoint"));
            (
                (0..got.dag.len()).any(|v| kind_of(got.dag.tag(v as NodeId)) == KIND_PRIV),
                (0..D - 1).any(|d| fft.axis_stride(d) % tp.b != 0),
            )
        }
    }

    /// The run walks build exactly the graph the per-element reference
    /// builds — tags, weights, priorities and successor lists — across
    /// rank; even, odd, mixed-radix and Bluestein extents, including grid
    /// strides that are not multiples of the tile width `b`; α = 2 and
    /// 1.25 (1.5 once); recursive and forced four-step FFTs; 1, 2, 4 and 16
    /// workers (chunk grains, slab sizes and the privatized set); 1 and 3
    /// channels; privatization on and off; and the Kaiser–Bessel and ES
    /// kernels' planned widths (the family reaches the graph only through
    /// `W`: the halo and the minimum partition width).
    #[test]
    fn run_walks_build_the_per_element_reference_graphs() {
        use nufft_fft::FftStrategy::{FourStep, Recursive};
        let kb = crate::plan::NufftConfig::default();
        let es = crate::plan::NufftConfig::default().with_tolerance(1e-4);
        assert_eq!(kb.kernel, crate::kernel::KernelChoice::KaiserBessel);
        assert_eq!(es.kernel, crate::kernel::KernelChoice::EsKernel);
        // Every (strategy, threads) pair meets each (channels,
        // privatization, kernel) combination over the shapes: the second
        // index is offset per shape.
        let mut case = 0usize;
        let (mut privatized, mut off_b) = (false, false);
        let mut run = |n: &[usize], alpha: f64| {
            for (i, (strategy, threads)) in [Recursive, FourStep]
                .into_iter()
                .flat_map(|s| [1, 2, 4, 16].map(|t| (s, t)))
                .enumerate()
            {
                let j = (i + 3 * case) % 8;
                let (fam, w) = if j & 4 == 0 { ("KB", kb.w) } else { ("ES", es.w) };
                let spec = Spec {
                    alpha,
                    strategy,
                    threads,
                    channels: if j & 1 == 0 { 1 } else { 3 },
                    privatization: j & 2 == 0,
                    w,
                };
                let label = format!("{n:?} {spec:?} {fam}");
                let (p, o) = match *n {
                    [a] => Case::with([a], spec).check_against_reference(&label),
                    [a, b] => Case::with([a, b], spec).check_against_reference(&label),
                    [a, b, c] => Case::with([a, b, c], spec).check_against_reference(&label),
                    _ => unreachable!(),
                };
                privatized |= p;
                off_b |= o;
            }
            case += 1;
        };
        // 1D: mixed radix (M = 48), Bluestein (34 = 2·17), odd N at α = 1.25.
        run(&[24], 2.0);
        run(&[17], 2.0);
        run(&[13], 1.25);
        // 2D: even; odd at α = 1.25 (M = 41 × 59, both Bluestein; stride
        // 59 is off every b); strides off b = 4 (M = 18 × 14).
        run(&[40, 36], 2.0);
        run(&[33, 47], 1.25);
        run(&[9, 7], 2.0);
        // 3D: mixed radix (M = 40 × 36 × 44); odd N at α = 1.5 with strides
        // off b (M = 26 × 20 × 14); odd N at α = 1.25.
        run(&[20, 18, 22], 2.0);
        run(&[17, 13, 9], 1.5);
        run(&[7, 9, 5], 1.25);
        assert!(privatized, "no case privatized a task");
        assert!(off_b, "no case has a grid stride that b does not divide");
    }

    #[test]
    fn node_phases_order_the_pipeline() {
        assert_eq!(node_phase(tag(KIND_SCALE, 0, 0, 0), false, 2), 0);
        assert_eq!(node_phase(tag(KIND_FFT, 1, 0, 0), false, 2), 2);
        assert_eq!(node_phase(tag(KIND_GATHER, 0, 0, 0), false, 2), 3);
        assert_eq!(node_phase(tag(KIND_ZERO, 0, 0, 0), true, 3), 0);
        assert_eq!(node_phase(tag(KIND_REDUCE, 0, 0, 0), true, 3), 1);
        assert_eq!(node_phase(tag(KIND_FFT, 2, 0, 0), true, 3), 4);
        assert_eq!(node_phase(tag(KIND_EXTRACT, 0, 0, 0), true, 3), 5);
    }
}
