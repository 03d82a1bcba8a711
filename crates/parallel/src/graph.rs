//! The task-dependency graph (§III-B2).
//!
//! Tasks are the cells of a d-dimensional grid of partitions. A task's
//! *turn* collects the parity (least significant bit) of its partition index
//! in each dimension with two or more partitions. Turns are ordered by the
//! Gray code; a task with turn of Gray rank `g > 0` may start only after its
//! (at most two) neighbors along the single dimension in which
//! `gray(g) ^ gray(g-1)` differs — those neighbors carry exactly the
//! previous turn. Dimensions with a single partition carry no parity bit
//! (they can never separate two adjacent tasks) and are excluded from the
//! turn, exactly as required for the exclusion invariant to hold at grid
//! boundaries.

use crate::exec::TaskPhase;
use crate::gray::{gray_code, gray_rank};

/// Index of a task within a [`TaskGraph`].
pub type TaskId = usize;

/// Ready-queue discipline used when executing a graph (§III-B3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First-in-first-out — the paper's "normal queue" baseline.
    Fifo,
    /// Largest-weight-first — the paper's priority queue.
    Priority,
}

/// A static dependency graph over a d-dimensional grid of partition tasks.
///
/// Built once during NUFFT preprocessing and reused by every adjoint
/// convolution call (and by the `nufft-sim` virtual executor). It runs as
/// its expansion into plain [`Dag`] nodes ([`TaskGraph::expand_into`]).
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// Number of partitions in each dimension.
    dims: Vec<usize>,
    /// Strides for flattening a partition multi-index (row-major).
    strides: Vec<usize>,
    /// Which dims participate in the turn (those with ≥ 2 partitions).
    turn_dims: Vec<usize>,
    /// Gray rank of each task's turn.
    rank: Vec<u32>,
    /// Up to 2 predecessor task ids per task.
    preds: Vec<[Option<TaskId>; 2]>,
    /// Up to 2 successor task ids per task.
    succs: Vec<[Option<TaskId>; 2]>,
    /// Task weight — the number of samples the task owns. Used as the
    /// priority key and by the simulator's cost model.
    weights: Vec<u64>,
    /// Whether the task is selectively privatized (§III-B4).
    privatized: Vec<bool>,
    /// Per-dimension periodicity: `wrap[d]` makes partitions 0 and
    /// `dims[d]-1` neighbors (grid convolution wraps mod M, so edge
    /// partitions' halos overlap through the boundary).
    wrap: Vec<bool>,
}

impl TaskGraph {
    /// Builds the graph for a partition grid with `dims[d]` partitions along
    /// dimension `d`. Weights and privatization flags start at zero/false;
    /// set them with [`TaskGraph::set_weight`] / [`TaskGraph::set_privatized`].
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains a zero.
    pub fn new(dims: &[usize]) -> Self {
        Self::new_cyclic(dims, &vec![false; dims.len()])
    }

    /// Builds the graph with per-dimension periodicity. Along a wrapped
    /// dimension the first and last partitions are treated as adjacent: they
    /// gain dependency edges through the boundary and
    /// [`TaskGraph::adjacent`] accounts for the cyclic distance.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains a zero, if `wrap.len() !=
    /// dims.len()`, or if a wrapped dimension has an odd partition count
    /// other than 1 (parity — and hence the turn/Gray-code invariant — is
    /// only consistent around an even cycle).
    pub fn new_cyclic(dims: &[usize], wrap: &[bool]) -> Self {
        assert!(!dims.is_empty(), "at least one dimension required");
        assert!(dims.iter().all(|&n| n > 0), "all dimensions must be non-empty");
        assert_eq!(wrap.len(), dims.len(), "wrap flags must match dimensions");
        for d in 0..dims.len() {
            assert!(
                !wrap[d] || dims[d] == 1 || dims[d].is_multiple_of(2),
                "wrapped dimension {d} must have an even partition count (got {})",
                dims[d]
            );
        }
        let nd = dims.len();
        let mut strides = vec![1usize; nd];
        for d in (0..nd - 1).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        let n_tasks: usize = dims.iter().product();
        let turn_dims: Vec<usize> = (0..nd).filter(|&d| dims[d] >= 2).collect();

        let mut graph = TaskGraph {
            dims: dims.to_vec(),
            strides,
            turn_dims,
            rank: vec![0; n_tasks],
            preds: vec![[None; 2]; n_tasks],
            succs: vec![[None; 2]; n_tasks],
            weights: vec![0; n_tasks],
            privatized: vec![false; n_tasks],
            wrap: wrap.to_vec(),
        };

        let tbits = graph.turn_dims.len();
        for t in 0..n_tasks {
            let idx = graph.unflatten(t);
            let turn = graph.turn_of(&idx);
            let g = gray_rank(turn) as u32;
            graph.rank[t] = g;
            if g > 0 {
                // The dimension in which this turn differs from the previous
                // Gray code: its bit position within turn_dims.
                let diff = turn ^ gray_code(g as usize - 1);
                debug_assert_eq!(diff.count_ones(), 1);
                let bit = diff.trailing_zeros() as usize;
                let dim = graph.turn_dims[bit];
                let (lo, hi) = graph.dim_neighbors(&idx, dim);
                graph.preds[t] = [lo, hi];
            }
            // Successors: neighbors along the dimension in which the *next*
            // Gray code differs, provided a next turn exists.
            if (g as usize) + 1 < (1 << tbits) {
                let diff = turn ^ gray_code(g as usize + 1);
                debug_assert_eq!(diff.count_ones(), 1);
                let bit = diff.trailing_zeros() as usize;
                let dim = graph.turn_dims[bit];
                let (lo, hi) = graph.dim_neighbors(&idx, dim);
                graph.succs[t] = [lo, hi];
            }
        }
        graph
    }

    /// The (deduplicated) pair of neighbors of `idx` along `dim`, honoring
    /// the dimension's wrap flag. Packed left so `[Some, None]` layouts stay
    /// canonical.
    fn dim_neighbors(&self, idx: &[usize], dim: usize) -> (Option<TaskId>, Option<TaskId>) {
        let n = self.dims[dim];
        let mut out = [None, None];
        let mut k = 0;
        let mut push = |i: usize| {
            let mut nb = idx.to_vec();
            nb[dim] = i;
            let t = self.flatten(&nb);
            if out[..k].contains(&Some(t)) {
                return;
            }
            out[k] = Some(t);
            k += 1;
        };
        if idx[dim] > 0 {
            push(idx[dim] - 1);
        } else if self.wrap[dim] && n > 1 {
            push(n - 1);
        }
        if idx[dim] + 1 < n {
            push(idx[dim] + 1);
        } else if self.wrap[dim] && n > 1 {
            push(0);
        }
        (out[0], out[1])
    }

    /// Number of tasks (product of the partition counts).
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True if the graph has no tasks (cannot happen — dims are non-empty).
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Partition counts per dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flattens a partition multi-index to a [`TaskId`] (row-major).
    pub fn flatten(&self, idx: &[usize]) -> TaskId {
        idx.iter().zip(&self.strides).map(|(&i, &s)| i * s).sum()
    }

    /// Inverse of [`TaskGraph::flatten`].
    pub fn unflatten(&self, mut t: TaskId) -> Vec<usize> {
        let mut idx = vec![0; self.dims.len()];
        for d in 0..self.dims.len() {
            idx[d] = t / self.strides[d];
            t %= self.strides[d];
        }
        idx
    }

    /// The turn word of a partition multi-index (parities of the dims that
    /// participate in scheduling).
    pub fn turn_of(&self, idx: &[usize]) -> usize {
        let mut turn = 0;
        for (bit, &d) in self.turn_dims.iter().enumerate() {
            turn |= (idx[d] & 1) << bit;
        }
        turn
    }

    /// Gray rank of the task's turn (0 = runs first).
    pub fn rank(&self, t: TaskId) -> u32 {
        self.rank[t]
    }

    /// Predecessor edges of `t` (at most two).
    pub fn preds(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.preds[t].iter().flatten().copied()
    }

    /// Successor edges of `t` (at most two).
    pub fn succs(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succs[t].iter().flatten().copied()
    }

    /// Number of unsatisfied dependencies `t` starts with.
    pub fn pred_count(&self, t: TaskId) -> usize {
        self.preds[t].iter().flatten().count()
    }

    /// Sets the task's weight (its sample count).
    pub fn set_weight(&mut self, t: TaskId, w: u64) {
        self.weights[t] = w;
    }

    /// The task's weight.
    pub fn weight(&self, t: TaskId) -> u64 {
        self.weights[t]
    }

    /// Marks/unmarks the task as selectively privatized.
    pub fn set_privatized(&mut self, t: TaskId, p: bool) {
        self.privatized[t] = p;
    }

    /// Whether the task is selectively privatized.
    pub fn privatized(&self, t: TaskId) -> bool {
        self.privatized[t]
    }

    /// Number of privatized tasks.
    pub fn num_privatized(&self) -> usize {
        self.privatized.iter().filter(|&&p| p).count()
    }

    /// True if tasks `a` and `b` are distinct and adjacent (Chebyshev
    /// distance ≤ 1 in partition index space, cyclically along wrapped
    /// dimensions) — i.e. their `W`-halos may overlap and they must never
    /// run concurrently. Used by tests and the simulator's safety checker.
    pub fn adjacent(&self, a: TaskId, b: TaskId) -> bool {
        if a == b {
            return false;
        }
        let ia = self.unflatten(a);
        let ib = self.unflatten(b);
        ia.iter().zip(&ib).enumerate().all(|(d, (&x, &y))| {
            let lin = x.abs_diff(y);
            let dist = if self.wrap[d] { lin.min(self.dims[d] - lin) } else { lin };
            dist <= 1
        })
    }

    /// Total weight across all tasks.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Appends the graph to `builder` as plain [`Dag`] nodes — the form
    /// `Executor::run_dag` runs. A privatized task becomes a
    /// [`TaskPhase::PrivateConvolve`] node with no dependencies joined by an
    /// edge to a [`TaskPhase::Reduce`] node; any other task becomes one
    /// [`TaskPhase::Normal`] node. The Gray-code edges are copied verbatim
    /// between the nodes that write the shared grid (`Normal` and
    /// `Reduce`), so a reduction inherits its task's edges. `node(task,
    /// phase)` picks each node's `(tag, weight)`. Nodes are added in task
    /// order, a pair's convolve first, so node ids follow task ids.
    ///
    /// Returns, per task, the node that carries its shared-grid writes.
    pub fn expand_into(
        &self,
        builder: &mut DagBuilder,
        mut node: impl FnMut(TaskId, TaskPhase) -> (u64, u64),
    ) -> Vec<NodeId> {
        let mut add = |b: &mut DagBuilder, t, phase| {
            let (tag, weight) = node(t, phase);
            b.add_node(tag, weight)
        };
        let mut shared = Vec::with_capacity(self.len());
        for t in 0..self.len() {
            if self.privatized[t] {
                let conv = add(builder, t, TaskPhase::PrivateConvolve);
                let reduce = add(builder, t, TaskPhase::Reduce);
                builder.add_edge(conv, reduce);
                shared.push(reduce);
            } else {
                shared.push(add(builder, t, TaskPhase::Normal));
            }
        }
        for t in 0..self.len() {
            for p in self.preds(t) {
                builder.add_edge(shared[p], shared[t]);
            }
        }
        shared
    }
}

/// Index of a node within a [`Dag`].
pub type NodeId = u32;

/// Builder for a heterogeneous [`Dag`]: add nodes (tag + weight), add
/// edges, then [`DagBuilder::build`]. Duplicate edges are deduplicated at
/// build time, so edge-construction passes may emit conservatively.
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    tags: Vec<u64>,
    weights: Vec<u64>,
    prios: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DagBuilder {
            tags: Vec::with_capacity(nodes),
            weights: Vec::with_capacity(nodes),
            prios: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node carrying an opaque `tag` (interpreted by the caller's
    /// task function — e.g. packed kind/axis/channel/index) and a priority
    /// `weight`, returning its id. Ids are assigned sequentially.
    pub fn add_node(&mut self, tag: u64, weight: u64) -> NodeId {
        let id = self.tags.len();
        assert!(id < u32::MAX as usize, "Dag node count overflows u32");
        self.tags.push(tag);
        self.weights.push(weight);
        self.prios.push(weight);
        id as NodeId
    }

    /// Overrides the node's *scheduling priority* (defaults to its
    /// weight). Weight stays the node's work estimate — cost models read
    /// it — while priority only orders the ready queue under
    /// [`QueuePolicy::Priority`]. Builders use this to make the frontier
    /// pop phase-major (oldest phase first, heaviest node within a phase):
    /// at low parallelism that keeps grid traversal streaming axis-by-axis
    /// instead of ping-ponging between phases, at no cost to overlap — a
    /// worker still takes newer-phase work whenever nothing older is
    /// ready.
    pub fn set_priority(&mut self, v: NodeId, priority: u64) {
        self.prios[v as usize] = priority;
    }

    /// The tag `v` was added with (for priority passes over built nodes).
    pub fn node_tag(&self, v: NodeId) -> u64 {
        self.tags[v as usize]
    }

    /// The weight `v` was added with.
    pub fn node_weight(&self, v: NodeId) -> u64 {
        self.weights[v as usize]
    }

    /// Adds a dependency edge: `to` may not start before `from` completes.
    /// Self-edges are rejected; duplicates are fine (deduplicated in
    /// [`DagBuilder::build`]).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        debug_assert_ne!(from, to, "self-edge {from}->{to}");
        self.edges.push((from, to));
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if no nodes were added.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Finalizes into an executable [`Dag`]: deduplicates edges, builds the
    /// successor CSR and predecessor counts, and verifies acyclicity.
    ///
    /// # Panics
    /// Panics if an edge references an unknown node or the graph has a
    /// dependency cycle.
    pub fn build(mut self) -> Dag {
        let n = self.tags.len();
        for &(f, t) in &self.edges {
            assert!(
                (f as usize) < n && (t as usize) < n,
                "edge {f}->{t} references a node outside 0..{n}"
            );
            assert_ne!(f, t, "self-edge {f}->{t}");
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut succ_off = vec![0u32; n + 1];
        for &(f, _) in &self.edges {
            succ_off[f as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut pred_count = vec![0u32; n];
        let mut succ = Vec::with_capacity(self.edges.len());
        // Edges are sorted by `from`, so pushing in order fills the CSR.
        for &(_, t) in &self.edges {
            succ.push(t);
            pred_count[t as usize] += 1;
        }
        let dag = Dag {
            tags: self.tags,
            weights: self.weights,
            prios: self.prios,
            pred_count,
            succ_off,
            succ,
        };
        // Kahn's algorithm: every node must be reachable from the roots.
        let mut pending = dag.pred_count.clone();
        let mut ready: Vec<NodeId> = (0..n as u32).filter(|&v| pending[v as usize] == 0).collect();
        let mut done = 0usize;
        while let Some(v) = ready.pop() {
            done += 1;
            for &s in dag.succs(v) {
                pending[s as usize] -= 1;
                if pending[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(done, n, "Dag contains a dependency cycle ({} nodes unreachable)", n - done);
        dag
    }
}

/// A general heterogeneous task DAG with arbitrary fan-in/fan-out,
/// executed by `Executor::run_dag`.
///
/// Unlike [`TaskGraph`] — whose ≤ 2 predecessor/successor edges encode
/// exactly the Gray-code partition ordering — a `Dag` carries explicit
/// per-node edge lists in CSR form, so one graph can span every phase of an
/// operator apply: scale slabs, per-axis FFT tiles, scatter/gather
/// convolution tasks and privatized reductions, with data-flow edges
/// between phases instead of executor-level joins. A `TaskGraph` on its
/// own is the special case [`TaskGraph::expand_into`] builds.
#[derive(Clone, Debug)]
pub struct Dag {
    /// Opaque per-node tag, handed to the task function.
    tags: Vec<u64>,
    /// Work estimate per node (cost models read this).
    weights: Vec<u64>,
    /// Scheduling priority per node (larger pops first under
    /// [`QueuePolicy::Priority`]); defaults to the weight unless the
    /// builder overrode it via [`DagBuilder::set_priority`].
    prios: Vec<u64>,
    /// Incoming-edge count per node.
    pred_count: Vec<u32>,
    /// CSR row offsets into `succ`.
    succ_off: Vec<u32>,
    /// Flattened successor lists.
    succ: Vec<NodeId>,
}

impl Dag {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of (deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }

    /// The node's opaque tag.
    pub fn tag(&self, v: NodeId) -> u64 {
        self.tags[v as usize]
    }

    /// The node's work estimate.
    pub fn weight(&self, v: NodeId) -> u64 {
        self.weights[v as usize]
    }

    /// The node's scheduling priority (see [`DagBuilder::set_priority`]).
    pub fn priority(&self, v: NodeId) -> u64 {
        self.prios[v as usize]
    }

    /// Number of dependency edges into `v`.
    pub fn pred_count(&self, v: NodeId) -> u32 {
        self.pred_count[v as usize]
    }

    /// The successors of `v`.
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succ[self.succ_off[v as usize] as usize..self.succ_off[v as usize + 1] as usize]
    }

    /// Total weight across all nodes.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod dag_tests {
    use super::*;

    #[test]
    fn builder_dedups_edges_and_counts_preds() {
        let mut b = DagBuilder::new();
        let a = b.add_node(10, 1);
        let c = b.add_node(20, 2);
        let d = b.add_node(30, 3);
        b.add_edge(a, c);
        b.add_edge(a, c); // duplicate
        b.add_edge(a, d);
        b.add_edge(c, d);
        let dag = b.build();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.num_edges(), 3);
        assert_eq!(dag.succs(a), &[c, d]);
        assert_eq!(dag.succs(c), &[d]);
        assert_eq!(dag.succs(d), &[] as &[NodeId]);
        assert_eq!(dag.pred_count(a), 0);
        assert_eq!(dag.pred_count(c), 1);
        assert_eq!(dag.pred_count(d), 2);
        assert_eq!(dag.tag(c), 20);
        assert_eq!(dag.weight(d), 3);
        assert_eq!(dag.total_weight(), 6);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn builder_rejects_cycles() {
        let mut b = DagBuilder::new();
        let a = b.add_node(0, 0);
        let c = b.add_node(1, 0);
        b.add_edge(a, c);
        b.add_edge(c, a);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn builder_rejects_dangling_edges() {
        let mut b = DagBuilder::new();
        let a = b.add_node(0, 0);
        b.add_edge(a, 7);
        let _ = b.build();
    }

    #[test]
    fn empty_dag_is_fine() {
        let dag = DagBuilder::new().build();
        assert!(dag.is_empty());
        assert_eq!(dag.num_edges(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_serializes_completely() {
        let g = TaskGraph::new(&[2, 2]);
        // Ranks follow the Gray order 00,01,11,10 over (row, col) parities.
        // idx (0,0) turn 00 rank 0; (0,1) col parity 1 -> depends on layout.
        let ranks: Vec<u32> = (0..4).map(|t| g.rank(t)).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Each non-initial task has exactly one predecessor in a 2x2 grid.
        for t in 0..4 {
            if g.rank(t) > 0 {
                assert_eq!(g.pred_count(t), 1, "task {t}");
            }
        }
    }

    #[test]
    fn preds_have_previous_rank() {
        let g = TaskGraph::new(&[5, 4, 3]);
        for t in 0..g.len() {
            for p in g.preds(t) {
                assert_eq!(g.rank(p) + 1, g.rank(t), "edge {p}->{t}");
                assert!(g.adjacent(p, t));
            }
        }
    }

    #[test]
    fn succs_mirror_preds() {
        let g = TaskGraph::new(&[4, 4]);
        for t in 0..g.len() {
            for s in g.succs(t) {
                assert!(g.preds(s).any(|p| p == t), "succ edge {t}->{s} missing back edge");
            }
            for p in g.preds(t) {
                assert!(g.succs(p).any(|s| s == t), "pred edge {p}->{t} missing forward edge");
            }
        }
    }

    #[test]
    fn same_rank_tasks_are_never_adjacent() {
        for dims in [vec![6usize, 5], vec![3, 4, 5], vec![2, 2, 2], vec![1, 7, 4]] {
            let g = TaskGraph::new(&dims);
            for a in 0..g.len() {
                for b in (a + 1)..g.len() {
                    if g.rank(a) == g.rank(b) {
                        assert!(!g.adjacent(a, b), "dims {dims:?}: tasks {a},{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_partition_dims_carry_no_turn_bit() {
        let g = TaskGraph::new(&[1, 4]);
        // Effective 1D: ranks alternate 0,1 along the second dimension.
        let ranks: Vec<u32> = (0..4).map(|t| g.rank(t)).collect();
        assert_eq!(ranks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn rank_zero_tasks_have_no_preds() {
        let g = TaskGraph::new(&[4, 3, 2]);
        for t in 0..g.len() {
            assert_eq!(g.rank(t) == 0, g.pred_count(t) == 0, "task {t}");
        }
    }

    #[test]
    fn weights_and_privatization_round_trip() {
        let mut g = TaskGraph::new(&[3, 3]);
        g.set_weight(4, 100);
        g.set_privatized(4, true);
        assert_eq!(g.weight(4), 100);
        assert!(g.privatized(4));
        assert_eq!(g.num_privatized(), 1);
        assert_eq!(g.total_weight(), 100);
    }

    #[test]
    fn flatten_unflatten_round_trip() {
        let g = TaskGraph::new(&[3, 5, 2]);
        for t in 0..g.len() {
            assert_eq!(g.flatten(&g.unflatten(t)), t);
        }
    }

    fn assert_adjacent_ordered(g: &TaskGraph, dims: &[usize], wrap: &[bool]) {
        let n = g.len();
        // Reachability closure over successor edges.
        let mut reach = vec![vec![false; n]; n];
        let mut order: Vec<TaskId> = (0..n).collect();
        order.sort_by_key(|&t| core::cmp::Reverse(g.rank(t)));
        for &t in &order {
            for s in g.succs(t) {
                reach[t][s] = true;
                for j in 0..n {
                    if reach[s][j] {
                        reach[t][j] = true;
                    }
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && g.adjacent(a, b) {
                    assert!(
                        reach[a][b] || reach[b][a],
                        "dims {dims:?} wrap {wrap:?}: adjacent tasks {a} (rank {}) and {b} \
                         (rank {}) unordered",
                        g.rank(a),
                        g.rank(b)
                    );
                }
            }
        }
    }

    /// The exclusion invariant the whole adjoint convolution rests on, for
    /// periodic (wrapped) grids: edge partitions' halos overlap through the
    /// mod-M boundary, and the cyclic graph must order them too.
    #[test]
    fn cyclic_adjacent_tasks_are_always_ordered() {
        for dims in [
            vec![2usize, 2],
            vec![4, 4],
            vec![6, 4],
            vec![2, 6],
            vec![1, 4],
            vec![4, 2, 2],
            vec![2, 2, 2],
            vec![4, 4, 4],
            vec![6, 2, 4],
            vec![1, 2, 4],
        ] {
            let wrap = vec![true; dims.len()];
            let g = TaskGraph::new_cyclic(&dims, &wrap);
            assert_adjacent_ordered(&g, &dims, &wrap);
        }
        // Mixed wrap flags (odd counts allowed on non-wrapped dims).
        for (dims, wrap) in [
            (vec![5usize, 4], vec![false, true]),
            (vec![4, 3], vec![true, false]),
            (vec![3, 4, 2], vec![false, true, true]),
        ] {
            let g = TaskGraph::new_cyclic(&dims, &wrap);
            assert_adjacent_ordered(&g, &dims, &wrap);
        }
    }

    #[test]
    #[should_panic(expected = "even partition count")]
    fn cyclic_odd_partition_count_rejected() {
        let _ = TaskGraph::new_cyclic(&[3, 4], &[true, false]);
    }

    #[test]
    fn cyclic_edges_cross_the_boundary() {
        let g = TaskGraph::new_cyclic(&[4], &[true]);
        // Task 3 (odd index, rank 1) must depend on both neighbors: 2 and 0.
        let preds: Vec<_> = g.preds(3).collect();
        assert!(preds.contains(&2) && preds.contains(&0), "{preds:?}");
        assert!(g.adjacent(0, 3));
    }

    #[test]
    fn cyclic_two_partition_dim_dedups_neighbor() {
        let g = TaskGraph::new_cyclic(&[2], &[true]);
        // Task 1's -1 and +1 neighbors are both task 0: one edge, not two.
        assert_eq!(g.pred_count(1), 1);
    }

    /// The exclusion invariant the whole adjoint convolution rests on:
    /// any two *adjacent* tasks (overlapping halos) must be totally ordered
    /// by the dependency DAG, so no schedule can ever run them concurrently.
    #[test]
    fn adjacent_tasks_are_always_ordered_by_the_dag() {
        for dims in [
            vec![4usize, 5],
            vec![2, 2],
            vec![3, 3],
            vec![7, 2],
            vec![1, 6],
            vec![3, 4, 3],
            vec![2, 3, 2],
            vec![2, 1, 2],
            vec![1, 2, 2],
            vec![4, 4, 4],
            vec![5, 1, 1],
        ] {
            let g = TaskGraph::new(&dims);
            let n = g.len();
            // Reachability closure over successor edges.
            let mut reach = vec![vec![false; n]; n];
            // Process tasks in decreasing rank so successors are final.
            let mut order: Vec<TaskId> = (0..n).collect();
            order.sort_by_key(|&t| core::cmp::Reverse(g.rank(t)));
            for &t in &order {
                for s in g.succs(t) {
                    reach[t][s] = true;
                    for j in 0..n {
                        if reach[s][j] {
                            reach[t][j] = true;
                        }
                    }
                }
            }
            for a in 0..n {
                for b in 0..n {
                    if a != b && g.adjacent(a, b) {
                        assert!(
                            reach[a][b] || reach[b][a],
                            "dims {dims:?}: adjacent tasks {a} (rank {}) and {b} (rank {}) unordered",
                            g.rank(a),
                            g.rank(b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expansion_pairs_privatized_tasks_and_copies_the_gray_edges() {
        let mut g = TaskGraph::new_cyclic(&[4, 6], &[true, true]);
        for t in 0..g.len() {
            g.set_weight(t, 10 * t as u64 + 1);
            g.set_privatized(t, t % 3 == 0);
        }
        let mut b = DagBuilder::new();
        let shared =
            g.expand_into(&mut b, |t, phase| ((t as u64) << 2 | phase as u64, g.weight(t)));
        let dag = b.build();
        assert_eq!(dag.len(), g.len() + g.num_privatized());
        let task = |v: NodeId| (dag.tag(v) >> 2) as TaskId;
        let phase = |v: NodeId| dag.tag(v) & 3;
        // Node ids follow task ids.
        assert!((1..dag.len() as NodeId).all(|v| task(v - 1) <= task(v)));
        for t in 0..g.len() {
            let s = shared[t];
            assert_eq!(task(s), t);
            assert_eq!(dag.weight(s), g.weight(t));
            assert_eq!(dag.priority(s), g.weight(t));
            let mut want: Vec<NodeId> = g.succs(t).map(|u| shared[u]).collect();
            want.sort_unstable();
            assert_eq!(dag.succs(s), &want[..], "task {t}'s Gray-code edges");
            if g.privatized(t) {
                assert_eq!(phase(s), TaskPhase::Reduce as u64);
                assert_eq!(dag.pred_count(s) as usize, g.pred_count(t) + 1);
                let conv = s - 1;
                assert_eq!((task(conv), phase(conv)), (t, TaskPhase::PrivateConvolve as u64));
                assert_eq!(dag.pred_count(conv), 0);
                assert_eq!(dag.succs(conv), &[s]);
            } else {
                assert_eq!(phase(s), TaskPhase::Normal as u64);
                assert_eq!(dag.pred_count(s) as usize, g.pred_count(t));
            }
        }
    }

    #[test]
    fn graph_is_acyclic_and_complete() {
        // Topological execution must cover every task.
        let g = TaskGraph::new(&[5, 5, 5]);
        let mut pending: Vec<usize> = (0..g.len()).map(|t| g.pred_count(t)).collect();
        let mut ready: Vec<TaskId> = (0..g.len()).filter(|&t| pending[t] == 0).collect();
        let mut done = 0;
        while let Some(t) = ready.pop() {
            done += 1;
            for s in g.succs(t) {
                pending[s] -= 1;
                if pending[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(done, g.len(), "deadlocked tasks remain");
    }
}
