//! Plan registry and submit/wait service layer — the first multi-tenant
//! surface on top of the shared pool.
//!
//! FINUFFT-style amortization (Barnett et al.): repeat callers hitting the
//! same (grid, kernel params, trajectory) should pay plan construction —
//! preprocessing, graph build, window table — exactly once. The
//! [`PlanRegistry`] keys plan instances by [`PlanKey`] (grid extents,
//! kernel parameters, and an FNV-1a fingerprint of the trajectory bits)
//! and pools *instances* per key: a checkout pops an idle plan (cache
//! hit — zero allocation), a miss builds a fresh instance **outside the
//! registry lock** on the registry's shared [`Executor`], reusing the
//! key's shared [`WindowTable`] so Part 1 is never recomputed. Dropping
//! the [`PlanLease`] checks the instance back in (bounded by `max_idle`;
//! overflow instances are simply dropped).
//!
//! Two leases of the same key held concurrently are two *distinct* plan
//! instances interleaving on the shared pool — tenants never share
//! mutable state, which is what makes concurrent applies bitwise-identical
//! to solo runs (see `tests/concurrent_submit.rs`).
//!
//! [`NufftService`] adds the fire-and-forget shape: `submit` enqueues an
//! apply from any thread and returns an [`ApplyHandle`]; `wait` joins it.
//! Each request carries a [`JobPriority`] that maps to the executor's
//! fair-share admission tickets (DESIGN.md §13).

use crate::plan::{NufftConfig, NufftPlan};
use crate::tasks::SortMode;
use crate::type3::Type3Plan;
use crate::windows::WindowTable;
use nufft_math::Complex32;
use nufft_parallel::exec::{Executor, JobPriority};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Which transform family a registry key caches — part of [`PlanKey`] so
/// plans of different families with otherwise-identical parameters can
/// never alias (a type-3 plan's fine-grid geometry depends on *both*
/// clouds; a spread-only checkout is contractually never FFT'd).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// A full type-1/type-2 plan ([`PlanRegistry::checkout`]).
    Type12,
    /// A spread/interp-only checkout ([`PlanRegistry::checkout_spread`]).
    SpreadOnly,
    /// A type-3 plan ([`PlanRegistry::checkout_type3`]); the key's
    /// `traj_fp`/`traj_len` fingerprint the *sources*, these fields the
    /// targets.
    Type3 {
        /// FNV-1a over the target frequencies' bit patterns.
        targets_fp: u64,
        /// Target count (collision guard, like `traj_len`).
        targets_len: usize,
    },
}

/// Registry key: everything that determines a plan's precomputation.
///
/// Floating-point parameters are keyed by their IEEE bit patterns (exact
/// match — two trajectories are "the same" only if bitwise equal, which is
/// the right notion here because plan output is bitwise-reproducible).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey<const D: usize> {
    /// Image extents.
    pub n: [usize; D],
    /// `NufftConfig::w` bits.
    pub w_bits: u64,
    /// `NufftConfig::alpha` bits.
    pub alpha_bits: u64,
    /// Kernel family.
    pub kernel: crate::kernel::KernelChoice,
    /// LUT entries per unit argument.
    pub lut_density: usize,
    /// FNV-1a over the trajectory's `f64` bit patterns — always hashed in
    /// **caller (pre-sort) order**: the bin sort permutes only a plan's
    /// internal layout, never the key, so two configs that differ in
    /// [`SortMode`] still hash the same trajectory identically and are
    /// kept apart by the `sort` field below instead.
    pub traj_fp: u64,
    /// Sample count (cheap second factor against fingerprint collisions).
    pub traj_len: usize,
    /// `NufftConfig::sort` as declared (pre-`Auto`-resolution): sorted and
    /// unsorted plans lay out windows/coords differently and must never
    /// alias, even though their outputs are bitwise-identical.
    pub sort: SortMode,
    /// `NufftConfig::fft_strategy` as declared: a forced-four-step plan
    /// owns an `fs` transpose buffer and a differently sharded fused DAG,
    /// so it must never alias a recursive plan of the same geometry even
    /// though the two are bitwise-identical in output.
    pub fft_strategy: nufft_fft::FftStrategy,
    /// `NufftConfig::fft_llc_budget` — under `Auto` the budget decides
    /// which axes go four-step, so it is plan-shaping state too.
    pub fft_llc_budget: usize,
    /// Transform family (and, for type-3, the target-cloud geometry).
    pub kind: TransformKind,
}

/// FNV-1a over the trajectory's coordinate bit patterns, folding each
/// `f64` in as one 64-bit word. Collisions are additionally guarded by
/// `traj_len`; callers needing certainty can hold distinct registries.
pub fn traj_fingerprint<const D: usize>(traj: &[[f64; D]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for p in traj {
        for v in p.iter() {
            h ^= v.to_bits();
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Per-key state: idle plan instances plus the shared precomputation.
struct KeyPool<const D: usize> {
    /// Checked-in instances, popped LIFO (the hottest instance first).
    idle: Vec<NufftPlan<D>>,
    /// The key's window table, stashed after the first build so every
    /// later instance (and every instance that outlives eviction) shares
    /// one Part 1 computation.
    windows: Option<Arc<WindowTable<D>>>,
    hits: u64,
    misses: u64,
}

/// Registry-wide counters (observability for the service experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Checkouts served from an idle instance.
    pub hits: u64,
    /// Checkouts that built a fresh instance.
    pub misses: u64,
    /// Idle instances currently cached across all keys.
    pub cached_plans: usize,
    /// Distinct keys seen.
    pub keys: usize,
}

/// A concurrent plan cache over one shared executor.
///
/// All plans built by one registry share the registry's `NufftConfig`
/// (normalized to the shared executor's thread count) and worker pool;
/// per-request knobs go through the lease (e.g.
/// [`NufftPlan::set_admission_priority`]).
pub struct PlanRegistry<const D: usize> {
    cfg: NufftConfig,
    exec: Executor,
    max_idle: usize,
    inner: Mutex<HashMap<PlanKey<D>, KeyPool<D>>>,
    /// Type-3 instances pool separately ([`Type3Plan`] is a distinct
    /// type); keys still carry [`TransformKind::Type3`] so the two maps'
    /// key spaces are disjoint by construction.
    inner3: Mutex<HashMap<PlanKey<D>, Type3Pool<D>>>,
}

/// Per-key state for pooled type-3 instances (no shared window table yet —
/// a type-3 build's Part 1 lives inside its stage operators).
struct Type3Pool<const D: usize> {
    idle: Vec<Type3Plan<D>>,
    hits: u64,
    misses: u64,
}

impl<const D: usize> PlanRegistry<D> {
    /// Default cap on idle instances cached per key.
    pub const DEFAULT_MAX_IDLE: usize = 8;

    /// A registry whose plans all dispatch on one pool of `cfg.threads`
    /// workers.
    pub fn new(cfg: NufftConfig) -> Self {
        let exec = Executor::new(cfg.threads.max(1));
        Self::with_executor(cfg, exec)
    }

    /// A registry on a caller-supplied executor (share one pool across
    /// several registries or with direct plan holders).
    pub fn with_executor(mut cfg: NufftConfig, exec: Executor) -> Self {
        cfg.threads = exec.threads();
        PlanRegistry {
            cfg,
            exec,
            max_idle: Self::DEFAULT_MAX_IDLE,
            inner: Mutex::new(HashMap::new()),
            inner3: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the per-key idle-instance cap (eviction is drop-on-overflow
    /// at check-in; 0 disables instance caching entirely).
    pub fn set_max_idle(&mut self, max_idle: usize) {
        self.max_idle = max_idle;
    }

    /// The registry's shared executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The config every plan instance is built with.
    pub fn config(&self) -> &NufftConfig {
        &self.cfg
    }

    /// The key `checkout(n, traj)` would use.
    pub fn key_of(&self, n: [usize; D], traj: &[[f64; D]]) -> PlanKey<D> {
        self.make_key(n, traj, TransformKind::Type12)
    }

    /// The key `checkout_spread(n, traj)` would use: identical parameters,
    /// distinct [`TransformKind`] — never aliases a [`key_of`] key.
    ///
    /// [`key_of`]: PlanRegistry::key_of
    pub fn key_of_spread(&self, n: [usize; D], traj: &[[f64; D]]) -> PlanKey<D> {
        self.make_key(n, traj, TransformKind::SpreadOnly)
    }

    /// The key `checkout_type3(sources, targets)` would use: `traj_fp`
    /// fingerprints the sources, the [`TransformKind::Type3`] payload the
    /// targets, and `n` is zeroed (a type-3 plan derives its own fine-grid
    /// extents) — never aliases a type-1/2 or spread-only key.
    pub fn key_of_type3(&self, sources: &[[f64; D]], targets: &[[f64; D]]) -> PlanKey<D> {
        self.make_key(
            [0; D],
            sources,
            TransformKind::Type3 {
                targets_fp: traj_fingerprint(targets),
                targets_len: targets.len(),
            },
        )
    }

    fn make_key(&self, n: [usize; D], traj: &[[f64; D]], kind: TransformKind) -> PlanKey<D> {
        PlanKey {
            n,
            w_bits: self.cfg.w.to_bits(),
            alpha_bits: self.cfg.alpha.to_bits(),
            kernel: self.cfg.kernel,
            lut_density: self.cfg.lut_density,
            traj_fp: traj_fingerprint(traj),
            traj_len: traj.len(),
            sort: self.cfg.sort,
            fft_strategy: self.cfg.fft_strategy,
            fft_llc_budget: self.cfg.fft_llc_budget,
            kind,
        }
    }

    /// Checks out a plan instance for `(n, traj)`: an idle instance if one
    /// is cached (allocation-free), else a freshly built one. Construction
    /// happens outside the registry lock, so a slow 3D build never blocks
    /// hits on other keys — or on the same key.
    ///
    /// # Panics
    /// Propagates [`NufftPlan::new`] panics on the miss path.
    pub fn checkout(&self, n: [usize; D], traj: &[[f64; D]]) -> PlanLease<'_, D> {
        self.checkout_keyed(self.key_of(n, traj), n, traj)
    }

    /// Checks out a plan instance reserved for spread/interp-only use
    /// ([`NufftPlan::spread_only`] / [`NufftPlan::interp_only`]): same
    /// construction, but pooled under a [`TransformKind::SpreadOnly`] key
    /// so instances never migrate between full-transform and
    /// deposition-only tenants.
    pub fn checkout_spread(&self, n: [usize; D], traj: &[[f64; D]]) -> PlanLease<'_, D> {
        self.checkout_keyed(self.key_of_spread(n, traj), n, traj)
    }

    /// Checks out a pooled [`Type3Plan`] for `(sources, targets)`: an idle
    /// instance if one is cached, else a fresh build on the shared
    /// executor — outside the registry lock, like [`checkout`].
    ///
    /// [`checkout`]: PlanRegistry::checkout
    ///
    /// # Panics
    /// Propagates [`Type3Plan::new`] panics on the miss path.
    pub fn checkout_type3(&self, sources: &[[f64; D]], targets: &[[f64; D]]) -> Type3Lease<'_, D> {
        let key = self.key_of_type3(sources, targets);
        {
            let mut map = lock(&self.inner3);
            let pool = map.entry(key).or_insert_with(|| Type3Pool {
                idle: Vec::new(),
                hits: 0,
                misses: 0,
            });
            if let Some(plan) = pool.idle.pop() {
                pool.hits += 1;
                return Type3Lease { registry: self, key, plan: Some(plan) };
            }
            pool.misses += 1;
        }
        let plan = Type3Plan::new_shared(sources, targets, self.cfg, self.exec.clone());
        Type3Lease { registry: self, key, plan: Some(plan) }
    }

    fn checkout_keyed(
        &self,
        key: PlanKey<D>,
        n: [usize; D],
        traj: &[[f64; D]],
    ) -> PlanLease<'_, D> {
        let windows = {
            let mut map = lock(&self.inner);
            let pool = map.entry(key).or_insert_with(|| KeyPool {
                idle: Vec::new(),
                windows: None,
                hits: 0,
                misses: 0,
            });
            if let Some(plan) = pool.idle.pop() {
                pool.hits += 1;
                return PlanLease { registry: self, key, plan: Some(plan) };
            }
            pool.misses += 1;
            pool.windows.clone()
        };
        let had_windows = windows.is_some();
        let plan = NufftPlan::new_shared(n, traj, self.cfg, self.exec.clone(), windows);
        if !had_windows {
            if let Some(table) = plan.shared_window_table() {
                let mut map = lock(&self.inner);
                if let Some(pool) = map.get_mut(&key) {
                    pool.windows.get_or_insert(table);
                }
            }
        }
        PlanLease { registry: self, key, plan: Some(plan) }
    }

    /// Current counters, aggregated over all keys (type-1/2, spread-only,
    /// and type-3 pools together).
    pub fn stats(&self) -> RegistryStats {
        let map = lock(&self.inner);
        let mut s = RegistryStats { keys: map.len(), ..RegistryStats::default() };
        for pool in map.values() {
            s.hits += pool.hits;
            s.misses += pool.misses;
            s.cached_plans += pool.idle.len();
        }
        drop(map);
        let map3 = lock(&self.inner3);
        s.keys += map3.len();
        for pool in map3.values() {
            s.hits += pool.hits;
            s.misses += pool.misses;
            s.cached_plans += pool.idle.len();
        }
        s
    }

    /// Drops every cached idle instance (shared window tables survive, so
    /// rebuilt instances still skip Part 1).
    pub fn evict_idle(&self) {
        let mut map = lock(&self.inner);
        for pool in map.values_mut() {
            pool.idle.clear();
        }
        drop(map);
        let mut map3 = lock(&self.inner3);
        for pool in map3.values_mut() {
            pool.idle.clear();
        }
    }

    fn check_in(&self, key: PlanKey<D>, plan: NufftPlan<D>) {
        let mut map = lock(&self.inner);
        if let Some(pool) = map.get_mut(&key) {
            if pool.idle.len() < self.max_idle {
                pool.idle.push(plan);
            }
        }
    }

    fn check_in_type3(&self, key: PlanKey<D>, plan: Type3Plan<D>) {
        let mut map = lock(&self.inner3);
        if let Some(pool) = map.get_mut(&key) {
            if pool.idle.len() < self.max_idle {
                pool.idle.push(plan);
            }
        }
    }
}

/// An exclusively held plan instance; derefs to [`NufftPlan`] and checks
/// itself back into the registry on drop.
pub struct PlanLease<'r, const D: usize> {
    registry: &'r PlanRegistry<D>,
    key: PlanKey<D>,
    plan: Option<NufftPlan<D>>,
}

impl<const D: usize> PlanLease<'_, D> {
    /// The registry key this lease was checked out under.
    pub fn key(&self) -> PlanKey<D> {
        self.key
    }
}

impl<const D: usize> Deref for PlanLease<'_, D> {
    type Target = NufftPlan<D>;
    fn deref(&self) -> &NufftPlan<D> {
        self.plan.as_ref().expect("lease holds a plan until drop")
    }
}

impl<const D: usize> DerefMut for PlanLease<'_, D> {
    fn deref_mut(&mut self) -> &mut NufftPlan<D> {
        self.plan.as_mut().expect("lease holds a plan until drop")
    }
}

impl<const D: usize> Drop for PlanLease<'_, D> {
    fn drop(&mut self) {
        if let Some(plan) = self.plan.take() {
            self.registry.check_in(self.key, plan);
        }
    }
}

/// An exclusively held [`Type3Plan`] instance; derefs to the plan and
/// checks itself back into the registry on drop.
pub struct Type3Lease<'r, const D: usize> {
    registry: &'r PlanRegistry<D>,
    key: PlanKey<D>,
    plan: Option<Type3Plan<D>>,
}

impl<const D: usize> Type3Lease<'_, D> {
    /// The registry key this lease was checked out under.
    pub fn key(&self) -> PlanKey<D> {
        self.key
    }
}

impl<const D: usize> Deref for Type3Lease<'_, D> {
    type Target = Type3Plan<D>;
    fn deref(&self) -> &Type3Plan<D> {
        self.plan.as_ref().expect("lease holds a plan until drop")
    }
}

impl<const D: usize> DerefMut for Type3Lease<'_, D> {
    fn deref_mut(&mut self) -> &mut Type3Plan<D> {
        self.plan.as_mut().expect("lease holds a plan until drop")
    }
}

impl<const D: usize> Drop for Type3Lease<'_, D> {
    fn drop(&mut self) {
        if let Some(plan) = self.plan.take() {
            self.registry.check_in_type3(self.key, plan);
        }
    }
}

/// Which operator a service request applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyOp {
    /// Image → samples (type 2).
    Forward,
    /// Samples → image (type 1).
    Adjoint,
}

/// One service request: the problem, the operator, the input, and the
/// request's admission priority on the shared pool.
pub struct ApplyRequest<const D: usize> {
    /// Image extents.
    pub n: [usize; D],
    /// Trajectory in normalized frequencies (shared across requests).
    pub traj: Arc<Vec<[f64; D]>>,
    /// Forward or adjoint.
    pub op: ApplyOp,
    /// `image_len` values for [`ApplyOp::Forward`], `traj.len()` for
    /// [`ApplyOp::Adjoint`].
    pub input: Vec<Complex32>,
    /// Fair-share tickets for this request's dispatches.
    pub priority: JobPriority,
}

/// A submitted apply; [`ApplyHandle::wait`] blocks until it finishes and
/// returns the output buffer.
pub struct ApplyHandle {
    join: JoinHandle<Vec<Complex32>>,
}

impl ApplyHandle {
    /// Joins the request, propagating any panic from the apply.
    pub fn wait(self) -> Vec<Complex32> {
        match self.join.join() {
            Ok(out) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// True once the request has finished (wait would not block).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }
}

/// Submit/wait front end over a [`PlanRegistry`]: callers on any thread
/// enqueue applies without owning a plan or the pool. Each request runs on
/// its own submitter thread; the *compute* still lands on the registry's
/// shared worker pool, where the fair-share scheduler interleaves it with
/// every other in-flight request.
pub struct NufftService<const D: usize> {
    registry: Arc<PlanRegistry<D>>,
}

impl<const D: usize> NufftService<D> {
    /// A service over a fresh registry built from `cfg`.
    pub fn new(cfg: NufftConfig) -> Self {
        NufftService { registry: Arc::new(PlanRegistry::new(cfg)) }
    }

    /// A service over an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<PlanRegistry<D>>) -> Self {
        NufftService { registry }
    }

    /// The underlying registry (e.g. for stats or direct checkouts).
    pub fn registry(&self) -> &Arc<PlanRegistry<D>> {
        &self.registry
    }

    /// Enqueues one apply and returns immediately.
    ///
    /// # Panics
    /// Panics in the handle's `wait` if the input length does not match
    /// the operator, or on any plan-construction failure.
    pub fn submit(&self, req: ApplyRequest<D>) -> ApplyHandle {
        let registry = Arc::clone(&self.registry);
        let join = std::thread::Builder::new()
            .name("nufft-submit".into())
            .spawn(move || {
                let mut lease = registry.checkout(req.n, &req.traj);
                lease.set_admission_priority(req.priority);
                match req.op {
                    ApplyOp::Forward => {
                        let mut out = vec![Complex32::ZERO; lease.num_samples()];
                        lease.forward(&req.input, &mut out);
                        out
                    }
                    ApplyOp::Adjoint => {
                        let mut out = vec![Complex32::ZERO; lease.image_len()];
                        lease.adjoint(&req.input, &mut out);
                        out
                    }
                }
            })
            .expect("spawn submit thread");
        ApplyHandle { join }
    }
}

/// Mutex lock that ignores poisoning: registry state stays consistent
/// under panics (a poisoned apply never leaves a lease checked out —
/// the lease drop runs during unwind and check-in takes the lock last).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecMode;
    use crate::windows::WindowMode;

    fn traj2(count: usize) -> Vec<[f64; 2]> {
        (0..count)
            .map(|i| [((i as f64 * 0.618) % 1.0) - 0.5, ((i as f64 * 0.414) % 1.0) - 0.5])
            .collect()
    }

    fn cfg() -> NufftConfig {
        NufftConfig {
            threads: 2,
            w: 2.0,
            partitions_per_dim: Some(3),
            window_mode: WindowMode::Precomputed,
            ..NufftConfig::default()
        }
    }

    #[test]
    fn checkout_hits_after_checkin_and_shares_window_table() {
        let reg = PlanRegistry::<2>::new(cfg());
        let traj = traj2(200);
        let n = [16usize, 16];

        let lease = reg.checkout(n, &traj);
        let first_table = lease.shared_window_table().expect("Precomputed mode builds a table");
        drop(lease);
        assert_eq!(reg.stats().misses, 1);
        assert_eq!(reg.stats().hits, 0);
        assert_eq!(reg.stats().cached_plans, 1);

        // Hit: the same instance comes back, holding the same table.
        let lease = reg.checkout(n, &traj);
        let table = lease.shared_window_table().expect("table survives check-in");
        assert!(Arc::ptr_eq(&first_table, &table), "hit must reuse the table");
        // A concurrent second checkout misses (the only instance is out)
        // but still shares the stashed table instead of rebuilding Part 1.
        let lease2 = reg.checkout(n, &traj);
        let table2 = lease2.shared_window_table().expect("miss reuses stashed table");
        assert!(Arc::ptr_eq(&first_table, &table2), "miss must reuse the table");
        let s = reg.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        drop(lease);
        drop(lease2);
        assert_eq!(reg.stats().cached_plans, 2);
    }

    #[test]
    fn distinct_trajectories_get_distinct_keys() {
        let reg = PlanRegistry::<2>::new(cfg());
        let ta = traj2(150);
        let mut tb = traj2(150);
        tb[7][0] += 1e-9; // any bit flip is a different trajectory
        let n = [16usize, 16];
        assert_ne!(reg.key_of(n, &ta), reg.key_of(n, &tb));
        drop(reg.checkout(n, &ta));
        drop(reg.checkout(n, &tb));
        let s = reg.stats();
        assert_eq!((s.keys, s.misses), (2, 2));
    }

    #[test]
    fn transform_kinds_never_alias_a_key() {
        // Regression: a type-1/2 plan, a spread-only plan and a type-3
        // plan over the *same* coordinate set must occupy distinct pool
        // entries — the `TransformKind` field is the only thing telling
        // them apart, and dropping it would hand a caller a plan whose
        // apply paths don't match the entry point it asked for.
        let reg = PlanRegistry::<2>::new(cfg());
        let traj = traj2(160);
        let n = [16usize, 16];

        let k12 = reg.key_of(n, &traj);
        let ksp = reg.key_of_spread(n, &traj);
        assert_ne!(k12, ksp, "type-1/2 and spread-only keys alias");
        assert_eq!(k12.kind, TransformKind::Type12);
        assert_eq!(ksp.kind, TransformKind::SpreadOnly);

        // Type-3 with sources == traj: still its own key, and sensitive
        // to the *target* geometry too (same sources, different targets).
        let ta = traj2(90);
        let mut tb = traj2(90);
        tb[3][1] += 1e-9;
        let k3a = reg.key_of_type3(&traj, &ta);
        let k3b = reg.key_of_type3(&traj, &tb);
        assert_ne!(k3a, k12);
        assert_ne!(k3a, ksp);
        assert_ne!(k3a, k3b, "type-3 keys must fingerprint the targets");

        // Behavioral check: checking out all three kinds back-to-back
        // builds three plans (three misses), and each warm re-checkout
        // hits its own pool.
        drop(reg.checkout(n, &traj));
        drop(reg.checkout_spread(n, &traj));
        drop(reg.checkout_type3(&traj, &ta));
        let s = reg.stats();
        assert_eq!((s.misses, s.hits, s.cached_plans), (3, 0, 3));
        drop(reg.checkout(n, &traj));
        drop(reg.checkout_spread(n, &traj));
        drop(reg.checkout_type3(&traj, &ta));
        let s = reg.stats();
        assert_eq!((s.misses, s.hits, s.cached_plans), (3, 3, 3));
    }

    #[test]
    fn kernel_families_and_tolerances_never_alias_a_key() {
        // Regression: the tolerance planner folds its derived parameters
        // (kernel family, W, LUT density) into the registry key. Plans of
        // different accuracy — or the same accuracy via different families
        // — must never share a pool entry, or a caller asking for 1e-6
        // could be handed a 1e-2 plan.
        use crate::kernel::KernelChoice;
        let traj = traj2(140);
        let n = [16usize, 16];
        let base = cfg();
        let mut keys = Vec::new();
        for family in [KernelChoice::EsKernel, KernelChoice::KaiserBessel, KernelChoice::Gaussian] {
            for eps in [1e-2, 1e-4, 1e-6] {
                let c = base.with_tolerance_family(eps, family);
                keys.push(((family, eps), PlanRegistry::<2>::new(c).key_of(n, &traj)));
            }
        }
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(
                    keys[i].1, keys[j].1,
                    "{:?} and {:?} alias one registry key",
                    keys[i].0, keys[j].0
                );
            }
        }
        // Equal tolerances produce equal keys — sharing the plan across
        // tenants that asked for the same accuracy is the point.
        let a = PlanRegistry::<2>::new(base.with_tolerance(1e-4)).key_of(n, &traj);
        let b = PlanRegistry::<2>::new(base.with_tolerance(1e-4)).key_of(n, &traj);
        assert_eq!(a, b, "identical tolerances must share a key");
    }

    #[test]
    fn max_idle_caps_cached_instances() {
        let mut reg = PlanRegistry::<2>::new(cfg());
        reg.set_max_idle(1);
        let traj = traj2(120);
        let n = [16usize, 16];
        let a = reg.checkout(n, &traj);
        let b = reg.checkout(n, &traj);
        drop(a);
        drop(b); // over the cap: dropped, not cached
        assert_eq!(reg.stats().cached_plans, 1);
        reg.evict_idle();
        assert_eq!(reg.stats().cached_plans, 0);
    }

    #[test]
    fn service_submit_matches_direct_apply() {
        let traj = Arc::new(traj2(180));
        let n = [16usize, 16];
        let image: Vec<Complex32> = (0..16 * 16)
            .map(|i| Complex32::new((i as f32 * 0.11).sin(), (i as f32 * 0.05).cos()))
            .collect();

        let mut direct = NufftPlan::new(n, &traj, cfg());
        let mut want = vec![Complex32::ZERO; traj.len()];
        direct.forward(&image, &mut want);

        let svc = NufftService::<2>::new(cfg());
        let handle = svc.submit(ApplyRequest {
            n,
            traj: Arc::clone(&traj),
            op: ApplyOp::Forward,
            input: image,
            priority: JobPriority::High,
        });
        let got = handle.wait();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.re.to_bits(), w.re.to_bits(), "re bits at {i}");
            assert_eq!(g.im.to_bits(), w.im.to_bits(), "im bits at {i}");
        }
        assert_eq!(svc.registry().stats().misses, 1);
    }

    #[test]
    fn sorted_and_unsorted_configs_never_alias_a_key() {
        // Regression: a TileMajor registry and a None registry see the
        // same trajectory — identical fingerprint, but the keys must
        // differ so the registries' plans (different internal layouts)
        // can never be confused by an embedding cache.
        let traj = traj2(150);
        let n = [16usize, 16];
        let sorted = PlanRegistry::<2>::new(NufftConfig { sort: SortMode::TileMajor, ..cfg() });
        let unsorted = PlanRegistry::<2>::new(NufftConfig { sort: SortMode::None, ..cfg() });
        let ks = sorted.key_of(n, &traj);
        let ku = unsorted.key_of(n, &traj);
        assert_eq!(ks.traj_fp, ku.traj_fp, "fingerprint is sort-independent");
        assert_ne!(ks, ku, "SortMode must be part of the key");
        assert_eq!(ks, sorted.key_of(n, &traj), "keys stay deterministic");
    }

    #[test]
    fn fingerprint_hashes_canonical_pre_sort_order() {
        // The fingerprint must see the caller's order, not any internal
        // tile order: a permuted trajectory is a *different* key even
        // though a bin-sorting plan would lay both out identically.
        let traj = traj2(150);
        let mut permuted = traj.clone();
        permuted.swap(3, 97);
        permuted.swap(12, 51);
        assert_ne!(
            traj_fingerprint(&traj),
            traj_fingerprint(&permuted),
            "caller order must matter"
        );
        let reg = PlanRegistry::<2>::new(NufftConfig { sort: SortMode::TileMajor, ..cfg() });
        let n = [16usize, 16];
        assert_ne!(reg.key_of(n, &traj), reg.key_of(n, &permuted));
    }

    #[test]
    fn fused_and_phased_instances_share_one_registry() {
        // exec_mode is a per-lease knob, not part of the key: flip it on a
        // leased instance and the result must stay bitwise-identical.
        let reg = PlanRegistry::<2>::new(cfg());
        let traj = traj2(160);
        let n = [16usize, 16];
        let samples: Vec<Complex32> = (0..traj.len())
            .map(|i| Complex32::new((i as f32 * 0.21).cos(), (i as f32 * 0.07).sin()))
            .collect();
        let mut a = vec![Complex32::ZERO; 16 * 16];
        let mut b = vec![Complex32::ZERO; 16 * 16];
        {
            let mut lease = reg.checkout(n, &traj);
            lease.set_exec_mode(ExecMode::Fused);
            lease.adjoint(&samples, &mut a);
        }
        {
            let mut lease = reg.checkout(n, &traj);
            lease.set_exec_mode(ExecMode::Phased);
            lease.adjoint(&samples, &mut b);
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re bits at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im bits at {i}");
        }
    }
}
