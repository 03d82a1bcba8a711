//! Per-worker scratch storage for zero-allocation steady state.
//!
//! An iterative solver applies the same operators hundreds of times; any
//! per-apply heap allocation is pure scheduler overhead (and a scalability
//! hazard — the global allocator is a shared resource). The executor-side
//! arenas here let a caller hoist every per-dispatch allocation into plan
//! construction:
//!
//! * `CachePadded` — aligns a per-worker hot word to its own cache line;
//! * [`WorkerLocal`] — a fixed array of per-worker slots, one cache line
//!   apart, with unsynchronized access handed out under the executor's
//!   worker-exclusivity guarantee.
//!
//! The graph-run counterpart ([`crate::exec::DagScratch`]) lives next to
//! the executor; both are verified allocation-free at steady state by the
//! umbrella crate's counting-allocator test.

use std::cell::UnsafeCell;

/// Pads a value out to its own cache line so per-worker hot words (deque
/// ranges, shard locks, stat slots) never false-share.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Fixed per-worker storage: `workers` slots of `T`, each on its own cache
/// line, written without synchronization by the owning worker.
///
/// The soundness contract mirrors the executor's dispatch protocol: during
/// one `run_dag`/`parallel_for` dispatch, worker `w` is the only thread
/// that may touch slot `w` (the dispatching thread is worker 0), and
/// dispatches on one pool never overlap. Between dispatches the owner holds
/// `&mut self` and may touch every slot.
pub struct WorkerLocal<T> {
    slots: Vec<CachePadded<UnsafeCell<T>>>,
}

// SAFETY: slots are only accessed per-worker during a dispatch (see
// `WorkerLocal::get`) or through `&mut self` between dispatches.
unsafe impl<T: Send> Sync for WorkerLocal<T> {}

impl<T> WorkerLocal<T> {
    /// Builds `workers` slots, initializing slot `w` with `init(w)`.
    pub fn new(workers: usize, mut init: impl FnMut(usize) -> T) -> Self {
        WorkerLocal { slots: (0..workers).map(|w| CachePadded(UnsafeCell::new(init(w)))).collect() }
    }

    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Unsynchronized access to worker `w`'s slot.
    ///
    /// # Safety
    /// The caller must guarantee that no other reference to slot `w` exists
    /// for the returned borrow's lifetime — i.e. this is only called from
    /// inside an executor body with that body's own worker index, and the
    /// executor runs at most one dispatch at a time on this storage.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, w: usize) -> &mut T {
        unsafe { &mut *self.slots[w].0.get() }
    }

    /// Exclusive iteration over every slot (no dispatch may be running —
    /// enforced by `&mut self`).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.0.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_initialized_per_worker() {
        let wl = WorkerLocal::new(4, |w| w * 10);
        assert_eq!(wl.len(), 4);
        assert!(!wl.is_empty());
        for w in 0..4 {
            // SAFETY: single-threaded test; no aliasing.
            assert_eq!(unsafe { *wl.get(w) }, w * 10);
        }
    }

    #[test]
    fn iter_mut_visits_every_slot() {
        let mut wl = WorkerLocal::new(3, |_| 0usize);
        for s in wl.iter_mut() {
            *s += 7;
        }
        let total: usize = wl.iter_mut().map(|s| *s).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn workers_write_their_own_slots_concurrently() {
        let wl = WorkerLocal::new(8, |_| 0u64);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let wl = &wl;
                scope.spawn(move || {
                    // SAFETY: each thread touches only its own slot.
                    let slot = unsafe { wl.get(w) };
                    *slot = w as u64 + 1;
                });
            }
        });
        let mut wl = wl;
        let got: Vec<u64> = wl.iter_mut().map(|s| *s).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
