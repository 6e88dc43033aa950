//! Size-classed buffer arena backing the rendezvous protocol.
//!
//! Messages larger than the eager limit carry their payload in a buffer
//! *leased* from a per-universe [`BufferPool`] instead of a fresh
//! `Vec<u8>` per message. Buffers live in power-of-two size classes; a
//! lease pops from the class's free list (or allocates on a cold miss)
//! and the buffer returns to the list when the receiver drops the payload
//! — so a steady-state exchange of large messages performs **zero**
//! allocations after warm-up, and repeated leases reuse already-faulted
//! pages (the dominant cost of fresh multi-megabyte allocations).
//!
//! The pool also doubles as a leak detector: `PoolReport::outstanding`
//! counts live leases, and a finished [`Universe::run`](crate::Universe)
//! drains every mailbox before snapshotting [`PoolReport`] into the run
//! report, so `outstanding != 0` after a run means a payload escaped the
//! envelope lifecycle. simcheck asserts this on every scenario.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Smallest size class, bytes. Leases below this round up; anything at or
/// under the eager limit never reaches the pool in the first place.
const MIN_CLASS: usize = 512;

/// Largest size class the pool *caches*. Bigger leases are served (exact
/// power-of-two) but their buffers are freed on return instead of cached,
/// bounding the pool's idle footprint.
const MAX_CACHED_CLASS: usize = 1 << 22; // 4 MiB

/// Free-list depth per size class; returns beyond this free the buffer.
const PER_CLASS_CAP: usize = 32;

/// Number of cached classes: 512 B .. 4 MiB inclusive.
const N_CLASSES: usize = (MAX_CACHED_CLASS.ilog2() - MIN_CLASS.ilog2() + 1) as usize;

/// A size-classed free-list arena for rendezvous payload buffers.
///
/// Thread-safe; ranks lease concurrently. Each class has its own lock so
/// leases of different sizes never contend.
#[derive(Debug)]
pub struct BufferPool {
    classes: [Mutex<Vec<Vec<u8>>>; N_CLASSES],
    leased: AtomicU64,
    reused: AtomicU64,
    outstanding: AtomicUsize,
    high_water: AtomicUsize,
    outstanding_bytes: AtomicUsize,
    high_water_bytes: AtomicUsize,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool {
            classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            leased: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            outstanding_bytes: AtomicUsize::new(0),
            high_water_bytes: AtomicUsize::new(0),
        }
    }
}

/// Rounds `len` up to its size class (a power of two, at least
/// [`MIN_CLASS`]).
fn class_of(len: usize) -> usize {
    len.max(MIN_CLASS).next_power_of_two()
}

/// Index into the cached-class array, or `None` for oversized classes.
fn class_index(class: usize) -> Option<usize> {
    if class > MAX_CACHED_CLASS {
        None
    } else {
        Some((class.ilog2() - MIN_CLASS.ilog2()) as usize)
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(BufferPool::default())
    }

    /// Leases an empty buffer with capacity for at least `len` bytes.
    ///
    /// The returned [`Lease`] dereferences to a `Vec<u8>` (starting
    /// empty); dropping it returns the buffer to its size class.
    pub fn lease(self: &Arc<Self>, len: usize) -> Lease {
        let class = class_of(len);
        let cached = class_index(class)
            .and_then(|i| self.classes[i].lock().pop());
        self.leased.fetch_add(1, Ordering::Relaxed);
        let buf = match cached {
            Some(mut b) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                b.clear();
                b
            }
            None => Vec::with_capacity(class),
        };
        let live = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(live, Ordering::Relaxed);
        let live_b = self.outstanding_bytes.fetch_add(class, Ordering::Relaxed) + class;
        self.high_water_bytes.fetch_max(live_b, Ordering::Relaxed);
        Lease {
            buf,
            class,
            pool: Arc::clone(self),
        }
    }

    fn give_back(&self, mut buf: Vec<u8>, class: usize) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.outstanding_bytes.fetch_sub(class, Ordering::Relaxed);
        if let Some(i) = class_index(class) {
            let mut list = self.classes[i].lock();
            if list.len() < PER_CLASS_CAP {
                buf.clear();
                list.push(buf);
            }
        }
    }

    /// Snapshot of the pool's counters.
    pub(crate) fn report(&self) -> PoolReport {
        PoolReport {
            leased: self.leased.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Counter snapshot of the universe's rendezvous buffer pool, carried in
/// [`RunReport`](crate::RunReport) so harnesses (simcheck's leak
/// invariant, the ledger's pool metrics) can assert on arena behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Total leases over the pool's lifetime.
    pub leased: u64,
    /// Leases served from a free list (no allocation).
    pub reused: u64,
    /// Leases still live at snapshot time; zero after a drained run.
    pub outstanding: usize,
    /// Maximum simultaneously-live leases.
    pub high_water: usize,
    /// Maximum simultaneously-live lease bytes (size-class rounded).
    pub high_water_bytes: usize,
}

/// A buffer leased from a [`BufferPool`]; returns on drop.
pub struct Lease {
    buf: Vec<u8>,
    class: usize,
    pool: Arc<BufferPool>,
}

impl Lease {
    /// The filled payload bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access for filling the buffer.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("len", &self.buf.len())
            .field("class", &self.class)
            .finish()
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.pool.give_back(buf, self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_rounds_up_to_class() {
        let pool = BufferPool::new();
        let l = pool.lease(700);
        assert!(l.buf.capacity() >= 1024);
        assert_eq!(l.bytes().len(), 0);
    }

    #[test]
    fn drop_returns_and_reuses() {
        let pool = BufferPool::new();
        {
            let mut l = pool.lease(600);
            l.buf_mut().extend_from_slice(&[1, 2, 3]);
        }
        assert_eq!(pool.report().outstanding, 0);
        let l2 = pool.lease(600);
        let r = pool.report();
        assert_eq!(r.leased, 2);
        assert_eq!(r.reused, 1, "second lease must come from the free list");
        assert_eq!(l2.bytes().len(), 0, "reused buffers come back cleared");
    }

    #[test]
    fn oversized_leases_are_served_but_not_cached() {
        let pool = BufferPool::new();
        drop(pool.lease(MAX_CACHED_CLASS * 2));
        assert_eq!(pool.report().outstanding, 0);
        let r = pool.report();
        assert_eq!(r.reused, 0);
        drop(pool.lease(MAX_CACHED_CLASS * 2));
        assert_eq!(pool.report().reused, 0, "oversized buffers are freed, not cached");
    }

    #[test]
    fn high_water_tracks_concurrent_leases() {
        let pool = BufferPool::new();
        let a = pool.lease(1000);
        let b = pool.lease(1000);
        drop(a);
        drop(b);
        let r = pool.report();
        assert_eq!(r.high_water, 2);
        assert_eq!(r.outstanding, 0);
        assert!(r.high_water_bytes >= 2048);
    }

    #[test]
    fn free_list_depth_is_bounded() {
        let pool = BufferPool::new();
        let many: Vec<_> = (0..PER_CLASS_CAP + 8).map(|_| pool.lease(600)).collect();
        drop(many);
        // All returned; only PER_CLASS_CAP were cached. Lease again and
        // count reuses.
        let again: Vec<_> = (0..PER_CLASS_CAP + 8).map(|_| pool.lease(600)).collect();
        drop(again);
        assert_eq!(pool.report().reused as usize, PER_CLASS_CAP);
    }
}
