//! Heap allocations on the eager path, counted by a global allocator.
//!
//! Two ranks play ping-pong. After a warm-up, in which the mailboxes'
//! queues, the lanes and the wait registry reach their working sizes, a
//! round trip may allocate only what a receive hands its caller: the
//! decoded `Vec`. A payload of up to eight words rides inline in the
//! envelope, so a 64-byte message allocates once, at the receiver; the
//! rest of the eager range rides as one owned buffer, so a 200-byte
//! message allocates twice. (The envelope's size, 160 bytes at most, is
//! asserted where it is defined, at compile time.)

use hetsim::TopologyBuilder;
use mpisim::{Universe, UniverseConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Allocations (and reallocations) so far, all threads.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's. Counting is one relaxed atomic increment: it neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests run one at a time: each reads the global count.
static SERIAL: Mutex<()> = Mutex::new(());

const WARM_UP: usize = 1_000;
const ROUND_TRIPS: usize = 10_000;

/// Asserts that [`ROUND_TRIPS`] round trips of `words` `f64`s between two
/// ranks on one node, after [`WARM_UP`] more, allocate at most `budget`
/// times a message. Rank 0 reads the count around its measured round
/// trips; the echoing rank may be one message out of step at either end.
fn assert_allocs_per_message(words: usize, budget: usize) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let topology = TopologyBuilder::new().node("smp", 100.0).ranks(2).build();
    let universe = Universe::from_topology(topology, UniverseConfig::new());
    let report = universe.run(move |p| {
        let world = p.world();
        let data = vec![1.5f64; words];
        let mut counted = 0;
        for i in 0..WARM_UP + ROUND_TRIPS {
            if i == WARM_UP {
                counted = ALLOCS.load(Ordering::SeqCst);
            }
            if world.rank() == 0 {
                world.send(&data, 1, 0).expect("send");
                let (back, _) = world.recv::<f64>(1, 0).expect("recv");
                assert_eq!(back.len(), words);
            } else {
                let (got, _) = world.recv::<f64>(0, 0).expect("recv");
                world.send(&got, 0, 0).expect("send");
            }
        }
        ALLOCS.load(Ordering::SeqCst) - counted
    });
    let (allocs, messages) = (report.results[0], 2 * ROUND_TRIPS);
    eprintln!(
        "{} B messages: {allocs} allocations for {messages}",
        8 * words
    );
    assert!(
        allocs <= budget * (messages + 2),
        "{allocs} allocations for {messages} messages of {} B",
        8 * words
    );
}

#[test]
fn an_inline_message_allocates_only_the_receivers_vec() {
    assert_allocs_per_message(8, 1);
}

#[test]
fn an_owned_eager_message_allocates_one_buffer_and_the_receivers_vec() {
    // 200 bytes: over the inline slot, at or under `EAGER_LIMIT`.
    assert_allocs_per_message(25, 2);
}
