//! Host memory of a 1024-rank universe, counted by a global allocator.
//!
//! The testbed is the ledger's `scale_1024` one: 4 sites × 256 nodes, one
//! rank each, on 256 KiB stacks. One episode of its program (barrier, a
//! pinned binomial broadcast, a pinned recursive-doubling allreduce, four
//! ring `sendrecv` rounds, barrier) must leave the universe holding less
//! than [`UNIVERSE_BOUND`] bytes of heap, and building the topology less
//! than [`BUILD_BOUND`]: link costs are stored by class (4 bytes a node
//! pair), mailbox lanes are allocated on demand, clones of a topology share
//! its class index, pair tables are views of it, and collective plans name
//! raw origins by a range. Thread stacks are mapped, not allocated, and do
//! not count.

use hetsim::{Link, Protocol, Topology, TopologyBuilder};
use mpisim::{CollectiveAlgo, ReduceOp, Universe, UniverseConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, all threads.
static LIVE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Bytes this thread has allocated (frees not subtracted).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(grown: usize, shrunk: usize) {
        LIVE.fetch_add(grown as isize - shrunk as isize, Ordering::Relaxed);
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + grown.saturating_sub(shrunk)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's. Counting touches only an atomic and a const-initialised
// thread-local without a destructor (`try_with` skips it once the thread's
// locals are gone), so it neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::count(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Counting::count(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The two tests run one at a time: one of them reads the global count.
static SERIAL: Mutex<()> = Mutex::new(());

const SITES: usize = 4;
const NODES_PER_SITE: usize = 256;
const MIB: isize = 1 << 20;
/// Live heap a built 1024-node topology may hold.
const BUILD_BOUND: isize = 8 * MIB;
/// Live heap the universe may hold after one episode.
const UNIVERSE_BOUND: isize = 16 * MIB;

fn testbed() -> Topology {
    let mut b = TopologyBuilder::new()
        .intra_switch(Link::new(1e-4, 100e6, Protocol::Tcp))
        .inter_site(Link::new(50e-3, 1e6, Protocol::Tcp));
    for site in 0..SITES {
        b = b.site();
        for i in 0..NODES_PER_SITE {
            b = b.node(format!("s{site}n{i}"), 100.0);
        }
    }
    b.build()
}

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn a_cloned_topology_allocates_no_pair_data() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let topo = testbed();
    let n = topo.cluster().len();
    let mut copy = None;
    let bytes = allocated_by(|| copy = Some(topo.clone()));
    eprintln!("topology clone: {bytes} bytes allocated");
    // Names, speeds, the placement and the site / switch of each node:
    // O(n), against n² = 1 Mi node pairs.
    assert!(
        bytes < 256 * n,
        "a clone of a {n}-node topology allocated {bytes} bytes"
    );
    let copy = copy.expect("cloned");
    assert_eq!(
        copy.cluster()
            .link(hetsim::NodeId(0), hetsim::NodeId(n - 1))
            .latency,
        50e-3
    );
}

#[test]
fn a_pair_table_over_the_placement_allocates_no_pair_data() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, placement) = testbed().into_parts();
    let p = placement.len();
    let mut table = None;
    let bytes = allocated_by(|| table = Some(cluster.pair_table(&placement)));
    eprintln!("pair table over {p} positions: {bytes} bytes allocated");
    // The node vector and one cost per link class, against p² = 1 Mi
    // position pairs.
    assert!(
        bytes < 64 * p,
        "a pair table over {p} positions allocated {bytes} bytes"
    );
    let table = table.expect("built");
    assert_eq!(table.latency(0, p - 1), 50e-3);
    assert_eq!(table.latency(p - 1, p - 1), 0.0);
}

#[test]
fn a_1024_rank_universe_stays_within_its_memory_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let base = live();
    let topo = testbed();
    let built = live() - base;
    eprintln!("built topology: {} KiB live", built >> 10);
    assert!(
        built < BUILD_BOUND,
        "the built topology holds {} KiB",
        built >> 10
    );

    let universe = Universe::from_topology(topo, UniverseConfig::new().stack_size(256 * 1024));
    let p = universe.size();
    let root = 517;
    let want_sum = (0..p).map(|r| r as f64).sum::<f64>();
    let report = universe.run(|proc| {
        let world = proc.world();
        let me = world.rank();
        world.barrier().expect("barrier");
        let mut buf = vec![me as f64; 1024];
        world
            .bcast_into_with(CollectiveAlgo::Binomial, &mut buf, root)
            .expect("bcast");
        assert!(buf.iter().all(|&x| x == root as f64), "rank {me}: bcast");
        let sum = world
            .allreduce_eq_f64_with(
                CollectiveAlgo::RecursiveDoubling,
                &[me as f64; 8],
                ReduceOp::Sum,
            )
            .expect("allreduce");
        assert_eq!(sum, [want_sum; 8], "rank {me}: allreduce");
        let (right, left) = ((me + 1) % p, (me + p - 1) % p);
        for round in 0..4u64 {
            let (got, _) = world
                .sendrecv::<u64, u64>(&[me as u64, round], right, 3, left, 3)
                .expect("sendrecv");
            assert_eq!(got, [left as u64, round], "rank {me}: ring");
        }
        world.barrier().expect("barrier");
    });
    assert_eq!(report.results.len(), p);
    assert_eq!(report.pool.outstanding, 0);
    drop(report);
    let held = live() - base;
    eprintln!("universe after one episode: {} KiB live", held >> 10);
    assert!(
        held < UNIVERSE_BOUND,
        "the universe holds {} KiB after one episode",
        held >> 10
    );
    drop(universe);
}
