//! Allocation ledger for the lock-free read path.
//!
//! Counts heap allocations per in-process `openNode` round trip on a
//! 2 KiB node — client encode, frame, server decode, the lock-free view
//! read, the response, and (with instrumentation on) the causal trace the
//! request leaves in the flight recorder. Every thread of the process is
//! counted, so the server's connection thread is included.
//!
//! This binary holds a single test: the counting allocator is global to
//! the process, and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use neptune::prelude::*;

/// Counts every allocation and reallocation, then delegates to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODE_BYTES: usize = 2048;
const WARMUP: usize = 200;
const ROUND_TRIPS: u64 = 1_000;

/// Mean allocations per `openNode` round trip, after a warm-up that fills
/// the flight recorder's rings and every reusable buffer.
fn allocations_per_read(client: &mut Client, node: NodeIndex) -> f64 {
    let mut read = || {
        let opened = client
            .open_node(MAIN_CONTEXT, node, Time::CURRENT, vec![])
            .unwrap();
        assert_eq!(opened.contents.len(), NODE_BYTES);
    };
    for _ in 0..WARMUP {
        read();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUND_TRIPS {
        read();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) as f64 / ROUND_TRIPS as f64
}

#[test]
fn a_lock_free_open_node_allocates_little() {
    let dir = std::env::temp_dir().join(format!("neptune-request-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, false).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, vec![b'x'; NODE_BYTES], &[])
        .unwrap();
    let server = serve(ham, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let registry = neptune::obs::registry();
    registry.set_enabled(true);
    let traced = allocations_per_read(&mut client, node);
    registry.set_enabled(false);
    let untraced = allocations_per_read(&mut client, node);
    registry.set_enabled(true);

    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    println!("allocations per openNode round trip: obs on {traced:.2}, obs off {untraced:.2}");
    assert!(
        traced <= 4.0,
        "obs on: {traced:.2} allocations per round trip (budget 4)"
    );
    assert_eq!(
        untraced, 1.0,
        "obs off: only the response's contents buffer may allocate"
    );
}
