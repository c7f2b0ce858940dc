//! The allocation contract of a cache hit: what one warm in-process hit
//! (`ServiceClient::submit`, then `QueryHandle::wait`) allocates on the
//! caller's thread, counted by a per-thread counting global allocator.
//!
//! A hit is answered on the caller's thread, so every allocation it makes
//! lands in that thread's count; the service's worker threads are idle and
//! their counts are their own.

use sisa_graph::generators;
use sisa_service::{QueryKind, QuerySpec, ServiceConfig, SisaService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread has made (`realloc` counts as one).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the allocating thread.
/// `alloc_zeroed` and `realloc` take the trait's default bodies, which call
/// `alloc`, so they count too.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's own arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A `const` thread-local `Cell` has no destructor and never
        // allocates, so the count is safe to take inside the allocator;
        // `try_with` skips it while the thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What one warm hit allocates on the caller's thread: the tenant's
/// in-flight key in `Admission::try_admit` (a tenant with nothing in flight
/// has no entry), the event channel, the `Job`'s tenant name, and the
/// answer's send into the channel. `ResultCache::get` looks the borrowed
/// spec up without copying it, the ledger finds a known tenant's row
/// without allocating, and no series is pushed into a string-keyed registry.
const ALLOCATIONS_PER_HIT: u64 = 4;

#[test]
fn a_warm_cache_hit_allocates_a_fixed_count_on_the_callers_thread() {
    const HITS: u64 = 1_000;
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", generators::erdos_renyi(24, 0.3, 5));
    let client = service.client();
    let spec = QuerySpec::new("g", QueryKind::TriangleCount);
    // The miss that fills the cache and creates the tenant's ledger row,
    // then one hit, so nothing counted below is a first touch.
    for _ in 0..2 {
        client
            .submit("t", spec.clone())
            .expect("admitted")
            .wait()
            .expect("answered");
    }
    // The specs are cloned before counting: the caller owns what it submits.
    let specs = vec![spec; HITS as usize];

    let before = allocations();
    for spec in specs {
        let outcome = client
            .submit("t", spec)
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(outcome.stats.cache_hit);
    }
    let counted = allocations() - before;

    assert_eq!(
        counted,
        HITS * ALLOCATIONS_PER_HIT,
        "{counted} allocations over {HITS} hits"
    );
    service.close();
}
