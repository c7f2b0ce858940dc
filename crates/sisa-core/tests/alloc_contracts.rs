//! The allocation contract of the CPU baseline: on a warm, probe-heavy job
//! (sparse operands against dense bitvectors), a `HostEngine` allocates at
//! most twice what the `FunctionalEngine` that stores its sets allocates for
//! the same calls, counted by a per-thread counting global allocator.
//!
//! A `HostEngine` only prices what its store computes, so pricing a probe
//! (one dependent bitmap access per element of the sparse operand) must not
//! allocate per call. On this job, once warm, both engines make none.

use sisa_core::{FunctionalEngine, HostEngine, SetEngine};
use sisa_isa::SetId;
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

const UNIVERSE: usize = 256;

/// Loads 4 dense operands (every third vertex, offset per set) and 32
/// sparse ones (24 members each), returning `(sparse, dense)`.
fn load<E: SetEngine>(engine: &mut E) -> (Vec<SetId>, Vec<SetId>) {
    engine.set_universe(UNIVERSE);
    let dense = (0..4u32)
        .map(|d| engine.create_dense((d..UNIVERSE as u32).step_by(3)))
        .collect();
    let sparse = (0..32u32)
        .map(|s| engine.create_sorted((0..24u32).map(|i| (s * 7 + i * 10) % UNIVERSE as u32)))
        .collect();
    (sparse, dense)
}

/// One pass of the job: every sparse × dense pair is probed in both operand
/// orders by the counting forms, and materialised once then deleted.
fn job<E: SetEngine>(engine: &mut E, sparse: &[SetId], dense: &[SetId]) -> usize {
    let mut total = 0;
    for &s in sparse {
        for &d in dense {
            total += engine.intersect_count(s, d);
            total += engine.intersect_count(d, s);
            total += engine.difference_count(s, d);
            let r = engine.intersect(s, d);
            total += engine.cardinality(r);
            engine.delete(r);
        }
    }
    total
}

/// Allocations of the second, warm pass of the job, and its answer.
fn warm_job_allocations<E: SetEngine>(mut engine: E) -> (u64, usize) {
    let (sparse, dense) = load(&mut engine);
    let cold = job(&mut engine, &sparse, &dense);
    let before = allocations();
    let warm = job(&mut engine, &sparse, &dense);
    let allocated = allocations() - before;
    assert_eq!(cold, warm, "a pass computes the same answer twice");
    (allocated, warm)
}

#[test]
fn a_host_engine_allocates_at_most_twice_what_its_store_does_on_a_probe_heavy_job() {
    let (functional, answer) = warm_job_allocations(FunctionalEngine::new());
    let (host, host_answer) = warm_job_allocations(HostEngine::with_defaults());
    assert_eq!(host_answer, answer, "pricing never changes answers");
    assert!(
        host <= 2 * functional,
        "HostEngine made {host} allocations on a warm job, its store {functional}"
    );
}
