//! A counting global allocator for allocation-regression tests and
//! benchmark reports.
//!
//! The simulator's hot loop is contractually allocation-free in steady
//! state (see DESIGN.md §"Performance engineering"); this module provides
//! the measurement half of that contract. Installing [`CountingAlloc`] as
//! the `#[global_allocator]` of a test or bench binary makes every heap
//! allocation tick a process-wide counter ([`alloc_count`]) and the
//! allocating thread's own tally ([`alloc_count_this_thread`]):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: orinoco_util::alloc_counter::CountingAlloc =
//!     orinoco_util::alloc_counter::CountingAlloc;
//!
//! let before = orinoco_util::alloc_counter::alloc_count_this_thread();
//! hot_loop();
//! assert_eq!(orinoco_util::alloc_counter::alloc_count_this_thread(), before);
//! ```
//!
//! A test that measures one thread's hot loop must use the per-thread
//! tally: the process-wide count also picks up whatever sibling tests
//! (the harness runs them in parallel), their harness bookkeeping and
//! their teardown allocate meanwhile.
//!
//! The counters are always compiled in (relaxed atomics plus a
//! const-initialised thread-local cell — far below measurement noise) but
//! only advance in binaries that actually install the allocator, so the
//! library itself imposes no policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// Const-initialised and free of destructors, so touching them from inside
// the allocator never allocates or registers a thread-exit hook.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_TRAP: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation of `bytes` globally and on the calling thread,
/// first panicking if this thread's trap is armed (disarming it, so the
/// panic machinery can allocate freely).
fn record(bytes: usize, what: &str) {
    if THREAD_TRAP.try_with(|t| t.replace(false)).unwrap_or(false) {
        panic!("heap {what} of {bytes} bytes while trapped");
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// A `GlobalAlloc` that forwards to [`System`] and counts every
/// allocation and reallocation (frees are not counted — the contract under
/// test is "no new heap traffic", and a free implies a prior allocation).
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are relaxed atomics
// and thread-local cells with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), "allocation");
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, "reallocation");
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms (or disarms) the calling thread's allocation trap: the **next**
/// allocation or reallocation on this thread panics with a backtrace
/// pointing at the allocation site, then the trap disarms itself (so the
/// panic machinery can allocate freely). Other threads are unaffected. A
/// debugging aid for hunting stray allocations that
/// [`alloc_count_this_thread`] detects — not for use in committed
/// assertions.
pub fn trap_on_next_alloc(enable: bool) {
    THREAD_TRAP.with(|t| t.set(enable));
}

/// Total heap allocations (including reallocations) observed so far.
/// Always zero unless the binary installed [`CountingAlloc`].
#[must_use]
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations (including reallocations) made by the calling thread
/// so far. Always zero unless the binary installed [`CountingAlloc`].
#[must_use]
pub fn alloc_count_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Total bytes requested by all allocations ([`alloc_count`]).
#[must_use]
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}
