//! A counting global allocator for the bench driver.
//!
//! The allocation-discipline work in relim-core (inline `Config` storage,
//! reusable scratch arenas) needs a *pinned* win, not a claimed one: wall
//! clock on a 1-CPU container is noisy, but the **number of heap
//! allocations** a deterministic kernel performs is exactly reproducible
//! — the same code on the same input allocates the same number of times,
//! independent of scheduling. This module wraps [`System`] in a counter
//! pair (allocations, bytes requested) so `bench-driver` can record
//! `alloc_count` / `alloc_bytes` deltas into each kernel's deterministic
//! report section of `BENCH_relim.json`, where the `--diff` gate compares
//! them **exactly** (unlike `wall_ns`, which is tolerated).
//!
//! The allocator is installed only when the `count-alloc` feature is on
//! (default). The counters use relaxed atomics: even under concurrency a
//! relaxed count is exact — only the attribution window would blur.
//!
//! This is the one deliberately `unsafe`-touching corner of the
//! workspace: a [`GlobalAlloc`] impl cannot be written without `unsafe`,
//! and it lives in the driver binary (not the `#![forbid(unsafe_code)]`
//! bench library) so the blast radius is two pass-through calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed since process start.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocations (requested, not padded).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`], with every allocation (and growing reallocation) counted.
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller's layout obligations hold.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is one more trip to the allocator; count the
        // newly requested size so growth patterns show up in the bytes.
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller's layout obligations hold.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether the counting allocator is installed (the `count-alloc`
/// feature). When off, [`measure`] reports zeros and the driver omits the
/// alloc fields rather than committing meaningless values.
pub fn enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Runs `f` and returns `(result, allocations, bytes)` performed by it.
///
/// Allocations by every thread count, so the deltas are exact when only
/// `f`'s own work runs meanwhile: a sequential engine, or a pool batch
/// whose persistent worker has already run (see `pool_batch_w2`).
/// Concurrent allocations by unrelated threads would be attributed to
/// the window, so probes must not overlap other thread activity.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let count0 = ALLOC_COUNT.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    let count = ALLOC_COUNT.load(Ordering::Relaxed) - count0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    (out, count, bytes)
}
