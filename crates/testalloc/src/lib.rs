//! A counting global allocator for the memory regression tests.
//!
//! A test file installs it and measures a piece of work with
//! [`peak_during`], [`largest_during`] or [`calls_during`]:
//!
//! ```
//! use velodrome_testalloc::{peak_during, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (v, peak) = peak_during(|| vec![0u8; 4096]);
//!     assert!(peak >= v.len());
//! }
//! ```
//!
//! The counts are allocation, not RSS: they see every byte the program
//! asks for and nothing the operating system adds around it, so they are
//! exact and the same on every platform.
//!
//! The counters are process-wide: a test running in parallel in the same
//! process would pollute them. A file with one test is safe; a file with
//! more serializes them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting live bytes, their high-water mark, the
/// largest single request and the calls that hand out memory.
#[derive(Debug)]
pub struct CountingAlloc;

// The counters are statistics: they publish no other data, so `Relaxed` is
// enough.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Counts a request of `size` bytes that grew the live bytes by `grew`.
fn handed_out(size: usize, grew: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
    let now = CURRENT.fetch_add(grew, Ordering::Relaxed) + grew;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counting touches only the
// atomics above.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            handed_out(layout.size(), layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                handed_out(new_size, new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Ordering::Relaxed);
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Runs `f`; returns its result and the peak of live heap bytes during
/// the run, above the level at its start.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// Runs `f`; returns its result and the largest single allocation (or
/// growth target of a reallocation) it requested.
pub fn largest_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Runs `f`; returns its result and the allocator calls that handed out
/// memory during the run (`alloc`, `alloc_zeroed` and `realloc`).
pub fn calls_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}
