//! Pins the telemetry hot path allocation-free under a counting global
//! allocator — the same idiom `safeloc-nn` uses for its `Workspace`.
//! Recording into a pre-registered counter/gauge/histogram and recording
//! a span into a warmed flight recorder must not allocate: a serving hot
//! path records per request, and a single allocation there would show up
//! at city scale.

use safeloc_telemetry::{FlightRecorder, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `Some(n)` while a measuring window is armed on this thread. Counting
    // per thread keeps sibling tests, which run concurrently on their own
    // threads, out of the figure.
    static WINDOW: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = WINDOW.try_with(|w| {
        if let Some(n) = w.get() {
            w.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. Counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on the calling thread. Spawning a thread
/// allocates its handle and closure on the spawning thread, so a step that
/// fans out to worker threads is counted as well
/// (`spawning_a_thread_in_the_window_is_counted`).
fn allocations_in(f: impl FnOnce()) -> usize {
    WINDOW.with(|w| w.set(Some(0)));
    f();
    WINDOW.with(|w| w.replace(None)).unwrap_or(0)
}

/// The window must see a thread spawned inside it: otherwise a step that
/// moved its work onto worker threads would pass `allocations_in(..) == 0`
/// while allocating there.
#[test]
fn spawning_a_thread_in_the_window_is_counted() {
    let spawned = allocations_in(|| {
        std::thread::scope(|s| {
            s.spawn(|| {});
        })
    });
    assert!(spawned > 0, "a thread spawn went uncounted");
}

#[test]
fn record_hot_path_is_allocation_free() {
    // Registration allocates (names, label vectors, the atomics) — that
    // happens once, at construction time, and is not the hot path.
    let registry = Registry::new();
    let counter = registry.counter("hot_requests_total", &[("building", "0")]);
    let gauge = registry.gauge("hot_queue_depth", &[]);
    let histogram = registry.histogram("hot_latency_ns", &[]);
    let recorder = FlightRecorder::new(64);

    // Warm every path once: lazy thread-id assignment, first bucket
    // touch, ring growth up to length.
    for i in 0..80u64 {
        counter.inc();
        gauge.set(i as i64);
        gauge.add(-1);
        histogram.record(i * 1_000);
        histogram.record_f64(i as f64 * 0.5);
        drop(recorder.span("warm", "alloc"));
    }

    let allocated = allocations_in(|| {
        for i in 0..10_000u64 {
            counter.inc();
            counter.add(3);
            gauge.set(i as i64);
            gauge.add(1);
            histogram.record(i);
            histogram.record_f64(i as f64);
            drop(recorder.span("hot", "alloc"));
        }
    });
    assert_eq!(
        allocated, 0,
        "recording into pre-registered metrics must not allocate"
    );
}

#[test]
fn registered_handle_lookup_does_not_allocate_on_rerecord() {
    let registry = Registry::new();
    let h = registry.histogram("reused", &[]);
    h.record(1);
    let allocated = allocations_in(|| {
        for v in 0..1_000 {
            h.record(v);
        }
    });
    assert_eq!(allocated, 0);
}
