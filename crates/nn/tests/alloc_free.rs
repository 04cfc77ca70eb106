//! Verifies the workspace training path's headline guarantee: after one
//! warmup step, a full `Sequential` forward+backward+optimizer step
//! performs **zero heap allocations**.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the workspace and optimizer, then counts the allocations the test's own
//! thread makes during more steps and asserts there were none.

use safeloc_nn::{Activation, Adam, Matrix, Sequential, Sgd, Workspace};
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

fn paper_batch(model: &Sequential, batch: usize) -> (Matrix, Vec<usize>) {
    let x = Matrix::from_fn(batch, model.in_dim(), |r, c| {
        ((r * 31 + c * 7) % 100) as f32 / 100.0
    });
    let labels: Vec<usize> = (0..batch).map(|r| r % model.out_dim()).collect();
    (x, labels)
}

#[test]
fn classifier_step_is_allocation_free_after_warmup() {
    // The paper's global-model geometry (203→128→89→62→60).
    let mut model = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 7);
    let (x, labels) = paper_batch(&model, 32);
    let mut opt = Adam::new(1e-3);
    let mut ws = Workspace::new();

    // Warmup: shapes the workspace buffers and the Adam moment vectors.
    for _ in 0..2 {
        model.train_batch_with(&x, &labels, &mut opt, &mut ws);
    }

    let allocated = allocations_in(|| {
        for _ in 0..5 {
            model.train_batch_with(&x, &labels, &mut opt, &mut ws);
        }
    });
    assert_eq!(
        allocated, 0,
        "warm training step allocated {} times",
        allocated
    );
}

#[test]
fn autoencoder_step_is_allocation_free_after_warmup() {
    let mut model = Sequential::mlp(&[60, 20, 60], Activation::Sigmoid, 3);
    let x = Matrix::from_fn(16, 60, |r, c| ((r + c) % 10) as f32 / 10.0);
    let mut opt = Sgd::new(1e-2);
    let mut ws = Workspace::new();

    for _ in 0..2 {
        model.train_batch_autoencoder_with(&x, &mut opt, &mut ws);
    }

    let allocated = allocations_in(|| {
        for _ in 0..5 {
            model.train_batch_autoencoder_with(&x, &mut opt, &mut ws);
        }
    });
    assert_eq!(
        allocated, 0,
        "warm autoencoder step allocated {} times",
        allocated
    );
}

/// The workspace path must compute exactly the same update as the
/// allocating path — buffer reuse is an optimization, not a semantics
/// change.
#[test]
fn workspace_path_matches_allocating_path_bitwise() {
    let mut a = Sequential::mlp(&[20, 16, 8], Activation::Relu, 11);
    let mut b = a.clone();
    let (x, labels) = paper_batch(&a, 8);

    let mut opt_a = Adam::new(1e-3);
    let mut opt_b = Adam::new(1e-3);
    let mut ws = Workspace::new();

    use safeloc_nn::HasParams;
    for _ in 0..4 {
        let la = a.train_batch(&x, &labels, &mut opt_a);
        let lb = b.train_batch_with(&x, &labels, &mut opt_b, &mut ws);
        assert_eq!(la, lb, "losses diverged");
    }
    assert_eq!(a.snapshot(), b.snapshot(), "weights diverged");
}
