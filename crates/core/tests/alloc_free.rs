//! The fused network's workspace training path carries the same headline
//! guarantee as `safeloc-nn`'s: after one warmup step, a full joint
//! (CE + MSE) forward+backward+optimizer step performs **zero heap
//! allocations** — and computes exactly what the allocating path computes.

use safeloc::{FusedConfig, FusedNetwork, FusedWorkspace};
use safeloc_nn::{Adam, HasParams, Matrix, MseLoss, Optimizer, SparseCrossEntropyLoss};
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

/// The paper's fused geometry for Building 1 (203 APs, 60 RPs).
fn paper_network(seed: u64) -> FusedNetwork {
    FusedNetwork::new(&FusedConfig::paper(203, 60, seed))
}

fn paper_batch(net: &FusedNetwork, batch: usize) -> (Matrix, Vec<usize>) {
    let x = Matrix::from_fn(batch, net.input_dim(), |r, c| {
        ((r * 31 + c * 7) % 100) as f32 / 100.0
    });
    let labels: Vec<usize> = (0..batch).map(|r| r % net.n_classes()).collect();
    (x, labels)
}

#[test]
fn fused_step_is_allocation_free_after_warmup() {
    let mut net = paper_network(7);
    let (x, labels) = paper_batch(&net, 32);
    let mut opt = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();

    // Warmup: shapes the trace/gradient buffers and the Adam moments.
    for _ in 0..2 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, true, 1.0, &mut ws);
    }

    let allocated = allocations_in(|| {
        for _ in 0..5 {
            net.train_batch_weighted_with(&x, &labels, &mut opt, true, 1.0, &mut ws);
        }
    });
    assert_eq!(
        allocated, 0,
        "warm fused training step allocated {} times",
        allocated
    );
}

#[test]
fn fused_step_is_allocation_free_in_joint_decoder_mode_too() {
    // detach_decoder = false exercises the extra bottleneck-combination
    // branch and the decoder's layer-0 input gradient.
    let mut net = paper_network(9);
    let (x, labels) = paper_batch(&net, 16);
    let mut opt = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();
    for _ in 0..2 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, false, 0.5, &mut ws);
    }
    let allocated = allocations_in(|| {
        for _ in 0..5 {
            net.train_batch_weighted_with(&x, &labels, &mut opt, false, 0.5, &mut ws);
        }
    });
    assert_eq!(
        allocated, 0,
        "warm joint-decoder step allocated {} times",
        allocated
    );
}

/// The workspace path must compute exactly the same update as the
/// allocating forward/backward path — buffer reuse is an optimization,
/// not a semantics change.
#[test]
fn fused_workspace_path_matches_allocating_path_bitwise() {
    let mut a = FusedNetwork::new(&FusedConfig {
        input_dim: 20,
        encoder_dims: vec![16, 8],
        decoder_hidden: vec![16],
        n_classes: 5,
        seed: 11,
    });
    let mut b = a.clone();
    let (x, labels) = paper_batch(&a, 8);

    let mut opt_a = Adam::new(1e-3);
    let mut opt_b = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();

    for detach in [true, false] {
        for _ in 0..3 {
            // Allocating reference: the pre-workspace step, spelled out.
            let trace = a.forward_trace(&x);
            let ce_a = SparseCrossEntropyLoss.loss(&trace.logits, &labels);
            let mse_a = MseLoss.loss(&trace.recon, &x);
            let d_logits = SparseCrossEntropyLoss.grad(&trace.logits, &labels);
            let d_recon = MseLoss.grad(&trace.recon, &x).scale(0.7);
            let grads = a
                .backward(&trace, Some(&d_logits), Some(&d_recon), detach)
                .into_flat();
            opt_a.step(a.param_tensors_mut(), &grads);

            let (ce_b, mse_b) =
                b.train_batch_weighted_with(&x, &labels, &mut opt_b, detach, 0.7, &mut ws);
            assert_eq!(ce_a, ce_b, "CE diverged (detach={detach})");
            assert_eq!(mse_a, mse_b, "MSE diverged (detach={detach})");
        }
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "weights diverged (detach={detach})"
        );
    }
}
