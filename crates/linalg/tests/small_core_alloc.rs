//! `blocked`'s small-product core allocates nothing. A counting global
//! allocator sees every heap allocation of this test binary, so it runs in
//! a binary of its own; the count is per thread, so the harness's other
//! threads do not disturb it.

use st_linalg::{BlockedKernel, GemmBackend, PackedB};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn data(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i % 7) as f64 - 3.0).collect()
}

#[test]
fn small_products_make_no_heap_allocation() {
    // The fashion MLP's hidden layer at the trainer's minibatch: 32 rows,
    // 16 inputs, 32 outputs (`B` is 512 elements).
    let (m, k, n) = (32, 16, 32);
    let kernel = BlockedKernel;
    let a = data(m * k);
    let b = data(k * n);
    let bt = data(n * k);
    let c = data(m * n);
    let bias = data(n);
    let mut out = vec![0.0; m * n];
    let mut grad = vec![0.0; k * n];
    let mut pb = kernel.pack_b(k, n, &b);
    let pbt = kernel.pack_b_t(k, n, &bt);
    let allocated = allocations(|| {
        kernel.gemm(m, k, n, &a, &b, &mut out);
        kernel.gemm_nt(m, k, n, &a, &bt, &mut out);
        kernel.gemm_tn(m, k, n, &a, &c, &mut grad);
        kernel.gemm_prepacked(m, k, n, &a, &pb, &mut out);
        kernel.gemm_nt_prepacked(m, k, n, &a, &pbt, &mut out);
        kernel.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut out);
        kernel.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut out);
        // The trainer's per-step re-pack into a warm handle is a copy.
        kernel.pack_b_into(k, n, &c[..k * n], &mut pb);
    });
    assert_eq!(allocated, 0);
}

#[test]
fn the_packed_path_is_counted() {
    // Control: above the cutoff `gemm` packs `B` into a fresh buffer, so
    // the counter must see it.
    let (m, k, n) = (8, 64, 64);
    let (a, b) = (data(m * k), data(k * n));
    let mut out = vec![0.0; m * n];
    let mut pb = PackedB::default();
    assert!(allocations(|| BlockedKernel.gemm(m, k, n, &a, &b, &mut out)) > 0);
    assert!(allocations(|| BlockedKernel.pack_b_into(k, n, &b, &mut pb)) > 0);
}
