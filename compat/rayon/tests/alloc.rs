//! Allocation accounting for the lazy iterators. Lives in its own test
//! binary so the counting allocator sees no other test's allocations.

use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn zip_for_each_allocates_per_thread_not_per_element() {
    let n = 1 << 20;
    let b = vec![1.5f64; n];
    let mut a = vec![0.0f64; n];
    // Warm up: the first parallel call starts the pool.
    a.par_iter_mut()
        .zip(b.par_iter())
        .for_each(|(x, &y)| *x = y);
    let before = BYTES.load(Ordering::Relaxed);
    a.par_iter_mut()
        .zip(b.par_iter())
        .for_each(|(x, &y)| *x = 2.0 * y);
    let used = BYTES.load(Ordering::Relaxed) - before;
    assert!(a.iter().all(|&x| x == 3.0));
    let budget = 1024 * rayon::current_num_threads();
    assert!(
        used <= budget,
        "{used} bytes allocated over {n} elements (budget {budget})"
    );
}
