//! Regression guard: a steady-state contact-detection step performs zero
//! heap allocations. The old per-step `HashMap<(i64, i64), Vec<u32>>` grid
//! allocated a bucket for every cell newly entered; the flat counting-sort
//! grid must not. A counting global allocator makes the assertion exact —
//! this file holds exactly one test so nothing else allocates concurrently.

use dtn_mobility::contacts::{ContactGenConfig, ContactStepper};
use dtn_mobility::geometry::Point;
use dtn_mobility::trajectory::Trajectory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_allocates_nothing() {
    // A contact process with churn: A parked at the origin in permanent
    // contact with C, while B oscillates in and out of range on a fixed
    // bounding box (so the grid dimensions never change mid-measurement).
    let a = Trajectory::stationary(Point::new(0.0, 0.0));
    let c = Trajectory::stationary(Point::new(5.0, 0.0));
    let mut pts = vec![(0.0, Point::new(50.0, 0.0))];
    let mut t = 0.0;
    for _ in 0..50 {
        t += 10.0;
        pts.push((t, Point::new(0.0, 0.0)));
        t += 10.0;
        pts.push((t, Point::new(50.0, 0.0)));
    }
    let b = Trajectory::new(pts);
    let trajs = [a, b, c];

    let mut stepper = ContactStepper::new(&trajs, t, ContactGenConfig::default());
    let mut downs = Vec::with_capacity(16);
    let mut ups = Vec::with_capacity(16);

    // Warm up across a full oscillation cycle (20 s = 100 steps at dt 0.2)
    // so every buffer, the open-contact map, and the grid reach their
    // steady-state footprint, including at least one contact up and down.
    for _ in 0..120 {
        downs.clear();
        ups.clear();
        stepper.step(&trajs, &mut downs, &mut ups).unwrap();
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..300 {
        downs.clear();
        ups.clear();
        stepper.step(&trajs, &mut downs, &mut ups).unwrap();
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state contact steps must not allocate"
    );
}
