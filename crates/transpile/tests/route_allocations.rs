//! The router's allocation budget: a SWAP step allocates nothing, so
//! routing a circuit that needs about 100 SWAPs costs the same handful
//! of heap allocations as one that needs about 5. A per-candidate or
//! per-step buffer would add hundreds.
//!
//! A counting global allocator; the count is per thread, so the test
//! harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fq_circuit::{build_qaoa_circuit, QuantumCircuit};
use fq_ising::IsingModel;
use fq_transpile::{choose_layout, route, Device, LayoutStrategy};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made by one `route` call,
/// and the SWAPs it inserted.
fn route_allocations(qc: &QuantumCircuit, device: &Device) -> (usize, usize) {
    let layout = choose_layout(qc, device, LayoutStrategy::NoiseAdaptive).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let routed = route(qc, device.topology(), &layout).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, routed.swap_count)
}

/// Upper bound on one route's allocations, whatever its SWAP count: the
/// per-route buffers plus the logarithmic growth of the output circuit.
const BUDGET: usize = 40;

#[test]
fn routing_allocates_the_same_small_amount_whatever_the_swap_count() {
    let device = Device::ibm_montreal();

    // A star on nine qubits: a few SWAPs around the hub.
    let mut star = IsingModel::new(9);
    for i in 1..9 {
        star.set_coupling(0, i, 1.0).unwrap();
    }
    let mut few = build_qaoa_circuit(&star, 1).unwrap();
    few.measure_all();

    // All-to-all on 14 qubits: about a hundred SWAPs.
    let mut dense = IsingModel::new(14);
    for i in 0..14 {
        for j in (i + 1)..14 {
            dense.set_coupling(i, j, 1.0).unwrap();
        }
    }
    let mut many = build_qaoa_circuit(&dense, 1).unwrap();
    many.measure_all();

    let (few_allocations, few_swaps) = route_allocations(&few, &device);
    let (many_allocations, many_swaps) = route_allocations(&many, &device);
    println!(
        "{few_swaps} SWAPs: {few_allocations} allocations; \
         {many_swaps} SWAPs: {many_allocations} allocations"
    );
    assert!((3..=12).contains(&few_swaps), "{few_swaps} SWAPs");
    assert!(many_swaps >= 100, "{many_swaps} SWAPs");
    assert!(
        few_allocations <= BUDGET && many_allocations <= BUDGET,
        "{few_allocations} and {many_allocations} allocations, budget {BUDGET}"
    );
}
