//! Regenerates Fig. 3; see `fq_bench::figures::fig03_swap_overhead`.
//!
//! Pass sizes as arguments to override the default sweep, e.g.
//! `cargo run --release -p fq-bench --bin fig03_swap_overhead -- 10 50 100 200`.
#![forbid(unsafe_code)]

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes = if sizes.is_empty() {
        vec![10, 25, 50, 75, 100, 150, 200]
    } else {
        sizes
    };
    fq_bench::figures::fig03_swap_overhead(&sizes);
}
