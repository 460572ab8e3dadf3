//! Regenerates every table and figure of the paper in sequence, writing
//! CSVs to `results/`. The practical-scale problem size can be reduced for
//! smoke runs via `FQ_SCALE_N` (default 500).
#![forbid(unsafe_code)]

fn main() {
    use fq_bench::{figures, scale};
    figures::fig01b_powerlaw();
    figures::fig03_swap_overhead(&[10, 25, 50, 75, 100, 150, 200]);
    figures::fig06_graph_families();
    figures::fig07_cnot_depth(); // also covers Fig 8
    figures::fig09_tradeoff();
    figures::fig10_arg_dense();
    figures::fig11_arg_regular();
    figures::fig12_landscape();
    figures::fig13_machines();
    scale::fig14_cnot_breakdown();
    scale::fig15_16_scale();
    scale::fig17_compile_time();
    scale::fig18_runtime();
    figures::table3_cutqc();
    println!("\nall figures regenerated; CSVs in results/");
}
