//! Ablation: how much of the baseline's CNOT overhead is SWAP routing, and
//! how much does the noise-adaptive layout matter? Compares trivial vs
//! noise-adaptive layout, with and without the cleanup passes.

#![forbid(unsafe_code)]

use fq_bench::{ba_instance, write_csv, ARG_SIZES};
use fq_circuit::build_qaoa_circuit;
use fq_transpile::{compile, CompileOptions, Device, LayoutStrategy};

fn main() {
    println!("== Ablation: layout strategy and cleanup passes (IBM-Montreal) ==");
    let device = Device::ibm_montreal();
    let variants: [(&str, CompileOptions); 4] = [
        (
            "trivial",
            CompileOptions {
                layout: LayoutStrategy::Trivial,
                optimize: false,
            },
        ),
        (
            "trivial+opt",
            CompileOptions {
                layout: LayoutStrategy::Trivial,
                optimize: true,
            },
        ),
        (
            "adaptive",
            CompileOptions {
                layout: LayoutStrategy::NoiseAdaptive,
                optimize: false,
            },
        ),
        ("adaptive+opt", CompileOptions::level3()),
    ];
    println!(
        "{:>4} | {:>9} | {:>10} {:>12} {:>10} {:>13}",
        "N", "pre-CX", "trivial", "trivial+opt", "adaptive", "adaptive+opt"
    );
    let mut rows = Vec::new();
    for &n in &ARG_SIZES {
        let model = ba_instance(n, 1, n as u64);
        let qc = build_qaoa_circuit(&model, 1).expect("p=1");
        let pre = qc.cnot_count();
        let mut cx = Vec::new();
        for (_, opts) in &variants {
            let compiled = compile(&qc, &device, *opts).expect("compiles");
            cx.push(compiled.stats.cnot_count);
        }
        println!(
            "{n:>4} | {pre:>9} | {:>10} {:>12} {:>10} {:>13}",
            cx[0], cx[1], cx[2], cx[3]
        );
        let mut row = vec![n.to_string(), pre.to_string()];
        row.extend(cx.iter().map(ToString::to_string));
        rows.push(row);
    }
    write_csv(
        "ablation_router.csv",
        "n,pre_cx,trivial,trivial_opt,adaptive,adaptive_opt",
        &rows,
    );
    println!("(noise-adaptive layout should cut SWAP overhead vs trivial placement)");
}
