//! Ablation: is it really the *hotspot* choice that saves CNOTs, or would
//! freezing any qubit do? Compares the MaxDegree policy (the paper's)
//! against MaxAbsCoupling and Random over the BA(d=1) suite.

#![forbid(unsafe_code)]

use fq_bench::{ba_instance, fmt, frozen_summary, write_csv, ARG_SIZES};
use fq_transpile::{compile_invocations, Device};
use frozenqubits::{FrozenQubitsConfig, HotspotStrategy};

fn main() {
    println!("== Ablation: hotspot-selection policy (FQ m=1, IBM-Montreal) ==");
    let device = Device::ibm_montreal();
    let compiles_before = compile_invocations();
    let mut runs = 0u64;
    type Policy = (&'static str, fn(u64) -> HotspotStrategy);
    let policies: [Policy; 3] = [
        ("max-degree", |_| HotspotStrategy::MaxDegree),
        ("max-|J|", |_| HotspotStrategy::MaxAbsCoupling),
        ("random", HotspotStrategy::Random),
    ];
    println!(
        "{:>4} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "N", "ARG maxdeg", "ARG max|J|", "ARG random", "CX maxdeg", "CX max|J|", "CX random"
    );
    let mut rows = Vec::new();
    for &n in &ARG_SIZES {
        let mut arg = [0.0f64; 3];
        let mut cx = [0.0f64; 3];
        let seeds = 3u64;
        for seed in 0..seeds {
            let model = ba_instance(n, 1, seed.wrapping_mul(41).wrapping_add(n as u64));
            for (k, (_, make)) in policies.iter().enumerate() {
                let cfg = FrozenQubitsConfig {
                    hotspots: make(seed),
                    ..FrozenQubitsConfig::default()
                };
                let (s, _) = frozen_summary(&model, &device, &cfg);
                runs += 1;
                arg[k] += s.arg / seeds as f64;
                cx[k] += s.metrics.compiled_cnots as f64 / seeds as f64;
            }
        }
        println!(
            "{n:>4} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
            fmt(arg[0]),
            fmt(arg[1]),
            fmt(arg[2]),
            fmt(cx[0]),
            fmt(cx[1]),
            fmt(cx[2])
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.4}", arg[0]),
            format!("{:.4}", arg[1]),
            format!("{:.4}", arg[2]),
            format!("{:.1}", cx[0]),
            format!("{:.1}", cx[1]),
            format!("{:.1}", cx[2]),
        ]);
    }
    write_csv(
        "ablation_hotspot.csv",
        "n,arg_maxdeg,arg_maxabsj,arg_random,cx_maxdeg,cx_maxabsj,cx_random",
        &rows,
    );
    println!("(max-degree should dominate random, especially at larger N)");
    println!(
        "plan/execute amortization: {runs} runs used {} compiles (one template each)",
        compile_invocations() - compiles_before
    );
}
