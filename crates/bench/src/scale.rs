//! Regeneration of the practical-scale figures (§6, Figs. 14–18): 500
//! qubits on the optimistic 50×50 grid device.

use std::time::Instant;

use fq_circuit::{build_qaoa_circuit, qaoa_cnot_count};
use fq_sim::log_eps;
use fq_transpile::{compile, compile_invocations, CompileOptions, Device};
use frozenqubits::runtime::{end_to_end_runtime_hours, ExecutionModel, RuntimeParams};
use frozenqubits::{
    partition_problem, plan_execution, select_hotspots, FrozenQubitsConfig, HotspotStrategy,
};

use crate::{ba_instance, write_csv};

/// Problem size of the practical-scale study; override with the
/// `FQ_SCALE_N` environment variable for quicker smoke runs.
#[must_use]
pub fn scale_n() -> usize {
    std::env::var("FQ_SCALE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
}

/// One point of the practical-scale sweep.
pub struct ScalePoint {
    /// Frozen qubit count.
    pub m: usize,
    /// Pre-compilation CNOTs of the representative sub-circuit.
    pub pre_cx: usize,
    /// Post-compilation CNOTs.
    pub post_cx: usize,
    /// Router-inserted SWAPs.
    pub swaps: usize,
    /// Circuit depth.
    pub depth: usize,
    /// Log-EPS on the grid device.
    pub log_eps: f64,
}

/// Compiles the representative sub-circuit for every `m` in `0..=max_m`
/// on the 50×50 grid (m = 0 is the baseline).
#[must_use]
pub fn scale_sweep(d_ba: usize, n: usize, max_m: usize) -> Vec<ScalePoint> {
    let model = ba_instance(n, d_ba, 1);
    let device = Device::grid_2500();
    let options = CompileOptions::level3();
    let mut out = Vec::new();
    for m in 0..=max_m {
        let sub_owned;
        let sub = if m == 0 {
            &model
        } else {
            let hotspots =
                select_hotspots(&model, m, &HotspotStrategy::MaxDegree).expect("valid m");
            let plan = partition_problem(&model, &hotspots, true).expect("valid plan");
            sub_owned = plan.executed[0].problem.model().clone();
            &sub_owned
        };
        let qc = build_qaoa_circuit(sub, 1).expect("p=1");
        let compiled = compile(&qc, &device, options).expect("compiles");
        out.push(ScalePoint {
            m,
            pre_cx: qaoa_cnot_count(sub, 1),
            post_cx: compiled.stats.cnot_count,
            swaps: compiled.swap_count,
            depth: compiled.stats.depth,
            log_eps: log_eps(&compiled, &device),
        });
    }
    out
}

/// Fig. 14: the CNOT-reduction breakdown (edge drops vs SWAP savings) on
/// BA d=1.
pub fn fig14_cnot_breakdown() {
    let n = scale_n();
    println!("== Fig 14: CNOT reduction breakdown (BA d=1, N = {n}, 50x50 grid) ==");
    let sweep = scale_sweep(1, n, 10);
    let base = &sweep[0];
    let base_swap_cx = base.post_cx - base.pre_cx;
    println!(
        "baseline: {} pre-CX + {} SWAP-CX = {} total",
        base.pre_cx, base_swap_cx, base.post_cx
    );
    println!(
        "{:>3} | {:>9} | {:>9} | {:>9} | {:>11}",
        "m", "edge-red", "swap-red", "total-red", "swap share"
    );
    let mut rows = Vec::new();
    for p in &sweep[1..] {
        let edge_red = base.pre_cx - p.pre_cx;
        let swap_cx = p.post_cx - p.pre_cx;
        let swap_red = base_swap_cx as i64 - swap_cx as i64;
        let total_red = base.post_cx as i64 - p.post_cx as i64;
        let share = if total_red > 0 {
            swap_red as f64 / total_red as f64
        } else {
            0.0
        };
        println!(
            "{:>3} | {:>9} | {:>9} | {:>9} | {:>10.1}%",
            p.m,
            edge_red,
            swap_red,
            total_red,
            100.0 * share
        );
        rows.push(vec![
            p.m.to_string(),
            edge_red.to_string(),
            swap_red.to_string(),
            total_red.to_string(),
            format!("{share:.4}"),
        ]);
    }
    write_csv(
        "fig14_cnot_breakdown.csv",
        "m,edge_reduction,swap_reduction,total_reduction,swap_share",
        &rows,
    );
}

/// Figs. 15 + 16: relative CNOTs, depth and EPS for d = 1, 2, 3.
pub fn fig15_16_scale() {
    let n = scale_n();
    println!("== Fig 15+16: relative CX / depth / EPS (N = {n}, 50x50 grid) ==");
    let mut rows = Vec::new();
    for d in 1..=3usize {
        let sweep = scale_sweep(d, n, 10);
        let base = &sweep[0];
        println!(
            "d_BA = {d}: baseline CX {}, depth {}, log10 EPS {:.1}",
            base.post_cx,
            base.depth,
            base.log_eps / std::f64::consts::LN_10
        );
        println!(
            "{:>3} | {:>8} | {:>9} | {:>12}",
            "m", "rel CX", "rel depth", "rel EPS(log10)"
        );
        for p in &sweep[1..] {
            let rel_cx = p.post_cx as f64 / base.post_cx as f64;
            let rel_depth = p.depth as f64 / base.depth as f64;
            let rel_eps_log10 = (p.log_eps - base.log_eps) / std::f64::consts::LN_10;
            println!(
                "{:>3} | {rel_cx:>8.3} | {rel_depth:>9.3} | {rel_eps_log10:>+12.2}",
                p.m
            );
            rows.push(vec![
                d.to_string(),
                p.m.to_string(),
                format!("{rel_cx:.4}"),
                format!("{rel_depth:.4}"),
                format!("{rel_eps_log10:.4}"),
            ]);
        }
    }
    write_csv(
        "fig15_16_scale.csv",
        "d_ba,m,rel_cx,rel_depth,rel_eps_log10",
        &rows,
    );
}

/// Fig. 17: planning cost (the one template compile) vs the baseline
/// compile, and template-editing time vs recompilation — measured through
/// the plan/execute API, with the transpiler's invocation counter proving
/// the `2^m → 1` compile amortization.
pub fn fig17_compile_time() {
    let n = scale_n().min(300); // keep the timing loop snappy
    println!("== Fig 17: plan (compile-once) vs per-branch edit time (BA d=1, N = {n}) ==");
    let model = ba_instance(n, 1, 1);
    let device = Device::grid_2500();
    let options = CompileOptions::level3();

    let t0 = Instant::now();
    let qc = build_qaoa_circuit(&model, 1).expect("p=1");
    let _baseline = compile(&qc, &device, options).expect("compiles");
    let t_base = t0.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    println!(
        "{:>3} | {:>8} | {:>9} | {:>12} | {:>13} | {:>10}",
        "m", "branches", "templates", "rel plan", "edit seq (s)", "edit/compile"
    );
    for m in 1..=10usize {
        let cfg = FrozenQubitsConfig::with_frozen(m);
        let compiles_before = compile_invocations();
        let t0 = Instant::now();
        let plan = plan_execution(&model, &device, &cfg).expect("plans");
        let t_plan = t0.elapsed().as_secs_f64();
        let compiles = compile_invocations() - compiles_before;
        assert_eq!(compiles, 1, "one compile per plan");

        // Editing time for the branch executables (measure a few, scale).
        let probe = plan.num_branches().clamp(1, 8);
        let t0 = Instant::now();
        for b in 0..probe {
            let _ = plan
                .template()
                .edit_for(plan.branch(b).problem.model())
                .expect("edits");
        }
        let t_edit_one = t0.elapsed().as_secs_f64() / probe as f64;
        let t_seq = t_edit_one * plan.num_branches() as f64;

        println!(
            "{m:>3} | {:>8} | {:>9} | {:>12.3} | {t_seq:>13.5} | {:>10.2e}",
            plan.num_branches(),
            compiles,
            t_plan / t_base,
            t_seq / t_plan
        );
        rows.push(vec![
            m.to_string(),
            plan.num_branches().to_string(),
            compiles.to_string(),
            format!("{:.5}", t_plan / t_base),
            format!("{t_seq:.6}"),
        ]);
    }
    write_csv(
        "fig17_compile_time.csv",
        "m,branches,templates,rel_plan_time,edit_sequential_s",
        &rows,
    );
}

/// Fig. 18: end-to-end runtime under the four execution models (Eq. 6).
pub fn fig18_runtime() {
    println!("== Fig 18: end-to-end runtime (hours) ==");
    let params = RuntimeParams::default();
    let schemes: [(&str, u64); 4] = [
        ("baseline", 1),
        ("FQ(m=1)", 1),
        ("FQ(m=2)", 2),
        ("FQ(m=10)", 512),
    ];
    println!(
        "{:<22} | {:>10} {:>10} {:>10} {:>10}",
        "execution model", schemes[0].0, schemes[1].0, schemes[2].0, schemes[3].0
    );
    let mut rows = Vec::new();
    for exec in ExecutionModel::all() {
        let hours: Vec<f64> = schemes
            .iter()
            .map(|&(_, c)| end_to_end_runtime_hours(c, &params, &exec))
            .collect();
        println!(
            "{:<22} | {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            exec.name, hours[0], hours[1], hours[2], hours[3]
        );
        let mut row = vec![exec.name.to_string()];
        row.extend(hours.iter().map(|h| format!("{h:.2}")));
        rows.push(row);
    }
    write_csv(
        "fig18_runtime.csv",
        "execution_model,baseline_h,fq_m1_h,fq_m2_h,fq_m10_h",
        &rows,
    );
}
