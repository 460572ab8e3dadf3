//! Regeneration of the paper's small-scale figures (Figs. 1b–13, Table 3).
//!
//! Each function prints the same rows/series the paper reports and writes
//! a CSV under `results/`. Absolute values depend on the synthetic
//! calibration; the *shapes* (who wins, by what factor, where the
//! crossovers fall) are the reproduction targets recorded in
//! `EXPERIMENTS.md`.

use fq_circuit::build_qaoa_circuit;
use fq_cutqc::plan_cut;
use fq_graphs::airports::default_airport_network;
use fq_graphs::{gen, powerlaw};
use fq_ising::solve::exact_solve;
use fq_ising::IsingModel;
use fq_optim::grid_scan_2d;
use fq_sim::analytic::term_expectations_p1;
use fq_sim::noisy_expectation_lightcone;
use fq_transpile::{compile, CompileOptions, Device, Topology};
use frozenqubits::{
    metrics::approximation_ratio, partition_problem, select_hotspots, FrozenQubitsConfig,
    HotspotStrategy,
};

use crate::{
    ba_instance, baseline_summary, fmt, frozen_summary, gmean, regular3_instance, sk_instance,
    write_csv, ARG_SIZES, SEEDS_PER_SIZE,
};

/// Fig. 1(b): degree statistics of the (synthetic) airport network.
pub fn fig01b_powerlaw() {
    println!("== Fig 1(b): airport-network degree distribution ==");
    let g = default_airport_network(7).expect("default parameters are valid");
    let stats = powerlaw::degree_stats(&g);
    println!(
        "airports {}  mean degree {:.2}  max {}  hub/avg {:.1}x  alpha {:.2}  gini {:.2}",
        g.num_nodes(),
        stats.mean,
        stats.max,
        stats.hotspot_ratio,
        stats.alpha_mle.unwrap_or(f64::NAN),
        stats.gini
    );
    let hist = powerlaw::degree_histogram(&g);
    let rows: Vec<Vec<String>> = hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(d, &c)| vec![d.to_string(), c.to_string()])
        .collect();
    write_csv("fig01b_degree_histogram.csv", "degree,count", &rows);
}

/// Fig. 3: pre- vs post-compilation CNOT counts for fully-connected QAOA
/// graphs on a grid architecture.
pub fn fig03_swap_overhead(sizes: &[usize]) {
    println!("== Fig 3: SWAP blow-up on fully-connected graphs (grid) ==");
    println!(
        "{:>4} | {:>10} | {:>10} | {:>6}",
        "N", "pre-CX", "post-CX", "ratio"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let model = sk_instance(n, 1);
        let qc = build_qaoa_circuit(&model, 1).expect("p=1");
        let side = (n as f64).sqrt().ceil() as usize;
        let topo = Topology::grid(side, side).expect("valid grid");
        let device = Device::ideal("grid", topo);
        let compiled = compile(&qc, &device, CompileOptions::level3()).expect("compiles");
        let pre = qc.cnot_count();
        let post = compiled.stats.cnot_count;
        println!(
            "{n:>4} | {pre:>10} | {post:>10} | {:>6.2}",
            post as f64 / pre as f64
        );
        rows.push(vec![n.to_string(), pre.to_string(), post.to_string()]);
    }
    write_csv("fig03_swap_overhead.csv", "n,pre_cx,post_cx", &rows);
}

/// Fig. 6: statistics of the five benchmark graph families.
pub fn fig06_graph_families() {
    println!("== Fig 6: benchmark graph families (n = 16) ==");
    let samples: Vec<(&str, fq_graphs::Graph)> = vec![
        (
            "3-regular",
            gen::random_regular(16, 3, 0).expect("feasible"),
        ),
        ("SK", gen::complete(16)),
        ("BA d=1", gen::barabasi_albert(16, 1, 0).expect("feasible")),
        ("BA d=2", gen::barabasi_albert(16, 2, 0).expect("feasible")),
        ("BA d=3", gen::barabasi_albert(16, 3, 0).expect("feasible")),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<10} | {:>6} | {:>9} | {:>8} | {:>5}",
        "family", "edges", "max deg", "mean", "gini"
    );
    for (name, g) in samples {
        let s = powerlaw::degree_stats(&g);
        println!(
            "{name:<10} | {:>6} | {:>9} | {:>8.2} | {:>5.2}",
            g.num_edges(),
            s.max,
            s.mean,
            s.gini
        );
        rows.push(vec![
            name.into(),
            g.num_edges().to_string(),
            s.max.to_string(),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.gini),
        ]);
    }
    write_csv(
        "fig06_families.csv",
        "family,edges,max_degree,mean_degree,gini",
        &rows,
    );
}

/// One ARG/metrics sweep: baseline vs FQ(m=1) vs FQ(m=2) over sizes, with
/// `SEEDS_PER_SIZE` instances per size.
fn arg_sweep(
    title: &str,
    csv: &str,
    sizes: &[usize],
    device: &Device,
    make: impl Fn(usize, u64) -> IsingModel,
) {
    println!("== {title} (device {}) ==", device.name());
    println!(
        "{:>4} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>7} {:>7}",
        "N", "ARG base", "ARG m=1", "ARG m=2", "CX base", "CX m=1", "CX m=2", "imp m=1", "imp m=2"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let mut acc = [Vec::new(), Vec::new(), Vec::new()];
        let mut cx = [Vec::new(), Vec::new(), Vec::new()];
        let mut depth = [Vec::new(), Vec::new(), Vec::new()];
        for seed in 0..SEEDS_PER_SIZE {
            let model = make(n, seed.wrapping_mul(7919).wrapping_add(n as u64));
            let cfg = FrozenQubitsConfig::default();
            let base = baseline_summary(&model, device, &cfg);
            acc[0].push(base.arg.max(1e-6));
            cx[0].push(base.metrics.compiled_cnots as f64);
            depth[0].push(base.metrics.depth as f64);
            for m in 1..=2usize {
                if m >= n {
                    continue;
                }
                let cfg = FrozenQubitsConfig::with_frozen(m);
                let (s, _) = frozen_summary(&model, device, &cfg);
                acc[m].push(s.arg.max(1e-6));
                cx[m].push(s.metrics.compiled_cnots as f64);
                depth[m].push(s.metrics.depth as f64);
            }
        }
        let mean = |v: &Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let (a0, a1, a2) = (mean(&acc[0]), mean(&acc[1]), mean(&acc[2]));
        let (c0, c1, c2) = (mean(&cx[0]), mean(&cx[1]), mean(&cx[2]));
        let (d0, d1, d2) = (mean(&depth[0]), mean(&depth[1]), mean(&depth[2]));
        println!(
            "{n:>4} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>7} {:>7}",
            fmt(a0),
            fmt(a1),
            fmt(a2),
            fmt(c0),
            fmt(c1),
            fmt(c2),
            fmt(a0 / a1),
            fmt(a0 / a2)
        );
        rows.push(vec![
            n.to_string(),
            format!("{a0:.4}"),
            format!("{a1:.4}"),
            format!("{a2:.4}"),
            format!("{c0:.1}"),
            format!("{c1:.1}"),
            format!("{c2:.1}"),
            format!("{d0:.1}"),
            format!("{d1:.1}"),
            format!("{d2:.1}"),
        ]);
    }
    write_csv(
        csv,
        "n,arg_base,arg_m1,arg_m2,cx_base,cx_m1,cx_m2,depth_base,depth_m1,depth_m2",
        &rows,
    );
}

/// Fig. 7: CNOT counts and depth, baseline vs FQ(m=1,2), BA d=1 on
/// IBM-Montreal (the data is shared with Fig. 8's CSV).
pub fn fig07_cnot_depth() {
    arg_sweep(
        "Fig 7+8: BA d=1 CNOT/depth/ARG",
        "fig07_08_ba1.csv",
        &ARG_SIZES,
        &Device::ibm_montreal(),
        |n, seed| ba_instance(n, 1, seed),
    );
}

/// Fig. 9: fidelity-vs-cost trade-off, m = 1..10 on 24-qubit BA graphs.
pub fn fig09_tradeoff() {
    println!("== Fig 9: quantum cost vs relative ARG / features (N = 24) ==");
    let device = Device::ibm_montreal();
    let mut rows = Vec::new();
    for d in 1..=3usize {
        let model = ba_instance(24, d, 9);
        let cfg = FrozenQubitsConfig::default();
        let base = baseline_summary(&model, &device, &cfg);
        println!(
            "d_BA = {d}: baseline ARG {:.2}, CX {}",
            base.arg, base.metrics.compiled_cnots
        );
        println!(
            "{:>3} | {:>5} | {:>8} | {:>7} | {:>9}",
            "m", "cost", "rel ARG", "rel CX", "rel depth"
        );
        for m in 1..=10usize {
            let cfg = FrozenQubitsConfig::with_frozen(m);
            let (s, _) = frozen_summary(&model, &device, &cfg);
            let rel_arg = s.arg / base.arg;
            let rel_cx = s.metrics.compiled_cnots as f64 / base.metrics.compiled_cnots as f64;
            let rel_depth = s.metrics.depth as f64 / base.metrics.depth as f64;
            println!(
                "{m:>3} | {:>4}x | {rel_arg:>8.3} | {rel_cx:>7.3} | {rel_depth:>9.3}",
                s.circuits_executed * 2
            );
            rows.push(vec![
                d.to_string(),
                m.to_string(),
                (s.circuits_executed * 2).to_string(),
                format!("{rel_arg:.4}"),
                format!("{rel_cx:.4}"),
                format!("{rel_depth:.4}"),
            ]);
        }
    }
    write_csv(
        "fig09_tradeoff.csv",
        "d_ba,m,quantum_cost,rel_arg,rel_cx,rel_depth",
        &rows,
    );
}

/// Fig. 10: ARG on dense BA graphs (d = 2, 3).
pub fn fig10_arg_dense() {
    for d in [2usize, 3] {
        arg_sweep(
            &format!("Fig 10: BA d={d} ARG"),
            &format!("fig10_ba{d}.csv"),
            &ARG_SIZES,
            &Device::ibm_montreal(),
            move |n, seed| {
                let n = n.max(d + 1);
                ba_instance(n, d, seed)
            },
        );
    }
}

/// Fig. 11: ARG on 3-regular and SK graphs.
pub fn fig11_arg_regular() {
    arg_sweep(
        "Fig 11(a): 3-regular ARG",
        "fig11_regular3.csv",
        &ARG_SIZES,
        &Device::ibm_montreal(),
        |n, seed| regular3_instance(n.max(4), seed),
    );
    arg_sweep(
        "Fig 11(b): SK-model ARG",
        "fig11_sk.csv",
        &[4, 6, 8, 10, 12],
        &Device::ibm_montreal(),
        sk_instance,
    );
}

/// Fig. 12: the 50×50 `(γ, β)` AR landscape for baseline/FQ(1)/FQ(2) on a
/// 20-qubit BA graph (IBM-Auckland).
pub fn fig12_landscape() {
    println!("== Fig 12: optimization landscape sharpness (20-qubit BA, Auckland) ==");
    let device = Device::ibm_auckland();
    let parent = ba_instance(20, 1, 12);
    let schemes: Vec<(String, IsingModel)> = {
        let mut v = vec![("baseline".to_string(), parent.clone())];
        for m in 1..=2usize {
            let hotspots =
                select_hotspots(&parent, m, &HotspotStrategy::MaxDegree).expect("valid m");
            let plan = partition_problem(&parent, &hotspots, true).expect("valid plan");
            v.push((format!("fq_m{m}"), plan.executed[0].problem.model().clone()));
        }
        v
    };
    let mut rows = Vec::new();
    for (name, model) in schemes {
        let c_min = exact_solve(&model).expect("small model").energy;
        let qc = build_qaoa_circuit(&model, 1).expect("p=1");
        let compiled = compile(&qc, &device, CompileOptions::level3()).expect("compiles");
        let scan = grid_scan_2d(
            |g, b| {
                let (z, zz) = term_expectations_p1(&model, g, b).expect("valid model");
                let ev = noisy_expectation_lightcone(&model, &z, &zz, &compiled, &device)
                    .expect("valid terms");
                -approximation_ratio(ev, c_min)
            },
            (-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2),
            (-std::f64::consts::FRAC_PI_4, std::f64::consts::FRAC_PI_4),
            50,
        );
        println!(
            "{name:<9} best AR {:>6.3}  contrast {:>6.3}",
            -scan.best_value(),
            scan.contrast()
        );
        rows.push(vec![
            name.clone(),
            format!("{:.5}", -scan.best_value()),
            format!("{:.5}", scan.contrast()),
        ]);
        let grid_rows: Vec<Vec<String>> = scan
            .gammas
            .iter()
            .enumerate()
            .flat_map(|(i, &g)| {
                let scan = &scan;
                scan.betas.iter().enumerate().map(move |(j, &b)| {
                    vec![
                        format!("{g:.5}"),
                        format!("{b:.5}"),
                        format!("{:.6}", -scan.values[i][j]),
                    ]
                })
            })
            .collect();
        write_csv(
            &format!("fig12_landscape_{name}.csv"),
            "gamma,beta,ar",
            &grid_rows,
        );
    }
    write_csv("fig12_summary.csv", "scheme,best_ar,contrast", &rows);
}

/// Fig. 13: ARG improvement per machine, with the GMEAN bar.
pub fn fig13_machines() {
    println!("== Fig 13: ARG improvement across the 8 IBMQ machines ==");
    let sizes = [8usize, 12, 16, 20];
    let mut rows = Vec::new();
    let mut gmeans = (Vec::new(), Vec::new());
    println!("{:<16} | {:>8} | {:>8}", "machine", "FQ(m=1)", "FQ(m=2)");
    for device in Device::all_ibm_machines() {
        let mut imp = (Vec::new(), Vec::new());
        for &n in &sizes {
            for seed in 0..SEEDS_PER_SIZE {
                let model = ba_instance(n, 1, seed.wrapping_mul(131).wrapping_add(n as u64));
                let cfg = FrozenQubitsConfig::default();
                let base = baseline_summary(&model, &device, &cfg);
                for (k, m) in [1usize, 2].into_iter().enumerate() {
                    let cfg = FrozenQubitsConfig::with_frozen(m);
                    let (s, _) = frozen_summary(&model, &device, &cfg);
                    let factor = (base.arg.max(1e-6)) / (s.arg.max(1e-6));
                    if k == 0 {
                        imp.0.push(factor);
                    } else {
                        imp.1.push(factor);
                    }
                }
            }
        }
        let (g1, g2) = (gmean(&imp.0), gmean(&imp.1));
        println!("{:<16} | {:>8.2} | {:>8.2}", device.name(), g1, g2);
        rows.push(vec![
            device.name().to_string(),
            format!("{g1:.4}"),
            format!("{g2:.4}"),
        ]);
        gmeans.0.push(g1);
        gmeans.1.push(g2);
    }
    let (t1, t2) = (gmean(&gmeans.0), gmean(&gmeans.1));
    println!("{:<16} | {:>8.2} | {:>8.2}", "GMEAN", t1, t2);
    rows.push(vec!["GMEAN".into(), format!("{t1:.4}"), format!("{t2:.4}")]);
    write_csv(
        "fig13_machines.csv",
        "machine,improvement_m1,improvement_m2",
        &rows,
    );
}

/// Table 3: FrozenQubits vs CutQC overheads on representative instances.
pub fn table3_cutqc() {
    println!("== Table 3: FrozenQubits vs CutQC ==");
    println!(
        "{:>4} | {:>6} | {:>12} | {:>12} | {:>10} | {:>12}",
        "N", "cuts", "cutqc circs", "cutqc pp", "fq circs", "fq pp"
    );
    let mut rows = Vec::new();
    for &n in &[12usize, 16, 20, 24] {
        let model = ba_instance(n, 1, 3);
        let plan = plan_cut(&model, n / 2).expect("feasible cut");
        let cost = plan.cost();
        let hotspots = select_hotspots(&model, 2, &HotspotStrategy::MaxDegree).expect("m=2");
        let fq = partition_problem(&model, &hotspots, true).expect("valid plan");
        // FrozenQubits post-processing: a linear merge of the sub-problem
        // optima (§3.6) — polynomial, shown as outcome count.
        let fq_pp = fq.total_subspaces();
        println!(
            "{n:>4} | {:>6} | {:>12.0} | 4^{:<9} | {:>10} | {:>12}",
            cost.num_cuts,
            cost.quantum_circuit_count,
            cost.num_cuts,
            fq.quantum_cost(),
            fq_pp
        );
        rows.push(vec![
            n.to_string(),
            cost.num_cuts.to_string(),
            format!("{:.0}", cost.quantum_circuit_count),
            format!("{:.1}", cost.postprocessing_terms_log2),
            fq.quantum_cost().to_string(),
            fq_pp.to_string(),
        ]);
    }
    write_csv(
        "table3_cutqc.csv",
        "n,cuts,cutqc_circuits,cutqc_pp_log2,fq_circuits,fq_pp_outcomes",
        &rows,
    );
}
