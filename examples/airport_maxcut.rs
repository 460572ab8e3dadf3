//! Max-Cut on an airport-style hub network — the motivating workload of
//! Fig. 1(b): hub airports are hotspots, and freezing them is cheap in
//! state space but huge in CNOT count.
//!
//! The slice is an explicit Ising model on a real device model, so it
//! runs as a `Job::from_parts` sampling job (the wire-form
//! `JobBuilder` route is shown in `quickstart.rs`).
//!
//! ```text
//! cargo run --release --example airport_maxcut
//! ```

use fq_graphs::powerlaw;
use fq_ising::maxcut::cut_value;
use fq_ising::solve::exact_solve;
use fq_suite::models;
use fq_transpile::Device;
use frozenqubits::{FqError, FrozenQubitsConfig, Job, JobKind};

fn main() -> Result<(), FqError> {
    // 1. The full 1300-airport network reproduces the Fig. 1(b) statistics.
    // Model construction lives in `fq_suite::models` — the same source
    // the scenario corpus (`suites/core.json`) builds from.
    let network = models::airport_network(1300, 26.49, 7)?;
    let stats = powerlaw::degree_stats(&network);
    println!(
        "airport network: {} nodes, mean degree {:.2}, hub/average ratio {:.1}x, gini {:.2}",
        network.num_nodes(),
        stats.mean,
        stats.hotspot_ratio,
        stats.gini
    );

    // 2. Max-Cut on the 12 busiest airports (a NISQ-sized slice).
    let (model, edges) = models::airport_maxcut(1300, 26.49, 7, 12)?;
    let exact = exact_solve(&model)?;
    let total_weight: f64 = edges.iter().map(|e| e.2).sum();
    println!(
        "\nslice: {} edges; exact optimum energy {} (cut {})",
        edges.len(),
        exact.energy,
        fq_ising::maxcut::cut_from_energy(total_weight, exact.energy)
    );

    // 3. Solve with FrozenQubits sampling on the simulated IBM-Auckland.
    let device = Device::ibm_auckland();
    for m in [0usize, 1, 2] {
        let cfg = FrozenQubitsConfig::with_frozen(m);
        let out = Job::from_parts(&model, &device, &cfg, JobKind::Sample { shots: 4096 })
            .run()?
            .into_sample()?;
        let cut = cut_value(&edges, &out.best)?;
        println!(
            "m = {m}: best energy {:>6.1} (cut {:>4.1}) frozen {:?} — optimum found: {}",
            out.energy,
            cut,
            out.frozen_qubits,
            (out.energy - exact.energy).abs() < 1e-9,
        );
    }
    Ok(())
}
