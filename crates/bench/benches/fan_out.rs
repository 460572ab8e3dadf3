//! Branch fan-out benchmark: the same [`ExecutionPlan`] run by the
//! simulator backend on one thread and on every core.
//!
//! Freezing `m` hotspots fans execution out into `2^{m−1}` independent
//! branches; this bench measures how much of that fan-out
//! `ExecutorKind::Parallel` turns into wall-clock speedup, and verifies
//! that the two schedules agree bit-for-bit while doing so.

use fq_bench::harness::{bench, fmt_time};
use fq_graphs::{gen, to_ising_pm1};
use fq_transpile::Device;
use frozenqubits::{plan_execution, BackendSpec, ExecutorKind, FrozenQubitsConfig};

fn main() {
    let model = to_ising_pm1(&gen::barabasi_albert(24, 1, 1).unwrap(), 1);
    let device = Device::ibm_montreal();
    let sequential = BackendSpec::Sim.build(ExecutorKind::Sequential);
    let parallel = BackendSpec::Sim.build(ExecutorKind::Parallel);
    println!("== branch fan-out: sequential vs parallel executor ==");
    println!(
        "cores available: {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for m in [2usize, 3, 4, 5] {
        let cfg = FrozenQubitsConfig::with_frozen(m);
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        let branches = plan.num_branches();

        let seq = sequential.run(&plan, &device, &cfg).unwrap();
        let par = parallel.run(&plan, &device, &cfg).unwrap();
        assert_eq!(seq, par, "schedules must agree bit-for-bit");

        let t_seq = bench(
            &format!("m={m} ({branches} branches) sequential"),
            1,
            5,
            || sequential.run(&plan, &device, &cfg).unwrap(),
        );
        let t_par = bench(
            &format!("m={m} ({branches} branches) parallel"),
            1,
            5,
            || parallel.run(&plan, &device, &cfg).unwrap(),
        );
        println!(
            "  -> speedup {:.2}x  (saved {} per run)\n",
            t_seq / t_par,
            fmt_time((t_seq - t_par).max(0.0))
        );
    }
}
