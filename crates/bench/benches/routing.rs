//! Benches of the transpiler: layout + SABRE routing on heavy-hex and
//! grid devices (the cost FrozenQubits amortizes via templates).

use std::hint::black_box;

use fq_bench::harness::bench;
use fq_circuit::{build_qaoa_circuit, QuantumCircuit};
use fq_graphs::{gen, to_ising_pm1};
use fq_ising::Spin;
use fq_transpile::{compile, CompileOptions, Device};
use frozenqubits::{select_hotspots, HotspotStrategy};

fn main() {
    println!("== transpile micro-benches ==");

    let small = to_ising_pm1(&gen::barabasi_albert(16, 1, 1).unwrap(), 1);
    let small_qc = build_qaoa_circuit(&small, 1).unwrap();
    let falcon = Device::ibm_montreal();
    bench("compile_ba16_falcon27", 2, 50, || {
        compile(black_box(&small_qc), &falcon, CompileOptions::level3()).unwrap()
    });

    let dense = to_ising_pm1(&gen::complete(12), 2);
    let dense_qc = build_qaoa_circuit(&dense, 1).unwrap();
    bench("compile_sk12_falcon27", 2, 50, || {
        compile(black_box(&dense_qc), &falcon, CompileOptions::level3()).unwrap()
    });

    let big = to_ising_pm1(&gen::barabasi_albert(200, 1, 1).unwrap(), 1);
    let big_qc = build_qaoa_circuit(&big, 1).unwrap();
    let grid = Device::grid_2500();
    bench("compile_ba200_grid2500", 1, 5, || {
        compile(black_box(&big_qc), &grid, CompileOptions::level3()).unwrap()
    });

    // The never-seen-job path: one template per instance, in the
    // `cluster-cold` shape mix. A compile that fails (the router's rare
    // `RoutingStuck`) stays in the mix and is counted, not skipped.
    let falcons = [
        Device::ibm_montreal(),
        Device::ibm_toronto(),
        Device::ibm_mumbai(),
        Device::ibm_auckland(),
        Device::ibm_hanoi(),
        Device::ibm_cairo(),
    ];
    let mix: Vec<(QuantumCircuit, &Device)> = (0..64).map(|i| cold_template(i, &falcons)).collect();
    let failed = mix
        .iter()
        .filter(|(qc, dev)| compile(qc, dev, CompileOptions::level3()).is_err())
        .count();
    println!("cold mix: {} templates, {failed} fail to route", mix.len());
    bench("compile_cold_mix_falcon27", 1, 10, || {
        mix.iter()
            .map(|(qc, dev)| compile(black_box(qc), dev, CompileOptions::level3()).is_ok())
            .filter(|&ok| ok)
            .count()
    });
}

/// The template circuit of cold instance `index`: BA d = 1, BA d = 2 or
/// 3-regular, n in 12..=27 (even for 3-regular), 1 or 2 hotspots frozen,
/// on one of the six Falcon presets — the shape mix of perfbench's
/// `cluster-cold` workload.
fn cold_template(index: u64, falcons: &[Device]) -> (QuantumCircuit, &Device) {
    let mut state = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    let mut next = |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let family = next(3);
    let seed = next(1 << 31);
    let graph = match family {
        0 | 1 => gen::barabasi_albert(12 + next(16) as usize, family as usize + 1, seed),
        _ => gen::random_regular(12 + 2 * next(8) as usize, 3, seed),
    }
    .expect("every generated family/size pair is feasible");
    let model = to_ising_pm1(&graph, seed);
    let m = 1 + next(2) as usize;
    let device = &falcons[next(falcons.len() as u64) as usize];
    let hotspots = select_hotspots(&model, m, &HotspotStrategy::MaxDegree).unwrap();
    let assignment: Vec<(usize, Spin)> = hotspots.iter().map(|&q| (q, Spin::UP)).collect();
    let frozen = model.freeze(&assignment).unwrap();
    (build_qaoa_circuit(frozen.model(), 1).unwrap(), device)
}
