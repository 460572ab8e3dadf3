//! Integration tests of the extension features: QASM export of compiled
//! circuits, and multi-layer QAOA through freezing.

use fq_circuit::{build_qaoa_circuit, to_qasm};
use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_transpile::{compile, CompileOptions, Device};
use frozenqubits::{FrozenQubitsConfig, Job, JobKind};

fn ba(n: usize, seed: u64) -> IsingModel {
    to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
}

#[test]
fn compiled_circuits_export_to_qasm() {
    let model = ba(8, 1);
    let qc = build_qaoa_circuit(&model, 1)
        .unwrap()
        .bind(&[0.4], &[0.8])
        .unwrap();
    let compiled = compile(&qc, &Device::ibm_montreal(), CompileOptions::level3()).unwrap();
    let qasm = to_qasm(&compiled.circuit).unwrap();
    assert!(qasm.starts_with("OPENQASM 2.0;"));
    assert!(qasm.contains("qreg q[27];"), "physical register width");
    assert!(qasm.contains("creg c[8];"), "one clbit per logical qubit");
    // Every CX the stats counted appears in the program (SWAPs stay swap).
    let cx_lines = qasm.lines().filter(|l| l.starts_with("cx ")).count();
    let swap_lines = qasm.lines().filter(|l| l.starts_with("swap ")).count();
    assert_eq!(cx_lines + 3 * swap_lines, compiled.stats.cnot_count);
}

#[test]
fn multilayer_qaoa_composes_with_freezing() {
    let model = ba(10, 7);
    let device = Device::ibm_montreal();
    let cfg = FrozenQubitsConfig {
        layers: 2,
        ..FrozenQubitsConfig::default()
    };
    let (s, hotspots) = Job::from_parts(&model, &device, &cfg, JobKind::Frozen)
        .run()
        .unwrap()
        .into_frozen()
        .unwrap();
    assert_eq!(hotspots.len(), 1);
    assert!(s.arg.is_finite());
    // Two layers double the per-edge CNOT count of the sub-circuit.
    assert!(s.metrics.logical_cnots >= 2 * (model.num_couplings() - model.degrees()[hotspots[0]]));
}
