//! Seeded input generation. Every job a workload sends is a pure
//! function of `(--seed, stream, index)`: the same seed gives
//! byte-identical inputs, another seed gives other pipeline seeds and,
//! on `cluster-cold`, other problem instances.

use fq_suite::Suite;
use frozenqubits::api::{DeviceSpec, GraphWeighting, JobBuilder, JobSpec, ProblemSpec};
use frozenqubits::QosTier;

/// The 12 scenarios of the `core` corpus, pinned here so that later
/// edits to `suites/core.json` cannot change the benchmark's workload.
pub const CORE_SUITE: &str = include_str!("../data/core.json");

/// Jobs per `sweep-exact` batch.
pub const BATCH: usize = 96;

/// Distinct pipeline seeds `shard-fast` cycles through.
pub const SHARD_FAST_SPECS: usize = 64;

/// Independent index spaces carved out of one `--seed`.
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
pub enum Stream {
    /// `sweep-exact` timed batches.
    Sweep = 1,
    /// `sweep-exact` warm-up batches.
    SweepWarmup = 2,
    /// `shard-fast` pipeline seeds.
    ShardFast = 3,
    /// `cluster-cold` timed instances.
    Cold = 4,
    /// `cluster-cold` warm-up instances.
    ColdWarmup = 5,
    /// Which jobs a traced run peels.
    PeelSample = 6,
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator over one `(seed, stream, index)`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for item `index` of `stream` under `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: Stream, index: u64) -> Rng {
        Rng(mix64(mix64(seed ^ mix64(stream as u64)) ^ index))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is below 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A pipeline or generator seed: small enough for every wire form.
    pub fn seed(&mut self) -> u64 {
        self.below(1_000_000_000)
    }
}

/// The pinned `core` scenarios as exact-tier job specs, in corpus order.
///
/// # Panics
///
/// If the pinned corpus does not parse — it is compiled into the binary,
/// so that is a build defect.
#[must_use]
pub fn core_scenarios() -> Vec<JobSpec> {
    let suite = Suite::parse(CORE_SUITE).expect("the pinned core suite parses");
    suite
        .scenarios
        .iter()
        .map(|scenario| {
            let mut spec = scenario.to_spec().expect("every core scenario builds");
            spec.config.tier = QosTier::Exact;
            spec
        })
        .collect()
}

/// One `sweep-exact` batch: the scenarios cycled to [`BATCH`] jobs, each
/// with its own pipeline seed.
#[must_use]
pub fn sweep_batch(scenarios: &[JobSpec], seed: u64, stream: Stream, batch: u64) -> Vec<JobSpec> {
    (0..BATCH)
        .map(|slot| {
            let mut rng = Rng::new(seed, stream, batch * BATCH as u64 + slot as u64);
            let mut spec = scenarios[slot % scenarios.len()].clone();
            spec.config.seed = rng.seed();
            spec
        })
        .collect()
}

/// The `shard-fast` jobs: fast-tier `compare` on BA(n=12, d=1, seed=7)
/// on `ibmq_montreal` with two frozen qubits (the README's example
/// problem), one per pipeline seed.
///
/// # Panics
///
/// Never for this fixed, valid recipe.
#[must_use]
pub fn shard_fast_specs(seed: u64) -> Vec<JobSpec> {
    (0..SHARD_FAST_SPECS as u64)
        .map(|index| {
            JobBuilder::new()
                .barabasi_albert(12, 1, 7)
                .device(DeviceSpec::IbmMontreal)
                .num_frozen(2)
                .seed(Rng::new(seed, Stream::ShardFast, index).seed())
                .tier(QosTier::Fast)
                .compare()
                .build()
                .expect("the shard-fast recipe is valid")
        })
        .collect()
}

/// The 27-qubit IBM presets `cluster-cold` spreads its instances over.
pub const COLD_DEVICES: [DeviceSpec; 6] = [
    DeviceSpec::IbmMontreal,
    DeviceSpec::IbmToronto,
    DeviceSpec::IbmMumbai,
    DeviceSpec::IbmAuckland,
    DeviceSpec::IbmHanoi,
    DeviceSpec::IbmCairo,
];

/// Graph families of the cold instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Barabási–Albert with attachment degree 1.
    Ba1,
    /// Barabási–Albert with attachment degree 2.
    Ba2,
    /// Random 3-regular.
    Regular3,
}

/// One `cluster-cold` problem instance: a graph nobody has compiled yet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdInstance {
    /// Graph family.
    pub family: Family,
    /// Node count: 12..=27 (even, up to 26, for 3-regular graphs).
    pub n: usize,
    /// Frozen qubits, 1 or 2.
    pub m: usize,
    /// Target device.
    pub device: DeviceSpec,
    /// Graph and weighting seed.
    pub graph_seed: u64,
    /// Pipeline seed.
    pub pipeline_seed: u64,
}

impl ColdInstance {
    /// Instance `index` of `stream` under `seed`.
    #[must_use]
    pub fn generate(seed: u64, stream: Stream, index: u64) -> ColdInstance {
        let mut rng = Rng::new(seed, stream, index);
        let family = match rng.below(3) {
            0 => Family::Ba1,
            1 => Family::Ba2,
            _ => Family::Regular3,
        };
        let n = match family {
            Family::Regular3 => 12 + 2 * rng.below(8) as usize,
            Family::Ba1 | Family::Ba2 => 12 + rng.below(16) as usize,
        };
        ColdInstance {
            family,
            n,
            m: 1 + rng.below(2) as usize,
            device: COLD_DEVICES[rng.below(COLD_DEVICES.len() as u64) as usize],
            graph_seed: rng.seed(),
            pipeline_seed: rng.seed(),
        }
    }

    /// A readable identity: family, size, frozen count, device and seed.
    #[must_use]
    pub fn id(&self) -> String {
        let family = match self.family {
            Family::Ba1 => "ba-d1",
            Family::Ba2 => "ba-d2",
            Family::Regular3 => "regular3",
        };
        format!(
            "{family}-n{}-m{}-{}-g{}",
            self.n,
            self.m,
            self.device.name(),
            self.graph_seed
        )
    }

    /// The fast-tier `frozen` job for this instance. Every family
    /// travels as a graph recipe: BA as `(n, d, seed)`, 3-regular as its
    /// edge list with ±1 weights drawn from the same seed.
    ///
    /// # Panics
    ///
    /// Never: every generated family/size pair is feasible.
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        let problem = match self.family {
            Family::Ba1 | Family::Ba2 => ProblemSpec::BarabasiAlbert {
                n: self.n,
                d: if self.family == Family::Ba1 { 1 } else { 2 },
                seed: self.graph_seed,
            },
            Family::Regular3 => ProblemSpec::Graph {
                num_nodes: self.n,
                edges: fq_graphs::gen::random_regular(self.n, 3, self.graph_seed)
                    .expect("even n ≥ 12 admits a 3-regular graph")
                    .edges()
                    .to_vec(),
                weighting: GraphWeighting::Pm1 {
                    seed: self.graph_seed,
                },
            },
        };
        JobBuilder::new()
            .problem(problem)
            .device(self.device)
            .num_frozen(self.m)
            .seed(self.pipeline_seed)
            .tier(QosTier::Fast)
            .frozen()
            .build()
            .expect("cold instances are valid jobs")
    }

    /// The same job with its problem materialized as an explicit Ising
    /// model — the form the scenario corpus sends for 3-regular graphs.
    ///
    /// # Panics
    ///
    /// Never: [`ColdInstance::spec`] problems always resolve.
    #[must_use]
    pub fn explicit_spec(&self) -> JobSpec {
        let mut spec = self.spec();
        spec.problem = ProblemSpec::Ising(spec.problem.resolve().expect("cold problems resolve"));
        spec
    }
}

/// `count` distinct indices out of `0..len`, chosen by `seed` — the
/// seeded sample a traced run peels.
#[must_use]
pub fn sample_indices(seed: u64, len: usize, count: usize) -> Vec<usize> {
    let mut order: Vec<(u64, usize)> = (0..len)
        .map(|i| (Rng::new(seed, Stream::PeelSample, i as u64).next_u64(), i))
        .collect();
    order.sort_unstable();
    let mut picked: Vec<usize> = order.into_iter().take(count).map(|(_, i)| i).collect();
    picked.sort_unstable();
    picked
}
