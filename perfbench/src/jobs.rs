//! The benchmark's workloads and the simulation jobs each one runs,
//! all derived from the workload seed.

use smtsim_core::{SimConfig, SweepJob, Workload};
use smtsim_policy::PolicyKind;

/// One long detailed run of 8W3 under MFLUSH.
pub const RUN_8W3: &str = "run-8w3-mflush";
/// `run_sweep` over the Fig. 8 policy set on the five 2-thread
/// workloads.
pub const SWEEP_2W: &str = "sweep-2w-fig8";
/// A closed loop of two clients against the HTTP service.
pub const SERVE_MIXED: &str = "serve-mixed";

/// Every workload, in report order.
pub const WORKLOADS: [&str; 3] = [RUN_8W3, SWEEP_2W, SERVE_MIXED];

/// Simulated cycles of one `run-8w3-mflush` job.
pub const RUN_CYCLES: u64 = 400_000;
/// Cycles per `step` call in the `run-8w3-mflush` progress loop.
pub const RUN_CHUNK: u64 = 500;
/// Simulated cycles of each `sweep-2w-fig8` job.
pub const SWEEP_CYCLES: u64 = 12_000;
/// Workers of the `sweep-2w-fig8` pool (the host has two CPUs).
pub const SWEEP_WORKERS: usize = 2;
/// Simulated cycles of every configuration `serve-mixed` requests.
pub const SERVE_CYCLES: u64 = 10_000;

/// The five 2-thread workloads.
const TWO_THREAD: [&str; 5] = ["2W1", "2W2", "2W3", "2W4", "2W5"];

/// The simulator seed for a workload seed. Seed 0 maps to the CLI
/// default (`0x5eed`), so its results match `smtsim run --json`. The
/// stride keeps the per-thread seeds (`seed + i * 7919`) of different
/// workload seeds apart.
pub fn sim_seed(seed: u64) -> u64 {
    0x5eed + seed * 104_729
}

fn paper_config(workload: &str, policy: PolicyKind, cycles: u64, seed: u64) -> SimConfig {
    let w = Workload::by_name(workload).expect("benchmark workloads are paper workloads");
    SimConfig::for_workload(w, policy)
        .with_cycles(cycles)
        .with_seed(seed)
}

/// The `run-8w3-mflush` job.
pub fn run_job(seed: u64) -> SweepJob {
    SweepJob::new(
        "8W3/MFLUSH",
        paper_config("8W3", PolicyKind::Mflush, RUN_CYCLES, sim_seed(seed)),
    )
}

/// The 20 `sweep-2w-fig8` jobs: every 2-thread workload under every
/// Fig. 8 policy.
pub fn sweep_jobs(seed: u64) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for w in TWO_THREAD {
        for p in PolicyKind::fig8_set() {
            jobs.push(SweepJob::new(
                format!("{w}/{}", p.label()),
                paper_config(w, p, SWEEP_CYCLES, sim_seed(seed)),
            ));
        }
    }
    jobs
}

/// Deterministic 64-bit mixer (splitmix64's finaliser).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed ^ 0x5e47_e5ed))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which family a `serve-mixed` configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServeKey {
    /// One of the repeat set that pre-fills the journal (answers are
    /// cache hits).
    Repeat(u64),
    /// A config sent once by one client (a miss: simulate + append).
    Cold(u64),
    /// A config both clients send at once (one miss, one coalesced).
    Coalesced(u64),
}

/// Size of the repeat set.
pub const REPEAT_SET: u64 = 48;

/// Workloads the repeat set draws from: every machine size, so cached
/// answers span the body sizes the service returns.
const REPEAT_WORKLOADS: [&str; 8] = ["2W1", "2W3", "2W5", "4W1", "4W3", "4W5", "6W2", "8W3"];

const POLICY_NAMES: [&str; 4] = ["icount", "flush-s30", "flush-s100", "mflush"];

/// Workload of every cold and coalesced config: one 2-thread
/// workload, so every cold request costs about the same and the cold
/// latency percentiles do not depend on which configs a run drew.
const COLD_WORKLOAD: &str = "2W5";

/// The `POST /run` body for one configuration.
pub fn serve_body(seed: u64, key: ServeKey) -> String {
    let (family, index) = match key {
        ServeKey::Repeat(i) => (1u64, i),
        ServeKey::Cold(i) => (2, i),
        ServeKey::Coalesced(i) => (3, i),
    };
    let h = mix(mix(seed) ^ (family << 56) ^ index);
    let workload = match key {
        ServeKey::Repeat(_) => REPEAT_WORKLOADS[(h % REPEAT_WORKLOADS.len() as u64) as usize],
        _ => COLD_WORKLOAD,
    };
    let policy = POLICY_NAMES[((h >> 16) % POLICY_NAMES.len() as u64) as usize];
    // Distinct families and indices get distinct simulator seeds, so
    // every cold config has its own fingerprint.
    let sim = sim_seed(seed) + family * 10_000_000 + index;
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\"cycles\":{SERVE_CYCLES},\"seed\":{sim}}}"
    )
}

/// The configs the `serve-mixed` traced run simulates: the first cold
/// configs of the schedule's family.
const SERVE_TRACED_JOBS: u64 = 16;

/// The simulation jobs of a workload that the traced run, the work
/// counts and the committed digests cover.
pub fn simulation_jobs(workload: &str, seed: u64) -> Vec<SweepJob> {
    match workload {
        RUN_8W3 => vec![run_job(seed)],
        SWEEP_2W => sweep_jobs(seed),
        SERVE_MIXED => (0..SERVE_TRACED_JOBS)
            .map(|i| {
                let body = serve_body(seed, ServeKey::Cold(i));
                let (cfg, _) = smtsim_serve::request::parse_sim_request(&body)
                    .expect("generated serve bodies are valid");
                SweepJob::new(format!("cold/{i}"), cfg)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Worker threads the workload's simulation runs on.
pub fn workers(workload: &str) -> usize {
    match workload {
        RUN_8W3 => 1,
        _ => SWEEP_WORKERS,
    }
}
