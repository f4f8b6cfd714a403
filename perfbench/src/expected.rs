//! Deterministic outputs: result digests and per-layer work counts,
//! and the values committed for the default seed.
//!
//! Simulated results repeat exactly for a given seed on every host, so
//! a digest of each job's `SimResult` JSON and a handful of counts read
//! from it pin the simulated work byte for byte. The committed values
//! live in `expected/seed0.tsv` (`--bless` rewrites it); `--check-counts`
//! compares against them without timing anything.

use smtsim_core::cache::fnv64;
use smtsim_core::SimResult;
use smtsim_energy::EnergyAccount;
use std::collections::BTreeMap;

/// The seed the committed values belong to.
pub const DEFAULT_SEED: u64 = 0;

/// The committed file, compiled in so the check needs no working
/// directory.
const COMMITTED: &str = include_str!("../expected/seed0.tsv");

/// Path of the committed file in the source tree (for `--bless`).
pub fn committed_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed0.tsv")
}

/// The 16-hex-digit FNV-1a digest of a result's JSON.
pub fn digest(json: &str) -> String {
    format!("{:016x}", fnv64(json.as_bytes()))
}

/// Committed digests (`workload`, `key`) → digest and counts
/// (`workload`, `name`) → value, for [`DEFAULT_SEED`].
#[derive(Debug, Default)]
pub struct Committed {
    /// Result digests by workload and job key.
    pub digests: BTreeMap<(String, String), String>,
    /// Work counts by workload and metric name, as written.
    pub counts: BTreeMap<(String, String), String>,
}

impl Committed {
    /// Parse the compiled-in file.
    pub fn load() -> Committed {
        Committed::parse(COMMITTED)
    }

    /// Parse `digest\t<workload>\t<key>\t<hex>` and
    /// `count\t<workload>\t<name>\t<value>` lines.
    pub fn parse(text: &str) -> Committed {
        let mut c = Committed::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["digest", w, k, v] => {
                    c.digests
                        .insert((w.to_string(), k.to_string()), v.to_string());
                }
                ["count", w, k, v] => {
                    c.counts
                        .insert((w.to_string(), k.to_string()), v.to_string());
                }
                _ => {}
            }
        }
        c
    }

    /// The committed digest for a job, when `seed` is the default seed
    /// and one was committed.
    pub fn digest_for(&self, seed: u64, workload: &str, key: &str) -> Option<&str> {
        if seed != DEFAULT_SEED {
            return None;
        }
        self.digests
            .get(&(workload.to_string(), key.to_string()))
            .map(String::as_str)
    }
}

/// Deterministic work counts summed over a workload's simulation jobs.
#[derive(Debug, Default, Clone)]
pub struct WorkCounts {
    committed: u64,
    fetched: u64,
    flushes: u64,
    iq_full_stalls: u64,
    rob_full_stalls: u64,
    energy: EnergyAccount,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    l2_hit_cycles: u64,
    l2_hit_samples: u64,
    dram_round_trips: u64,
    mshr_full_stalls: u64,
}

impl WorkCounts {
    /// Add one job's result. `dram_round_trips` comes from the memory
    /// model (it is not part of `SimResult`).
    pub fn add(&mut self, r: &SimResult, dram_round_trips: u64) {
        for c in &r.cores {
            for t in &c.threads {
                self.fetched += t.fetched;
            }
            self.iq_full_stalls += c.iq_full_stalls;
            self.rob_full_stalls += c.rob_full_stalls;
        }
        self.committed += r.total_committed();
        self.flushes += r.total_flushes();
        self.energy.merge(&r.energy());
        let m = &r.mem;
        self.l1d_accesses += m.total(|c| c.loads + c.stores);
        self.l1d_misses += m.total(|c| c.load_l1_misses + c.store_l1_misses);
        self.l2_hits += m.total(|c| c.l2_hits);
        self.l2_misses += m.total(|c| c.l2_misses);
        self.mshr_full_stalls += m.total(|c| c.mshr_full_stalls);
        self.l2_hit_cycles += r.l2_hit_hist.sum();
        self.l2_hit_samples += r.l2_hit_hist.count();
        self.dram_round_trips += dram_round_trips;
    }

    /// Committed instructions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// `(name, value, unit)` for every count, in report order. Ratios
    /// are derived from exact integers, so they repeat exactly too.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let l2 = self.l2_hits + self.l2_misses;
        vec![
            ("cpu.committed", self.committed as f64, "count"),
            ("cpu.fetched", self.fetched as f64, "count"),
            (
                "cpu.commit_ratio",
                ratio(self.committed, self.fetched),
                "ratio",
            ),
            ("cpu.flushes", self.flushes as f64, "count"),
            ("cpu.iq_full_stalls", self.iq_full_stalls as f64, "count"),
            ("cpu.rob_full_stalls", self.rob_full_stalls as f64, "count"),
            (
                "energy.flush_squashed",
                self.energy.flush_squashed_total() as f64,
                "count",
            ),
            ("energy.waste_ratio", self.energy.waste_ratio(), "ratio"),
            ("mem.l1d_accesses", self.l1d_accesses as f64, "count"),
            ("mem.l1d_misses", self.l1d_misses as f64, "count"),
            ("mem.l2_accesses", l2 as f64, "count"),
            ("mem.l2_hit_rate", ratio(self.l2_hits, l2), "ratio"),
            (
                "mem.l2_hit_mean_cycles",
                ratio(self.l2_hit_cycles, self.l2_hit_samples),
                "cycles",
            ),
            (
                "mem.dram_round_trips",
                self.dram_round_trips as f64,
                "count",
            ),
            (
                "mem.mshr_full_stalls",
                self.mshr_full_stalls as f64,
                "count",
            ),
        ]
    }
}
