//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics and how to read the traced run.

pub mod check;
pub mod expected;
pub mod jobs;
pub mod layers;
pub mod pin;
pub mod serveload;
pub mod simload;
pub mod stats;
pub mod traced;
pub mod window;

use expected::{digest, WorkCounts};
use smtsim_core::cache::fnv64;
use smtsim_core::{SimError, SimResult, Simulator, SweepJob, ToJson};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(i)` for `0..n` on `workers` threads that claim indices in
/// order from a shared counter, as `run_sweep` does. Returns the
/// outputs in index order and the wall time.
pub fn pool<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> (Vec<T>, f64) {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let start = stats::now();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("slot lock is never poisoned") = Some(out);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let outs = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every index was claimed")
        })
        .collect();
    (outs, wall)
}

/// Run a job through `Simulator::step/snapshot` in `chunk`-cycle
/// steps, as the `run-8w3-mflush` progress loop does. Returns the final
/// result, the DRAM round trips and the folded digest of every
/// snapshot taken after a step.
fn run_polled(job: &SweepJob, chunk: u64) -> Result<(SimResult, u64, String), SimError> {
    let mut sim = Simulator::build(&job.config)?;
    let mut digests = String::new();
    while sim.now() < job.config.cycles {
        sim.step(chunk.min(job.config.cycles - sim.now()))?;
        digests.push_str(&digest(&sim.snapshot().to_json()));
    }
    let folded = format!("{:016x}", fnv64(digests.as_bytes()));
    Ok((sim.snapshot(), sim.mem().dram_round_trips(), folded))
}

/// The committed-values file for `seed`: a digest of every simulation
/// job's result JSON and every work count, per workload. Computed
/// without timing anything.
pub fn expected_text(seed: u64) -> Result<String, String> {
    let mut out = String::from(
        "# Deterministic outputs of every benchmark job at seed 0.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --bless\n",
    );
    for w in jobs::WORKLOADS {
        let mut counts = WorkCounts::default();
        for job in jobs::simulation_jobs(w, seed) {
            // Only the progress loop steps in chunks; every other job
            // runs in one step, as `Simulator::run` does.
            let chunk = if w == jobs::RUN_8W3 {
                jobs::RUN_CHUNK
            } else {
                job.config.cycles
            };
            let (result, dram, folded) =
                run_polled(&job, chunk).map_err(|e| format!("{}: {e}", job.label))?;
            if w != jobs::SERVE_MIXED {
                out.push_str(&format!(
                    "digest\t{w}\t{}\t{}\n",
                    job.label,
                    digest(&result.to_json())
                ));
            }
            if w == jobs::RUN_8W3 {
                out.push_str(&format!("digest\t{w}\t{}\t{folded}\n", simload::POLLS_KEY));
            }
            counts.add(&result, dram);
        }
        if w == jobs::SERVE_MIXED {
            for (key, d) in serveload::digests(seed) {
                out.push_str(&format!("digest\t{w}\t{key}\t{d}\n"));
            }
        }
        for (name, value, _) in counts.rows() {
            out.push_str(&format!("count\t{w}\t{name}\t{value}\n"));
        }
    }
    Ok(out)
}
