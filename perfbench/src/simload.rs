//! The two simulation workloads, driven through the library's public
//! entry points (`Simulator::build/step/snapshot` and `run_sweep`).
//!
//! Both report the serve-style request metrics in library terms. A
//! *cold* request makes the simulator simulate; a *hit* request is
//! answered from state already simulated:
//!
//! * `run-8w3-mflush` is a progress loop over one long run: a cold
//!   request is `step(RUN_CHUNK)`, a hit is `snapshot().to_json()`;
//! * `sweep-2w-fig8` is a figure script: a cold request is one
//!   `run_sweep` call over the 20 jobs, a hit renders one finished
//!   job's result as JSON.
//!
//! Set-up samples are taken between the timed windows, so they spread
//! over the run like the windows do.

use crate::check::Checker;
use crate::expected::digest;
use crate::jobs::{self, RUN_CHUNK, RUN_CYCLES, SWEEP_WORKERS};
use crate::pin::Cpus;
use crate::stats::{cpu_ticks, host_ref_s, now, stolen_share};
use crate::window::{Window, WINDOWS};
use smtsim_core::cache::fnv64;
use smtsim_core::{run_sweep, Simulator, SweepJob, ToJson};
use std::time::Duration;

/// Timed results of a simulation workload.
pub struct SimRun {
    /// Set-up samples (seconds).
    pub setup: Vec<f64>,
    /// The timed windows.
    pub windows: Vec<Window>,
    /// Host reference probe samples, one before each window and one
    /// after the last.
    pub refs: Vec<f64>,
}

/// Build plus prewarm (`step(0)`) for every job, summed.
fn setup_once(jobs: &[SweepJob], ck: &mut Checker) -> f64 {
    let mut total = 0.0;
    for job in jobs {
        let start = now();
        let ready = build_ready(job);
        total += start.elapsed().as_secs_f64();
        match ready {
            Ok(_) => ck.pass(),
            Err(e) => ck.fail(e),
        }
    }
    total
}

fn build_ready(job: &SweepJob) -> Result<Simulator, String> {
    let mut sim = Simulator::build(&job.config).map_err(|e| format!("{}: {e}", job.label))?;
    sim.step(0).map_err(|e| format!("{}: {e}", job.label))?;
    Ok(sim)
}

/// Key of the folded digest of every progress-loop snapshot.
pub const POLLS_KEY: &str = "8W3/MFLUSH/polls";

/// The `run-8w3-mflush` progress loop: one simulator at a time, each
/// run to `RUN_CYCLES`, then rebuilt. Every snapshot is checked
/// against the same poll of the first run, and each finished run's
/// result and snapshot sequence against the committed digests.
struct ProgressLoop {
    job: SweepJob,
    sim: Option<Simulator>,
    digests: Vec<String>,
    reference: Vec<String>,
    committed: u64,
}

impl ProgressLoop {
    /// One poll: a cold `step`, then a hit `snapshot().to_json()`. A
    /// new run is built untimed and prewarms in its first timed `step`,
    /// as on the usual build → step path.
    fn poll(&mut self, w: &mut Window, ck: &mut Checker) -> Result<(), String> {
        let mut sim = match self.sim.take() {
            Some(s) => s,
            None => Simulator::build(&self.job.config)
                .map_err(|e| format!("{}: {e}", self.job.label))?,
        };
        let t = now();
        let stepped = sim.step(RUN_CHUNK);
        let dt = t.elapsed().as_secs_f64();
        w.cold.push(dt);
        w.sim_s += dt;
        stepped.map_err(|e| format!("{}: step failed: {e}", self.job.label))?;
        ck.pass();

        let t = now();
        let snap = sim.snapshot();
        let json = snap.to_json();
        w.hit.push(t.elapsed().as_secs_f64());
        w.requests += 2;
        let committed = snap.total_committed();
        w.committed += committed - self.committed;
        self.committed = committed;

        let i = self.digests.len();
        let d = digest(&json);
        match self.reference.get(i) {
            Some(want) if *want != d => ck.fail(format!(
                "{}: snapshot {i} differs between runs",
                self.job.label
            )),
            _ => ck.pass(),
        }
        self.digests.push(d.clone());
        if sim.now() < RUN_CYCLES {
            self.sim = Some(sim);
            return Ok(());
        }
        // Finished: check the result and the snapshot sequence.
        let folded = format!("{:016x}", fnv64(self.digests.concat().as_bytes()));
        for (key, got) in [(self.job.label.as_str(), d), (POLLS_KEY, folded)] {
            if let Some(msg) = ck.mismatch_digest(key, &got) {
                ck.fail(msg);
            }
        }
        if self.reference.is_empty() {
            self.reference = std::mem::take(&mut self.digests);
        }
        self.digests.clear();
        self.committed = 0;
        Ok(())
    }
}

/// Run `timed(window, checker)` repeatedly for `WINDOWS` stretches of
/// `seconds / WINDOWS`, taking `setups` set-up samples before each.
fn windowed(
    seconds: f64,
    setups: usize,
    setup_jobs: &[SweepJob],
    ck: &mut Checker,
    mut timed: impl FnMut(&mut Window, &mut Checker) -> Result<(), String>,
) -> SimRun {
    let mut out = SimRun {
        setup: Vec::new(),
        windows: Vec::new(),
        refs: Vec::new(),
    };
    let span = Duration::from_secs_f64(seconds / WINDOWS as f64);
    for _ in 0..WINDOWS {
        out.refs.push(host_ref_s());
        for _ in 0..setups {
            out.setup.push(setup_once(setup_jobs, ck));
        }
        let mut w = Window::default();
        let ticks = cpu_ticks();
        let start = now();
        while start.elapsed() < span {
            if let Err(e) = timed(&mut w, ck) {
                ck.fail(e);
                break;
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w.stolen = stolen_share(ticks, cpu_ticks());
        out.windows.push(w);
    }
    out.refs.push(host_ref_s());
    out
}

/// `run-8w3-mflush`.
pub fn run_8w3(seed: u64, seconds: f64, ck: &mut Checker) -> SimRun {
    let job = jobs::run_job(seed);
    let mut progress = ProgressLoop {
        job: job.clone(),
        sim: None,
        digests: Vec::new(),
        reference: Vec::new(),
        committed: 0,
    };
    // The loop is one thread. Left alone it stays on one CPU for long
    // stretches, and the CPUs of a shared host do not run at the same
    // speed; moving it to the next CPU every `ROTATE_POLLS` polls (~0.3 s)
    // makes each window average over all of them.
    let cpus = Cpus::current();
    let mut polls = 0;
    windowed(seconds, 4, std::slice::from_ref(&job), ck, |w, ck| {
        if let (Some(c), 0) = (&cpus, polls % ROTATE_POLLS) {
            c.pin_all(polls / ROTATE_POLLS);
        }
        polls += 1;
        progress.poll(w, ck)
    })
}

/// Polls of `run-8w3-mflush` between moves to the next CPU.
const ROTATE_POLLS: usize = 100;

/// `sweep-2w-fig8`: repeat the 20-job sweep, rendering every result;
/// the first sweep's answers are the reference for the rest.
pub fn sweep_2w(seed: u64, seconds: f64, ck: &mut Checker) -> SimRun {
    let jobs = jobs::sweep_jobs(seed);
    let mut reference: Vec<String> = Vec::new();
    windowed(seconds, 2, &jobs, ck, |w, ck| {
        let t = now();
        let results = run_sweep(&jobs, SWEEP_WORKERS);
        let dt = t.elapsed().as_secs_f64();
        w.cold.push(dt);
        w.sim_s += dt;
        w.requests += 1;
        let first = reference.is_empty();
        for (i, (label, outcome)) in results.into_iter().enumerate() {
            let t = now();
            let rendered = outcome.map(|r| (r.to_json(), r.total_committed()));
            w.hit.push(t.elapsed().as_secs_f64());
            w.requests += 1;
            match rendered {
                Ok((json, committed)) => {
                    w.committed += committed;
                    ck.answer(&label, &json, reference.get(i).map(String::as_str));
                    if first {
                        reference.push(json);
                    }
                }
                Err(e) => ck.fail(format!("{label}: {e}")),
            }
        }
        Ok(())
    })
}
