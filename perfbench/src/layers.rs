//! The per-layer report (`--trace 1`): traced passes over a workload's
//! simulation jobs, interleaved with untraced passes of the same jobs.
//!
//! An untraced pass runs the jobs through `run_sweep`, then times each
//! job alone through `Simulator::build(..).run()` on a pool with the
//! same worker count. The `core.sweep.*` figures come from that pass:
//! the job times, and the sweep pool's idle time (workers × `run_sweep`
//! wall − Σ job time). A traced pass runs the rebuilt machine of
//! `traced.rs` for the layer spans.

use crate::check::Checker;
use crate::expected::WorkCounts;
use crate::jobs;
use crate::pool;
use crate::serveload::ServeRun;
use crate::stats::{host_ref_s, median, now, percentile, Report};
use crate::traced::{run_traced, LayerTimes, TracedJob};
use smtsim_core::{run_sweep, Simulator, SweepJob, ToJson};
use std::time::Duration;

/// One traced pass and the untraced pass it is compared with.
struct Pass {
    times: LayerTimes,
    /// Untraced time of each job, built and run alone.
    job_s: Vec<f64>,
    /// Workers × `run_sweep` wall − Σ `job_s`.
    idle_s: f64,
    overhead_ratio: f64,
}

/// The untraced pass: every job's JSON from `run_sweep` (`None` when it
/// failed), the `run_sweep` wall time and each job's time alone. Every
/// lone run must answer what `run_sweep` answered.
fn untraced_pass(
    jobs: &[SweepJob],
    workers: usize,
    ck: &mut Checker,
) -> (Vec<Option<String>>, f64, Vec<f64>) {
    let start = now();
    let out = run_sweep(jobs, workers);
    let wall = start.elapsed().as_secs_f64();
    let json: Vec<Option<String>> = out
        .into_iter()
        .map(|(label, r)| match r {
            Ok(r) => Some(r.to_json()),
            Err(e) => {
                ck.fail(format!("{label}: {e}"));
                None
            }
        })
        .collect();
    let (alone, _) = pool(jobs.len(), workers, |i| {
        let start = now();
        let r = Simulator::build(&jobs[i].config).and_then(|s| s.run());
        (r.map(|r| r.to_json()), start.elapsed().as_secs_f64())
    });
    let mut job_s = Vec::with_capacity(jobs.len());
    for ((job, (r, secs)), want) in jobs.iter().zip(alone).zip(&json) {
        job_s.push(secs);
        match r {
            Ok(got) => ck.answer(&job.label, &got, want.as_deref()),
            Err(e) => ck.fail(format!("{}: {e}", job.label)),
        }
    }
    (json, wall, job_s)
}

fn traced_pass(
    jobs: &[SweepJob],
    workers: usize,
    ck: &mut Checker,
    counts: &mut Option<WorkCounts>,
    traced_first: bool,
) -> Pass {
    let mut reference = None;
    if !traced_first {
        reference = Some(untraced_pass(jobs, workers, ck));
    }
    let (traced, traced_wall) = pool(jobs.len(), workers, |i| run_traced(&jobs[i].config));
    let (reference, untraced_wall, job_s) =
        reference.unwrap_or_else(|| untraced_pass(jobs, workers, ck));

    let mut times = LayerTimes::default();
    let mut work = WorkCounts::default();
    for ((job, t), want) in jobs.iter().zip(traced).zip(&reference) {
        match t {
            Ok(TracedJob {
                result,
                dram_round_trips,
                times: tj,
            }) => {
                // The traced machine must reproduce the untraced run
                // byte for byte, and both the committed digest.
                let json = result.to_json();
                if let Some(w) = want {
                    ck.answer(&job.label, w, None);
                }
                ck.answer(&job.label, &json, want.as_deref());
                work.add(&result, dram_round_trips);
                times.add(&tj);
            }
            Err(e) => ck.fail(format!("{}: traced run failed: {e}", job.label)),
        }
    }
    counts.get_or_insert(work);
    let busy: f64 = job_s.iter().sum();
    Pass {
        times,
        idle_s: workers as f64 * untraced_wall - busy,
        job_s,
        overhead_ratio: traced_wall / untraced_wall,
    }
}

/// Serve-layer figures for the per-layer report; zero for workloads
/// that bypass the service.
#[derive(Default)]
pub struct ServeLayer {
    cold_overhead_ms: f64,
    counters: [u64; 5],
    cache_load_s: f64,
}

impl ServeLayer {
    /// From a `serve-mixed` run.
    pub fn from_run(run: &ServeRun) -> ServeLayer {
        ServeLayer {
            cold_overhead_ms: median(&run.cold_overhead) * 1e3,
            counters: run.counters,
            cache_load_s: median(&run.cache_load),
        }
    }
}

/// Traced and untraced passes over the workload's simulation jobs,
/// alternating which goes first, until `seconds` have passed (at least
/// one pair). Fills the per-layer report.
pub fn report(
    workload: &str,
    seed: u64,
    seconds: f64,
    serve: ServeLayer,
    mut refs: Vec<f64>,
    ck: &mut Checker,
    r: &mut Report,
) {
    let jobs = jobs::simulation_jobs(workload, seed);
    let workers = jobs::workers(workload);
    let mut counts = None;
    let mut passes = Vec::new();
    let deadline = now() + Duration::from_secs_f64(seconds);
    refs.push(host_ref_s());
    loop {
        passes.push(traced_pass(
            &jobs,
            workers,
            ck,
            &mut counts,
            passes.len() % 2 == 0,
        ));
        refs.push(host_ref_s());
        if now() >= deadline {
            break;
        }
    }
    let counts = counts.unwrap_or_default();
    let committed = counts.committed() as f64;
    let m = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let per_instr = |s: f64| {
        if committed > 0.0 {
            s * 1e9 / committed
        } else {
            0.0
        }
    };

    r.put("cpu.tick_self_s", m(&|p| p.times.cpu_self_s()), "s");
    r.put(
        "cpu.ns_per_instr",
        m(&|p| per_instr(p.times.cpu_self_s())),
        "ns/instr",
    );
    r.put("policy.tick_s", m(&|p| p.times.policy_tick_s), "s");
    r.put(
        "policy.fetch_priority_s",
        m(&|p| p.times.policy_priority_s),
        "s",
    );
    r.put("policy.hooks_s", m(&|p| p.times.policy_hooks_s), "s");
    r.put("policy.calls", m(&|p| p.times.policy_calls as f64), "count");
    r.put(
        "policy.ns_per_instr",
        m(&|p| per_instr(p.times.policy_s())),
        "ns/instr",
    );
    r.put("trace.next_instr_s", m(&|p| p.times.trace_s), "s");
    r.put("trace.instrs", m(&|p| p.times.trace_instrs as f64), "count");
    r.put(
        "trace.ns_per_instr",
        m(&|p| p.times.trace_s * 1e9 / p.times.trace_instrs.max(1) as f64),
        "ns/instr",
    );
    r.put("mem.tick_s", m(&|p| p.times.mem_tick_s), "s");
    r.put(
        "mem.ns_per_cycle",
        m(&|p| p.times.mem_tick_s * 1e9 / p.times.cycles.max(1) as f64),
        "ns/cycle",
    );
    r.put("core.build_s", m(&|p| p.times.build_s), "s");
    r.put("cpu.prewarm_s", m(&|p| p.times.prewarm_s), "s");
    r.put(
        "core.sweep.job_p50_s",
        m(&|p| percentile(&p.job_s, 50.0)),
        "s",
    );
    r.put(
        "core.sweep.job_max_s",
        m(&|p| percentile(&p.job_s, 100.0)),
        "s",
    );
    r.put("core.sweep.idle_s", m(&|p| p.idle_s), "s");
    r.put("serve.cold_overhead_ms", serve.cold_overhead_ms, "ms");
    let [hits, misses, coalesced, shed, retries] = serve.counters;
    r.put("serve.hits", hits as f64, "count");
    r.put("serve.misses", misses as f64, "count");
    r.put("serve.coalesced", coalesced as f64, "count");
    r.put("serve.shed", shed as f64, "count");
    r.put("serve.retries", retries as f64, "count");
    r.put("core.cache.load_s", serve.cache_load_s, "s");
    r.put("trace_overhead_ratio", m(&|p| p.overhead_ratio), "ratio");
    r.put("host.ref_s", median(&refs), "s");
    for (name, value, unit) in counts.rows() {
        r.put(name, value, unit);
    }
}
