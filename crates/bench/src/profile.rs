//! Host-time profiling of the driver's pipeline phases.
//!
//! The simulator itself never reads a host clock (lint rule D2 keeps
//! wall-clock out of the sim crates so same-seed runs stay
//! byte-identical); this module is the sanctioned place to ask "where
//! does the *host* time go?". It times the phases the driver exposes —
//! build, simulate, snapshot, trace collection, trace export — and
//! reports each as a share of the whole.
//!
//! ```text
//! bench_profile [--workload 4W3] [--policy mflush] [--cycles N]
//! ```

use crate::timing::format_duration;
use smtsim_core::config::{DEFAULT_METRICS_INTERVAL, DEFAULT_TRACE_CAPACITY};
use smtsim_core::{obs, SimConfig, SimError, SimResult, Simulator};
use std::time::{Duration, Instant};

/// Accumulated host time per named pipeline phase, in first-recorded
/// order.
pub struct PhaseProfile {
    phases: Vec<(String, Duration, u32)>,
}

impl Default for PhaseProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> PhaseProfile {
        PhaseProfile { phases: Vec::new() }
    }

    /// Run `f`, attributing its host time to `phase` (accumulating
    /// across repeated calls with the same name).
    // lint: allow(D5) -- crates/bench is the one sanctioned wall-clock user; clippy.toml bans Instant::now everywhere else
    #[allow(clippy::disallowed_methods)]
    pub fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        match self.phases.iter_mut().find(|(n, _, _)| n == phase) {
            Some((_, total, calls)) => {
                *total += elapsed;
                *calls += 1;
            }
            None => self.phases.push((phase.to_string(), elapsed, 1)),
        }
        out
    }

    /// `(phase, accumulated time, calls)` rows in first-recorded order.
    pub fn phases(&self) -> &[(String, Duration, u32)] {
        &self.phases
    }

    /// Host time across all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d, _)| *d).sum()
    }

    /// Render the per-phase breakdown with percentages.
    pub fn report(&self, title: &str) -> String {
        let total = self.total().as_secs_f64().max(f64::MIN_POSITIVE);
        let mut s = format!("== {title} ==\n");
        for (name, d, calls) in &self.phases {
            s.push_str(&format!(
                "{name:<16} {:>10} {:>5.1}% ({calls} call{})\n",
                format_duration(*d),
                100.0 * d.as_secs_f64() / total,
                if *calls == 1 { "" } else { "s" },
            ));
        }
        s.push_str(&format!("{:<16} {:>10}\n", "total", format_duration(self.total())));
        s
    }
}

/// Run one experiment with tracing and metrics on, timing each driver
/// phase. Returns the profile together with the measurement so callers
/// can sanity-check the run they just profiled.
pub fn profile_run(cfg: &SimConfig) -> Result<(PhaseProfile, SimResult), SimError> {
    let mut prof = PhaseProfile::new();
    let mut sim = prof.time("build", || Simulator::build(cfg))?;
    sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    sim.enable_metrics(DEFAULT_METRICS_INTERVAL.min(cfg.cycles.max(1)));
    prof.time("simulate", || sim.step(cfg.cycles))?;
    let result = prof.time("snapshot", || sim.snapshot());
    let rows = prof.time("trace_collect", || sim.trace_rows());
    prof.time("trace_export", || {
        std::hint::black_box(obs::observability_jsonl(&rows, sim.metrics_samples()))
    });
    Ok((prof, result))
}

/// Like [`profile_run`] but with the observability layer off (no event
/// tracing, no interval metrics): build / simulate / snapshot only.
/// This is the mode for measuring *model* cost — the per-event
/// tracing overhead scales with committed instructions, so it would
/// blur a comparison between runs of different IPC.
pub fn profile_run_plain(cfg: &SimConfig) -> Result<(PhaseProfile, SimResult), SimError> {
    let mut prof = PhaseProfile::new();
    let mut sim = prof.time("build", || Simulator::build(cfg))?;
    prof.time("simulate", || sim.step(cfg.cycles))?;
    let result = prof.time("snapshot", || sim.snapshot());
    Ok((prof, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_core::Workload;
    use smtsim_policy::PolicyKind;

    #[test]
    fn time_accumulates_per_phase() {
        let mut p = PhaseProfile::new();
        assert_eq!(p.time("a", || 1 + 1), 2);
        p.time("b", || ());
        p.time("a", || ());
        assert_eq!(p.phases().len(), 2);
        let (name, _, calls) = &p.phases()[0];
        assert_eq!((name.as_str(), *calls), ("a", 2));
        assert!(p.report("t").contains("a "));
        assert!(p.report("t").lines().count() >= 4);
    }

    #[test]
    fn profile_run_covers_every_phase() {
        let cfg = SimConfig::for_workload(
            Workload::by_name("4W3").unwrap(),
            PolicyKind::FlushSpec(30),
        )
        .with_cycles(2_000);
        let (prof, result) = profile_run(&cfg).unwrap();
        let names: Vec<&str> = prof.phases().iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["build", "simulate", "snapshot", "trace_collect", "trace_export"]
        );
        assert_eq!(result.cycles, 2_000);
    }
}
