//! The traced run must simulate exactly what the program simulates.
//!
//! * Every simulation job of every workload, rebuilt from public parts
//!   with timing decorators, gives `SimResult` JSON byte-identical to
//!   `Simulator::run` (and to the committed digest).
//! * The policy decorator forwards every `FetchPolicy` method. Planted
//!   decorators that drop one forward show that both checks bite.
//!
//! Debug builds shorten every job to `DEBUG_CYCLES`; run with
//! `cargo test --release` for the full-length jobs. The benchmark's
//! `--trace 1` mode repeats the full-length comparison on every run.

use perfbench::expected::{digest, Committed, DEFAULT_SEED};
use perfbench::jobs::{simulation_jobs, WORKLOADS};
use perfbench::traced::{run_traced, run_traced_with, timed_policy};
use smtsim_core::{SimConfig, Simulator, ToJson, Workload};
use smtsim_policy::{FetchPolicy, LoadToken, PolicyAction, PolicyKind, ThreadSnapshot};
use std::sync::{Arc, Mutex};

const DEBUG_CYCLES: u64 = 20_000;

fn direct_json(cfg: &SimConfig) -> String {
    Simulator::build(cfg)
        .and_then(|s| s.run())
        .expect("benchmark jobs run cleanly")
        .to_json()
}

#[test]
fn traced_machine_matches_simulator_on_every_job() {
    let committed = Committed::load();
    for w in WORKLOADS {
        for job in simulation_jobs(w, DEFAULT_SEED) {
            let mut cfg = job.config.clone();
            let full = !cfg!(debug_assertions) || cfg.cycles <= DEBUG_CYCLES;
            if !full {
                cfg.cycles = DEBUG_CYCLES;
            }
            let traced = run_traced(&cfg)
                .expect("traced run builds")
                .result
                .to_json();
            assert_eq!(
                traced,
                direct_json(&cfg),
                "{w} {}: traced run diverged",
                job.label
            );
            if full {
                let want = committed
                    .digest_for(DEFAULT_SEED, w, &job.label)
                    .unwrap_or_else(|| panic!("{w} {}: no committed digest", job.label));
                assert_eq!(digest(&traced), want, "{w} {}: digest changed", job.label);
            }
        }
    }
}

/// Forwards every method except `on_load_complete`, which the detailed
/// core calls on every L2 access: dropping it changes what MFLUSH
/// learns, so the simulated result must change.
struct DropsLoadComplete(Box<dyn FetchPolicy>);

impl FetchPolicy for DropsLoadComplete {
    fn name(&self) -> String {
        self.0.name()
    }
    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        self.0.tick(cycle, snaps, actions)
    }
    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        self.0.fetch_priority(cycle, snaps, out)
    }
    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.0.on_load_issue(tid, token, pc, cycle)
    }
    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        self.0.on_l1d_miss(tid, token, bank, cycle)
    }
    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, cycle: u64) {
        self.0.on_l2_miss(tid, token, cycle)
    }
    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.0.on_load_squashed(tid, token)
    }
    fn on_thread_resumed(&mut self, tid: usize, cycle: u64) {
        self.0.on_thread_resumed(tid, cycle)
    }
}

#[test]
fn planted_machine_level_fault_is_caught() {
    let w = Workload::by_name("4W3").expect("paper workload");
    let cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(DEBUG_CYCLES);
    let planted = run_traced_with(&cfg, &|p| Box::new(DropsLoadComplete(p)))
        .expect("traced run builds")
        .result
        .to_json();
    assert_ne!(
        planted,
        direct_json(&cfg),
        "a dropped on_load_complete went unnoticed"
    );
}

/// A policy that logs every call, with its arguments, and answers with
/// recognisable values.
struct Recorder(Arc<Mutex<Vec<String>>>);

impl Recorder {
    fn log(&self, line: String) {
        self.0.lock().expect("log lock").push(line);
    }
}

impl FetchPolicy for Recorder {
    fn name(&self) -> String {
        self.log(String::from("name"));
        String::from("RECORDER")
    }
    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        self.log(format!("tick {cycle} {}", snaps.len()));
        actions.push(PolicyAction::Stall { tid: 1 });
    }
    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        self.log(format!("fetch_priority {cycle} {}", snaps.len()));
        out.extend([1, 0]);
    }
    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.log(format!("on_load_issue {tid} {token} {pc} {cycle}"));
    }
    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        self.log(format!("on_l1d_miss {tid} {token} {bank} {cycle}"));
    }
    fn on_load_l1_hit(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.log(format!("on_load_l1_hit {tid} {token} {pc} {cycle}"));
    }
    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, cycle: u64) {
        self.log(format!("on_l2_miss {tid} {token} {cycle}"));
    }
    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        bank: u32,
        l2_hit: Option<bool>,
        latency: u64,
        cycle: u64,
    ) {
        self.log(format!(
            "on_load_complete {tid} {token} {bank} {l2_hit:?} {latency} {cycle}"
        ));
    }
    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.log(format!("on_load_squashed {tid} {token}"));
    }
    fn on_thread_resumed(&mut self, tid: usize, cycle: u64) {
        self.log(format!("on_thread_resumed {tid} {cycle}"));
    }
    fn next_wake(&self, from: u64) -> u64 {
        self.log(format!("next_wake {from}"));
        from + 7
    }
    fn on_cycles_skipped(&mut self, from: u64, cycles: u64) {
        self.log(format!("on_cycles_skipped {from} {cycles}"));
    }
}

/// Call every `FetchPolicy` method once and return what the wrapped
/// policy saw plus what the calls returned.
fn exercise(wrap: &dyn Fn(Box<dyn FetchPolicy>) -> Box<dyn FetchPolicy>) -> Vec<String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut p = wrap(Box::new(Recorder(Arc::clone(&log))));
    let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
    let mut returned = vec![p.name()];
    let mut actions = Vec::new();
    p.tick(5, &snaps, &mut actions);
    returned.push(format!("{actions:?}"));
    let mut order = Vec::new();
    p.fetch_priority(5, &snaps, &mut order);
    returned.push(format!("{order:?}"));
    p.on_load_issue(0, 11, 0x400, 6);
    p.on_l1d_miss(0, 11, 2, 7);
    p.on_load_l1_hit(1, 12, 0x404, 8);
    p.on_l2_miss(0, 11, 9);
    p.on_load_complete(0, 11, 2, Some(true), 40, 10);
    p.on_load_squashed(1, 13);
    p.on_thread_resumed(0, 11);
    returned.push(p.next_wake(12).to_string());
    p.on_cycles_skipped(12, 5);
    let mut seen = log.lock().expect("log lock").clone();
    seen.extend(returned);
    seen
}

/// `Ok` when `wrap` is indistinguishable from no decorator at all.
fn forwards_everything(
    wrap: &dyn Fn(Box<dyn FetchPolicy>) -> Box<dyn FetchPolicy>,
) -> Result<(), String> {
    let want = exercise(&|p| p);
    let got = exercise(wrap);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "wrapped policy saw {got:#?}\nbare policy saw {want:#?}"
        ))
    }
}

#[test]
fn decorator_forwards_every_policy_method() {
    forwards_everything(&timed_policy).unwrap();
}

/// The benchmark's decorator with the `on_load_l1_hit` forward dropped:
/// the trait's default then replays the hit as issue + complete.
struct DropsL1Hit(Box<dyn FetchPolicy>);

impl FetchPolicy for DropsL1Hit {
    fn name(&self) -> String {
        self.0.name()
    }
    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        self.0.tick(cycle, snaps, actions)
    }
    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        self.0.fetch_priority(cycle, snaps, out)
    }
    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.0.on_load_issue(tid, token, pc, cycle)
    }
    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        self.0.on_l1d_miss(tid, token, bank, cycle)
    }
    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, cycle: u64) {
        self.0.on_l2_miss(tid, token, cycle)
    }
    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        bank: u32,
        l2_hit: Option<bool>,
        latency: u64,
        cycle: u64,
    ) {
        self.0
            .on_load_complete(tid, token, bank, l2_hit, latency, cycle)
    }
    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.0.on_load_squashed(tid, token)
    }
    fn on_thread_resumed(&mut self, tid: usize, cycle: u64) {
        self.0.on_thread_resumed(tid, cycle)
    }
    fn next_wake(&self, from: u64) -> u64 {
        self.0.next_wake(from)
    }
    fn on_cycles_skipped(&mut self, from: u64, cycles: u64) {
        self.0.on_cycles_skipped(from, cycles)
    }
}

#[test]
fn planted_decorator_dropping_l1_hit_is_caught() {
    let err = forwards_everything(&|p| Box::new(DropsL1Hit(p)))
        .expect_err("a dropped on_load_l1_hit forward went unnoticed");
    assert!(err.contains("on_load_l1_hit"), "{err}");
}
