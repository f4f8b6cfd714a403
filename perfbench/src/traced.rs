//! The traced run: the simulated machine rebuilt from public parts,
//! with host-time spans around the calls into each layer.
//!
//! All timing lives here, in the benchmark, never inside the program.
//! The machine is assembled the way `Simulator::build` assembles it —
//! `MemoryModel::detailed`, one `SmtCore::new` per core, a
//! `ThreadProgram` per hardware context, `build_policy` per core — but
//! every instruction stream is wrapped in [`TimedStream`] and every
//! policy in [`TimedPolicy`]. The cycle loop then ticks every cycle
//! and times `mem.tick` and the cores' `tick` calls.
//!
//! A layer's self time excludes the child calls it makes: the policy
//! and the trace generator are called from inside `core.tick`, so
//! `cpu.tick_self_s` is the `core.tick` span minus their spans. The
//! timer calls themselves cost host time; the part spent in a child's
//! timers lands in its parent's self time, and the whole cost shows in
//! `trace_overhead_ratio`.
//!
//! Spans are summed per thread in a thread-local ledger: one job runs
//! start to finish on one thread, so the ledger's growth over a job's
//! tick loop is that job's spans.

use crate::stats::now;
use smtsim_core::{SimConfig, SimResult};
use smtsim_cpu::thread::ThreadProgram;
use smtsim_cpu::SmtCore;
use smtsim_mem::MemoryModel;
use smtsim_policy::{build_policy, FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};
use smtsim_trace::{spec, DynInstr, InstrStream, TraceGenerator};
use std::cell::Cell;
use std::time::Instant;

/// Per-thread span sums, in nanoseconds, plus call counts.
struct Ledger {
    policy_tick_ns: Cell<u64>,
    policy_priority_ns: Cell<u64>,
    policy_hooks_ns: Cell<u64>,
    policy_calls: Cell<u64>,
    trace_ns: Cell<u64>,
    trace_instrs: Cell<u64>,
}

thread_local! {
    static LEDGER: Ledger = const {
        Ledger {
            policy_tick_ns: Cell::new(0),
            policy_priority_ns: Cell::new(0),
            policy_hooks_ns: Cell::new(0),
            policy_calls: Cell::new(0),
            trace_ns: Cell::new(0),
            trace_instrs: Cell::new(0),
        }
    };
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// A snapshot of this thread's ledger.
#[derive(Debug, Clone, Copy, Default)]
struct LedgerTotals {
    policy_tick_ns: u64,
    policy_priority_ns: u64,
    policy_hooks_ns: u64,
    policy_calls: u64,
    trace_ns: u64,
    trace_instrs: u64,
}

impl LedgerTotals {
    fn read() -> LedgerTotals {
        LEDGER.with(|l| LedgerTotals {
            policy_tick_ns: l.policy_tick_ns.get(),
            policy_priority_ns: l.policy_priority_ns.get(),
            policy_hooks_ns: l.policy_hooks_ns.get(),
            policy_calls: l.policy_calls.get(),
            trace_ns: l.trace_ns.get(),
            trace_instrs: l.trace_instrs.get(),
        })
    }

    fn since(self, earlier: LedgerTotals) -> LedgerTotals {
        LedgerTotals {
            policy_tick_ns: self.policy_tick_ns - earlier.policy_tick_ns,
            policy_priority_ns: self.policy_priority_ns - earlier.policy_priority_ns,
            policy_hooks_ns: self.policy_hooks_ns - earlier.policy_hooks_ns,
            policy_calls: self.policy_calls - earlier.policy_calls,
            trace_ns: self.trace_ns - earlier.trace_ns,
            trace_instrs: self.trace_instrs - earlier.trace_instrs,
        }
    }
}

/// An instruction stream that times every `next_instr` call.
pub struct TimedStream<S> {
    inner: S,
}

impl<S: InstrStream> TimedStream<S> {
    /// Wrap a stream.
    pub fn new(inner: S) -> Self {
        TimedStream { inner }
    }
}

impl<S: InstrStream> InstrStream for TimedStream<S> {
    fn next_instr(&mut self) -> DynInstr {
        let start = now();
        let instr = self.inner.next_instr();
        let ns = nanos_since(start);
        LEDGER.with(|l| {
            add(&l.trace_ns, ns);
            add(&l.trace_instrs, 1);
        });
        instr
    }
}

/// Which policy span a call belongs to.
#[derive(Clone, Copy)]
enum PolicySpan {
    Tick,
    Priority,
    Hook,
}

/// A fetch policy that forwards every [`FetchPolicy`] method to the
/// policy it wraps and times the calls the cycle loop makes.
pub struct TimedPolicy {
    inner: Box<dyn FetchPolicy>,
}

impl TimedPolicy {
    /// Wrap a policy.
    pub fn new(inner: Box<dyn FetchPolicy>) -> Self {
        TimedPolicy { inner }
    }

    fn timed<R>(&mut self, span: PolicySpan, f: impl FnOnce(&mut dyn FetchPolicy) -> R) -> R {
        let start = now();
        let out = f(self.inner.as_mut());
        let ns = nanos_since(start);
        LEDGER.with(|l| {
            let cell = match span {
                PolicySpan::Tick => &l.policy_tick_ns,
                PolicySpan::Priority => &l.policy_priority_ns,
                PolicySpan::Hook => &l.policy_hooks_ns,
            };
            add(cell, ns);
            add(&l.policy_calls, 1);
        });
        out
    }
}

impl FetchPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        self.timed(PolicySpan::Tick, |p| p.tick(cycle, snaps, actions))
    }

    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        self.timed(PolicySpan::Priority, |p| {
            p.fetch_priority(cycle, snaps, out)
        })
    }

    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.timed(PolicySpan::Hook, |p| p.on_load_issue(tid, token, pc, cycle))
    }

    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        self.timed(PolicySpan::Hook, |p| p.on_l1d_miss(tid, token, bank, cycle))
    }

    fn on_load_l1_hit(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.timed(PolicySpan::Hook, |p| {
            p.on_load_l1_hit(tid, token, pc, cycle)
        })
    }

    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, cycle: u64) {
        self.timed(PolicySpan::Hook, |p| p.on_l2_miss(tid, token, cycle))
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
        self.timed(PolicySpan::Hook, |p| {
            p.on_load_complete(tid, token, bank, l2_hit, latency, cycle)
        })
    }

    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.timed(PolicySpan::Hook, |p| p.on_load_squashed(tid, token))
    }

    fn on_thread_resumed(&mut self, tid: usize, cycle: u64) {
        self.timed(PolicySpan::Hook, |p| p.on_thread_resumed(tid, cycle))
    }

    fn next_wake(&self, from: u64) -> u64 {
        self.inner.next_wake(from)
    }

    fn on_cycles_skipped(&mut self, from: u64, cycles: u64) {
        self.timed(PolicySpan::Hook, |p| p.on_cycles_skipped(from, cycles))
    }
}

/// Host time per layer for one traced job (seconds) plus the counts
/// the spans were taken over.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Machine construction (`core.build_s`).
    pub build_s: f64,
    /// Cache and TLB prewarm (`cpu.prewarm_s`).
    pub prewarm_s: f64,
    /// Sum of `mem.tick` spans.
    pub mem_tick_s: f64,
    /// Sum of `core.tick` spans, children included.
    pub core_tick_s: f64,
    /// Policy `tick` spans.
    pub policy_tick_s: f64,
    /// Policy `fetch_priority` spans.
    pub policy_priority_s: f64,
    /// Policy event-hook spans.
    pub policy_hooks_s: f64,
    /// Policy calls timed.
    pub policy_calls: u64,
    /// Trace-generator `next_instr` spans.
    pub trace_s: f64,
    /// Instructions generated.
    pub trace_instrs: u64,
    /// Cycles ticked.
    pub cycles: u64,
}

impl LayerTimes {
    /// Policy host time, all three spans.
    pub fn policy_s(&self) -> f64 {
        self.policy_tick_s + self.policy_priority_s + self.policy_hooks_s
    }

    /// `core.tick` time minus its policy and trace-generator children.
    pub fn cpu_self_s(&self) -> f64 {
        self.core_tick_s - self.policy_s() - self.trace_s
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &LayerTimes) {
        self.build_s += o.build_s;
        self.prewarm_s += o.prewarm_s;
        self.mem_tick_s += o.mem_tick_s;
        self.core_tick_s += o.core_tick_s;
        self.policy_tick_s += o.policy_tick_s;
        self.policy_priority_s += o.policy_priority_s;
        self.policy_hooks_s += o.policy_hooks_s;
        self.policy_calls += o.policy_calls;
        self.trace_s += o.trace_s;
        self.trace_instrs += o.trace_instrs;
        self.cycles += o.cycles;
    }
}

/// What one traced job produced.
pub struct TracedJob {
    /// The simulated result, built exactly as `Simulator::snapshot`
    /// builds it.
    pub result: SimResult,
    /// DRAM demand round trips (read from the memory model).
    pub dram_round_trips: u64,
    /// Host time per layer.
    pub times: LayerTimes,
}

/// Assemble the machine for `cfg` from public parts, with `wrap`
/// applied to every core's policy. Streams are always timed.
fn build_machine(
    cfg: &SimConfig,
    wrap: &dyn Fn(Box<dyn FetchPolicy>) -> Box<dyn FetchPolicy>,
) -> Result<(Vec<SmtCore>, MemoryModel), String> {
    cfg.validate()?;
    let env = cfg.policy_env();
    let contexts = cfg.core.contexts as usize;
    let mem = MemoryModel::detailed(cfg.mem);
    let mut cores = Vec::with_capacity(cfg.cores() as usize);
    for core_id in 0..cfg.cores() {
        let mut programs = Vec::with_capacity(contexts);
        for slot in 0..contexts {
            let global = core_id as usize * contexts + slot;
            let name = &cfg.benchmarks[global];
            let profile =
                spec::benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
            let seed = cfg.seed + global as u64 * 7919;
            let ThreadProgram {
                stream,
                dict,
                warm_regions,
            } = ThreadProgram::from_generator(TraceGenerator::new(profile, seed));
            programs.push(ThreadProgram {
                stream: Box::new(TimedStream::new(stream)),
                dict,
                warm_regions,
            });
        }
        cores.push(SmtCore::new(
            core_id,
            cfg.core,
            wrap(build_policy(cfg.policy, &env)),
            programs,
        ));
    }
    Ok((cores, mem))
}

/// The decorator every traced job uses.
pub fn timed_policy(inner: Box<dyn FetchPolicy>) -> Box<dyn FetchPolicy> {
    Box::new(TimedPolicy::new(inner))
}

/// Run `cfg` on the rebuilt machine with spans at every layer
/// boundary. `wrap` decorates each core's policy ([`timed_policy`]
/// for the benchmark; tests plant faulty decorators through it).
pub fn run_traced_with(
    cfg: &SimConfig,
    wrap: &dyn Fn(Box<dyn FetchPolicy>) -> Box<dyn FetchPolicy>,
) -> Result<TracedJob, String> {
    let start = now();
    let (mut cores, mut mem) = build_machine(cfg, wrap)?;
    let build_s = start.elapsed().as_secs_f64();

    let start = now();
    if cfg.warmup {
        for c in &mut cores {
            c.prewarm(&mut mem);
        }
    }
    let prewarm_s = start.elapsed().as_secs_f64();

    let before = LedgerTotals::read();
    let mut mem_ns = 0u64;
    let mut core_ns = 0u64;
    for cycle in 0..cfg.cycles {
        let start = now();
        mem.tick(cycle);
        let mid = now();
        for c in &mut cores {
            c.tick(cycle, &mut mem);
        }
        mem_ns += (mid - start).as_nanos() as u64;
        core_ns += nanos_since(mid);
    }
    let spans = LedgerTotals::read().since(before);

    let result = SimResult {
        policy: cores.first().map(|c| c.policy_name()).unwrap_or_default(),
        workload: cfg.benchmarks.clone(),
        cycles: cfg.cycles,
        cores: cores.iter().map(|c| c.stats()).collect(),
        mem: mem.stats(),
        l2_hit_hist: mem.l2_hit_histogram().clone(),
    };
    let s = |ns: u64| ns as f64 * 1e-9;
    Ok(TracedJob {
        dram_round_trips: mem.dram_round_trips(),
        result,
        times: LayerTimes {
            build_s,
            prewarm_s,
            mem_tick_s: s(mem_ns),
            core_tick_s: s(core_ns),
            policy_tick_s: s(spans.policy_tick_ns),
            policy_priority_s: s(spans.policy_priority_ns),
            policy_hooks_s: s(spans.policy_hooks_ns),
            policy_calls: spans.policy_calls,
            trace_s: s(spans.trace_ns),
            trace_instrs: spans.trace_instrs,
            cycles: cfg.cycles,
        },
    })
}

/// [`run_traced_with`] using the benchmark's [`TimedPolicy`].
pub fn run_traced(cfg: &SimConfig) -> Result<TracedJob, String> {
    run_traced_with(cfg, &timed_policy)
}
