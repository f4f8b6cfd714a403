//! `bench_profile` — host-time breakdown of one simulator run by
//! driver pipeline phase (build / simulate / snapshot / trace collect
//! / trace export), with tracing and interval metrics enabled so the
//! observability layer's own cost is visible.
//!
//! ```text
//! bench_profile [--workload 4W3] [--policy mflush] [--cycles N]
//!               [--plain] [--json] [--baseline BENCH_baseline.json]
//! ```
//!
//! `--plain` turns the observability layer off so the measurement
//! isolates the *model* cost (per-event tracing scales with committed
//! instructions); `--json` emits one machine-readable record (the
//! format stored in `BENCH_baseline.json`); `--baseline` compares the
//! measured host time against the matching recorded entry and prints
//! the delta. The comparison is informational — host times are
//! machine-dependent, so CI prints it but never gates on it.

use smtsim_bench::profile::{profile_run, profile_run_plain};
use smtsim_core::json::parse_json;
use smtsim_core::{SimConfig, Simulator, Workload};
use smtsim_policy::PolicyKind;

fn main() {
    let mut workload = String::from("4W3");
    let mut policy = String::from("mflush");
    let mut cycles: u64 = smtsim_core::config::DEFAULT_CYCLES;
    let mut json = false;
    let mut plain = false;
    let mut baseline: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let usage = || -> ! {
        eprintln!(
            "usage: bench_profile [--workload <xWy>] [--policy <p>] [--cycles N]\n\
             \x20                    [--plain] [--json] [--baseline FILE]"
        );
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for --{name}");
                usage();
            })
        };
        match a.as_str() {
            "--workload" => workload = next("workload"),
            "--policy" => policy = next("policy"),
            "--cycles" => {
                cycles = next("cycles").parse().unwrap_or_else(|_| {
                    eprintln!("bad --cycles value");
                    usage();
                })
            }
            "--json" => json = true,
            "--plain" => plain = true,
            "--baseline" => baseline = Some(next("baseline")),
            _ => usage(),
        }
    }
    let w = Workload::by_name(&workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload} (try `smtsim workloads`)");
        std::process::exit(2);
    });
    // Reuse the simulator's policy grammar by building a probe config:
    // only a handful of spellings exist, so parse the simple ones here.
    let policy_kind = match policy.as_str() {
        "icount" => PolicyKind::Icount,
        "mflush" => PolicyKind::Mflush,
        "flush-ns" => PolicyKind::FlushNonSpec,
        "stall-ns" => PolicyKind::StallNonSpec,
        "dcra" => PolicyKind::Dcra,
        other => {
            if let Some(x) = other.strip_prefix("flush-s").and_then(|x| x.parse().ok()) {
                PolicyKind::FlushSpec(x)
            } else if let Some(x) = other.strip_prefix("stall-s").and_then(|x| x.parse().ok()) {
                PolicyKind::StallSpec(x)
            } else {
                eprintln!("unknown policy {other}");
                std::process::exit(2);
            }
        }
    };
    let cfg = SimConfig::for_workload(w, policy_kind).with_cycles(cycles);
    if let Err(e) = Simulator::build(&cfg) {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let run = if plain { profile_run_plain } else { profile_run };
    match run(&cfg) {
        Ok((prof, result)) => {
            let seconds = prof.total().as_secs_f64();
            if json {
                println!(
                    "{{\"workload\": \"{workload}\", \"policy\": \"{policy}\", \
                     \"cycles\": {cycles}, \"host_seconds\": {seconds:.4}, \"ipc\": {:.4}}}",
                    result.throughput()
                );
            } else {
                print!(
                    "{}",
                    prof.report(&format!(
                        "Host-time per pipeline phase ({workload}/{policy}, {cycles} cycles)"
                    ))
                );
                println!(
                    "throughput {:.4} IPC ({} committed)",
                    result.throughput(),
                    result.total_committed()
                );
            }
            if let Some(path) = baseline {
                compare_baseline(&path, &workload, &policy, cycles, seconds);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the host-time delta against the matching `BENCH_baseline.json`
/// entry, or say why no comparison was possible. Never exits nonzero:
/// host time depends on the machine, so this is a trend indicator.
fn compare_baseline(
    path: &str,
    workload: &str,
    policy: &str,
    cycles: u64,
    seconds: f64,
) {
    let doc = match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|s| parse_json(&s)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("baseline {path}: unreadable ({e}); skipping comparison");
            return;
        }
    };
    let entries = doc.get("entries").and_then(|v| v.as_arr()).unwrap_or(&[]);
    let found = entries.iter().find(|e| {
        e.get("workload").and_then(|v| v.as_str()) == Some(workload)
            && e.get("policy").and_then(|v| v.as_str()) == Some(policy)
            && e.get("cycles").and_then(|v| v.as_u64()) == Some(cycles)
    });
    match found.and_then(|e| e.get("host_seconds").and_then(|v| v.as_f64())) {
        Some(base) if base > 0.0 => {
            let delta = 100.0 * (seconds - base) / base;
            println!(
                "baseline {workload}/{policy}: {base:.3}s recorded, \
                 {seconds:.3}s now ({delta:+.1}%; informational, not a gate)"
            );
        }
        _ => println!(
            "baseline {path}: no entry for {workload}/{policy} @ {cycles} cycles"
        ),
    }
}
