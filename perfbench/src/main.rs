//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check-counts     # compare work counts and digests with the committed ones
//! perfbench --bless            # rewrite expected/seed0.tsv
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! from a separate traced run. A table and any failures go to stderr.

use perfbench::check::Checker;
use perfbench::expected::{committed_path, Committed, DEFAULT_SEED};
use perfbench::jobs::{RUN_8W3, SERVE_MIXED, WORKLOADS};
use perfbench::layers::{self, ServeLayer};
use perfbench::stats::{cap_malloc_arenas, cpu_ticks, median, stolen_share, Report};
use perfbench::{expected_text, serveload, simload, window};
use std::process::ExitCode;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <run-8w3-mflush|sweep-2w-fig8|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --check-counts | --bless";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(String::from("--workload is required"));
    }
    Ok(args)
}

fn bench(args: &Args) -> Result<String, String> {
    cap_malloc_arenas();
    let mut ck = Checker::new(args.workload, args.seed);
    let mut report = Report::default();
    let ticks = cpu_ticks();
    let (serve, refs) = match args.workload {
        SERVE_MIXED => {
            let run = serveload::run(args.seed, args.seconds, &mut ck)?;
            if !args.trace {
                window::report(&mut report, &run.setup, &run.windows, &mut ck);
                eprintln!("{}", window::describe(&run.windows));
            }
            (ServeLayer::from_run(&run), run.refs)
        }
        // The traced run needs no timed simulation phase of its own.
        _ if args.trace => (ServeLayer::default(), Vec::new()),
        w => {
            let run = if w == RUN_8W3 {
                simload::run_8w3(args.seed, args.seconds, &mut ck)
            } else {
                simload::sweep_2w(args.seed, args.seconds, &mut ck)
            };
            window::report(&mut report, &run.setup, &run.windows, &mut ck);
            eprintln!("{}", window::describe(&run.windows));
            (ServeLayer::default(), run.refs)
        }
    };
    if !args.trace {
        eprintln!("host.ref_s (informational): {:.6}", median(&refs));
    } else {
        // The serve workload has already spent its time budget on the
        // service; its traced passes get a quarter as much.
        let budget = if args.workload == SERVE_MIXED {
            args.seconds / 4.0
        } else {
            args.seconds
        };
        layers::report(
            args.workload,
            args.seed,
            budget,
            serve,
            refs,
            &mut ck,
            &mut report,
        );
        let t = ck.tally;
        report.put(
            "failed_ratio",
            t.failed as f64 / t.attempted.max(1) as f64,
            "ratio",
        );
    }
    eprintln!(
        "host CPU time stolen by other guests during the run: {:.1}%",
        stolen_share(ticks, cpu_ticks()) * 100.0
    );
    eprintln!(
        "{} seed {} ({} s, trace {}):",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    eprint!("{}", report.table());
    for f in &ck.failures {
        eprintln!("FAILED: {f}");
    }
    let t = ck.tally;
    Ok(report.json(t.failed == 0, t.attempted.max(1), t.failed))
}

/// Recompute every digest and work count at the default seed and
/// compare them, line by line, with the committed file.
fn check_counts() -> Result<bool, String> {
    let now = expected_text(DEFAULT_SEED)?;
    let committed = Committed::load();
    let fresh = Committed::parse(&now);
    let mut same = true;
    for (what, want, got) in [
        ("digest", &committed.digests, &fresh.digests),
        ("count", &committed.counts, &fresh.counts),
    ] {
        for (key, value) in got {
            if want.get(key) != Some(value) {
                same = false;
                let old = want.get(key).map(String::as_str).unwrap_or("(none)");
                println!("{what} {} {}: committed {old}, now {value}", key.0, key.1);
            }
        }
        for key in want.keys().filter(|k| !got.contains_key(*k)) {
            same = false;
            println!(
                "{what} {} {}: committed but no longer produced",
                key.0, key.1
            );
        }
    }
    println!(
        "{} digests, {} counts: {}",
        fresh.digests.len(),
        fresh.counts.len(),
        if same { "unchanged" } else { "CHANGED" }
    );
    Ok(same)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--check-counts") => check_counts().map(|same| {
            if same {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        Some("--bless") => expected_text(DEFAULT_SEED).and_then(|text| {
            let path = committed_path();
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            Ok(ExitCode::SUCCESS)
        }),
        _ => parse(&argv)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| bench(&args))
            .map(|line| {
                println!("{line}");
                ExitCode::SUCCESS
            }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
