//! Windowed end-to-end metrics.
//!
//! The timed phase of every workload is cut into `WINDOWS` equal
//! stretches of wall time. Each end-to-end figure is computed per
//! window and the median is reported over the quieter half of the
//! windows: those in which the hypervisor gave no more than the median
//! share of the host's CPU time to other guests. On a shared host that
//! stolen time comes in bursts of seconds and slows whatever runs
//! during them, whatever the program does; a slower program is slower
//! in every window.

use crate::check::Checker;
use crate::stats::{median, peak_rss_mib, percentile, Report};

/// Windows per timed phase.
pub const WINDOWS: usize = 8;

/// What one window of the timed phase measured.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Hit request latencies (seconds).
    pub hit: Vec<f64>,
    /// Cold request latencies (seconds).
    pub cold: Vec<f64>,
    /// Requests completed.
    pub requests: u64,
    /// Simulated instructions committed.
    pub committed: u64,
    /// Host seconds spent simulating them.
    pub sim_s: f64,
    /// Wall seconds of the window.
    pub wall_s: f64,
    /// Share of the host's CPU time stolen by other guests meanwhile.
    pub stolen: f64,
}

/// The windows that lost no more than the median stolen share: the
/// quieter half, or every window when none lost more than another.
fn quiet(windows: &[Window]) -> Vec<&Window> {
    let limit = median(&windows.iter().map(|w| w.stolen).collect::<Vec<_>>());
    windows.iter().filter(|w| w.stolen <= limit).collect()
}

/// Put the end-to-end metrics, in `BENCHMARK.json` order. A window
/// with no hit or no cold sample has no latency to report, so it
/// counts as a failure.
pub fn report(r: &mut Report, setup: &[f64], windows: &[Window], ck: &mut Checker) {
    for (i, w) in windows.iter().enumerate() {
        if w.hit.is_empty() || w.cold.is_empty() {
            ck.fail(format!(
                "window {i}: {} hits and {} colds",
                w.hit.len(),
                w.cold.len()
            ));
        }
    }
    let quiet = quiet(windows);
    let m = |f: &dyn Fn(&Window) -> f64| median(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>());
    r.put("setup_s", median(setup), "s");
    r.put(
        "sim_minstr_per_s",
        m(&|w| w.committed as f64 / w.sim_s / 1e6),
        "Minstr/s",
    );
    r.put("peak_rss_mib", peak_rss_mib(), "MiB");
    r.put("req_per_s", m(&|w| w.requests as f64 / w.wall_s), "1/s");
    r.put("hit_p50_ms", m(&|w| percentile(&w.hit, 50.0) * 1e3), "ms");
    // p90, not p99: on a two-vCPU guest 1-8% of CPU time goes to other
    // guests in slices of milliseconds, so the 1% tail of a 0.2 ms hit
    // measures those slices rather than the hit path (README.md).
    r.put("hit_p90_ms", m(&|w| percentile(&w.hit, 90.0) * 1e3), "ms");
    r.put("cold_p50_ms", m(&|w| percentile(&w.cold, 50.0) * 1e3), "ms");
    r.put("cold_p90_ms", m(&|w| percentile(&w.cold, 90.0) * 1e3), "ms");
}

/// Sample counts and per-window tails, for the human-readable report.
pub fn describe(windows: &[Window]) -> String {
    let per = |f: &dyn Fn(&Window) -> String| windows.iter().map(f).collect::<Vec<_>>().join(" ");
    format!(
        "{} windows; stolen % {}; hits {} (p90 ms {}) (p99 ms {}); colds {} (p90 ms {})",
        windows.len(),
        per(&|w| format!("{:.1}", w.stolen * 100.0)),
        per(&|w| w.hit.len().to_string()),
        per(&|w| format!("{:.3}", percentile(&w.hit, 90.0) * 1e3)),
        per(&|w| format!("{:.3}", percentile(&w.hit, 99.0) * 1e3)),
        per(&|w| w.cold.len().to_string()),
        per(&|w| format!("{:.3}", percentile(&w.cold, 90.0) * 1e3)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stolen(shares: &[f64]) -> Vec<Window> {
        shares
            .iter()
            .map(|&stolen| Window {
                stolen,
                ..Window::default()
            })
            .collect()
    }

    #[test]
    fn quiet_keeps_the_windows_with_least_stolen_time() {
        let w = stolen(&[0.09, 0.0, 0.12, 0.01, 0.0, 0.3, 0.02, 0.05]);
        let kept: Vec<f64> = quiet(&w).iter().map(|w| w.stolen).collect();
        assert_eq!(kept, [0.0, 0.01, 0.0, 0.02]);
    }

    #[test]
    fn quiet_keeps_every_window_when_none_lost_more() {
        assert_eq!(quiet(&stolen(&[0.0; 8])).len(), 8);
    }
}
