//! Small measurement helpers: percentiles, peak memory, the host
//! reference probe and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The benchmark's one clock read. Only the benchmark's own timers
/// call it; no clock value ever reaches simulated state.
// lint: allow(D5) -- this package is the benchmark: timing the program from outside is its job
#[allow(clippy::disallowed_methods)]
#[inline]
pub fn now() -> Instant {
    // lint: allow(D2) -- the benchmark times the program from outside; the clock never feeds a simulated result
    Instant::now()
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Cap glibc's malloc arenas at the number of CPUs the process may
/// use. Above that cap glibc opens another arena when it meets
/// contention it happens to see, a race that left some runs of the same
/// code with ~2.5 MiB more peak memory than others; capped, the peak
/// depends on what the program allocates. Call before any thread starts.
pub fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX`.
        const M_ARENA_MAX: i32 = -8;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // SAFETY: `mallopt` only sets an allocator parameter; no thread
        // is allocating concurrently yet.
        unsafe {
            mallopt(M_ARENA_MAX, i32::try_from(cpus).unwrap_or(i32::MAX));
        }
    }
}

/// The host reference probe: a fixed integer kernel (random updates
/// over a 1 MiB table) that lives in the benchmark and never changes.
/// Its time tracks how fast the host is running right now, so a
/// throttled run stands out. Returns seconds.
pub fn host_ref_s() -> f64 {
    const WORDS: usize = 1 << 18;
    const STEPS: u32 = 3_000_000;
    let start = now();
    let mut table = vec![0u32; WORDS];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (WORDS - 1);
        table[slot] = table[slot].wrapping_mul(31).wrapping_add(i);
    }
    black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Host CPU ticks so far as `(stolen, total)`, from the first line of
/// `/proc/stat`. Time the hypervisor gave to other guests shows up
/// here; `None` where the file is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the host's CPU time stolen between two `cpu_ticks` reads
/// (0 where either is missing).
pub fn stolen_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics so far.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Render the result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table (written to stderr).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Operation tallies: every operation attempted and every failure
/// (a `SimError`, an output mismatch, a non-200 answer or a
/// connection error).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.put("setup_s", 0.25, "s");
        assert_eq!(
            r.json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
