//! The benchmark's own arithmetic (medians, percentiles, per-event costs,
//! accuracy formulas), host probes read from `/proc/self/status`, and the
//! result line. Everything here is pure except the two `/proc` readers, so
//! the formulas are unit-tested below.

use std::fmt::Write as _;
use std::thread::ThreadId;
use std::time::Duration;

/// One reported metric: name, value as measured, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Host nanoseconds per simulated event: `wall_s` seconds over `events`.
pub fn ns_per(wall_s: f64, events: u64) -> f64 {
    ratio(wall_s * 1e9, events as f64)
}

/// Geometric mean (1.0 for no values).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Mean absolute distance, in percentage points, between measured gmean IPC
/// gains over the baseline (`(gmean_speedup, paper_gain_pct)` pairs; a
/// speedup of 1.2 is a +20 % gain) and the gains the paper reports.
pub fn paper_gap_pp(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(speedup, paper)| (100.0 * (speedup - 1.0) - paper).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

/// Relative error of `estimate` against `reference`, in percent.
pub fn rel_err_pct(estimate: f64, reference: f64) -> f64 {
    100.0 * ratio((estimate - reference).abs(), reference)
}

/// One unit of pool work on the time line of its phase.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Duration,
    pub end: Duration,
    pub thread: ThreadId,
}

impl Span {
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Σ span time ÷ (phase wall × workers): how much of the pool's capacity
/// the phase kept busy. Nested pools can push it above 1.
pub fn busy_share(spans: &[Span], wall: Duration, workers: usize) -> f64 {
    let busy: f64 = spans.iter().map(|s| s.len().as_secs_f64()).sum();
    ratio(busy, wall.as_secs_f64() * workers as f64)
}

/// How long the last worker ran after the first one went idle: the spread
/// between the workers' final span ends, in milliseconds.
pub fn straggler_ms(spans: &[Span]) -> f64 {
    let mut last_end: Vec<(ThreadId, Duration)> = Vec::new();
    for s in spans {
        match last_end.iter_mut().find(|(t, _)| *t == s.thread) {
            Some((_, end)) => *end = (*end).max(s.end),
            None => last_end.push((s.thread, s.end)),
        }
    }
    let ends = last_end.iter().map(|(_, e)| *e);
    match (ends.clone().min(), ends.max()) {
        (Some(first_idle), Some(last)) => (last - first_idle).as_secs_f64() * 1e3,
        _ => 0.0,
    }
}

/// Reads one `kB`/count field of `/proc/self/status`.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process right now.
pub fn live_threads() -> u64 {
    proc_status_field("Threads").unwrap_or(0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric as `{"value": .., "unit": ..}`. Values print with the
/// shortest representation that round-trips, i.e. all their digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles_with_sample_count() {
        let values: Vec<f64> = (1..=110).map(f64::from).collect();
        // 110 samples: p90 is the 99th value and leaves 11 samples above.
        assert_eq!(percentile(&values, 90.0), 99.0);
        assert_eq!(percentile(&values, 50.0), 55.0);
        assert_eq!(percentile(&values, 100.0), 110.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn per_event_costs() {
        // 6 s over 48.7 M cycles is about 123 ns per cycle.
        let ns = ns_per(6.0, 48_700_000);
        assert!((ns - 123.203).abs() < 1e-3, "{ns}");
        assert_eq!(ns_per(1.0, 0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn gap_and_error_formulas() {
        // +20 % measured vs +14.5 % in the paper is 5.5 pp; +30 % vs +35.5 %
        // is 5.5 pp as well, so the mean gap is 5.5.
        let gap = paper_gap_pp(&[(1.20, 14.5), (1.30, 35.5)]);
        assert!((gap - 5.5).abs() < 1e-9, "{gap}");
        assert_eq!(paper_gap_pp(&[]), 0.0);
        assert!((rel_err_pct(0.99, 1.0) - 1.0).abs() < 1e-9);
        assert!((rel_err_pct(1.01, 1.0) - 1.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 1.0);
    }

    #[test]
    fn pool_shares_and_stragglers() {
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let ms = Duration::from_millis;
        let spans = [
            Span {
                start: ms(0),
                end: ms(40),
                thread: a,
            },
            Span {
                start: ms(40),
                end: ms(100),
                thread: a,
            },
            Span {
                start: ms(0),
                end: ms(70),
                thread: b,
            },
        ];
        // 170 ms busy over 100 ms × 2 workers.
        assert!((busy_share(&spans, ms(100), 2) - 0.85).abs() < 1e-9);
        // Worker b went idle at 70 ms, worker a finished at 100 ms.
        assert!((straggler_ms(&spans) - 30.0).abs() < 1e-9);
        assert_eq!(straggler_ms(&[]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("x", f64::NAN, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn proc_probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(live_threads() >= 1);
    }
}
