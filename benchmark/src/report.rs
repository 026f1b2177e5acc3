//! What one repeat of a workload measures, and how repeats fold into the
//! run's metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rekey_metrics::HistogramSnapshot;

/// Wall-clock spans around calls into the program's layers, kept only in
/// traced repeats. Each span accumulates its total time and call count.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, timing it under `name` when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Adds one call of `elapsed` under `name` when tracing is on.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        if self.on {
            let span = self.spans.entry(name).or_default();
            span.0 += elapsed;
            span.1 += 1;
        }
    }

    /// Mean seconds per call of span `name` (0 when never called).
    pub fn mean_s(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(total, calls)| total.as_secs_f64() / calls as f64)
    }
}

/// Output checks made by the benchmark itself, apart from the program.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// Everything one repeat (set-up plus drive on one seed) measured.
#[derive(Debug, Default)]
pub struct Repeat {
    /// Wall time of the set-up phase.
    pub setup: Duration,
    /// Minor page faults taken during set-up.
    pub setup_faults: u64,
    /// Wall time of the drive phase.
    pub drive: Duration,
    /// Process CPU time (all threads) during the drive phase.
    pub drive_cpu: Duration,
    /// Members × rekey intervals completed in the drive phase.
    pub member_intervals: u64,
    /// Encryptions members received in the drive phase, split payload
    /// plus unicast recovery.
    pub received_encryptions: u64,
    /// Overlay messages delivered in the drive phase.
    pub messages: u64,
    /// Simulated µs from each drive interval's multicast to each
    /// member's application of it.
    pub apply_delay_us: HistogramSnapshot,
    /// Deterministic per-layer counts.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer wall-clock spans (traced repeats only).
    pub spans: Spans,
    pub checks: Checks,
}

impl Repeat {
    /// Every count a fixed seed must reproduce exactly, by name: the
    /// count-based end-to-end metrics' numerators and denominators, the
    /// apply-delay percentiles, the per-layer counts and the failed checks.
    /// The checks made are left out: `sharded-leave` samples one check on
    /// its first repeat only.
    pub fn guarded_counts(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("member_intervals", self.member_intervals),
            ("received_encryptions", self.received_encryptions),
            ("messages", self.messages),
            ("apply_delay_p50_us", self.apply_delay_us.p50()),
            ("apply_delay_p99_us", self.apply_delay_us.p99()),
            ("checks_failed", self.checks.failed),
        ];
        out.extend(self.counts.iter().map(|(&k, &v)| (k, v)));
        out
    }
}

/// `after − before` of a cumulative histogram: the values recorded in
/// between. `min` is unknown for the difference, so it is taken as 0
/// (percentiles are then clamped to `[0, after.max]`).
pub fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = after.buckets.clone();
    for (b, &n) in buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= n;
    }
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        min: 0,
        max: after.max,
        buckets,
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
