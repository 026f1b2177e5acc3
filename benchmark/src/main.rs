//! End-to-end and per-layer benchmark of the group-rekeying workspace.
//!
//! ```text
//! rekey-benchmark --workload <sharded-leave|classic-churn|facade-churn>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It repeats the workload — set-up plus
//! drive, on inputs made from `--seed` — until the timed phases add up to
//! `--seconds` (at least [`MIN_REPEATS`] times), checks the program's
//! outputs after every repeat, fails the run when a deterministic count
//! differs between repeats, and prints the run report followed by one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` next to this crate.

mod classic;
mod facade;
mod report;
mod sharded;
mod sys;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use report::{median, Repeat, Spans};

/// Fewest repeats a run makes, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ShardedLeave,
    ClassicChurn,
    FacadeChurn,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ShardedLeave,
        Workload::ClassicChurn,
        Workload::FacadeChurn,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ShardedLeave => "sharded-leave",
            Workload::ClassicChurn => "classic-churn",
            Workload::FacadeChurn => "facade-churn",
        }
    }

    /// Runs one repeat.
    fn run(self, seed: u64, spans: Spans) -> Repeat {
        match self {
            Workload::ShardedLeave => sharded::run(seed, spans),
            Workload::ClassicChurn => classic::run(seed, spans),
            Workload::FacadeChurn => facade::run(seed, spans),
        }
    }

    /// One line describing the inputs, for the run report.
    fn inputs(self) -> String {
        match self {
            Workload::ShardedLeave => format!(
                "{} members, {} shards, {}% loss, {} intervals x {} leaves",
                sharded::MEMBERS,
                sharded::SHARDS,
                sharded::LOSS * 100.0,
                sharded::INTERVALS,
                sharded::LEAVES_PER_INTERVAL
            ),
            Workload::ClassicChurn => format!(
                "{} members joined one by one, {}% loss, {} intervals x (1 leave + 1 join)",
                classic::MEMBERS,
                classic::LOSS * 100.0,
                classic::INTERVALS
            ),
            Workload::FacadeChurn => format!(
                "{} members bootstrapped, {} intervals x ({} leaves + {} joins)",
                facade::MEMBERS,
                facade::INTERVALS,
                facade::CHURN_PER_INTERVAL,
                facade::CHURN_PER_INTERVAL
            ),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A metric of the final line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rekey-benchmark: {e}");
            eprintln!(
                "usage: rekey-benchmark --workload <sharded-leave|classic-churn|facade-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!("workload: {} ({})", workload.name(), workload.inputs());
    println!(
        "seed: {}  seconds: {}  trace: {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Repeat until the timed phases fill the budget. A traced run
    // alternates untraced and traced repeats, so the tracing overhead is
    // measured on the same inputs in the same process.
    let budget = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut repeats: Vec<Repeat> = Vec::new();
    while repeats.len() < MIN_REPEATS || measured < budget {
        let traced = args.trace && repeats.len() % 2 == 1;
        let rep = workload.run(args.seed, Spans::new(traced));
        measured += rep.setup + rep.drive;
        println!(
            "repeat {}{}: setup {:.4} s, drive {:.4} s, {} member-intervals, checks {}/{} passed",
            repeats.len() + 1,
            if traced { " (traced)" } else { "" },
            rep.setup.as_secs_f64(),
            rep.drive.as_secs_f64(),
            rep.member_intervals,
            rep.checks.run - rep.checks.failed,
            rep.checks.run
        );
        if let Some(failure) = &rep.checks.first_failure {
            println!("  first failed check: {failure}");
        }
        repeats.push(rep);
    }

    // Repeat guard: a fixed seed must reproduce every count exactly.
    let reference = repeats[0].guarded_counts();
    for (i, rep) in repeats.iter().enumerate().skip(1) {
        for ((name, want), (_, got)) in reference.iter().zip(rep.guarded_counts()) {
            if *want != got {
                eprintln!(
                    "rekey-benchmark: repeat {} counted {name} = {got}, repeat 1 counted {want}; \
                     a fixed seed must reproduce every count",
                    i + 1
                );
                return ExitCode::from(1);
            }
        }
    }

    let attempted: u64 = repeats
        .iter()
        .map(|r| r.member_intervals + r.checks.run)
        .sum();
    let failed: u64 = repeats.iter().map(|r| r.checks.failed).sum();
    let untraced: Vec<&Repeat> = repeats.iter().filter(|r| !r.spans.on()).collect();
    let traced: Vec<&Repeat> = repeats.iter().filter(|r| r.spans.on()).collect();
    let metrics = if args.trace {
        let overhead = |f: fn(&Repeat) -> f64| {
            let mut t: Vec<f64> = traced.iter().map(|r| f(r)).collect();
            let mut u: Vec<f64> = untraced.iter().map(|r| f(r)).collect();
            100.0 * (median(&mut t) / median(&mut u) - 1.0)
        };
        println!(
            "tracing overhead: setup {:+.2}%, drive {:+.2}% ({} traced vs {} untraced repeats)",
            overhead(|r| r.setup.as_secs_f64()),
            overhead(|r| r.drive.as_secs_f64()),
            traced.len(),
            untraced.len()
        );
        per_layer(&traced, &untraced)
    } else {
        end_to_end(&untraced)
    };
    println!(
        "env: cores {}, profile {}, sharded-leave shards {}, seal threads 1",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        sharded::SHARDS
    );
    println!("operations: {attempted} attempted, {failed} failed");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v:?}")
}

fn med(repeats: &[&Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    let mut values: Vec<f64> = repeats.iter().map(|r| f(r)).collect();
    median(&mut values)
}

fn end_to_end(repeats: &[&Repeat]) -> Vec<Metric> {
    // Count metrics repeat exactly (the guard has checked), so the first
    // repeat speaks for all.
    let first = repeats[0];
    let per_mi = |n: u64| n as f64 / first.member_intervals as f64;
    // Drive rates are taken over all repeats together: the machine's
    // speed drifts over seconds, and the whole run averages more of that
    // drift than any single repeat does.
    let member_intervals: u64 = repeats.iter().map(|r| r.member_intervals).sum();
    let drive: f64 = repeats.iter().map(|r| r.drive.as_secs_f64()).sum();
    let drive_cpu: f64 = repeats.iter().map(|r| r.drive_cpu.as_secs_f64()).sum();
    vec![
        ("setup_s", med(repeats, |r| r.setup.as_secs_f64()), "s"),
        (
            "member_intervals_per_s",
            member_intervals as f64 / drive,
            "1/s",
        ),
        (
            "cpu_us_per_member_interval",
            drive_cpu * 1e6 / member_intervals as f64,
            "us",
        ),
        (
            "peak_rss_mib",
            sys::usage().maxrss_kib as f64 / 1024.0,
            "MiB",
        ),
        (
            "rekey_encryptions_per_member_interval",
            per_mi(first.received_encryptions),
            "count",
        ),
        (
            "messages_per_member_interval",
            per_mi(first.messages),
            "count",
        ),
        (
            "apply_delay_p50_ms",
            first.apply_delay_us.p50() as f64 / 1e3,
            "ms",
        ),
        (
            "apply_delay_p99_ms",
            first.apply_delay_us.p99() as f64 / 1e3,
            "ms",
        ),
    ]
}

/// Per-layer spans: metric name, span name, scale from seconds, unit.
/// Each is the mean per call of the span over a traced repeat; a span the
/// workload never enters reads 0.
const SPAN_METRICS: [(&str, &str, f64, &str); 13] = [
    ("group.bootstrap_s", "group.bootstrap", 1.0, "s"),
    (
        "keytree.bootstrap_rekey_s",
        "keytree.bootstrap_rekey",
        1.0,
        "s",
    ),
    (
        "keytree.bootstrap_seal_s",
        "keytree.bootstrap_seal",
        1.0,
        "s",
    ),
    ("facade.bootstrap_s", "facade.bootstrap", 1.0, "s"),
    ("runtime.join_wave_s", "runtime.join_wave", 1.0, "s"),
    ("runtime.interval_s", "runtime.interval", 1.0, "s"),
    ("group.leave_us", "group.leave", 1e6, "us"),
    ("group.join_us", "group.join", 1e6, "us"),
    ("keytree.end_interval_s", "keytree.end_interval", 1.0, "s"),
    ("keytree.seal_s", "keytree.seal", 1.0, "s"),
    ("split.mesh_snapshot_s", "split.mesh_snapshot", 1.0, "s"),
    ("split.deliver_s", "split.deliver", 1.0, "s"),
    ("agent.apply_s", "agent.apply", 1.0, "s"),
];

/// Per-layer counts; a layer the workload never enters counts 0.
const COUNT_METRICS: [&str; 11] = [
    "group.table_records",
    "runtime.delivered",
    "runtime.pings",
    "runtime.forward_copies",
    "runtime.nacks",
    "runtime.recovery_encryptions",
    "runtime.retransmissions",
    "runtime.checkpoints",
    "sim.peak_queue_depth",
    "keytree.tree_encryptions",
    "split.received_encryptions",
];

fn per_layer(traced: &[&Repeat], untraced: &[&Repeat]) -> Vec<Metric> {
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(metric, span, scale, unit)| {
            (metric, med(traced, |r| r.spans.mean_s(span)) * scale, unit)
        })
        .collect();
    // `ShardedGroupRuntime::bootstrapped` runs the facade bootstrap, then
    // places every member into its shard; placement is the difference.
    out.push((
        "runtime.placement_s",
        med(traced, |r| {
            let bootstrapped = r.spans.mean_s("runtime.bootstrapped");
            if bootstrapped > 0.0 {
                bootstrapped - r.spans.mean_s("facade.bootstrap")
            } else {
                0.0
            }
        }),
        "s",
    ));
    // Set-up faults are read on untraced repeats: a traced set-up also
    // runs the bootstrap layers on their own.
    out.push((
        "mem.setup_minor_faults",
        med(untraced, |r| r.setup_faults as f64),
        "count",
    ));
    out.extend(COUNT_METRICS.iter().map(|&name| {
        let value = traced[0].counts.get(name).copied().unwrap_or(0);
        (name, value as f64, "count")
    }));
    out
}
