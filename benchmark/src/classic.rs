//! `classic-churn`: the single-queue event runtime. About a thousand
//! members are admitted one by one through `JoinRequest`, then every
//! interval folds one leave and one join, under copy loss, with
//! heartbeats and the crash journal on.

use std::time::Instant;

use rand::Rng;
use rekey_id::IdSpec;
use rekey_net::{MatrixNetwork, PlanetLabParams};
use rekey_proto::{ChurnEvent, GroupConfig, GroupRuntime, RuntimeConfig};
use rekey_sim::seeded_rng;

use crate::report::{histogram_delta, Repeat, Spans};
use crate::sys;
use crate::workload::{self, table_records};

/// Members admitted by the opening join wave.
pub const MEMBERS: usize = 1024;
/// Per-copy loss probability of `Forward` copies.
pub const LOSS: f64 = 0.02;
/// Churned rekey intervals in one drive, each one leave plus one join.
pub const INTERVALS: u64 = 60;
/// Neighbor-table redundancy.
const K: usize = 4;
/// Spacing of the opening joins (µs).
const JOIN_GAP: u64 = 10_000;
const SEC: u64 = 1_000_000;
/// Seed of the RTT matrix. The substrate is the same for every workload
/// seed, which varies the churn, the loss draws and the keys on it.
const NET_SEED: u64 = 0x4E45_5421; // "NET!"

/// Runs one repeat: set-up (substrate and join wave), then the drive.
pub fn run(seed: u64, spans: Spans) -> Repeat {
    let mut rep = Repeat {
        spans,
        ..Repeat::default()
    };
    let config = RuntimeConfig::builder()
        .loss(LOSS)
        .seed(seed ^ workload::RUNTIME_SEED)
        .build();
    let period = config.rekey_period();
    let spec = IdSpec::new(4, 8).expect("8^4 is a valid ID space");
    // The opening wave is admitted, and one interval of slack has passed,
    // by `churn_start`, the middle of an interval.
    let wave_end = SEC + MEMBERS as u64 * JOIN_GAP;
    let churn_start = wave_end.div_ceil(period) * period + period + period / 2;

    // ---- set-up -------------------------------------------------------
    let usage0 = sys::usage();
    let start = Instant::now();
    let net = planetlab(MEMBERS + INTERVALS as usize + 1, NET_SEED);
    let mut rt = GroupRuntime::new(GroupConfig::for_spec(&spec).k(K).seed(seed), config, net);
    let wave: Vec<ChurnEvent> = (0..MEMBERS as u64)
        .map(|i| ChurnEvent::join(SEC + i * JOIN_GAP))
        .collect();
    let t = Instant::now();
    rt.run_trace(&wave);
    rt.run_until(churn_start);
    rep.spans.add("runtime.join_wave", t.elapsed());
    rep.setup = start.elapsed();
    rep.setup_faults = sys::usage().minor_faults - usage0.minor_faults;
    rep.counts
        .insert("group.table_records", table_records(rt.group()));
    let intervals_before = rt.server().interval();

    // ---- drive: each step folds one leave and one join into the interval
    // that closes inside it, and ends mid-way through the next one.
    let mut rng = seeded_rng(seed ^ workload::TRACE_SEED);
    let mut live: Vec<usize> = (0..MEMBERS).collect();
    let mut departed = Vec::new();
    let before = rt.snapshot();
    let usage1 = sys::usage();
    let drive = Instant::now();
    for k in 0..INTERVALS {
        let step_start = churn_start + k * period;
        let leaver = live.swap_remove(rng.gen_range(0..live.len()));
        departed.push(leaver);
        let t = Instant::now();
        let joined = rt.run_trace(&[
            ChurnEvent::leave(step_start + SEC, leaver),
            ChurnEvent::join(step_start + 3 * SEC),
        ]);
        rt.run_until(step_start + period);
        rep.spans.add("runtime.interval", t.elapsed());
        live.extend(joined);
        rep.member_intervals += rt.group().len() as u64;
    }
    rep.drive = drive.elapsed();
    rep.drive_cpu = sys::usage().cpu - usage1.cpu;
    let after = rt.snapshot();
    rep.received_encryptions = (after.split_payload.sum - before.split_payload.sum)
        + (after.recovery_encryptions - before.recovery_encryptions);
    rep.messages = after.delivered - before.delivered;
    rep.apply_delay_us = histogram_delta(&after.apply_delay_us, &before.apply_delay_us);
    workload::record_runtime_counts(&mut rep, &before, &after);

    // ---- shutdown and output checks (untimed) --------------------------
    let finish_at = churn_start + INTERVALS * period;
    rt.finish(finish_at);
    let end = rt.snapshot();
    // The server closes an interval at every period boundary before the
    // finish time; the drive folds all churn into those, so the shutdown
    // flush adds none.
    let scheduled_intervals = (finish_at - 1) / period;
    rep.checks.check(end.intervals == scheduled_intervals, || {
        format!(
            "{} intervals ran, {scheduled_intervals} were scheduled",
            end.intervals
        )
    });
    rep.checks.check(
        rt.server().interval() - intervals_before == INTERVALS,
        || {
            format!(
                "the drive closed {} intervals, {INTERVALS} were scheduled",
                rt.server().interval() - intervals_before
            )
        },
    );
    let joins = MEMBERS as u64 + INTERVALS;
    rep.checks.check(
        end.joins == joins && end.departures == INTERVALS && end.failures_detected == 0,
        || {
            format!(
                "program counted {} joins, {} departures, {} failures; the trace scheduled \
                 {joins}, {INTERVALS}, 0",
                end.joins, end.departures, end.failures_detected
            )
        },
    );
    // Departure bookkeeping, not a secrecy check: the runtime drops a
    // leaver's agent. Secrecy by decryption is checked in `facade-churn`.
    for &handle in &departed {
        rep.checks.check(rt.agent(handle).is_none(), || {
            format!("departed member {handle} still has an agent")
        });
    }
    live.sort_unstable();
    workload::check_convergence(
        &mut rep.checks,
        rt.server(),
        live.iter().map(|&h| (h, rt.agent(h))),
    );
    rep.checks.check(rt.check_consistency().is_ok(), || {
        format!(
            "member tables are not K-consistent: {:?}",
            rt.check_consistency()
        )
    });
    rep
}

/// A synthetic PlanetLab-like RTT matrix over `hosts` hosts, with the
/// default continent mix scaled to that size.
fn planetlab(hosts: usize, seed: u64) -> MatrixNetwork {
    let mut params = PlanetLabParams::default();
    let total: usize = params.continent_hosts.iter().sum();
    let mut scaled: Vec<usize> = params
        .continent_hosts
        .iter()
        .map(|&c| (c * hosts / total).max(1))
        .collect();
    let sum: usize = scaled.iter().sum();
    scaled[0] = scaled[0] + hosts - sum;
    params.continent_hosts = scaled;
    MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(seed))
}
