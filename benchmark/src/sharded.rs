//! `sharded-leave`: the sharded windowed executor over a ~65k-member group
//! dealt in one bootstrap pass, driven through leave-only churned
//! intervals to `finish`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rand::seq::SliceRandom;
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{ModifiedKeyTree, RekeyArena};
use rekey_net::{GridNetwork, HostId};
use rekey_proto::{AssignParams, Group, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

use crate::report::{histogram_delta, Repeat, Spans};
use crate::sys;
use crate::workload::{self, table_records};

/// Members dealt at bootstrap: 16⁴ hosts in a 16⁵ ID space.
pub const MEMBERS: usize = 65_536;
/// Shards of the windowed executor. One shard drains inline on the
/// calling thread; see the README for why two are not used.
pub const SHARDS: usize = 1;
/// Send-time loss probability of each `Forward` copy.
pub const LOSS: f64 = 0.02;
/// Churned rekey intervals in one drive.
pub const INTERVALS: u64 = 5;
/// Voluntary leaves folded into each churned interval.
pub const LEAVES_PER_INTERVAL: usize = 2;
/// Neighbor-table redundancy.
const K: usize = 1;
/// Set once a repeat of this process has checked K-consistency.
static CONSISTENCY_SAMPLED: AtomicBool = AtomicBool::new(false);

fn spec() -> IdSpec {
    IdSpec::new(5, 16).expect("16^5 is a valid ID space")
}

/// Runs one repeat: set-up (substrate and bootstrap), then the drive.
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
    let group_config = || GroupConfig::for_spec(&spec()).k(K).seed(seed);

    // ---- set-up -------------------------------------------------------
    let usage0 = sys::usage();
    let start = Instant::now();
    let net = GridNetwork::with_defaults(MEMBERS + 1);
    let window = net.min_one_way();
    if rep.spans.on() {
        trace_bootstrap_layers(&mut rep, &net, group_config());
    }
    let build = Instant::now();
    let mut rt =
        ShardedGroupRuntime::bootstrapped(group_config(), config, net, MEMBERS, SHARDS, window)
            .expect("the 16^5 ID space seats every member");
    rep.spans.add("runtime.bootstrapped", build.elapsed());
    rep.setup = start.elapsed();
    rep.setup_faults = sys::usage().minor_faults - usage0.minor_faults;
    rep.counts
        .insert("group.table_records", table_records(rt.group()));

    // ---- the leave schedule: seeded, distinct, never the same member twice
    let mut rng = seeded_rng(seed ^ workload::TRACE_SEED);
    let mut handles: Vec<usize> = (0..MEMBERS).collect();
    handles.shuffle(&mut rng);
    let leavers: Vec<Vec<usize>> = (0..INTERVALS as usize)
        .map(|k| handles[k * LEAVES_PER_INTERVAL..(k + 1) * LEAVES_PER_INTERVAL].to_vec())
        .collect();
    for (k, batch) in leavers.iter().enumerate() {
        // Leaves land in the second half of the interval they are folded
        // into, spaced evenly so none coincide.
        let opens = k as u64 * period + period / 2;
        let step = (period / 2 - 1_000_000) / LEAVES_PER_INTERVAL as u64;
        for (j, &handle) in batch.iter().enumerate() {
            rt.leave_at(opens + j as u64 * step, handle);
        }
    }

    // ---- drive --------------------------------------------------------
    let before = rt.snapshot();
    let usage1 = sys::usage();
    let drive = Instant::now();
    for k in 1..=INTERVALS {
        let t = Instant::now();
        rt.run_until(k * period + period / 2);
        rep.spans.add("runtime.interval", t.elapsed());
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
    rt.finish((INTERVALS + 1) * period);
    let end = rt.snapshot();
    let departed: Vec<usize> = leavers.iter().flatten().copied().collect();
    rep.checks.check(end.intervals == INTERVALS, || {
        format!(
            "{} intervals ran, {INTERVALS} were scheduled",
            end.intervals
        )
    });
    rep.checks.check(
        end.departures == departed.len() as u64 && end.joins == 0,
        || {
            format!(
                "program counted {} departures and {} joins, the trace scheduled {} and 0",
                end.departures,
                end.joins,
                departed.len()
            )
        },
    );
    rep.checks
        .check(end.members == MEMBERS - departed.len(), || {
            format!(
                "{} members remain, expected {}",
                end.members,
                MEMBERS - departed.len()
            )
        });
    let server = rt.server();
    let mut gone = vec![false; MEMBERS];
    for &h in &departed {
        gone[h] = true;
    }
    for (handle, &left) in gone.iter().enumerate() {
        // Departure bookkeeping, not a secrecy check (see classic.rs).
        if left {
            rep.checks.check(rt.agent(handle).is_none(), || {
                format!("departed member {handle} still has an agent")
            });
        }
    }
    workload::check_convergence(
        &mut rep.checks,
        server,
        (0..MEMBERS).filter(|&h| !gone[h]).map(|h| (h, rt.agent(h))),
    );
    // K-consistency of every member's own table takes seconds at this
    // size, so only the first repeat in a process makes it.
    if !CONSISTENCY_SAMPLED.swap(true, Ordering::Relaxed) {
        let verdict = rt.check_consistency();
        rep.checks.check(verdict.is_ok(), || {
            format!("member tables are not K-consistent: {verdict:?}")
        });
    }
    rep
}

/// Times the layers the bootstrap is made of, each through its own
/// public entry point on the same inputs: the neighbor-table dealing
/// (`Group::bootstrap`), one batch rekey of every member into a fresh
/// key tree, and the whole facade bootstrap. The runtime's own placement
/// is what `ShardedGroupRuntime::bootstrapped` adds to the latter.
fn trace_bootstrap_layers(rep: &mut Repeat, net: &GridNetwork, config: GroupConfig) {
    let spec = spec();
    let hosts: Vec<HostId> = (0..MEMBERS).map(HostId).collect();
    let server_host = HostId(MEMBERS);
    let group = rep.spans.time("group.bootstrap", || {
        Group::bootstrap(
            &spec,
            server_host,
            K,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(spec.depth()),
            &hosts,
            net,
        )
        .expect("the 16^5 ID space seats every member")
    });
    let ids: Vec<UserId> = group.members().iter().map(|m| m.id.clone()).collect();
    drop(group);
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    let mut rng = seeded_rng(0);
    let start = Instant::now();
    let batch = tree
        .batch_rekey(&ids, &[], &mut rng, &mut arena)
        .expect("bootstrap IDs are unique non-members");
    rep.spans.add("keytree.bootstrap_rekey", start.elapsed());
    rep.spans.add(
        "keytree.bootstrap_seal",
        std::time::Duration::from_nanos(batch.seal_nanos()),
    );
    drop((tree, arena));
    let facade = rep.spans.time("facade.bootstrap", || {
        config
            .bootstrap(server_host, &hosts, net)
            .expect("the 16^5 ID space seats every member")
    });
    drop(facade);
}
