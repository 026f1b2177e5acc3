//! `facade-churn`: the synchronous `GroupServer`/`UserAgent` facade over
//! a ~4k-member bootstrapped group. Each interval requests a few dozen
//! leaves and joins, ends the interval, delivers the split rekey message
//! and has every member apply it. No event engine or runtime core runs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::Rng;
use rekey_crypto::Encryption;
use rekey_id::{IdSpec, UserId};
use rekey_metrics::LocalHistogram;
use rekey_net::{GridNetwork, HostId};
use rekey_proto::{
    Group, GroupConfig, GroupServer, IntervalOutcome, RekeyDelivery, UserAgent, WelcomePacket,
};
use rekey_sim::{seeded_rng, SimRng};
use rekey_table::Member;
use rekey_tmesh::Source;

use crate::report::{Checks, Repeat, Spans};
use crate::sys;
use crate::workload;

/// Members dealt at bootstrap.
pub const MEMBERS: usize = 4096;
/// Leaves, and joins, requested in each interval.
pub const CHURN_PER_INTERVAL: usize = 32;
/// Rekey intervals in one drive.
pub const INTERVALS: u64 = 12;
/// Neighbor-table redundancy.
const K: usize = 4;
/// One leaver is drawn among the hubs every this many intervals.
const HUB_EVERY: u64 = 4;
/// Simulated length of an interval (µs), for join timestamps.
const PERIOD: u64 = 10_000_000;
/// Plaintext the data-plane secrecy checks seal and open.
const PROBE: &[u8] = b"group data";

/// Runs one repeat: set-up (substrate and bootstrap), then the drive.
pub fn run(seed: u64, spans: Spans) -> Repeat {
    let mut rep = Repeat {
        spans,
        ..Repeat::default()
    };
    let spec = IdSpec::new(5, 8).expect("8^5 is a valid ID space");

    // ---- set-up -------------------------------------------------------
    let usage0 = sys::usage();
    let start = Instant::now();
    let net = GridNetwork::with_defaults(MEMBERS + 1);
    let server_host = HostId(MEMBERS);
    let hosts: Vec<HostId> = (0..MEMBERS).map(HostId).collect();
    let config = GroupConfig::for_spec(&spec).k(K).seed(seed);
    let (mut server, welcomes) = rep.spans.time("facade.bootstrap", || {
        config
            .bootstrap(server_host, &hosts, &net)
            .expect("the 8^5 ID space seats every member")
    });
    let mut agents: HashMap<UserId, UserAgent> = welcomes
        .into_iter()
        .map(|w| (w.id.clone(), UserAgent::from_welcome(w)))
        .collect();
    rep.setup = start.elapsed();
    rep.setup_faults = sys::usage().minor_faults - usage0.minor_faults;
    rep.counts.insert(
        "group.table_records",
        workload::table_records(server.group()),
    );

    // ---- drive --------------------------------------------------------
    let mut rng = seeded_rng(seed ^ workload::TRACE_SEED);
    let mut previous: Option<IntervalOutcome> = None;
    let mut apply_delay = LocalHistogram::new();
    let mut tree_encryptions = 0u64;
    let mut split_received = 0u64;
    for k in 1..=INTERVALS {
        let now = k * PERIOD;
        let leavers = draw_leavers(server.group(), k, &mut rng);
        let old_rings: Vec<UserAgent> = leavers
            .iter()
            .map(|(id, _)| agents.remove(id).expect("every member holds an agent"))
            .collect();

        let usage = sys::usage();
        let drive = Instant::now();
        for (id, _) in &leavers {
            let t = Instant::now();
            server
                .request_leave(id, &net)
                .expect("leavers are current members");
            rep.spans.add("group.leave", t.elapsed());
        }
        for &(_, host) in &leavers {
            let t = Instant::now();
            server
                .request_join(host, &net, now)
                .expect("the 8^5 ID space has room for every join");
            rep.spans.add("group.join", t.elapsed());
        }
        let outcome = rep
            .spans
            .time("keytree.end_interval", || server.end_interval());
        rep.spans
            .add("keytree.seal", Duration::from_nanos(outcome.seal_nanos()));
        let delivery = rep
            .spans
            .time("split.deliver", || server.deliver(&net, &outcome));
        let joiners: Vec<WelcomePacket> = outcome.welcomes.clone();
        for welcome in &joiners {
            agents.insert(welcome.id.clone(), UserAgent::from_welcome(welcome.clone()));
        }
        let t = Instant::now();
        let group = server.group();
        for (i, member) in group.members().iter().enumerate() {
            let agent = agents
                .get_mut(&member.id)
                .expect("every member holds an agent");
            agent.handle_rekey(outcome.interval, delivery.member(i));
        }
        rep.spans.add("agent.apply", t.elapsed());
        rep.drive += drive.elapsed();
        rep.drive_cpu += sys::usage().cpu - usage.cpu;
        rep.member_intervals += group.len() as u64;
        tree_encryptions += outcome.cost() as u64;
        split_received += delivery.total_received();

        // ---- what the interval delivered, measured and checked (untimed)
        let mesh = rep.spans.time("split.mesh_snapshot", || server.mesh());
        let multicast = mesh.multicast(&net, Source::Server);
        for i in 0..mesh.members().len() {
            let first = multicast
                .first_delivery(i)
                .expect("the T-mesh reaches every member");
            apply_delay.record(first.arrival);
        }
        rep.messages += multicast.transmissions().len() as u64 + joiners.len() as u64;
        check_interval(
            &mut rep.checks,
            &server,
            &outcome,
            &delivery,
            &agents,
            &old_rings,
            &joiners,
            previous.as_ref(),
        );
        rep.checks.check(multicast.exactly_once().is_ok(), || {
            format!("interval {k}: the T-mesh delivered some member twice or never")
        });
        rep.checks.check(
            outcome.departed.len() == CHURN_PER_INTERVAL
                && joiners.len() == CHURN_PER_INTERVAL
                && server.interval() == k + 1
                && group.len() == MEMBERS,
            || {
                format!(
                    "interval {k}: the server counted {} departures, {} joins, interval {}, \
                     {} members; the trace scheduled {CHURN_PER_INTERVAL}, \
                     {CHURN_PER_INTERVAL}, {}, {MEMBERS}",
                    outcome.departed.len(),
                    joiners.len(),
                    server.interval(),
                    group.len(),
                    k + 1
                )
            },
        );
        previous = Some(outcome);
    }
    rep.received_encryptions = split_received;
    rep.apply_delay_us = apply_delay.snapshot();
    rep.counts
        .insert("keytree.tree_encryptions", tree_encryptions);
    rep.counts
        .insert("split.received_encryptions", split_received);
    rep.checks.check(server.group().check().is_ok(), || {
        format!("tables are not K-consistent: {:?}", server.group().check())
    });
    rep
}

/// Draws the interval's leavers, each with its host (which joins again,
/// under a fresh ID, in the same interval, so the group keeps its size and
/// its spread over the substrate).
///
/// The draw is stratified by how many neighbor tables reference a member.
/// A bootstrapped group has a few dozen *hubs*, members held by most
/// tables, and one hub's leave repairs most tables (about a hundred times
/// a typical leave). Drawn uniformly, the number of hub leaves in a drive
/// would swing from 0 to 3 between seeds and with it the drive's time; so
/// every [`HUB_EVERY`]-th interval draws exactly one leaver among the hubs
/// — the rate a uniform draw has on average — and every other leaver is
/// drawn among the remaining members.
fn draw_leavers(group: &Group, k: u64, rng: &mut SimRng) -> Vec<(UserId, HostId)> {
    let mut refs: HashMap<&UserId, usize> = HashMap::new();
    for i in 0..group.len() {
        for record in group.table(i).iter_all() {
            *refs.entry(&record.member.id).or_default() += 1;
        }
    }
    let is_hub = |id: &UserId| refs.get(id).copied().unwrap_or(0) * 2 > group.len();
    let members = group.members();
    let (hubs, others): (Vec<&Member>, Vec<&Member>) = members.iter().partition(|m| is_hub(&m.id));
    let mut picked: Vec<&Member> = Vec::with_capacity(CHURN_PER_INTERVAL);
    if k % HUB_EVERY == 1 && !hubs.is_empty() {
        picked.push(hubs[rng.gen_range(0..hubs.len())]);
    }
    while picked.len() < CHURN_PER_INTERVAL {
        let m = others[rng.gen_range(0..others.len())];
        if !picked.iter().any(|p| p.id == m.id) {
            picked.push(m);
        }
    }
    picked.into_iter().map(|m| (m.id.clone(), m.host)).collect()
}

/// The checks of one interval, made apart from the program:
///
/// * Lemma 3 — each member received every encryption whose ID prefixes
///   its user ID, as computed here from the IDs;
/// * convergence — every member's group key is the server's;
/// * forward secrecy — each leaver's last ring, given the interval's
///   whole message, installs nothing, and cannot open data sealed under
///   the new group key;
/// * backward secrecy — each joiner's welcome keys, given the previous
///   interval's whole message, install nothing, and cannot open data
///   sealed under the previous group key.
#[allow(clippy::too_many_arguments)]
fn check_interval(
    checks: &mut Checks,
    server: &GroupServer,
    outcome: &IntervalOutcome,
    delivery: &RekeyDelivery<'_>,
    agents: &HashMap<UserId, UserAgent>,
    old_rings: &[UserAgent],
    joiners: &[WelcomePacket],
    previous: Option<&IntervalOutcome>,
) {
    let message: &[Encryption] = outcome.encryptions();
    let key = server.tree().group_key();
    let mut rng = seeded_rng(outcome.interval);
    for (i, member) in server.group().members().iter().enumerate() {
        let got = delivery.member_indices(i);
        let missing = message
            .iter()
            .enumerate()
            .filter(|(_, e)| e.id().is_prefix_of_id(&member.id))
            .find(|(e, _)| !got.contains(e));
        checks.check(missing.is_none(), || {
            format!(
                "interval {}: member {} did not receive encryption {} it needs (Lemma 3)",
                outcome.interval,
                member.id,
                missing.map_or(0, |(e, _)| e)
            )
        });
        checks.check(agents[&member.id].group_key() == key, || {
            format!(
                "interval {}: member {} does not hold the server's group key",
                outcome.interval, member.id
            )
        });
    }

    let sealer = &agents[&server.group().members()[0].id];
    let fresh = sealer
        .seal_data(PROBE, &mut rng)
        .expect("a member holds the group key");
    for ring in old_rings {
        let mut ring = ring.clone();
        let installed = ring.handle_rekey(outcome.interval, message).installed();
        checks.check(installed == 0 && ring.open_data(&fresh).is_err(), || {
            format!(
                "interval {}: departed member {} unwrapped {installed} keys or opened new data",
                outcome.interval,
                ring.id()
            )
        });
    }

    let Some(previous) = previous else {
        return;
    };
    // Data sealed under the previous group key, by a member that held it.
    let old_sealer = old_rings
        .first()
        .expect("every interval has leavers, who held the previous key");
    let stale = old_sealer
        .seal_data(PROBE, &mut rng)
        .expect("a member held the previous group key");
    for welcome in joiners {
        let mut ring = UserAgent::from_welcome(WelcomePacket {
            interval: 0,
            ..welcome.clone()
        });
        let installed = ring
            .handle_rekey(previous.interval, previous.encryptions())
            .installed();
        checks.check(installed == 0 && ring.open_data(&stale).is_err(), || {
            format!(
                "interval {}: joiner {} unwrapped {installed} earlier keys or opened earlier data",
                outcome.interval, welcome.id
            )
        });
    }
}
