//! Pieces the workloads share: seed domains, runtime counter deltas and
//! the convergence check.

use rekey_proto::{Group, GroupServer, MetricsSnapshot, UserAgent};

use crate::report::{Checks, Repeat};

/// Domain separators deriving each input stream from the workload seed,
/// so the loss draws and the churn schedule are independent of the key
/// material and of one another.
pub const RUNTIME_SEED: u64 = 0x5255_4E54; // "RUNT"
pub const TRACE_SEED: u64 = 0x5452_4143; // "TRAC"

/// Neighbor records stored over every member's table.
pub fn table_records(group: &Group) -> u64 {
    (0..group.len())
        .map(|i| group.table(i).neighbor_count() as u64)
        .sum()
}

/// Records into `rep` the per-layer runtime counts accrued between two
/// snapshots of one session (the peak queue depth as of `after`).
pub fn record_runtime_counts(rep: &mut Repeat, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let (b, a) = (before, after);
    for (name, value) in [
        ("runtime.delivered", a.delivered - b.delivered),
        ("runtime.pings", a.pings - b.pings),
        (
            "runtime.forward_copies",
            a.forward_copies - b.forward_copies,
        ),
        ("runtime.nacks", a.nacks - b.nacks),
        (
            "runtime.recovery_encryptions",
            a.recovery_encryptions - b.recovery_encryptions,
        ),
        (
            "runtime.retransmissions",
            a.retransmissions - b.retransmissions,
        ),
        ("runtime.checkpoints", a.checkpoints - b.checkpoints),
        ("sim.peak_queue_depth", a.peak_queue_depth as u64),
        (
            "keytree.tree_encryptions",
            a.tree_encryptions - b.tree_encryptions,
        ),
    ] {
        rep.counts.insert(name, value);
    }
}

/// Convergence: every survivor holds an agent whose group key and
/// interval equal the server's.
pub fn check_convergence<'a>(
    checks: &mut Checks,
    server: &GroupServer,
    survivors: impl Iterator<Item = (usize, Option<&'a UserAgent>)>,
) {
    let key = server.tree().group_key();
    for (handle, agent) in survivors {
        checks.check(
            agent.is_some_and(|a| a.group_key() == key && a.interval() == server.interval()),
            || match agent {
                None => format!("survivor {handle} holds no keys"),
                Some(a) => {
                    format!(
                    "survivor {handle} is at interval {} with {} group key; the server is at {}",
                    a.interval(),
                    if a.group_key() == key { "the current" } else { "a stale" },
                    server.interval()
                )
                }
            },
        );
    }
}
