//! Whole-system invariant oracles, checked after every chaos run.
//!
//! Faults are *allowed* to fail jobs and lose replicas mid-run; the
//! oracles pin down what must still be true once the dust settles:
//!
//! 1. **durability** — every acknowledged DFS write reads back with its
//!    original CRC32, or `fsck` explicitly reports the file as missing
//!    blocks. Silent loss and silent corruption are violations.
//! 2. **ground-truth** — every job that *reported success* produced
//!    output equal to the `LocalRunner` (LocalJobRunner) ground truth;
//!    jobs may fail, but only cleanly (typed, expected errors).
//! 3. **replication** — once the protocol quiesces with every daemon
//!    revived, no block stays under-replicated (unless the NameNode is
//!    legitimately stuck in safe mode over genuinely missing blocks).
//! 4. **ghost-ports** — after session teardown plus one cleanup-cron
//!    sweep, no port binding survives anywhere on the campus.
//! 5. **accounting** — the trace and the `Chaos` counter group account
//!    for every planned fault: nothing injected silently, nothing
//!    double-counted.
//! 6. **lease-recovery** — every file opened by a crashed writer is
//!    eventually lease-recovered: closed at a consistent whole-block
//!    length that reads back as a CRC-valid prefix of what the writer
//!    sent, with no lease left behind.
//! 7. **metrics** — the observability layer is itself deterministic and
//!    honest: back-to-back snapshots of the quiesced cluster serialize
//!    byte-identically, the `chaos` daemon's counters reconcile with the
//!    injected fault count, and the NameNode's restart counter matches
//!    the NameNode restarts the plan caused — monotonic counters survive
//!    daemon restarts exactly once, neither double- nor under-counted.
//! 8. **scheduler-invariants** — under whichever policy the seed picked
//!    (FIFO/Fair/Capacity), no job starves: every submission ends as a
//!    completion or a (clean) failure; the JobTracker never accepts an
//!    invalid assignment; every completed task traces back to a recorded
//!    scheduler decision; and preemption accounting balances (preempted
//!    = re-queued = re-run — identically zero in the single-tenant
//!    engine; the replay driver exercises the non-zero case and the
//!    per-queue quota bounds round by round).
//! 9. **speculation** — speculative-execution accounting closes: every
//!    launched speculative attempt is settled as exactly one of
//!    won/lost/killed, and the engine never accepted an invalid
//!    speculation proposal. (The output half — speculation never changes
//!    a byte of job output — is the ground-truth oracle's job: every
//!    successful round runs with speculation on and is diffed against
//!    the unspeculated LocalJobRunner.)
//! 10. **charge-order** — every disk, NIC and uplink charge of the run was
//!     requested in virtual-time order: no op booked a pipe behind work an
//!     op requested later had booked there already
//!     (`ClusterNet::late_charges` is 0), so each pipe's FIFO queueing is
//!     the queueing the modelled cluster would see.

use std::collections::BTreeMap;

use hl_common::prelude::*;
use hl_dfs::fsck::fsck;

use crate::runner::ChaosRunner;

/// One broken invariant, attributed to the oracle that caught it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired ("durability", "ground-truth", ...).
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Errors a chaos-era job is *allowed* to die of: typed failures the
/// engine hands back deliberately. Anything else leaking out of a run is
/// an unclean failure and a violation in itself.
pub(crate) fn is_clean_failure(e: &HlError) -> bool {
    matches!(
        e,
        HlError::SafeMode(_)
            | HlError::DaemonDown(_)
            | HlError::JobFailed(_)
            | HlError::TaskFailed(_)
            | HlError::AlreadyExists(_)
            | HlError::MissingBlock { .. }
            | HlError::InsufficientReplication { .. }
    )
}

/// Parse `key\tcount` wordcount output into a map (blank lines skipped).
pub(crate) fn parse_counts(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some((word, count)) = line.split_once('\t') {
            if let Ok(n) = count.trim().parse::<u64>() {
                *out.entry(word.to_string()).or_insert(0) += n;
            }
        }
    }
    out
}

/// Oracle 1: every acknowledged write still reads back byte-identical
/// (CRC32 against the ack-time checksum), or `fsck` owns up to the loss.
pub(crate) fn verify_durability(r: &mut ChaosRunner) {
    let acked = std::mem::take(&mut r.acked);
    let mut unreadable: Vec<(String, HlError)> = Vec::new();
    for w in &acked {
        let now = r.cluster.now;
        match r.cluster.dfs.read(&mut r.cluster.net, now, &w.path, None) {
            Ok(t) => {
                r.cluster.now = t.completed_at;
                if t.value.len() as u64 != w.len || Crc32::checksum(&t.value) != w.crc {
                    r.violate(
                        "durability",
                        format!("{}: read bytes differ from the acknowledged write", w.path),
                    );
                }
            }
            Err(e) => unreadable.push((w.path.clone(), e)),
        }
    }
    r.acked = acked;
    if unreadable.is_empty() {
        return;
    }
    // Losses are tolerable only when fsck reports them: "we lost it" is
    // an answer, "it's fine" while it's gone is not.
    match fsck(&r.cluster.dfs, "/") {
        Ok(report) => {
            for (path, e) in unreadable {
                let owned_up = report.files.iter().any(|f| f.path == path && f.missing > 0);
                if owned_up {
                    let now = r.cluster.now;
                    r.cluster.log.log(now, "chaos", format!("{path} lost, and fsck reports it"));
                } else {
                    r.violate(
                        "durability",
                        format!("{path}: unreadable ({e}) yet fsck calls it healthy"),
                    );
                }
            }
        }
        Err(e) => r.violate("durability", format!("fsck itself failed: {e}")),
    }
}

/// Oracle 6: every file a crashed writer left open must be lease-recovered
/// once the lease monitor has had time to run — closed at a consistent
/// whole-block length that reads back as a CRC-valid prefix of the bytes
/// the writer sent, with no lease outstanding. A NameNode stuck in safe
/// mode over genuinely missing blocks is excused (the lease monitor
/// legitimately idles there; oracle 3 audits that end state).
pub(crate) fn verify_lease_recovery(r: &mut ChaosRunner) {
    if r.cluster.dfs.namenode.safemode.is_on() {
        if !r.cluster.dfs.namenode.missing_blocks().is_empty() {
            let now = r.cluster.now;
            r.cluster.log.log(
                now,
                "chaos",
                "stuck in safe mode over missing blocks; lease recovery cannot run",
            );
        }
        return;
    }
    // Let the clock run until every lease is recovered: 150 heartbeat
    // intervals (450 s) comfortably clear the 300 s hard limit even for a
    // writer that crashed moments before teardown.
    let mut t = r.cluster.now;
    for _ in 0..150 {
        if r.cluster.dfs.namenode.open_files().is_empty() {
            break;
        }
        t += r.cluster.dfs.namenode.heartbeat_interval();
        r.cluster.dfs.advance_to(&mut r.cluster.net, t);
    }
    r.cluster.now = t;
    let stuck: Vec<String> = r
        .cluster
        .dfs
        .namenode
        .open_files()
        .iter()
        .map(|l| {
            format!(
                "{} still open for write (holder {}, state {}) after quiesce",
                l.path, l.holder, l.state
            )
        })
        .collect();
    for detail in stuck {
        r.violate("lease-recovery", detail);
    }
    let block_size = r.cluster.dfs.namenode.default_block_size();
    let open_writers = std::mem::take(&mut r.open_writers);
    for (path, intended) in &open_writers {
        let meta = match r.cluster.dfs.namenode.namespace().file(path) {
            Ok(f) => (f.complete, f.len),
            Err(e) => {
                r.violate("lease-recovery", format!("{path}: vanished during recovery: {e}"));
                continue;
            }
        };
        let (complete, len) = meta;
        if !complete {
            r.violate("lease-recovery", format!("{path}: never finalized (len {len})"));
            continue;
        }
        // The recovered length must be a whole-block prefix of the write:
        // pipelines confirm block-at-a-time, so any other length means the
        // NameNode kept a block no DataNode ever finished ingesting.
        if len > intended.len() as u64 || !len.is_multiple_of(block_size) {
            r.violate(
                "lease-recovery",
                format!(
                    "{path}: recovered to {len} bytes, not a whole-block prefix of {}",
                    intended.len()
                ),
            );
            continue;
        }
        let now = r.cluster.now;
        match r.cluster.dfs.read(&mut r.cluster.net, now, path, None) {
            Ok(t) => {
                r.cluster.now = t.completed_at;
                let want = &intended[..len as usize];
                if t.value != want {
                    r.violate(
                        "lease-recovery",
                        format!("{path}: recovered bytes differ from the writer's prefix"),
                    );
                } else {
                    let at = r.cluster.now;
                    r.cluster.log.log(
                        at,
                        "chaos",
                        format!("{path} lease-recovered to {len} consistent byte(s)"),
                    );
                }
            }
            Err(e) => {
                r.violate("lease-recovery", format!("{path}: unreadable after recovery: {e}"))
            }
        }
    }
    r.open_writers = open_writers;
}

/// Oracle 3: with every daemon revived and block reports synced, drive
/// heartbeat rounds until re-replication quiesces; nothing may stay
/// under-replicated. A NameNode stuck in safe mode is excused only while
/// blocks are genuinely missing (the paper's corrupted-cluster end state).
pub(crate) fn quiesce_replication(r: &mut ChaosRunner) {
    if r.cluster.dfs.namenode.safemode.is_on() {
        if r.cluster.dfs.namenode.missing_blocks().is_empty() {
            r.violate("replication", "safe mode still on with no missing blocks".into());
        } else {
            let now = r.cluster.now;
            r.cluster.log.log(
                now,
                "chaos",
                "stuck in safe mode over missing blocks; replication cannot quiesce",
            );
        }
        return;
    }
    let mut t = r.cluster.now;
    for _ in 0..80 {
        if r.cluster.dfs.namenode.under_replicated().is_empty() {
            break;
        }
        t += r.cluster.dfs.namenode.heartbeat_interval();
        r.cluster.dfs.advance_to(&mut r.cluster.net, t);
    }
    r.cluster.now = t;
    let leftover = r.cluster.dfs.namenode.under_replicated();
    if !leftover.is_empty() {
        r.violate(
            "replication",
            format!("{} block(s) still under-replicated after quiesce", leftover.len()),
        );
    }
}

/// Oracle 4: release the session's own ports, run the cleanup cron once
/// past its period, and require an empty port registry.
pub(crate) fn verify_ports(r: &mut ChaosRunner) {
    let released = r.campus.ports.release_owner(crate::runner::SESSION_OWNER);
    if released != r.session_ports {
        r.violate(
            "ghost-ports",
            format!("session released {released} ports, bound {}", r.session_ports),
        );
    }
    let horizon = r.campus.now.max(r.cluster.now) + SimDuration::from_mins(16);
    r.campus.advance_to(horizon);
    if !r.campus.ports.is_empty() {
        r.violate(
            "ghost-ports",
            format!("{} port binding(s) survive teardown + cleanup cron", r.campus.ports.len()),
        );
    }
}

/// Oracle 5: the plan, the trace, and the counters agree on how many
/// faults were injected.
pub(crate) fn verify_accounting(r: &mut ChaosRunner) {
    let planned = r.plan.len();
    let traced =
        r.cluster.log.from_source("chaos").filter(|e| e.message.starts_with("inject ")).count();
    let counted: u64 =
        r.counters.iter().filter(|(group, _, _)| *group == "Chaos").map(|(_, _, v)| v).sum();
    if traced != planned || counted != planned as u64 || r.injected as usize != planned {
        r.violate(
            "accounting",
            format!(
                "planned {planned} fault(s); injected {}, traced {traced}, counted {counted}",
                r.injected
            ),
        );
    }
}

/// Oracle 7: **metrics**. The instruments measuring the chaos must be as
/// deterministic as the chaos itself. Snapshotting twice in a row (with
/// no intervening simulated events) must serialize byte-identically; the
/// `chaos` daemon's counter mirror must account for every injected fault;
/// and the NameNode's `restarts` counter must equal the number of
/// NameNode restarts the plan scheduled — proof the registry's restart
/// semantics preserve monotonic counters without double-counting.
pub(crate) fn verify_metrics(r: &mut ChaosRunner) {
    let snap = r.cluster.metrics_snapshot();
    let again = r.cluster.metrics_snapshot();
    if snap.to_bytes() != again.to_bytes() {
        r.violate("metrics", "back-to-back snapshots serialize differently".to_string());
    }

    let counted: u64 = snap
        .samples
        .iter()
        .filter(|s| s.daemon == "chaos")
        .filter_map(|s| match s.value {
            hl_metrics::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum();
    if counted != u64::from(r.injected) {
        r.violate(
            "metrics",
            format!("chaos daemon counted {counted} fault(s), runner injected {}", r.injected),
        );
    }

    // Every NameNode-restarting fault routes through `Dfs::restart_all`,
    // which bumps the counter exactly once even when the cluster ends the
    // run legitimately stuck in safe mode.
    let expected_nn_restarts = r
        .plan
        .faults
        .iter()
        .filter(|p| {
            matches!(
                p.fault,
                crate::plan::Fault::RestartNameNode
                    | crate::plan::Fault::KillDaemon {
                        kind: hl_cluster::failure::DaemonKind::NameNode,
                        ..
                    }
            )
        })
        .count() as u64;
    let got = snap.counter("namenode", "restarts");
    if got != expected_nn_restarts {
        r.violate(
            "metrics",
            format!(
                "namenode restarts counter reads {got}, plan restarted it {expected_nn_restarts} time(s)"
            ),
        );
    }
}

/// Oracle 8: the pluggable scheduler kept its invariants under whichever
/// policy this seed selected (`seed % 3` → FIFO/Fair/Capacity).
pub(crate) fn verify_scheduler(r: &mut ChaosRunner) {
    let snap = r.cluster.metrics_snapshot();

    // No starvation: every job the plan submitted reached a terminal
    // state — the scheduler never left one parked forever.
    let submitted = snap.counter("jobtracker", "jobs.submitted");
    let completed = snap.counter("jobtracker", "jobs.completed");
    let failed = snap.counter("jobtracker", "jobs.failed");
    if submitted != completed + failed {
        r.violate(
            "scheduler-invariants",
            format!(
                "starvation: {submitted} job(s) submitted but only {completed} completed + {failed} failed"
            ),
        );
    }

    // The engine validates every assignment against its slot table and
    // pending set; a policy handing back an out-of-range slot/task would
    // bump this counter before failing the job.
    let invalid = snap.counter("jobtracker", "sched.invalid");
    if invalid != 0 {
        r.violate(
            "scheduler-invariants",
            format!("scheduler produced {invalid} invalid assignment(s)"),
        );
    }

    // Slot accounting: every task that ran to completion was placed by a
    // recorded scheduler decision (a retry is a decision of its own, so
    // `>=`).
    let hist_count = |name: &str| match snap.get("jobtracker", name) {
        Some(hl_metrics::MetricValue::Histogram(h)) => h.count(),
        _ => 0,
    };
    let decisions = snap.counter("jobtracker", "sched.decisions");
    let tasks_done = hist_count("map.duration_ms") + hist_count("reduce.duration_ms");
    if decisions < tasks_done {
        r.violate(
            "scheduler-invariants",
            format!("{tasks_done} task(s) completed but only {decisions} scheduler decision(s) recorded"),
        );
    }

    // Preemption accounting balances: every preempted attempt was
    // re-queued and eventually re-run. The single-tenant engine keeps all
    // three at zero; the replay driver exercises the non-zero case.
    let preempted = snap.counter("jobtracker", "sched.preempted");
    let requeued = snap.counter("jobtracker", "sched.requeued");
    let rerun = snap.counter("jobtracker", "sched.rerun");
    if preempted != requeued || requeued != rerun {
        r.violate(
            "scheduler-invariants",
            format!(
                "preemption accounting skewed: {preempted} preempted, {requeued} requeued, {rerun} rerun"
            ),
        );
    }
}

/// Oracle 9: **speculation**. The attempt taxonomy is closed by
/// construction — `launched = won + lost + killed`, with zero invalid
/// proposals — and the metrics must prove it after an arbitrary fault
/// schedule. Paired with the ground-truth oracle (which diffs every
/// successful speculated job against the unspeculated LocalJobRunner),
/// this pins speculation down as pure insurance: it may move work
/// between nodes and waste cycles, never change an output byte.
pub(crate) fn verify_speculation(r: &mut ChaosRunner) {
    let snap = r.cluster.metrics_snapshot();
    let launched = snap.counter("jobtracker", "spec.launched");
    let won = snap.counter("jobtracker", "spec.won");
    let lost = snap.counter("jobtracker", "spec.lost");
    let killed = snap.counter("jobtracker", "spec.killed");
    if launched != won + lost + killed {
        r.violate(
            "speculation",
            format!(
                "attempt taxonomy leaks: {launched} launched != {won} won + {lost} lost + {killed} killed"
            ),
        );
    }
    let invalid = snap.counter("jobtracker", "spec.invalid");
    if invalid != 0 {
        r.violate(
            "speculation",
            format!("engine refused {invalid} invalid speculation proposal(s)"),
        );
    }
    // Wasted work only exists where attempts raced or died: zero attempts
    // must mean zero waste charged to the cost model.
    let wasted = snap.counter("jobtracker", "spec.wasted_us");
    if launched == 0 && wasted != 0 {
        r.violate(
            "speculation",
            format!("{wasted} us of speculative waste charged with no attempts launched"),
        );
    }
}

/// Oracle 10: the run booked its pipe charges in virtual-time order.
pub(crate) fn verify_charge_order(r: &mut ChaosRunner) {
    let late = r.cluster.net.late_charges();
    if late != 0 {
        r.violate("charge-order", format!("{late} charge(s) booked behind a later request"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_failure_classification() {
        assert!(is_clean_failure(&HlError::SafeMode("on".into())));
        assert!(is_clean_failure(&HlError::JobFailed("retries exhausted".into())));
        assert!(is_clean_failure(&HlError::MissingBlock { block_id: 1, path: "/f".into() }));
        assert!(!is_clean_failure(&HlError::Internal("bug".into())));
        assert!(!is_clean_failure(&HlError::Codec("bad tag".into())));
        assert!(!is_clean_failure(&HlError::Config("missing key".into())));
    }

    #[test]
    fn parse_counts_sums_duplicate_keys_across_parts() {
        let text = "a\t2\nb\t1\n\na\t3\n";
        let m = parse_counts(text);
        assert_eq!(m.get("a"), Some(&5));
        assert_eq!(m.get("b"), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn violation_display_names_the_oracle() {
        let v = Violation { oracle: "durability", detail: "gone".into() };
        assert_eq!(v.to_string(), "[durability] gone");
    }
}
