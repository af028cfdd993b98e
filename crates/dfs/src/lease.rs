//! Write leases: single-writer semantics plus crash recovery.
//!
//! HDFS grants the creating client a *lease* on every file open for
//! write. The lease is renewed implicitly while the writer makes progress
//! and released at close. When a writer crashes mid-write — the paper's
//! Section V war stories are full of student jobs dying mid-ingest — the
//! NameNode notices the lease going stale and runs **lease recovery**:
//! trailing blocks no DataNode ever confirmed are abandoned and the file
//! is finalized at its last consistent length, so readers never see a
//! half-written tail and the path stops being wedged forever.
//!
//! Expiry is two-staged like the real thing: after the **soft limit**
//! another client may claim the file (here: `recoverLease` is allowed);
//! after the **hard limit** the NameNode recovers it on its own. All
//! timing is [`SimTime`] — no wall clock ever leaks in.

use std::collections::BTreeMap;

use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64};

/// Where a lease is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Writer is (as far as the NameNode knows) alive and writing.
    Active,
    /// Soft limit passed without a renewal: another client may recover.
    SoftExpired,
    /// Hard limit passed (or recovery was requested): the next lease
    /// check finalizes the file. Observable in `fsck` as `RECOVERING`.
    Recovering,
}

impl LeaseState {
    fn tag(self) -> u64 {
        match self {
            LeaseState::Active => 0,
            LeaseState::SoftExpired => 1,
            LeaseState::Recovering => 2,
        }
    }

    fn from_tag(tag: u64) -> Result<Self> {
        match tag {
            0 => Ok(LeaseState::Active),
            1 => Ok(LeaseState::SoftExpired),
            2 => Ok(LeaseState::Recovering),
            t => Err(HlError::Codec(format!("unknown lease state tag {t}"))),
        }
    }
}

impl std::fmt::Display for LeaseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LeaseState::Active => "ACTIVE",
            LeaseState::SoftExpired => "SOFT_EXPIRED",
            LeaseState::Recovering => "RECOVERING",
        })
    }
}

/// One file's write lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Path of the file open for write.
    pub path: String,
    /// Who holds the lease (`DFSClient@node` style).
    pub holder: String,
    /// Last renewal (create, add-block, or explicit renew).
    pub renewed_at: SimTime,
    /// Lifecycle state.
    pub state: LeaseState,
}

impl Writable for Lease {
    fn write(&self, buf: &mut Vec<u8>) {
        self.path.write(buf);
        self.holder.write(buf);
        write_vu64(self.renewed_at.0, buf);
        write_vu64(self.state.tag(), buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Lease {
            path: String::read(buf)?,
            holder: String::read(buf)?,
            renewed_at: SimTime(read_vu64(buf)?),
            state: LeaseState::from_tag(read_vu64(buf)?)?,
        })
    }
}

/// True when `path` is `root` (no trailing `/`) or lies under it.
fn at_or_under(path: &str, root: &str) -> bool {
    path.strip_prefix(root).is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// The NameNode's lease table.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeaseManager {
    leases: BTreeMap<String, Lease>,
    soft_limit: SimDuration,
    hard_limit: SimDuration,
}

impl LeaseManager {
    /// Build a manager with the given expiry limits.
    pub(crate) fn new(soft_limit: SimDuration, hard_limit: SimDuration) -> Self {
        LeaseManager { leases: BTreeMap::new(), soft_limit, hard_limit }
    }

    /// Grant `holder` the lease on `path` (file creation).
    pub(crate) fn acquire(&mut self, now: SimTime, path: &str, holder: &str) {
        self.leases.insert(
            path.to_string(),
            Lease {
                path: path.to_string(),
                holder: holder.to_string(),
                renewed_at: now,
                state: LeaseState::Active,
            },
        );
    }

    /// Renew the lease on `path` (writer made progress).
    pub(crate) fn renew(&mut self, now: SimTime, path: &str) {
        if let Some(lease) = self.leases.get_mut(path) {
            lease.renewed_at = now;
            lease.state = LeaseState::Active;
        }
    }

    /// Drop the lease (file closed or deleted).
    pub(crate) fn release(&mut self, path: &str) -> Option<Lease> {
        self.leases.remove(path)
    }

    /// Drop the lease on `path` and on everything under it (recursive
    /// delete of a directory with files open for write).
    pub(crate) fn release_under(&mut self, path: &str) {
        let root = path.trim_end_matches('/');
        self.leases.retain(|p, _| !at_or_under(p, root));
    }

    /// Drop every lease (NameNode restart: the table is rebuilt from the
    /// fsimage + edit-log tail, not carried across the crash).
    pub(crate) fn clear(&mut self) {
        self.leases.clear();
    }

    /// Rename bookkeeping: a lease follows its file, and a renamed
    /// directory carries the lease of every file open for write under it.
    pub(crate) fn rename(&mut self, src: &str, dst: &str) {
        let (src, dst) = (src.trim_end_matches('/'), dst.trim_end_matches('/'));
        let moved: Vec<String> =
            self.leases.keys().filter(|p| at_or_under(p, src)).cloned().collect();
        for old in moved {
            if let Some(mut lease) = self.leases.remove(&old) {
                lease.path = format!("{dst}{}", &old[src.len()..]);
                self.leases.insert(lease.path.clone(), lease);
            }
        }
    }

    /// The lease on `path`, if the file is open for write.
    pub(crate) fn lease(&self, path: &str) -> Option<&Lease> {
        self.leases.get(path)
    }

    /// Every outstanding lease, path-ordered.
    pub(crate) fn leases(&self) -> impl Iterator<Item = &Lease> {
        self.leases.values()
    }

    /// Number of files open for write.
    pub(crate) fn len(&self) -> usize {
        self.leases.len()
    }

    /// Mark `path` for recovery (explicit `recoverLease` or hard expiry).
    /// Returns false if no lease exists.
    pub(crate) fn start_recovery(&mut self, path: &str) -> bool {
        match self.leases.get_mut(path) {
            Some(lease) => {
                lease.state = LeaseState::Recovering;
                true
            }
            None => false,
        }
    }

    /// Advance every lease's state machine one tick and return the paths
    /// whose recovery should be finalized *now*.
    ///
    /// Active → SoftExpired at the soft limit, → Recovering at the hard
    /// limit, and Recovering leases (set by the previous tick or by
    /// `recoverLease`) are handed back for finalization — one tick later,
    /// so the `RECOVERING` state is observable.
    pub(crate) fn check(&mut self, now: SimTime) -> Vec<String> {
        let mut to_finalize = Vec::new();
        for lease in self.leases.values_mut() {
            match lease.state {
                LeaseState::Recovering => to_finalize.push(lease.path.clone()),
                LeaseState::Active | LeaseState::SoftExpired => {
                    let idle = now.since(lease.renewed_at);
                    if idle >= self.hard_limit {
                        lease.state = LeaseState::Recovering;
                    } else if idle >= self.soft_limit {
                        lease.state = LeaseState::SoftExpired;
                    }
                }
            }
        }
        to_finalize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> LeaseManager {
        LeaseManager::new(SimDuration::from_secs(60), SimDuration::from_secs(300))
    }

    #[test]
    fn lease_round_trips() {
        for lease in [
            Lease {
                path: "/user/alice/out.txt".into(),
                holder: "DFSClient@node3".into(),
                renewed_at: SimTime(123_456),
                state: LeaseState::Active,
            },
            Lease {
                path: "/a".into(),
                holder: String::new(),
                renewed_at: SimTime::ZERO,
                state: LeaseState::SoftExpired,
            },
            Lease {
                path: String::new(),
                holder: "x".into(),
                renewed_at: SimTime(u64::MAX),
                state: LeaseState::Recovering,
            },
        ] {
            let bytes = lease.to_bytes();
            assert_eq!(Lease::from_bytes(&bytes).unwrap(), lease);
        }
        // Unknown state tags must be codec errors, not silent defaults.
        let mut bytes = Lease {
            path: "/a".into(),
            holder: "h".into(),
            renewed_at: SimTime(1),
            state: LeaseState::Active,
        }
        .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert!(Lease::from_bytes(&bytes).is_err());
    }

    #[test]
    fn state_machine_walks_soft_then_hard_then_finalizes() {
        let mut lm = manager();
        let t0 = SimTime::ZERO;
        lm.acquire(t0, "/f", "writer");
        assert_eq!(lm.lease("/f").map(|l| l.state), Some(LeaseState::Active));

        // Before soft limit: still active.
        assert!(lm.check(t0 + SimDuration::from_secs(59)).is_empty());
        assert_eq!(lm.lease("/f").map(|l| l.state), Some(LeaseState::Active));

        // Past soft, before hard: soft-expired but not recovered.
        assert!(lm.check(t0 + SimDuration::from_secs(61)).is_empty());
        assert_eq!(lm.lease("/f").map(|l| l.state), Some(LeaseState::SoftExpired));

        // Renewal rescues it.
        lm.renew(t0 + SimDuration::from_secs(90), "/f");
        assert_eq!(lm.lease("/f").map(|l| l.state), Some(LeaseState::Active));

        // Past hard: flips to Recovering on one tick, finalizes on the next.
        let late = t0 + SimDuration::from_secs(90 + 301);
        assert!(lm.check(late).is_empty());
        assert_eq!(lm.lease("/f").map(|l| l.state), Some(LeaseState::Recovering));
        assert_eq!(lm.check(late + SimDuration::from_secs(3)), vec!["/f".to_string()]);
    }

    #[test]
    fn explicit_recovery_skips_the_wait() {
        let mut lm = manager();
        lm.acquire(SimTime::ZERO, "/f", "writer");
        assert!(lm.start_recovery("/f"));
        assert!(!lm.start_recovery("/missing"));
        assert_eq!(lm.check(SimTime(1)), vec!["/f".to_string()]);
    }

    #[test]
    fn rename_carries_the_lease() {
        let mut lm = manager();
        lm.acquire(SimTime::ZERO, "/old", "w");
        lm.rename("/old", "/new");
        assert!(lm.lease("/old").is_none());
        assert_eq!(lm.lease("/new").map(|l| l.path.as_str()), Some("/new"));
        assert_eq!(lm.len(), 1);
        assert!(lm.release("/new").is_some());
        assert_eq!(lm.len(), 0);

        // A renamed directory carries every lease under it, and only those.
        lm.acquire(SimTime::ZERO, "/a/f", "w1");
        lm.acquire(SimTime::ZERO, "/a/sub/g", "w2");
        lm.acquire(SimTime::ZERO, "/a-b/h", "w3");
        lm.rename("/a/", "/b");
        let paths: Vec<&str> = lm.leases().map(|l| l.path.as_str()).collect();
        assert_eq!(paths, ["/a-b/h", "/b/f", "/b/sub/g"]);
        assert_eq!(lm.lease("/b/sub/g").map(|l| l.holder.as_str()), Some("w2"));
    }
}
