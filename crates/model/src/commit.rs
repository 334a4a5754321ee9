//! Model 1: the `CommitState` lattice under `snapc_early_release`.
//!
//! Mirrors the production pipeline in `orte::snapc::gather_commit_cleanup`
//! (see DESIGN.md §2.3): an interval is captured and *locally* committed,
//! the stable-storage gather proceeds in a write-behind thread, and only
//! when the gather drains is the interval *promoted* to `GlobalCommitted`.
//! The classic blocking path commits atomically.  A node can be killed
//! mid-gather, failing every in-flight gather.  A restart observes the
//! newest `GlobalCommitted` interval.
//!
//! Each transition here is one call that replaces the global reference
//! whole (`GlobalSnapshot::{local_commit_interval, promote_interval,
//! commit_interval}`; gather stats travel inside the promotion, the rest of
//! the interval's record inside the commit), so no state between two model
//! steps can be on disk.
//!
//! Invariants:
//! - safety: a `GlobalCommitted` (restart-visible) interval has a fully
//!   drained gather — restart never depends on data that is not durable;
//! - monotonicity (step invariant): an interval's commit state never
//!   moves down the `Uncommitted < LocalCommitted < GlobalCommitted`
//!   lattice.
//!
//! Mutations (for the self-tests in `tests/mutations.rs`):
//! - [`CommitModel::promote_before_gather`] drops the gather-drained
//!   guard on promotion, exactly the bug `snapc_early_release` would
//!   have if promotion did not wait on the write-behind drain;
//! - [`CommitModel::allow_regress`] adds a direct "field write" that
//!   demotes a `GlobalCommitted` interval, the class of bug the
//!   `commit-state` cr-lint rule keeps out of production code.

use crate::checker::Model;

/// Commit lattice, mirroring `cr_core::snapshot::CommitState`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Commit {
    /// Captured but not yet locally durable.
    Uncommitted,
    /// Locally durable; gather to stable storage may still be in flight.
    LocalCommitted,
    /// Globally durable and restart-visible.
    GlobalCommitted,
}

/// Progress of the write-behind gather for one interval.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Gather {
    /// No gather started (pre-commit, or classic path pre-drain).
    NotStarted,
    /// Write-behind transfer running on the source node.
    InFlight,
    /// All bytes on stable storage.
    Done,
    /// Source node died mid-transfer.
    Failed,
}

/// Per-interval state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct IntervalSt {
    /// Position in the commit lattice.
    pub commit: Commit,
    /// Write-behind gather progress.
    pub gather: Gather,
}

/// Global state: the interval table, source-node liveness, and the
/// interval (if any) that a restart has observed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CommitSt {
    /// Intervals in begin order (index = interval id).
    pub intervals: Vec<IntervalSt>,
    /// Whether the source node (holding local scratch) is alive.
    pub node_alive: bool,
    /// Interval id a restart chose, sticky once set.
    pub observed: Option<usize>,
}

/// The commit-pipeline model; flags select mutated (buggy) variants.
#[derive(Clone, Copy)]
pub struct CommitModel {
    /// Mutation: promote without waiting for the gather to drain.
    pub promote_before_gather: bool,
    /// Mutation: allow a direct demotion of a committed interval.
    pub allow_regress: bool,
    /// Maximum concurrent intervals (default 2: tiny space that still
    /// covers cross-interval interleavings; journal replay sizes it to
    /// the number of `begin`s actually observed).
    pub max_intervals: usize,
}

impl Default for CommitModel {
    fn default() -> Self {
        CommitModel {
            promote_before_gather: false,
            allow_regress: false,
            max_intervals: 2,
        }
    }
}

impl Model for CommitModel {
    type State = CommitSt;

    fn name(&self) -> &'static str {
        "commit"
    }

    fn initial(&self) -> Vec<CommitSt> {
        vec![CommitSt { intervals: Vec::new(), node_alive: true, observed: None }]
    }

    fn transitions(&self, s: &CommitSt, out: &mut Vec<(String, CommitSt)>) {
        // begin: open a new interval on a live node.
        if s.node_alive && s.intervals.len() < self.max_intervals {
            let mut t = s.clone();
            t.intervals.push(IntervalSt { commit: Commit::Uncommitted, gather: Gather::NotStarted });
            out.push((format!("begin({})", s.intervals.len()), t));
        }
        for (i, iv) in s.intervals.iter().enumerate() {
            // local_commit: early-release path — locally durable, hand
            // the gather to the write-behind drain.
            if s.node_alive && iv.commit == Commit::Uncommitted {
                let mut t = s.clone();
                t.set(i, IntervalSt { commit: Commit::LocalCommitted, gather: Gather::InFlight });
                out.push((format!("local_commit({i})"), t));

                // blocking_commit: classic path — gather and global
                // commit complete atomically before release.
                let mut t = s.clone();
                t.set(i, IntervalSt { commit: Commit::GlobalCommitted, gather: Gather::Done });
                out.push((format!("blocking_commit({i})"), t));
            }
            // gather_done: the write-behind drain finishes.
            if s.node_alive && iv.gather == Gather::InFlight {
                let mut t = s.clone();
                t.set(i, IntervalSt { commit: iv.commit, gather: Gather::Done });
                out.push((format!("gather_done({i})"), t));
            }
            // promote: LocalCommitted -> GlobalCommitted once durable.
            let gather_ok = iv.gather == Gather::Done || self.promote_before_gather;
            if iv.commit == Commit::LocalCommitted && gather_ok {
                let mut t = s.clone();
                t.set(i, IntervalSt { commit: Commit::GlobalCommitted, gather: iv.gather });
                out.push((format!("promote({i})"), t));
            }
            // regress (mutation only): direct demotion, the kind of
            // write the commit-state lint rule forbids outside the
            // snapshot authority.
            if self.allow_regress && iv.commit == Commit::GlobalCommitted {
                let mut t = s.clone();
                t.set(i, IntervalSt { commit: Commit::LocalCommitted, gather: iv.gather });
                out.push((format!("regress({i})"), t));
            }
        }
        // kill: the source node dies; every in-flight gather fails.
        if s.node_alive {
            let mut t = s.clone();
            t.node_alive = false;
            t.intervals = t
                .intervals
                .iter()
                .map(|iv| {
                    if iv.gather == Gather::InFlight {
                        IntervalSt { commit: iv.commit, gather: Gather::Failed }
                    } else {
                        *iv
                    }
                })
                .collect();
            out.push(("kill".to_owned(), t));
        }
        // restart: observe the newest GlobalCommitted interval.
        let newest_global = s
            .intervals
            .iter()
            .enumerate()
            .rev()
            .find(|(_, iv)| iv.commit == Commit::GlobalCommitted)
            .map(|(i, _)| i);
        if let Some(i) = newest_global {
            if s.observed != Some(i) {
                let mut t = s.clone();
                t.observed = Some(i);
                out.push((format!("restart({i})"), t));
            }
        }
    }

    fn invariant(&self, s: &CommitSt) -> Result<(), String> {
        for (i, iv) in s.intervals.iter().enumerate() {
            if iv.commit == Commit::GlobalCommitted && iv.gather != Gather::Done {
                return Err(format!(
                    "interval {i} is GlobalCommitted but its gather is {:?}: \
                     a restart-visible interval must be fully durable",
                    iv.gather
                ));
            }
        }
        if let Some(i) = s.observed {
            let ok = s
                .intervals
                .get(i)
                .map(|iv| iv.commit == Commit::GlobalCommitted)
                .unwrap_or(false);
            if !ok {
                return Err(format!(
                    "restart observed interval {i} which is not GlobalCommitted"
                ));
            }
        }
        Ok(())
    }

    fn step_invariant(
        &self,
        from: &CommitSt,
        action: &str,
        to: &CommitSt,
    ) -> Result<(), String> {
        for (i, (a, b)) in from.intervals.iter().zip(to.intervals.iter()).enumerate() {
            if b.commit < a.commit {
                return Err(format!(
                    "interval {i} regressed {:?} -> {:?} on `{action}`: \
                     promotion must be monotone",
                    a.commit, b.commit
                ));
            }
        }
        if to.intervals.len() < from.intervals.len() {
            return Err(format!("interval table shrank on `{action}`"));
        }
        Ok(())
    }
}

impl CommitSt {
    /// Replace interval `i` (no-op when out of range; transitions only
    /// pass indices obtained by enumerating the live table).
    fn set(&mut self, i: usize, iv: IntervalSt) {
        if let Some(slot) = self.intervals.get_mut(i) {
            *slot = iv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Bounds};

    #[test]
    fn pristine_model_is_green() {
        let report = check(&CommitModel::default(), &Bounds::exhaustive());
        assert!(report.ok(), "{:?}", report.violation.map(|c| c.render()));
        assert!(report.exhaustive());
        assert!(report.states > 50, "space too small: {}", report.states);
    }
}
