//! Model 1: the commit listing under `snapc_early_release`, as it ships.
//!
//! The harness holds a real [`CommitListing`] — the value every
//! `GlobalSnapshot` commit-state change goes through — and plays the world
//! around it (DESIGN.md §2.3): the stable-storage gather of each interval,
//! the death of the node holding the local scratch, and a restart that
//! reads [`CommitListing::latest_interval`]. `begin` takes the listing's
//! next number; the early-release path locally commits, the write-behind
//! gather drains, and `promote` asks the listing; the classic path commits
//! once its gather is done. Each step is one call that `GlobalSnapshot`
//! persists whole, so no state between two steps can be on disk.
//!
//! Invariants: a `GlobalCommitted` interval's gather is done, and so is
//! the one a restart observed; a new interval never gets a listed number;
//! an interval's commit state never moves down its lattice.
//!
//! Mutations ([`CommitModel`]): `promote_before_gather` promotes without
//! waiting for the gather, the bug early release would have without its
//! drain; `allow_regress` retires a committed interval and locally
//! commits it again, a demotion the lattice must never see.

use cr_core::snapshot::{CommitListing, CommitState};

use crate::checker::Model;

/// Progress of the write-behind gather for one interval.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Gather {
    /// No gather started.
    NotStarted,
    /// Write-behind transfer running on the source node.
    InFlight,
    /// All bytes on stable storage.
    Done,
    /// The source node died mid-transfer.
    Failed,
}

/// Global state: the shipped listing and the world around it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CommitSt {
    /// The commit listing, changed only through its own calls.
    pub listing: CommitListing,
    /// Gather progress of each begun interval (index = interval number).
    pub gathers: Vec<Gather>,
    /// Whether the source node (holding local scratch) is alive.
    pub node_alive: bool,
    /// Interval a restart chose, sticky once set.
    pub observed: Option<u64>,
}

/// The commit-listing harness; flags select mutated (buggy) worlds.
#[derive(Clone, Copy)]
pub struct CommitModel {
    /// Mutation: promote without waiting for the gather to drain.
    pub promote_before_gather: bool,
    /// Mutation: demote a committed interval by retiring and locally
    /// committing it again.
    pub allow_regress: bool,
    /// Intervals explored (default 3: a third begins while two gathers
    /// may still be in flight; journal replay sizes it to the `begin`s
    /// observed).
    pub max_intervals: usize,
}

impl Default for CommitModel {
    fn default() -> Self {
        CommitModel { promote_before_gather: false, allow_regress: false, max_intervals: 3 }
    }
}

impl CommitSt {
    fn state(&self, i: u64) -> CommitState {
        self.listing.commit_state(i)
    }

    /// A successor with interval `i`'s gather set to `gather` and `step`
    /// applied to its listing.
    fn with(&self, i: usize, gather: Gather, step: impl FnOnce(&mut CommitListing)) -> CommitSt {
        let mut t = self.clone();
        if let Some(g) = t.gathers.get_mut(i) {
            *g = gather;
        }
        step(&mut t.listing);
        t
    }
}

impl Model for CommitModel {
    type State = CommitSt;

    fn name(&self) -> &'static str {
        "commit"
    }

    fn initial(&self) -> Vec<CommitSt> {
        let listing = CommitListing::default();
        vec![CommitSt { listing, gathers: Vec::new(), node_alive: true, observed: None }]
    }

    fn transitions(&self, s: &CommitSt, out: &mut Vec<(String, CommitSt)>) {
        // begin: SNAPC opens the listing's next interval (a retry of one
        // that never committed reuses its number).
        let next = s.listing.next_interval();
        if s.node_alive && (next as usize) < self.max_intervals {
            let mut t = s.clone();
            t.gathers.truncate(next as usize);
            t.gathers.push(Gather::NotStarted);
            out.push((format!("begin({next})"), t));
        }
        for (i, &gather) in s.gathers.iter().enumerate() {
            let n = i as u64;
            if s.node_alive && s.state(n) == CommitState::Uncommitted {
                // Early release: locally durable, the gather drains behind.
                let t = s.with(i, Gather::InFlight, |l| l.local_commit(n));
                out.push((format!("local_commit({i})"), t));
                // Classic path: gather, then commit, before release.
                let t = s.with(i, Gather::Done, |l| l.commit(n));
                out.push((format!("blocking_commit({i})"), t));
            }
            if s.node_alive && gather == Gather::InFlight {
                out.push((format!("gather_done({i})"), s.with(i, Gather::Done, |_| {})));
            }
            if gather == Gather::Done || self.promote_before_gather {
                let mut t = s.clone();
                if t.listing.promote(n).is_ok() {
                    out.push((format!("promote({i})"), t));
                }
            }
            if self.allow_regress && s.state(n) == CommitState::GlobalCommitted {
                let t = s.with(i, gather, |l| {
                    l.retire(n);
                    l.local_commit(n);
                });
                out.push((format!("regress({i})"), t));
            }
        }
        // kill: the source node dies; every in-flight gather fails.
        if s.node_alive {
            let mut t = s.clone();
            t.node_alive = false;
            for g in t.gathers.iter_mut().filter(|g| **g == Gather::InFlight) {
                *g = Gather::Failed;
            }
            out.push(("kill".to_owned(), t));
        }
        // restart: read the newest globally committed interval.
        if let Some(i) = s.listing.latest_interval().filter(|i| s.observed != Some(*i)) {
            let mut t = s.clone();
            t.observed = Some(i);
            out.push((format!("restart({i})"), t));
        }
    }

    fn invariant(&self, s: &CommitSt) -> Result<(), String> {
        for (i, gather) in s.gathers.iter().enumerate() {
            let state = s.state(i as u64);
            if *gather == Gather::NotStarted && state != CommitState::Uncommitted {
                return Err(format!("interval {i} began again while {state}: numbering collided"));
            }
        }
        for i in s.listing.intervals().into_iter().chain(s.observed) {
            let gather = s.gathers.get(i as usize).copied();
            if gather != Some(Gather::Done) {
                return Err(format!(
                    "interval {i} is GlobalCommitted (or a restart read it) but its gather is \
                     {gather:?}: a restart-visible interval must be fully durable"
                ));
            }
        }
        Ok(())
    }

    fn step_invariant(&self, from: &CommitSt, action: &str, to: &CommitSt) -> Result<(), String> {
        for i in 0..to.gathers.len() as u64 {
            let (a, b) = (from.state(i), to.state(i));
            if b < a {
                return Err(format!(
                    "interval {i} regressed {a} -> {b} on `{action}`: promotion must be monotone"
                ));
            }
        }
        Ok(())
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
