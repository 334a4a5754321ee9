//! Model 5: partial restart with sender-side message-log replay, as it
//! ships.
//!
//! The harness holds a survivor's real [`MsgLog`] and classifies every
//! frame the failable rank `f` takes with the PML's own [`arrival`] rule
//! (DESIGN.md §2.8). It plays the world around them: the FIFO channel to
//! `f`'s endpoint, the kill that empties it, and the restore. The survivor
//! logs every send (a send to a dead `f` is logged and counted all the
//! same). A checkpoint quiesces the channel and marks the log; its global
//! commit comes at once or after more traffic, or never, and raises the
//! commit watermark the survivor trims its log to at its next send or
//! quiesce, as `CoordCrcp` does. A restore rolls `f` back to the
//! committed counts, and the survivor answers its `ReplayBegin` at once,
//! as `handle_replay_begin` does under the state lock: it resends
//! [`MsgLog::backlog`] and fences it with `ReplayDone`.
//!
//! Invariants: a live `f` has every frame it has not yet counted still in
//! its channel; no frame arrives past a hole; `f` never counts more than
//! was sent; survivors never regress, and `f` rolls back only on its own
//! restore.
//!
//! Mutation: [`PartialModel::skip_replay`] fences without resending the
//! backlog, so the restarted rank resumes with a hole in its sequence.

use std::collections::VecDeque;

use ompi::crcp::msglog::{arrival, Arrival, LoggedSend, MsgLog};

use crate::checker::Model;

/// Liveness of the failable rank.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Peer {
    /// Running and counting frames.
    #[default]
    Live,
    /// Killed; its endpoint (and everything queued on it) is gone.
    Dead,
    /// Restored, waiting for the survivor's `ReplayDone`.
    Rejoining,
}

/// What the channel to `f` carries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Item {
    /// An application frame with its sequence number.
    Frame(u64),
    /// The survivor's `ReplayDone`.
    Fence,
}

/// Global state of the two-rank system.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PartialSt {
    /// The survivor's message log.
    pub log: MsgLog,
    /// Frames the survivor has sent to `f` (its `sent_counts` entry).
    pub sent: u64,
    /// Frames `f` has counted from the survivor (its `recv_counts` entry).
    pub recv: u64,
    /// The newest globally committed checkpoint: its interval and `recv`.
    pub committed: Option<(u64, u64)>,
    /// A quiesced checkpoint not yet committed: its interval and `recv`.
    pub pending: Option<(u64, u64)>,
    /// The channel to `f`'s current endpoint.
    pub chan: VecDeque<Item>,
    /// `f`'s liveness.
    pub peer: Peer,
    /// Kills so far (bounded exploration budget).
    pub kills: u8,
    /// A frame arrived past a hole.
    pub gap: Option<String>,
}

/// The partial-restart harness.
#[derive(Clone, Copy)]
pub struct PartialModel {
    /// Messages the survivor may send in an execution.
    pub max_msgs: u64,
    /// Kills explored per execution.
    pub max_kills: u8,
    /// Mutation: fence the channel without replaying the backlog.
    pub skip_replay: bool,
}

impl Default for PartialModel {
    fn default() -> Self {
        PartialModel { max_msgs: 3, max_kills: 2, skip_replay: false }
    }
}

impl PartialSt {
    /// The job's commit watermark: newest committed interval + 1.
    fn watermark(&self) -> u64 {
        self.committed.map_or(0, |(interval, _)| interval + 1)
    }
}

impl Model for PartialModel {
    type State = PartialSt;

    fn name(&self) -> &'static str {
        "partial"
    }

    fn initial(&self) -> Vec<PartialSt> {
        vec![PartialSt::default()]
    }

    fn transitions(&self, s: &PartialSt, out: &mut Vec<(String, PartialSt)>) {
        // send: the survivor's application runs whatever state `f` is in.
        if s.sent < self.max_msgs {
            let mut t = s.clone();
            let send = LoggedSend { dst: 1, ctx: 0, tag: 0, seq: s.sent, payload: Default::default() };
            t.log.trim(s.watermark());
            t.log.record(send, u64::MAX);
            if s.peer != Peer::Dead {
                t.chan.push_back(Item::Frame(s.sent));
            }
            t.sent += 1;
            out.push((format!("send({})", t.sent), t));
        }
        // deliver: `f` takes the next item off its endpoint.
        if let (Some(&item), false) = (s.chan.front(), s.peer == Peer::Dead) {
            let mut t = s.clone();
            t.chan.pop_front();
            let label = match item {
                Item::Frame(seq) => {
                    match arrival(s.recv, seq) {
                        Arrival::Duplicate => {}
                        Arrival::Next => t.recv += 1,
                        Arrival::Gap => t.gap = Some(format!("expected {}, got {seq}", s.recv)),
                    }
                    format!("deliver({seq})")
                }
                Item::Fence => {
                    t.peer = Peer::Live;
                    "replay_done".to_owned()
                }
            };
            out.push((label, t));
        }
        // checkpoint: the coordinated round drains the channel and the log
        // is marked at the quiesce; the interval commits at once
        // (`checkpoint`) or later (`quiesce`, then `commit`, which may
        // never come). Intervals are numbered by the send count, which
        // keeps the space finite.
        if s.peer == Peer::Live && s.chan.is_empty() {
            let mut t = s.clone();
            t.log.trim(s.watermark());
            t.log.mark(s.sent);
            if s.pending.is_none() {
                let pending = Some((s.sent, s.recv));
                out.push((format!("quiesce({})", s.sent), PartialSt { pending, ..t.clone() }));
            }
            t.committed = t.committed.max(Some((s.sent, s.recv)));
            out.push((format!("checkpoint({})", s.recv), t));
        }
        if let Some(done) = s.pending {
            let committed = s.committed.max(Some(done));
            out.push((format!("commit({})", done.0), PartialSt { pending: None, committed, ..s.clone() }));
        }
        // kill: `f` dies with everything queued on its endpoint.
        if s.peer == Peer::Live && s.kills < self.max_kills {
            let mut t = s.clone();
            t.peer = Peer::Dead;
            t.kills += 1;
            t.chan.clear();
            out.push(("kill".into(), t));
        }
        // restore: `f` restarts from the committed checkpoint; the
        // survivor re-points it, replays its backlog and fences it.
        if let (Peer::Dead, Some((_, floor))) = (s.peer, s.committed) {
            let mut t = s.clone();
            t.peer = Peer::Rejoining;
            t.recv = floor;
            if !self.skip_replay {
                t.chan.extend(s.log.backlog(1).map(|l| Item::Frame(l.seq)));
            }
            t.chan.push_back(Item::Fence);
            out.push((format!("restore({floor})"), t));
        }
    }

    fn invariant(&self, s: &PartialSt) -> Result<(), String> {
        if let Some(gap) = &s.gap {
            return Err(format!("sequence gap at the restarted rank: {gap}"));
        }
        let queued: Vec<u64> = s
            .chan
            .iter()
            .filter_map(|i| match i {
                Item::Frame(seq) if *seq >= s.recv => Some(*seq),
                _ => None,
            })
            .collect();
        if s.peer == Peer::Live && !queued.iter().copied().eq(s.recv..s.sent) {
            return Err(format!(
                "rejoined rank has a message gap: of frames {}..{} only {queued:?} are still \
                 on their way; the rest died with its old endpoint and were never replayed",
                s.recv, s.sent
            ));
        }
        if s.recv > s.sent {
            return Err(format!(
                "receive count {} overtook send count {}: a logged frame was counted twice",
                s.recv, s.sent
            ));
        }
        Ok(())
    }

    fn step_invariant(&self, from: &PartialSt, action: &str, to: &PartialSt) -> Result<(), String> {
        // Survivors never regress past the global commit; only the
        // restarted rank's own restore rolls its count back.
        if to.sent < from.sent || to.committed < from.committed {
            return Err(format!(
                "survivor regressed on {action}: sent {} -> {}, committed {:?} -> {:?}",
                from.sent, to.sent, from.committed, to.committed
            ));
        }
        if to.recv < from.recv && !action.starts_with("restore") {
            return Err(format!(
                "receive count rolled back {} -> {} outside a restore ({action})",
                from.recv, to.recv
            ));
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
        let report = check(&PartialModel::default(), &Bounds::exhaustive());
        assert!(report.ok(), "{:?}", report.violation.map(|c| c.render()));
        assert!(report.exhaustive());
        assert!(report.states > 50, "space too small: {}", report.states);
    }

    #[test]
    fn replay_is_exactly_once_across_repeated_kills() {
        // max_kills = 2 reaches kill -> restore -> replay -> kill again;
        // the pristine run staying green proves the second recovery
        // replays from the refreshed lost range, not the stale one.
        let m = PartialModel { max_kills: 2, ..Default::default() };
        let report = check(&m, &Bounds::exhaustive());
        assert!(report.ok() && report.exhaustive());
    }
}
