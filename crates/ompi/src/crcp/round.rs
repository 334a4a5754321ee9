//! One round of the `coord` bookmark exchange as a pure state machine: no
//! I/O, no clock. `CoordCrcp` runs it over a PML and `cr-model quiesce`
//! runs n of them over FIFO channels, so the model checks what ships.
//!
//! `Start` sends every peer a bookmark (messages sent to it so far). Once
//! every bookmark is in and the receive counts match them, the round has
//! `Drained` and tells every peer `Quiesced`; once every peer has said so
//! too it ends `Quiesced` — the exit barrier that keeps a fast rank's new
//! traffic out of a slow peer's drain. A peer's `Aborted`, a death, an
//! overrun or `Refuse` ends it `Aborted`; an abort that starts here is
//! sent to every peer. Only messages of the round's epoch are acted on.

use std::collections::VecDeque;
use std::fmt;

use crate::frame::CrcpMsg;

/// What a round is told.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<'a> {
    /// The order arrived; element `q` counts the messages sent to rank `q`.
    Start(&'a [u64]),
    /// A control message of any epoch.
    Ctrl(CrcpMsg),
    /// Cumulative receive counts, one per rank.
    Counts(&'a [u64]),
    /// A rank died.
    PeerDown(u32),
    /// This rank refused the order or failed.
    Refuse,
}

/// What a round asks for, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Send the message to the rank.
    Send(u32, CrcpMsg),
    /// Every message sent before the checkpoint is in this rank's PML.
    Drained,
    /// Every peer drained too: leave coordination.
    Quiesced,
    /// The round is over without a cut.
    Aborted(Abort),
}

/// Outputs of one input.
pub type Outputs = Vec<Output>;

/// Why a round aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// This rank refused the order or failed.
    Refused,
    /// That rank's round aborted.
    PeerAborted(u32),
    /// That rank died.
    PeerDown(u32),
    /// More messages arrived from `from` than its bookmark promised.
    Overrun {
        /// The sending rank.
        from: u32,
        /// Its bookmark.
        sent: u64,
        /// Messages received from it.
        got: u64,
    },
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abort::Refused => write!(f, "refused"),
            Abort::PeerAborted(rank) => write!(f, "rank {rank} aborted"),
            Abort::PeerDown(rank) => write!(f, "rank {rank} died"),
            Abort::Overrun { from, sent, got } => {
                write!(f, "bookmark overrun from rank {from}: sent {sent}, received {got}")
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Idle,
    Draining,
    Drained,
    Ended,
}

/// One rank's coordination round for one order's epoch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Round {
    me: u32,
    epoch: u64,
    phase: Phase,
    /// Per rank: its bookmark, once received.
    bookmarks: Vec<Option<u64>>,
    /// Per rank: its `Quiesced` arrived.
    quiesced: Vec<bool>,
}

impl Round {
    /// Rank `me`'s round of an `nprocs`-rank job for order `epoch`.
    pub fn new(me: u32, nprocs: u32, epoch: u64) -> Self {
        let n = nprocs as usize;
        let phase = Phase::Idle;
        Round { me, epoch, phase, bookmarks: vec![None; n], quiesced: vec![false; n] }
    }

    /// The order's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True from `Start` until the drain verifies: a message counted now
    /// is one of the checkpoint's drained messages.
    pub fn draining(&self) -> bool {
        self.phase == Phase::Draining
    }

    /// Whether `msg` is this round's to consume: a message of its epoch
    /// (acted on) or an older one (dropped). Once the round ends,
    /// whatever the outcome, nothing it owns may stay queued.
    pub fn owns(&self, msg: &CrcpMsg) -> bool {
        msg.epoch() <= self.epoch
    }

    /// Feed the round the messages of `inbox` it owns, oldest first; the
    /// others stay queued in order.
    pub fn take(&mut self, inbox: &mut VecDeque<CrcpMsg>) -> Outputs {
        let mut out = Outputs::new();
        inbox.retain(|msg| {
            let mine = self.owns(msg);
            if mine {
                out.extend(self.on(Input::Ctrl(msg.clone())));
            }
            !mine
        });
        out
    }

    /// Advance the round by one input.
    pub fn on(&mut self, input: Input<'_>) -> Outputs {
        let mut out = Outputs::new();
        match input {
            _ if self.phase == Phase::Ended => {}
            Input::Start(sent) if self.phase == Phase::Idle => {
                self.phase = Phase::Draining;
                let (from, epoch) = (self.me, self.epoch);
                self.tell_peers(&mut out, |q| {
                    let sent = sent.get(q as usize).copied().unwrap_or(0);
                    CrcpMsg::Bookmark { from, epoch, sent }
                });
            }
            Input::Ctrl(msg) if msg.epoch() != self.epoch => {}
            Input::Ctrl(CrcpMsg::Bookmark { from, sent, .. }) if self.is_peer(from) => {
                if let Some(slot) = self.bookmarks.get_mut(from as usize) {
                    *slot = Some(sent);
                }
            }
            Input::Ctrl(CrcpMsg::Quiesced { from, .. }) if self.is_peer(from) => {
                if let Some(slot) = self.quiesced.get_mut(from as usize) {
                    *slot = true;
                }
                self.barrier(&mut out);
            }
            Input::Ctrl(CrcpMsg::Aborted { from, .. }) if self.is_peer(from) => {
                self.abort(Abort::PeerAborted(from), &mut out);
            }
            Input::Counts(recv) => self.drain(recv, &mut out),
            Input::PeerDown(rank) if self.is_peer(rank) => {
                self.abort(Abort::PeerDown(rank), &mut out);
            }
            Input::Refuse => self.abort(Abort::Refused, &mut out),
            Input::Start(_) | Input::Ctrl(_) | Input::PeerDown(_) => {}
        }
        out
    }

    /// Send every peer the message `msg` builds for it.
    fn tell_peers(&self, out: &mut Outputs, msg: impl Fn(u32) -> CrcpMsg) {
        let peers = (0..self.bookmarks.len() as u32).filter(|q| *q != self.me);
        out.extend(peers.map(|q| Output::Send(q, msg(q))));
    }

    fn is_peer(&self, rank: u32) -> bool {
        rank != self.me && (rank as usize) < self.bookmarks.len()
    }

    /// Check the receive counts against the bookmarks received so far.
    fn drain(&mut self, recv: &[u64], out: &mut Outputs) {
        if self.phase != Phase::Draining {
            return;
        }
        let mut complete = true;
        let me = self.me as usize;
        for (q, bookmark) in self.bookmarks.iter().enumerate().filter(|(q, _)| *q != me) {
            let got = recv.get(q).copied().unwrap_or(0);
            match *bookmark {
                Some(sent) if got > sent => {
                    let why = Abort::Overrun { from: q as u32, sent, got };
                    return self.abort(why, out);
                }
                Some(sent) => complete &= got == sent,
                None => complete = false,
            }
        }
        if complete {
            self.phase = Phase::Drained;
            out.push(Output::Drained);
            let (from, epoch) = (self.me, self.epoch);
            self.tell_peers(out, |_| CrcpMsg::Quiesced { from, epoch });
            self.barrier(out);
        }
    }

    /// Leave once drained and every peer has quiesced.
    fn barrier(&mut self, out: &mut Outputs) {
        let me = self.me as usize;
        if self.phase == Phase::Drained
            && self.quiesced.iter().enumerate().all(|(q, done)| *done || q == me)
        {
            self.phase = Phase::Ended;
            out.push(Output::Quiesced);
        }
    }

    /// End the round aborted, telling every peer when the abort starts
    /// here.
    fn abort(&mut self, why: Abort, out: &mut Outputs) {
        if matches!(why, Abort::Refused | Abort::Overrun { .. }) {
            let (from, epoch) = (self.me, self.epoch);
            self.tell_peers(out, |_| CrcpMsg::Aborted { from, epoch });
        }
        self.phase = Phase::Ended;
        out.push(Output::Aborted(why));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(from: u32, epoch: u64, sent: u64) -> Input<'static> {
        Input::Ctrl(CrcpMsg::Bookmark { from, epoch, sent })
    }

    fn quiesced(from: u32, epoch: u64) -> Input<'static> {
        Input::Ctrl(CrcpMsg::Quiesced { from, epoch })
    }

    fn aborted(from: u32, epoch: u64) -> Input<'static> {
        Input::Ctrl(CrcpMsg::Aborted { from, epoch })
    }

    /// What the round did, as short words: `bm>1` / `q>1` / `ab>1` for a
    /// bookmark / quiesce / abort sent to rank 1, then `drained`,
    /// `quiesced` or the abort reason.
    fn words(out: &Outputs) -> Vec<String> {
        out.iter()
            .map(|o| match o {
                Output::Send(to, CrcpMsg::Bookmark { .. }) => format!("bm>{to}"),
                Output::Send(to, CrcpMsg::Quiesced { .. }) => format!("q>{to}"),
                Output::Send(to, CrcpMsg::Aborted { .. }) => format!("ab>{to}"),
                Output::Drained => "drained".into(),
                Output::Quiesced => "quiesced".into(),
                Output::Aborted(why) => format!("aborted: {why}"),
            })
            .collect()
    }

    /// Each row: rank 0 of three at epoch 5, having sent `[0, 2, 1]` and
    /// received `recv` so far, fed `inputs` after `Start`; the words of
    /// the last input's outputs and whether the round ended.
    #[test]
    fn round_table() {
        let ok: &[u64] = &[0, 4, 0];
        let recv_over: &[u64] = &[0, 5, 0];
        let rows: Vec<(&str, Vec<Input<'_>>, Vec<&str>, bool)> = vec![
            (
                "bookmarks alone do not drain",
                vec![bm(1, 5, 4), bm(2, 5, 0)],
                vec![],
                false,
            ),
            (
                "counts that match every bookmark drain and announce it",
                vec![bm(1, 5, 4), bm(2, 5, 0), Input::Counts(ok)],
                vec!["drained", "q>1", "q>2"],
                false,
            ),
            (
                "counts short of a bookmark keep draining",
                vec![bm(1, 5, 5), bm(2, 5, 0), Input::Counts(ok)],
                vec![],
                false,
            ),
            (
                "a missing bookmark keeps draining",
                vec![bm(1, 5, 4), Input::Counts(ok)],
                vec![],
                false,
            ),
            (
                "one peer quiesced is not enough",
                vec![bm(1, 5, 4), bm(2, 5, 0), Input::Counts(ok), quiesced(1, 5)],
                vec![],
                false,
            ),
            (
                "quiesced once every peer has quiesced",
                vec![
                    bm(1, 5, 4),
                    bm(2, 5, 0),
                    quiesced(1, 5),
                    Input::Counts(ok),
                    quiesced(2, 5),
                ],
                vec!["quiesced"],
                true,
            ),
            (
                "peers quiesced before this rank drained: leave at the drain",
                vec![bm(1, 5, 4), bm(2, 5, 0), quiesced(1, 5), quiesced(2, 5), Input::Counts(ok)],
                vec!["drained", "q>1", "q>2", "quiesced"],
                true,
            ),
            (
                "an older epoch's bookmark is dropped",
                vec![bm(1, 4, 4), bm(2, 5, 0), Input::Counts(ok)],
                vec![],
                false,
            ),
            (
                "an older epoch's quiesce is dropped",
                vec![bm(1, 5, 4), bm(2, 5, 0), Input::Counts(ok), quiesced(1, 4), quiesced(2, 5)],
                vec![],
                false,
            ),
            (
                "an older epoch's abort is dropped",
                vec![aborted(1, 4)],
                vec![],
                false,
            ),
            (
                "a later epoch is not this round's",
                vec![bm(1, 6, 4), bm(2, 5, 0), Input::Counts(ok)],
                vec![],
                false,
            ),
            (
                "a peer's abort ends the round without an echo",
                vec![bm(1, 5, 4), aborted(2, 5)],
                vec!["aborted: rank 2 aborted"],
                true,
            ),
            (
                "a death ends the round without an echo",
                vec![bm(1, 5, 4), Input::PeerDown(1)],
                vec!["aborted: rank 1 died"],
                true,
            ),
            (
                "a death at the exit barrier ends the round",
                vec![bm(1, 5, 4), bm(2, 5, 0), Input::Counts(ok), Input::PeerDown(2)],
                vec!["aborted: rank 2 died"],
                true,
            ),
            (
                "this rank's own death notice is ignored",
                vec![Input::PeerDown(0)],
                vec![],
                false,
            ),
            (
                "an overrun is reported and told to every peer",
                vec![bm(1, 5, 4), Input::Counts(recv_over)],
                vec!["ab>1", "ab>2", "aborted: bookmark overrun from rank 1: sent 4, received 5"],
                true,
            ),
            (
                "a refusal is told to every peer",
                vec![bm(1, 5, 4), Input::Refuse],
                vec!["ab>1", "ab>2", "aborted: refused"],
                true,
            ),
            (
                "an ended round ignores everything",
                vec![Input::Refuse, bm(1, 5, 4), Input::Counts(ok), Input::PeerDown(2)],
                vec![],
                true,
            ),
        ];
        for (name, inputs, expect, ended) in rows {
            let mut round = Round::new(0, 3, 5);
            let start = round.on(Input::Start(&[0, 2, 1]));
            assert_eq!(words(&start), ["bm>1", "bm>2"], "{name}");
            let mut last = Outputs::new();
            for input in inputs {
                last = round.on(input);
            }
            assert_eq!(words(&last), expect, "{name}");
            // An ended round ignores everything; a live one answers a
            // refusal.
            assert_eq!(round.on(Input::Refuse).is_empty(), ended, "{name}");
        }
    }

    #[test]
    fn bookmarks_carry_the_sent_counts_and_the_epoch() {
        let mut round = Round::new(1, 3, 9);
        let out = round.on(Input::Start(&[7, 0, 3]));
        assert_eq!(
            out,
            vec![
                Output::Send(0, CrcpMsg::Bookmark { from: 1, epoch: 9, sent: 7 }),
                Output::Send(2, CrcpMsg::Bookmark { from: 1, epoch: 9, sent: 3 }),
            ]
        );
        assert!(round.on(Input::Start(&[7, 0, 3])).is_empty(), "one start");
    }

    #[test]
    fn a_lone_rank_quiesces_at_its_first_counts() {
        let mut round = Round::new(0, 1, 0);
        assert!(round.on(Input::Start(&[0])).is_empty());
        assert_eq!(round.on(Input::Counts(&[0])), vec![Output::Drained, Output::Quiesced]);
    }

    /// The inbox keeps a later epoch's messages, in order, for the round
    /// that owns them; the older and the current ones are consumed, and
    /// a purge after the round leaves only the later epoch.
    #[test]
    fn a_later_epoch_waits_in_the_inbox_for_its_round() {
        let mut inbox: VecDeque<CrcpMsg> = VecDeque::from([
            CrcpMsg::Bookmark { from: 1, epoch: 6, sent: 3 },
            CrcpMsg::Bookmark { from: 1, epoch: 4, sent: 9 },
            CrcpMsg::Aborted { from: 2, epoch: 5 },
            CrcpMsg::Quiesced { from: 1, epoch: 6 },
        ]);
        let mut round = Round::new(0, 3, 5);
        round.on(Input::Start(&[0, 0, 0]));
        let out = round.take(&mut inbox);
        assert_eq!(out, vec![Output::Aborted(Abort::PeerAborted(2))]);
        inbox.push_back(CrcpMsg::Quiesced { from: 2, epoch: 5 });
        inbox.retain(|msg| !round.owns(msg));
        assert_eq!(
            inbox,
            [
                CrcpMsg::Bookmark { from: 1, epoch: 6, sent: 3 },
                CrcpMsg::Quiesced { from: 1, epoch: 6 },
            ]
        );

        // The next round finds its bookmark and its quiesce waiting.
        let mut next = Round::new(0, 2, 6);
        next.on(Input::Start(&[0, 0]));
        assert!(next.take(&mut inbox).is_empty());
        assert!(inbox.is_empty());
        let out = next.on(Input::Counts(&[0, 3]));
        assert_eq!(out.first(), Some(&Output::Drained));
        assert_eq!(out.last(), Some(&Output::Quiesced));
    }
}
