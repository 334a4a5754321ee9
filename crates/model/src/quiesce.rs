//! Model 2: the CRCP coordination round, as it ships.
//!
//! The harness runs n real [`Round`]s — the machine `CoordCrcp` drives —
//! and plays the world around them: frames, orders, refusals and deaths.
//! Each rank's application frames arrive FIFO, and so do the control
//! messages from each peer, with no order between the queues. A rank step
//! is what the I/O loop does: the round takes a control message it owns
//! (one it does not own waits, as in the PML's inbox), a frame bumps a
//! receive count, `drain` hands the round the counts, and a failed send
//! or a death notice is `PeerDown`.
//!
//! Two worlds: 2 ranks sending frames and taking 2 orders, either of
//! which a rank may refuse; and 3 ranks taking 1 order while one may die.
//! An epoch is *clean* while nobody refused it and nobody died.
//! Invariants: in a clean epoch no drain counts a frame sent after its
//! sender left the epoch and no round aborts on an overrun; no round acts
//! on a message of another epoch; no live rank waits in a round with no
//! step enabled. Mutations ([`QuiesceModel`]) break each in turn.

use std::collections::VecDeque;

use ompi::crcp::round::{Abort, Input, Output, Outputs, Round};
use ompi::frame::CrcpMsg;

use crate::checker::Model;

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Phase {
    Run,
    Round(Round),
    /// The round quiesced (or, under `skip_barrier`, drained): leaves at
    /// `exit`.
    Exiting,
    /// The round aborted: leaves at `abort`.
    Aborting,
    Dead,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ctrl {
    /// A message and the epoch of the round that sent it.
    Msg(CrcpMsg, u64),
    /// The sender died after everything it sent.
    Down,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct RankSt {
    phase: Phase,
    /// Orders done with: the epoch of the current or next round, and the
    /// tag of frames sent meanwhile.
    orders: u64,
    sent_frame: bool,
    sent: Vec<u64>,
    recv: Vec<u64>,
    /// Ranks heard dead (bit per rank).
    down: u32,
    /// Frame tags from the ring predecessor.
    frames_in: VecDeque<u64>,
    /// Control items, with their sender.
    ctrl_in: VecDeque<(u32, Ctrl)>,
}

/// Global state: the ranks and what the world still allows.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QuiesceSt {
    orders: u64,
    refusals: bool,
    kills: u8,
    frames: bool,
    ranks: Vec<RankSt>,
    /// Epochs some rank refused (bit per epoch).
    refused: u64,
    killed: bool,
    /// The first invariant broken.
    flaw: Option<String>,
}

/// The coordination-round harness; the flags select mutated worlds.
#[derive(Clone, Copy, Default)]
pub struct QuiesceModel {
    /// Mutation: leave coordination at the drain, without the `Quiesced`
    /// exit barrier.
    pub skip_barrier: bool,
    /// Mutation: every message reaches a round stamped with the
    /// receiver's current epoch.
    pub drop_epoch: bool,
    /// Mutation: death notices and failed sends are ignored.
    pub ignore_peer_down: bool,
}

fn world(n: u32, orders: u64, refusals: bool, kills: u8, frames: bool) -> QuiesceSt {
    let ranks = vec![fresh_rank(n); n as usize];
    QuiesceSt { orders, refusals, kills, frames, ranks, refused: 0, killed: false, flaw: None }
}

fn fresh_rank(n: u32) -> RankSt {
    RankSt {
        phase: Phase::Run,
        orders: 0,
        sent_frame: false,
        sent: vec![0; n as usize],
        recv: vec![0; n as usize],
        down: 0,
        frames_in: VecDeque::new(),
        ctrl_in: VecDeque::new(),
    }
}

impl QuiesceSt {
    fn n(&self) -> u32 {
        self.ranks.len() as u32
    }

    fn rank(&mut self, id: u32) -> Option<&mut RankSt> {
        self.ranks.get_mut(id as usize)
    }

    fn round(&mut self, id: u32) -> Option<&mut Round> {
        match self.rank(id).map(|r| &mut r.phase) {
            Some(Phase::Round(round)) => Some(round),
            _ => None,
        }
    }

    fn alive(&self, id: u32) -> bool {
        self.ranks.get(id as usize).is_some_and(|r| r.phase != Phase::Dead)
    }

    fn clean(&self, epoch: u64) -> bool {
        !self.killed && self.refused & (1 << epoch) == 0
    }

    fn flag(&mut self, flaw: String) {
        self.flaw.get_or_insert(flaw);
    }
}

fn bump(counts: &mut [u64], q: u32) {
    if let Some(c) = counts.get_mut(q as usize) {
        *c += 1;
    }
}

impl QuiesceModel {
    /// Do what the I/O loop does with rank `id`'s round's outputs.
    /// Returns whether the round returned `Quiesced`, the step at which
    /// the rank records `ompi.crcp.quiesced`.
    fn apply(&self, s: &mut QuiesceSt, id: u32, out: Outputs) -> bool {
        let quiesced = out.contains(&Output::Quiesced);
        let mut pending = VecDeque::from(out);
        while let Some(output) = pending.pop_front() {
            let epoch = match s.ranks.get(id as usize) {
                Some(r) if !matches!(r.phase, Phase::Run | Phase::Dead) => r.orders,
                _ => break,
            };
            let leave = match output {
                Output::Send(to, msg) if s.alive(to) => {
                    if let Some(r) = s.rank(to) {
                        r.ctrl_in.push_back((id, Ctrl::Msg(msg, epoch)));
                    }
                    None
                }
                Output::Send(to, _) => {
                    if let Some(round) = s.round(id).filter(|_| !self.ignore_peer_down) {
                        pending.extend(round.on(Input::PeerDown(to)));
                    }
                    None
                }
                Output::Drained => self.skip_barrier.then_some(false),
                Output::Quiesced => Some(false),
                Output::Aborted(why) => {
                    if matches!(why, Abort::Overrun { .. }) && s.clean(epoch) {
                        s.flag(format!("rank {id}'s round of clean epoch {epoch}: {why}"));
                    }
                    Some(true)
                }
            };
            if let (Some(aborted), Some(r)) = (leave, s.rank(id)) {
                r.phase = if aborted { Phase::Aborting } else { Phase::Exiting };
            }
        }
        quiesced
    }

    /// Feed rank `id`'s round every death it heard of.
    fn feed_down(&self, s: &mut QuiesceSt, id: u32) {
        let down = s.ranks.get(id as usize).map_or(0, |r| r.down);
        for q in (0..s.n()).filter(|q| down & (1 << q) != 0) {
            if let Some(round) = s.round(id) {
                let out = round.on(Input::PeerDown(q));
                self.apply(s, id, out);
            }
        }
    }

    /// Rank `id`'s round for its next order, started with `input`.
    fn start(&self, s: &QuiesceSt, id: u32, input: Input<'_>) -> QuiesceSt {
        let mut t = s.clone();
        let epoch = s.ranks.get(id as usize).map_or(0, |r| r.orders);
        let mut round = Round::new(id, s.n(), epoch);
        let out = round.on(input);
        if let Some(r) = t.rank(id) {
            r.phase = Phase::Round(round);
        }
        self.apply(&mut t, id, out);
        t
    }

    fn rank_steps(&self, s: &QuiesceSt, id: u32, out: &mut Vec<(String, QuiesceSt)>) {
        let n = s.n();
        let Some(me) = s.ranks.get(id as usize) else { return };
        let (succ, pred, orders) = ((id + 1) % n, (id + n - 1) % n, me.orders);
        let running = me.phase == Phase::Run;

        // send_app: one frame per application round before the last
        // order, to the ring successor.
        if running && s.frames && !me.sent_frame && orders < s.orders && s.alive(succ) {
            let mut t = s.clone();
            if let Some(r) = t.rank(id) {
                r.sent_frame = true;
                bump(&mut r.sent, succ);
            }
            if let Some(r) = t.rank(succ) {
                r.frames_in.push_back(orders);
            }
            out.push((format!("send_app({id},round={orders})"), t));
        }

        // notify / refuse: the next order arrives.
        if running && orders < s.orders {
            let mut t = self.start(s, id, Input::Start(&me.sent));
            self.feed_down(&mut t, id);
            out.push((format!("notify({id})"), t));
            if s.refusals {
                let mut t = self.start(s, id, Input::Refuse);
                t.refused |= 1 << orders;
                out.push((format!("refuse({id})"), t));
            }
        }

        // ingest: the next frame from the ring predecessor.
        if let Some(&tag) = me.frames_in.front() {
            let mut t = s.clone();
            if let Some(r) = t.rank(id) {
                r.frames_in.pop_front();
                bump(&mut r.recv, pred);
            }
            if let Phase::Round(round) = &me.phase {
                let epoch = round.epoch();
                if round.draining() && tag > epoch && s.clean(epoch) {
                    t.flag(format!(
                        "cross-round frame counted in a drain: rank {id}'s drain of epoch \
                         {epoch} took a frame rank {pred} sent in application round {tag}"
                    ));
                }
            }
            out.push((format!("ingest({id},tag={tag})"), t));
        }

        // recv: the next control item from each peer, if the round owns
        // it (a death notice always gets through); `quiesced` when it is
        // the last `Quiesced` the round waited for.
        for q in (0..n).filter(|q| *q != id) {
            let Some(at) = me.ctrl_in.iter().position(|(from, _)| *from == q) else { continue };
            let mut t = s.clone();
            let mut quiesced = false;
            let what = match me.ctrl_in.get(at).map(|(_, item)| item) {
                Some(Ctrl::Down) => {
                    if let Some(r) = t.rank(id).filter(|_| !self.ignore_peer_down) {
                        r.down |= 1 << q;
                        self.feed_down(&mut t, id);
                    }
                    "down"
                }
                Some(Ctrl::Msg(msg, sent_in)) => {
                    let mut msg = msg.clone();
                    if let (true, Some(e)) = (self.drop_epoch, msg.epoch_mut()) {
                        *e = orders;
                    }
                    let Some(round) = t.round(id).filter(|r| r.owns(&msg)) else { continue };
                    let before = round.clone();
                    let out = round.on(Input::Ctrl(msg.clone()));
                    let epoch = round.epoch();
                    if *sent_in != epoch && (*round != before || !out.is_empty()) {
                        t.flag(format!("message of epoch {sent_in} counted in epoch {epoch}: {msg:?}"));
                    }
                    quiesced = self.apply(&mut t, id, out);
                    kind(&msg)
                }
                None => continue,
            };
            if let Some(r) = t.rank(id) {
                r.ctrl_in.remove(at);
            }
            let step = if quiesced { "quiesced" } else { "recv" };
            out.push((format!("{step}({id}<-{q},{what})"), t));
        }

        // drain: the round looks at the receive counts (`quiesced` when
        // that also passes the exit barrier).
        if let Phase::Round(round) = &me.phase {
            let mut round = round.clone();
            let counts = round.on(Input::Counts(&me.recv));
            if !counts.is_empty() {
                let drained = counts.contains(&Output::Drained);
                let mut t = s.clone();
                if let Some(r) = t.rank(id) {
                    r.phase = Phase::Round(round);
                }
                let label = match self.apply(&mut t, id, counts) {
                    true => "quiesced",
                    false if drained => "send_quiesced",
                    false => "overrun",
                };
                out.push((format!("{label}({id})"), t));
            }
        }

        // exit / abort: leave the ended round.
        if let Phase::Exiting | Phase::Aborting = me.phase {
            let label = if me.phase == Phase::Exiting { "exit" } else { "abort" };
            let mut t = s.clone();
            if let Some(r) = t.rank(id) {
                r.phase = Phase::Run;
                r.orders += 1;
                r.sent_frame = false;
            }
            out.push((format!("{label}({id})"), t));
        }

        // kill: the rank dies; its peers hear of it after its last message.
        if s.kills > 0 {
            let mut t = s.clone();
            t.kills -= 1;
            t.killed = true;
            if let Some(r) = t.rank(id) {
                *r = RankSt { phase: Phase::Dead, ..fresh_rank(n) };
            }
            for r in t.ranks.iter_mut().filter(|r| r.phase != Phase::Dead) {
                r.ctrl_in.push_back((id, Ctrl::Down));
            }
            out.push((format!("kill({id})"), t));
        }
    }
}

fn kind(msg: &CrcpMsg) -> &'static str {
    match msg {
        CrcpMsg::Bookmark { .. } => "bookmark",
        CrcpMsg::Quiesced { .. } => "quiesced",
        CrcpMsg::Aborted { .. } => "aborted",
        CrcpMsg::ReplayBegin { .. } | CrcpMsg::ReplayDone { .. } => "replay",
    }
}

impl Model for QuiesceModel {
    type State = QuiesceSt;

    fn name(&self) -> &'static str {
        "quiesce"
    }

    fn initial(&self) -> Vec<QuiesceSt> {
        vec![world(2, 2, true, 0, true), world(3, 1, false, 1, false)]
    }

    fn transitions(&self, s: &QuiesceSt, out: &mut Vec<(String, QuiesceSt)>) {
        for id in (0..s.n()).filter(|id| s.alive(*id)) {
            self.rank_steps(s, id, out);
        }
    }

    fn invariant(&self, s: &QuiesceSt) -> Result<(), String> {
        if let Some(flaw) = &s.flaw {
            return Err(flaw.clone());
        }
        let waiting = s.ranks.iter().position(|r| matches!(r.phase, Phase::Round(_)));
        let stuck = waiting.filter(|_| {
            let mut next = Vec::new();
            self.transitions(s, &mut next);
            next.is_empty()
        });
        match stuck {
            Some(rank) => Err(format!("stuck survivor: rank {rank} waits in a round, no step enabled")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Bounds};

    #[test]
    fn pristine_model_is_green() {
        let report = check(&QuiesceModel::default(), &Bounds::exhaustive());
        assert!(report.ok(), "{:?}", report.violation.map(|c| c.render()));
        assert!(report.exhaustive());
        assert!(report.states > 1000, "space too small: {}", report.states);
    }

    /// Every kind of step is taken somewhere, refusals and deaths
    /// included, and no overrun ever is.
    #[test]
    fn refusals_and_deaths_are_explored() {
        let m = QuiesceModel::default();
        let mut seen = std::collections::BTreeSet::new();
        let mut frontier = m.initial();
        let mut visited = std::collections::BTreeSet::new();
        while let Some(s) = frontier.pop() {
            if !visited.insert(s.clone()) {
                continue;
            }
            let mut next = Vec::new();
            m.transitions(&s, &mut next);
            for (label, t) in next {
                seen.insert(label.split('(').next().unwrap_or("").to_owned());
                frontier.push(t);
            }
        }
        let actions =
            ["notify", "refuse", "kill", "recv", "ingest", "send_quiesced", "quiesced", "exit", "abort"];
        for action in actions {
            assert!(seen.contains(action), "{action} never enabled: {seen:?}");
        }
        assert!(!seen.contains("overrun"));
    }
}
