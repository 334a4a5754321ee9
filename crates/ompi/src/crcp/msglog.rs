//! The sender-side message log of partial restart as a value: no I/O, no
//! clock. The PML logs every application send in it and replays a
//! restarted peer's backlog from it, `CoordCrcp` marks it at each quiesce
//! and trims it at global commit, and `cr-model partial` runs the same
//! calls, so the model checks what ships.
//!
//! A quiesce *marks* the log: the entries below the mark belong to the
//! interval being captured and are garbage once that interval is globally
//! committed (a partial restart restores from the newest committed
//! interval). A checkpoint that dies before commit leaves its mark, and
//! the log, alone. Sends past the byte cap are not logged; the window
//! they fall in is *overflowed*, and a partial restart from before its
//! end would replay a backlog with a hole.

use std::cmp::Ordering;

use bytes::Bytes;

/// A message retained in the partial-restart message log.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LoggedSend {
    /// Destination world rank.
    pub dst: u32,
    /// Communicator context.
    pub ctx: u32,
    /// MPI tag.
    pub tag: u32,
    /// Sequence number of the send.
    pub seq: u64,
    /// Payload: a view of the frame's wire buffer.
    pub payload: Bytes,
}
codec::wire_struct!(LoggedSend { dst, ctx, tag, seq, payload });

/// The log length at one interval's quiesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Mark {
    interval: u64,
    at: u64,
    /// The cap dropped a send in the window this quiesce closed.
    overflow: bool,
}

/// One rank's sender log: every application send since the last
/// global-commit trim, up to a byte cap. The "pml" image section persists
/// its first three fields.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgLog {
    /// Logged sends, oldest first.
    pub(crate) entries: Vec<LoggedSend>,
    /// Payload bytes of `entries`.
    pub(crate) bytes: u64,
    /// The cap dropped a send since the last mark.
    pub(crate) overflow: bool,
    /// Marks of quiesced intervals not yet known committed. Never
    /// persisted: a restarted incarnation marks afresh.
    marks: Vec<Mark>,
}

impl MsgLog {
    /// Keep `send` unless it would take the log past `cap` payload bytes,
    /// which overflows the current window. Returns whether it was kept.
    pub fn record(&mut self, send: LoggedSend, cap: u64) -> bool {
        let bytes = self.bytes.saturating_add(send.payload.len() as u64);
        if bytes > cap {
            self.overflow = true;
            return false;
        }
        self.entries.push(send);
        self.bytes = bytes;
        true
    }

    /// `interval` quiesced: mark the log here and close the overflow
    /// window (a re-mark of the same interval keeps its overflow).
    pub fn mark(&mut self, interval: u64) {
        let mut overflow = std::mem::take(&mut self.overflow);
        self.marks.retain(|m| {
            overflow |= m.interval == interval && m.overflow;
            m.interval != interval
        });
        let at = self.entries.len() as u64;
        self.marks.push(Mark { interval, at, overflow });
    }

    /// The job committed every interval below `committed`: drop their
    /// marks and the entries below the highest of them. Marks of
    /// checkpoints that failed before commit go once a later interval
    /// commits past them. Returns the entries and payload bytes dropped.
    pub fn trim(&mut self, committed: u64) -> (usize, u64) {
        let mut to = 0;
        self.marks.retain(|m| {
            let done = m.interval < committed;
            to = to.max(if done { m.at as usize } else { 0 });
            !done
        });
        let to = to.min(self.entries.len());
        let freed: u64 = self.entries.drain(..to).map(|l| l.payload.len() as u64).sum();
        self.bytes = self.bytes.saturating_sub(freed);
        for m in &mut self.marks {
            m.at = m.at.saturating_sub(to as u64);
        }
        (to, freed)
    }

    /// The logged sends to `dst`, oldest first: what a restarted `dst` is
    /// replayed.
    pub fn backlog(&self, dst: u32) -> impl Iterator<Item = &LoggedSend> {
        self.entries.iter().filter(move |l| l.dst == dst)
    }

    /// Every logged send, oldest first.
    pub fn entries(&self) -> &[LoggedSend] {
        &self.entries
    }

    /// Payload bytes retained.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True when the cap dropped a send after the quiesce of the newest
    /// committed interval (`watermark` = highest committed + 1). A
    /// partial restart restores from that interval, so such a gap means
    /// this rank cannot replay a contiguous backlog; an overflow folded
    /// into the committed interval's own mark or older precedes the
    /// restore point.
    pub fn gapped_since(&self, watermark: u64) -> bool {
        self.overflow || self.marks.iter().any(|m| m.overflow && m.interval >= watermark)
    }
}

/// What a frame with sequence number `seq` is to a receiver that has
/// counted `expected` frames from its sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Already counted: a replayed frame the restored counters account
    /// for. Dropped.
    Duplicate,
    /// The next frame in order.
    Next,
    /// Frames before it never arrived.
    Gap,
}

/// Classify an arriving frame: the duplicate suppression that makes a
/// partial-restart replay idempotent, and the gap check behind it.
pub fn arrival(expected: u64, seq: u64) -> Arrival {
    match seq.cmp(&expected) {
        Ordering::Less => Arrival::Duplicate,
        Ordering::Equal => Arrival::Next,
        Ordering::Greater => Arrival::Gap,
    }
}
