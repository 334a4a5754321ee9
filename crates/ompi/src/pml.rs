//! PML — the Point-to-point Management Layer.
//!
//! All MPI traffic (collectives included — they decompose into
//! point-to-point) flows through here, which is exactly why the paper
//! interposes the CRCP coordination protocol on this layer: "the wrapper
//! PML component allows the OMPI CRCP components the opportunity to take
//! action before and after each message is processed" (§6.3). Our
//! equivalent is the optional [`CrcpComponent`] hook consulted on every
//! send; building with the hook absent gives the
//! "infrastructure disabled" baseline of the paper's §7 overhead
//! experiment.
//!
//! # The op log (restart correctness)
//!
//! BLCR restores a checkpointed process mid-instruction; safe Rust cannot.
//! Instead, applications run as *steps* (see [`crate::app`]) and the PML
//! records every completed operation of the current step in an **op log**.
//! A checkpoint taken mid-step captures (a) the application state as of
//! the last step boundary and (b) the op log. On restart the step is
//! re-executed from the boundary state with the log armed: each recorded
//! operation *replays* — receives return their recorded payloads, sends
//! become no-ops (their messages were already delivered and are accounted
//! by the restored counters) — until the log is exhausted, after which
//! execution continues live, typically re-entering the operation that was
//! blocked when the checkpoint struck. Replay validates every operation's
//! parameters against the record and fails loudly on divergence, which
//! catches non-deterministic application steps.
//!
//! # Sequence numbers
//!
//! Every application frame carries a per-(sender, receiver) sequence
//! number. Receivers drop frames whose sequence they have already counted
//! — the duplicate-suppression that makes a survivor's partial-restart
//! replay idempotent.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsim::{Endpoint, EndpointId, Fabric, NetError};
use parking_lot::{Mutex, RwLock};

use cr_core::{CrError, FtEvent, FtEventState, Tracer};
use opal::SafePointGate;

use crate::crcp::CrcpComponent;
use crate::error::MpiError;
use crate::frame::{decode_app, decode_crcp, encode_app, AppFrame, CrcpMsg, CLASS_APP, CLASS_CRCP};

/// How long a blocking operation waits on the wire before re-checking the
/// safe-point gate.
const WIRE_POLL: Duration = Duration::from_micros(200);

/// A posted (not yet matched) non-blocking receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostedRecv {
    /// Request id.
    pub req: u64,
    /// Communicator context.
    pub ctx: u32,
    /// Source filter (`None` = any source).
    pub src: Option<u32>,
    /// Tag filter (`None` = any tag).
    pub tag: Option<u32>,
}
codec::wire_struct!(PostedRecv { req, ctx, src, tag });

/// A message retained in the partial-restart message log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedSend {
    /// Destination world rank.
    pub dst: u32,
    /// Communicator context.
    pub ctx: u32,
    /// MPI tag.
    pub tag: u32,
    /// Sequence number of the send.
    pub seq: u64,
    /// Payload.
    pub payload: Vec<u8>,
}
codec::wire_struct!(LoggedSend { dst, ctx, tag, seq, payload });

/// One completed operation of the current application step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRecord {
    /// A completed blocking send.
    Send {
        /// Destination world rank.
        dst: u32,
        /// Communicator context.
        ctx: u32,
        /// MPI tag.
        tag: u32,
        /// Payload length (for divergence detection).
        len: u64,
    },
    /// A completed blocking receive.
    Recv {
        /// Context the receive was posted on.
        ctx: u32,
        /// Source filter.
        src: Option<u32>,
        /// Tag filter.
        tag: Option<u32>,
        /// The matched frame.
        frame: AppFrame,
    },
    /// A completed non-blocking send initiation.
    Isend {
        /// Assigned request id.
        req: u64,
        /// Destination world rank.
        dst: u32,
        /// Communicator context.
        ctx: u32,
        /// MPI tag.
        tag: u32,
        /// Payload length.
        len: u64,
    },
    /// A completed non-blocking receive initiation.
    Irecv {
        /// Assigned request id.
        req: u64,
        /// Communicator context.
        ctx: u32,
        /// Source filter.
        src: Option<u32>,
        /// Tag filter.
        tag: Option<u32>,
    },
    /// A completed wait.
    Wait {
        /// The request waited on.
        req: u64,
        /// `Some` for receive requests, `None` for send requests.
        frame: Option<AppFrame>,
    },
    /// A completed blocking probe (message metadata observed, nothing
    /// consumed).
    Probe {
        /// Context probed.
        ctx: u32,
        /// Source filter.
        src: Option<u32>,
        /// Tag filter.
        tag: Option<u32>,
        /// Matched sender.
        found_src: u32,
        /// Matched tag.
        found_tag: u32,
        /// Matched payload length.
        len: u64,
    },
}
codec::wire_enum!(OpRecord {
    Send { dst, ctx, tag, len },
    Recv { ctx, src, tag, frame },
    Isend { req, dst, ctx, tag, len },
    Irecv { req, ctx, src, tag },
    Wait { req, frame },
    Probe { ctx, src, tag, found_src, found_tag, len },
});

/// A quiesce-point mark in the partial-restart message log: `mark` is
/// the log length when `interval` quiesced. Once `interval` reaches
/// global commit, entries below `mark` can never be needed by a replay
/// (a partial restart restores from the latest committed interval).
#[derive(Debug, Clone, Copy)]
pub struct MsgLogMark {
    /// SNAPC interval the mark belongs to.
    pub interval: u64,
    /// `msg_log` length at that interval's quiesce.
    pub mark: u64,
    /// `crcp_msg_log_cap_kb` truncated the log in the window *ending* at
    /// this quiesce (i.e. since the previous mark). A partial restart
    /// from any interval quiesced before this window would replay a
    /// sequence-gapped backlog and must refuse; once `interval` reaches
    /// global commit the window precedes the restore point and the bit
    /// leaves with the mark.
    pub overflow: bool,
}

/// The serializable PML state — the "pml" section of the process image.
#[derive(Debug, Clone, Default)]
pub struct PmlState {
    /// Received application frames not yet matched by any receive.
    pub unmatched: VecDeque<AppFrame>,
    /// Posted non-blocking receives.
    pub posted: Vec<PostedRecv>,
    /// Completed requests not yet waited on (`None` payload = send).
    pub completed: BTreeMap<u64, Option<AppFrame>>,
    /// Application messages sent, per destination world rank.
    pub sent_counts: Vec<u64>,
    /// Application messages received (into the PML), per source rank.
    pub recv_counts: Vec<u64>,
    /// Next request id.
    pub next_req: u64,
    /// Op log of the current application step.
    pub step_log: Vec<OpRecord>,
    /// Partial-restart message log (`crcp_msg_log_enabled`): every
    /// application send since the last global-commit GC, replayed by
    /// survivors to a restarted peer over the `ReplayBegin` handshake.
    pub msg_log: Vec<LoggedSend>,
    /// Payload bytes currently retained in `msg_log`.
    pub msg_log_bytes: u64,
    /// Quiesce marks awaiting global commit: for each in-flight (or
    /// failed-before-commit) checkpoint interval, the `msg_log` length at
    /// its quiesce. Entries below a mark are dropped only once the job
    /// publishes that mark's interval as globally committed — a
    /// checkpoint that dies mid-interval must leave the log intact for a
    /// partial restart from the previous commit. Never persisted: a
    /// restarted incarnation re-marks from scratch.
    pub msg_log_marks: Vec<MsgLogMark>,
    /// Interval of the checkpoint currently coordinating, stashed by the
    /// INC handle before the CRCP runs (the component has no view of
    /// SNAPC's numbering). `None` outside a checkpoint.
    pub ckpt_interval: Option<u64>,
    /// Set when `crcp_msg_log_cap_kb` truncated the log in the current
    /// window (since the last quiesce mark); each quiesce folds it into
    /// its [`MsgLogMark::overflow`] bit and clears it. A partial restart
    /// that would need the missing entries must refuse — see
    /// [`PmlShared::msg_log_gapped_since`], which `MpiJob::restart_ranks`
    /// probes on every survivor before touching the job.
    pub msg_log_overflow: bool,
    /// CRCP control messages awaiting the coordination protocol.
    pub crcp_inbox: VecDeque<CrcpMsg>,
    /// Replay position into `step_log` (never persisted: restarts always
    /// replay from the beginning).
    pub replay_cursor: Option<usize>,
}
codec::wire_struct!(PmlState {
    unmatched, posted, completed, sent_counts, recv_counts, next_req, step_log, msg_log,
    msg_log_bytes, msg_log_overflow, crcp_inbox
} skip { msg_log_marks, ckpt_interval, replay_cursor });

impl PmlState {
    fn new(nprocs: u32) -> Self {
        PmlState {
            sent_counts: vec![0; nprocs as usize],
            recv_counts: vec![0; nprocs as usize],
            ..Default::default()
        }
    }

    fn matches(frame: &AppFrame, ctx: u32, src: Option<u32>, tag: Option<u32>) -> bool {
        frame.ctx == ctx
            && src.map(|s| s == frame.src).unwrap_or(true)
            && tag.map(|t| t == frame.tag).unwrap_or(true)
    }

    /// Pop the earliest unmatched frame matching the spec.
    fn match_unmatched(&mut self, ctx: u32, src: Option<u32>, tag: Option<u32>) -> Option<AppFrame> {
        let idx = self
            .unmatched
            .iter()
            .position(|f| Self::matches(f, ctx, src, tag))?;
        self.unmatched.remove(idx)
    }

    /// Match an arriving frame against posted receives (posted-first MPI
    /// semantics). Returns the satisfied request id.
    fn match_posted(&mut self, frame: &AppFrame) -> Option<u64> {
        let idx = self
            .posted
            .iter()
            .position(|p| Self::matches(frame, p.ctx, p.src, p.tag))?;
        Some(self.posted.remove(idx).req)
    }

    /// Take the next replay record, deactivating replay when the log is
    /// exhausted.
    fn replay_next(&mut self) -> Option<OpRecord> {
        let cursor = self.replay_cursor?;
        let record = self.step_log.get(cursor).cloned();
        match record {
            Some(r) => {
                let next = cursor + 1;
                self.replay_cursor = if next >= self.step_log.len() {
                    None
                } else {
                    Some(next)
                };
                Some(r)
            }
            None => {
                self.replay_cursor = None;
                None
            }
        }
    }

    /// True while operations replay from the log.
    pub fn replaying(&self) -> bool {
        self.replay_cursor.is_some()
    }
}

/// The per-process PML, shared between the application thread and the
/// checkpoint notification thread.
pub struct PmlShared {
    me: u32,
    nprocs: u32,
    endpoint: Endpoint,
    fabric: Fabric,
    /// Raw [`EndpointId`] of each rank. Atomic because a survivor
    /// re-points a restarted peer's entry from inside `classify` (state
    /// lock held) when its `ReplayBegin` arrives.
    peers: Vec<AtomicU64>,
    gate: Arc<SafePointGate>,
    tracer: Tracer,
    state: Mutex<PmlState>,
    crcp: RwLock<Option<Arc<dyn CrcpComponent>>>,
    /// Job-wide cooperative termination flag. Blocked operations observe
    /// it and unwind with [`MpiError::Terminating`] — without this, a rank
    /// that exits at a step boundary after checkpoint-and-terminate would
    /// leave peers blocked in receives forever.
    terminate: RwLock<Option<Arc<std::sync::atomic::AtomicBool>>>,
}

impl PmlShared {
    /// Build a PML for rank `me` of `nprocs`, with `peers[r]` being rank
    /// `r`'s fabric endpoint.
    pub fn new(
        me: u32,
        nprocs: u32,
        endpoint: Endpoint,
        peers: Vec<EndpointId>,
        gate: Arc<SafePointGate>,
        tracer: Tracer,
    ) -> Arc<Self> {
        assert_eq!(peers.len(), nprocs as usize, "one endpoint per rank");
        let fabric = endpoint.fabric().clone();
        let peers = peers.into_iter().map(|e| AtomicU64::new(e.0)).collect();
        Arc::new(PmlShared {
            me,
            nprocs,
            endpoint,
            fabric,
            peers,
            gate,
            tracer,
            state: Mutex::new(PmlState::new(nprocs)),
            crcp: RwLock::new(None),
            terminate: RwLock::new(None),
        })
    }

    /// Install the job's termination flag (done at init).
    pub fn set_terminate_flag(&self, flag: Arc<std::sync::atomic::AtomicBool>) {
        *self.terminate.write() = Some(flag);
    }

    /// True once the job was asked to terminate.
    fn terminating(&self) -> bool {
        self.terminate
            .read()
            .as_ref()
            .map(|f| f.load(std::sync::atomic::Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// This rank.
    pub fn me(&self) -> u32 {
        self.me
    }

    /// This rank's own fabric endpoint id (announced to survivors in the
    /// partial-restart rejoin handshake).
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }

    /// World size.
    pub fn nprocs(&self) -> u32 {
        self.nprocs
    }

    /// Install (or remove) the CRCP interposition component.
    pub fn set_crcp(&self, crcp: Option<Arc<dyn CrcpComponent>>) {
        *self.crcp.write() = crcp;
    }

    /// The installed CRCP component, if any.
    pub fn crcp(&self) -> Option<Arc<dyn CrcpComponent>> {
        self.crcp.read().clone()
    }

    /// Run `f` with the state locked (CRCP protocols use this).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut PmlState) -> R) -> R {
        f(&mut self.state.lock())
    }

    // -- wire helpers -------------------------------------------------------

    /// Rank `dst`'s current fabric endpoint.
    fn peer(&self, dst: u32) -> EndpointId {
        EndpointId(self.peers[dst as usize].load(Ordering::SeqCst))
    }

    fn classify(&self, st: &mut PmlState, delivery: netsim::Delivery) -> Result<(), MpiError> {
        match delivery.tag {
            CLASS_APP => {
                let frame = decode_app(&delivery.payload)?;
                let src = frame.src as usize;
                if src >= st.recv_counts.len() {
                    return Err(MpiError::PeerLost {
                        detail: format!("frame from unknown rank {}", frame.src),
                    });
                }
                if frame.seq < st.recv_counts[src] {
                    // Duplicate (a replayed frame the restored counters
                    // already account for): drop silently.
                    return Ok(());
                }
                if frame.seq > st.recv_counts[src] {
                    return Err(MpiError::PeerLost {
                        detail: format!(
                            "sequence gap from rank {}: expected {}, got {}",
                            frame.src, st.recv_counts[src], frame.seq
                        ),
                    });
                }
                st.recv_counts[src] += 1;
                if let Some(req) = st.match_posted(&frame) {
                    st.completed.insert(req, Some(frame));
                } else {
                    st.unmatched.push_back(frame);
                }
                Ok(())
            }
            CLASS_CRCP => {
                let msg = decode_crcp(&delivery.payload)?;
                if let CrcpMsg::ReplayBegin { from, endpoint } = msg {
                    // Handled inline: a ReplayBegin can arrive at any
                    // moment (its sender just restarted) and must never
                    // linger in the inbox, where it would trip the
                    // clean-checkpoint invariant in `PmlFtHandle`.
                    return self.handle_replay_begin(st, from, endpoint);
                }
                st.crcp_inbox.push_back(msg);
                Ok(())
            }
            other => Err(MpiError::PeerLost {
                detail: format!("unknown traffic class {other}"),
            }),
        }
    }

    /// A restarted rank announced its replacement endpoint: re-point the
    /// peer table, replay every logged message it may have missed
    /// (duplicate suppression at the receiver discards the ones its
    /// restored counters already account for), and fence the backlog
    /// with `ReplayDone` so the rejoiner knows its channel is caught up.
    fn handle_replay_begin(
        &self,
        st: &mut PmlState,
        from: u32,
        endpoint: u64,
    ) -> Result<(), MpiError> {
        if from as usize >= st.recv_counts.len() {
            return Err(MpiError::PeerLost {
                detail: format!("ReplayBegin from unknown rank {from}"),
            });
        }
        self.peers[from as usize].store(endpoint, Ordering::SeqCst);
        let mut resent = 0u64;
        for logged in st.msg_log.iter().filter(|l| l.dst == from) {
            self.resend_logged(logged)?;
            resent += 1;
        }
        self.tracer.record(
            "crcp.replay.resent",
            &format!("rank {}: replayed {resent} logged sends to restarted rank {from}", self.me),
        );
        self.send_crcp(from, &CrcpMsg::ReplayDone { from: self.me })
    }

    /// Drain everything currently queued on the endpoint (non-blocking).
    fn pump_locked(&self, st: &mut PmlState) -> Result<(), MpiError> {
        loop {
            match self.endpoint.try_recv() {
                Ok(d) => self.classify(st, d)?,
                Err(NetError::Empty) => return Ok(()),
                Err(e) => {
                    return Err(MpiError::PeerLost {
                        detail: format!("endpoint failed: {e}"),
                    })
                }
            }
        }
    }

    /// Block up to `timeout` for one wire event and classify it. Returns
    /// whether anything arrived. Used by CRCP coordination loops.
    pub fn poll_wire_once(&self, timeout: Duration) -> Result<bool, MpiError> {
        match self.endpoint.recv_timeout(timeout) {
            Ok(d) => {
                self.classify(&mut self.state.lock(), d)?;
                Ok(true)
            }
            Err(NetError::Timeout) => Ok(false),
            Err(e) => Err(MpiError::PeerLost {
                detail: format!("endpoint failed: {e}"),
            }),
        }
    }

    /// Send a CRCP control message to `dst` (not counted by bookmarks).
    pub fn send_crcp(&self, dst: u32, msg: &CrcpMsg) -> Result<(), MpiError> {
        let wire = crate::frame::encode_crcp(msg);
        self.fabric
            .send(self.endpoint.id(), self.peer(dst), CLASS_CRCP, wire)
            .map_err(|e| MpiError::PeerLost {
                detail: format!("CRCP send to rank {dst}: {e}"),
            })?;
        Ok(())
    }

    /// Resend a logged application frame verbatim (partial-restart
    /// replay). Bypasses counters: the original send was already counted.
    fn resend_logged(&self, logged: &LoggedSend) -> Result<(), MpiError> {
        let wire = encode_app(self.me, logged.ctx, logged.tag, logged.seq, &logged.payload);
        self.fabric
            .send(self.endpoint.id(), self.peer(logged.dst), CLASS_APP, wire)
            .map_err(|e| MpiError::PeerLost {
                detail: format!("resend to rank {}: {e}", logged.dst),
            })?;
        Ok(())
    }

    // -- blocking operations -----------------------------------------------

    fn check_rank(&self, rank: u32) -> Result<(), MpiError> {
        if rank >= self.nprocs {
            return Err(MpiError::Invalid {
                detail: format!("rank {rank} out of range (world size {})", self.nprocs),
            });
        }
        Ok(())
    }

    /// Blocking standard-mode send.
    pub fn send(&self, ctx: u32, dst: u32, tag: u32, payload: &[u8]) -> Result<(), MpiError> {
        self.check_rank(dst)?;
        {
            let mut st = self.state.lock();
            if let Some(record) = st.replay_next() {
                return match record {
                    OpRecord::Send {
                        dst: rd,
                        ctx: rc,
                        tag: rt,
                        len,
                    } if rd == dst && rc == ctx && rt == tag && len == payload.len() as u64 => {
                        Ok(())
                    }
                    other => Err(MpiError::ReplayDiverged {
                        detail: format!("expected {other:?}, got send(dst={dst}, ctx={ctx}, tag={tag}, len={})", payload.len()),
                    }),
                };
            }
        }
        // New sends are held at the gate between a checkpoint request and
        // its completion (paper §6.5's MPI_SEND restriction).
        self.gate.checkpoint_point();
        let crcp = self.crcp();
        let mut st = self.state.lock();
        let seq = st.sent_counts[dst as usize];
        let logged_before = st.msg_log.len();
        if let Some(c) = &crcp {
            c.on_send(&mut st, self.me, dst, ctx, tag, seq, payload);
        }
        let in_msg_log = st.msg_log.len() > logged_before;
        let wire = encode_app(self.me, ctx, tag, seq, payload);
        match self.fabric.send(self.endpoint.id(), self.peer(dst), CLASS_APP, wire) {
            Ok(_) => {}
            Err(NetError::Unreachable { .. }) if in_msg_log => {
                // The peer's endpoint is gone — it died. The frame is in
                // the partial-restart message log, so the send succeeds
                // from the survivor's point of view: the logged copy is
                // replayed over the `ReplayBegin` handshake once the rank
                // rejoins on a spare node. Sequence numbers keep
                // advancing so the log stays gap-free.
            }
            Err(e) => {
                return Err(MpiError::PeerLost {
                    detail: format!("send to rank {dst}: {e}"),
                })
            }
        }
        st.sent_counts[dst as usize] += 1;
        st.step_log.push(OpRecord::Send {
            dst,
            ctx,
            tag,
            len: payload.len() as u64,
        });
        Ok(())
    }

    /// Blocking receive. `src`/`tag` of `None` mean any.
    pub fn recv(
        &self,
        ctx: u32,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<AppFrame, MpiError> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        loop {
            {
                let mut st = self.state.lock();
                if let Some(record) = st.replay_next() {
                    return match record {
                        OpRecord::Recv {
                            ctx: rc,
                            src: rs,
                            tag: rt,
                            frame,
                        } if rc == ctx && rs == src && rt == tag => Ok(frame),
                        other => Err(MpiError::ReplayDiverged {
                            detail: format!(
                                "expected {other:?}, got recv(ctx={ctx}, src={src:?}, tag={tag:?})"
                            ),
                        }),
                    };
                }
                self.pump_locked(&mut st)?;
                if let Some(frame) = st.match_unmatched(ctx, src, tag) {
                    st.step_log.push(OpRecord::Recv {
                        ctx,
                        src,
                        tag,
                        frame: frame.clone(),
                    });
                    return Ok(frame);
                }
            }
            self.gate.checkpoint_point();
            match self.endpoint.recv_timeout(WIRE_POLL) {
                Ok(d) => self.classify(&mut self.state.lock(), d)?,
                Err(NetError::Timeout) => {
                    if self.terminating() {
                        return Err(MpiError::Terminating);
                    }
                }
                Err(e) => {
                    return Err(MpiError::PeerLost {
                        detail: format!("endpoint failed while receiving: {e}"),
                    })
                }
            }
        }
    }

    // -- non-blocking operations ---------------------------------------------

    /// Non-blocking send: completes immediately (the fabric buffers).
    pub fn isend(&self, ctx: u32, dst: u32, tag: u32, payload: &[u8]) -> Result<u64, MpiError> {
        self.check_rank(dst)?;
        {
            let mut st = self.state.lock();
            if let Some(record) = st.replay_next() {
                return match record {
                    OpRecord::Isend {
                        req,
                        dst: rd,
                        ctx: rc,
                        tag: rt,
                        len,
                    } if rd == dst && rc == ctx && rt == tag && len == payload.len() as u64 => {
                        Ok(req)
                    }
                    other => Err(MpiError::ReplayDiverged {
                        detail: format!("expected {other:?}, got isend(dst={dst})"),
                    }),
                };
            }
        }
        self.gate.checkpoint_point();
        let crcp = self.crcp();
        let mut st = self.state.lock();
        let seq = st.sent_counts[dst as usize];
        if let Some(c) = &crcp {
            c.on_send(&mut st, self.me, dst, ctx, tag, seq, payload);
        }
        let wire = encode_app(self.me, ctx, tag, seq, payload);
        self.fabric
            .send(self.endpoint.id(), self.peer(dst), CLASS_APP, wire)
            .map_err(|e| MpiError::PeerLost {
                detail: format!("isend to rank {dst}: {e}"),
            })?;
        st.sent_counts[dst as usize] += 1;
        let req = st.next_req;
        st.next_req += 1;
        st.completed.insert(req, None);
        st.step_log.push(OpRecord::Isend {
            req,
            dst,
            ctx,
            tag,
            len: payload.len() as u64,
        });
        Ok(req)
    }

    /// Non-blocking receive: posts a match request.
    pub fn irecv(&self, ctx: u32, src: Option<u32>, tag: Option<u32>) -> Result<u64, MpiError> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let mut st = self.state.lock();
        if let Some(record) = st.replay_next() {
            return match record {
                OpRecord::Irecv {
                    req,
                    ctx: rc,
                    src: rs,
                    tag: rt,
                } if rc == ctx && rs == src && rt == tag => Ok(req),
                other => Err(MpiError::ReplayDiverged {
                    detail: format!("expected {other:?}, got irecv(ctx={ctx})"),
                }),
            };
        }
        self.pump_locked(&mut st)?;
        let req = st.next_req;
        st.next_req += 1;
        if let Some(frame) = st.match_unmatched(ctx, src, tag) {
            st.completed.insert(req, Some(frame));
        } else {
            st.posted.push(PostedRecv { req, ctx, src, tag });
        }
        st.step_log.push(OpRecord::Irecv { req, ctx, src, tag });
        Ok(req)
    }

    /// Wait for a request. Returns the frame for receive requests, `None`
    /// for send requests.
    pub fn wait(&self, req: u64) -> Result<Option<AppFrame>, MpiError> {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(record) = st.replay_next() {
                    return match record {
                        OpRecord::Wait { req: rr, frame } if rr == req => {
                            // The restored state still holds the completion
                            // (it was consumed at original execution, so it
                            // is not present; nothing to clean up).
                            Ok(frame)
                        }
                        other => Err(MpiError::ReplayDiverged {
                            detail: format!("expected {other:?}, got wait({req})"),
                        }),
                    };
                }
                self.pump_locked(&mut st)?;
                if let Some(entry) = st.completed.remove(&req) {
                    st.step_log.push(OpRecord::Wait {
                        req,
                        frame: entry.clone(),
                    });
                    return Ok(entry);
                }
                if !st.posted.iter().any(|p| p.req == req) {
                    return Err(MpiError::BadRequest { request: req });
                }
            }
            self.gate.checkpoint_point();
            match self.endpoint.recv_timeout(WIRE_POLL) {
                Ok(d) => self.classify(&mut self.state.lock(), d)?,
                Err(NetError::Timeout) => {
                    if self.terminating() {
                        return Err(MpiError::Terminating);
                    }
                }
                Err(e) => {
                    return Err(MpiError::PeerLost {
                        detail: format!("endpoint failed while waiting: {e}"),
                    })
                }
            }
        }
    }

    /// Non-blocking completion test.
    pub fn test(&self, req: u64) -> Result<Option<Option<AppFrame>>, MpiError> {
        let mut st = self.state.lock();
        if st.replaying() {
            // During replay, completion state is determined by the log:
            // peek whether the next record is this request's wait.
            let cursor = st.replay_cursor.expect("replaying");
            return match st.step_log.get(cursor) {
                Some(OpRecord::Wait { req: rr, frame }) if *rr == req => {
                    let frame = frame.clone();
                    st.replay_next();
                    Ok(Some(frame))
                }
                _ => Ok(None),
            };
        }
        self.pump_locked(&mut st)?;
        if let Some(entry) = st.completed.remove(&req) {
            st.step_log.push(OpRecord::Wait {
                req,
                frame: entry.clone(),
            });
            return Ok(Some(entry));
        }
        if !st.posted.iter().any(|p| p.req == req) {
            return Err(MpiError::BadRequest { request: req });
        }
        Ok(None)
    }

    /// Blocking probe: wait until a matching message is available and
    /// return its metadata `(src, tag, len)` without consuming it. Logged
    /// for replay like every other operation.
    pub fn probe(
        &self,
        ctx: u32,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<(u32, u32, u64), MpiError> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        loop {
            {
                let mut st = self.state.lock();
                if let Some(record) = st.replay_next() {
                    return match record {
                        OpRecord::Probe {
                            ctx: rc,
                            src: rs,
                            tag: rt,
                            found_src,
                            found_tag,
                            len,
                        } if rc == ctx && rs == src && rt == tag => {
                            Ok((found_src, found_tag, len))
                        }
                        other => Err(MpiError::ReplayDiverged {
                            detail: format!("expected {other:?}, got probe(ctx={ctx})"),
                        }),
                    };
                }
                self.pump_locked(&mut st)?;
                let found = st
                    .unmatched
                    .iter()
                    .find(|f| PmlState::matches(f, ctx, src, tag))
                    .map(|f| (f.src, f.tag, f.payload.len() as u64));
                if let Some((found_src, found_tag, len)) = found {
                    st.step_log.push(OpRecord::Probe {
                        ctx,
                        src,
                        tag,
                        found_src,
                        found_tag,
                        len,
                    });
                    return Ok((found_src, found_tag, len));
                }
            }
            self.gate.checkpoint_point();
            match self.endpoint.recv_timeout(WIRE_POLL) {
                Ok(d) => self.classify(&mut self.state.lock(), d)?,
                Err(NetError::Timeout) => {
                    if self.terminating() {
                        return Err(MpiError::Terminating);
                    }
                }
                Err(e) => {
                    return Err(MpiError::PeerLost {
                        detail: format!("endpoint failed while probing: {e}"),
                    })
                }
            }
        }
    }

    // -- step boundaries and checkpoint integration ----------------------------

    /// Mark an application step boundary: the op log of the finished step
    /// is discarded (its effects are in the application's boundary state).
    pub fn begin_step(&self) {
        let mut st = self.state.lock();
        debug_assert!(
            !st.replaying(),
            "step boundary reached while still replaying"
        );
        st.step_log.clear();
        st.replay_cursor = None;
    }

    /// True while operations replay from a restored log.
    pub fn is_replaying(&self) -> bool {
        self.state.lock().replaying()
    }

    /// Encode the PML state (the "pml" image section). Called by the
    /// capture registry with the application thread parked.
    pub fn capture(&self) -> Result<Vec<u8>, CrError> {
        let st = self.state.lock();
        Ok(codec::to_bytes(&*st))
    }

    /// Restore state from a captured section, arming replay if the
    /// captured step had completed operations.
    pub fn restore(&self, bytes: &[u8]) -> Result<(), CrError> {
        let restored: PmlState = codec::from_bytes(bytes)?;
        if restored.sent_counts.len() != self.nprocs as usize {
            return Err(CrError::BadSnapshot {
                detail: format!(
                    "pml section is for a {}-rank world, this job has {}",
                    restored.sent_counts.len(),
                    self.nprocs
                ),
            });
        }
        *self.state.lock() = restored;
        Ok(())
    }

    /// Arm replay of the restored step log. Called by the application
    /// runner immediately before re-entering the partial step; arming is
    /// deferred so restart-time housekeeping traffic (partial-restart
    /// replay, rendezvous) does not consume replay records.
    pub fn arm_replay(&self) {
        let mut st = self.state.lock();
        st.replay_cursor = if st.step_log.is_empty() { None } else { Some(0) };
    }

    /// Partial-restart message-log footprint: `(entries, payload bytes,
    /// overflowed)`. Read by the container probe that feeds the
    /// per-interval accounting recorded in snapshot metadata.
    pub fn msg_log_stats(&self) -> (u64, u64, bool) {
        let st = self.state.lock();
        (st.msg_log.len() as u64, st.msg_log_bytes, st.msg_log_overflow)
    }

    /// True when `crcp_msg_log_cap_kb` dropped at least one send *after*
    /// the newest globally committed interval's quiesce (`watermark` is
    /// the job's commit watermark: highest committed interval + 1). A
    /// partial restart restores from that interval, so a gap in any
    /// later window means this rank cannot replay a contiguous backlog
    /// and the restart must refuse. Overflow folded into the committed
    /// interval's own mark (or older ones) precedes the restore point
    /// and is ignored.
    pub fn msg_log_gapped_since(&self, watermark: u64) -> bool {
        let st = self.state.lock();
        st.msg_log_overflow
            || st
                .msg_log_marks
                .iter()
                .any(|m| m.overflow && m.interval >= watermark)
    }
}

/// The PML's INC subsystem handle: receives `ft_event` notifications in
/// the OMPI layer chain (after the CRCP — paper §5.3 ordering).
pub struct PmlFtHandle {
    pml: Arc<PmlShared>,
    tracer: Tracer,
}

impl PmlFtHandle {
    /// Wrap a PML for INC registration.
    pub fn new(pml: Arc<PmlShared>) -> Self {
        let tracer = pml.tracer.clone();
        PmlFtHandle { pml, tracer }
    }
}

impl FtEvent for PmlFtHandle {
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
        self.tracer
            .record("ompi.pml.ft_event", &state.to_string());
        match state {
            FtEventState::Checkpoint => {
                // Channels were quiesced by the CRCP (which ran first); the
                // simulated interconnect needs no teardown, but we verify
                // the invariant that no CRCP control traffic is left over.
                let leftovers = self.pml.with_state(|st| st.crcp_inbox.len());
                if leftovers != 0 {
                    return Err(CrError::protocol(format!(
                        "{leftovers} unconsumed CRCP control messages at checkpoint"
                    )));
                }
                Ok(())
            }
            FtEventState::Continue | FtEventState::Restart | FtEventState::Error => Ok(()),
        }
    }
}
