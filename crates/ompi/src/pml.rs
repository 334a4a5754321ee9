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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::{Endpoint, EndpointId, Fabric, NetError, PEER_DOWN, WAKE};
use parking_lot::{Mutex, RwLock};

use cr_core::{CrError, FtEvent, FtEventState, Tracer};
use opal::SafePointGate;

use crate::crcp::msglog::{arrival, Arrival, MsgLog};
use crate::crcp::CrcpComponent;
use crate::error::MpiError;
use crate::frame::{
    decode_app, decode_crcp, AppFrame, CrcpMsg, WirePool, CLASS_APP, CLASS_CRCP, HEADER_LEN,
};

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
    /// Partial-restart message log (`crcp_msg_log_enabled`), which the
    /// recovery replays to a restarted peer ([`PmlShared::rejoin_peer`]).
    pub msg_log: MsgLog,
    /// Interval of the checkpoint currently coordinating, stashed by the
    /// INC handle before the CRCP runs (the component has no view of
    /// SNAPC's numbering). `None` outside a checkpoint.
    pub ckpt_interval: Option<u64>,
    /// Epoch of the checkpoint order currently coordinating, stashed with
    /// `ckpt_interval`: SNAPC numbers every initiation, so a retry of an
    /// aborted interval gets a new epoch.
    pub ckpt_epoch: u64,
    /// Ranks the fabric reported dead (a `PEER_DOWN` notice for the
    /// rank's current endpoint), until a restarted incarnation re-points
    /// the rank. Never persisted.
    pub peers_down: BTreeSet<u32>,
    /// CRCP control messages awaiting the coordination protocol.
    pub crcp_inbox: VecDeque<CrcpMsg>,
    /// Replay position into `step_log` (never persisted: restarts always
    /// replay from the beginning).
    pub replay_cursor: Option<usize>,
}

// The message log's entries, bytes and overflow flag are three fields of
// the "pml" section itself (the layout every captured image has).
codec::wire_struct!(PmlState {
    unmatched,
    posted,
    completed,
    sent_counts,
    recv_counts,
    next_req,
    step_log,
    msg_log: MsgLog { entries as msg_log, bytes as msg_log_bytes, overflow as msg_log_overflow },
    crcp_inbox,
} skip { ckpt_interval, ckpt_epoch, peers_down, replay_cursor });

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
        self.replay_cursor = Some(cursor + 1).filter(|next| *next < self.step_log.len());
        self.step_log.get(cursor).cloned()
    }
}

/// The per-process PML, shared between the application thread and the
/// checkpoint notification thread.
pub struct PmlShared {
    me: u32,
    nprocs: u32,
    endpoint: Endpoint,
    fabric: Fabric,
    /// Raw [`EndpointId`] of each rank. Atomic because a partial restart
    /// re-points a restarted peer's entry from the recovery thread
    /// ([`PmlShared::rejoin_peer`], state lock held).
    peers: Vec<AtomicU64>,
    gate: Arc<SafePointGate>,
    tracer: Tracer,
    state: Mutex<PmlState>,
    /// Recycled wire buffers for this rank's large frames.
    wire: WirePool,
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
        // Coordination rounds end when a peer dies, so hear of each death.
        for (rank, peer) in peers.iter().enumerate() {
            if rank != me as usize {
                fabric.watch(endpoint.id(), *peer);
            }
        }
        // A pause request or the job's end wakes a wait on the wire.
        let (f, id) = (fabric.clone(), endpoint.id());
        gate.set_waker(Arc::new(move || f.wake(id)));
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
            wire: WirePool::default(),
            crcp: RwLock::new(None),
            terminate: RwLock::new(None),
        })
    }

    /// Install the job's termination flag (done at init).
    pub fn set_terminate_flag(&self, flag: Arc<std::sync::atomic::AtomicBool>) {
        *self.terminate.write() = Some(flag);
    }

    /// True once the job was asked to terminate.
    pub(crate) fn terminating(&self) -> bool {
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

    /// This rank's own fabric endpoint id.
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
                match arrival(st.recv_counts[src], frame.seq) {
                    Arrival::Duplicate => return Ok(()),
                    Arrival::Next => {}
                    Arrival::Gap => {
                        return Err(MpiError::PeerLost {
                            detail: format!(
                                "sequence gap from rank {}: expected {}, got {}",
                                frame.src, st.recv_counts[src], frame.seq
                            ),
                        })
                    }
                }
                st.recv_counts[src] += 1;
                if let Some(req) = st.match_posted(&frame) {
                    st.completed.insert(req, Some(frame));
                } else {
                    st.unmatched.push_back(frame);
                }
                Ok(())
            }
            PEER_DOWN => {
                // A notice for an endpoint the rank has since left (it
                // restarted elsewhere) names nobody.
                if let Some(rank) = (0..self.nprocs).find(|r| self.peer(*r) == delivery.src) {
                    st.peers_down.insert(rank);
                }
                Ok(())
            }
            // Only ends a wait: the caller looks at its state again.
            WAKE => Ok(()),
            CLASS_CRCP => {
                st.crcp_inbox.push_back(decode_crcp(&delivery.payload)?);
                Ok(())
            }
            other => Err(MpiError::PeerLost {
                detail: format!("unknown traffic class {other}"),
            }),
        }
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

    /// Wait for one delivery (spin briefly, then park with no timeout)
    /// and classify it: the one wait of the PML and of every CRCP loop.
    /// Only the thread the gate lets run waits here: the application
    /// thread, or the CRCP while the application thread is parked.
    pub(crate) fn wait_wire(&self) -> Result<(), MpiError> {
        let delivery = self.endpoint.recv().map_err(|e| MpiError::PeerLost {
            detail: format!("endpoint failed: {e}"),
        })?;
        self.classify(&mut self.state.lock(), delivery)
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

    /// Encode and send one application frame through the CRCP hook, and
    /// count it. With the message log on, a frame counts as sent even
    /// when the peer's endpoint is gone (it died), so one node loss fails
    /// one rank: the recovery replays the logged copy once the rank is
    /// restarted on a spare node ([`PmlShared::rejoin_peer`]), and
    /// sequence numbers keep advancing so the log stays gap-free. A frame
    /// the cap kept out of the log marks it overflowed, and the recovery
    /// refuses for that log instead.
    fn post_app(
        &self,
        st: &mut PmlState,
        crcp: Option<&dyn CrcpComponent>,
        dst: u32,
        ctx: u32,
        tag: u32,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let seq = st.sent_counts[dst as usize];
        let wire = self.wire.encode_app(self.me, ctx, tag, seq, payload);
        let logging =
            crcp.is_some_and(|c| c.on_send(st, self.me, dst, ctx, tag, seq, &wire.slice(HEADER_LEN..)));
        match self.fabric.send(self.endpoint.id(), self.peer(dst), CLASS_APP, wire) {
            Err(NetError::Unreachable { .. }) if logging => {}
            sent => {
                sent?;
            }
        }
        st.sent_counts[dst as usize] += 1;
        Ok(())
    }

    /// A partial restart moved `rank` onto `endpoint`, restored from the
    /// newest committed interval (`watermark` = that interval + 1). The
    /// recovery calls this on every survivor before the rank runs, so no
    /// survivor has to enter MPI for it. Under one acquisition of the
    /// state lock it re-points the peer table, forgets the rank's death,
    /// watches the new endpoint and resends every logged frame the
    /// restored counts do not hold. A send reads the peer table under the
    /// same lock, so the whole backlog is queued on the new endpoint
    /// before any fresh frame. Returns the frames resent: a resend stops
    /// at the first failure, which means this rank's own endpoint is dead
    /// (it failed too, and re-sends its traffic when it is restarted).
    pub fn rejoin_peer(&self, rank: u32, endpoint: EndpointId, watermark: u64) -> u64 {
        let mut st = self.state.lock();
        self.peers[rank as usize].store(endpoint.0, Ordering::SeqCst);
        st.peers_down.remove(&rank);
        self.fabric.watch(self.endpoint.id(), endpoint);
        let mut resent = 0u64;
        let mut failed = String::new();
        for logged in st.msg_log.replay(rank, watermark) {
            let wire = self
                .wire
                .encode_app(self.me, logged.ctx, logged.tag, logged.seq, &logged.payload);
            if let Err(e) = self.fabric.send(self.endpoint.id(), endpoint, CLASS_APP, wire) {
                failed = format!(", then stopped: {e}");
                break;
            }
            resent += 1;
        }
        self.tracer.record(
            "crcp.replay.resent",
            &format!(
                "rank {}: replayed {resent} logged sends to restarted rank {rank}{failed}",
                self.me
            ),
        );
        resent
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
        self.post_app(&mut st, crcp.as_deref(), dst, ctx, tag, payload)
            .map_err(|e| MpiError::PeerLost {
                detail: format!("send to rank {dst}: {e}"),
            })?;
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
        self.block(|st| {
            if let Some(record) = st.replay_next() {
                return match record {
                    OpRecord::Recv {
                        ctx: rc,
                        src: rs,
                        tag: rt,
                        frame,
                    } if rc == ctx && rs == src && rt == tag => Ok(Some(frame)),
                    other => Err(MpiError::ReplayDiverged {
                        detail: format!(
                            "expected {other:?}, got recv(ctx={ctx}, src={src:?}, tag={tag:?})"
                        ),
                    }),
                };
            }
            self.pump_locked(st)?;
            let frame = st.match_unmatched(ctx, src, tag);
            if let Some(frame) = &frame {
                // The record shares the frame's wire buffer.
                let frame = frame.clone();
                st.step_log.push(OpRecord::Recv { ctx, src, tag, frame });
            }
            Ok(frame)
        })
    }

    /// Run `step` with the state locked until it yields, waiting on the
    /// wire between tries. Between waits the caller unwinds once the job
    /// terminates and holds at the safe-point gate; both events post a
    /// wake, so a wait never outlasts them. A checkpoint may have drained
    /// what `step` waits for, so `step` runs again after one.
    fn block<R>(
        &self,
        mut step: impl FnMut(&mut PmlState) -> Result<Option<R>, MpiError>,
    ) -> Result<R, MpiError> {
        loop {
            let done = {
                let mut st = self.state.lock();
                step(&mut st)?
            };
            if let Some(done) = done {
                return Ok(done);
            }
            if self.terminating() {
                return Err(MpiError::Terminating);
            }
            if !self.gate.checkpoint_point() {
                self.wait_wire()?;
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
        self.post_app(&mut st, crcp.as_deref(), dst, ctx, tag, payload)
            .map_err(|e| MpiError::PeerLost {
                detail: format!("isend to rank {dst}: {e}"),
            })?;
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
        self.block(|st| {
            if let Some(record) = st.replay_next() {
                return match record {
                    // The completion was consumed at original execution,
                    // so the restored state holds nothing to clean up.
                    OpRecord::Wait { req: rr, frame } if rr == req => Ok(Some(frame)),
                    other => Err(MpiError::ReplayDiverged {
                        detail: format!("expected {other:?}, got wait({req})"),
                    }),
                };
            }
            self.pump_locked(st)?;
            if let Some(entry) = st.completed.remove(&req) {
                st.step_log.push(OpRecord::Wait { req, frame: entry.clone() });
                return Ok(Some(entry));
            }
            if !st.posted.iter().any(|p| p.req == req) {
                return Err(MpiError::BadRequest { request: req });
            }
            Ok(None)
        })
    }

    /// Non-blocking completion test.
    pub fn test(&self, req: u64) -> Result<Option<Option<AppFrame>>, MpiError> {
        let mut st = self.state.lock();
        if let Some(cursor) = st.replay_cursor {
            // During replay, completion state is determined by the log:
            // peek whether the next record is this request's wait.
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
        self.block(|st| {
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
                        Ok(Some((found_src, found_tag, len)))
                    }
                    other => Err(MpiError::ReplayDiverged {
                        detail: format!("expected {other:?}, got probe(ctx={ctx})"),
                    }),
                };
            }
            self.pump_locked(st)?;
            let found = st
                .unmatched
                .iter()
                .find(|f| PmlState::matches(f, ctx, src, tag))
                .map(|f| (f.src, f.tag, f.payload.len() as u64));
            if let Some((found_src, found_tag, len)) = found {
                st.step_log.push(OpRecord::Probe { ctx, src, tag, found_src, found_tag, len });
            }
            Ok(found)
        })
    }

    // -- step boundaries and checkpoint integration ----------------------------

    /// Mark an application step boundary: the op log of the finished step
    /// is discarded (its effects are in the application's boundary state).
    pub fn begin_step(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.replay_cursor.is_none(), "step boundary reached while still replaying");
        st.step_log.clear();
        st.replay_cursor = None;
    }

    /// True while operations replay from a restored log.
    pub fn is_replaying(&self) -> bool {
        self.state.lock().replay_cursor.is_some()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crcp::msglog::LoggedSend;

    /// The "pml" image section's bytes, pinned: every persisted field set,
    /// the message log's three fields flattened into the section, and the
    /// never-persisted fields set too (they must not appear).
    #[test]
    fn pml_section_encoding_is_pinned() {
        let frame = AppFrame {
            src: 1,
            ctx: 0,
            tag: 7,
            seq: 2,
            payload: bytes::Bytes::from_static(b"ab"),
        };
        let mut st = PmlState::new(2);
        st.unmatched.push_back(frame.clone());
        st.posted.push(PostedRecv { req: 3, ctx: 0, src: Some(1), tag: None });
        st.completed.insert(4, None);
        st.sent_counts[1] = 5;
        st.recv_counts[0] = 6;
        st.next_req = 9;
        st.step_log.push(OpRecord::Wait { req: 3, frame: Some(frame) });
        let send = LoggedSend {
            dst: 1,
            ctx: 0,
            tag: 7,
            seq: 1,
            payload: bytes::Bytes::from_static(b"xyz"),
        };
        assert!(st.msg_log.record(send.clone(), 100));
        assert!(!st.msg_log.record(send, 4));
        st.crcp_inbox.push_back(CrcpMsg::Quiesced { from: 1, epoch: 2 });
        st.ckpt_interval = Some(8);
        st.ckpt_epoch = 8;
        st.peers_down.insert(1);
        st.replay_cursor = Some(1);
        let encoded = codec::to_bytes(&st);
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        let pinned = concat!(
            "100b09756e6d6174636865640e01100503737263040103637478040003746167",
            "0407037365710402077061796c6f61640b02616206706f737465640e01100403",
            "7265710403036374780400037372630d0401037461670c09636f6d706c657465",
            "640f0104040c0b73656e745f636f756e74730e02040004050b726563765f636f",
            "756e74730e0204060400086e6578745f726571040908737465705f6c6f670e01",
            "14045761697402037265710403056672616d650d100503737263040103637478",
            "0400037461670407037365710402077061796c6f61640b026162076d73675f6c",
            "6f670e0110050364737404010363747804000374616704070373657104010770",
            "61796c6f61640b0378797a0d6d73675f6c6f675f62797465730403106d73675f",
            "6c6f675f6f766572666c6f77020a637263705f696e626f780e01140851756965",
            "73636564020466726f6d04010565706f63680402",
        );
        assert_eq!(hex, pinned);
        let back: PmlState = codec::from_bytes(&encoded).unwrap();
        assert_eq!(codec::to_bytes(&back), encoded);
        assert_eq!((back.ckpt_interval, back.replay_cursor), (None, None));
    }
}
