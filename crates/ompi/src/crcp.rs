//! CRCP — the Checkpoint/Restart Coordination Protocol framework.
//!
//! A local checkpointer cannot capture the state of communication
//! channels, so a distributed protocol must bring the channels into a
//! known state before the per-process images are taken (paper §5.3).
//! CRCP components are interposed on the PML (the wrapper design of
//! §6.3) and receive checkpoint notification *before any other MPI
//! subsystem*.
//!
//! Components:
//!
//! * **`coord`** — the LAM/MPI-style coordinated protocol the paper
//!   implements: a **bookmark exchange**. At checkpoint time every pair of
//!   processes exchanges per-peer sent-message counts; each receiver then
//!   drains its channels until its received counts match the senders'
//!   bookmarks, buffering drained-but-unmatched messages into the process
//!   image. Operates on whole messages (the paper's refinement over
//!   LAM/MPI's byte counts). With `crcp_msg_log_enabled` it also keeps
//!   the sender-side message log that a partial restart replays: the
//!   recovery resends each survivor's backlog itself, before the
//!   restarted rank runs ([`PmlShared::rejoin_peer`]), so no survivor
//!   takes part and no rank waits on another.
//! * **`none`** — passthrough. With this component installed the full
//!   interposition machinery runs but does nothing: the configuration the
//!   paper benchmarks against the infrastructure-disabled build (§7).

pub mod msglog;
pub mod round;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use mca::{Framework, McaParams};

use cr_core::{CrError, FtEvent, FtEventState, Tracer};

use crate::error::MpiError;
use crate::pml::{PmlShared, PmlState};

use self::msglog::LoggedSend;
use self::round::{Abort, Input, Output, Outputs, Round};

/// A checkpoint/restart coordination protocol.
pub trait CrcpComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Interposition hook: called (with the PML state locked) before each
    /// application message is sent. `payload` views the encoded frame's
    /// wire buffer, so keeping a clone of it copies nothing. Returns
    /// whether the message log is on. A send to a peer that is dead now
    /// then does not fail the sender: a partial restart replays it from
    /// the log, or, if the cap kept it out, refuses for the overflowed
    /// log.
    #[allow(clippy::too_many_arguments)] // mirrors the PML send signature
    fn on_send(
        &self,
        _st: &mut PmlState,
        _me: u32,
        _dst: u32,
        _ctx: u32,
        _tag: u32,
        _seq: u64,
        _payload: &Bytes,
    ) -> bool {
        false
    }

    /// Bring the channels into a checkpointable state for the order whose
    /// epoch is `PmlState::ckpt_epoch`. Runs on the checkpoint
    /// notification thread with the application thread parked; every
    /// rank runs this concurrently.
    ///
    /// `coord` runs one [`round::Round`]; `cr-model quiesce` runs the same
    /// `Round`s over FIFO mailboxes (DESIGN.md §2.4). With the `Quiesced`
    /// exit barrier in place no rank's post-coordination send is counted
    /// in a peer's still-open drain — resuming at the drain instead makes
    /// the checker reproduce the bookmark-overrun race in a 7-step
    /// trace — and every survivor's round ends when a peer refuses or
    /// dies.
    fn coordinate(&self, pml: &PmlShared) -> Result<(), CrError>;

    /// This rank refused the order of `epoch` before its INC chain ran
    /// (its window is closed, its gate retired, or it never parked): end
    /// the epoch for the peers coordinating without it. No-op for
    /// components without a round.
    fn refuse(&self, _pml: &PmlShared, _epoch: u64) {}

    /// React to the post-checkpoint state (continue in place, restarted
    /// image, or failed checkpoint).
    fn resume(&self, pml: &PmlShared, state: FtEventState) -> Result<(), CrError>;

    /// Wire up the job's global-commit watermark (highest globally
    /// committed interval + 1; 0 = nothing committed yet). It is the
    /// message log's only garbage-collection rule: the INC chain delivers
    /// `Continue` at *local* commit, and a checkpoint that quiesces but
    /// never reaches global commit (a rank dies mid-interval) must leave
    /// survivor logs intact or a later partial restart replays with a
    /// sequence gap. No-op for components without a log.
    fn set_commit_watermark(&self, _watermark: Arc<AtomicU64>) {}
}

// ---------------------------------------------------------------------------
// coord
// ---------------------------------------------------------------------------

/// Coordinated bookmark-exchange protocol.
pub struct CoordCrcp {
    tracer: Tracer,
    /// Retain sent payloads for partial-restart replay
    /// (`crcp_msg_log_enabled`).
    msg_log: bool,
    /// Message-log cap in bytes (`crcp_msg_log_cap_kb`); sends past the
    /// cap are not logged and mark the log overflowed.
    msg_log_cap: u64,
    /// The job's global-commit watermark (set once at bring-up). Until it
    /// is set, nothing is garbage-collected.
    commit_watermark: OnceLock<Arc<AtomicU64>>,
}

impl CoordCrcp {
    /// Build with a tracer for phase events (message log disabled).
    pub fn new(tracer: Tracer) -> Self {
        Self::from_params(tracer, &McaParams::new())
    }

    /// Build from MCA parameters (`crcp_msg_log_enabled`,
    /// `crcp_msg_log_cap_kb`).
    pub fn from_params(tracer: Tracer, params: &McaParams) -> Self {
        let msg_log = params.get_bool_or("crcp_msg_log_enabled", false).unwrap_or(false);
        let cap_kb = params.get_parsed_or("crcp_msg_log_cap_kb", 256u64).unwrap_or(256);
        CoordCrcp {
            tracer,
            msg_log,
            msg_log_cap: cap_kb.saturating_mul(1024),
            commit_watermark: OnceLock::new(),
        }
    }

    /// Trim the log to the job's commit watermark and record what went.
    /// No-op without a watermark.
    fn gc_committed(&self, st: &mut PmlState, me: u32) {
        let Some(watermark) = self.commit_watermark.get() else {
            return;
        };
        let (dropped, freed) = st.msg_log.trim(watermark.load(Ordering::SeqCst));
        if dropped > 0 {
            self.tracer.record(
                "crcp.replay.gc",
                &format!("rank {me}: dropped {dropped} logged sends ({freed} B) at global commit"),
            );
        }
    }
}

impl CrcpComponent for CoordCrcp {
    fn name(&self) -> &'static str {
        "coord"
    }

    fn on_send(
        &self,
        st: &mut PmlState,
        me: u32,
        dst: u32,
        ctx: u32,
        tag: u32,
        seq: u64,
        payload: &Bytes,
    ) -> bool {
        // The partial-restart tax: retain the payload so a survivor can
        // replay it to a restarted peer. Dropped below the quiesce mark
        // once the marked interval reaches global commit.
        if !self.msg_log {
            return false;
        }
        self.gc_committed(st, me);
        let send = LoggedSend { dst, ctx, tag, seq, payload: payload.clone() };
        st.msg_log.record(send, self.msg_log_cap);
        true
    }

    fn coordinate(&self, pml: &PmlShared) -> Result<(), CrError> {
        let me = pml.me();
        self.tracer
            .record("ompi.crcp.coordinate", &format!("rank {me} bookmark exchange"));
        let (epoch, sent) = pml.with_state(|st| (st.ckpt_epoch, st.sent_counts.clone()));
        let mut round = Round::new(me, pml.nprocs(), epoch);
        let start = round.on(Input::Start(&sent));
        if let Err(why) = run_round(pml, &mut round, start, &self.tracer)? {
            return Err(match why {
                Abort::Overrun { .. } => CrError::protocol(why.to_string()),
                _ => CrError::PeerLost { detail: format!("checkpoint epoch {epoch}: {why}") },
            });
        }
        // Mark the log at the quiesce point. The INC handle stashes
        // SNAPC's interval number before the chain runs; a round with no
        // interval marks nothing.
        if self.msg_log {
            pml.with_state(|st| {
                self.gc_committed(st, me);
                if let Some(interval) = st.ckpt_interval {
                    st.msg_log.mark(interval);
                }
            });
        }
        Ok(())
    }

    fn refuse(&self, pml: &PmlShared, epoch: u64) {
        let mut round = Round::new(pml.me(), pml.nprocs(), epoch);
        let out = round.on(Input::Refuse);
        // The round ended with that input: this only sends and purges.
        let _ = run_round(pml, &mut round, out, &self.tracer);
    }

    fn resume(&self, pml: &PmlShared, state: FtEventState) -> Result<(), CrError> {
        let me = pml.me();
        self.tracer
            .record("ompi.crcp.resume", &format!("rank {me} {state}"));
        // The INC chain delivers `Continue` at *local* commit — global
        // commit lands later (and, for a checkpoint whose rank dies
        // mid-interval, never). The GC keys off the watermark instead;
        // draining here would strand a later partial restart (restored
        // from the last *committed* interval) without the frames its
        // survivors must replay.
        if self.msg_log && state == FtEventState::Continue {
            pml.with_state(|st| self.gc_committed(st, me));
        }
        Ok(())
    }

    fn set_commit_watermark(&self, watermark: Arc<AtomicU64>) {
        let _ = self.commit_watermark.set(watermark);
    }
}

/// Run `round` to its end over `pml`, starting from the outputs `first`:
/// send what it asks, and until it ends feed it the inbox, the ranks the
/// fabric reported dead and the receive counts, pumping the wire in
/// between. A send that fails means the peer died. Whatever the outcome,
/// nothing of the round's epoch is left in the inbox. Returns the abort
/// reason for a round that aborted; `Err` when this rank's own endpoint
/// failed.
fn run_round(
    pml: &PmlShared,
    round: &mut Round,
    first: Outputs,
    tracer: &Tracer,
) -> Result<Result<(), Abort>, CrError> {
    let me = pml.me();
    let mut pending = VecDeque::from(first);
    let outcome = 'run: loop {
        while let Some(output) = pending.pop_front() {
            match output {
                Output::Send(to, msg) => {
                    if pml.send_crcp(to, &msg).is_err() {
                        pending.extend(round.on(Input::PeerDown(to)));
                    }
                }
                Output::Drained => {}
                Output::Quiesced => break 'run Ok(Ok(())),
                Output::Aborted(why) => break 'run Ok(Err(why)),
            }
        }
        let next = wait(pml, |st| {
            let mut out = round.take(&mut st.crcp_inbox);
            for rank in &st.peers_down {
                out.extend(round.on(Input::PeerDown(*rank)));
            }
            out.extend(round.on(Input::Counts(&st.recv_counts)));
            (!out.is_empty()).then_some(out)
        });
        match next {
            Ok(out) => pending.extend(out),
            Err(e) => break Err(e),
        }
    };
    pml.with_state(|st| st.crcp_inbox.retain(|msg| !round.owns(msg)));
    match &outcome {
        Ok(Ok(())) => tracer.record("ompi.crcp.quiesced", &format!("rank {me}")),
        Ok(Err(why)) => tracer.record(
            "ompi.crcp.aborted",
            &format!("rank {me} epoch {}: {why}", round.epoch()),
        ),
        Err(_) => {}
    }
    outcome
}

/// Look at `pml`'s state with `step` until it returns `Some`, waiting on
/// the wire in between: the one wait of every CRCP protocol. It has no
/// deadline: every wait ends on a message, a death notice or the job's
/// end (`request_terminate` wakes the endpoint). `Err` when this rank's
/// own endpoint failed, or when the job is terminating and `step` found
/// nothing.
fn wait<R>(pml: &PmlShared, mut step: impl FnMut(&mut PmlState) -> Option<R>) -> Result<R, CrError> {
    loop {
        if let Some(done) = pml.with_state(&mut step) {
            return Ok(done);
        }
        if pml.terminating() {
            return Err(CrError::CheckpointDisabled { reason: MpiError::Terminating.to_string() });
        }
        pml.wait_wire().map_err(|e| CrError::protocol(e.to_string()))?;
    }
}

// ---------------------------------------------------------------------------
// none
// ---------------------------------------------------------------------------

/// Passthrough protocol: full interposition, no behaviour. Used to measure
/// the wrapper overhead (experiments E1/E2).
pub struct NoneCrcp;

impl CrcpComponent for NoneCrcp {
    fn name(&self) -> &'static str {
        "none"
    }

    fn coordinate(&self, _pml: &PmlShared) -> Result<(), CrError> {
        // No coordination: with this component a checkpoint captures
        // process images without quiescing channels. Restartable only if
        // nothing was in flight; intended for overhead measurement.
        Ok(())
    }

    fn resume(&self, _pml: &PmlShared, _state: FtEventState) -> Result<(), CrError> {
        Ok(())
    }
}

/// Assemble the CRCP framework (`coord` is the default, as in the paper's
/// first implementation).
pub fn crcp_framework(tracer: Tracer) -> Framework<dyn CrcpComponent> {
    let mut fw: Framework<dyn CrcpComponent> = Framework::new("crcp");
    fw.register("coord", 20, "coordinated bookmark-exchange protocol", move |p| {
        Box::new(CoordCrcp::from_params(tracer.clone(), p))
    });
    fw.register("none", 0, "passthrough (overhead measurement)", |_| {
        Box::new(NoneCrcp)
    });
    fw
}

/// The CRCP's INC subsystem handle. Attached to the OMPI layer INC
/// *before* the PML so coordination runs before any MPI subsystem reacts
/// (paper §5.3).
pub struct CrcpFtHandle {
    pml: Arc<PmlShared>,
    /// The process control plane, queried for the in-flight request's
    /// interval (so quiesce marks carry SNAPC's numbering) and epoch.
    container: Arc<opal::ProcessContainer>,
}

impl CrcpFtHandle {
    /// Wrap a PML whose checkpoints run under a process container: the
    /// handle tags each coordination round with the container's pending
    /// interval, which the message-log GC needs to match quiesce marks
    /// against the job's global-commit watermark.
    pub fn with_container(pml: Arc<PmlShared>, container: Arc<opal::ProcessContainer>) -> Self {
        CrcpFtHandle { pml, container }
    }
}

impl FtEvent for CrcpFtHandle {
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
        let Some(component) = self.pml.crcp() else {
            return Ok(()); // infrastructure disabled
        };
        match state {
            FtEventState::Checkpoint => {
                let order = self.container.pending_order();
                self.pml.with_state(|st| {
                    st.ckpt_interval = order.map(|(interval, _)| interval);
                    st.ckpt_epoch = order.map_or(0, |(_, epoch)| epoch);
                });
                component.coordinate(&self.pml)
            }
            FtEventState::Continue | FtEventState::Restart | FtEventState::Error => {
                component.resume(&self.pml, state)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::CrcpMsg;
    use netsim::{Fabric, LinkSpec, NodeId, Topology};
    use opal::SafePointGate;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// `n` PMLs on one fabric, rank r on node r.
    fn mesh(n: u32) -> (Fabric, Vec<Arc<PmlShared>>) {
        let fabric = Fabric::new(Topology::uniform(n, LinkSpec::gigabit_ethernet()));
        let eps: Vec<_> = (0..n).map(|r| fabric.register(NodeId(r))).collect();
        let ids: Vec<_> = eps.iter().map(|e| e.id()).collect();
        let pmls = eps
            .into_iter()
            .enumerate()
            .map(|(r, ep)| {
                let gate = Arc::new(SafePointGate::new());
                PmlShared::new(r as u32, n, ep, ids.clone(), gate, Tracer::new())
            })
            .collect();
        (fabric, pmls)
    }

    /// Run `coord` on `pml` for order `epoch` on a thread of its own.
    fn coordinate_at(pml: &Arc<PmlShared>, epoch: u64) -> JoinHandle<Result<(), CrError>> {
        let pml = Arc::clone(pml);
        std::thread::spawn(move || {
            pml.with_state(|st| st.ckpt_epoch = epoch);
            CoordCrcp::new(Tracer::new()).coordinate(&pml)
        })
    }

    /// Rank 2 of three is played by hand and dies at `stage` of epoch 1:
    /// 0 = before its bookmarks, 1 = mid-drain (its bookmark promises a
    /// frame it never sends), 2 = at the exit barrier (drained, before
    /// its `Quiesced`). Both survivors' rounds end in error at once; a
    /// replacement rank 2 rejoins and the next epoch quiesces.
    fn survivors_abort_then_quiesce_with_a_replacement(stage: u32) {
        let (fabric, pmls) = mesh(3);
        let t0 = Instant::now();
        let survivors = [coordinate_at(&pmls[0], 1), coordinate_at(&pmls[1], 1)];
        let mut pmls = pmls;
        let dying = pmls.pop().unwrap();
        if stage > 0 {
            let sent = u64::from(stage == 1);
            for q in 0..2 {
                dying.send_crcp(q, &CrcpMsg::Bookmark { from: 2, epoch: 1, sent }).unwrap();
            }
        }
        // Die only once the survivors have said all they will say to
        // rank 2 (their bookmarks, and at the barrier their `Quiesced`),
        // so nothing but the death notice can end their rounds.
        let heard = if stage == 2 { 4 } else { 2 };
        wait(&dying, |st| (st.crcp_inbox.len() >= heard).then_some(())).unwrap();
        drop(dying);
        for (r, t) in survivors.into_iter().enumerate() {
            let err = t.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("rank 2 died"), "stage {stage} rank {r}: {err}");
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "stage {stage}: {:?}", t0.elapsed());

        // Rank 2 restarts on a fresh endpoint, which the survivors are
        // re-pointed at before it runs.
        let ep2 = fabric.register(NodeId(2));
        for pml in &pmls {
            assert_eq!(pml.rejoin_peer(2, ep2.id(), 0), 0);
        }
        let ids = vec![pmls[0].endpoint_id(), pmls[1].endpoint_id(), ep2.id()];
        let gate = Arc::new(SafePointGate::new());
        pmls.push(PmlShared::new(2, 3, ep2, ids, gate, Tracer::new()));
        let next: Vec<_> = pmls.iter().map(|pml| coordinate_at(pml, 2)).collect();
        for t in next {
            t.join().unwrap().unwrap();
        }
        for pml in &pmls {
            pml.with_state(|st| assert!(st.crcp_inbox.is_empty(), "stage {stage}"));
        }
    }

    #[test]
    fn a_rank_dying_before_its_bookmarks_ends_the_round() {
        survivors_abort_then_quiesce_with_a_replacement(0);
    }

    #[test]
    fn a_rank_dying_mid_drain_ends_the_round() {
        survivors_abort_then_quiesce_with_a_replacement(1);
    }

    #[test]
    fn a_rank_dying_at_the_exit_barrier_ends_the_round() {
        survivors_abort_then_quiesce_with_a_replacement(2);
    }

    /// Rank 2 refuses epoch 4 while ranks 0 and 1 coordinate for it —
    /// with its window closed by `MPI_Finalize`, or before `MPI_Init`
    /// opened it and installed the refusal hook — and says so: the peers'
    /// rounds end at once instead of waiting on it.
    fn survivors_abort_on_a_refusal(before_init: bool) {
        let (_fabric, pmls) = mesh(3);
        let t0 = Instant::now();
        let survivors = [coordinate_at(&pmls[0], 4), coordinate_at(&pmls[1], 4)];
        let container = opal::ProcessContainer::new(
            cr_core::ProcessName::new(cr_core::JobId(1), cr_core::Rank(2)),
            "node2",
            Tracer::new(),
        );
        let crs = opal::crs::crs_framework(opal::crs::SelfCallbacks::new());
        container.set_crs(Arc::from(crs.select(&McaParams::new()).unwrap()));
        let pml2 = Arc::clone(&pmls[2]);
        let hook: opal::container::RefuseFn =
            Arc::new(move |epoch| CoordCrcp::new(Tracer::new()).refuse(&pml2, epoch));
        if !before_init {
            container.set_refuse(Arc::clone(&hook));
            container.disable_checkpointing("MPI_Finalize");
        }
        let opts = cr_core::request::CheckpointOptions::tool();
        let err = container
            .handle_checkpoint_request(std::env::temp_dir(), 0, 4, None, &opts)
            .unwrap_err();
        assert!(matches!(err, CrError::CheckpointDisabled { .. }), "{err}");
        if before_init {
            container.set_refuse(hook);
        }
        for t in survivors {
            let err = t.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("rank 2 aborted"), "{err}");
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn a_rank_refusing_with_a_closed_window_ends_the_round() {
        survivors_abort_on_a_refusal(false);
    }

    #[test]
    fn a_rank_refusing_before_its_refusal_hook_is_set_ends_the_round() {
        survivors_abort_on_a_refusal(true);
    }

    fn pair() -> (Arc<PmlShared>, Arc<PmlShared>) {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let ep0 = fabric.register(NodeId(0));
        let ep1 = fabric.register(NodeId(1));
        let peers = vec![ep0.id(), ep1.id()];
        let pml0 = PmlShared::new(
            0,
            2,
            ep0,
            peers.clone(),
            Arc::new(SafePointGate::new()),
            Tracer::new(),
        );
        let pml1 = PmlShared::new(
            1,
            2,
            ep1,
            peers,
            Arc::new(SafePointGate::new()),
            Tracer::new(),
        );
        (pml0, pml1)
    }

    /// Regression for the `component_matrix::blcr_coord_full_oobstream`
    /// flake: a drain with frames still in flight must count each
    /// drained-but-unmatched frame exactly once, and both ranks must
    /// complete coordination.
    #[test]
    fn drain_counts_inflight_frames_exactly_once() {
        let (pml0, pml1) = pair();
        // Three application frames are in flight toward rank 1 when the
        // checkpoint begins.
        for _ in 0..3 {
            pml0.send(0, 1, 7, b"in-flight").unwrap();
        }
        let t0 = {
            let pml0 = Arc::clone(&pml0);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml0))
        };
        let t1 = {
            let pml1 = Arc::clone(&pml1);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml1))
        };
        t0.join().unwrap().unwrap();
        t1.join().unwrap().unwrap();
        pml1.with_state(|st| {
            assert_eq!(st.recv_counts[0], 3, "each drained frame counted once");
            assert_eq!(st.unmatched.len(), 3, "drained frames buffered, not lost");
            assert!(st.crcp_inbox.is_empty(), "all control traffic consumed");
        });
        pml0.with_state(|st| assert!(st.crcp_inbox.is_empty()));
    }

    /// `coord` is the one protocol with a message log; `logger` is refused
    /// by name.
    #[test]
    fn logger_is_an_unknown_component() {
        let params = McaParams::new();
        params.set("crcp", "logger");
        let err = crcp_framework(Tracer::new()).select(&params).err();
        assert_eq!(
            err,
            Some(mca::SelectError::UnknownComponent {
                framework: "crcp".into(),
                requested: "logger".into(),
                available: vec!["coord", "none"],
            })
        );
    }

    fn msg_log_coord(cap_kb: u64) -> Arc<CoordCrcp> {
        let params = McaParams::new();
        params.set("crcp_msg_log_enabled", "true");
        params.set("crcp_msg_log_cap_kb", &cap_kb.to_string());
        Arc::new(CoordCrcp::from_params(Tracer::new(), &params))
    }

    /// The partial-restart message log retains payloads up to the cap and
    /// flags overflow beyond it instead of evicting entries.
    #[test]
    fn msg_log_respects_cap_and_flags_overflow() {
        let (pml0, _pml1) = pair();
        pml0.set_crcp(Some(msg_log_coord(1)));
        pml0.send(0, 1, 7, &[0u8; 600]).unwrap();
        pml0.send(0, 1, 7, &[0u8; 600]).unwrap(); // would exceed 1 KB
        pml0.with_state(|st| {
            assert_eq!(st.msg_log.entries().len(), 1, "second send must not be logged past the cap");
            assert_eq!(st.msg_log.bytes(), 600);
            assert!(st.msg_log.gapped_since(0), "cap hit must be flagged");
        });
    }

    /// A logged send keeps a view of the frame it put on the wire: the
    /// log and the receiver's frame share one buffer.
    #[test]
    fn msg_log_shares_the_wire_buffer() {
        let (pml0, pml1) = pair();
        pml0.set_crcp(Some(msg_log_coord(256)));
        let payload = vec![0x5Au8; 100 * 1024];
        pml0.send(0, 1, 7, &payload).unwrap();
        let logged = pml0.with_state(|st| st.msg_log.entries()[0].payload.clone());
        assert_eq!(logged, payload);
        let frame = pml1.recv(0, Some(0), Some(7)).unwrap();
        assert_eq!(frame.payload.as_ptr(), logged.as_ptr());
        pml0.with_state(|st| {
            assert_eq!(st.msg_log.entries().len(), 1);
            assert_eq!(st.msg_log.bytes(), payload.len() as u64);
            assert!(!st.msg_log.gapped_since(0));
        });
    }

    /// A send whose hook also garbage-collects older entries is still
    /// logged: to a dead peer it succeeds, by `send` or `isend`, and waits
    /// in the log for the replay.
    #[test]
    fn a_logged_send_to_a_dead_peer_succeeds_while_the_log_is_collected() {
        let (pml0, pml1) = pair();
        let crcp0 = msg_log_coord(256);
        let watermark = Arc::new(AtomicU64::new(0));
        crcp0.set_commit_watermark(Arc::clone(&watermark));
        pml0.set_crcp(Some(Arc::clone(&crcp0) as Arc<dyn CrcpComponent>));
        for payload in [b"one", b"two"] {
            pml0.send(0, 1, 7, payload).unwrap();
        }
        // Interval 0 quiesced after both sends and has committed.
        pml0.with_state(|st| st.msg_log.mark(0));
        watermark.store(1, Ordering::SeqCst);
        drop(pml1);
        pml0.send(0, 1, 7, b"three").unwrap();
        pml0.isend(0, 1, 7, b"four").unwrap();
        pml0.with_state(|st| {
            let logged: Vec<u64> = st.msg_log.entries().iter().map(|l| l.seq).collect();
            assert_eq!(logged, [2, 3]);
            assert_eq!(st.sent_counts[1], 4);
        });
    }

    /// An overflow window is pinned to the quiesce that closes it: the
    /// gap blocks partial restarts from any earlier interval, and is
    /// retired once the closing interval reaches global commit (a
    /// restart then restores from at-or-past the window's end).
    #[test]
    fn msg_log_overflow_windows_track_the_commit_watermark() {
        let (pml0, pml1) = pair();
        let crcp0 = msg_log_coord(1);
        let watermark = Arc::new(AtomicU64::new(0));
        crcp0.set_commit_watermark(Arc::clone(&watermark));
        pml0.set_crcp(Some(Arc::clone(&crcp0) as Arc<dyn CrcpComponent>));
        pml0.send(0, 1, 7, &[0u8; 600]).unwrap();
        pml0.send(0, 1, 7, &[0u8; 600]).unwrap(); // past the 1 KB cap: unlogged
        let gapped_since = |w| pml0.with_state(|st| st.msg_log.gapped_since(w));
        assert!(gapped_since(0), "open-window overflow is a gap");
        // Interval 4 quiesces, closing the window into its mark.
        pml0.with_state(|st| st.ckpt_interval = Some(4));
        let t0 = {
            let (pml0, crcp0) = (Arc::clone(&pml0), Arc::clone(&crcp0));
            std::thread::spawn(move || crcp0.coordinate(&pml0))
        };
        let t1 = {
            let pml1 = Arc::clone(&pml1);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml1))
        };
        t0.join().unwrap().unwrap();
        t1.join().unwrap().unwrap();
        assert!(
            gapped_since(4),
            "a restart from before the window would replay a gapped backlog"
        );
        // Interval 4 commits globally: the window precedes the restore point.
        watermark.store(5, Ordering::SeqCst);
        assert!(
            !gapped_since(5),
            "a committed quiesce retires its overflow window"
        );
    }

    /// Coordination marks the log at the quiesce point; nothing below the
    /// mark is dropped until the job's watermark passes the interval, and
    /// the `Continue` after that garbage-collects it.
    #[test]
    fn msg_log_gc_at_global_commit() {
        let (pml0, pml1) = pair();
        let crcp0 = msg_log_coord(256);
        let watermark = Arc::new(AtomicU64::new(0));
        crcp0.set_commit_watermark(Arc::clone(&watermark));
        pml0.set_crcp(Some(Arc::clone(&crcp0) as Arc<dyn CrcpComponent>));
        pml0.send(0, 1, 7, b"logged before quiesce").unwrap();
        pml0.with_state(|st| st.ckpt_interval = Some(0));
        let t0 = {
            let (pml0, crcp0) = (Arc::clone(&pml0), Arc::clone(&crcp0));
            std::thread::spawn(move || crcp0.coordinate(&pml0))
        };
        let t1 = {
            let pml1 = Arc::clone(&pml1);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml1))
        };
        t0.join().unwrap().unwrap();
        t1.join().unwrap().unwrap();
        crcp0.resume(&pml0, FtEventState::Continue).unwrap();
        let entries = pml0.with_state(|st| st.msg_log.entries().len());
        assert_eq!(entries, 1, "log survives the local commit's Continue");
        watermark.store(1, Ordering::SeqCst);
        crcp0.resume(&pml0, FtEventState::Continue).unwrap();
        let (entries, bytes) = pml0.with_state(|st| (st.msg_log.entries().len(), st.msg_log.bytes()));
        assert_eq!(entries, 0, "global commit drops the committed interval's log");
        assert_eq!(bytes, 0);
    }

    /// Rank 1 restarts on a fresh endpoint of `fabric` with `count` frames
    /// from rank 0 restored; the recovery re-points the survivor `pml0`
    /// at it for the job's `watermark` before the rank's PML exists.
    fn rejoin_rank1(
        fabric: &Fabric,
        pml0: &PmlShared,
        count: u64,
        watermark: u64,
    ) -> Arc<PmlShared> {
        let ep1b = fabric.register(NodeId(1));
        pml0.rejoin_peer(1, ep1b.id(), watermark);
        let peers = vec![pml0.endpoint_id(), ep1b.id()];
        let gate = Arc::new(SafePointGate::new());
        let pml1b = PmlShared::new(1, 2, ep1b, peers, gate, Tracer::new());
        pml1b.with_state(|st| st.recv_counts[0] = count);
        pml1b
    }

    /// A restarted rank 1 (fresh endpoint, counters rolled back to zero)
    /// finds the survivor's logged backlog already queued on its endpoint
    /// when it first receives, ahead of the survivor's fresh traffic.
    #[test]
    fn rejoin_peer_repoints_and_replays_before_fresh_traffic() {
        let (fabric, mut pmls) = mesh(2);
        let pml0 = Arc::clone(&pmls[0]);
        pml0.set_crcp(Some(msg_log_coord(256)));
        // Two messages leave rank 0 for rank 1 and die with its first
        // incarnation (never polled off the old endpoint).
        pml0.send(0, 1, 7, b"lost one").unwrap();
        pml0.send(0, 1, 7, b"lost two").unwrap();
        drop(pmls.pop());
        wait(&pml0, |st| st.peers_down.contains(&1).then_some(())).unwrap();
        let pml1b = rejoin_rank1(&fabric, &pml0, 0, 0);
        pml0.with_state(|st| assert!(st.peers_down.is_empty(), "the rank's death is forgotten"));
        pml0.send(0, 1, 7, b"fresh").unwrap();
        assert_eq!(&pml1b.recv(0, Some(0), Some(7)).unwrap().payload[..], b"lost one");
        assert_eq!(&pml1b.recv(0, Some(0), Some(7)).unwrap().payload[..], b"lost two");
        assert_eq!(&pml1b.recv(0, Some(0), Some(7)).unwrap().payload[..], b"fresh");
        pml1b.with_state(|st| {
            assert_eq!(st.recv_counts[0], 3, "backlog replayed exactly once");
            assert!(st.crcp_inbox.is_empty());
        });
    }

    /// The replay trims the survivor's log to the watermark first: the
    /// restored count holds every frame below the committed mark, so
    /// none is resent. The trace is `send(1) deliver(0) checkpoint(1)
    /// kill restore(1)`.
    #[test]
    fn replay_resends_nothing_the_restored_count_holds() {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let (ep0, ep1) = (fabric.register(NodeId(0)), fabric.register(NodeId(1)));
        let peers = vec![ep0.id(), ep1.id()];
        let tracer = Tracer::new();
        let gate = || Arc::new(SafePointGate::new());
        let pml0 = PmlShared::new(0, 2, ep0, peers.clone(), gate(), tracer.clone());
        let pml1 = PmlShared::new(1, 2, ep1, peers, gate(), Tracer::new());
        pml0.set_crcp(Some(msg_log_coord(256)));
        pml0.send(0, 1, 7, b"counted").unwrap();
        pml1.recv(0, Some(0), Some(7)).unwrap();
        // Interval 1 quiesces with the frame counted, and commits.
        pml0.with_state(|st| st.msg_log.mark(1));
        drop(pml1);
        let pml1b = rejoin_rank1(&fabric, &pml0, 1, 2);
        let resent: Vec<String> = tracer
            .events()
            .into_iter()
            .filter(|e| e.phase == "crcp.replay.resent")
            .map(|e| e.detail)
            .collect();
        assert_eq!(resent, ["rank 0: replayed 0 logged sends to restarted rank 1"]);
        pml0.with_state(|st| assert!(st.msg_log.entries().is_empty(), "trimmed at the replay"));
        pml0.send(0, 1, 7, b"fresh").unwrap();
        assert_eq!(&pml1b.recv(0, Some(0), Some(7)).unwrap().payload[..], b"fresh");
        pml1b.with_state(|st| assert_eq!(st.recv_counts[0], 2));
    }

    /// A round whose peer stays silent ends once the job terminates and
    /// the rank is woken, instead of waiting for good.
    #[test]
    fn a_round_ends_when_the_job_terminates() {
        let (fabric, pmls) = mesh(2);
        let pml0 = &pmls[0];
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        pml0.set_terminate_flag(Arc::clone(&flag));
        let round = coordinate_at(pml0, 1);
        // Rank 1 never answers; rank 0 parks on its wire.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!round.is_finished(), "the round waits on its silent peer");
        flag.store(true, Ordering::SeqCst);
        fabric.wake(pml0.endpoint_id());
        let err = round.join().unwrap().unwrap_err();
        assert!(matches!(err, CrError::CheckpointDisabled { .. }), "{err}");
        assert!(err.to_string().contains("terminating"), "{err}");
    }
}
