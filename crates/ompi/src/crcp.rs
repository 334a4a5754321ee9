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
//!   the sender-side message log partial restart replays over the
//!   `ReplayBegin`/`ReplayDone` handshake ([`rejoin_replay`]).
//! * **`none`** — passthrough. With this component installed the full
//!   interposition machinery runs but does nothing: the configuration the
//!   paper benchmarks against the infrastructure-disabled build (§7).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mca::{Framework, McaParams};

use cr_core::{CrError, FtEvent, FtEventState, Tracer};

use crate::frame::CrcpMsg;
use crate::pml::{PmlShared, PmlState};

/// How long coordination waits for peers before declaring them lost.
const COORD_TIMEOUT: Duration = Duration::from_secs(60);

/// A checkpoint/restart coordination protocol.
pub trait CrcpComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Interposition hook: called (with the PML state locked) before each
    /// application message is sent.
    #[allow(clippy::too_many_arguments)] // mirrors the PML send signature
    fn on_send(
        &self,
        _st: &mut PmlState,
        _me: u32,
        _dst: u32,
        _ctx: u32,
        _tag: u32,
        _seq: u64,
        _payload: &[u8],
    ) {
    }

    /// Bring the channels into a checkpointable state. Runs on the
    /// checkpoint notification thread with the application thread parked;
    /// every rank runs this concurrently.
    ///
    /// Invariant (model-checked by `cr-model quiesce`, see
    /// `crates/model/src/quiesce.rs` and DESIGN.md §2.4): with the
    /// `Quiesced` exit barrier in place, no rank's post-coordination send
    /// can be counted in a peer's still-open drain — deleting the barrier
    /// makes the checker reproduce the PR 3 bookmark-overrun race in an
    /// 8-step minimal trace.
    fn coordinate(&self, pml: &PmlShared) -> Result<(), CrError>;

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

/// Which CRCP control message a collection phase expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectKind {
    /// Sent-count bookmarks (coordinated protocol, phase one).
    Bookmark,
    /// Quiesce acknowledgements (coordinated protocol, exit barrier).
    Quiesced,
}

/// Collect one control message of the expected kind from every peer while
/// pumping the wire, returning the per-peer values (zero for `Quiesced`,
/// which carries no count).
///
/// The phases of one coordination round overlap across ranks: a fast peer
/// that finished draining sends its `Quiesced` while this rank is still
/// collecting `Bookmark`s, so out-of-phase messages are expected here.
/// They are set aside and re-queued (in arrival order) for the phase that
/// wants them, rather than treated as protocol errors.
fn collect_counts(pml: &PmlShared, kind: CollectKind) -> Result<HashMap<u32, u64>, CrError> {
    let me = pml.me();
    let n = pml.nprocs();
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let mut deferred: Vec<CrcpMsg> = Vec::new();
    let deadline = Instant::now() + COORD_TIMEOUT;
    let outcome = loop {
        pml.with_state(|st| {
            while let Some(msg) = st.crcp_inbox.pop_front() {
                match (msg, kind) {
                    (CrcpMsg::Bookmark { from, sent }, CollectKind::Bookmark) => {
                        counts.insert(from, sent);
                    }
                    (CrcpMsg::Quiesced { from }, CollectKind::Quiesced) => {
                        counts.insert(from, 0);
                    }
                    (other, _) => deferred.push(other),
                }
            }
        });
        if counts.len() == (n - 1) as usize {
            break Ok(counts);
        }
        if Instant::now() > deadline {
            let missing: Vec<u32> = (0..n)
                .filter(|q| *q != me && !counts.contains_key(q))
                .collect();
            break Err(CrError::PeerLost {
                detail: format!("no CRCP counts from ranks {missing:?}"),
            });
        }
        pml.poll_wire_once(Duration::from_millis(1))
            .map_err(|e| CrError::protocol(e.to_string()))?;
    };
    // Hand the out-of-phase messages back, oldest at the front, so the
    // next collection phase finds them in arrival order.
    if !deferred.is_empty() {
        pml.with_state(|st| {
            for msg in deferred.drain(..).rev() {
                st.crcp_inbox.push_front(msg);
            }
        });
    }
    outcome
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
        CoordCrcp {
            tracer,
            msg_log: false,
            msg_log_cap: 0,
            commit_watermark: OnceLock::new(),
        }
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

    /// Drop message-log entries below `mark` and record the GC.
    fn gc_to(&self, st: &mut PmlState, me: u32, mark: u64) {
        let mark = (mark as usize).min(st.msg_log.len());
        if mark == 0 {
            return;
        }
        let freed: u64 = st
            .msg_log
            .iter()
            .take(mark)
            .map(|l| l.payload.len() as u64)
            .sum();
        st.msg_log.drain(..mark);
        st.msg_log_bytes = st.msg_log_bytes.saturating_sub(freed);
        for m in &mut st.msg_log_marks {
            m.mark = m.mark.saturating_sub(mark as u64);
        }
        self.tracer.record(
            "crcp.replay.gc",
            &format!("rank {me}: dropped {mark} logged sends ({freed} B) at global commit"),
        );
    }

    /// Drop every quiesce mark whose interval the job has published as
    /// globally committed, draining the log to the highest such mark.
    /// Marks of checkpoints that failed before commit linger harmlessly
    /// until a later interval commits past them (their marks are bounded
    /// by the later one's). No-op without a watermark.
    fn gc_committed(&self, st: &mut PmlState, me: u32) {
        let Some(watermark) = self.commit_watermark.get() else {
            return;
        };
        if st.msg_log_marks.is_empty() {
            return;
        }
        let committed = watermark.load(Ordering::SeqCst);
        let mut drain_to = 0u64;
        st.msg_log_marks.retain(|m| {
            if m.interval < committed {
                drain_to = drain_to.max(m.mark);
                false
            } else {
                true
            }
        });
        if drain_to > 0 {
            self.gc_to(st, me, drain_to);
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
        payload: &[u8],
    ) {
        // The partial-restart tax: retain the payload so a survivor can
        // replay it to a restarted peer. Dropped below the quiesce mark
        // once the marked interval reaches global commit.
        if !self.msg_log {
            return;
        }
        self.gc_committed(st, me);
        let add = payload.len() as u64;
        if st.msg_log_bytes.saturating_add(add) > self.msg_log_cap {
            st.msg_log_overflow = true;
            return;
        }
        st.msg_log.push(crate::pml::LoggedSend {
            dst,
            ctx,
            tag,
            seq,
            payload: payload.to_vec().into(),
        });
        st.msg_log_bytes += add;
    }

    fn coordinate(&self, pml: &PmlShared) -> Result<(), CrError> {
        let me = pml.me();
        let n = pml.nprocs();
        self.tracer
            .record("ompi.crcp.coordinate", &format!("rank {me} bookmark exchange"));

        // Exchange bookmarks.
        for q in 0..n {
            if q == me {
                continue;
            }
            let sent = pml.with_state(|st| st.sent_counts[q as usize]);
            pml.send_crcp(q, &CrcpMsg::Bookmark { from: me, sent })
                .map_err(|e| CrError::protocol(e.to_string()))?;
        }
        let bookmarks = collect_counts(pml, CollectKind::Bookmark)?;

        // Drain until every peer's sends have been received into the PML.
        let deadline = Instant::now() + COORD_TIMEOUT;
        loop {
            let drained = pml.with_state(|st| {
                bookmarks
                    .iter()
                    .all(|(q, sent)| st.recv_counts[*q as usize] >= *sent)
            });
            if drained {
                break;
            }
            if Instant::now() > deadline {
                return Err(CrError::PeerLost {
                    detail: "channel drain did not converge".into(),
                });
            }
            pml.poll_wire_once(Duration::from_millis(1))
                .map_err(|e| CrError::protocol(e.to_string()))?;
        }

        // The channels are now quiesced: received exactly what was sent.
        pml.with_state(|st| {
            for (q, sent) in &bookmarks {
                let got = st.recv_counts[*q as usize];
                if got != *sent {
                    return Err(CrError::protocol(format!(
                        "bookmark overrun from rank {q}: sent {sent}, received {got}"
                    )));
                }
            }
            Ok(())
        })?;

        // Exit barrier. Without it a fast rank returns, completes its local
        // checkpoint, resumes the application, and sends *new* traffic while
        // a slower peer is still draining — the new frame lands in the slow
        // peer's drain window and trips its bookmark verification ("bookmark
        // overrun: sent N, received N+1", the component_matrix flake).
        for q in 0..n {
            if q == me {
                continue;
            }
            pml.send_crcp(q, &CrcpMsg::Quiesced { from: me })
                .map_err(|e| CrError::protocol(e.to_string()))?;
        }
        collect_counts(pml, CollectKind::Quiesced)?;
        self.tracer
            .record("ompi.crcp.quiesced", &format!("rank {me}"));
        // Mark the log at the quiesce point: everything below the mark
        // belongs to the interval being captured and becomes garbage once
        // that interval reaches global commit. The INC handle stashes
        // SNAPC's interval number before the chain runs; a round with no
        // interval marks nothing.
        if self.msg_log {
            pml.with_state(|st| {
                self.gc_committed(st, me);
                let Some(interval) = st.ckpt_interval else {
                    return;
                };
                // The quiesce closes an overflow window: fold the flag
                // into the mark (where the commit-watermark GC can retire
                // it once the interval commits) and start a fresh window.
                let overflow = std::mem::take(&mut st.msg_log_overflow);
                let prior = st
                    .msg_log_marks
                    .iter()
                    .any(|m| m.interval == interval && m.overflow);
                st.msg_log_marks.retain(|m| m.interval != interval);
                let mark = st.msg_log.len() as u64;
                st.msg_log_marks.push(crate::pml::MsgLogMark {
                    interval,
                    mark,
                    overflow: overflow || prior,
                });
            });
        }
        Ok(())
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

/// Partial-restart rejoin handshake, run by a restarted rank after its
/// image is restored and before the application step re-enters: announce
/// this rank's replacement endpoint to every survivor, then block until
/// each has replayed its logged backlog and fenced it with `ReplayDone`.
/// FIFO channel order guarantees the fence arrives after every replayed
/// frame, so once all fences are in the channel is caught up.
pub fn rejoin_replay(
    pml: &PmlShared,
    rejoining: &BTreeSet<u32>,
    tracer: &Tracer,
) -> Result<(), CrError> {
    let me = pml.me();
    let n = pml.nprocs();
    let survivors: Vec<u32> = (0..n)
        .filter(|q| *q != me && !rejoining.contains(q))
        .collect();
    tracer.record(
        "crcp.replay.begin",
        &format!(
            "rank {me}: announcing endpoint {} to {} survivors",
            pml.endpoint_id(),
            survivors.len()
        ),
    );
    for q in &survivors {
        pml.send_crcp(
            *q,
            &CrcpMsg::ReplayBegin {
                from: me,
                endpoint: pml.endpoint_id().0,
            },
        )
        .map_err(|e| CrError::protocol(e.to_string()))?;
    }
    let mut fenced: BTreeSet<u32> = BTreeSet::new();
    let mut deferred: Vec<CrcpMsg> = Vec::new();
    let deadline = Instant::now() + COORD_TIMEOUT;
    while fenced.len() < survivors.len() {
        pml.with_state(|st| {
            while let Some(msg) = st.crcp_inbox.pop_front() {
                match msg {
                    CrcpMsg::ReplayDone { from } => {
                        fenced.insert(from);
                    }
                    other => deferred.push(other),
                }
            }
        });
        if fenced.len() == survivors.len() {
            break;
        }
        if Instant::now() > deadline {
            let missing: Vec<u32> = survivors
                .iter()
                .copied()
                .filter(|q| !fenced.contains(q))
                .collect();
            return Err(CrError::PeerLost {
                detail: format!("no ReplayDone fence from survivors {missing:?}"),
            });
        }
        pml.poll_wire_once(Duration::from_millis(1))
            .map_err(|e| CrError::protocol(e.to_string()))?;
    }
    if !deferred.is_empty() {
        pml.with_state(|st| {
            for msg in deferred.drain(..).rev() {
                st.crcp_inbox.push_front(msg);
            }
        });
    }
    tracer.record(
        "crcp.replay.done",
        &format!("rank {me}: {} survivor channels fenced", survivors.len()),
    );
    Ok(())
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
    /// interval so quiesce marks carry SNAPC's numbering.
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
                let interval = self.container.pending_interval();
                self.pml.with_state(|st| st.ckpt_interval = interval);
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
    use netsim::{Fabric, LinkSpec, NodeId, Topology};
    use opal::SafePointGate;

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

    /// The coordinated protocol must not let a fast rank exit coordination
    /// (and resume sending) before every peer has verified its bookmarks:
    /// `coordinate` blocks until all peers report `Quiesced`.
    #[test]
    fn coordinate_holds_exit_barrier_until_peers_quiesce() {
        let (pml0, pml1) = pair();
        let worker = {
            let pml1 = Arc::clone(&pml1);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml1))
        };
        // Play rank 0 by hand: bookmark one in-flight frame, deliver it,
        // but withhold the quiesce acknowledgement.
        pml0.send_crcp(1, &CrcpMsg::Bookmark { from: 0, sent: 1 })
            .unwrap();
        pml0.send(0, 1, 7, b"late frame").unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            !worker.is_finished(),
            "rank 1 must stay in coordination until rank 0 quiesces"
        );
        pml0.send_crcp(1, &CrcpMsg::Quiesced { from: 0 }).unwrap();
        worker.join().unwrap().unwrap();
        pml1.with_state(|st| {
            assert_eq!(st.recv_counts[0], 1);
            assert_eq!(st.unmatched.len(), 1);
        });
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
        let (entries, bytes, overflow) = pml0.msg_log_stats();
        assert_eq!(entries, 1, "second send must not be logged past the cap");
        assert_eq!(bytes, 600);
        assert!(overflow, "cap hit must be flagged");
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
        assert!(pml0.msg_log_gapped_since(0), "open-window overflow is a gap");
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
            pml0.msg_log_gapped_since(4),
            "a restart from before the window would replay a gapped backlog"
        );
        // Interval 4 commits globally: the window precedes the restore point.
        watermark.store(5, Ordering::SeqCst);
        assert!(
            !pml0.msg_log_gapped_since(5),
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
        let (entries, _, _) = pml0.msg_log_stats();
        assert_eq!(entries, 1, "log survives the local commit's Continue");
        watermark.store(1, Ordering::SeqCst);
        crcp0.resume(&pml0, FtEventState::Continue).unwrap();
        let (entries, bytes, _) = pml0.msg_log_stats();
        assert_eq!(entries, 0, "global commit drops the committed interval's log");
        assert_eq!(bytes, 0);
    }

    /// Full rejoin handshake: a restarted rank 1 (fresh endpoint, counters
    /// rolled back to zero) announces itself; the survivor re-points its
    /// peer table, replays its logged backlog, and fences it — after which
    /// fresh traffic flows over the replacement endpoint.
    #[test]
    fn rejoin_replay_repoints_replays_and_fences() {
        let fabric = netsim::Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
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
        pml0.set_crcp(Some(msg_log_coord(256)));
        // Two messages leave rank 0 for rank 1 and die with its first
        // incarnation (never polled off the old endpoint).
        pml0.send(0, 1, 7, b"lost one").unwrap();
        pml0.send(0, 1, 7, b"lost two").unwrap();
        // Rank 1 restarts on a fresh endpoint with restored (zero) counts.
        let ep1b = fabric.register(NodeId(1));
        let ep1b_id = ep1b.id();
        let pml1b = PmlShared::new(
            1,
            2,
            ep1b,
            vec![peers[0], ep1b_id],
            Arc::new(SafePointGate::new()),
            Tracer::new(),
        );
        let rejoiner = {
            let pml1b = Arc::clone(&pml1b);
            std::thread::spawn(move || {
                let rejoining: BTreeSet<u32> = [1u32].into_iter().collect();
                rejoin_replay(&pml1b, &rejoining, &Tracer::new())
            })
        };
        // The survivor notices the announcement while pumping its wire.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !rejoiner.is_finished() {
            assert!(Instant::now() < deadline, "handshake did not converge");
            pml0.poll_wire_once(Duration::from_millis(1)).unwrap();
        }
        rejoiner.join().unwrap().unwrap();
        pml1b.with_state(|st| {
            assert_eq!(st.recv_counts[0], 2, "backlog replayed exactly once");
            assert_eq!(st.unmatched.len(), 2);
            assert!(st.crcp_inbox.is_empty(), "fence consumed");
        });
        // The rolled-back receiver re-consumes the backlog in order, then
        // fresh traffic rides the replacement endpoint.
        pml0.send(0, 1, 7, b"fresh").unwrap();
        assert_eq!(pml1b.recv(0, Some(0), Some(7)).unwrap().payload, b"lost one");
        assert_eq!(pml1b.recv(0, Some(0), Some(7)).unwrap().payload, b"lost two");
        assert_eq!(pml1b.recv(0, Some(0), Some(7)).unwrap().payload, b"fresh");
    }
}
