//! Per-process control plane: checkpoint window, capture registry, INC
//! entry point, and the checkpoint notification thread.
//!
//! Every simulated application process owns one [`ProcessContainer`]. The
//! container reproduces the OPAL-side plumbing of paper §6.4–6.5:
//!
//! * the **checkpoint window**: requests are refused before `MPI_Init`
//!   completes and after `MPI_Finalize` begins;
//! * the **non-checkpointable declaration**: a process may opt out, which
//!   must fail whole-job requests without affecting any process;
//! * the **capture registry**: subsystems register named closures that
//!   serialize their state into [`ProcessImage`] sections at checkpoint
//!   time;
//! * the **notification thread**: waits for checkpoint requests from the
//!   local daemon, pauses the application thread at a safe point, drives
//!   the INC chain (whose bottom runs the CRS), and replies with the local
//!   snapshot reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use cr_core::inc::{IncCallback, IncRegistry, LayerInc};
use cr_core::request::CheckpointOptions;
use cr_core::snapshot::LocalSnapshot;
use cr_core::{CrError, FtEventState, ProcessName, Tracer};

use crate::crs::CrsComponent;
use crate::gate::SafePointGate;
use crate::image::ProcessImage;

/// How long the notification thread waits for the application to reach a
/// safe point before failing the checkpoint.
const PARK_TIMEOUT: Duration = Duration::from_secs(30);

/// Closure that serializes one subsystem's state for the process image.
pub type CaptureFn = Arc<dyn Fn() -> Result<Vec<u8>, CrError> + Send + Sync>;

/// Closure that renders one subsystem's live diagnostic value (a probe):
/// cheap, side-effect free, readable from outside the process thread.
pub type ProbeFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Control messages delivered to a process's notification thread.
pub enum OpalCtrl {
    /// Take a local checkpoint into `snapshot_parent` (the interval
    /// directory prepared by the local coordinator).
    Checkpoint {
        /// Directory the local snapshot directory will be created in.
        snapshot_parent: PathBuf,
        /// Checkpoint interval number.
        interval: u64,
        /// Newest globally committed interval, when it has chunk manifests:
        /// what a dedup-mode CRS need not pack
        /// ([`crate::crs::CrsComponent::checkpoint`]).
        base: Option<u64>,
        /// Request options (origin, terminate).
        options: CheckpointOptions,
        /// Where to deliver the result.
        reply: Sender<Result<CkptReply, CrError>>,
    },
    /// Stop the notification thread.
    Shutdown,
}

/// Successful local checkpoint description returned to the coordinator.
#[derive(Debug, Clone)]
pub struct CkptReply {
    /// The local snapshot reference that was produced.
    pub snapshot_dir: PathBuf,
    /// Bytes on disk.
    pub size_bytes: u64,
}

#[derive(Debug, Clone)]
enum Window {
    Enabled,
    Disabled(String),
}

struct Pending {
    snapshot_parent: PathBuf,
    interval: u64,
    base: Option<u64>,
    result: Option<LocalSnapshot>,
}

/// The per-process OPAL control plane.
pub struct ProcessContainer {
    name: ProcessName,
    hostname: String,
    gate: Arc<SafePointGate>,
    inc: IncRegistry,
    window: Mutex<Window>,
    checkpointable: AtomicBool,
    captures: Mutex<Vec<(String, CaptureFn)>>,
    probes: Mutex<Vec<(String, ProbeFn)>>,
    crs: Mutex<Option<Arc<dyn CrsComponent>>>,
    pending: Mutex<Option<Pending>>,
    tracer: Tracer,
}

impl ProcessContainer {
    /// New container for process `name` on `hostname`.
    pub fn new(name: ProcessName, hostname: impl Into<String>, tracer: Tracer) -> Arc<Self> {
        Arc::new(ProcessContainer {
            name,
            hostname: hostname.into(),
            gate: Arc::new(SafePointGate::new()),
            inc: IncRegistry::new(),
            window: Mutex::new(Window::Disabled("MPI not yet initialized".into())),
            checkpointable: AtomicBool::new(true),
            captures: Mutex::new(Vec::new()),
            probes: Mutex::new(Vec::new()),
            crs: Mutex::new(None),
            pending: Mutex::new(None),
            tracer,
        })
    }

    /// The safe-point gate shared with the application thread.
    pub fn gate(&self) -> &Arc<SafePointGate> {
        &self.gate
    }

    /// The INC registry for this process.
    pub fn inc(&self) -> &IncRegistry {
        &self.inc
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // -- configuration ----------------------------------------------------

    /// Install the selected CRS component.
    pub fn set_crs(&self, crs: Arc<dyn CrsComponent>) {
        *self.crs.lock() = Some(crs);
    }

    /// The installed CRS component.
    pub fn crs(&self) -> Option<Arc<dyn CrsComponent>> {
        self.crs.lock().clone()
    }

    /// Register a capture section. Sections are captured in registration
    /// order at checkpoint time, with the application thread parked.
    pub fn register_capture(&self, section: impl Into<String>, f: CaptureFn) {
        self.captures.lock().push((section.into(), f));
    }

    /// Register (or replace) a named diagnostic probe. Layers above OPAL
    /// expose live counters this way — e.g. the PML's sender-side
    /// message-log size — without the coordinator having to know their
    /// types: it reads the rendered string through [`Self::probe`].
    pub fn set_probe(&self, key: impl Into<String>, f: ProbeFn) {
        let key = key.into();
        let mut probes = self.probes.lock();
        if let Some(slot) = probes.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = f;
        } else {
            probes.push((key, f));
        }
    }

    /// Read a named diagnostic probe, if registered.
    pub fn probe(&self, key: &str) -> Option<String> {
        let f = self
            .probes
            .lock()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, f)| Arc::clone(f))?;
        Some(f())
    }

    /// Interval of the in-flight checkpoint request, if one is being
    /// handled. INC subsystems that tag per-interval state (the CRCP's
    /// message-log quiesce marks) read SNAPC's numbering through this
    /// mid-chain.
    pub fn pending_interval(&self) -> Option<u64> {
        self.pending.lock().as_ref().map(|p| p.interval)
    }

    /// Declare whether this process can be checkpointed at all
    /// (paper §5.1: processes may opt out, e.g. when using unsupported
    /// operations).
    pub fn set_checkpointable(&self, value: bool) {
        self.checkpointable.store(value, Ordering::SeqCst);
    }

    /// Whether this process accepts checkpoints.
    pub fn is_checkpointable(&self) -> bool {
        self.checkpointable.load(Ordering::SeqCst)
            && self.crs().map(|c| c.can_checkpoint()).unwrap_or(false)
    }

    // -- checkpoint window --------------------------------------------------

    /// Open the checkpoint window (end of `MPI_Init`).
    pub fn enable_checkpointing(&self) {
        *self.window.lock() = Window::Enabled;
    }

    /// Close the checkpoint window (entry of `MPI_Finalize`, or around a
    /// critical section).
    pub fn disable_checkpointing(&self, reason: impl Into<String>) {
        *self.window.lock() = Window::Disabled(reason.into());
    }

    /// True while checkpoint requests are accepted.
    pub fn checkpointing_enabled(&self) -> bool {
        matches!(*self.window.lock(), Window::Enabled)
    }

    // -- INC installation --------------------------------------------------

    /// Install the OPAL layer INC as the bottom of the stack. Its bottom
    /// action runs the CRS against the pending request. Must be called
    /// before any higher layer registers.
    pub fn install_opal_inc(self: &Arc<Self>, layer: LayerInc) {
        let weak = Arc::downgrade(self);
        let bottom: IncCallback = Arc::new(move |state| {
            let this = weak.upgrade().ok_or_else(|| {
                CrError::protocol("process container dropped during checkpoint")
            })?;
            match state {
                FtEventState::Checkpoint => this.run_local_checkpoint(),
                other => Ok(other),
            }
        });
        self.inc.register(move |prev| {
            assert!(prev.is_none(), "OPAL INC must be the bottom of the stack");
            layer.build(None, Some(bottom))
        });
    }

    /// Capture all registered sections into a fresh image (public for
    /// tests and for the restart path's symmetry checks).
    pub fn capture_image(&self) -> Result<ProcessImage, CrError> {
        let mut image = ProcessImage::new();
        let captures = self.captures.lock();
        for (section, f) in captures.iter() {
            image.insert(section.clone(), f()?);
        }
        Ok(image)
    }

    /// The INC bottom action: capture sections and run the CRS.
    fn run_local_checkpoint(&self) -> Result<FtEventState, CrError> {
        let (snapshot_parent, interval, base) = {
            let pending = self.pending.lock();
            let p = pending
                .as_ref()
                .ok_or_else(|| CrError::protocol("CRS reached with no pending request"))?;
            (p.snapshot_parent.clone(), p.interval, p.base)
        };
        let crs = self
            .crs()
            .ok_or_else(|| CrError::protocol("no CRS component installed"))?;
        self.tracer
            .record("opal.crs.checkpoint", &format!("{}", self.name));
        let image = self.capture_image()?;
        let mut snapshot = LocalSnapshot::create(
            &snapshot_parent,
            self.name.rank,
            crs.name(),
            interval,
            &self.hostname,
        )?;
        crs.checkpoint(&image, &mut snapshot, base)?;
        snapshot.finish()?;
        // The capture is durable on node-local disk from here on: this is
        // the local-commit point SNAPC's early release pivots on.
        self.tracer.record(
            "opal.crs.local_commit",
            &format!("{} ({} bytes)", self.name, snapshot.size_bytes().unwrap_or(0)),
        );
        self.pending
            .lock()
            .as_mut()
            .expect("pending still present")
            .result = Some(snapshot);
        Ok(FtEventState::Continue)
    }

    // -- request handling -----------------------------------------------------

    /// Handle one checkpoint request end to end: pause, INC chain, CRS,
    /// resume. Runs on the notification thread (or directly in tests).
    /// `base` is handed to the CRS ([`OpalCtrl::Checkpoint`]).
    pub fn handle_checkpoint_request(
        &self,
        snapshot_parent: PathBuf,
        interval: u64,
        base: Option<u64>,
        _options: &CheckpointOptions,
    ) -> Result<CkptReply, CrError> {
        if !self.is_checkpointable() {
            return Err(CrError::NotCheckpointable {
                ranks: vec![self.name.rank],
            });
        }
        if let Window::Disabled(reason) = &*self.window.lock() {
            return Err(CrError::CheckpointDisabled {
                reason: reason.clone(),
            });
        }

        self.tracer
            .record("opal.notify.request", &format!("{}", self.name));
        self.gate.request_pause()?;
        self.gate.wait_until_parked(PARK_TIMEOUT)?;
        self.tracer
            .record("opal.notify.parked", &format!("{}", self.name));

        *self.pending.lock() = Some(Pending {
            snapshot_parent,
            interval,
            base,
            result: None,
        });

        let delivered = self.inc.deliver(FtEventState::Checkpoint);

        // Post-event (SELF callbacks) fires before the app resumes so the
        // callbacks observe the quiesced state.
        if let Some(crs) = self.crs() {
            let post_state = match &delivered {
                Ok(s) => *s,
                Err(_) => FtEventState::Error,
            };
            if let Err(e) = crs.post_event(post_state) {
                self.tracer.record("opal.crs.post_event_error", &e.to_string());
            }
        }

        let pending = self.pending.lock().take();
        self.gate.resume();

        let state = delivered?;
        if state != FtEventState::Continue {
            return Err(CrError::protocol(format!(
                "checkpoint chain resolved to unexpected state {state}"
            )));
        }
        let snapshot = pending
            .and_then(|p| p.result)
            .ok_or_else(|| CrError::protocol("checkpoint chain completed without a snapshot"))?;
        let size_bytes = snapshot.size_bytes()?;
        self.tracer
            .record("opal.notify.complete", &format!("{}", self.name));
        Ok(CkptReply {
            snapshot_dir: snapshot.dir().to_path_buf(),
            size_bytes,
        })
    }

    /// Spawn the checkpoint notification thread (paper §6.5: "each process
    /// in the parallel job has a thread running in it waiting for the
    /// checkpoint request").
    pub fn spawn_notification_thread(
        self: &Arc<Self>,
        rx: Receiver<OpalCtrl>,
    ) -> JoinHandle<()> {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("cr-notify-{}", this.name))
            .spawn(move || loop {
                match rx.recv() {
                    Ok(OpalCtrl::Checkpoint {
                        snapshot_parent,
                        interval,
                        base,
                        options,
                        reply,
                    }) => {
                        let result = this.handle_checkpoint_request(
                            snapshot_parent,
                            interval,
                            base,
                            &options,
                        );
                        let _ = reply.send(result);
                    }
                    Ok(OpalCtrl::Shutdown) | Err(_) => return,
                }
            })
            .expect("spawn notification thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crs::{crs_framework, SelfCallbacks};
    use cr_core::{JobId, Rank};
    use mca::McaParams;
    use std::sync::atomic::AtomicU64;

    #[derive(Debug, Clone, PartialEq)]
    struct FakeAppState {
        iteration: u64,
    }
    codec::wire_struct!(FakeAppState { iteration });

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "opal_container_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Container wired with blcr_sim, an app capture section, and a bare
    /// OPAL INC; plus a fake app thread that parks at safe points.
    fn ready_container(tag: &str) -> (Arc<ProcessContainer>, Arc<Mutex<FakeAppState>>, PathBuf) {
        let tracer = Tracer::new();
        let container = ProcessContainer::new(
            ProcessName::new(JobId(1), Rank(0)),
            "node00",
            tracer.clone(),
        );
        let fw = crs_framework(SelfCallbacks::new());
        let crs: Arc<dyn CrsComponent> = Arc::from(fw.select(&McaParams::new()).unwrap());
        container.set_crs(crs);

        let state = Arc::new(Mutex::new(FakeAppState { iteration: 0 }));
        let cap_state = Arc::clone(&state);
        container.register_capture(
            "app",
            Arc::new(move || Ok(codec::to_bytes(&*cap_state.lock()))),
        );
        container.install_opal_inc(LayerInc::new("opal", tracer));
        container.enable_checkpointing();
        (container, state, tmpdir(tag))
    }

    fn run_fake_app(
        container: &Arc<ProcessContainer>,
        state: &Arc<Mutex<FakeAppState>>,
        iterations: u64,
    ) -> JoinHandle<()> {
        let gate = Arc::clone(container.gate());
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            for _ in 0..iterations {
                state.lock().iteration += 1;
                gate.checkpoint_point();
                std::thread::yield_now();
            }
            gate.retire();
        })
    }

    #[test]
    fn end_to_end_local_checkpoint() {
        let (container, state, dir) = ready_container("e2e");
        let app = run_fake_app(&container, &state, 2_000_000);

        let reply = container
            .handle_checkpoint_request(dir.clone(), 0, None, &CheckpointOptions::tool())
            .unwrap();
        assert!(reply.snapshot_dir.exists());
        assert!(reply.size_bytes > 0);

        // Restore the image and check the captured state is coherent.
        let snap = LocalSnapshot::open(&reply.snapshot_dir).unwrap();
        assert_eq!(snap.crs_component(), "blcr_sim");
        let crs = container.crs().unwrap();
        let image = crs.restart(&snap).unwrap();
        let captured: FakeAppState = codec::from_bytes(image.section("app").unwrap()).unwrap();
        assert!(captured.iteration > 0);

        // The app keeps running afterwards.
        app.join().unwrap();
        assert_eq!(state.lock().iteration, 2_000_000);
    }

    #[test]
    fn probes_register_replace_and_read() {
        let (container, _state, _dir) = ready_container("probes");
        assert_eq!(container.probe("crcp.msglog"), None);
        let n = Arc::new(AtomicU64::new(7));
        let n2 = Arc::clone(&n);
        container.set_probe("crcp.msglog", Arc::new(move || n2.load(Ordering::SeqCst).to_string()));
        assert_eq!(container.probe("crcp.msglog").as_deref(), Some("7"));
        n.store(9, Ordering::SeqCst);
        assert_eq!(container.probe("crcp.msglog").as_deref(), Some("9"));
        container.set_probe("crcp.msglog", Arc::new(|| "0".to_string()));
        assert_eq!(container.probe("crcp.msglog").as_deref(), Some("0"));
    }

    #[test]
    fn window_closed_refuses() {
        let (container, _state, dir) = ready_container("window");
        container.disable_checkpointing("inside finalize");
        let err = container
            .handle_checkpoint_request(dir, 0, None, &CheckpointOptions::tool())
            .unwrap_err();
        assert!(matches!(err, CrError::CheckpointDisabled { .. }));
        assert!(err.to_string().contains("finalize"));
    }

    #[test]
    fn non_checkpointable_process_refuses_without_side_effects() {
        let (container, state, dir) = ready_container("optout");
        container.set_checkpointable(false);
        let app = run_fake_app(&container, &state, 1000);
        let err = container
            .handle_checkpoint_request(dir.clone(), 0, None, &CheckpointOptions::tool())
            .unwrap_err();
        assert!(matches!(err, CrError::NotCheckpointable { .. }));
        // No snapshot directory was created.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        app.join().unwrap();
    }

    #[test]
    fn none_crs_makes_process_non_checkpointable() {
        let (container, _state, _dir) = ready_container("nonecrs");
        let fw = crs_framework(SelfCallbacks::new());
        let params = McaParams::new();
        params.set("crs", "none");
        container.set_crs(Arc::from(fw.select(&params).unwrap()));
        assert!(!container.is_checkpointable());
    }

    #[test]
    fn notification_thread_serves_requests() {
        let (container, state, dir) = ready_container("notif");
        let app = run_fake_app(&container, &state, 5_000_000);
        let (tx, rx) = std::sync::mpsc::channel();
        let notify = container.spawn_notification_thread(rx);

        for interval in 0..3u64 {
            let idir = dir.join(interval.to_string());
            std::fs::create_dir_all(&idir).unwrap();
            let (rtx, rrx) = std::sync::mpsc::channel();
            tx.send(OpalCtrl::Checkpoint {
                snapshot_parent: idir,
                interval,
                base: None,
                options: CheckpointOptions::tool(),
                reply: rtx,
            })
            .unwrap();
            let reply = rrx.recv().unwrap().unwrap();
            assert!(reply.snapshot_dir.exists());
        }
        tx.send(OpalCtrl::Shutdown).unwrap();
        notify.join().unwrap();
        assert_eq!(container.gate().generations(), 3);
        app.join().unwrap();
    }

    #[test]
    fn capture_failure_fails_checkpoint_and_resumes_app() {
        let (container, state, dir) = ready_container("capfail");
        container.register_capture(
            "bad",
            Arc::new(|| {
                Err(CrError::Unsupported {
                    detail: "cannot serialize".into(),
                })
            }),
        );
        let app = run_fake_app(&container, &state, 100_000);
        let err = container
            .handle_checkpoint_request(dir, 0, None, &CheckpointOptions::tool())
            .unwrap_err();
        assert!(err.to_string().contains("cannot serialize"));
        // App resumed and finishes.
        app.join().unwrap();
        assert_eq!(state.lock().iteration, 100_000);
    }

    #[test]
    fn crs_failure_resumes_app() {
        let (container, state, dir) = ready_container("crsfail");
        let params = McaParams::new();
        params.set("crs_blcr_sim_fail_every", "1");
        let fw = crs_framework(SelfCallbacks::new());
        container.set_crs(Arc::from(fw.select(&params).unwrap()));
        let app = run_fake_app(&container, &state, 100_000);
        let err = container
            .handle_checkpoint_request(dir, 0, None, &CheckpointOptions::tool())
            .unwrap_err();
        assert!(err.to_string().contains("injected failure"));
        app.join().unwrap();
    }

    #[test]
    fn finalized_app_fails_pending_checkpoint() {
        let (container, state, dir) = ready_container("finalized");
        // App retires immediately.
        let app = run_fake_app(&container, &state, 0);
        app.join().unwrap();
        let err = container
            .handle_checkpoint_request(dir, 0, None, &CheckpointOptions::tool())
            .unwrap_err();
        assert!(matches!(
            err,
            CrError::CheckpointDisabled { .. } | CrError::Protocol { .. }
        ));
    }

    #[test]
    fn self_crs_callbacks_fire_during_container_checkpoint() {
        let tracer = Tracer::new();
        let container = ProcessContainer::new(
            ProcessName::new(JobId(1), Rank(0)),
            "node00",
            tracer.clone(),
        );
        let callbacks = SelfCallbacks::new();
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        *callbacks.on_checkpoint.lock() = Some(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        let f = Arc::clone(&fired);
        *callbacks.on_continue.lock() = Some(Box::new(move || {
            f.fetch_add(100, Ordering::SeqCst);
            Ok(())
        }));
        let fw = crs_framework(Arc::clone(&callbacks));
        let params = McaParams::new();
        params.set("crs", "self");
        container.set_crs(Arc::from(fw.select(&params).unwrap()));
        container.register_capture("app", Arc::new(|| Ok(vec![1, 2, 3])));
        container.install_opal_inc(LayerInc::new("opal", tracer));
        container.enable_checkpointing();

        let state = Arc::new(Mutex::new(FakeAppState { iteration: 0 }));
        let app = run_fake_app(&container, &state, 1_000_000);
        container
            .handle_checkpoint_request(tmpdir("selfcb"), 0, None, &CheckpointOptions::tool())
            .unwrap();
        app.join().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 101, "checkpoint + continue");
    }
}
