//! Interlayer Notification Callbacks (INC).
//!
//! A checkpoint request enters a process through a single entry point and
//! must notify every software layer — application (optional), OMPI, ORTE,
//! OPAL — in *stack order*: the topmost layer prepares first and resumes
//! last, so an application INC gets "the opportunity to use the full suite
//! of MPI functionality before allowing the library to prepare for a
//! checkpoint" (paper §6.5).
//!
//! The registration contract reproduces the paper exactly: registering an
//! INC returns the previously registered callback, and **the new INC is
//! responsible for calling the previous one from within itself**. That
//! gives each INC a point *before* and a point *after* the lower layers
//! run — the palindrome ordering asserted by experiment E4.
//!
//! An INC receives the entering protocol state (always
//! [`FtEventState::Checkpoint`] on the way down) and returns the resulting
//! state produced by the bottom of the stack — [`FtEventState::Continue`]
//! in the original process, [`FtEventState::Restart`] in a restarted image,
//! or [`FtEventState::Error`] if the local checkpoint failed.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::CrError;
use crate::state::{FtEvent, FtEventState};
use crate::trace::Tracer;

/// An interlayer notification callback.
///
/// Input: the state entering this layer (top-down). Output: the state that
/// resulted from the layers below (bottom-up).
pub type IncCallback = Arc<dyn Fn(FtEventState) -> Result<FtEventState, CrError> + Send + Sync>;

/// Per-process registry holding the top of the INC stack.
///
/// # Examples
///
/// The registration-returns-previous contract: each new INC closes over
/// the previous one and must call it, giving stack-ordered notification.
///
/// ```
/// use std::sync::Arc;
/// use cr_core::{FtEventState, IncRegistry};
///
/// let registry = IncRegistry::new();
/// // Bottom layer (OPAL): turns the request into a resulting state.
/// registry.register(|prev| {
///     assert!(prev.is_none());
///     Arc::new(|_state| Ok(FtEventState::Continue))
/// });
/// // Upper layer: wraps the lower one.
/// registry.register(|prev| {
///     let prev = prev.expect("lower layer registered first");
///     Arc::new(move |state| {
///         // ... prepare this layer ...
///         let out = prev(state)?;
///         // ... resume this layer ...
///         Ok(out)
///     })
/// });
/// let out = registry.deliver(FtEventState::Checkpoint).unwrap();
/// assert_eq!(out, FtEventState::Continue);
/// ```
#[derive(Default)]
pub struct IncRegistry {
    top: Mutex<Option<IncCallback>>,
}

impl IncRegistry {
    /// New, empty registry (no layer registered yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new topmost INC.
    ///
    /// `make` receives the previously registered callback (the next layer
    /// down); the INC it builds must invoke that callback from within
    /// itself to preserve stack ordering.
    pub fn register(&self, make: impl FnOnce(Option<IncCallback>) -> IncCallback) {
        let mut top = self.top.lock();
        let prev = top.take();
        *top = Some(make(prev));
    }

    /// Entry point: deliver `state` to the topmost INC and run the whole
    /// chain. Called by the checkpoint notification thread (paper Fig. 2's
    /// `entry_point()`).
    pub fn deliver(&self, state: FtEventState) -> Result<FtEventState, CrError> {
        let top = self.top.lock().clone();
        match top {
            Some(cb) => cb(state),
            None => Err(CrError::protocol(
                "checkpoint delivered before any INC was registered",
            )),
        }
    }
}

/// Builds the standard layer INC used by OPAL/ORTE/OMPI.
///
/// On the way **down** (entering state), it delivers `ft_event(state)` to
/// its subsystems in registration order, then invokes the previous
/// (lower-layer) INC. On the way **up** it delivers the *resulting* state
/// to its subsystems in reverse order and passes the result upward.
///
/// If a subsystem fails while preparing, the already-prepared subsystems
/// receive [`FtEventState::Error`] (in reverse order) so they can undo, and
/// the error propagates without the lower layers ever being entered.
pub struct LayerInc {
    name: &'static str,
    subsystems: Vec<(String, Arc<Mutex<dyn FtEvent + Send>>)>,
    tracer: Tracer,
}

impl LayerInc {
    /// Start building a layer INC named `name` (e.g. `"ompi"`).
    pub fn new(name: &'static str, tracer: Tracer) -> Self {
        LayerInc {
            name,
            subsystems: Vec::new(),
            tracer,
        }
    }

    /// Attach a subsystem. Order matters: coordination services (CRCP) must
    /// be attached before the subsystems they coordinate (paper §5.3).
    pub fn subsystem(
        mut self,
        name: impl Into<String>,
        subsystem: Arc<Mutex<dyn FtEvent + Send>>,
    ) -> Self {
        self.subsystems.push((name.into(), subsystem));
        self
    }

    /// Finish: produce the callback, closing over the previous INC.
    ///
    /// When `prev` is `None` this layer is the bottom of the stack, and
    /// `bottom` is invoked between the down and up phases — OPAL passes the
    /// closure that runs the actual CRS checkpoint here.
    pub fn build(
        self,
        prev: Option<IncCallback>,
        bottom: Option<IncCallback>,
    ) -> IncCallback {
        let LayerInc {
            name,
            subsystems,
            tracer,
        } = self;
        Arc::new(move |state_in: FtEventState| {
            tracer.record(&format!("{name}.inc.enter"), &state_in.to_string());

            // Down phase: notify our subsystems of the entering state.
            let mut prepared: Vec<usize> = Vec::with_capacity(subsystems.len());
            for (idx, (sub_name, sub)) in subsystems.iter().enumerate() {
                tracer.record(
                    &format!("{name}.{sub_name}.ft_event"),
                    &state_in.to_string(),
                );
                if let Err(e) = sub.lock().ft_event(state_in) {
                    // Undo the ones that already prepared, newest first.
                    for &done in prepared.iter().rev() {
                        let (undo_name, undo) = &subsystems[done];
                        tracer.record(&format!("{name}.{undo_name}.ft_event"), "error");
                        // Best effort: an undo failure must not mask the
                        // original failure.
                        let _ = undo.lock().ft_event(FtEventState::Error);
                    }
                    tracer.record(&format!("{name}.inc.abort"), &e.to_string());
                    return Err(e);
                }
                prepared.push(idx);
            }

            // Descend (or run the bottom action when we are the lowest
            // layer).
            let result = match (&prev, &bottom) {
                (Some(lower), _) => lower(state_in),
                (None, Some(action)) => action(state_in),
                (None, None) => Ok(state_in),
            };

            let state_out = match result {
                Ok(s) => s,
                Err(e) => {
                    for (sub_name, sub) in subsystems.iter().rev() {
                        tracer.record(&format!("{name}.{sub_name}.ft_event"), "error");
                        let _ = sub.lock().ft_event(FtEventState::Error);
                    }
                    tracer.record(&format!("{name}.inc.abort"), &e.to_string());
                    return Err(e);
                }
            };

            // Up phase: resulting state, reverse order.
            for (sub_name, sub) in subsystems.iter().rev() {
                tracer.record(
                    &format!("{name}.{sub_name}.ft_event"),
                    &state_out.to_string(),
                );
                sub.lock().ft_event(state_out)?;
            }
            tracer.record(&format!("{name}.inc.exit"), &state_out.to_string());
            Ok(state_out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        name: &'static str,
        log: Arc<Mutex<Vec<String>>>,
        fail_on: Option<FtEventState>,
    }

    impl FtEvent for Recorder {
        fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
            self.log.lock().push(format!("{}:{}", self.name, state));
            if self.fail_on == Some(state) {
                return Err(CrError::FtEventFailed {
                    subsystem: self.name.into(),
                    state,
                    detail: "injected".into(),
                });
            }
            Ok(())
        }
    }

    fn recorder(
        name: &'static str,
        log: &Arc<Mutex<Vec<String>>>,
        fail_on: Option<FtEventState>,
    ) -> Arc<Mutex<dyn FtEvent + Send>> {
        Arc::new(Mutex::new(Recorder {
            name,
            log: Arc::clone(log),
            fail_on,
        }))
    }

    /// Build a three-layer stack (opal bottom, orte, ompi top) the way the
    /// runtime does, with one subsystem per layer.
    fn build_stack(
        log: &Arc<Mutex<Vec<String>>>,
        registry: &IncRegistry,
        bottom_state: FtEventState,
    ) {
        let tracer = Tracer::new();
        let log2 = Arc::clone(log);
        let bottom: IncCallback = Arc::new(move |_state| {
            log2.lock().push("crs:checkpoint-taken".into());
            Ok(bottom_state)
        });
        let opal = LayerInc::new("opal", tracer.clone())
            .subsystem("event", recorder("opal.event", log, None));
        registry.register(move |prev| {
            assert!(prev.is_none(), "opal registers first");
            opal.build(None, Some(bottom))
        });
        let orte = LayerInc::new("orte", tracer.clone())
            .subsystem("oob", recorder("orte.oob", log, None));
        registry.register(move |prev| orte.build(prev, None));
        let ompi = LayerInc::new("ompi", tracer.clone())
            .subsystem("crcp", recorder("ompi.crcp", log, None))
            .subsystem("pml", recorder("ompi.pml", log, None));
        registry.register(move |prev| orte_top(ompi, prev));
        fn orte_top(layer: LayerInc, prev: Option<IncCallback>) -> IncCallback {
            layer.build(prev, None)
        }
    }

    #[test]
    fn stack_order_is_a_palindrome_around_the_crs() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = IncRegistry::new();
        build_stack(&log, &registry, FtEventState::Continue);

        let out = registry.deliver(FtEventState::Checkpoint).unwrap();
        assert_eq!(out, FtEventState::Continue);
        let events = log.lock().clone();
        assert_eq!(
            events,
            vec![
                "ompi.crcp:checkpoint",
                "ompi.pml:checkpoint",
                "orte.oob:checkpoint",
                "opal.event:checkpoint",
                "crs:checkpoint-taken",
                "opal.event:continue",
                "orte.oob:continue",
                "ompi.pml:continue",
                "ompi.crcp:continue",
            ]
        );
    }

    #[test]
    fn restart_state_flows_up_the_same_chain() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = IncRegistry::new();
        build_stack(&log, &registry, FtEventState::Restart);
        let out = registry.deliver(FtEventState::Restart).unwrap();
        assert_eq!(out, FtEventState::Restart);
        let events = log.lock().clone();
        assert_eq!(events.first().unwrap(), "ompi.crcp:restart");
        assert_eq!(events.last().unwrap(), "ompi.crcp:restart");
        assert_eq!(events.len(), 9);
    }

    #[test]
    fn app_inc_wraps_the_library() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let registry = IncRegistry::new();
        build_stack(&log, &registry, FtEventState::Continue);
        // Application registers last, so it runs first and resumes last —
        // and must call the previous INC itself (the paper's contract).
        let app_log = Arc::clone(&log);
        registry.register(move |prev| {
            let prev = prev.expect("library INCs already registered");
            Arc::new(move |state| {
                app_log.lock().push("app:before".into());
                let out = prev(state)?;
                app_log.lock().push("app:after".into());
                Ok(out)
            })
        });
        registry.deliver(FtEventState::Checkpoint).unwrap();
        let events = log.lock().clone();
        assert_eq!(events.first().unwrap(), "app:before");
        assert_eq!(events.last().unwrap(), "app:after");
    }

    #[test]
    fn prepare_failure_unwinds_with_error_state() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tracer = Tracer::new();
        let registry = IncRegistry::new();
        let layer = LayerInc::new("ompi", tracer)
            .subsystem("a", recorder("a", &log, None))
            .subsystem("b", recorder("b", &log, Some(FtEventState::Checkpoint)))
            .subsystem("c", recorder("c", &log, None));
        registry.register(move |prev| layer.build(prev, None));
        let err = registry.deliver(FtEventState::Checkpoint).unwrap_err();
        assert!(matches!(err, CrError::FtEventFailed { .. }));
        let events = log.lock().clone();
        // a prepared, b failed, a undone with error; c never touched.
        assert_eq!(
            events,
            vec!["a:checkpoint", "b:checkpoint", "a:error"]
        );
    }

    #[test]
    fn lower_layer_failure_sends_error_up() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tracer = Tracer::new();
        let registry = IncRegistry::new();
        let failing_bottom: IncCallback =
            Arc::new(|_| Err(CrError::protocol("disk full")));
        let layer = LayerInc::new("opal", tracer)
            .subsystem("event", recorder("event", &log, None));
        registry.register(move |prev| {
            assert!(prev.is_none());
            layer.build(None, Some(failing_bottom))
        });
        let err = registry.deliver(FtEventState::Checkpoint).unwrap_err();
        assert!(err.to_string().contains("disk full"));
        let events = log.lock().clone();
        assert_eq!(events, vec!["event:checkpoint", "event:error"]);
    }

    #[test]
    fn delivery_without_registration_is_a_protocol_error() {
        let registry = IncRegistry::new();
        assert!(registry.deliver(FtEventState::Checkpoint).is_err());
    }

    #[test]
    fn empty_layer_passes_state_through() {
        let registry = IncRegistry::new();
        let tracer = Tracer::new();
        let layer = LayerInc::new("opal", tracer);
        registry.register(move |prev| layer.build(prev, None));
        let out = registry.deliver(FtEventState::Checkpoint).unwrap();
        // No bottom action: the entering state is returned unchanged.
        assert_eq!(out, FtEventState::Checkpoint);
    }
}
