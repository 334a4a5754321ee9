//! The safe-point gate: cooperative stop/resume for checkpointing.
//!
//! BLCR interrupts threads with signals and captures their full register
//! state. Safe Rust cannot, so the closest behaviour-preserving substitute
//! is cooperative: application threads call
//! [`SafePointGate::checkpoint_point`] at *safe points* — between
//! application steps, and inside every blocking-communication wait loop —
//! and park there whenever the notification thread has requested a pause.
//! The notification thread requests a pause, waits for the application
//! thread to park, runs the whole checkpoint (INC chain, coordination
//! protocol, CRS), and resumes it.
//!
//! This reproduces the paper's visible semantics: "A thread in the process
//! is only stopped when it tries to access a part of the Open MPI library
//! that has been notified" (§6.5) — between the pause *request* and the
//! actual park, the application may still complete in-flight operations.
//!
//! An application thread blocked in a receive does not pass a safe point
//! until the receive returns, so a pause request calls the gate's
//! [waker](SafePointGate::set_waker): the layer that blocks (the PML)
//! registers one that ends its wait.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::CrError;
use parking_lot::{Condvar, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Normal execution.
    Running,
    /// Notification thread asked the app thread to park.
    PauseRequested,
    /// App thread is parked at a safe point.
    Parked,
    /// The app thread left the checkpoint window for good (finalize).
    Retired,
}

#[derive(Debug)]
struct Inner {
    phase: Phase,
    /// Counts completed pause/resume cycles (diagnostics and tests).
    generations: u64,
}

/// Ends a blocking wait of the application thread, so it reaches its
/// next safe point ([`SafePointGate::set_waker`]).
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// Cooperative pause gate shared between the application thread and the
/// checkpoint notification thread.
pub struct SafePointGate {
    inner: Mutex<Inner>,
    cv: Condvar,
    waker: Mutex<Option<Waker>>,
}

impl Default for SafePointGate {
    fn default() -> Self {
        Self::new()
    }
}

impl SafePointGate {
    /// New gate in the running phase.
    pub fn new() -> Self {
        SafePointGate {
            inner: Mutex::new(Inner {
                phase: Phase::Running,
                generations: 0,
            }),
            cv: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    /// Install the closure that ends the application thread's blocking
    /// wait: called on every pause request and by [`Self::wake`].
    pub fn set_waker(&self, waker: Waker) {
        *self.waker.lock() = Some(waker);
    }

    /// Run the waker, if one is installed: the application thread should
    /// look at its state again (a pause was requested, or the job is
    /// terminating).
    pub fn wake(&self) {
        let waker = self.waker.lock().clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    // -- application-thread side --------------------------------------------

    /// Declare a safe point. If a pause has been requested, park here until
    /// the checkpoint completes. Returns `true` if this call parked.
    ///
    /// Called between application steps and inside blocking wait loops; it
    /// must be called with **no library locks held** (the checkpoint runs
    /// on another thread and needs them).
    pub fn checkpoint_point(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.phase != Phase::PauseRequested {
            return false;
        }
        inner.phase = Phase::Parked;
        self.cv.notify_all();
        while inner.phase == Phase::Parked {
            self.cv.wait(&mut inner);
        }
        true
    }

    /// The application thread is leaving the checkpoint window permanently
    /// (entering finalize / exiting). Any waiting notification thread is
    /// woken with a failure.
    pub fn retire(&self) {
        let mut inner = self.inner.lock();
        inner.phase = Phase::Retired;
        self.cv.notify_all();
    }

    // -- notification-thread side ---------------------------------------------

    /// Ask the application thread to park at its next safe point, and
    /// wake it if it is blocked.
    ///
    /// Returns `Err` if the thread has already retired.
    pub fn request_pause(&self) -> Result<(), CrError> {
        let mut inner = self.inner.lock();
        match inner.phase {
            Phase::Running => {
                inner.phase = Phase::PauseRequested;
                drop(inner);
                self.wake();
                Ok(())
            }
            Phase::Retired => Err(CrError::CheckpointDisabled {
                reason: "process is finalizing".into(),
            }),
            Phase::PauseRequested | Phase::Parked => Err(CrError::protocol(
                "overlapping pause requests on one process",
            )),
        }
    }

    /// Block until the application thread parks (or `timeout` expires, or
    /// the thread retires).
    pub fn wait_until_parked(&self, timeout: Duration) -> Result<(), CrError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            match inner.phase {
                Phase::Parked => return Ok(()),
                Phase::Retired => {
                    return Err(CrError::CheckpointDisabled {
                        reason: "process finalized while a pause was pending".into(),
                    })
                }
                _ => {}
            }
            if self.cv.wait_until(&mut inner, deadline).timed_out() {
                // Give up the request so the process is not left frozen.
                if inner.phase == Phase::PauseRequested {
                    inner.phase = Phase::Running;
                }
                return Err(CrError::protocol(
                    "application thread did not reach a safe point in time",
                ));
            }
        }
    }

    /// Release a parked application thread.
    pub fn resume(&self) {
        let mut inner = self.inner.lock();
        if inner.phase == Phase::Parked {
            inner.phase = Phase::Running;
            inner.generations += 1;
            self.cv.notify_all();
        } else if inner.phase == Phase::PauseRequested {
            // Pause was requested but never reached: cancel it.
            inner.phase = Phase::Running;
            self.cv.notify_all();
        }
    }

    // -- queries ---------------------------------------------------------------

    /// Completed pause/resume cycles.
    pub fn generations(&self) -> u64 {
        self.inner.lock().generations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn no_pause_means_no_park() {
        let gate = SafePointGate::new();
        assert!(!gate.checkpoint_point());
        assert_eq!(gate.generations(), 0);
    }

    #[test]
    fn pause_park_resume_cycle() {
        let gate = Arc::new(SafePointGate::new());
        let app_gate = Arc::clone(&gate);
        let parked_count = Arc::new(AtomicU64::new(0));
        let pc = Arc::clone(&parked_count);
        let app = std::thread::spawn(move || {
            for _ in 0..1000 {
                if app_gate.checkpoint_point() {
                    pc.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
            app_gate.retire();
        });

        gate.request_pause().unwrap();
        gate.wait_until_parked(Duration::from_secs(5)).unwrap();
        // The checkpoint would run here, app fully stopped.
        gate.resume();
        app.join().unwrap();
        assert_eq!(parked_count.load(Ordering::SeqCst), 1);
        assert_eq!(gate.generations(), 1);
    }

    #[test]
    fn a_pause_request_runs_the_waker() {
        let gate = SafePointGate::new();
        let wakes = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wakes);
        gate.set_waker(Arc::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        }));
        gate.request_pause().unwrap();
        assert!(
            gate.request_pause().is_err(),
            "a refused request wakes nobody"
        );
        gate.wake();
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retired_gate_rejects_pause() {
        let gate = SafePointGate::new();
        gate.retire();
        assert!(matches!(
            gate.request_pause(),
            Err(CrError::CheckpointDisabled { .. })
        ));
    }

    #[test]
    fn retire_wakes_waiting_coordinator() {
        let gate = Arc::new(SafePointGate::new());
        gate.request_pause().unwrap();
        let waiter_gate = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            waiter_gate.wait_until_parked(Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(20));
        gate.retire();
        let result = waiter.join().unwrap();
        assert!(matches!(result, Err(CrError::CheckpointDisabled { .. })));
    }

    #[test]
    fn timeout_cancels_the_request() {
        let gate = SafePointGate::new();
        gate.request_pause().unwrap();
        let err = gate
            .wait_until_parked(Duration::from_millis(30))
            .unwrap_err();
        assert!(err.to_string().contains("safe point"));
        // The request was cancelled: the app never blocks afterwards.
        assert!(!gate.checkpoint_point());
    }

    #[test]
    fn overlapping_pause_rejected() {
        let gate = SafePointGate::new();
        gate.request_pause().unwrap();
        assert!(gate.request_pause().is_err());
    }

    #[test]
    fn resume_cancels_unreached_pause() {
        let gate = SafePointGate::new();
        gate.request_pause().unwrap();
        gate.resume();
        assert!(!gate.checkpoint_point());
    }

    #[test]
    fn repeated_cycles() {
        let gate = Arc::new(SafePointGate::new());
        let app_gate = Arc::clone(&gate);
        let stop = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let app = std::thread::spawn(move || {
            while stop2.load(Ordering::SeqCst) == 0 {
                app_gate.checkpoint_point();
                std::thread::yield_now();
            }
            app_gate.retire();
        });
        for _ in 0..5 {
            gate.request_pause().unwrap();
            gate.wait_until_parked(Duration::from_secs(5)).unwrap();
            gate.resume();
        }
        stop.store(1, Ordering::SeqCst);
        app.join().unwrap();
        assert_eq!(gate.generations(), 5);
    }
}
