//! The OPAL progress engine: a real subsystem that must pause around
//! checkpoints.
//!
//! Open MPI's OPAL layer runs a libevent-based event loop that drives
//! asynchronous progress (timers, socket readiness). An event loop captured
//! mid-dispatch cannot be restored, so OPAL's INC quiesces it before the
//! CRS runs and resumes it afterwards. This module provides the simulated
//! equivalent: a ticker thread, with `ft_event` pausing and resuming it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cr_core::{CrError, FtEvent, FtEventState};

struct Shared {
    paused: AtomicBool,
    shutdown: AtomicBool,
    ticks: AtomicU64,
}

/// A ticker thread that ticks every `period`, unless paused by a
/// checkpoint.
pub struct ProgressEngine {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressEngine {
    /// Start the engine with the given tick period.
    pub fn start(period: Duration) -> Self {
        let shared = Arc::new(Shared {
            paused: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("opal-progress".into())
            .spawn(move || loop {
                if thread_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !thread_shared.paused.load(Ordering::Acquire) {
                    thread_shared.ticks.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(period);
            })
            .expect("spawn progress engine");
        ProgressEngine {
            shared,
            handle: Some(handle),
        }
    }

    /// Ticks dispatched so far.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Stop the ticker thread and wait for it.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FtEvent for ProgressEngine {
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError> {
        match state {
            FtEventState::Checkpoint => {
                self.shared.paused.store(true, Ordering::Release);
            }
            FtEventState::Continue | FtEventState::Restart | FtEventState::Error => {
                self.shared.paused.store(false, Ordering::Release);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn ticks_advance() {
        let engine = ProgressEngine::start(Duration::from_millis(1));
        wait_for(|| engine.ticks() >= 3, "ticks");
    }

    #[test]
    fn checkpoint_pauses_continue_resumes() {
        let mut engine = ProgressEngine::start(Duration::from_millis(1));
        wait_for(|| engine.ticks() > 0, "first tick");
        engine.ft_event(FtEventState::Checkpoint).unwrap();
        // Allow the tick thread to observe the pause, then assert quiet.
        std::thread::sleep(Duration::from_millis(10));
        let frozen = engine.ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(engine.ticks(), frozen, "no ticks while paused");
        engine.ft_event(FtEventState::Continue).unwrap();
        wait_for(|| engine.ticks() > frozen, "resume");
    }

    #[test]
    fn restart_and_error_also_resume() {
        let mut engine = ProgressEngine::start(Duration::from_millis(1));
        for resume in [FtEventState::Restart, FtEventState::Error] {
            engine.ft_event(FtEventState::Checkpoint).unwrap();
            engine.ft_event(resume).unwrap();
            let before = engine.ticks();
            wait_for(|| engine.ticks() > before, "resume");
        }
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut engine = ProgressEngine::start(Duration::from_millis(1));
        engine.shutdown();
        engine.shutdown();
    }
}
