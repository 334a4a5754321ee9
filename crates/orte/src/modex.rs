//! The modex: rendezvous key-value exchange at startup and restart.
//!
//! Open MPI processes publish their transport addresses during `MPI_Init`
//! and look up their peers' before point-to-point channels can form (the
//! "module exchange"). Our simulated equivalent is a blocking key-value
//! store scoped by job: ranks publish `(job, key) -> bytes` and block until
//! the keys they need appear. After a restart the same mechanism lets the
//! reconstructed processes find each other's *new* endpoints — this is how
//! "reconnecting peers when restarting in new process topologies" (paper
//! §6.3) works here.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use cr_core::{CrError, JobId};

#[derive(Default)]
struct Inner {
    entries: HashMap<(JobId, String), Vec<u8>>,
}

/// Blocking rendezvous store shared by every process of a runtime.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use cr_core::JobId;
/// use orte::modex::Modex;
///
/// let modex = Modex::new();
/// modex.publish(JobId(1), "pml.0", vec![42]);
/// let addr = modex.wait(JobId(1), "pml.0", Duration::from_secs(1)).unwrap();
/// assert_eq!(addr, vec![42]);
/// ```
pub struct Modex {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Default for Modex {
    fn default() -> Self {
        Self::new()
    }
}

impl Modex {
    /// Empty store.
    pub fn new() -> Self {
        Modex {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
        }
    }

    /// Publish `value` under `(job, key)`, waking all waiters.
    pub fn publish(&self, job: JobId, key: &str, value: Vec<u8>) {
        let mut inner = self.inner.lock();
        inner.entries.insert((job, key.to_string()), value);
        self.cv.notify_all();
    }

    /// Non-blocking lookup.
    pub fn get(&self, job: JobId, key: &str) -> Option<Vec<u8>> {
        self.inner.lock().entries.get(&(job, key.to_string())).cloned()
    }

    /// Block until `(job, key)` is published, or `timeout` expires.
    pub fn wait(&self, job: JobId, key: &str, timeout: Duration) -> Result<Vec<u8>, CrError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some(v) = inner.entries.get(&(job, key.to_string())) {
                return Ok(v.clone());
            }
            if self.cv.wait_until(&mut inner, deadline).timed_out() {
                return Err(CrError::PeerLost {
                    detail: format!("modex key {key:?} for {job} never published"),
                });
            }
        }
    }

    /// Retract a single `(job, key)` entry (partial-restart hygiene:
    /// a failed rank's stale endpoint address must be removed *before*
    /// its replacement is spawned, so the ranks restarted with it block
    /// in [`Modex::wait`] until the replacement publishes the endpoint
    /// the recovery registered for it, instead of connecting to the dead
    /// incarnation; the survivors are re-pointed by the recovery itself).
    pub fn remove(&self, job: JobId, key: &str) {
        let mut inner = self.inner.lock();
        inner.entries.remove(&(job, key.to_string()));
        self.cv.notify_all();
    }

    /// Remove every entry belonging to `job` (job teardown, and restart
    /// hygiene: stale addresses must not leak into the new incarnation).
    pub fn clear_job(&self, job: JobId) {
        let mut inner = self.inner.lock();
        inner.entries.retain(|(j, _), _| *j != job);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_then_get() {
        let m = Modex::new();
        assert_eq!(m.get(JobId(1), "pml.0"), None);
        m.publish(JobId(1), "pml.0", vec![1, 2]);
        assert_eq!(m.get(JobId(1), "pml.0"), Some(vec![1, 2]));
        assert_eq!(m.get(JobId(2), "pml.0"), None);
    }

    #[test]
    fn wait_blocks_until_published() {
        let m = Arc::new(Modex::new());
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            m2.wait(JobId(1), "pml.3", Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        m.publish(JobId(1), "pml.3", vec![9]);
        assert_eq!(waiter.join().unwrap(), vec![9]);
    }

    #[test]
    fn wait_times_out() {
        let m = Modex::new();
        let err = m
            .wait(JobId(1), "never", Duration::from_millis(20))
            .unwrap_err();
        assert!(err.to_string().contains("never"));
    }

    #[test]
    fn clear_job_is_scoped() {
        let m = Modex::new();
        m.publish(JobId(1), "a", vec![]);
        m.publish(JobId(2), "a", vec![]);
        m.clear_job(JobId(1));
        assert_eq!(m.get(JobId(1), "a"), None);
        assert!(m.get(JobId(2), "a").is_some());
    }

    #[test]
    fn remove_retracts_single_key() {
        let m = Arc::new(Modex::new());
        m.publish(JobId(1), "pml.2", vec![1]);
        m.publish(JobId(1), "pml.3", vec![2]);
        m.remove(JobId(1), "pml.2");
        assert_eq!(m.get(JobId(1), "pml.2"), None);
        assert_eq!(m.get(JobId(1), "pml.3"), Some(vec![2]));
        // A waiter blocks until the key is republished with a new value.
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            m2.wait(JobId(1), "pml.2", Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        m.publish(JobId(1), "pml.2", vec![9]);
        assert_eq!(waiter.join().unwrap(), vec![9]);
    }

    #[test]
    fn republish_overwrites() {
        let m = Modex::new();
        m.publish(JobId(1), "k", vec![1]);
        m.publish(JobId(1), "k", vec![2]);
        assert_eq!(m.get(JobId(1), "k"), Some(vec![2]));
    }
}
