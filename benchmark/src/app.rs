//! `BulkApp`: the benchmark's MPI application, and its serial reference.
//!
//! State is `workloads::stencil::StencilState` (`iter`, `cells`,
//! `residual`) so the benchmark needs no serde derive of its own. Every
//! step does a 1 KiB ring exchange and an `allreduce`; every
//! `STEPS_PER_INTERVAL` steps a seeded share of the 64 KiB chunks of
//! `cells` is rewritten. Everything a step writes is a pure function of
//! `(seed, rank, iter)`, which is what lets [`reference`] compute the
//! final answer with no MPI at all.
//!
//! The driver talks to the ranks through [`Control`]: it releases steps
//! (ranks park between releases, so a gated checkpoint always cuts at the
//! same place), arms one-shot failures, and watches per-rank progress.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ompi::app::{MpiApp, StepOutcome};
use ompi::{Mpi, MpiError};
use workloads::stencil::StencilState;

/// Steps between two interval boundaries.
pub const STEPS_PER_INTERVAL: u64 = 4;
/// Bytes each rank sends round the ring per step.
const RING_BYTES: usize = 1024;
/// Cells whose serialised form (9 bytes per `f64` in `codec`) is one
/// 64 KiB chunk of the "app" section, rounded up so that consecutive
/// regions drift forward by two bytes per chunk instead of backward.
const CHUNK_CELLS: usize = 7282;
/// Cells at either end of a chunk that a rewrite leaves alone, so that the
/// rewritten region stays inside one on-disk chunk despite that drift and
/// the section header. Chunk 0's margin holds the accumulators.
const CHUNK_MARGIN: usize = 100;
const RING_TAG: u32 = 31;
/// How long a parked rank sleeps between looks at the release counter.
/// Eight rank threads share two cores: parked ranks must not spin.
const PARK: Duration = Duration::from_millis(1);

/// SplitMix64: the only source of "randomness" in the benchmark.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed) ^ a) ^ b)
}

/// `len` seeded bytes that neither compress nor repeat (layer probes).
pub fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(&mix3(seed, 3 << 40, i).to_le_bytes());
        i += 1;
    }
    out.truncate(len);
    out
}

/// The process image a rank of `state_bytes` would checkpoint before its
/// first step: the real "app" section plus stand-ins for the two small
/// sections the MPI layer adds.
pub fn bulk_image(seed: u64, rank: u32, state_bytes: usize) -> Result<opal::ProcessImage, String> {
    let cfg = BulkConfig {
        seed,
        nprocs: 8,
        state_bytes,
        dirty_pct: 0,
        shared_pct: 0,
        total_steps: 0,
    };
    let mut image = opal::ProcessImage::new();
    image
        .encode_section("app", &cfg.initial_state(rank))
        .map_err(|e| format!("encoding app section: {e}"))?;
    image.insert("pml", noise(seed ^ u64::from(rank), 512));
    image.insert("ompi", noise(seed, 8));
    Ok(image)
}

/// A 53-bit integer as an `f64`: exact, never NaN, compared via `to_bits`.
fn cell(x: u64) -> f64 {
    (x >> 11) as f64
}

/// The application's knobs (ISSUE "Load shape").
#[derive(Debug, Clone)]
pub struct BulkConfig {
    pub seed: u64,
    pub nprocs: u32,
    /// Logical state per rank: `cells.len() * 8`.
    pub state_bytes: usize,
    /// Share of chunks rewritten at each interval boundary.
    pub dirty_pct: u32,
    /// Share of chunks whose content does not depend on the rank.
    pub shared_pct: u32,
    /// Steps until `StepOutcome::Done`.
    pub total_steps: u64,
}

impl BulkConfig {
    fn ncells(&self) -> usize {
        (self.state_bytes / 8).max(2 * CHUNK_MARGIN)
    }

    fn nchunks(&self) -> usize {
        self.ncells() / CHUNK_CELLS
    }

    /// Chunk 0 holds the accumulators and changes every step on every
    /// rank; chunks `1..1+shared` have rank-independent content.
    fn shared_chunks(&self) -> usize {
        self.nchunks().saturating_sub(1) * self.shared_pct as usize / 100
    }

    fn dirty_chunks(&self) -> usize {
        (self.nchunks().saturating_sub(1) * self.dirty_pct as usize).div_ceil(100)
    }

    /// Fill chunk `c` with version `version` of its content.
    fn fill_chunk(&self, cells: &mut [f64], rank: u32, c: usize, version: u64) {
        let shared = (1..=self.shared_chunks()).contains(&c);
        let owner = if shared { u64::MAX } else { u64::from(rank) };
        let base = mix3(self.seed, owner, (c as u64) << 32 | version);
        let lo = c * CHUNK_CELLS + CHUNK_MARGIN;
        let hi = (c + 1) * CHUNK_CELLS - CHUNK_MARGIN;
        for (i, slot) in cells[lo..hi].iter_mut().enumerate() {
            *slot = cell(mix(base ^ i as u64));
        }
    }

    /// Chunks rewritten at the boundary that opens `interval`, the same
    /// on every rank. How many of them are shared follows a fixed pattern
    /// (so the bytes an interval adds do not depend on the seed); which
    /// ones, within the shared and the private range, the seed decides.
    fn dirty_set(&self, interval: u64) -> Vec<usize> {
        let share =
            |i: u64| (i * self.dirty_chunks() as u64 * u64::from(self.shared_pct) / 100) as usize;
        let from_shared = (share(interval + 1) - share(interval)).min(self.shared_chunks());
        let from_private = self.dirty_chunks() - from_shared;
        let first_private = 1 + self.shared_chunks();
        let mut picked = self.draw(interval, 1..first_private, from_shared);
        picked.extend(self.draw(interval, first_private..self.nchunks(), from_private));
        picked
    }

    /// `count` distinct chunks of `range`, drawn from the seed.
    fn draw(&self, interval: u64, range: std::ops::Range<usize>, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = range.collect();
        let count = count.min(pool.len());
        for k in 0..count {
            let salt = (pool[0] as u64) << 32 | k as u64;
            let j = k + (mix3(self.seed, interval, salt) % (pool.len() - k) as u64) as usize;
            pool.swap(k, j);
        }
        pool.truncate(count);
        pool
    }

    fn initial_state(&self, rank: u32) -> StencilState {
        let mut cells = vec![0.0; self.ncells()];
        for c in 0..self.nchunks() {
            self.fill_chunk(&mut cells, rank, c, 0);
        }
        StencilState {
            iter: 0,
            cells,
            residual: 0.0,
        }
    }

    fn ring_payload(&self, rank: u32, iter: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(RING_BYTES);
        let base = mix3(self.seed, u64::from(rank) | 1 << 40, iter);
        for i in 0..(RING_BYTES / 8) as u64 {
            out.extend_from_slice(&mix(base ^ i).to_le_bytes());
        }
        out
    }

    fn reduce_input(&self, rank: u32, iter: u64) -> f64 {
        cell(mix3(self.seed, u64::from(rank) | 2 << 40, iter))
    }

    /// The part of a step that touches state, given what the two MPI
    /// operations returned. Shared by the live step and the reference.
    fn apply(&self, st: &mut StencilState, rank: u32, from_left: &[u8], reduced: f64) {
        if st.iter.is_multiple_of(STEPS_PER_INTERVAL) {
            let interval = st.iter / STEPS_PER_INTERVAL;
            for c in self.dirty_set(interval) {
                self.fill_chunk(&mut st.cells, rank, c, interval + 1);
            }
        }
        let mut acc = st.cells[0].to_bits();
        for word in from_left.chunks_exact(8) {
            acc = mix(acc ^ u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        st.cells[0] = cell(acc);
        st.cells[1] = cell(mix(st.cells[1].to_bits() ^ reduced.to_bits()));
        st.residual = reduced;
        st.iter += 1;
    }
}

/// The answer rank `rank` must hold after `cfg.total_steps` steps,
/// computed serially: the left neighbour's payload and the reduction are
/// recomputed from the seed instead of being communicated.
pub fn reference(cfg: &BulkConfig, rank: u32) -> StencilState {
    let left = (rank + cfg.nprocs - 1) % cfg.nprocs;
    let mut st = cfg.initial_state(rank);
    while st.iter < cfg.total_steps {
        let reduced = (0..cfg.nprocs)
            .map(|r| cfg.reduce_input(r, st.iter))
            .fold(f64::MIN, f64::max);
        let payload = cfg.ring_payload(left, st.iter);
        cfg.apply(&mut st, rank, &payload, reduced);
    }
    st
}

/// True when `got` is bit-for-bit the reference answer.
pub fn matches_reference(got: &StencilState, want: &StencilState) -> bool {
    got.iter == want.iter
        && got.residual.to_bits() == want.residual.to_bits()
        && got.cells.len() == want.cells.len()
        && got
            .cells
            .iter()
            .zip(&want.cells)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

struct ControlState {
    /// Ranks may run steps `iter < released`.
    released: u64,
    /// Steps each rank has completed (observation only, never in state).
    completed: Vec<u64>,
    /// One-shot failure per rank, consumed by the rank that dies.
    armed: Vec<bool>,
}

/// Driver-side handle on the running ranks.
pub struct Control {
    state: Mutex<ControlState>,
    /// Signalled to parked ranks when `released` grows.
    released: Condvar,
    /// Signalled to the driver when a rank completes a step.
    progressed: Condvar,
}

impl Control {
    fn new(nprocs: u32) -> Self {
        Control {
            state: Mutex::new(ControlState {
                released: 0,
                completed: vec![0; nprocs as usize],
                armed: vec![false; nprocs as usize],
            }),
            released: Condvar::new(),
            progressed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ControlState> {
        self.state
            .lock()
            .expect("no thread panics holding the control lock")
    }

    /// Let every rank run up to (not including) step `until`.
    pub fn release(&self, until: u64) {
        self.lock().released = until;
        self.released.notify_all();
    }

    /// Make each of `ranks` fail at its next step, once.
    pub fn arm(&self, ranks: &[u32]) {
        let mut st = self.lock();
        for &r in ranks {
            st.armed[r as usize] = true;
        }
    }

    /// Forget recorded progress (before a whole-job restart, whose ranks
    /// resume from the snapshot's step, not from where the old job died).
    pub fn reset_progress(&self) {
        self.lock().completed.iter_mut().for_each(|c| *c = 0);
    }

    /// Steps the slowest rank has completed.
    pub fn min_completed(&self) -> u64 {
        self.lock().completed.iter().copied().min().unwrap_or(0)
    }

    /// Block until every rank has completed `steps` steps; false on timeout.
    pub fn wait_all(&self, steps: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.completed.iter().any(|&c| c < steps) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            st = self
                .progressed
                .wait_timeout(st, left)
                .expect("control lock")
                .0;
        }
        true
    }
}

/// The application object handed to `mpirun`/`restart`.
pub struct BulkApp {
    pub cfg: BulkConfig,
    pub control: Control,
}

impl BulkApp {
    pub fn new(cfg: BulkConfig) -> Self {
        let control = Control::new(cfg.nprocs);
        BulkApp { cfg, control }
    }
}

impl MpiApp for BulkApp {
    type State = StencilState;

    fn name(&self) -> &str {
        "bulk"
    }

    fn init_state(&self, mpi: &Mpi) -> Result<StencilState, MpiError> {
        Ok(self.cfg.initial_state(mpi.rank()))
    }

    fn step(&self, mpi: &Mpi, st: &mut StencilState) -> Result<StepOutcome, MpiError> {
        let me = mpi.rank();
        {
            // Park until the driver releases this step. `progress` is a
            // safe point, so a checkpoint can take the rank while it waits.
            let mut ctl = self.control.lock();
            while st.iter >= ctl.released {
                ctl = self
                    .control
                    .released
                    .wait_timeout(ctl, PARK)
                    .expect("control lock")
                    .0;
                if st.iter < ctl.released {
                    break;
                }
                drop(ctl);
                if mpi.should_terminate() {
                    return Err(MpiError::Terminating);
                }
                mpi.progress();
                ctl = self.control.lock();
            }
            if std::mem::take(&mut ctl.armed[me as usize]) {
                return Err(MpiError::PeerLost {
                    detail: "injected node failure".into(),
                });
            }
        }

        let comm = mpi.world().clone();
        let n = comm.size();
        // Sends are buffered, so send-then-receive cannot deadlock the ring.
        mpi.send_bytes(
            &comm,
            (me + 1) % n,
            RING_TAG,
            &self.cfg.ring_payload(me, st.iter),
        )?;
        let (from_left, _) = mpi.recv_bytes(&comm, Some((me + n - 1) % n), Some(RING_TAG))?;
        let reduced = mpi.allreduce(&comm, self.cfg.reduce_input(me, st.iter), f64::max)?;
        self.cfg.apply(st, me, &from_left, reduced);

        self.control.lock().completed[me as usize] = st.iter;
        self.control.progressed.notify_all();
        Ok(if st.iter >= self.cfg.total_steps {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}
