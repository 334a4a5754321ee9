//! One checkpoint -> failure -> recovery cycle of a workload.
//!
//! Closed loop, one driver thread: launch the job, take the workload's
//! checkpoints, kill ranks, recover them, run to completion and compare
//! every rank's answer with the serial reference. Wall times come from the
//! driver's own clock around the public entry points; with `traced` the
//! cycle also keeps the tracer events and the windows needed to pair them
//! into spans afterwards (nothing extra happens inside a timed section).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use cr_core::trace::TraceEvent;
use cr_core::Rank;
use mca::McaParams;
use netsim::{LinkSpec, NodeId, Topology};
use ompi::{mpirun, restart, MpiJob, RestartOptions, RunConfig};
use orte::Runtime;
use workloads::stencil::StencilState;

use crate::app::{matches_reference, reference, BulkApp, BulkConfig};
use crate::layers::orte_snapc;
use crate::workload::{Recovery, Workload, COMPUTE_NODES, NPROCS};

/// No single wait in a healthy cycle comes near this.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

/// Operations tried and operations that failed or were refused:
/// checkpoints, restarts, recoveries and answer verifications.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// One timed window in a runtime's tracer time (ms since `Runtime::new`
/// returned), with the events that runtime recorded.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ms: f64,
    pub end_ms: f64,
    /// Index into [`CycleTrace::runtimes`].
    pub runtime: usize,
}

/// What a traced cycle keeps for span pairing.
#[derive(Debug, Default)]
pub struct CycleTrace {
    /// Events of the launch runtime, then of each restart runtime.
    pub runtimes: Vec<Vec<TraceEvent>>,
    pub checkpoints: Vec<Window>,
    pub recoveries: Vec<Window>,
    /// Simulated gather cost per checkpoint, ms (`sim` clock).
    pub gather_sim_ms: Vec<f64>,
    /// Fabric traffic per checkpoint (`count` clock).
    pub fabric_bytes: Vec<f64>,
    pub fabric_msgs: Vec<f64>,
    /// Checkpoints that returned with a rank still short of the released
    /// steps: proof that the cut fell while ranks were exchanging.
    pub cuts_mid_step: usize,
}

/// Everything one cycle measured. Per-checkpoint vectors leave out the
/// cold first checkpoint, which creates the snapshot reference.
#[derive(Debug, Default)]
pub struct CycleSample {
    pub setup_s: f64,
    pub cold_stall_ms: f64,
    /// `checkpoint()` call to reference returned.
    pub stall_ms: Vec<f64>,
    /// `checkpoint()` call to `drain_writebehind` done.
    pub commit_ms: Vec<f64>,
    /// Bytes each interval added under `stable_dir`, read off the disk.
    pub stable_bytes: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub cycle_s: f64,
    pub state_bytes_total: f64,
    pub ops: Ops,
    pub trace: Option<CycleTrace>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sum of file sizes under `dir`.
fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn new_runtime(w: &Workload, base: &Path) -> Result<(Runtime, Instant), String> {
    let topology = Topology::uniform(COMPUTE_NODES + w.spare_nodes, LinkSpec::gigabit_ethernet());
    let rt = Runtime::new(topology, base).map_err(|e| format!("runtime: {e}"))?;
    // `Runtime::new` creates its tracer last, so this is tracer time zero
    // to within microseconds.
    Ok((rt, Instant::now()))
}

/// Compare every rank's final state with its serial reference.
fn verify(
    references: &[StencilState],
    results: &[(StencilState, ompi::app::RunEnd)],
    ops: &mut Ops,
) {
    ops.attempted += 1;
    let ok = results.len() == references.len()
        && results.iter().zip(references).all(|((state, end), want)| {
            *end == ompi::app::RunEnd::Completed && matches_reference(state, want)
        });
    if !ok {
        ops.failed += 1;
    }
}

struct Driver<'a> {
    w: &'a Workload,
    app: Arc<BulkApp>,
    /// The answer every rank must end with, computed before the clock
    /// starts: checking is the benchmark's work, not the system's.
    references: Vec<StencilState>,
    sample: CycleSample,
}

impl Driver<'_> {
    fn wait_all(&self, steps: u64) -> Result<(), String> {
        if self.app.control.wait_all(steps, STEP_TIMEOUT) {
            Ok(())
        } else {
            Err(format!(
                "ranks did not reach step {steps} within {STEP_TIMEOUT:?}"
            ))
        }
    }

    /// `t0..t1` as a window of the runtime whose tracer started at `origin`.
    /// A recovery on a fresh runtime starts before that runtime's tracer
    /// exists, hence the signed arithmetic.
    fn window(runtime: usize, origin: Instant, t0: Instant, t1: Instant) -> Window {
        let rel = |t: Instant| match t.checked_duration_since(origin) {
            Some(d) => ms(d),
            None => -ms(origin.duration_since(t)),
        };
        Window {
            start_ms: rel(t0),
            end_ms: rel(t1),
            runtime,
        }
    }

    /// Whole-job recovery: the job is dead; restart it `restarts` times
    /// from the last snapshot, each time on a fresh runtime and to
    /// completion (only the last interval's steps remain).
    fn recover_full(
        &mut self,
        dir: &Path,
        global_ref: &Path,
        source: ompi::RestartSource,
        restarts: u32,
        resume_step: u64,
    ) -> Result<(), String> {
        for i in 0..restarts {
            self.app.control.reset_progress();
            let base = dir.join(format!("restart{i}"));
            let t0 = Instant::now();
            let (rt, origin) = new_runtime(self.w, &base)?;
            self.sample.ops.attempted += 1;
            let job = restart(
                &rt,
                Arc::clone(&self.app),
                global_ref,
                RestartOptions::default().with_source(source),
            )
            .map_err(|e| {
                self.sample.ops.failed += 1;
                format!("restart {i}: {e}")
            })?;
            self.wait_all(resume_step + 1)?;
            let t1 = Instant::now();
            self.sample.recover_ms.push(ms(t1 - t0));
            let results = job.wait().map_err(|e| format!("restarted job {i}: {e}"))?;
            verify(&self.references, &results, &mut self.sample.ops);
            rt.shutdown();
            if let Some(trace) = &mut self.sample.trace {
                trace.runtimes.push(rt.tracer().events());
                let runtime = trace.runtimes.len() - 1;
                trace.recoveries.push(Self::window(runtime, origin, t0, t1));
            }
        }
        Ok(())
    }

    /// In-place recovery: both ranks of compute node `node` die with it
    /// and are restored onto a spare while the other six stay live.
    fn recover_partial(
        &mut self,
        rt: &Runtime,
        origin: Instant,
        job: &MpiJob<StencilState>,
        global_ref: &Path,
        node: NodeId,
        boundary: u64,
    ) -> Result<(), String> {
        let victims: Vec<u32> = (0..NPROCS)
            .filter(|&r| job.handle().node_of(Rank(r)) == node)
            .collect();
        self.app.control.arm(&victims);
        self.app.control.release(boundary + self.w.steps_per_ckpt);
        let deadline = Instant::now() + STEP_TIMEOUT;
        while job.failed_ranks().len() < victims.len() {
            if Instant::now() > deadline {
                return Err(format!(
                    "injected failure of ranks {victims:?} never reported"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        rt.kill_daemon(node);
        let t0 = Instant::now();
        self.sample.ops.attempted += 1;
        job.restart_ranks(
            global_ref,
            &RestartOptions::default().with_ranks(victims.clone()),
        )
        .map_err(|e| {
            self.sample.ops.failed += 1;
            format!("restart_ranks {victims:?}: {e}")
        })?;
        self.wait_all(boundary + 1)?;
        let t1 = Instant::now();
        self.sample.recover_ms.push(ms(t1 - t0));
        if let Some(trace) = &mut self.sample.trace {
            trace.recoveries.push(Self::window(0, origin, t0, t1));
        }
        Ok(())
    }
}

/// Run one cycle of `w` under the fresh directory `dir`, removed afterwards.
pub fn run_cycle(w: &Workload, seed: u64, dir: &Path, traced: bool) -> Result<CycleSample, String> {
    let result = run_cycle_in(w, seed, dir, traced);
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn run_cycle_in(w: &Workload, seed: u64, dir: &Path, traced: bool) -> Result<CycleSample, String> {
    let window = w.steps_per_ckpt;
    let last_boundary = w.checkpoints * window;
    let cfg = BulkConfig {
        seed,
        nprocs: NPROCS,
        state_bytes: w.state_bytes,
        dirty_pct: w.dirty_pct,
        shared_pct: w.shared_pct,
        total_steps: last_boundary + window,
    };
    let references = (0..NPROCS).map(|r| reference(&cfg, r)).collect();
    let app = Arc::new(BulkApp::new(cfg));
    let started = Instant::now();
    let mut d = Driver {
        w,
        app: Arc::clone(&app),
        references,
        sample: CycleSample {
            state_bytes_total: (NPROCS as usize * w.state_bytes) as f64,
            // Slot 0 is the launch runtime's events, filled in when it ends.
            trace: traced.then(|| CycleTrace {
                runtimes: vec![Vec::new()],
                ..CycleTrace::default()
            }),
            ..CycleSample::default()
        },
    };

    // Set-up: runtime, launch, every rank through its first step.
    let (rt, origin) = new_runtime(w, &dir.join("launch"))?;
    let params = Arc::new(McaParams::new());
    for (key, value) in w.params {
        params.set(key, *value);
    }
    let job = mpirun(
        &rt,
        Arc::clone(&app),
        RunConfig {
            nprocs: NPROCS,
            params,
        },
    )
    .map_err(|e| format!("mpirun: {e}"))?;
    // A whole-job failure follows the last checkpoint; partial rounds
    // are spread evenly over the checkpoints.
    let fail_every = match w.recovery {
        Recovery::Partial { rounds } => {
            // Declared before any rank can fail: survivors stay live.
            job.handle().set_partial_recovery(true);
            w.checkpoints / u64::from(rounds)
        }
        Recovery::Full { .. } => w.checkpoints,
    };
    app.control.release(1);
    d.wait_all(1)?;
    d.sample.setup_s = started.elapsed().as_secs_f64();
    if w.gated {
        app.control.release(window);
    }

    let stable = rt.stable_dir();
    // Nothing writes to stable storage between one drain and the next
    // checkpoint, so one walk per checkpoint gives each interval's growth.
    let mut stable_bytes = tree_bytes(&stable);
    let mut global_ref = None;
    let mut round = 0u32;
    for k in 1..=w.checkpoints {
        let boundary = k * window;
        if !w.gated {
            // Released and struck at once: the cut lands mid-exchange.
            app.control.release(boundary);
        }
        if w.gated || k == w.checkpoints {
            d.wait_all(boundary)?;
        }
        let fabric_before = traced.then(|| rt.fabric().stats());

        let t_req = Instant::now();
        d.sample.ops.attempted += 1;
        let outcome = job.checkpoint(&CheckpointOptions::tool()).map_err(|e| {
            d.sample.ops.failed += 1;
            format!("checkpoint {k}: {e}")
        })?;
        let t_ret = Instant::now();
        let mid_step = app.control.min_completed() < boundary;
        let fail_now = k.is_multiple_of(fail_every);
        if w.gated && !fail_now {
            // The application runs while any write-behind gather drains.
            app.control.release(boundary + window);
        }
        rt.drain_writebehind();
        let t_commit = Instant::now();
        let grown = tree_bytes(&stable).saturating_sub(stable_bytes);
        stable_bytes += grown;

        if k == 1 {
            d.sample.cold_stall_ms = ms(t_ret - t_req);
        } else {
            d.sample.stall_ms.push(ms(t_ret - t_req));
            d.sample.commit_ms.push(ms(t_commit - t_req));
            d.sample.stable_bytes.push(grown as f64);
            if let (Some(trace), Some(before)) = (&mut d.sample.trace, fabric_before) {
                trace
                    .checkpoints
                    .push(Driver::window(0, origin, t_req, t_ret));
                let after = rt.fabric().stats();
                trace
                    .fabric_bytes
                    .push((after.total_bytes - before.total_bytes) as f64);
                trace
                    .fabric_msgs
                    .push((after.total_msgs - before.total_msgs) as f64);
                trace
                    .gather_sim_ms
                    .push(orte_snapc::simulated_gather_ms(&outcome));
                trace.cuts_mid_step += usize::from(mid_step);
            }
        }
        global_ref = Some(outcome.global_snapshot);

        if fail_now && matches!(w.recovery, Recovery::Partial { .. }) {
            round += 1;
            let reference = global_ref.as_deref().expect("just set");
            d.recover_partial(&rt, origin, &job, reference, NodeId(round), boundary)?;
        }
    }
    let global_ref = global_ref.ok_or("workload takes no checkpoint")?;

    match w.recovery {
        Recovery::Partial { .. } => {
            app.control.release(app.cfg.total_steps);
            let results = job
                .wait()
                .map_err(|e| format!("job after partial recovery: {e}"))?;
            verify(&d.references, &results, &mut d.sample.ops);
            rt.shutdown();
            if let Some(trace) = &mut d.sample.trace {
                trace.runtimes[0] = rt.tracer().events();
            }
        }
        Recovery::Full { source, restarts } => {
            // Any rank but 0 (the seed picks): it dies at its next step
            // and the job goes down with it.
            app.control
                .arm(&[1 + (crate::app::mix(seed) % u64::from(NPROCS - 1)) as u32]);
            app.control.release(app.cfg.total_steps);
            if job.wait().is_ok() {
                return Err("injected failure did not bring the job down".into());
            }
            rt.shutdown();
            if let Some(trace) = &mut d.sample.trace {
                trace.runtimes[0] = rt.tracer().events();
            }
            d.recover_full(dir, &global_ref, source, restarts, last_boundary)?;
        }
    }

    d.sample.cycle_s = started.elapsed().as_secs_f64();
    Ok(d.sample)
}
