//! Replay-surface stress: an application step that exercises *every* PML
//! operation kind — blocking send/recv, isend/irecv/wait, test-polling,
//! probe, sendrecv, scan, and collectives — checkpointed at random
//! moments and restarted. Every recorded op kind must replay to the
//! identical result.

use std::sync::Arc;
use std::time::Duration;

use cr_core::request::CheckpointOptions;
use ompi::app::{MpiApp, RunEnd, StepOutcome};
use ompi::{mpirun, restart, Mpi, MpiError, RestartOptions, RunConfig};
use ompi_cr::test_runtime;

struct KitchenSinkApp {
    rounds: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct SinkState {
    round: u64,
    digest: u64,
}
codec::wire_struct!(SinkState { round, digest });

fn mix(acc: u64, v: u64) -> u64 {
    acc.wrapping_mul(0x100000001B3).wrapping_add(v)
}

impl MpiApp for KitchenSinkApp {
    type State = SinkState;

    fn name(&self) -> &str {
        "kitchen-sink"
    }

    fn init_state(&self, _mpi: &Mpi) -> Result<SinkState, MpiError> {
        Ok(SinkState {
            round: 0,
            digest: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut SinkState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let r = state.round;

        // 1. Non-blocking ring exchange with test-polling then wait.
        let rx = mpi.irecv(&comm, Some(prev), Some(1))?;
        let tx = mpi.isend(&comm, next, 1, &(me as u64 + r))?;
        let mut polled: Option<(u64, _)> = mpi.test_recv(rx)?;
        let (v1, _) = match polled.take() {
            Some(pair) => pair,
            None => mpi.wait_recv(rx)?,
        };
        mpi.wait_send(tx)?;
        state.digest = mix(state.digest, v1);

        // 2. Probe metadata, then the matching blocking receive.
        mpi.send(&comm, next, 2, &(r * 31 + u64::from(me)))?;
        let status = mpi.probe(&comm, Some(prev), Some(2))?;
        state.digest = mix(state.digest, u64::from(status.source));
        let (v2, _): (u64, _) = mpi.recv(&comm, Some(prev), Some(2))?;
        state.digest = mix(state.digest, v2);

        // 3. Sendrecv swap.
        let (v3, _): (u64, _) =
            mpi.sendrecv(&comm, next, 3, &(r + u64::from(me) * 7), Some(prev), Some(3))?;
        state.digest = mix(state.digest, v3);

        // 4. Scan and collectives.
        let scanned = mpi.scan(&comm, u64::from(me) + r, u64::wrapping_add)?;
        state.digest = mix(state.digest, scanned);
        let total = mpi.allreduce(&comm, state.digest & 0xFFFF, u64::wrapping_add)?;
        state.digest = mix(state.digest, total);
        let gathered = mpi.allgather(&comm, &(state.digest & 0xFF))?;
        for g in gathered {
            state.digest = mix(state.digest, g);
        }

        state.round += 1;
        Ok(if state.round >= self.rounds {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

#[test]
fn every_op_kind_replays_exactly() {
    let rounds = 600;
    let nprocs = 4;
    let app = Arc::new(KitchenSinkApp { rounds });

    // Fault-free reference.
    let rt = test_runtime("sink_ref", 2);
    let reference = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs))
        .unwrap()
        .wait()
        .unwrap();
    rt.shutdown();

    // Three different checkpoint timings, each restarted and compared.
    for delay_ms in [5u64, 25, 60] {
        let rt = test_runtime(&format!("sink_ck_{delay_ms}"), 2);
        let job = mpirun(&rt, Arc::clone(&app), RunConfig::new(nprocs)).unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        let outcome = match job.checkpoint(&CheckpointOptions::tool().and_terminate()) {
            Ok(o) => o,
            Err(_) => {
                // Finished before the checkpoint landed; timing not testable.
                let _ = job.wait();
                rt.shutdown();
                continue;
            }
        };
        job.wait().unwrap();

        let rt2 = test_runtime(&format!("sink_rs_{delay_ms}"), 2);
        let job =
            restart(&rt2, Arc::clone(&app), &outcome.global_snapshot, RestartOptions::default())
                .unwrap();
        let restarted = job.wait().unwrap();
        for (r, ((ref_state, _), (new_state, end))) in
            reference.iter().zip(&restarted).enumerate()
        {
            assert_eq!(*end, RunEnd::Completed, "delay {delay_ms} rank {r}");
            assert_eq!(
                new_state, ref_state,
                "delay {delay_ms} rank {r}: replay diverged"
            );
        }
        rt.shutdown();
        rt2.shutdown();
    }
}
