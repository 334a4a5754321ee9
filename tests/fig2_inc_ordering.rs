//! Experiment E4 (paper Figure 2): a checkpoint request entering a
//! process flows through the INC stack in strict order — application
//! callback first, then OMPI (CRCP before PML), then ORTE, then OPAL,
//! then the CRS takes the image; the resulting state flows back up in
//! reverse.

use std::sync::Arc;

use cr_core::request::CheckpointOptions;
use cr_core::Rank;
use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, Mpi, MpiError, MpiJob, RunConfig};
use ompi_cr::test_runtime;

/// App that registers SELF callbacks so the application layer's
/// participation is visible in the trace. It runs until terminated, so a
/// checkpoint never races its `MPI_Finalize`.
struct CallbackApp;

struct CbState {
    rounds: u64,
}
codec::wire_struct!(CbState { rounds });

impl MpiApp for CallbackApp {
    type State = CbState;

    fn init_state(&self, mpi: &Mpi) -> Result<CbState, MpiError> {
        let tracer = mpi.container().tracer().clone();
        mpi.on_checkpoint(move || {
            tracer.record("app.self.checkpoint", "");
            Ok(())
        });
        let tracer = mpi.container().tracer().clone();
        mpi.on_continue(move || {
            tracer.record("app.self.continue", "");
            Ok(())
        });
        Ok(CbState { rounds: 0 })
    }

    fn step(&self, mpi: &Mpi, state: &mut CbState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        mpi.barrier(&comm)?;
        state.rounds += 1;
        Ok(StepOutcome::Continue)
    }
}

/// Launch `nprocs` ranks of [`CallbackApp`] and return once every rank's
/// checkpoint window is open (its `MPI_Init` finished).
fn launch_live(rt: &orte::Runtime, params: Arc<mca::McaParams>, nprocs: u32) -> MpiJob<CbState> {
    let job = mpirun(rt, Arc::new(CallbackApp), RunConfig { nprocs, params }).unwrap();
    while !(0..nprocs).all(|r| job.handle().container(Rank(r)).checkpointing_enabled()) {
        std::thread::yield_now();
    }
    job
}

#[test]
fn inc_stack_order_is_a_palindrome_around_the_crs() {
    let rt = test_runtime("fig2", 1);
    let params = Arc::new(mca::McaParams::new());
    params.set("crs", "self");
    let job = launch_live(&rt, params, 2);
    rt.tracer().clear();
    job.checkpoint(&CheckpointOptions::tool()).unwrap();
    let tracer = rt.tracer();

    // Down phase: CRCP (first MPI subsystem) -> PML -> ORTE -> CRS.
    tracer.assert_order("ompi.crcp.coordinate", "ompi.pml.ft_event");
    tracer.assert_order("ompi.pml.ft_event", "orte.oob.ft_event");
    tracer.assert_order("orte.oob.ft_event", "opal.crs.checkpoint");
    // The SELF checkpoint callback fires with the app quiesced, before the
    // image is written; continue fires after.
    tracer.assert_order("app.self.checkpoint", "opal.notify.complete");
    tracer.assert_order("opal.crs.checkpoint", "app.self.continue");
    // The quiesce completes before the image is captured.
    tracer.assert_order("ompi.crcp.quiesced", "opal.crs.checkpoint");
    // Resume side: CRCP resume happens after the CRS ran.
    tracer.assert_order("opal.crs.checkpoint", "ompi.crcp.resume");

    job.request_terminate();
    job.wait().unwrap();
    rt.shutdown();
}

#[test]
fn full_layer_enter_exit_palindrome() {
    let rt = test_runtime("fig2b", 1);
    let job = launch_live(&rt, Arc::new(mca::McaParams::new()), 1);
    rt.tracer().clear();
    job.checkpoint(&CheckpointOptions::tool()).unwrap();
    let phases = rt.tracer().phases();

    // Extract the inc enter/exit events of one process.
    let incs: Vec<&str> = phases
        .iter()
        .map(String::as_str)
        .filter(|p| p.ends_with(".inc.enter") || p.ends_with(".inc.exit"))
        .collect();
    assert_eq!(
        incs,
        vec![
            "ompi.inc.enter",
            "orte.inc.enter",
            "opal.inc.enter",
            "opal.inc.exit",
            "orte.inc.exit",
            "ompi.inc.exit",
        ],
        "full trace:\n{}",
        rt.tracer().render()
    );

    job.request_terminate();
    job.wait().unwrap();
    rt.shutdown();
}
