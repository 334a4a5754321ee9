//! Workload registry shared by the CLI binaries: `--app <name>` selects a
//! workload; restart must use the same name (it is recorded in the
//! snapshot's launch parameters).

use std::sync::Arc;

use cr_core::CrError;
use mca::McaParams;
use ompi::app::RunEnd;
use ompi::{mpirun, restart, MpiJob, RestartOptions, RunConfig};
use orte::Runtime;
use workloads::master_worker::MasterWorkerApp;
use workloads::ring::RingApp;
use workloads::stencil::StencilApp;
use workloads::traffic::TrafficApp;

/// MCA key the tools use to record which workload a job ran.
pub const APP_PARAM: &str = "tools_app";

/// Workload names accepted by `--app`.
pub const APP_NAMES: [&str; 4] = ["ring", "stencil", "master_worker", "traffic"];

/// Per-rank outcome summaries of a finished job.
pub type RankSummaries = Vec<(String, RunEnd)>;

/// A type-erased running job: final per-rank summaries as strings.
pub struct AnyJob {
    waiter: Box<dyn FnOnce() -> Result<RankSummaries, CrError> + Send>,
    handle: Arc<orte::JobHandle>,
}

impl AnyJob {
    fn new<S: codec::Wire + Send + 'static>(job: MpiJob<S>) -> AnyJob {
        let handle = Arc::clone(job.handle());
        AnyJob {
            handle,
            waiter: Box::new(move || {
                let results = job.wait()?;
                Ok(results
                    .into_iter()
                    .map(|(state, end)| {
                        let summary = format!("{} state bytes", codec::to_bytes(&state).len());
                        (summary, end)
                    })
                    .collect())
            }),
        }
    }

    /// The ORTE job handle (checkpoint, terminate).
    pub fn handle(&self) -> &Arc<orte::JobHandle> {
        &self.handle
    }

    /// Wait for completion.
    pub fn wait(self) -> Result<RankSummaries, CrError> {
        (self.waiter)()
    }
}

fn scaled(params: &McaParams, key: &str, default: u64) -> u64 {
    params.get_parsed_or(key, default).unwrap_or(default)
}

/// Launch workload `name` on `nprocs` ranks. Workload knobs come from MCA
/// parameters (`tools_rounds`, `tools_cells`, `tools_tasks`).
pub fn launch_named(
    runtime: &Runtime,
    name: &str,
    nprocs: u32,
    params: Arc<McaParams>,
) -> Result<AnyJob, CrError> {
    params.set(APP_PARAM, name);
    let config = RunConfig {
        nprocs,
        params: Arc::clone(&params),
    };
    match name {
        "ring" => Ok(AnyJob::new(mpirun(
            runtime,
            Arc::new(RingApp {
                rounds: scaled(&params, "tools_rounds", 200_000),
            }),
            config,
        )?)),
        "stencil" => Ok(AnyJob::new(mpirun(
            runtime,
            Arc::new(StencilApp {
                cells_per_rank: scaled(&params, "tools_cells", 4096) as usize,
                iters: scaled(&params, "tools_rounds", 50_000),
                ..Default::default()
            }),
            config,
        )?)),
        "master_worker" => Ok(AnyJob::new(mpirun(
            runtime,
            Arc::new(MasterWorkerApp {
                tasks: scaled(&params, "tools_tasks", 100_000),
                wave: 64,
            }),
            config,
        )?)),
        "traffic" => Ok(AnyJob::new(mpirun(
            runtime,
            Arc::new(TrafficApp {
                rounds: scaled(&params, "tools_rounds", 100_000),
                ..Default::default()
            }),
            config,
        )?)),
        other => Err(CrError::Unsupported {
            detail: format!("unknown app {other:?} (available: {})", APP_NAMES.join(", ")),
        }),
    }
}

/// Restart whatever workload a global snapshot reference recorded, as
/// `opts` says ([`RestartOptions`]: source tier, interval, ranks).
pub fn restart_named(
    runtime: &Runtime,
    global_ref: &std::path::Path,
    opts: RestartOptions,
) -> Result<AnyJob, CrError> {
    // Read the recorded app name from the snapshot's launch parameters.
    let global = cr_core::GlobalSnapshot::open(global_ref)?;
    let launch = global.launch_params();
    let name = launch
        .iter()
        .find(|(k, _)| k == APP_PARAM)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| CrError::BadSnapshot {
            detail: format!("snapshot records no {APP_PARAM} launch parameter"),
        })?;
    let params_store = McaParams::from_dump(launch.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    let params = Arc::new(params_store);
    match name.as_str() {
        "ring" => Ok(AnyJob::new(restart(
            runtime,
            Arc::new(RingApp {
                rounds: scaled(&params, "tools_rounds", 200_000),
            }),
            global_ref,
            opts,
        )?)),
        "stencil" => Ok(AnyJob::new(restart(
            runtime,
            Arc::new(StencilApp {
                cells_per_rank: scaled(&params, "tools_cells", 4096) as usize,
                iters: scaled(&params, "tools_rounds", 50_000),
                ..Default::default()
            }),
            global_ref,
            opts,
        )?)),
        "master_worker" => Ok(AnyJob::new(restart(
            runtime,
            Arc::new(MasterWorkerApp {
                tasks: scaled(&params, "tools_tasks", 100_000),
                wave: 64,
            }),
            global_ref,
            opts,
        )?)),
        "traffic" => Ok(AnyJob::new(restart(
            runtime,
            Arc::new(TrafficApp {
                rounds: scaled(&params, "tools_rounds", 100_000),
                ..Default::default()
            }),
            global_ref,
            opts,
        )?)),
        other => Err(CrError::Unsupported {
            detail: format!("snapshot was taken by unknown app {other:?}"),
        }),
    }
}

/// Build a runtime for the tools: `nodes` nodes rooted at `base`.
pub fn tool_runtime(base: &std::path::Path, nodes: u32) -> Result<Runtime, CrError> {
    Runtime::new(
        netsim::Topology::uniform(nodes, netsim::LinkSpec::gigabit_ethernet()),
        base,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tools_apps_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unknown_app_rejected() {
        let rt = tool_runtime(&tmp("unknown"), 1).unwrap();
        let err = match launch_named(&rt, "nope", 2, Arc::new(McaParams::new())) {
            Err(e) => e,
            Ok(_) => panic!("unknown app must fail"),
        };
        assert!(err.to_string().contains("ring"));
        rt.shutdown();
    }

    #[test]
    fn launch_and_wait_ring() {
        let rt = tool_runtime(&tmp("ring"), 1).unwrap();
        let params = Arc::new(McaParams::new());
        params.set("tools_rounds", "50");
        let job = launch_named(&rt, "ring", 2, params).unwrap();
        let results = job.wait().unwrap();
        assert_eq!(results.len(), 2);
        rt.shutdown();
    }

    #[test]
    fn checkpoint_and_restart_via_registry() {
        let rt = tool_runtime(&tmp("cr"), 2).unwrap();
        let params = Arc::new(McaParams::new());
        params.set("tools_rounds", "100000");
        let job = launch_named(&rt, "traffic", 3, params).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let outcome = job
            .handle()
            .checkpoint(&cr_core::request::CheckpointOptions::tool().and_terminate())
            .unwrap();
        job.wait().unwrap();
        rt.shutdown();

        let rt2 = tool_runtime(&tmp("cr_restart"), 1).unwrap();
        let job = restart_named(&rt2, &outcome.global_snapshot, RestartOptions::default()).unwrap();
        job.handle().request_terminate();
        let results = job.wait().unwrap();
        assert_eq!(results.len(), 3);
        rt2.shutdown();
    }
}
