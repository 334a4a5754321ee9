//! Experiment E3 companion: end-to-end distributed checkpoint latency
//! through the full Figure-1 pipeline, comparing the centralized `full`
//! coordinator against the hierarchical `tree` coordinator (the same
//! daemons + FILEM gather + cleanup, fanned out over a binomial tree).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cr_core::request::CheckpointOptions;
use mca::McaParams;
use netsim::{LinkSpec, Topology};
use ompi::{mpirun, RunConfig};
use orte::Runtime;
use workloads::stencil::StencilApp;

fn snapc_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapc_full_vs_tree");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for snapc in ["full", "tree"] {
        let dir = std::env::temp_dir().join(format!("bench_snapc_{snapc}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rt = Runtime::new(Topology::uniform(4, LinkSpec::gigabit_ethernet()), dir).unwrap();
        let params = Arc::new(McaParams::new());
        params.set("snapc", snapc);
        let app = Arc::new(StencilApp {
            cells_per_rank: 4096,
            iters: u64::MAX / 2,
            ..Default::default()
        });
        let job = mpirun(&rt, app, RunConfig { nprocs: 8, params }).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        group.bench_function(BenchmarkId::from_parameter(snapc), |b| {
            b.iter(|| job.checkpoint(&CheckpointOptions::tool()).unwrap());
        });
        job.request_terminate();
        job.wait().unwrap();
        rt.shutdown();
    }
    group.finish();
}

criterion_group!(benches, snapc_checkpoint);
criterion_main!(benches);
