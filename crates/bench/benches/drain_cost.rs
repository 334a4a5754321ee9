//! Ablation A4: cost of the coordinated protocol's channel drain as a
//! function of in-flight traffic at checkpoint time. The bookmark
//! exchange itself is O(peers); the drain is O(in-flight messages).
//!
//! A second group times the FILEM write-behind drain (scratch → stable)
//! at 1 vs 4 gather workers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cr_core::Tracer;
use netsim::{Fabric, LinkSpec, NodeId, Topology};
use ompi::crcp::{CoordCrcp, CrcpComponent};
use ompi::pml::PmlShared;
use opal::SafePointGate;
use orte::filem::{copy_batch, filem_framework, CopyRequest};

fn mesh(n: u32) -> Vec<Arc<PmlShared>> {
    let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
    let endpoints: Vec<_> = (0..n).map(|_| fabric.register(NodeId(0))).collect();
    let ids: Vec<_> = endpoints.iter().map(|e| e.id()).collect();
    endpoints
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            PmlShared::new(
                i as u32,
                n,
                ep,
                ids.clone(),
                Arc::new(SafePointGate::new()),
                Tracer::new(),
            )
        })
        .collect()
}

fn drain_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("coord_drain_vs_in_flight");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &in_flight in &[0usize, 64, 1024, 8192] {
        group.bench_with_input(
            BenchmarkId::from_parameter(in_flight),
            &in_flight,
            |b, &in_flight| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let pmls = mesh(2);
                        let payload = vec![0u8; 256];
                        for _ in 0..in_flight {
                            pmls[0].send(0, 1, 1, &payload).unwrap();
                        }
                        let start = Instant::now();
                        let a = Arc::clone(&pmls[0]);
                        let b2 = Arc::clone(&pmls[1]);
                        let ta = std::thread::spawn(move || {
                            CoordCrcp::new(Tracer::new()).coordinate(&a).unwrap()
                        });
                        let tb = std::thread::spawn(move || {
                            CoordCrcp::new(Tracer::new()).coordinate(&b2).unwrap()
                        });
                        ta.join().unwrap();
                        tb.join().unwrap();
                        total += start.elapsed();
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

/// FILEM write-behind drain: 8 per-rank scratch trees pulled to stable
/// storage over 1 vs 4 gather workers.
fn filem_drain_cost(c: &mut Criterion) {
    let filem = filem_framework()
        .select(&mca::McaParams::new())
        .expect("default filem");
    let base = std::env::temp_dir().join(format!("bench_filem_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut batch = Vec::new();
    for r in 0..8u32 {
        let src = base.join(format!("scratch_rank{r}"));
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("ompi_context.bin"), vec![0xCD; 128 << 10]).unwrap();
        batch.push(CopyRequest {
            src,
            src_node: NodeId(r % 4),
            dest: base.join(format!("stable_rank{r}")),
            dest_node: NodeId(0),
        });
    }
    let mut group = c.benchmark_group("filem_drain_workers");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| b.iter(|| copy_batch(&*filem, &batch, workers).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, drain_cost, filem_drain_cost);
criterion_main!(benches);
