//! Ablation A5: FILEM aggregation time — gathering N local snapshots to
//! stable storage with the one copier, one lane vs four. Wall time
//! measures the real file copies.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::NodeId;
use orte::filem::{filem_framework, CopyRequest};
use orte::sched::copy_all_scheduled;

fn make_local_snapshots(base: &std::path::Path, ranks: u32, bytes_per_rank: usize) -> Vec<CopyRequest> {
    let mut batch = Vec::new();
    for r in 0..ranks {
        let src = base.join(format!("src_rank{r}"));
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("snapshot_meta.data"), b"[snapshot]\ncrs = blcr_sim\n").unwrap();
        std::fs::write(src.join("ompi_context.bin"), vec![0xAB; bytes_per_rank]).unwrap();
        batch.push(CopyRequest {
            src,
            src_node: NodeId(r % 4),
            dest: base.join(format!("dest_rank{r}")),
            dest_node: NodeId(0),
        });
    }
    batch
}

fn filem_gather(c: &mut Criterion) {
    let filem = filem_framework()
        .select(&mca::McaParams::new())
        .expect("default filem");
    let mut group = c.benchmark_group("filem_gather");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for &(ranks, size) in &[(4u32, 64usize << 10), (16, 64 << 10), (4, 1 << 20)] {
        let base = std::env::temp_dir().join(format!(
            "bench_filem_{ranks}_{size}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let batch = make_local_snapshots(&base, ranks, size);
        for lanes in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("lanes{lanes}"), format!("{ranks}r_{size}B")),
                &batch,
                |b, batch| b.iter(|| copy_all_scheduled(&*filem, batch, lanes).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, filem_gather);
criterion_main!(benches);
