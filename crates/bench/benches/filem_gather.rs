//! Ablation A5: FILEM aggregation cost — gathering N local snapshots to
//! stable storage, per component (`rsh_sim`: one session per file;
//! `oob_stream`: one session per tree). Wall time measures the real file
//! copies; the simulated wire costs per strategy — serialized (sum of
//! per-copy wire time) and critical-path (wall clock over the wave
//! executor's lanes) — are printed once, one lane vs four.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{LinkSpec, NetView, NodeId, Topology};
use orte::filem::{CopyRequest, RshSimFilem, StreamFilem};
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
    let topo = Topology::uniform(4, LinkSpec::gigabit_ethernet());
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

        let rsh = RshSimFilem;
        let stream = StreamFilem::OOB_STREAM;
        let net = NetView::uncontended(&topo);
        // Print the simulated wire costs once per configuration:
        // one-lane gather, then the same batch over 4 lanes.
        let (r1, _) = copy_all_scheduled(&rsh, net, &batch, 1).unwrap();
        let (r2, _) = copy_all_scheduled(&stream, net, &batch, 1).unwrap();
        println!(
            "filem sim cost ranks={ranks} bytes/rank={size}: \
             rsh_sim serialized={} critical_path={} \
             oob_stream serialized={} critical_path={}",
            r1.serialized_cost, r1.critical_path_cost, r2.serialized_cost, r2.critical_path_cost
        );
        let (rp, _) = copy_all_scheduled(&rsh, net, &batch, 4).unwrap();
        assert!(rp.critical_path_cost <= rp.serialized_cost);
        println!(
            "filem sim cost ranks={ranks} bytes/rank={size}: \
             rsh_sim(4 lanes) serialized={} critical_path={}",
            rp.serialized_cost, rp.critical_path_cost
        );

        group.bench_with_input(
            BenchmarkId::new("rsh_sim", format!("{ranks}r_{size}B")),
            &batch,
            |b, batch| b.iter(|| copy_all_scheduled(&rsh, net, batch, 1).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("oob_stream", format!("{ranks}r_{size}B")),
            &batch,
            |b, batch| b.iter(|| copy_all_scheduled(&stream, net, batch, 1).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("rsh_sim_parallel4", format!("{ranks}r_{size}B")),
            &batch,
            |b, batch| b.iter(|| copy_all_scheduled(&rsh, net, batch, 4).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, filem_gather);
criterion_main!(benches);
