//! Experiment E1 (paper §7): NetPIPE latency overhead of the C/R
//! infrastructure. The paper reports ~3% added latency for small messages
//! and ~0% for large ones when the interposition layers run with
//! passthrough components; `disabled` is the infrastructure-off baseline,
//! `passthrough` the paper's measured configuration, `coord` the real
//! protocol's failure-free path.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workloads::netpipe::{FtMode, PingPongPair};

fn netpipe_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("netpipe_latency");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for &size in &[1usize, 16, 256, 4096, 65536, 1 << 20] {
        for mode in FtMode::ALL {
            let pair = PingPongPair::new(mode);
            let payload = vec![0u8; size];
            group.bench_with_input(
                BenchmarkId::new(mode.label(), size),
                &size,
                |b, &_size| {
                    b.iter_custom(|iters| {
                        let bpml = std::sync::Arc::clone(&pair.b);
                        let echo = std::thread::spawn(move || {
                            for _ in 0..iters {
                                let f = bpml.recv(0, Some(0), Some(1)).unwrap();
                                bpml.send(0, 0, 2, &f.payload).unwrap();
                            }
                        });
                        let start = Instant::now();
                        for _ in 0..iters {
                            pair.a.send(0, 1, 1, &payload).unwrap();
                            pair.a.recv(0, Some(1), Some(2)).unwrap();
                        }
                        let elapsed = start.elapsed();
                        echo.join().unwrap();
                        pair.a.begin_step();
                        pair.b.begin_step();
                        elapsed
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, netpipe_latency);
criterion_main!(benches);
