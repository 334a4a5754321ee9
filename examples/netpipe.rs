//! The paper's §7 evaluation as a runnable table: NetPIPE-style latency
//! and bandwidth with the checkpoint/restart infrastructure disabled,
//! interposed with passthrough components (the paper's configuration),
//! and with the real protocols' failure-free paths.
//!
//! ```text
//! cargo run --release --example netpipe
//! ```
//!
//! Expected shape (paper §7): a few percent latency overhead at small
//! message sizes that vanishes as messages grow, and ~0% bandwidth
//! overhead — the cost is per-call, not per-byte.

use workloads::netpipe::{run_matrix, size_ladder, NetpipeSample};

fn main() {
    let sizes = size_ladder(1 << 20);
    let reps = 400;

    println!("collecting: modes interleaved per size, {reps} round trips per size, 2 passes (first discarded)\n");
    let results: Vec<(workloads::netpipe::FtMode, Vec<NetpipeSample>)> =
        run_matrix(&sizes, reps, 2).expect("matrix");

    let baseline = results[0].1.clone();

    println!(
        "{:>9} | {:>12} {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>8}",
        "size", "disabled", "passthru", "ovh%", "coord", "ovh%", "bw base", "bw pass%"
    );
    println!("{}", "-".repeat(106));
    for (i, base) in baseline.iter().enumerate() {
        let get = |m: usize| &results[m].1[i];
        let ovh = |s: &NetpipeSample| (s.latency_ns / base.latency_ns - 1.0) * 100.0;
        let pass = get(1);
        let coord = get(2);
        let bw_overhead = (1.0 - pass.bandwidth_mbps / base.bandwidth_mbps) * 100.0;
        println!(
            "{:>9} | {:>10.0}ns {:>10.0}ns {:>7.1}% | {:>10.0}ns {:>7.1}% | {:>9.1}MB/s {:>7.1}%",
            base.size,
            base.latency_ns,
            pass.latency_ns,
            ovh(pass),
            coord.latency_ns,
            ovh(coord),
            base.bandwidth_mbps,
            bw_overhead,
        );
    }

    // Paper-style summary: small-message latency overhead and large-message
    // bandwidth overhead of the passthrough configuration.
    let small: Vec<usize> = (0..baseline.len()).filter(|i| baseline[*i].size <= 64).collect();
    let large: Vec<usize> = (0..baseline.len())
        .filter(|i| baseline[*i].size >= 256 * 1024)
        .collect();
    let mean =
        |idx: &[usize], f: &dyn Fn(usize) -> f64| idx.iter().map(|i| f(*i)).sum::<f64>() / idx.len() as f64;
    let small_latency_ovh = mean(&small, &|i| {
        (results[1].1[i].latency_ns / baseline[i].latency_ns - 1.0) * 100.0
    });
    let large_latency_ovh = mean(&large, &|i| {
        (results[1].1[i].latency_ns / baseline[i].latency_ns - 1.0) * 100.0
    });
    let bw_ovh = mean(&large, &|i| {
        (1.0 - results[1].1[i].bandwidth_mbps / baseline[i].bandwidth_mbps) * 100.0
    });
    println!("\npaper §7 comparison (passthrough vs disabled):");
    println!("  small-message latency overhead : {small_latency_ovh:+.1}%   (paper: ~3%)");
    println!("  large-message latency overhead : {large_latency_ovh:+.1}%   (paper: ~0%)");
    println!("  large-message bandwidth overhead: {bw_ovh:+.1}%   (paper: ~0%)");
}
