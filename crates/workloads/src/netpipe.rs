//! NetPIPE-style ping-pong harness (paper §7).
//!
//! The paper's evaluation measures the latency and bandwidth overhead of
//! the checkpoint/restart infrastructure: NetPIPE over Open MPI with the
//! interposition layers active (passthrough components) versus the plain
//! build. This module reproduces the measurement: two ranks exchange
//! messages of increasing size over the PML, with the CRCP wrapper either
//! absent (baseline) or installed (the `none` passthrough or a real
//! protocol), and reports wall-clock half-round-trip latency and
//! bandwidth.

use std::sync::Arc;
use std::time::Instant;

use cr_core::Tracer;
use netsim::{Fabric, LinkSpec, NodeId, Topology};
use ompi::crcp::{CoordCrcp, CrcpComponent, NoneCrcp};
use ompi::pml::PmlShared;
use ompi::MpiError;
use opal::SafePointGate;

/// Which CRCP configuration to interpose on the PML.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// No interposition at all: the infrastructure-disabled baseline.
    Disabled,
    /// Interposition installed with the passthrough component (the
    /// paper's measured configuration).
    Passthrough,
    /// The coordinated bookmark protocol (failure-free path).
    Coord,
}

impl FtMode {
    /// All modes, for sweep harnesses.
    pub const ALL: [FtMode; 3] = [FtMode::Disabled, FtMode::Passthrough, FtMode::Coord];

    /// Display label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            FtMode::Disabled => "disabled",
            FtMode::Passthrough => "passthrough",
            FtMode::Coord => "coord",
        }
    }

    fn component(&self, tracer: &Tracer) -> Option<Arc<dyn CrcpComponent>> {
        match self {
            FtMode::Disabled => None,
            FtMode::Passthrough => Some(Arc::new(NoneCrcp)),
            FtMode::Coord => Some(Arc::new(CoordCrcp::new(tracer.clone()))),
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetpipeSample {
    /// Message size in bytes.
    pub size: usize,
    /// Round trips measured.
    pub reps: u32,
    /// Mean one-way latency in nanoseconds (half round trip).
    pub latency_ns: f64,
    /// Throughput in MB/s implied by the one-way latency.
    pub bandwidth_mbps: f64,
}

/// Build the standard NetPIPE-ish size ladder: 1 B .. `max` doubling.
pub fn size_ladder(max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut s = 1usize;
    while s <= max {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// A connected ping-pong pair over a fresh two-node fabric.
pub struct PingPongPair {
    /// Rank 0's PML.
    pub a: Arc<PmlShared>,
    /// Rank 1's PML.
    pub b: Arc<PmlShared>,
}

impl PingPongPair {
    /// Build the pair with the given fault-tolerance mode.
    pub fn new(mode: FtMode) -> Self {
        let tracer = Tracer::new();
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let ep_a = fabric.register(NodeId(0));
        let ep_b = fabric.register(NodeId(1));
        let ids = vec![ep_a.id(), ep_b.id()];
        let a = PmlShared::new(
            0,
            2,
            ep_a,
            ids.clone(),
            Arc::new(SafePointGate::new()),
            tracer.clone(),
        );
        let b = PmlShared::new(
            1,
            2,
            ep_b,
            ids,
            Arc::new(SafePointGate::new()),
            tracer.clone(),
        );
        a.set_crcp(mode.component(&tracer));
        b.set_crcp(mode.component(&tracer));
        PingPongPair { a, b }
    }

    /// Measure one message size: `reps` round trips, returning the mean
    /// one-way latency. The echo side runs on a second thread, exactly
    /// like NetPIPE's two processes.
    pub fn measure(&self, size: usize, reps: u32) -> Result<NetpipeSample, MpiError> {
        let payload = vec![0xA5u8; size];
        let b = Arc::clone(&self.b);
        let echo = std::thread::spawn(move || -> Result<(), MpiError> {
            for _ in 0..reps {
                let frame = b.recv(0, Some(0), Some(1))?;
                b.send(0, 0, 2, &frame.payload)?;
            }
            Ok(())
        });

        let start = Instant::now();
        for _ in 0..reps {
            self.a.send(0, 1, 1, &payload)?;
            let back = self.a.recv(0, Some(1), Some(2))?;
            debug_assert_eq!(back.payload.len(), size);
        }
        let elapsed = start.elapsed();
        echo.join().expect("echo thread")?;

        // Reset step logs so long sweeps do not accumulate unbounded
        // replay records (we never checkpoint inside the sweep).
        self.a.begin_step();
        self.b.begin_step();

        let latency_ns = elapsed.as_nanos() as f64 / f64::from(reps) / 2.0;
        let bandwidth_mbps = if latency_ns > 0.0 {
            (size as f64 / (latency_ns / 1e9)) / (1024.0 * 1024.0)
        } else {
            0.0
        };
        Ok(NetpipeSample {
            size,
            reps,
            latency_ns,
            bandwidth_mbps,
        })
    }
}

/// Measure every mode at every size, interleaved, discarding warm-up
/// passes: per size, all modes are sampled back to back so allocator and
/// scheduler warm-up costs do not bias whichever mode runs first (the
/// artifact a naive mode-by-mode sweep produces). Returns the final
/// pass's samples per mode, in [`FtMode::ALL`] order.
pub fn run_matrix(
    sizes: &[usize],
    reps: u32,
    passes: u32,
) -> Result<Vec<(FtMode, Vec<NetpipeSample>)>, MpiError> {
    assert!(passes >= 1);
    let pairs: Vec<(FtMode, PingPongPair)> = FtMode::ALL
        .into_iter()
        .map(|m| (m, PingPongPair::new(m)))
        .collect();
    // Touch the largest payload everywhere once (page faults, growth).
    let max = sizes.iter().copied().max().unwrap_or(1);
    for (_, pair) in &pairs {
        pair.measure(max, 4)?;
    }
    let mut last: Vec<(FtMode, Vec<NetpipeSample>)> =
        FtMode::ALL.into_iter().map(|m| (m, Vec::new())).collect();
    for pass in 0..passes {
        for slot in &mut last {
            slot.1.clear();
        }
        let _ = pass;
        for &size in sizes {
            for (i, (_, pair)) in pairs.iter().enumerate() {
                last[i].1.push(pair.measure(size, reps)?);
            }
        }
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles() {
        assert_eq!(size_ladder(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn pingpong_measures_every_mode() {
        for mode in FtMode::ALL {
            let pair = PingPongPair::new(mode);
            let sample = pair.measure(64, 50).unwrap();
            assert!(sample.latency_ns > 0.0, "{mode:?}");
            assert!(sample.bandwidth_mbps > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn larger_messages_have_higher_bandwidth() {
        let pair = PingPongPair::new(FtMode::Disabled);
        let small = pair.measure(16, 200).unwrap();
        let large = pair.measure(65536, 200).unwrap();
        assert!(large.bandwidth_mbps > small.bandwidth_mbps);
    }
}
