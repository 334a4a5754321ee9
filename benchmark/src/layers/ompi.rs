//! `ompi::pml` and the `ompi::crcp` wrapper on the send path: NetPIPE-style
//! ping-pong over `workloads::netpipe::PingPongPair` (paper section 7).

use std::sync::Arc;
use std::time::Instant;

use workloads::netpipe::{FtMode, PingPongPair};

use crate::metrics::Metrics;
use crate::stats::{median, percentile};

pub const SMALL_BYTES: usize = 64;
pub const LARGE_BYTES: usize = 1024 * 1024;
/// Round trips per batch; a batch yields one mean.
pub const SMALL_ROUND_TRIPS: u32 = 2000;
pub const LARGE_ROUND_TRIPS: u32 = 30;

/// Mean round trip of one batch, in microseconds.
fn batch_rtt_us(pair: &PingPongPair, bytes: usize, round_trips: u32) -> Result<f64, String> {
    let sample = pair
        .measure(bytes, round_trips)
        .map_err(|e| format!("ping-pong: {e}"))?;
    Ok(2.0 * sample.latency_ns / 1e3)
}

/// Ping-pong bandwidth of a batch mean: payload over the one-way time.
fn mib_s(bytes: usize, rtt_us: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (rtt_us / 2.0 / 1e6)
}

/// What the messaging phase of one cycle measured, wrapper on.
pub struct Messaging {
    /// 64 B round trip, one mean per batch, microseconds.
    pub rtt_us: Vec<f64>,
    /// 1 MiB ping-pong bandwidth, one mean per batch.
    pub mib_s: Vec<f64>,
}

/// The failure-free messaging phase: `batches` alternating small and large
/// batches over a pair with the `coord` wrapper interposed.
pub fn messaging_phase(pair: &PingPongPair, batches: u32) -> Result<Messaging, String> {
    let mut out = Messaging {
        rtt_us: Vec::new(),
        mib_s: Vec::new(),
    };
    for _ in 0..batches {
        out.rtt_us
            .push(batch_rtt_us(pair, SMALL_BYTES, SMALL_ROUND_TRIPS)?);
        out.mib_s.push(mib_s(
            LARGE_BYTES,
            batch_rtt_us(pair, LARGE_BYTES, LARGE_ROUND_TRIPS)?,
        ));
    }
    Ok(out)
}

/// Individually timed 64 B round trips, for the tail a batch mean hides.
fn single_rtts_us(pair: &PingPongPair, round_trips: u32) -> Result<Vec<f64>, String> {
    let payload = vec![0xA5u8; SMALL_BYTES];
    let b = Arc::clone(&pair.b);
    let echo = std::thread::spawn(move || -> Result<(), ompi::MpiError> {
        for _ in 0..round_trips {
            let frame = b.recv(0, Some(0), Some(1))?;
            b.send(0, 0, 2, &frame.payload)?;
        }
        Ok(())
    });
    let mut samples = Vec::with_capacity(round_trips as usize);
    let mut failure = None;
    for _ in 0..round_trips {
        let t = Instant::now();
        let done = pair
            .a
            .send(0, 1, 1, &payload)
            .and_then(|()| pair.a.recv(0, Some(1), Some(2)));
        if let Err(e) = done {
            failure = Some(e.to_string());
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let echoed = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    // As `PingPongPair::measure` does: no checkpoint will ever consume
    // the op logs, so drop them.
    pair.a.begin_step();
    pair.b.begin_step();
    match (failure, echoed) {
        (Some(e), _) => Err(e),
        (None, Err(e)) => Err(e.to_string()),
        (None, Ok(())) => Ok(samples),
    }
}

/// Wrapper on against wrapper off, interleaved batch by batch so that
/// host drift hits both alike. The ratios are the paper's section 7
/// claim (about 3 % latency, about 0 % bandwidth); a ratio of two
/// microsecond-scale timings does not repeat within a tenth on a shared
/// host, which is why these stay layer numbers without a bound.
pub fn probe(out: &mut Metrics) -> Result<(), String> {
    const BATCHES: usize = 10;
    let coord = PingPongPair::new(FtMode::Coord);
    let disabled = PingPongPair::new(FtMode::Disabled);
    // Touch the large payload once on each pair (page faults, growth).
    batch_rtt_us(&coord, LARGE_BYTES, 2)?;
    batch_rtt_us(&disabled, LARGE_BYTES, 2)?;
    let (mut small_on, mut small_off, mut large_on, mut large_off) =
        (vec![], vec![], vec![], vec![]);
    for _ in 0..BATCHES {
        small_off.push(batch_rtt_us(&disabled, SMALL_BYTES, SMALL_ROUND_TRIPS)?);
        small_on.push(batch_rtt_us(&coord, SMALL_BYTES, SMALL_ROUND_TRIPS)?);
        large_off.push(batch_rtt_us(&disabled, LARGE_BYTES, LARGE_ROUND_TRIPS)?);
        large_on.push(batch_rtt_us(&coord, LARGE_BYTES, LARGE_ROUND_TRIPS)?);
    }
    let (base, on) = (median(&small_off), median(&small_on));
    out.push("ompi.pml.rtt_base_us", base, BATCHES);
    out.push(
        "ompi.crcp.wrapper_overhead_pct",
        100.0 * (on - base) / base,
        BATCHES,
    );
    let (bw_off, bw_on) = (
        mib_s(LARGE_BYTES, median(&large_off)),
        mib_s(LARGE_BYTES, median(&large_on)),
    );
    out.push(
        "ompi.crcp.bw_overhead_pct",
        100.0 * (bw_off - bw_on) / bw_off,
        BATCHES,
    );
    let singles = single_rtts_us(&coord, 5 * SMALL_ROUND_TRIPS)?;
    out.push(
        "ompi.crcp.rtt_us_p99",
        percentile(&singles, 99.0),
        singles.len(),
    );
    Ok(())
}
