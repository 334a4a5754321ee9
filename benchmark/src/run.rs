//! One run of one workload: cycles for the time budget, then the metrics.
//!
//! An untraced run repeats {messaging phase, cycle} until the budget is
//! spent and reports the end-to-end metrics, each a median over the
//! cycles of that cycle's own median. A traced run spends half its budget
//! on cycles that alternate traced and untraced (their difference is the
//! tracing overhead), pairs the traced cycles' events into spans, then
//! runs every isolated layer probe, and reports the per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use workloads::netpipe::{FtMode, PingPongPair};

use crate::cycle::{run_cycle, CycleSample, Ops};
use crate::layers;
use crate::metrics::Metrics;
use crate::spans;
use crate::stats::{median, percentile};
use crate::workload::Workload;

const MIB: f64 = 1024.0 * 1024.0;
/// Cycles a run makes whatever its budget: medians need a middle.
const MIN_CYCLES: usize = 3;

pub struct RunOutput {
    pub metrics: Metrics,
    pub ops: Ops,
    pub cycles: usize,
    /// First thing that went wrong, if anything did.
    pub error: Option<String>,
}

/// `VmHWM` of this process: the high-water mark of its resident set so far.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What the cycles of a run measured, one entry per cycle.
#[derive(Default)]
struct Collected {
    setup_s: Vec<f64>,
    cold_stall_ms: Vec<f64>,
    stall_ms_p50: Vec<f64>,
    /// Per cycle like the median: a host hiccup lands in one cycle's tail
    /// and the median over cycles drops it. Still the least steady number
    /// here, which is why it is reported with the layers, without a bound.
    stall_ms_p90: Vec<f64>,
    checkpoints: usize,
    ckpt_mib_s: Vec<f64>,
    recover_ms_p50: Vec<f64>,
    recoveries: usize,
    cycle_s: Vec<f64>,
    traced_cycle_s: Vec<f64>,
    bytes_per_state_byte: Vec<f64>,
    rtt_us: Vec<f64>,
    msg_mib_s: Vec<f64>,
    span_cycles: Vec<Vec<spans::Span>>,
    gather_sim_ms: Vec<f64>,
    fabric_bytes: Vec<f64>,
    fabric_msgs: Vec<f64>,
    cuts_mid_step: usize,
    /// `VmHWM` when the last of the first `MIN_CYCLES` cycles ended.
    peak_rss_mib: f64,
    ops: Ops,
}

impl Collected {
    fn add(&mut self, pair_build_s: f64, msg: layers::ompi::Messaging, mut c: CycleSample) {
        self.setup_s.push(pair_build_s + c.setup_s);
        if self.setup_s.len() == MIN_CYCLES {
            // Read after the same number of cycles in every run, or a run
            // that fits more cycles into its budget would report more.
            self.peak_rss_mib = peak_rss_mib();
        }
        self.cold_stall_ms.push(c.cold_stall_ms);
        self.stall_ms_p50.push(median(&c.stall_ms));
        self.stall_ms_p90.push(percentile(&c.stall_ms, 90.0));
        self.checkpoints += c.stall_ms.len();
        self.ckpt_mib_s
            .push(c.state_bytes_total / MIB / (median(&c.commit_ms) / 1e3));
        self.recover_ms_p50.push(median(&c.recover_ms));
        self.recoveries += c.recover_ms.len();
        self.bytes_per_state_byte
            .push(median(&c.stable_bytes) / c.state_bytes_total);
        self.rtt_us.push(median(&msg.rtt_us));
        self.msg_mib_s.push(median(&msg.mib_s));
        self.ops.attempted += c.ops.attempted;
        self.ops.failed += c.ops.failed;
        match c.trace.take() {
            Some(trace) => {
                self.traced_cycle_s.push(c.cycle_s);
                self.span_cycles.push(spans::pair(&trace));
                self.gather_sim_ms.extend(trace.gather_sim_ms);
                self.fabric_bytes.extend(trace.fabric_bytes);
                self.fabric_msgs.extend(trace.fabric_msgs);
                self.cuts_mid_step += trace.cuts_mid_step;
            }
            None => self.cycle_s.push(c.cycle_s),
        }
    }

    fn end_to_end(&self, out: &mut Metrics) {
        let n = self.setup_s.len();
        out.push("setup_s", median(&self.setup_s), n);
        out.push(
            "ckpt_stall_ms_p50",
            median(&self.stall_ms_p50),
            self.checkpoints,
        );
        out.push("ckpt_mib_s", median(&self.ckpt_mib_s), self.checkpoints);
        out.push(
            "recover_ms_p50",
            median(&self.recover_ms_p50),
            self.recoveries,
        );
        out.push("cycle_s", median(&self.cycle_s), self.cycle_s.len());
        out.push(
            "stable_bytes_per_state_byte",
            median(&self.bytes_per_state_byte),
            n,
        );
        out.push("rtt_us_p50", median(&self.rtt_us), n);
        out.push("msg_mib_s", median(&self.msg_mib_s), n);
        out.push("peak_rss_mib", self.peak_rss_mib, 1);
    }

    fn per_layer(&self, out: &mut Metrics) {
        let all: Vec<&spans::Span> = self.span_cycles.iter().flatten().collect();
        let windows = all.iter().filter(|s| s.parent.is_none()).count();
        for (root, phases) in [
            ("checkpoint", spans::CHECKPOINT_PHASES),
            ("recovery", spans::RECOVERY_PHASES),
        ] {
            for (phase, metric) in phases {
                let ms: Vec<f64> = self
                    .span_cycles
                    .iter()
                    .flat_map(|c| spans::phase_ms(c, root, phase))
                    .collect();
                out.push(metric, median(&ms), ms.len());
            }
        }
        out.push(
            "ckpt_stall_ms_p90",
            median(&self.stall_ms_p90),
            self.checkpoints,
        );
        out.push(
            "ckpt_stall_cold_ms",
            median(&self.cold_stall_ms),
            self.cold_stall_ms.len(),
        );
        let overhead =
            100.0 * (median(&self.traced_cycle_s) - median(&self.cycle_s)) / median(&self.cycle_s);
        out.push("trace.overhead_pct", overhead, self.traced_cycle_s.len());
        out.push("trace.spans", all.len() as f64, windows);
        let n = self.gather_sim_ms.len();
        out.push("snapc.gather_sim_ms", median(&self.gather_sim_ms), n);
        out.push(
            "netsim.fabric_bytes_per_interval",
            median(&self.fabric_bytes),
            n,
        );
        out.push(
            "netsim.fabric_msgs_per_interval",
            median(&self.fabric_msgs),
            n,
        );
        out.push(
            "cycle.cuts_mid_step_pct",
            100.0 * self.cuts_mid_step as f64 / n.max(1) as f64,
            n,
        );
        let failed_pct = 100.0 * self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        out.push("failed_ops_pct", failed_pct, self.ops.attempted as usize);
    }
}

/// Where a run keeps its files: directories `run<pid>-<name>` directly
/// under `benchmark/out`, each removed after use and all of them on exit.
///
/// Directly under, because `out` is marked as a top of directory
/// hierarchies (`main::out_dir`), which makes ext4 place each of its
/// children in a block group of its own choosing instead of next to its
/// siblings. The reference host's ext4 has no journal, and in that mode an
/// inode allocation steps over every inode deleted in the group within the
/// last minutes; a cycle that shared a group with its predecessors' deleted
/// trees ran up to 2.5 times slower than the first one, and every run slower
/// than the run before.
struct Scratch {
    out_dir: PathBuf,
    prefix: String,
}

impl Scratch {
    fn new(out_dir: &Path) -> Self {
        Scratch {
            out_dir: out_dir.to_path_buf(),
            prefix: format!("run{}-", std::process::id()),
        }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{}{name}", self.prefix))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.out_dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(&self.prefix)
            {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Run `w` for about `seconds` and report its metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> RunOutput {
    let started = Instant::now();
    let mut got = Collected::default();
    let mut error = None;
    let scratch = Scratch::new(out_dir);
    // A traced run keeps the second half of its budget for the probes,
    // and needs two cycles of either kind for the overhead.
    let (budget, min_cycles) = if traced {
        (seconds / 2.0, MIN_CYCLES + 1)
    } else {
        (seconds, MIN_CYCLES)
    };
    let mut cycles = 0usize;
    loop {
        // Stop when one more cycle of the usual length would overrun.
        let mean_cycle = started.elapsed().as_secs_f64() / cycles.max(1) as f64;
        if cycles >= min_cycles && started.elapsed().as_secs_f64() + mean_cycle > budget {
            break;
        }
        // Each cycle draws its own inputs from the run's seed.
        let cycle_seed = crate::app::mix(seed ^ (cycles as u64) << 48);
        let t = Instant::now();
        let pair = PingPongPair::new(FtMode::Coord);
        let pair_build_s = t.elapsed().as_secs_f64();
        let msg = layers::ompi::messaging_phase(&pair, w.msg_batches);
        drop(pair);
        let step = msg.and_then(|msg| {
            // Traced and untraced cycles alternate in a traced run.
            let trace_this = traced && cycles.is_multiple_of(2);
            run_cycle(
                w,
                cycle_seed,
                &scratch.dir(&format!("cycle{cycles}")),
                trace_this,
            )
            .map(|c| (msg, c))
        });
        cycles += 1;
        match step {
            Ok((msg, cycle)) => got.add(pair_build_s, msg, cycle),
            Err(e) => {
                got.ops.attempted += 1;
                got.ops.failed += 1;
                error = Some(e);
                break;
            }
        }
    }

    let mut metrics = Metrics::default();
    if traced {
        got.per_layer(&mut metrics);
        if let Err(e) = layers::probe_all(seed, &scratch.dir("probes"), &mut metrics) {
            got.ops.attempted += 1;
            got.ops.failed += 1;
            error.get_or_insert(e);
        }
        let file = out_dir.join(format!("trace-{}.json", w.name));
        let doc = spans::to_json(w.name, seed, &got.span_cycles).render();
        if let Err(e) = std::fs::write(&file, doc) {
            error.get_or_insert(format!("{}: {e}", file.display()));
        }
    } else {
        got.end_to_end(&mut metrics);
    }
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        error.get_or_insert(format!("metric {} has no value", bad.name));
    }
    RunOutput {
        metrics,
        ops: got.ops,
        cycles,
        error,
    }
}
