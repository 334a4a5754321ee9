//! Named measurements, each labelled with its unit and the clock it is on.

use crate::stats::{obj, Json};

/// Which clock a number is on. `Wall` numbers vary from run to run and
/// carry a regression bound; `Sim` (netsim simulated time) and `Count`
/// numbers are arithmetic on the program's inputs and repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Sim,
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

use Clock::{Count, Sim, Wall};

/// Every metric the benchmark can report: name, unit, clock. The first
/// block is `BENCHMARK.json`'s `end_to_end`, the rest its `per_layer`;
/// `--set` refuses to run when the two files disagree.
const REGISTRY: &[(&str, &str, Clock)] = &[
    ("setup_s", "s", Wall),
    ("ckpt_stall_ms_p50", "ms", Wall),
    ("ckpt_mib_s", "MiB/s", Wall),
    ("recover_ms_p50", "ms", Wall),
    ("cycle_s", "s", Wall),
    ("stable_bytes_per_state_byte", "ratio", Count),
    ("rtt_us_p50", "us", Wall),
    ("msg_mib_s", "MiB/s", Wall),
    ("peak_rss_mib", "MiB", Wall),
    // Phases paired from the runtime's own trace events (spans.rs).
    ("phase.quiesce_ms", "ms", Wall),
    ("phase.capture_ms", "ms", Wall),
    ("phase.gather_ms", "ms", Wall),
    ("phase.commit_ms", "ms", Wall),
    ("phase.unattributed_ms", "ms", Wall),
    ("phase.fetch_ms", "ms", Wall),
    ("phase.reassemble_ms", "ms", Wall),
    ("phase.relaunch_ms", "ms", Wall),
    ("phase.replay_ms", "ms", Wall),
    ("phase.recover_unattributed_ms", "ms", Wall),
    ("ckpt_stall_ms_p90", "ms", Wall),
    ("ckpt_stall_cold_ms", "ms", Wall),
    ("trace.overhead_pct", "%", Wall),
    ("trace.spans", "count", Count),
    ("snapc.gather_sim_ms", "ms", Sim),
    ("netsim.fabric_bytes_per_interval", "B", Count),
    ("netsim.fabric_msgs_per_interval", "count", Count),
    ("cycle.cuts_mid_step_pct", "%", Wall),
    ("failed_ops_pct", "%", Count),
    // Isolated layer probes (layers/*.rs).
    ("codec.encode_mib_s", "MiB/s", Wall),
    ("codec.decode_mib_s", "MiB/s", Wall),
    ("opal.pool.hash_mib_s.w1", "MiB/s", Wall),
    ("opal.pool.hash_mib_s.wN", "MiB/s", Wall),
    ("opal.pool.workers_n", "count", Count),
    ("host.cores", "count", Count),
    ("opal.store.insert_new_mib_s", "MiB/s", Wall),
    ("opal.store.insert_dup_mib_s", "MiB/s", Wall),
    ("opal.store.get_mib_s", "MiB/s", Wall),
    ("opal.store.files_per_mib", "files/MiB", Count),
    ("opal.store.sweep_ms", "ms", Wall),
    ("opal.store.incref_us_per_chunk.1k", "us", Wall),
    ("opal.store.incref_us_per_chunk.16k", "us", Wall),
    ("orte.store.fetch_mib_s", "MiB/s", Wall),
    ("orte.replica.put_mib_s", "MiB/s", Wall),
    ("orte.replica.fetch_mib_s", "MiB/s", Wall),
    ("orte.replica.fetch_sim_ms", "ms", Sim),
    ("ompi.pml.rtt_base_us", "us", Wall),
    ("ompi.crcp.wrapper_overhead_pct", "%", Wall),
    ("ompi.crcp.bw_overhead_pct", "%", Wall),
    ("ompi.crcp.rtt_us_p99", "us", Wall),
    ("core.trace.record_ns", "ns", Wall),
    ("core.trace.record_contended_ns", "ns", Wall),
    ("journal.append_us", "us", Wall),
];

fn lookup(name: &str) -> (&'static str, Clock) {
    let entry = REGISTRY.iter().find(|(n, _, _)| *n == name);
    let (_, unit, clock) = entry.unwrap_or_else(|| panic!("metric {name} is not in the registry"));
    (unit, *clock)
}

/// The clock metric `name` is on.
pub fn clock_of(name: &str) -> Clock {
    lookup(name).1
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    /// Samples behind `value` (a median unless the name says otherwise).
    pub samples: usize,
}

/// The metrics of one run, in reporting order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        let (unit, clock) = lookup(name);
        self.0.push(Metric {
            name,
            unit,
            clock,
            value,
            samples,
        });
    }

    /// `{"name": {"value": .., "unit": ".."}}`, the driver's shape.
    pub fn to_json(&self) -> Json {
        obj(self.0.iter().map(|m| {
            let entry = obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name, entry)
        }))
    }
}
