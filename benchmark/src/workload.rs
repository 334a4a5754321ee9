//! The five named workloads.
//!
//! Every workload is the same job life — launch, exchange messages, take
//! checkpoints, lose a rank, recover, finish with a verified answer — so
//! every end-to-end metric is measured on every workload. What differs is
//! the configuration and where the time goes; `why` says which layers a
//! row is there to stress. A phase a row is *not* about runs at a small
//! fixed size (see README.md, "Every metric on every workload").

/// How the job gets its failed ranks back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The job dies; `restarts` whole-job `ompi::restart`s from the last
    /// snapshot, each on a fresh `Runtime`, each run to completion.
    Full {
        source: ompi::RestartSource,
        restarts: u32,
    },
    /// `rounds` times: one node and both its ranks die, survivors stay
    /// live, `MpiJob::restart_ranks` puts the two ranks on a spare node.
    Partial { rounds: u32 },
}

/// One row of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// MCA parameters of the launch (the registry default otherwise).
    pub params: &'static [(&'static str, &'static str)],
    /// Spare nodes on top of the four compute nodes.
    pub spare_nodes: u32,
    /// Logical state per rank.
    pub state_bytes: usize,
    pub dirty_pct: u32,
    pub shared_pct: u32,
    /// Checkpoints per cycle.
    pub checkpoints: u64,
    /// Gated: ranks park at every interval boundary, so each checkpoint
    /// cuts at the same step and every byte count repeats. Ungated: the
    /// next steps are released and the checkpoint fired at once, so it
    /// strikes ranks that are mid-exchange.
    pub gated: bool,
    /// Steps released per checkpoint. A gated row releases one interval;
    /// an ungated row enough steps to outlast the checkpoint's lead-in
    /// (`cycle.cuts_mid_step_pct` in the traced run shows that it does).
    pub steps_per_ckpt: u64,
    pub recovery: Recovery,
    /// Ping-pong batches per cycle (64 B and 1 MiB, `crcp=coord` wrapper on).
    pub msg_batches: u32,
}

pub const NPROCS: u32 = 8;
pub const COMPUTE_NODES: u32 = 4;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "full_stable",
        why: "paper path: crs capture, codec, filem file copy, stable preload; store/replica/msg-log bypassed",
        params: &[
            ("crs", "blcr_sim"),
            ("snapc", "full"),
            ("filem", "rsh_sim"),
            ("crcp", "coord"),
        ],
        spare_nodes: 0,
        state_bytes: MIB,
        dirty_pct: 10,
        shared_pct: 0,
        checkpoints: 16,
        gated: true,
        steps_per_ckpt: crate::app::STEPS_PER_INTERVAL,
        recovery: Recovery::Full { source: ompi::RestartSource::Stable, restarts: 3 },
        msg_batches: 2,
    },
    Workload {
        name: "dedup_store",
        why: "same bytes through the content-addressed path: pool hashing, chunk store insert/refcount, dedup commit/fetch",
        params: &[
            ("crs", "blcr_sim"),
            ("snapc", "full"),
            ("filem", "rsh_sim"),
            ("crcp", "coord"),
            ("crs_incr_enabled", "true"),
            ("crs_incr_chunk_kb", "64"),
            ("filem_dedup_enabled", "true"),
        ],
        spare_nodes: 0,
        state_bytes: MIB,
        dirty_pct: 10,
        shared_pct: 25,
        checkpoints: 6,
        gated: true,
        steps_per_ckpt: crate::app::STEPS_PER_INTERVAL,
        recovery: Recovery::Full { source: ompi::RestartSource::Auto, restarts: 3 },
        msg_batches: 2,
    },
    Workload {
        name: "replica_partial",
        why: "peer memory instead of disk, write-behind instead of blocking commit, O(failed) recovery with survivors live",
        params: &[
            ("filem", "replica"),
            ("filem_replica_factor", "1"),
            ("snapc_early_release", "true"),
            ("crcp_msg_log_enabled", "true"),
            ("orte_spare_nodes", "3"),
        ],
        spare_nodes: 3,
        state_bytes: 256 * KIB,
        dirty_pct: 10,
        shared_pct: 0,
        checkpoints: 6,
        gated: true,
        steps_per_ckpt: crate::app::STEPS_PER_INTERVAL,
        recovery: Recovery::Partial { rounds: 3 },
        msg_batches: 2,
    },
    Workload {
        name: "coord_small",
        why: "tiny state, ungated: bookmark exchange/quiesce, SNAPC/OOB messaging, per-file cost, tracer lock, journal dominate",
        params: &[("journal_enabled", "true")],
        spare_nodes: 0,
        state_bytes: 16 * KIB,
        dirty_pct: 0,
        shared_pct: 0,
        checkpoints: 100,
        gated: false,
        steps_per_ckpt: 32,
        recovery: Recovery::Full { source: ompi::RestartSource::Auto, restarts: 3 },
        msg_batches: 2,
    },
    Workload {
        name: "netpipe_ff",
        why: "paper E1/E2: failure-free ping-pong dominates, so only ompi::pml and the crcp wrapper on the send path matter",
        params: &[],
        spare_nodes: 0,
        state_bytes: 16 * KIB,
        dirty_pct: 0,
        shared_pct: 0,
        checkpoints: 30,
        gated: true,
        steps_per_ckpt: crate::app::STEPS_PER_INTERVAL,
        recovery: Recovery::Full { source: ompi::RestartSource::Auto, restarts: 3 },
        msg_batches: 10,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
