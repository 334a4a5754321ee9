//! The trace-event registry: every phase string any layer records, in
//! one table.
//!
//! The paper's coordination orderings (Figures 1 and 2) are asserted by
//! tests and benchmarks via [`crate::Tracer`] phase strings, so a typo'd
//! phase silently breaks an assertion instead of failing loudly.  This
//! table is the registration site, exactly like
//! `mca::registry::KNOWN_PARAMS` is for MCA keys: [`KNOWN_TRACE_EVENTS`]
//! describes every phase, and the `cr-lint` `trace-keys` rule enforces
//! from the other side that every string literal passed to
//! `Tracer::record` in non-test code appears here.  When a component
//! records a new phase, add its row here in the same change.

/// Descriptor of one registered trace-event phase.
#[derive(Debug, Clone, Copy)]
pub struct TraceEventDef {
    /// Phase string as passed to `Tracer::record`.
    pub phase: &'static str,
    /// One-line description of when the event fires.
    pub help: &'static str,
}

/// Every trace-event phase the workspace records in production code.
///
/// Kept sorted by phase so drift is easy to spot in review; the unit
/// tests below enforce ordering and uniqueness.
pub const KNOWN_TRACE_EVENTS: &[TraceEventDef] = &[
    TraceEventDef {
        phase: "crcp.replay.done",
        help: "partial restart queued every survivor's backlog before relaunching the ranks",
    },
    TraceEventDef {
        phase: "crcp.replay.gc",
        help: "sender-side message log garbage-collected at global commit",
    },
    TraceEventDef {
        phase: "crcp.replay.resent",
        help: "survivor replayed its logged backlog to a restarted rank",
    },
    TraceEventDef {
        phase: "filem.drain",
        help: "write-behind gather drained for one interval",
    },
    TraceEventDef {
        phase: "filem.drain.error",
        help: "write-behind drain hit a transfer error",
    },
    TraceEventDef {
        phase: "filem.gather",
        help: "file management gathered local snapshots to stable storage",
    },
    TraceEventDef {
        phase: "filem.gather.error",
        help: "stable-storage gather failed (node death or I/O error)",
    },
    TraceEventDef {
        phase: "filem.local.remove",
        help: "local scratch snapshot removed after cleanup",
    },
    TraceEventDef {
        phase: "filem.preload",
        help: "restart read N local snapshots from stable storage, in place",
    },
    TraceEventDef {
        phase: "filem.replica.expire",
        help: "in-memory replica dropped when its interval was retired",
    },
    TraceEventDef {
        phase: "filem.replica.fetch",
        help: "restart fetched an image from a surviving replica holder",
    },
    TraceEventDef {
        phase: "filem.replica.preload",
        help: "restart read N local snapshots from peer memory, in place",
    },
    TraceEventDef {
        phase: "filem.replica.put",
        help: "checkpoint image pushed to its ring-successor holders",
    },
    TraceEventDef {
        phase: "journal.open",
        help: "durable FT event journal opened (all later records are chained into it)",
    },
    TraceEventDef {
        phase: "ompi.crcp.aborted",
        help: "rank's coordination round ended without a cut (a peer refused, aborted or died, a bookmark overran, or this rank refused the order)",
    },
    TraceEventDef {
        phase: "ompi.crcp.coordinate",
        help: "CRCP coordination (bookmark exchange + drain) started",
    },
    TraceEventDef {
        phase: "ompi.crcp.quiesced",
        help: "rank left coordination: its drain verified and every peer's Quiesced arrived (the exit barrier)",
    },
    TraceEventDef {
        phase: "ompi.crcp.resume",
        help: "CRCP handled the post-checkpoint state (continue, restart or error)",
    },
    TraceEventDef {
        phase: "ompi.init.restart",
        help: "rank-level state restored during MPI re-init",
    },
    TraceEventDef {
        phase: "ompi.pml.ft_event",
        help: "PML handled a fault-tolerance event",
    },
    TraceEventDef {
        phase: "ompi.restart",
        help: "job-level restart from a global snapshot reference",
    },
    TraceEventDef {
        phase: "ompi.sync_ckpt.done",
        help: "synchronous checkpoint request completed",
    },
    TraceEventDef {
        phase: "ompi.sync_ckpt.failed",
        help: "synchronous checkpoint request failed",
    },
    TraceEventDef {
        phase: "ompi.sync_ckpt.request",
        help: "application requested a synchronous checkpoint",
    },
    TraceEventDef {
        phase: "opal.crs.checkpoint",
        help: "local checkpoint/restart system captured process state",
    },
    TraceEventDef {
        phase: "opal.crs.local_commit",
        help: "captured image committed to local scratch",
    },
    TraceEventDef {
        phase: "opal.crs.post_event_error",
        help: "a CRS component's ft_event handler returned an error",
    },
    TraceEventDef {
        phase: "opal.hash.pool",
        help: "parallel hash pool verified a commit's chunk digests",
    },
    TraceEventDef {
        phase: "opal.notify.complete",
        help: "checkpoint notification pipeline completed",
    },
    TraceEventDef {
        phase: "opal.notify.parked",
        help: "application thread parked awaiting the checkpoint",
    },
    TraceEventDef {
        phase: "opal.notify.request",
        help: "checkpoint notification delivered to the process",
    },
    TraceEventDef {
        phase: "orte.daemon.kill",
        help: "runtime killed a daemon (fault injection or teardown)",
    },
    TraceEventDef {
        phase: "orte.daemon.spawn",
        help: "runtime spawned a daemon",
    },
    TraceEventDef {
        phase: "orte.oob.ft_event",
        help: "out-of-band channel handled a fault-tolerance event",
    },
    TraceEventDef {
        phase: "orte.spare.claim",
        help: "partial restart claimed a node from the spare pool",
    },
    TraceEventDef {
        phase: "orte.spare.register",
        help: "node registered into the partial-restart spare pool",
    },
    TraceEventDef {
        phase: "plm.launch",
        help: "process lifecycle manager launched (or relaunched) a job",
    },
    TraceEventDef {
        phase: "snapc.app.done",
        help: "application rank reported its local checkpoint done",
    },
    TraceEventDef {
        phase: "snapc.global.global_commit",
        help: "interval promoted to GlobalCommitted after the gather drained",
    },
    TraceEventDef {
        phase: "snapc.global.initiate",
        help: "global coordinator initiated a checkpoint interval",
    },
    TraceEventDef {
        phase: "snapc.global.local_commit",
        help: "interval locally committed; write-behind gather in flight",
    },
    TraceEventDef {
        phase: "snapc.global.local_done",
        help: "global coordinator saw every local coordinator finish",
    },
    TraceEventDef {
        phase: "snapc.global.reference_returned",
        help: "global snapshot reference handed back to the requester",
    },
    TraceEventDef {
        phase: "snapc.global.request",
        help: "checkpoint request accepted by the global coordinator",
    },
    TraceEventDef {
        phase: "snapc.local.done",
        help: "local coordinator finished its node's checkpoints",
    },
    TraceEventDef {
        phase: "snapc.local.initiate",
        help: "local coordinator started its node's checkpoints",
    },
    TraceEventDef {
        phase: "snapc.tree.forward",
        help: "tree coordinator forwarded the request to a child daemon",
    },
    TraceEventDef {
        phase: "store.chunk.fetch",
        help: "content-addressed chunks served from a daemon's peer-memory tier",
    },
    TraceEventDef {
        phase: "store.chunk.hit",
        help: "dedup commit found manifest chunks already in the stable store",
    },
    TraceEventDef {
        phase: "store.chunk.put",
        help: "fresh chunks pushed into peer-memory chunk tiers at dedup commit",
    },
    TraceEventDef {
        phase: "store.commit",
        help: "dedup interval committed through the chunk store (with dedup ratio)",
    },
    TraceEventDef {
        phase: "store.gc.sweep",
        help: "refcount GC swept a batch of count-zero chunks at interval retirement",
    },
    TraceEventDef {
        phase: "store.restart.fetch",
        help: "restart assembled all its images from one batch of manifest chunks (per-tier counts)",
    },
    TraceEventDef {
        phase: "supervisor.incarnation",
        help: "supervisor recorded a new process incarnation",
    },
    TraceEventDef {
        phase: "supervisor.partial_recover",
        help: "supervisor restored only the failed ranks in place (partial restart)",
    },
    TraceEventDef {
        phase: "supervisor.partial_refused",
        help: "partial restart was refused; supervisor fell back to a full relaunch",
    },
    TraceEventDef {
        phase: "supervisor.recover",
        help: "supervisor recovered a failed process from a snapshot",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for pair in KNOWN_TRACE_EVENTS.windows(2) {
            if let [a, b] = pair {
                assert!(a.phase < b.phase, "{} must sort before {}", a.phase, b.phase);
            }
        }
    }

    #[test]
    fn phases_are_dotted_lowercase() {
        for def in KNOWN_TRACE_EVENTS {
            assert!(def.phase.contains('.'), "{} has no namespace dot", def.phase);
            assert!(
                def.phase
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{} has unexpected characters",
                def.phase
            );
            assert!(!def.help.is_empty(), "{} needs help text", def.phase);
        }
    }
}
