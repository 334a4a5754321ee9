//! The MCA parameter registry: every key any component reads, in one table.
//!
//! Open MPI registers each parameter with `mca_base_param_reg_*` so that
//! `ompi_info` can enumerate the full configuration surface and a typo'd
//! `--mca` key is distinguishable from a real one. This module is the
//! reproduction's registration site: [`KNOWN_PARAMS`] describes every key,
//! [`register_defaults`] seeds a parameter store with the built-in default
//! values (at [`crate::ParamSource::Default`] strength, so any file /
//! environment / command-line / API setting still wins).
//!
//! The `cr-lint` static analysis enforces the discipline from both sides
//! (rule `mca-keys`): any string key passed to a typed accessor in non-test
//! code must appear in this table, and any row here with a built-in
//! default must be read by some non-test accessor. When adding a parameter
//! to a component, add its row here in the same change; when deleting the
//! last reader, delete the row.

use crate::params::McaParams;

/// Descriptor of one registered MCA parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamDef {
    /// Parameter key as given to `--mca <key> <value>`.
    pub key: &'static str,
    /// Built-in default. `None` for keys that are only meaningful when the
    /// user (or the runtime itself) sets them explicitly — selection
    /// directives default to empty, which means "highest priority wins",
    /// and informational keys like `np` are written by the launcher.
    pub default: Option<&'static str>,
    /// One-line description shown by `ompi-info`.
    pub help: &'static str,
}

/// Every MCA parameter the workspace reads or writes.
///
/// Defaults here MUST match the in-code fallback of the reading site:
/// registration only makes the default visible, it must not change
/// behaviour.
pub const KNOWN_PARAMS: &[ParamDef] = &[
    // Framework selection directives (empty = priority-based selection;
    // comma list = preference order; leading `^` = exclusion list).
    ParamDef {
        key: "crs",
        default: None,
        help: "local checkpoint/restart system selection",
    },
    ParamDef {
        key: "crcp",
        default: None,
        help: "checkpoint/restart coordination protocol selection",
    },
    ParamDef {
        key: "snapc",
        default: None,
        help: "snapshot coordinator selection",
    },
    ParamDef {
        key: "filem",
        default: None,
        help: "file management component selection",
    },
    ParamDef {
        key: "plm",
        default: None,
        help: "process launch component selection",
    },
    // OMPI layer.
    ParamDef {
        key: "ft_cr_enabled",
        default: Some("true"),
        help: "interpose the C/R wrapper on the PML (paper's overhead baseline: false)",
    },
    ParamDef {
        key: "crcp_msg_log_enabled",
        default: Some("false"),
        help: "sender-side message log between commits (required for partial restart replay)",
    },
    ParamDef {
        key: "crcp_msg_log_cap_kb",
        default: Some("256"),
        help: "sender-side message log: per-rank payload cap in KiB (overflow disables partial restart)",
    },
    ParamDef {
        key: "opal_progress",
        default: Some("false"),
        help: "run the OPAL progress engine thread",
    },
    // CRS component tunables.
    ParamDef {
        key: "crs_blcr_sim_exclude",
        default: Some(""),
        help: "memory exclusion hints: comma-separated image sections to omit",
    },
    ParamDef {
        key: "crs_blcr_sim_fail_every",
        default: Some("0"),
        help: "fault injection: fail every Nth local checkpoint (0 = never)",
    },
    ParamDef {
        key: "crs_incr_chunk_kb",
        default: Some("4"),
        help: "dedup store: chunk size in KiB of the content-addressed manifests",
    },
    // OPAL data-path pool tunables.
    ParamDef {
        key: "opal_hash_workers",
        default: Some("4"),
        help: "bounded worker pool size for parallel chunk hashing and digest verification",
    },
    // ORTE runtime tunables.
    ParamDef {
        key: "orte_spare_nodes",
        default: Some("0"),
        help: "hold the last N topology nodes out of placement as a partial-restart spare pool",
    },
    // PLM component tunables.
    ParamDef {
        key: "plm_map_by",
        default: Some("node"),
        help: "placement policy: node | slot",
    },
    ParamDef {
        key: "plm_slots_per_node",
        default: Some("2"),
        help: "slots per node for map-by-slot placement",
    },
    // SNAPC commit-pipeline tunables.
    ParamDef {
        key: "snapc_early_release",
        default: Some("false"),
        help: "release ranks at local commit and gather to stable storage in the background",
    },
    ParamDef {
        key: "snapc_gather_delay_ms",
        default: Some("0"),
        help: "fault-injection delay before the early-release gather starts (widens the local-committed window)",
    },
    // FILEM component tunables.
    ParamDef {
        key: "filem_replica_factor",
        default: Some("1"),
        help: "replica file mover: ring-replication factor k (copies beyond the rank's own node)",
    },
    ParamDef {
        key: "filem_dedup_enabled",
        default: Some("false"),
        help: "commit checkpoints through the content-addressed chunk store (cross-rank and cross-interval dedup)",
    },
    // Durable FT event journal (ORTE runtime).
    ParamDef {
        key: "journal_enabled",
        default: Some("true"),
        help: "append every trace event to the hash-chained FT journal (cr-replay verifies/replays it)",
    },
    ParamDef {
        key: "journal_dir",
        default: Some(""),
        help: "journal directory override (empty = <runtime base dir>/journal)",
    },
    ParamDef {
        key: "journal_fsync_every",
        default: Some("0"),
        help: "fsync the journal after every N appends (0 = OS writeback; shutdown still syncs)",
    },
    // Launcher-written informational keys (recorded in snapshot metadata
    // so a restart can reconstruct the original launch).
    ParamDef {
        key: "np",
        default: None,
        help: "number of ranks (written by the launcher into snapshot metadata)",
    },
    ParamDef {
        key: "tools_app",
        default: None,
        help: "workload name (written by the tools launcher into snapshot metadata)",
    },
    // Workload knobs (read through the tools launcher).
    ParamDef {
        key: "tools_rounds",
        default: None,
        help: "workload rounds/iterations override",
    },
    ParamDef {
        key: "tools_cells",
        default: None,
        help: "stencil workload: cells per rank override",
    },
    ParamDef {
        key: "tools_tasks",
        default: None,
        help: "master/worker workload: task count override",
    },
];

/// Seed `params` with every registered default (weakest source, so any
/// explicit setting still wins). Called on the job launch path so that
/// snapshot metadata records the complete effective configuration.
pub fn register_defaults(params: &McaParams) {
    for def in KNOWN_PARAMS {
        if let Some(value) = def.default {
            params.default_value(def.key, value);
        }
    }
}

/// Is `key` a registered parameter?
pub fn is_registered(key: &str) -> bool {
    KNOWN_PARAMS.iter().any(|d| d.key == key)
}

/// Keys set in `params` that are not registered — the `ompi-info` /
/// launcher diagnostic for typo'd `--mca` keys.
pub fn unknown_keys(params: &McaParams) -> Vec<String> {
    params
        .dump()
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| !is_registered(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_weakest() {
        let p = McaParams::new();
        p.set_from("plm_map_by", "slot", crate::ParamSource::CommandLine);
        register_defaults(&p);
        assert_eq!(p.get("plm_map_by").as_deref(), Some("slot"));
        assert_eq!(p.get("plm_slots_per_node").as_deref(), Some("2"));
    }

    #[test]
    fn selection_keys_have_no_default() {
        // A default selection directive would defeat priority-based
        // component selection; the table must keep them unset.
        for key in ["crs", "crcp", "snapc", "filem", "plm"] {
            let def = KNOWN_PARAMS
                .iter()
                .find(|d| d.key == key)
                .unwrap_or_else(|| panic!("{key} registered"));
            assert!(def.default.is_none(), "{key} must not default");
        }
        let p = McaParams::new();
        register_defaults(&p);
        assert_eq!(p.get("crs"), None);
    }

    #[test]
    fn unknown_key_diagnosis() {
        let p = McaParams::new();
        p.set("crs", "blcr_sim");
        p.set("crs_blcr_fail_evry", "3"); // typo
        assert_eq!(unknown_keys(&p), vec!["crs_blcr_fail_evry".to_string()]);
        assert!(is_registered("ft_cr_enabled"));
        assert!(!is_registered(""));
    }

    #[test]
    fn table_has_no_duplicates() {
        for (i, a) in KNOWN_PARAMS.iter().enumerate() {
            for b in &KNOWN_PARAMS[i + 1..] {
                assert_ne!(a.key, b.key, "duplicate registration");
            }
        }
    }
}
