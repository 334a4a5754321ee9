//! PLM — the process launch framework.
//!
//! Maps a job's ranks onto nodes. One component:
//!
//! * **`rsh_sim`** — ssh-style launch: one session per remote process,
//!   started from the head node.
//!
//! Placement policy is controlled by the `plm_map_by` MCA parameter:
//! `node` (round-robin across nodes, the default) or `slot` (fill each
//! node's slots before moving on, slot count from `plm_slots_per_node`).

use mca::{Framework, McaParams};
use netsim::{NodeId, Topology};

use cr_core::CrError;

/// A computed job mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Node of each rank (index = rank).
    pub node_of: Vec<NodeId>,
}

impl Placement {
    /// Distinct nodes that host at least one rank, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.node_of.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// A process launch component.
pub trait PlmComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Compute the placement of `nprocs` ranks.
    fn map_job(
        &self,
        nprocs: u32,
        topology: &Topology,
        params: &McaParams,
    ) -> Result<Placement, CrError>;
}

fn assign_nodes(
    nprocs: u32,
    topology: &Topology,
    params: &McaParams,
) -> Result<Vec<NodeId>, CrError> {
    if nprocs == 0 {
        return Err(CrError::Unsupported {
            detail: "cannot launch a job with zero processes".into(),
        });
    }
    let map_by = params.get("plm_map_by").unwrap_or_else(|| "node".into());
    // The spare pool (`orte_spare_nodes`) holds the last N topology nodes
    // out of placement: they idle until a partial restart claims one for
    // a failed rank, so a node loss never has to wait for repair.
    let spares: u32 = params
        .get_parsed_or("orte_spare_nodes", 0u32)
        .map_err(|e| CrError::Unsupported { detail: e.to_string() })?;
    let total = topology.len() as u32;
    if spares >= total {
        return Err(CrError::Unsupported {
            detail: format!(
                "orte_spare_nodes={spares} leaves no usable nodes in a {total}-node cluster"
            ),
        });
    }
    let n_nodes = total - spares;
    match map_by.as_str() {
        "node" => Ok((0..nprocs).map(|r| NodeId(r % n_nodes)).collect()),
        "slot" => {
            let slots: u32 = params
                .get_parsed_or("plm_slots_per_node", 2u32)
                .map_err(|e| CrError::Unsupported { detail: e.to_string() })?;
            if slots == 0 {
                return Err(CrError::Unsupported {
                    detail: "plm_slots_per_node must be positive".into(),
                });
            }
            if nprocs > n_nodes * slots {
                return Err(CrError::Unsupported {
                    detail: format!(
                        "job needs {nprocs} slots but the cluster has {} ({} nodes x {slots})",
                        n_nodes * slots,
                        n_nodes
                    ),
                });
            }
            Ok((0..nprocs).map(|r| NodeId(r / slots)).collect())
        }
        other => Err(CrError::Unsupported {
            detail: format!("unknown plm_map_by policy {other:?} (use node or slot)"),
        }),
    }
}

/// ssh-style launcher.
pub struct RshSimPlm;

impl PlmComponent for RshSimPlm {
    fn name(&self) -> &'static str {
        "rsh_sim"
    }

    fn map_job(
        &self,
        nprocs: u32,
        topology: &Topology,
        params: &McaParams,
    ) -> Result<Placement, CrError> {
        Ok(Placement {
            node_of: assign_nodes(nprocs, topology, params)?,
        })
    }
}

/// Assemble the PLM framework (rsh_sim is the default, as in clusters with
/// no batch scheduler — the environment the paper's tools target).
pub fn plm_framework() -> Framework<dyn PlmComponent> {
    let mut fw: Framework<dyn PlmComponent> = Framework::new("plm");
    fw.register("rsh_sim", 20, "ssh-style sequential launch", |_| {
        Box::new(RshSimPlm)
    });
    fw
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkSpec;

    fn topo(n: u32) -> Topology {
        Topology::uniform(n, LinkSpec::gigabit_ethernet())
    }

    #[test]
    fn round_robin_by_node_default() {
        let plm = RshSimPlm;
        let p = plm.map_job(5, &topo(3), &McaParams::new()).unwrap();
        assert_eq!(
            p.node_of,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0), NodeId(1)]
        );
        assert_eq!(p.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn map_by_slot_fills_nodes() {
        let params = McaParams::new();
        params.set("plm_map_by", "slot");
        params.set("plm_slots_per_node", "2");
        let plm = RshSimPlm;
        let p = plm.map_job(4, &topo(3), &params).unwrap();
        assert_eq!(p.node_of, vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)]);
    }

    #[test]
    fn oversubscription_by_slot_is_rejected() {
        let params = McaParams::new();
        params.set("plm_map_by", "slot");
        params.set("plm_slots_per_node", "1");
        let plm = RshSimPlm;
        assert!(plm.map_job(4, &topo(2), &params).is_err());
    }

    #[test]
    fn spare_nodes_held_out_of_placement() {
        let params = McaParams::new();
        params.set("orte_spare_nodes", "1");
        let plm = RshSimPlm;
        // 3-node cluster, 1 spare: ranks round-robin over nodes 0 and 1 only.
        let p = plm.map_job(4, &topo(3), &params).unwrap();
        assert_eq!(
            p.node_of,
            vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]
        );
        // Reserving the whole cluster is rejected.
        params.set("orte_spare_nodes", "3");
        assert!(plm.map_job(1, &topo(3), &params).is_err());
    }

    #[test]
    fn zero_procs_rejected() {
        let plm = RshSimPlm;
        assert!(plm.map_job(0, &topo(1), &McaParams::new()).is_err());
    }

    #[test]
    fn unknown_policy_rejected() {
        let params = McaParams::new();
        params.set("plm_map_by", "rack");
        let plm = RshSimPlm;
        let err = plm.map_job(2, &topo(2), &params).unwrap_err();
        assert!(err.to_string().contains("rack"));
    }

    #[test]
    fn framework_default_selection() {
        let fw = plm_framework();
        let params = McaParams::new();
        assert_eq!(fw.select(&params).unwrap().name(), "rsh_sim");
        params.set("plm", "slurm_sim");
        assert!(matches!(
            fw.select(&params),
            Err(mca::SelectError::UnknownComponent { .. })
        ));
    }
}
