//! PLM — the process launch framework.
//!
//! Maps a job's ranks onto nodes and accounts the simulated cost of
//! launching them. Two components mirror the real framework's spread:
//!
//! * **`rsh_sim`** — ssh-style launch: one session per remote process,
//!   started sequentially from the head node. Cheap to have, slow at scale.
//! * **`slurm_sim`** — batch-scheduler launch: the daemons start processes
//!   in parallel, one launch wave per node.
//!
//! Placement policy is controlled by the `plm_map_by` MCA parameter:
//! `node` (round-robin across nodes, the default) or `slot` (fill each
//! node's slots before moving on, slot count from `plm_slots_per_node`).

use mca::{Framework, McaParams};
use netsim::{NodeId, SimTime, Topology};

use cr_core::CrError;

/// A computed job mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Node of each rank (index = rank).
    pub node_of: Vec<NodeId>,
    /// Simulated wall time to launch the job with this component.
    pub launch_cost: SimTime,
}

impl Placement {
    /// Distinct nodes that host at least one rank, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.node_of.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Ranks placed on `node`, ascending.
    pub fn ranks_on(&self, node: NodeId) -> Vec<u32> {
        self.node_of
            .iter()
            .enumerate()
            .filter(|(_, n)| **n == node)
            .map(|(r, _)| r as u32)
            .collect()
    }
}

/// A process launch component.
pub trait PlmComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Compute the placement and launch cost for `nprocs` ranks.
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

/// Simulated time of one `rsh_sim` launcher session: one ssh per process
/// at launch, one per spare node in a partial restart.
pub const RSH_SESSION: SimTime = SimTime::from_millis(150);
/// Simulated time of one `slurm_sim` launch wave.
const SLURM_WAVE: SimTime = SimTime::from_millis(40);
/// Simulated `slurm_sim` allocation setup time.
const SLURM_SETUP: SimTime = SimTime::from_millis(500);

/// ssh-style sequential launcher.
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
        let node_of = assign_nodes(nprocs, topology, params)?;
        // One ssh session per process, strictly sequential.
        Ok(Placement {
            launch_cost: RSH_SESSION * u64::from(nprocs),
            node_of,
        })
    }
}

/// Batch-scheduler-style parallel launcher.
pub struct SlurmSimPlm;

impl PlmComponent for SlurmSimPlm {
    fn name(&self) -> &'static str {
        "slurm_sim"
    }

    fn map_job(
        &self,
        nprocs: u32,
        topology: &Topology,
        params: &McaParams,
    ) -> Result<Placement, CrError> {
        let node_of = assign_nodes(nprocs, topology, params)?;
        // All nodes launch in parallel: cost = setup + waves on the busiest
        // node.
        let mut per_node = std::collections::HashMap::new();
        for n in &node_of {
            *per_node.entry(*n).or_insert(0u64) += 1;
        }
        let max_waves = per_node.values().copied().max().unwrap_or(0);
        Ok(Placement {
            launch_cost: SLURM_SETUP + SLURM_WAVE * max_waves,
            node_of,
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
    fw.register("slurm_sim", 10, "batch-scheduler parallel launch", |_| {
        Box::new(SlurmSimPlm)
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
        assert_eq!(p.ranks_on(NodeId(0)), vec![0, 3]);
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
    fn rsh_cost_scales_linearly_slurm_does_not() {
        let params = McaParams::new();
        let rsh = RshSimPlm;
        let slurm = SlurmSimPlm;
        let t = topo(8);
        let rsh8 = rsh.map_job(8, &t, &params).unwrap().launch_cost;
        let rsh16 = rsh.map_job(16, &t, &params).unwrap().launch_cost;
        assert_eq!(rsh16, rsh8 * 2);
        let slurm8 = slurm.map_job(8, &t, &params).unwrap().launch_cost;
        let slurm16 = slurm.map_job(16, &t, &params).unwrap().launch_cost;
        // Doubling procs on the same nodes adds one wave, not 8 sessions.
        assert!(slurm16 < slurm8 * 2);
        // At scale, slurm beats rsh.
        assert!(slurm16 < rsh16);
    }

    #[test]
    fn framework_default_selection() {
        let fw = plm_framework();
        let params = McaParams::new();
        assert_eq!(fw.select(&params).unwrap().name(), "rsh_sim");
        params.set("plm", "slurm_sim");
        assert_eq!(fw.select(&params).unwrap().name(), "slurm_sim");
    }
}
