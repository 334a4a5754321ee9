//! Model 3: replica ring placement under `k` node losses.
//!
//! Runs the production placement, `orte::replica::ring_neighbors`
//! (DESIGN.md §2.5 in spirit): when node `n` commits its checkpoint image,
//! the image is held in memory by `n` and pushed to its `factor` ring
//! successors `(n+1)%N .. (n+factor)%N`.
//! Nodes may be killed (up to `factor` losses, the design's stated
//! survivability), images may be retired, and a restart must be able to
//! fetch every still-committed image from a live holder.
//!
//! Invariant: every committed image has at least one live holder —
//! "every committed interval stays fetchable".
//!
//! Mutation: [`ReplicaModel::under_replicate`] pushes to only
//! `factor - 1` successors, so `factor` losses can orphan an image.

use crate::checker::Model;

/// Global state: per-node committed image (holder bitmask recorded at
/// commit time) and node liveness.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ReplicaSt {
    /// `images[n]` is `Some(holders)` when node `n`'s image is committed;
    /// `holders` is a bitmask over nodes recorded when the push ran.
    pub images: Vec<Option<u8>>,
    /// Bitmask of live nodes.
    pub alive: u8,
}

/// The replica-placement model.
#[derive(Clone, Copy)]
pub struct ReplicaModel {
    /// Number of nodes (`N`).
    pub nodes: u8,
    /// Replication factor (`k`): ring successors per image.
    pub factor: u8,
    /// Maximum node kills explored (the survivability budget).
    pub max_kills: u8,
    /// Mutation: push to one fewer successor than the factor promises.
    pub under_replicate: bool,
}

impl Default for ReplicaModel {
    fn default() -> Self {
        ReplicaModel { nodes: 4, factor: 2, max_kills: 2, under_replicate: false }
    }
}

impl ReplicaModel {
    /// `node` and the ring neighbors production pushes its image to.
    fn holder_mask(&self, node: u8) -> u8 {
        let factor = u32::from(self.factor.saturating_sub(u8::from(self.under_replicate)));
        let peers = orte::replica::ring_neighbors(node.into(), self.nodes.into(), factor);
        peers.into_iter().fold(1u8 << node, |mask, peer| mask | 1 << peer)
    }

    fn killed(&self, s: &ReplicaSt) -> u32 {
        let all = ((1u16 << self.nodes) - 1) as u8;
        (all & !s.alive).count_ones()
    }
}

impl Model for ReplicaModel {
    type State = ReplicaSt;

    fn name(&self) -> &'static str {
        "replica"
    }

    fn initial(&self) -> Vec<ReplicaSt> {
        let all = ((1u16 << self.nodes) - 1) as u8;
        vec![ReplicaSt { images: vec![None; self.nodes as usize], alive: all }]
    }

    fn transitions(&self, s: &ReplicaSt, out: &mut Vec<(String, ReplicaSt)>) {
        for n in 0..self.nodes {
            let slot = s.images.get(n as usize).cloned().flatten();
            let live = s.alive & (1 << n) != 0;

            // commit: node n checkpoints and pushes replicas.  Only live
            // holders actually receive a copy (a dead successor is an
            // unreachable daemon, as in `orte::replica::replicate`).
            if live && slot.is_none() {
                let holders = self.holder_mask(n) & s.alive;
                let mut t = s.clone();
                t.set_image(n, Some(holders));
                out.push((format!("commit({n})"), t));
            }

            // retire: the image is dropped (interval retired) and leaves
            // the invariant's scope.
            if slot.is_some() {
                let mut t = s.clone();
                t.set_image(n, None);
                out.push((format!("retire({n})"), t));
            }

            // kill: node n dies, within the survivability budget.
            if live && self.killed(s) < self.max_kills as u32 {
                let mut t = s.clone();
                t.alive &= !(1 << n);
                out.push((format!("kill({n})"), t));
            }
        }
    }

    fn invariant(&self, s: &ReplicaSt) -> Result<(), String> {
        for (n, slot) in s.images.iter().enumerate() {
            if let Some(holders) = slot {
                if holders & s.alive == 0 {
                    return Err(format!(
                        "committed image of node {n} has no live holder: \
                         the interval is no longer fetchable"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ReplicaSt {
    fn set_image(&mut self, n: u8, v: Option<u8>) {
        if let Some(slot) = self.images.get_mut(n as usize) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Bounds};

    #[test]
    fn pristine_model_is_green() {
        let report = check(&ReplicaModel::default(), &Bounds::exhaustive());
        assert!(report.ok(), "{:?}", report.violation.map(|c| c.render()));
        assert!(report.exhaustive());
        assert!(report.states > 50, "space too small: {}", report.states);
    }
}
