//! Communicators.
//!
//! A communicator is a group of world ranks plus a pair of context ids
//! that isolate its traffic: one context for point-to-point, one for
//! collectives (so an application receive with a wildcard tag can never
//! match a collective's internal message — the same separation real MPI
//! implementations use).
//!
//! Context ids must agree across all members. They are derived
//! collectively (an allreduce over each process's next free id), so
//! creation is deterministic and therefore replay-safe after a restart.

use crate::error::MpiError;

/// A communicator handle.
///
/// `Comm` is plain serializable data: applications may store communicators
/// in their checkpointable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comm {
    ctx_p2p: u32,
    ctx_coll: u32,
    /// World ranks of the members, indexed by communicator rank.
    ranks: Vec<u32>,
    /// This process's rank within the communicator.
    my_rank: u32,
}
codec::wire_struct!(Comm { ctx_p2p, ctx_coll, ranks, my_rank });

impl Comm {
    /// `MPI_COMM_WORLD` for a world of `nprocs`, viewed from `me`.
    pub fn world(nprocs: u32, me: u32) -> Comm {
        Comm {
            ctx_p2p: 0,
            ctx_coll: 1,
            ranks: (0..nprocs).collect(),
            my_rank: me,
        }
    }

    /// Build a communicator from parts (used by dup/split).
    pub(crate) fn from_parts(ctx_base: u32, ranks: Vec<u32>, my_world_rank: u32) -> Comm {
        let my_rank = ranks
            .iter()
            .position(|r| *r == my_world_rank)
            .expect("creator must be a member") as u32;
        Comm {
            ctx_p2p: ctx_base,
            ctx_coll: ctx_base + 1,
            ranks,
            my_rank,
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> u32 {
        self.my_rank
    }

    /// Number of members.
    pub fn size(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Point-to-point context id.
    pub fn ctx_p2p(&self) -> u32 {
        self.ctx_p2p
    }

    /// Collective context id.
    pub fn ctx_coll(&self) -> u32 {
        self.ctx_coll
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: u32) -> Result<u32, MpiError> {
        self.ranks
            .get(r as usize)
            .copied()
            .ok_or_else(|| MpiError::Invalid {
                detail: format!("rank {r} out of range for communicator of size {}", self.size()),
            })
    }

    /// Communicator rank of world rank `w`, if a member.
    pub fn comm_rank_of_world(&self, w: u32) -> Option<u32> {
        self.ranks.iter().position(|r| *r == w).map(|i| i as u32)
    }

    /// Member world ranks.
    pub fn members(&self) -> &[u32] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_basics() {
        let c = Comm::world(4, 2);
        assert_eq!(c.rank(), 2);
        assert_eq!(c.size(), 4);
        assert_eq!(c.ctx_p2p(), 0);
        assert_eq!(c.ctx_coll(), 1);
        assert_eq!(c.world_rank(3).unwrap(), 3);
        assert!(c.world_rank(4).is_err());
        assert_eq!(c.comm_rank_of_world(1), Some(1));
    }

    #[test]
    fn from_parts_translates_ranks() {
        // Sub-communicator of world ranks {1, 3, 5}, viewed from world 3.
        let c = Comm::from_parts(10, vec![1, 3, 5], 3);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.ctx_p2p(), 10);
        assert_eq!(c.ctx_coll(), 11);
        assert_eq!(c.world_rank(2).unwrap(), 5);
        assert_eq!(c.comm_rank_of_world(4), None);
    }

    #[test]
    #[should_panic(expected = "member")]
    fn from_parts_requires_membership() {
        let _ = Comm::from_parts(10, vec![1, 3], 2);
    }

    #[test]
    fn wire_roundtrip() {
        let c = Comm::from_parts(6, vec![0, 2], 2);
        let bytes = codec::to_bytes(&c);
        let back: Comm = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }
}
