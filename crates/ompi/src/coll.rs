//! Collectives layered over point-to-point.
//!
//! The paper's first implementation supports "MPI collective routines when
//! internally layered over point-to-point communication" (§3.1) — which is
//! exactly what makes them checkpointable for free: every collective below
//! decomposes into PML sends/receives that the CRCP wrapper observes,
//! counts, and (on restart) replays. Hardware collectives are the paper's
//! canonical example of an operation that would force a process to declare
//! itself non-checkpointable.
//!
//! Algorithms: dissemination barrier, binomial-tree broadcast and reduce,
//! linear (root-centric) gather/scatter, and pairwise all-to-all. Reduce
//! combines in a fixed tree order, so operators need only be associative.

use crate::comm::Comm;
use crate::error::MpiError;
use crate::pml::PmlShared;

/// Tag space inside the collective context: `op << 8 | round`.
fn coll_tag(op: u32, round: u32) -> u32 {
    debug_assert!(round < 256);
    (op << 8) | round
}

const OP_BARRIER: u32 = 1;
const OP_BCAST: u32 = 2;
const OP_REDUCE: u32 = 3;
const OP_GATHER: u32 = 4;
const OP_SCATTER: u32 = 5;
const OP_ALLTOALL: u32 = 6;

/// Dissemination barrier: `ceil(log2(n))` rounds, each rank sends to
/// `(r + 2^k) mod n` and receives from `(r - 2^k) mod n`.
pub fn barrier(pml: &PmlShared, comm: &Comm) -> Result<(), MpiError> {
    let n = comm.size();
    if n <= 1 {
        return Ok(());
    }
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    let mut round = 0u32;
    let mut dist = 1u32;
    while dist < n {
        let dst = comm.world_rank((me + dist) % n)?;
        let src = comm.world_rank((me + n - dist) % n)?;
        pml.send(ctx, dst, coll_tag(OP_BARRIER, round), &[])?;
        pml.recv(ctx, Some(src), Some(coll_tag(OP_BARRIER, round)))?;
        dist <<= 1;
        round += 1;
    }
    Ok(())
}

/// Binomial-tree broadcast of a byte buffer from `root`.
pub fn bcast_bytes(
    pml: &PmlShared,
    comm: &Comm,
    root: u32,
    data: &mut Vec<u8>,
) -> Result<(), MpiError> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::Invalid {
            detail: format!("bcast root {root} out of range"),
        });
    }
    if n <= 1 {
        return Ok(());
    }
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    let vrank = (me + n - root) % n;

    // Receive from the parent (the highest set bit of vrank).
    let mut mask = 1u32;
    while mask < n {
        if vrank & mask != 0 {
            let vsrc = vrank - mask;
            let src = comm.world_rank((vsrc + root) % n)?;
            let frame = pml.recv(ctx, Some(src), Some(coll_tag(OP_BCAST, 0)))?;
            *data = frame.payload.into();
            break;
        }
        mask <<= 1;
    }
    // Forward to children.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < n && vrank & mask == 0 {
            let vdst = vrank + mask;
            let dst = comm.world_rank((vdst + root) % n)?;
            pml.send(ctx, dst, coll_tag(OP_BCAST, 0), data)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Binomial-tree reduction to `root`. `combine(acc, incoming)` must be
/// associative; evaluation order is fixed by the tree.
pub fn reduce_bytes(
    pml: &PmlShared,
    comm: &Comm,
    root: u32,
    mine: Vec<u8>,
    combine: &mut dyn FnMut(Vec<u8>, Vec<u8>) -> Result<Vec<u8>, MpiError>,
) -> Result<Option<Vec<u8>>, MpiError> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::Invalid {
            detail: format!("reduce root {root} out of range"),
        });
    }
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    let vrank = (me + n - root) % n;
    let mut acc = mine;
    let mut mask = 1u32;
    while mask < n {
        if vrank & mask == 0 {
            let vsrc = vrank | mask;
            if vsrc < n {
                let src = comm.world_rank((vsrc + root) % n)?;
                let frame = pml.recv(ctx, Some(src), Some(coll_tag(OP_REDUCE, 0)))?;
                acc = combine(acc, frame.payload.into())?;
            }
        } else {
            let vdst = vrank - mask;
            let dst = comm.world_rank((vdst + root) % n)?;
            pml.send(ctx, dst, coll_tag(OP_REDUCE, 0), &acc)?;
            return Ok(None);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// Root-centric gather: the root receives every rank's buffer, in
/// communicator-rank order.
pub fn gather_bytes(
    pml: &PmlShared,
    comm: &Comm,
    root: u32,
    mine: &[u8],
) -> Result<Option<Vec<Vec<u8>>>, MpiError> {
    let n = comm.size();
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    if me != root {
        pml.send(ctx, comm.world_rank(root)?, coll_tag(OP_GATHER, 0), mine)?;
        return Ok(None);
    }
    let mut parts = Vec::with_capacity(n as usize);
    for r in 0..n {
        if r == root {
            parts.push(mine.to_vec());
        } else {
            let frame = pml.recv(ctx, Some(comm.world_rank(r)?), Some(coll_tag(OP_GATHER, 0)))?;
            parts.push(frame.payload.into());
        }
    }
    Ok(Some(parts))
}

/// Root-centric scatter: rank `r` receives `parts[r]`.
pub fn scatter_bytes(
    pml: &PmlShared,
    comm: &Comm,
    root: u32,
    parts: Option<&[Vec<u8>]>,
) -> Result<Vec<u8>, MpiError> {
    let n = comm.size();
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    if me == root {
        let parts = parts.ok_or_else(|| MpiError::Invalid {
            detail: "scatter root must supply parts".into(),
        })?;
        if parts.len() != n as usize {
            return Err(MpiError::Invalid {
                detail: format!("scatter needs {n} parts, got {}", parts.len()),
            });
        }
        for r in 0..n {
            if r != root {
                pml.send(
                    ctx,
                    comm.world_rank(r)?,
                    coll_tag(OP_SCATTER, 0),
                    &parts[r as usize],
                )?;
            }
        }
        Ok(parts[root as usize].clone())
    } else {
        let frame = pml.recv(ctx, Some(comm.world_rank(root)?), Some(coll_tag(OP_SCATTER, 0)))?;
        Ok(frame.payload.into())
    }
}

/// All-gather: every rank ends with every rank's buffer (gather to rank 0,
/// then broadcast of the concatenation).
pub fn allgather_bytes(
    pml: &PmlShared,
    comm: &Comm,
    mine: &[u8],
) -> Result<Vec<Vec<u8>>, MpiError> {
    let gathered = gather_bytes(pml, comm, 0, mine)?;
    let mut blob: Vec<u8> = match gathered {
        Some(parts) => codec::to_bytes(&parts),
        None => Vec::new(),
    };
    bcast_bytes(pml, comm, 0, &mut blob)?;
    Ok(codec::from_bytes(&blob)?)
}

/// All-reduce: reduce to rank 0, then broadcast the result.
pub fn allreduce_bytes(
    pml: &PmlShared,
    comm: &Comm,
    mine: Vec<u8>,
    combine: &mut dyn FnMut(Vec<u8>, Vec<u8>) -> Result<Vec<u8>, MpiError>,
) -> Result<Vec<u8>, MpiError> {
    let reduced = reduce_bytes(pml, comm, 0, mine, combine)?;
    let mut blob = reduced.unwrap_or_default();
    bcast_bytes(pml, comm, 0, &mut blob)?;
    Ok(blob)
}

/// Pairwise all-to-all: rank `r` sends `parts[q]` to `q` and receives one
/// buffer from every rank.
pub fn alltoall_bytes(
    pml: &PmlShared,
    comm: &Comm,
    parts: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, MpiError> {
    let n = comm.size();
    if parts.len() != n as usize {
        return Err(MpiError::Invalid {
            detail: format!("alltoall needs {n} parts, got {}", parts.len()),
        });
    }
    let me = comm.rank();
    let ctx = comm.ctx_coll();
    // Buffered sends complete immediately, so send-all-then-receive-all is
    // deadlock-free.
    for q in 0..n {
        if q != me {
            pml.send(ctx, comm.world_rank(q)?, coll_tag(OP_ALLTOALL, 0), &parts[q as usize])?;
        }
    }
    let mut out = vec![Vec::new(); n as usize];
    out[me as usize] = parts[me as usize].clone();
    for q in 0..n {
        if q != me {
            let frame = pml.recv(
                ctx,
                Some(comm.world_rank(q)?),
                Some(coll_tag(OP_ALLTOALL, 0)),
            )?;
            out[q as usize] = frame.payload.into();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::Tracer;
    use netsim::{Fabric, LinkSpec, NodeId, Topology};
    use opal::SafePointGate;
    use std::sync::Arc;

    fn mesh(n: u32) -> Vec<Arc<PmlShared>> {
        let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
        let endpoints: Vec<_> = (0..n).map(|_| fabric.register(NodeId(0))).collect();
        let ids: Vec<_> = endpoints.iter().map(|e| e.id()).collect();
        endpoints
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                PmlShared::new(
                    i as u32,
                    n,
                    ep,
                    ids.clone(),
                    Arc::new(SafePointGate::new()),
                    Tracer::new(),
                )
            })
            .collect()
    }

    /// Run `f(rank, pml, comm)` on one thread per rank and collect results.
    fn run_ranks<R: Send + 'static>(
        n: u32,
        f: impl Fn(u32, Arc<PmlShared>, Comm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let pmls = mesh(n);
        let f = Arc::new(f);
        let handles: Vec<_> = pmls
            .into_iter()
            .enumerate()
            .map(|(i, pml)| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(i as u32, pml, Comm::world(n, i as u32)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn barrier_completes_for_many_sizes() {
        for n in [1u32, 2, 3, 5, 8] {
            let results = run_ranks(n, |_r, pml, comm| {
                for _ in 0..10 {
                    barrier(&pml, &comm).unwrap();
                }
                true
            });
            assert_eq!(results.len(), n as usize);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1u32, 2, 3, 6, 7] {
            for root in 0..n {
                let results = run_ranks(n, move |r, pml, comm| {
                    let mut data = if r == root {
                        format!("payload from {root}").into_bytes()
                    } else {
                        Vec::new()
                    };
                    bcast_bytes(&pml, &comm, root, &mut data).unwrap();
                    data
                });
                for data in results {
                    assert_eq!(data, format!("payload from {root}").into_bytes());
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_each_root() {
        for n in [1u32, 2, 4, 5] {
            for root in 0..n {
                let results = run_ranks(n, move |r, pml, comm| {
                    let mine = codec::to_bytes(&u64::from(r + 1));
                    let mut combine = |a: Vec<u8>, b: Vec<u8>| -> Result<Vec<u8>, MpiError> {
                        let x: u64 = codec::from_bytes(&a)?;
                        let y: u64 = codec::from_bytes(&b)?;
                        Ok(codec::to_bytes(&(x + y)))
                    };
                    reduce_bytes(&pml, &comm, root, mine, &mut combine).unwrap()
                });
                let expected: u64 = (1..=u64::from(n)).sum();
                for (r, out) in results.into_iter().enumerate() {
                    if r as u32 == root {
                        let v: u64 = codec::from_bytes(&out.unwrap()).unwrap();
                        assert_eq!(v, expected);
                    } else {
                        assert!(out.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let n = 5u32;
        let results = run_ranks(n, |r, pml, comm| {
            // Gather everyone's rank-tagged buffer at root 2.
            let mine = vec![r as u8; (r + 1) as usize];
            let gathered = gather_bytes(&pml, &comm, 2, &mine).unwrap();
            if r == 2 {
                let parts = gathered.unwrap();
                for (q, p) in parts.iter().enumerate() {
                    assert_eq!(*p, vec![q as u8; q + 1]);
                }
                // Scatter doubled buffers back.
                let doubled: Vec<Vec<u8>> =
                    parts.iter().map(|p| [p.as_slice(), p.as_slice()].concat()).collect();
                scatter_bytes(&pml, &comm, 2, Some(&doubled)).unwrap()
            } else {
                assert!(gathered.is_none());
                scatter_bytes(&pml, &comm, 2, None).unwrap()
            }
        });
        for (r, got) in results.into_iter().enumerate() {
            assert_eq!(got, vec![r as u8; (r + 1) * 2]);
        }
    }

    #[test]
    fn allgather_and_allreduce() {
        let n = 6u32;
        let results = run_ranks(n, |r, pml, comm| {
            let all = allgather_bytes(&pml, &comm, &[r as u8]).unwrap();
            let mut combine = |a: Vec<u8>, b: Vec<u8>| -> Result<Vec<u8>, MpiError> {
                Ok(vec![a[0].max(b[0])])
            };
            let max = allreduce_bytes(&pml, &comm, vec![r as u8], &mut combine).unwrap();
            (all, max)
        });
        for (all, max) in results {
            assert_eq!(all, (0..6u8).map(|i| vec![i]).collect::<Vec<_>>());
            assert_eq!(max, vec![5u8]);
        }
    }

    #[test]
    fn alltoall_exchanges_pairwise() {
        let n = 4u32;
        let results = run_ranks(n, move |r, pml, comm| {
            let parts: Vec<Vec<u8>> = (0..n).map(|q| vec![r as u8, q as u8]).collect();
            alltoall_bytes(&pml, &comm, &parts).unwrap()
        });
        for (r, got) in results.into_iter().enumerate() {
            for (q, buf) in got.into_iter().enumerate() {
                assert_eq!(buf, vec![q as u8, r as u8]);
            }
        }
    }

    #[test]
    fn collectives_on_subcommunicator() {
        // Odd ranks form a sub-communicator; even ranks stay out entirely.
        let n = 6u32;
        let results = run_ranks(n, |r, pml, _world| {
            if r % 2 == 1 {
                let sub = Comm::from_parts(10, vec![1, 3, 5], r);
                let mut data = if r == 1 { vec![99u8] } else { Vec::new() };
                bcast_bytes(&pml, &sub, 0, &mut data).unwrap();
                Some(data)
            } else {
                None
            }
        });
        for (r, out) in results.into_iter().enumerate() {
            if r % 2 == 1 {
                assert_eq!(out.unwrap(), vec![99u8]);
            } else {
                assert!(out.is_none());
            }
        }
    }

    #[test]
    fn invalid_roots_and_counts_rejected() {
        let results = run_ranks(2, |r, pml, comm| {
            let bad_root = bcast_bytes(&pml, &comm, 9, &mut vec![]).is_err();
            let bad_parts = if r == 0 {
                scatter_bytes(&pml, &comm, 0, Some(&[vec![0u8]])).is_err()
            } else {
                true
            };
            let bad_alltoall = alltoall_bytes(&pml, &comm, &[vec![]]).is_err();
            bad_root && bad_parts && bad_alltoall
        });
        assert!(results.into_iter().all(|ok| ok));
    }
}
