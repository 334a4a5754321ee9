//! The per-process MPI handle.
//!
//! [`Mpi`] is what application code holds: typed point-to-point and
//! collective operations (payloads serialized with the `codec` binary
//! format), communicator management, explicit progress/safe points, and
//! the fault-tolerance application API the paper adds — SELF-component
//! callbacks, the non-checkpointable declaration, and synchronous
//! checkpoint requests.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use codec::Wire;

use cr_core::request::CheckpointOptions;
use cr_core::{CrError, Tracer};
use opal::crs::SelfCallbacks;
use opal::ProcessContainer;

use crate::coll;
use crate::comm::Comm;
use crate::error::MpiError;
use crate::pml::PmlShared;

/// Completion information of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// World rank of the sender.
    pub source: u32,
    /// MPI tag of the message.
    pub tag: u32,
}

/// A non-blocking request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request(pub u64);

/// The per-process MPI interface.
pub struct Mpi {
    pml: Arc<PmlShared>,
    world: Comm,
    next_ctx: Arc<AtomicU32>,
    container: Arc<ProcessContainer>,
    self_callbacks: Arc<SelfCallbacks>,
    terminate: Arc<AtomicBool>,
    sync_ckpt: Option<Sender<Option<CheckpointOptions>>>,
    tracer: Tracer,
}

impl Mpi {
    /// Assemble the handle (called by the init path, not applications).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pml: Arc<PmlShared>,
        next_ctx: Arc<AtomicU32>,
        container: Arc<ProcessContainer>,
        self_callbacks: Arc<SelfCallbacks>,
        terminate: Arc<AtomicBool>,
        sync_ckpt: Option<Sender<Option<CheckpointOptions>>>,
        tracer: Tracer,
    ) -> Mpi {
        let world = Comm::world(pml.nprocs(), pml.me());
        Mpi {
            pml,
            world,
            next_ctx,
            container,
            self_callbacks,
            terminate,
            sync_ckpt,
            tracer,
        }
    }

    /// World rank of this process.
    pub fn rank(&self) -> u32 {
        self.pml.me()
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.pml.nprocs()
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// The underlying PML (benchmarks and protocol tests reach through).
    pub fn pml(&self) -> &Arc<PmlShared> {
        &self.pml
    }

    /// The process container (fault-tolerance control plane).
    pub fn container(&self) -> &Arc<ProcessContainer> {
        &self.container
    }

    // -- point-to-point ------------------------------------------------------

    /// Blocking typed send on `comm`.
    pub fn send<T: Wire>(
        &self,
        comm: &Comm,
        dst: u32,
        tag: u32,
        value: &T,
    ) -> Result<(), MpiError> {
        let payload = codec::to_bytes(value);
        self.pml
            .send(comm.ctx_p2p(), comm.world_rank(dst)?, tag, &payload)
    }

    /// Blocking typed receive on `comm`. `src`/`tag` of `None` = any.
    pub fn recv<T: Wire>(
        &self,
        comm: &Comm,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<(T, Status), MpiError> {
        let src_world = match src {
            Some(s) => Some(comm.world_rank(s)?),
            None => None,
        };
        let frame = self.pml.recv(comm.ctx_p2p(), src_world, tag)?;
        let value = codec::from_bytes(&frame.payload)?;
        let source = comm
            .comm_rank_of_world(frame.src)
            .ok_or_else(|| MpiError::Invalid {
                detail: format!("message from world rank {} outside communicator", frame.src),
            })?;
        Ok((
            value,
            Status {
                source,
                tag: frame.tag,
            },
        ))
    }

    /// Raw byte send (benchmarks use this to avoid codec cost).
    pub fn send_bytes(&self, comm: &Comm, dst: u32, tag: u32, bytes: &[u8]) -> Result<(), MpiError> {
        self.pml.send(comm.ctx_p2p(), comm.world_rank(dst)?, tag, bytes)
    }

    /// Raw byte receive.
    pub fn recv_bytes(
        &self,
        comm: &Comm,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<(Vec<u8>, Status), MpiError> {
        let src_world = match src {
            Some(s) => Some(comm.world_rank(s)?),
            None => None,
        };
        let frame = self.pml.recv(comm.ctx_p2p(), src_world, tag)?;
        let source = comm.comm_rank_of_world(frame.src).unwrap_or(frame.src);
        Ok((
            frame.payload.into(),
            Status {
                source,
                tag: frame.tag,
            },
        ))
    }

    /// Non-blocking typed send.
    pub fn isend<T: Wire>(
        &self,
        comm: &Comm,
        dst: u32,
        tag: u32,
        value: &T,
    ) -> Result<Request, MpiError> {
        let payload = codec::to_bytes(value);
        Ok(Request(self.pml.isend(
            comm.ctx_p2p(),
            comm.world_rank(dst)?,
            tag,
            &payload,
        )?))
    }

    /// Non-blocking receive.
    pub fn irecv(
        &self,
        comm: &Comm,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<Request, MpiError> {
        let src_world = match src {
            Some(s) => Some(comm.world_rank(s)?),
            None => None,
        };
        Ok(Request(self.pml.irecv(comm.ctx_p2p(), src_world, tag)?))
    }

    /// Wait for a receive request, decoding the payload.
    pub fn wait_recv<T: Wire>(&self, req: Request) -> Result<(T, Status), MpiError> {
        match self.pml.wait(req.0)? {
            Some(frame) => Ok((
                codec::from_bytes(&frame.payload)?,
                Status {
                    source: frame.src,
                    tag: frame.tag,
                },
            )),
            None => Err(MpiError::BadRequest { request: req.0 }),
        }
    }

    /// Wait for a send request.
    pub fn wait_send(&self, req: Request) -> Result<(), MpiError> {
        self.pml.wait(req.0)?;
        Ok(())
    }

    /// Non-blocking completion test for a receive request.
    pub fn test_recv<T: Wire>(
        &self,
        req: Request,
    ) -> Result<Option<(T, Status)>, MpiError> {
        match self.pml.test(req.0)? {
            None => Ok(None),
            Some(Some(frame)) => Ok(Some((
                codec::from_bytes(&frame.payload)?,
                Status {
                    source: frame.src,
                    tag: frame.tag,
                },
            ))),
            Some(None) => Err(MpiError::BadRequest { request: req.0 }),
        }
    }

    /// Blocking probe: metadata of the next matching message without
    /// consuming it.
    pub fn probe(
        &self,
        comm: &Comm,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Result<Status, MpiError> {
        let src_world = match src {
            Some(s) => Some(comm.world_rank(s)?),
            None => None,
        };
        let (found_src, found_tag, _len) = self.pml.probe(comm.ctx_p2p(), src_world, tag)?;
        Ok(Status {
            source: comm.comm_rank_of_world(found_src).unwrap_or(found_src),
            tag: found_tag,
        })
    }

    /// Combined send and receive (`MPI_Sendrecv`): deadlock-safe because
    /// sends are buffered.
    pub fn sendrecv<S, R>(
        &self,
        comm: &Comm,
        dst: u32,
        send_tag: u32,
        value: &S,
        src: Option<u32>,
        recv_tag: Option<u32>,
    ) -> Result<(R, Status), MpiError>
    where
        S: Wire,
        R: Wire,
    {
        self.send(comm, dst, send_tag, value)?;
        self.recv(comm, src, recv_tag)
    }

    /// Inclusive prefix scan (`MPI_Scan`): rank `r` receives
    /// `combine(v_0, ..., v_r)`. Linear pipeline over point-to-point in
    /// the collective context (no tag collisions with application
    /// traffic), so `combine` need only be associative.
    pub fn scan<T, F>(&self, comm: &Comm, value: T, combine: F) -> Result<T, MpiError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        const SCAN_TAG: u32 = 7 << 8; // op 7 in the collective tag space
        let me = comm.rank();
        let n = comm.size();
        let ctx = comm.ctx_coll();
        let acc = if me == 0 {
            value
        } else {
            let frame = self
                .pml
                .recv(ctx, Some(comm.world_rank(me - 1)?), Some(SCAN_TAG))?;
            let prev: T = codec::from_bytes(&frame.payload)?;
            combine(prev, value)
        };
        if me + 1 < n {
            let bytes = codec::to_bytes(&acc);
            self.pml
                .send(ctx, comm.world_rank(me + 1)?, SCAN_TAG, &bytes)?;
        }
        Ok(acc)
    }

    // -- collectives -----------------------------------------------------------

    /// Barrier over `comm`.
    pub fn barrier(&self, comm: &Comm) -> Result<(), MpiError> {
        coll::barrier(&self.pml, comm)
    }

    /// Broadcast `value` from `root`; every rank returns the root's value.
    pub fn bcast<T: Wire>(
        &self,
        comm: &Comm,
        root: u32,
        value: T,
    ) -> Result<T, MpiError> {
        let mut blob = if comm.rank() == root {
            codec::to_bytes(&value)
        } else {
            Vec::new()
        };
        coll::bcast_bytes(&self.pml, comm, root, &mut blob)?;
        Ok(codec::from_bytes(&blob)?)
    }

    /// Reduce with `combine` to `root`; `Some` at the root, `None` elsewhere.
    pub fn reduce<T, F>(
        &self,
        comm: &Comm,
        root: u32,
        value: T,
        combine: F,
    ) -> Result<Option<T>, MpiError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let mut combine_bytes = |a: Vec<u8>, b: Vec<u8>| -> Result<Vec<u8>, MpiError> {
            let av: T = codec::from_bytes(&a)?;
            let bv: T = codec::from_bytes(&b)?;
            Ok(codec::to_bytes(&combine(av, bv)))
        };
        let out = coll::reduce_bytes(
            &self.pml,
            comm,
            root,
            codec::to_bytes(&value),
            &mut combine_bytes,
        )?;
        match out {
            Some(bytes) => Ok(Some(codec::from_bytes(&bytes)?)),
            None => Ok(None),
        }
    }

    /// All-reduce with `combine`.
    pub fn allreduce<T, F>(&self, comm: &Comm, value: T, combine: F) -> Result<T, MpiError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let mut combine_bytes = |a: Vec<u8>, b: Vec<u8>| -> Result<Vec<u8>, MpiError> {
            let av: T = codec::from_bytes(&a)?;
            let bv: T = codec::from_bytes(&b)?;
            Ok(codec::to_bytes(&combine(av, bv)))
        };
        let bytes = coll::allreduce_bytes(
            &self.pml,
            comm,
            codec::to_bytes(&value),
            &mut combine_bytes,
        )?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Gather to `root`: `Some(values)` (comm-rank order) at root.
    pub fn gather<T: Wire>(
        &self,
        comm: &Comm,
        root: u32,
        value: &T,
    ) -> Result<Option<Vec<T>>, MpiError> {
        let mine = codec::to_bytes(value);
        match coll::gather_bytes(&self.pml, comm, root, &mine)? {
            Some(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(codec::from_bytes(&p)?);
                }
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    /// Scatter from `root`: rank `r` receives `parts[r]`.
    pub fn scatter<T: Wire>(
        &self,
        comm: &Comm,
        root: u32,
        parts: Option<Vec<T>>,
    ) -> Result<T, MpiError> {
        let encoded: Option<Vec<Vec<u8>>> = match parts {
            Some(v) => {
                let mut out = Vec::with_capacity(v.len());
                for item in &v {
                    out.push(codec::to_bytes(item));
                }
                Some(out)
            }
            None => None,
        };
        let bytes = coll::scatter_bytes(&self.pml, comm, root, encoded.as_deref())?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// All-gather: every rank receives every rank's value.
    pub fn allgather<T: Wire>(
        &self,
        comm: &Comm,
        value: &T,
    ) -> Result<Vec<T>, MpiError> {
        let mine = codec::to_bytes(value);
        let parts = coll::allgather_bytes(&self.pml, comm, &mine)?;
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            out.push(codec::from_bytes(&p)?);
        }
        Ok(out)
    }

    /// All-to-all: rank `r` sends `parts[q]` to rank `q`.
    pub fn alltoall<T: Wire>(
        &self,
        comm: &Comm,
        parts: Vec<T>,
    ) -> Result<Vec<T>, MpiError> {
        let mut encoded = Vec::with_capacity(parts.len());
        for item in &parts {
            encoded.push(codec::to_bytes(item));
        }
        let raw = coll::alltoall_bytes(&self.pml, comm, &encoded)?;
        let mut out = Vec::with_capacity(raw.len());
        for p in raw {
            out.push(codec::from_bytes(&p)?);
        }
        Ok(out)
    }

    // -- communicator management ---------------------------------------------

    /// Collectively allocate a fresh context-id base. Derived from an
    /// all-reduce so the result is identical on every member and
    /// deterministic under replay.
    fn alloc_ctx(&self, comm: &Comm) -> Result<u32, MpiError> {
        let local = self.next_ctx.load(Ordering::SeqCst);
        let agreed = self.allreduce(comm, local, |a: u32, b: u32| a.max(b))?;
        self.next_ctx.store(agreed + 2, Ordering::SeqCst);
        Ok(agreed)
    }

    /// Duplicate `comm` with fresh context ids (collective).
    pub fn comm_dup(&self, comm: &Comm) -> Result<Comm, MpiError> {
        let ctx = self.alloc_ctx(comm)?;
        Ok(Comm::from_parts(
            ctx,
            comm.members().to_vec(),
            self.rank(),
        ))
    }

    /// Split `comm` by `color` (collective); ordering within a color is by
    /// `key`, ties by rank.
    pub fn comm_split(&self, comm: &Comm, color: u32, key: u32) -> Result<Comm, MpiError> {
        let ctx = self.alloc_ctx(comm)?;
        let all: Vec<(u32, u32, u32)> =
            self.allgather(comm, &(color, key, self.rank()))?;
        let mut members: Vec<(u32, u32)> = all
            .into_iter()
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, w)| (k, w))
            .collect();
        members.sort_unstable();
        let ranks: Vec<u32> = members.into_iter().map(|(_, w)| w).collect();
        Ok(Comm::from_parts(ctx, ranks, self.rank()))
    }

    /// Restore the MPI-layer state (the "ompi" image section; the capture
    /// side is registered directly against `next_ctx` at init).
    pub(crate) fn restore_section(next_ctx: &AtomicU32, bytes: &[u8]) -> Result<(), CrError> {
        let v: u32 = codec::from_bytes(bytes)?;
        next_ctx.store(v, Ordering::SeqCst);
        Ok(())
    }

    // -- fault-tolerance application API ------------------------------------------

    /// Explicit safe point: in long computational phases with no MPI
    /// calls, call this periodically so checkpoints are not delayed.
    pub fn progress(&self) {
        if !self.pml.is_replaying() {
            self.container.gate().checkpoint_point();
        }
    }

    /// True once the job was asked to terminate (e.g. after a
    /// checkpoint-and-terminate request); the application should finish
    /// its current step and return.
    pub fn should_terminate(&self) -> bool {
        self.terminate.load(Ordering::SeqCst)
    }

    /// Register a SELF-component callback fired just before a checkpoint.
    pub fn on_checkpoint(&self, cb: impl FnMut() -> Result<(), CrError> + Send + 'static) {
        *self.self_callbacks.on_checkpoint.lock() = Some(Box::new(cb));
    }

    /// Register a SELF-component callback fired when execution continues
    /// after a checkpoint.
    pub fn on_continue(&self, cb: impl FnMut() -> Result<(), CrError> + Send + 'static) {
        *self.self_callbacks.on_continue.lock() = Some(Box::new(cb));
    }

    /// Register a SELF-component callback fired after a restart.
    pub fn on_restart(&self, cb: impl FnMut() -> Result<(), CrError> + Send + 'static) {
        *self.self_callbacks.on_restart.lock() = Some(Box::new(cb));
    }

    /// Declare whether this process may be checkpointed (paper §5.1).
    pub fn set_checkpointable(&self, value: bool) {
        self.container.set_checkpointable(value);
    }

    /// Synchronous checkpoint request from application code (paper §1's
    /// "synchronous checkpoint requests are handled by an application via
    /// a common API"). The request is queued to the job's coordinator; the
    /// checkpoint is taken at this process's next safe point — it does NOT
    /// complete before this call returns.
    pub fn request_checkpoint(&self, options: CheckpointOptions) -> Result<(), MpiError> {
        let tx = self.sync_ckpt.as_ref().ok_or_else(|| MpiError::Cr(CrError::Unsupported {
            detail: "synchronous checkpoint requests are not wired for this job".into(),
        }))?;
        self.tracer
            .record("ompi.sync_ckpt.request", &format!("rank {}", self.rank()));
        tx.send(Some(options)).map_err(|_| {
            MpiError::Cr(CrError::Unsupported {
                detail: "job coordinator is gone".into(),
            })
        })
    }
}
