//! ORTE — Open Run-Time Environment (simulated).
//!
//! ORTE provides the uniform parallel runtime under the MPI layer: process
//! launch, per-node daemons (`orted`), out-of-band (OOB) messaging, and the
//! head-node process (`mpirun`, the HNP). For checkpoint/restart it hosts
//! two of the paper's five frameworks:
//!
//! * **SNAPC** ([`snapc`]) — snapshot coordination: launching, monitoring
//!   and aggregating distributed checkpoint requests. The `full` component
//!   reproduces the paper's centralized design — a *global coordinator* in
//!   `mpirun`, a *local coordinator* in each `orted`, and an *application
//!   coordinator* in each process (Figure 1); `tree` runs the same
//!   protocol over a binomial daemon tree.
//! * **FILEM** ([`filem`]) — remote file management: gathering local
//!   snapshots to stable storage. Restart reads them where they live.
//!
//! Plus the substrate they need:
//!
//! * [`runtime::Runtime`] — the simulated universe: the netsim fabric, the
//!   per-node scratch directories, the shared stable-storage directory,
//!   job-id allocation, and the daemon registry.
//! * [`daemon::Orted`] — the per-node daemon thread servicing OOB requests
//!   and driving local process checkpoints.
//! * [`oob`] — the OOB control plane: typed requests and replies over the
//!   fabric, the one caller, and the dead-node rule.
//! * [`modex`] — the rendezvous key-value store processes use to exchange
//!   endpoint addresses at `MPI_Init` and after restart.
//! * [`plm`] — the process launch framework (the `rsh_sim` component)
//!   computing placements.
//! * [`job`] — job specification, launch, and the job handle the OMPI
//!   layer and the tools operate on.
//! * [`replica`] — the peer-memory replicated snapshot store backing the
//!   FILEM `replica` component: each daemon holds its own ranks' images
//!   plus ring-replicated copies of `k` neighbors', so restart can pull
//!   from surviving memory before touching stable storage.
//! * [`store`] — the unified snapshot store over the content-addressed
//!   chunk tiers (`filem_dedup_enabled`): dedup commit, manifest-driven
//!   fetch, and refcount GC (decrement + sweep) at retirement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod filem;
pub mod job;
pub mod modex;
pub mod oob;
pub mod plm;
pub mod replica;
pub mod runtime;
pub mod snapc;
pub mod store;

pub use job::{JobHandle, JobSpec, LaunchCtx};
pub use runtime::Runtime;
