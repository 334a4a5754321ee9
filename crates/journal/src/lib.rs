//! The durable FT event journal: an append-only, hash-chained record of
//! every fault-tolerance event the runtime traces.
//!
//! The paper's SNAPC/CRCP protocols are defined by *orderings* (Figures
//! 1–2).  In-memory `Tracer` records die with the process, so a failure
//! that happens once under load leaves no artifact.  This crate makes
//! the trace durable:
//!
//! * [`JournalEntry`] — one event with rank/node attribution plus the
//!   hash chain (`prev_hash`/`hash` via `codec::chunk_digest`); the
//!   newest hash commits to the entire history ([`entry`]).
//! * [`format`](mod@format) — the framed on-disk codec (`OCRJ` header; per-record
//!   length + CRC-32 frames) with O(1) append.
//! * [`JournalWriter`] — append handle that recovers the chain tail on
//!   reopen and refuses broken files ([`writer`]).
//! * [`verify`]/[`read_entries`] — front-to-back validation naming the
//!   exact breaking seq on corruption, truncation, or tampering
//!   ([`read`]).
//! * [`JournalSink`] — the `cr_core::trace::TraceSink` bridge: attach it
//!   to a `Tracer` and every existing `record` call-site in the
//!   workspace is journaled without being rewritten ([`sink`]).
//! * [`diff()`] — positional first-divergence report between two runs.
//!
//! Replay-conformance against the `cr-model` protocol models lives in
//! `model::replay` (the models cannot depend on this crate); the
//! `cr-replay` binary in `crates/tools` ties both together.  See
//! DESIGN.md §2.6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod entry;
pub mod format;
pub mod read;
pub mod sink;
pub mod writer;

pub use diff::{diff, DiffKey, DiffReport, Divergence};
pub use entry::{JournalEntry, GENESIS_HASH};
pub use read::{read_entries, verify, verify_bytes, Break, VerifyReport};
pub use sink::JournalSink;
pub use writer::{JournalWriter, FILE_NAME};
