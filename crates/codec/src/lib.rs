//! Serialization substrate for checkpoint/restart context files and snapshot
//! metadata.
//!
//! Open MPI's checkpoint/restart infrastructure persists two kinds of data:
//!
//! * **Context files** — the opaque, binary image of a single process
//!   produced by a CRS component (BLCR writes `context.<pid>`; our simulated
//!   system-level checkpointer writes an equivalent binary file). These,
//!   and every OOB message, CRCP frame and journal record, are encoded in
//!   the tagged binary format of [`wire`] — its module docs are the one
//!   description of the format and its tag table — and a context file is
//!   wrapped in a checksummed frame ([`frame`]) so corruption is detected
//!   at restart time rather than producing a silently wrong process image.
//!   Each type states its encoding explicitly through the [`Wire`] trait:
//!   the std types implement it here, and a struct or enum lists its
//!   fields or variants in one [`wire_struct!`] or [`wire_enum!`] line.
//!   The bulk of an image — and of every replica, chunk and message
//!   payload the runtime moves — is a `Vec<u8>`, which crosses as one raw
//!   run (tag, length, bytes).
//!
//! * **Metadata files** — the human-readable `snapshot_meta.data` files that
//!   live inside local and global snapshot references and record which
//!   checkpointer was used, the checkpoint interval, process information, and
//!   the runtime parameters of the original launch. These use the line
//!   oriented format in [`meta`].
//!
//! Both formats are implemented from scratch here, with no external
//! dependency. Both are round-trip exact (property tested) and versioned.

//! # Examples
//!
//! ```
//! #[derive(Debug, PartialEq)]
//! struct RankState { rank: u32, iteration: u64, data: Vec<u8> }
//! codec::wire_struct!(RankState { rank, iteration, data });
//!
//! let state = RankState { rank: 3, iteration: 42, data: vec![1, 2, 3] };
//! // Context-file round trip: encode, frame with a CRC, unframe, decode.
//! let framed = codec::write_frame(&codec::to_bytes(&state));
//! let back: RankState = codec::from_bytes(codec::read_frame(&framed).unwrap()).unwrap();
//! assert_eq!(back, state);
//!
//! // Snapshot metadata round trip.
//! let mut meta = codec::MetaDoc::new();
//! meta.set("snapshot", "crs", "blcr_sim");
//! let reparsed = codec::MetaDoc::parse(&meta.render()).unwrap();
//! assert_eq!(reparsed.get("snapshot", "crs"), Some("blcr_sim"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod crc32;
pub mod error;
pub mod frame;
pub mod meta;
pub mod varint;
pub mod wire;

pub use chunk::{chunk_digest, ChunkManifest, ChunkRecord, SectionManifest};
pub use error::{Error, Result};
pub use frame::{into_payload, read_frame, to_framed_bytes, write_frame, write_frame_into};
pub use meta::MetaDoc;
pub use wire::{from_bytes, to_bytes, Wire};
