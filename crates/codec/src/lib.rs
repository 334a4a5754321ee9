//! Serialization substrate for checkpoint/restart context files and snapshot
//! metadata.
//!
//! Open MPI's checkpoint/restart infrastructure persists two kinds of data:
//!
//! * **Context files** — the opaque, binary image of a single process
//!   produced by a CRS component (BLCR writes `context.<pid>`; our simulated
//!   system-level checkpointer writes an equivalent binary file). These are
//!   encoded with the self-describing binary format in [`binary`], and
//!   wrapped in a checksummed frame ([`frame`]) so corruption is detected at
//!   restart time rather than producing a silently wrong process image.
//!   The bulk of an image — and of every replica, chunk and message payload
//!   the runtime moves — is a [`ByteBuf`]: a `Vec<u8>` that crosses the
//!   codec as one raw run (tag, length, bytes) instead of serde's default
//!   element-by-element sequence, which costs 2–3 bytes and one visitor
//!   call per byte. The frame and the self-describing skeleton around the
//!   run are the whole container; there is no second, flat format. A
//!   `ByteBuf` also reads the legacy sequence form, so a context written
//!   when the field was a plain `Vec<u8>` still restores; a build from
//!   before `ByteBuf` reading a new context fails with the codec's
//!   type-mismatch error.
//!
//! * **Metadata files** — the human-readable `snapshot_meta.data` files that
//!   live inside local and global snapshot references and record which
//!   checkpointer was used, the checkpoint interval, process information, and
//!   the runtime parameters of the original launch. These use the line
//!   oriented format in [`meta`].
//!
//! Neither `serde_json` nor `bincode` is in the approved dependency set, so
//! both formats are implemented from scratch here. Both are round-trip exact
//! (property tested) and versioned.

//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct RankState { rank: u32, iteration: u64, data: codec::ByteBuf }
//!
//! let state = RankState { rank: 3, iteration: 42, data: vec![1, 2, 3].into() };
//! // Context-file round trip: encode, frame with a CRC, unframe, decode.
//! let payload = codec::to_bytes(&state).unwrap();
//! let framed = codec::write_frame(&payload);
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

pub mod binary;
pub mod bytebuf;
pub mod chunk;
pub mod crc32;
pub mod error;
pub mod frame;
pub mod meta;
pub mod varint;

pub use binary::{from_bytes, to_bytes, to_bytes_into};
pub use bytebuf::ByteBuf;
pub use chunk::{chunk_digest, ChunkManifest, ChunkRecord, SectionManifest};
pub use error::{Error, Result};
pub use frame::{into_payload, read_frame, to_framed_bytes, write_frame, write_frame_into};
pub use meta::MetaDoc;
