//! Wire format of MPI traffic over the fabric.
//!
//! Two traffic classes share each process's fabric endpoint, distinguished
//! by the netsim tag:
//!
//! * **application frames** ([`CLASS_APP`]) — MPI point-to-point messages
//!   (collectives decompose into these). A fixed 20-byte header carries
//!   the communicator context, the MPI tag, and a per-(sender, receiver)
//!   sequence number used for duplicate suppression after partial-restart
//!   replay.
//! * **CRCP control frames** ([`CLASS_CRCP`]) — coordination protocol
//!   traffic (bookmarks, quiesce acknowledgements, aborts). Not counted
//!   by the bookmarks themselves. A partial restart sends none: the
//!   recovery replays the survivors' logs itself
//!   ([`PmlShared::rejoin_peer`](crate::pml::PmlShared::rejoin_peer)).

use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::MpiError;

/// netsim tag for application frames.
pub const CLASS_APP: u64 = 1;
/// netsim tag for CRCP control frames.
pub const CLASS_CRCP: u64 = 2;

/// Bytes of the application frame header.
pub const HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Smallest frame whose payload stays in its wire buffer: a [`WirePool`]
/// encodes it into a recycled buffer and [`decode_app`] slices it. A
/// fresh large buffer costs a page fault per page it touches, and a large
/// copy costs more than holding the buffer. Smaller frames stay on the
/// allocator, which already reuses small freed blocks, and their payload
/// is copied out at decode so the sender's buffer is freed at once.
const LARGE_FRAME: usize = 64 * 1024;

/// Most bytes of buffer capacity one [`WirePool`] keeps free.
const POOL_MAX_BYTES: usize = 32 * 1024 * 1024;

/// A decoded application frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppFrame {
    /// Sender's world rank.
    pub src: u32,
    /// Communicator context id.
    pub ctx: u32,
    /// MPI tag.
    pub tag: u32,
    /// Per-(src, dst) sequence number.
    pub seq: u64,
    /// Payload bytes, shared by every copy of the frame: a view of the
    /// delivered wire buffer for a frame of at least 64 KiB.
    pub payload: Bytes,
}
codec::wire_struct!(AppFrame { src, ctx, tag, seq, payload });

/// Append the header and payload of an application frame to `buf`.
fn put_app(buf: &mut Vec<u8>, src: u32, ctx: u32, tag: u32, seq: u64, payload: &[u8]) {
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&ctx.to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encode an application frame into a fresh buffer.
pub fn encode_app(src: u32, ctx: u32, tag: u32, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    put_app(&mut buf, src, ctx, tag, seq, payload);
    Bytes::from(buf)
}

/// Decode a delivered wire buffer into an application frame. The payload
/// of a large frame shares the buffer; a small one gets its own.
pub fn decode_app(wire: &Bytes) -> Result<AppFrame, MpiError> {
    let Some((header, rest)) = wire.split_first_chunk::<HEADER_LEN>() else {
        return Err(MpiError::PeerLost {
            detail: format!("application frame too short: {} bytes", wire.len()),
        });
    };
    let [s0, s1, s2, s3, c0, c1, c2, c3, t0, t1, t2, t3, q0, q1, q2, q3, q4, q5, q6, q7] = *header;
    Ok(AppFrame {
        src: u32::from_le_bytes([s0, s1, s2, s3]),
        ctx: u32::from_le_bytes([c0, c1, c2, c3]),
        tag: u32::from_le_bytes([t0, t1, t2, t3]),
        seq: u64::from_le_bytes([q0, q1, q2, q3, q4, q5, q6, q7]),
        payload: if wire.len() >= LARGE_FRAME {
            wire.slice(HEADER_LEN..)
        } else {
            // Measured faster than holding the sender's small allocation
            // until the receiver's step ends (EXPERIMENTS.md A19).
            Bytes::copy_from_slice(rest)
        },
    })
}

/// One process's free list of large wire buffers. A frame of at least
/// [`LARGE_FRAME`] bytes is encoded into a buffer from the list, and
/// the buffer returns to the list when the last view of it drops (the
/// receiver's step log, unexpected queue or completion, or the sender's
/// message log). The list keeps at most [`POOL_MAX_BYTES`] of capacity.
#[derive(Default)]
pub(crate) struct WirePool {
    free: Arc<Mutex<FreeList>>,
}

#[derive(Default)]
struct FreeList {
    bufs: Vec<Vec<u8>>,
    /// Sum of the capacities in `bufs`.
    bytes: usize,
}

impl FreeList {
    /// A free buffer that holds `len` bytes without growing.
    fn take(&mut self, len: usize) -> Option<Vec<u8>> {
        let at = self.bufs.iter().rposition(|b| b.capacity() >= len)?;
        let buf = self.bufs.swap_remove(at);
        self.bytes -= buf.capacity();
        Some(buf)
    }

    /// Keep `buf`, emptied, unless that would pass the byte cap.
    fn put(&mut self, mut buf: Vec<u8>) {
        if self.bytes + buf.capacity() <= POOL_MAX_BYTES {
            buf.clear();
            self.bytes += buf.capacity();
            self.bufs.push(buf);
        }
    }
}

/// A wire buffer on loan from a [`WirePool`].
struct Pooled {
    buf: Vec<u8>,
    home: Weak<Mutex<FreeList>>,
}

impl AsRef<[u8]> for Pooled {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        if let Some(home) = self.home.upgrade() {
            home.lock().put(std::mem::take(&mut self.buf));
        }
    }
}

impl WirePool {
    /// Encode an application frame, into a recycled buffer when it is
    /// large enough to be worth one.
    pub(crate) fn encode_app(
        &self,
        src: u32,
        ctx: u32,
        tag: u32,
        seq: u64,
        payload: &[u8],
    ) -> Bytes {
        let len = HEADER_LEN + payload.len();
        if len < LARGE_FRAME {
            return encode_app(src, ctx, tag, seq, payload);
        }
        let recycled = self.free.lock().take(len);
        let mut buf = recycled.unwrap_or_else(|| Vec::with_capacity(len));
        put_app(&mut buf, src, ctx, tag, seq, payload);
        Bytes::from_owner(Pooled {
            buf,
            home: Arc::downgrade(&self.free),
        })
    }
}

/// CRCP control messages. Each carries the epoch of the checkpoint order
/// it belongs to (SNAPC numbers every initiation), so a round never counts
/// a message of another round; bytes from a build without epochs decode
/// as epoch 0.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrcpMsg {
    /// Bookmark: "I have sent you `sent` application messages so far"
    /// (the coordinated protocol's whole-message refinement of LAM/MPI's
    /// byte counts).
    Bookmark {
        /// Sender's world rank.
        from: u32,
        /// The checkpoint order's epoch.
        epoch: u64,
        /// Messages sent from `from` to the destination so far.
        sent: u64,
    },
    /// Exit barrier for the coordinated protocol: "my channels are
    /// quiesced". A rank that finished draining must not resume the
    /// application (and send new traffic) until every peer has verified
    /// its bookmarks, or the new traffic lands in a slower peer's drain
    /// window and overruns its bookmark.
    Quiesced {
        /// Sender's world rank.
        from: u32,
        /// The checkpoint order's epoch.
        epoch: u64,
    },
    /// "I will not finish this epoch": the sender refused the order or
    /// its round failed. Every peer's round for the epoch ends aborted.
    Aborted {
        /// Sender's world rank.
        from: u32,
        /// The checkpoint order's epoch.
        epoch: u64,
    },
}
codec::wire_enum!(CrcpMsg {
    Bookmark { from, #[default] epoch, sent },
    Quiesced { from, #[default] epoch },
    Aborted { from, #[default] epoch },
});

impl CrcpMsg {
    /// The coordination epoch the message belongs to.
    pub fn epoch(&self) -> u64 {
        *self.clone().epoch_mut()
    }

    /// The coordination epoch, writable.
    pub fn epoch_mut(&mut self) -> &mut u64 {
        match self {
            CrcpMsg::Bookmark { epoch, .. }
            | CrcpMsg::Quiesced { epoch, .. }
            | CrcpMsg::Aborted { epoch, .. } => epoch,
        }
    }
}

/// Encode a CRCP control message.
pub fn encode_crcp(msg: &CrcpMsg) -> Bytes {
    Bytes::from(codec::to_bytes(msg))
}

/// Decode a CRCP control message.
pub fn decode_crcp(bytes: &[u8]) -> Result<CrcpMsg, MpiError> {
    Ok(codec::from_bytes(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_frame_roundtrip() {
        let wire = encode_app(3, 7, 42, 19, b"payload");
        let frame = decode_app(&wire).unwrap();
        assert_eq!(
            frame,
            AppFrame {
                src: 3,
                ctx: 7,
                tag: 42,
                seq: 19,
                payload: Bytes::from_static(b"payload"),
            }
        );
    }

    #[test]
    fn empty_payload_roundtrip() {
        let wire = encode_app(0, 0, 0, 0, &[]);
        assert_eq!(wire.len(), HEADER_LEN);
        let frame = decode_app(&wire).unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn short_frame_rejected() {
        assert!(decode_app(&Bytes::from_static(&[1, 2, 3])).is_err());
        assert!(decode_app(&Bytes::from_static(&[0; HEADER_LEN - 1])).is_err());
    }

    #[test]
    fn crcp_roundtrip() {
        for msg in [
            CrcpMsg::Bookmark { from: 1, epoch: 4, sent: 99 },
            CrcpMsg::Quiesced { from: 3, epoch: 4 },
            CrcpMsg::Aborted { from: 2, epoch: 5 },
        ] {
            let wire = encode_crcp(&msg);
            assert_eq!(decode_crcp(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn classes_are_distinct() {
        assert_ne!(CLASS_APP, CLASS_CRCP);
    }

    /// `codec::to_bytes` of each message as the build before `codec::Wire`
    /// replaced the generic (de)serializer wrote it.
    #[test]
    fn crcp_messages_and_app_frames_keep_their_parent_encoding() {
        let crcp: [(CrcpMsg, &[u8]); 2] = [
            (
                CrcpMsg::Bookmark { from: 1, epoch: 0, sent: 99 },
                &[
                    0x14, 0x08, 0x42, 0x6f, 0x6f, 0x6b, 0x6d, 0x61, 0x72, 0x6b, 0x02, 0x04, 0x66,
                    0x72, 0x6f, 0x6d, 0x04, 0x01, 0x04, 0x73, 0x65, 0x6e, 0x74, 0x04, 0x63,
                ],
            ),
            (
                CrcpMsg::Quiesced { from: 3, epoch: 0 },
                &[
                    0x14, 0x08, 0x51, 0x75, 0x69, 0x65, 0x73, 0x63, 0x65, 0x64, 0x01, 0x04, 0x66,
                    0x72, 0x6f, 0x6d, 0x04, 0x03,
                ],
            ),
        ];
        for (msg, parent) in crcp {
            // Parent bytes decode; both messages are written with their
            // epoch since.
            assert_eq!(decode_crcp(parent).unwrap(), msg);
        }

        // An `AppFrame` as the pml section holds it: a struct whose payload
        // is one raw run.
        const PARENT_FRAME: &[u8] = &[
            0x10, 0x05, 0x03, 0x73, 0x72, 0x63, 0x04, 0x03, 0x03, 0x63, 0x74, 0x78, 0x04, 0x07,
            0x03, 0x74, 0x61, 0x67, 0x04, 0x2a, 0x03, 0x73, 0x65, 0x71, 0x04, 0x13, 0x07, 0x70,
            0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x07, 0x70, 0x61, 0x79, 0x6c, 0x6f, 0x61,
            0x64,
        ];
        let frame = decode_app(&encode_app(3, 7, 42, 19, b"payload")).unwrap();
        assert_eq!(codec::to_bytes(&frame), PARENT_FRAME);
        assert_eq!(codec::from_bytes::<AppFrame>(PARENT_FRAME).unwrap(), frame);
    }

    fn pooled_bytes(pool: &WirePool) -> (usize, usize) {
        let free = pool.free.lock();
        (free.bufs.len(), free.bytes)
    }

    #[test]
    fn only_a_large_payload_stays_in_its_wire_buffer() {
        let small = encode_app(0, 0, 0, 0, &[1; 64]);
        let own = decode_app(&small).unwrap().payload;
        assert_eq!(own, &[1u8; 64][..]);
        assert_ne!(own.as_ptr(), small[HEADER_LEN..].as_ptr());
        let large = encode_app(0, 0, 0, 0, &vec![2; LARGE_FRAME - HEADER_LEN]);
        let view = decode_app(&large).unwrap().payload;
        assert_eq!(view.as_ptr(), large[HEADER_LEN..].as_ptr());
    }

    #[test]
    fn small_frames_are_never_pooled() {
        let pool = WirePool::default();
        for _ in 0..4 {
            let wire = pool.encode_app(0, 0, 0, 0, &[7; 64]);
            assert_eq!(decode_app(&wire).unwrap().payload, &[7u8; 64][..]);
        }
        let just_under = pool.encode_app(0, 0, 0, 0, &vec![1; LARGE_FRAME - HEADER_LEN - 1]);
        drop(just_under);
        assert_eq!(pooled_bytes(&pool), (0, 0));
    }

    #[test]
    fn a_large_frame_returns_to_the_pool_with_its_last_view() {
        let pool = WirePool::default();
        let wire = pool.encode_app(1, 2, 3, 4, &vec![9; LARGE_FRAME]);
        let payload = decode_app(&wire).unwrap().payload;
        drop(wire);
        assert_eq!(pooled_bytes(&pool).0, 0, "the payload view keeps it on loan");
        let at = payload.as_ptr();
        drop(payload);
        assert_eq!(pooled_bytes(&pool).0, 1);
        let again = pool.encode_app(1, 2, 3, 5, &vec![8; LARGE_FRAME]);
        assert_eq!(decode_app(&again).unwrap().payload.as_ptr(), at);
        assert_eq!(pooled_bytes(&pool), (0, 0));
    }

    #[test]
    fn the_pool_never_holds_more_than_its_cap() {
        let pool = WirePool::default();
        let frame = 1 << 20;
        let live: Vec<Bytes> = (0..POOL_MAX_BYTES / frame + 3)
            .map(|i| pool.encode_app(0, 0, 0, i as u64, &vec![0; frame]))
            .collect();
        drop(live);
        let (bufs, bytes) = pooled_bytes(&pool);
        assert!(bytes <= POOL_MAX_BYTES, "{bytes} B pooled");
        assert!(bufs > 0 && bytes + frame + HEADER_LEN > POOL_MAX_BYTES, "{bufs} buffers, {bytes} B");
    }

    #[test]
    fn a_shorter_frame_in_a_recycled_buffer_decodes_to_its_own_payload() {
        let pool = WirePool::default();
        drop(pool.encode_app(0, 0, 0, 0, &vec![0xEE; 2 * LARGE_FRAME]));
        assert_eq!(pooled_bytes(&pool).0, 1);
        let short: Vec<u8> = (0..LARGE_FRAME).map(|i| i as u8).collect();
        let wire = pool.encode_app(5, 6, 7, 8, &short);
        assert_eq!(pooled_bytes(&pool).0, 0, "the larger buffer was reused");
        assert_eq!(wire.len(), HEADER_LEN + short.len());
        let frame = decode_app(&wire).unwrap();
        assert_eq!((frame.src, frame.ctx, frame.tag, frame.seq), (5, 6, 7, 8));
        assert_eq!(frame.payload, short);
    }

    /// A pool that dies before its loans frees them instead.
    #[test]
    fn a_loan_outlives_its_pool() {
        let pool = WirePool::default();
        let wire = pool.encode_app(0, 0, 0, 0, &vec![3; LARGE_FRAME]);
        drop(pool);
        assert_eq!(decode_app(&wire).unwrap().payload.len(), LARGE_FRAME);
    }
}
