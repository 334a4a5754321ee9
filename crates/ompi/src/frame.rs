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
//!   traffic (bookmarks, quiesce acknowledgements, the replay handshake).
//!   Not counted by the bookmarks themselves.

use bytes::{Bytes, BytesMut};

use crate::error::MpiError;

/// netsim tag for application frames.
pub const CLASS_APP: u64 = 1;
/// netsim tag for CRCP control frames.
pub const CLASS_CRCP: u64 = 2;

/// Bytes of the application frame header.
pub const HEADER_LEN: usize = 4 + 4 + 4 + 8;

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
    /// Payload bytes.
    pub payload: Vec<u8>,
}
codec::wire_struct!(AppFrame { src, ctx, tag, seq, payload });

/// Encode an application frame into wire bytes.
pub fn encode_app(src: u32, ctx: u32, tag: u32, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&ctx.to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    buf.freeze()
}

/// Decode wire bytes into an application frame.
pub fn decode_app(bytes: &[u8]) -> Result<AppFrame, MpiError> {
    if bytes.len() < HEADER_LEN {
        return Err(MpiError::PeerLost {
            detail: format!("application frame too short: {} bytes", bytes.len()),
        });
    }
    Ok(AppFrame {
        src: u32::from_le_bytes(bytes[0..4].try_into().expect("4")),
        ctx: u32::from_le_bytes(bytes[4..8].try_into().expect("4")),
        tag: u32::from_le_bytes(bytes[8..12].try_into().expect("4")),
        seq: u64::from_le_bytes(bytes[12..20].try_into().expect("8")),
        payload: bytes[HEADER_LEN..].to_vec(),
    })
}

/// CRCP control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrcpMsg {
    /// Bookmark: "I have sent you `sent` application messages so far"
    /// (the coordinated protocol's whole-message refinement of LAM/MPI's
    /// byte counts).
    Bookmark {
        /// Sender's world rank.
        from: u32,
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
    },
    /// Partial-restart replay handshake, restarted rank -> survivor:
    /// "I was restored from the last committed interval onto a new
    /// endpoint; re-point your channel at `endpoint` and replay every
    /// logged message you sent me since that interval's quiesce". The
    /// survivor pauses only for the replay, not for a job-wide rollback.
    ReplayBegin {
        /// The restarted rank.
        from: u32,
        /// Its new fabric endpoint id (the old one died with the node).
        endpoint: u64,
    },
    /// Partial-restart replay handshake, survivor -> restarted rank:
    /// "my logged backlog for you has been resent; everything I send
    /// after this is new traffic". Per-channel FIFO ordering makes this
    /// the fence between replayed and fresh messages.
    ReplayDone {
        /// The surviving rank that finished replaying.
        from: u32,
    },
}
codec::wire_enum!(CrcpMsg {
    Bookmark { from, sent },
    Quiesced { from },
    ReplayBegin { from, endpoint },
    ReplayDone { from },
});

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
                payload: b"payload".to_vec(),
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
        assert!(decode_app(&[1, 2, 3]).is_err());
    }

    #[test]
    fn crcp_roundtrip() {
        for msg in [
            CrcpMsg::Bookmark { from: 1, sent: 99 },
            CrcpMsg::Quiesced { from: 3 },
            CrcpMsg::ReplayBegin {
                from: 4,
                endpoint: 77,
            },
            CrcpMsg::ReplayDone { from: 5 },
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
        let crcp: [(CrcpMsg, &[u8]); 4] = [
            (
                CrcpMsg::Bookmark { from: 1, sent: 99 },
                &[
                    0x14, 0x08, 0x42, 0x6f, 0x6f, 0x6b, 0x6d, 0x61, 0x72, 0x6b, 0x02, 0x04, 0x66,
                    0x72, 0x6f, 0x6d, 0x04, 0x01, 0x04, 0x73, 0x65, 0x6e, 0x74, 0x04, 0x63,
                ],
            ),
            (
                CrcpMsg::Quiesced { from: 3 },
                &[
                    0x14, 0x08, 0x51, 0x75, 0x69, 0x65, 0x73, 0x63, 0x65, 0x64, 0x01, 0x04, 0x66,
                    0x72, 0x6f, 0x6d, 0x04, 0x03,
                ],
            ),
            (
                CrcpMsg::ReplayBegin {
                    from: 4,
                    endpoint: 77,
                },
                &[
                    0x14, 0x0b, 0x52, 0x65, 0x70, 0x6c, 0x61, 0x79, 0x42, 0x65, 0x67, 0x69, 0x6e,
                    0x02, 0x04, 0x66, 0x72, 0x6f, 0x6d, 0x04, 0x04, 0x08, 0x65, 0x6e, 0x64, 0x70,
                    0x6f, 0x69, 0x6e, 0x74, 0x04, 0x4d,
                ],
            ),
            (
                CrcpMsg::ReplayDone { from: 5 },
                &[
                    0x14, 0x0a, 0x52, 0x65, 0x70, 0x6c, 0x61, 0x79, 0x44, 0x6f, 0x6e, 0x65, 0x01,
                    0x04, 0x66, 0x72, 0x6f, 0x6d, 0x04, 0x05,
                ],
            ),
        ];
        for (msg, parent) in crcp {
            assert_eq!(&encode_crcp(&msg)[..], parent, "{msg:?}");
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
}
