//! Fixture: the same types with every bulk field a `codec::ByteBuf`.

use codec::ByteBuf;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Section {
    pub name: String,
    pub bytes: ByteBuf,
}

#[derive(Debug, Serialize, Deserialize)]
pub enum Msg {
    Put { chunks: Vec<(u64, ByteBuf)> },
    Data { chunks: Vec<Option<ByteBuf>> },
    Ack,
}

#[derive(Serialize)]
pub struct Wrapped(pub u32, pub Option<ByteBuf>);

impl Section {
    /// `Vec<u8>` in signatures and bodies is fine: only fields are encoded.
    pub fn new(name: String, bytes: Vec<u8>) -> Self {
        let bytes: Vec<u8> = bytes;
        Section { name, bytes: bytes.into() }
    }
}
