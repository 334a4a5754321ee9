//! Fixture: serialised data-path types carrying bulk bytes as `Vec<u8>`.

use serde::{Deserialize, Serialize};

/// Violation: a bare `Vec<u8>` field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Section {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// Violations: nested forms, in enum variants and in a tuple struct.
#[derive(Debug, Serialize, Deserialize)]
pub enum Msg {
    Put { chunks: Vec<(u64, Vec<u8>)> },
    Data { chunks: Vec<Option<Vec<u8>>> },
    Ack,
}

#[derive(Serialize)]
pub struct Wrapped(pub u32, pub Option<Vec<u8>>);

/// Allowed: not serialised, so the codec never sees the field.
#[derive(Debug, Clone)]
pub struct Scratch {
    pub buf: Vec<u8>,
}

/// Allowed: other element types are sequences of values, not byte runs.
#[derive(Serialize, Deserialize)]
pub struct Counts {
    pub per_rank: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test code is exempt.
    #[derive(Serialize)]
    struct Legacy {
        blob: Vec<u8>,
    }
}
