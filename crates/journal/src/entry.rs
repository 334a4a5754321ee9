//! The journal entry and its hash chain.
//!
//! Every entry's `hash` covers the entry's own content *and* the previous
//! entry's hash (`prev_hash`), so the newest hash commits to the entire
//! history: rewriting, reordering, or splicing any prefix breaks the
//! first link after the tampered record, and `verify` reports exactly
//! that seq.  Entry 0 chains from [`GENESIS_HASH`].

/// `prev_hash` of entry 0: a fixed, format-versioned seed (not a digest
/// of anything — there is no history yet to commit to).
pub const GENESIS_HASH: u64 = 0x6372_6a72_6e6c_3031; // "crjrnl01"

/// One journaled FT event.
///
/// Mirrors `cr_core::trace::TraceEvent` plus the chain fields; `seq` is
/// the journal's own append index (a journal outlives any single
/// `Tracer`, e.g. across restarts into the same runtime directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Rank/node attribution label (`rank3`, `node01`), empty for
    /// runtime-level events.
    pub actor: String,
    /// Registered trace-event phase (`cr_core::events`).
    pub phase: String,
    /// Free-form detail.
    pub detail: String,
    /// Nanoseconds since the recording tracer was created (diagnostic
    /// only: deterministic replay and diff ignore it).
    pub elapsed_ns: u64,
    /// Hash of the previous entry ([`GENESIS_HASH`] for entry 0).
    pub prev_hash: u64,
    /// Chain hash of this entry (see [`JournalEntry::compute_hash`]).
    pub hash: u64,
}
codec::wire_struct!(JournalEntry { seq, actor, phase, detail, elapsed_ns, prev_hash, hash });

impl JournalEntry {
    /// Build entry `seq` chained onto `prev_hash`, with `hash` filled in.
    pub fn chained(
        seq: u64,
        prev_hash: u64,
        actor: &str,
        phase: &str,
        detail: &str,
        elapsed_ns: u64,
    ) -> Self {
        let mut entry = JournalEntry {
            seq,
            actor: actor.to_string(),
            phase: phase.to_string(),
            detail: detail.to_string(),
            elapsed_ns,
            prev_hash,
            hash: 0,
        };
        entry.hash = entry.compute_hash();
        entry
    }

    /// The chain hash: `chunk_digest` over a canonical length-prefixed
    /// encoding of every field except `hash` itself.  Because `prev_hash`
    /// is covered, the hash commits to the whole journal prefix.
    pub fn compute_hash(&self) -> u64 {
        let mut buf = Vec::with_capacity(
            48 + self.actor.len() + self.phase.len() + self.detail.len(),
        );
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.prev_hash.to_le_bytes());
        buf.extend_from_slice(&self.elapsed_ns.to_le_bytes());
        for field in [&self.actor, &self.phase, &self.detail] {
            buf.extend_from_slice(&(field.len() as u64).to_le_bytes());
            buf.extend_from_slice(field.as_bytes());
        }
        codec::chunk_digest(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_fills_a_valid_hash() {
        let e = JournalEntry::chained(0, GENESIS_HASH, "rank0", "a.b", "x", 7);
        assert_eq!(e.hash, e.compute_hash());
        assert_eq!(e.prev_hash, GENESIS_HASH);
    }

    #[test]
    fn hash_covers_every_field() {
        let base = JournalEntry::chained(3, 42, "rank1", "p.q", "detail", 9);
        let mut variants = vec![base.clone(); 6];
        if let Some(v) = variants.get_mut(0) {
            v.seq = 4;
        }
        if let Some(v) = variants.get_mut(1) {
            v.actor = "rank2".into();
        }
        if let Some(v) = variants.get_mut(2) {
            v.phase = "p.r".into();
        }
        if let Some(v) = variants.get_mut(3) {
            v.detail = "detail!".into();
        }
        if let Some(v) = variants.get_mut(4) {
            v.elapsed_ns = 10;
        }
        if let Some(v) = variants.get_mut(5) {
            v.prev_hash = 43;
        }
        for v in &variants {
            assert_ne!(v.compute_hash(), base.hash, "field change must move the hash");
        }
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        // Length prefixes keep ("ab", "c") distinct from ("a", "bc").
        let a = JournalEntry::chained(0, GENESIS_HASH, "ab", "c.d", "", 0);
        let b = JournalEntry::chained(0, GENESIS_HASH, "a", "bc.d", "", 0);
        assert_ne!(a.hash, b.hash);
    }
}
