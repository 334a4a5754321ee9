//! Traffic accounting.
//!
//! The benchmarks need messages and bytes on the wire; the fabric keeps
//! both as job-wide totals. Nothing else is counted here: the CRCP
//! bookmark exchange counts messages per peer in the PML's `PmlState`
//! (crate `ompi`), not on the fabric.

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Total messages moved through the fabric.
    pub total_msgs: u64,
    /// Total payload bytes moved through the fabric.
    pub total_bytes: u64,
}
