//! Job and process naming shared by every layer.

use std::fmt;

/// Identifier of one parallel job (an `mpirun` invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);
codec::wire_struct!(JobId(_));

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// MPI rank within `MPI_COMM_WORLD` (ORTE calls this the vpid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);
codec::wire_struct!(Rank(_));

impl Rank {
    /// Rank as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Fully qualified process name: job plus rank (ORTE process name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessName {
    /// Owning job.
    pub job: JobId,
    /// Rank within the job.
    pub rank: Rank,
}
codec::wire_struct!(ProcessName { job, rank });

impl ProcessName {
    /// Construct from raw parts.
    pub fn new(job: JobId, rank: Rank) -> Self {
        ProcessName { job, rank }
    }
}

impl fmt::Display for ProcessName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.job, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let name = ProcessName::new(JobId(7), Rank(3));
        assert_eq!(name.to_string(), "[job7,3]");
        assert_eq!(JobId(7).to_string(), "job7");
        assert_eq!(Rank(3).to_string(), "3");
        assert_eq!(Rank(3).index(), 3);
    }

    #[test]
    fn ordering_is_job_then_rank() {
        let a = ProcessName::new(JobId(1), Rank(9));
        let b = ProcessName::new(JobId(2), Rank(0));
        assert!(a < b);
    }

    #[test]
    fn wire_roundtrip() {
        let name = ProcessName::new(JobId(4), Rank(2));
        let bytes = codec::to_bytes(&name);
        let back: ProcessName = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, name);
    }
}
