//! Fixture: commit status read back from the snapshot authority.

use cr_core::{CommitState, GlobalSnapshot, IntervalRecord};

pub struct Stats {
    pub commit: CommitState,
}

/// Clean: the status comes from `commit_state`, never a hand-built value.
pub fn finish_interval(global: &mut GlobalSnapshot, interval: u64) -> Stats {
    global
        .local_commit_interval(interval, &IntervalRecord::default())
        .ok();
    global.promote_interval(interval, "waves=1").ok();
    Stats {
        commit: global.commit_state(interval),
    }
}

/// Clean: comparing against the lattice is a read.
pub fn is_restartable(s: &Stats) -> bool {
    s.commit == CommitState::GlobalCommitted
}
