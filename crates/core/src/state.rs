//! The `ft_event` notification states and trait.
//!
//! The paper's key maintainability device (§5.5): every subsystem that must
//! react to a checkpoint or restart implements one function,
//! `int ft_event(int state)`, which encapsulates *all* of that subsystem's
//! fault-tolerance logic. A driver routine (the INC, see [`crate::inc`])
//! calls each subsystem's `ft_event` in the proper order.

use std::fmt;

use crate::error::CrError;

/// The state of the checkpoint/restart protocol delivered to `ft_event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtEventState {
    /// A checkpoint has been requested: quiesce, flush, prepare to be
    /// imaged. Delivered *before* the local checkpoint is taken.
    Checkpoint,
    /// The checkpoint completed and the process keeps running in place.
    Continue,
    /// The process was just reconstructed from a snapshot (possibly on a
    /// different node): rebuild connections, refresh cached identifiers.
    Restart,
    /// The checkpoint attempt failed; undo any preparation.
    Error,
}
codec::wire_enum!(FtEventState { Checkpoint, Continue, Restart, Error });

impl FtEventState {
    /// All states, in no particular order (useful for exhaustive tests).
    pub const ALL: [FtEventState; 4] = [
        FtEventState::Checkpoint,
        FtEventState::Continue,
        FtEventState::Restart,
        FtEventState::Error,
    ];
}

impl fmt::Display for FtEventState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FtEventState::Checkpoint => "checkpoint",
            FtEventState::Continue => "continue",
            FtEventState::Restart => "restart",
            FtEventState::Error => "error",
        };
        f.write_str(s)
    }
}

/// Implemented by every subsystem that must react to checkpoint/restart.
///
/// Isolating the logic here is what made the original integration
/// maintainable: the subsystem's normal-path code contains no
/// fault-tolerance branches.
pub trait FtEvent {
    /// React to the given protocol state.
    fn ft_event(&mut self, state: FtEventState) -> Result<(), CrError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(FtEventState::Checkpoint.to_string(), "checkpoint");
        assert_eq!(FtEventState::Continue.to_string(), "continue");
        assert_eq!(FtEventState::Restart.to_string(), "restart");
        assert_eq!(FtEventState::Error.to_string(), "error");
    }

    #[test]
    fn all_is_exhaustive() {
        assert_eq!(FtEventState::ALL.len(), 4);
        let unique: std::collections::HashSet<_> = FtEventState::ALL.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn trait_object_usable() {
        struct Counter(u32);
        impl FtEvent for Counter {
            fn ft_event(&mut self, _state: FtEventState) -> Result<(), CrError> {
                self.0 += 1;
                Ok(())
            }
        }
        let mut c: Box<dyn FtEvent> = Box::new(Counter(0));
        for s in FtEventState::ALL {
            c.ft_event(s).unwrap();
        }
    }
}
