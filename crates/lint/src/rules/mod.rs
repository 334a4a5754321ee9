//! The eight rule families (see crate docs and DESIGN.md "Static analysis").

pub mod commit_state;
pub mod dead_events;
pub mod dead_pub;
pub mod ft_event;
pub mod lock_order;
pub mod mca_keys;
pub mod panic_path;
pub mod trace_keys;
