//! Umbrella crate for the Open MPI checkpoint/restart reproduction.
//!
//! Re-exports the public API of every layer and provides small helpers
//! shared by the integration tests and examples. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]

pub use codec;
pub use cr_core;
pub use mca;
pub use netsim;
pub use ompi;
pub use opal;
pub use orte;
pub use workloads;

use std::path::PathBuf;

use netsim::{LinkSpec, Topology};
use orte::Runtime;

/// Build a runtime over `nodes` gigabit-ethernet nodes, rooted in a fresh
/// temp directory namespaced by `tag` (tests and examples use this).
pub fn test_runtime(tag: &str, nodes: u32) -> Runtime {
    let dir = scratch_dir(tag);
    Runtime::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()), dir)
        .expect("runtime setup")
}

/// A fresh scratch directory namespaced by `tag`, process, and thread.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ompi_cr_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_runtime_builds() {
        let rt = test_runtime("umbrella", 2);
        assert_eq!(rt.topology().len(), 2);
        assert!(rt.stable_dir().is_dir());
        rt.shutdown();
    }

    /// The "app" image section is the application's own encoding, one
    /// tagged `f64` (9 bytes) per cell. `benchmark/src/app.rs` aligns its
    /// dirty regions to 64 KiB chunks of exactly this layout
    /// (`CHUNK_CELLS = 7282`), so the layout may change only together with
    /// that constant. Captured from the build before PR 20.
    #[test]
    fn stencil_state_encoding_is_pinned() {
        let state = workloads::stencil::StencilState {
            iter: 3,
            cells: vec![1.0, -0.5],
            residual: 0.25,
        };
        let pinned: &[u8] = &[
            0x10, 0x03, 0x04, 0x69, 0x74, 0x65, 0x72, 0x04, 0x03, 0x05, 0x63, 0x65, 0x6c, 0x6c, 0x73,
            0x0e, 0x02, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x08, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0xe0, 0xbf, 0x08, 0x72, 0x65, 0x73, 0x69, 0x64, 0x75, 0x61, 0x6c, 0x08,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
        ];
        assert_eq!(codec::to_bytes(&state), pinned);
    }
}
