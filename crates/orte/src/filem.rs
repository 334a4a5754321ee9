//! FILEM — the remote file management framework (paper §5.2/§6.2).
//!
//! FILEM moves checkpoint files between node-local disks and stable
//! storage: *gather* pulls every rank's local snapshot into the global
//! snapshot directory. Stable storage and the node directories share one
//! filesystem here, so restart needs no *broadcast*: it reads each local
//! snapshot where it lives (`ompi::init`). A component copies one tree;
//! batches of trees run through the one wave executor in
//! [`crate::sched`], which schedules transfers to avoid congesting the
//! network.
//!
//! One copier, [`CopyFilem`], copies a tree file by file on the host
//! filesystem (the trees are real; the copy takes the time it takes). It
//! is registered under two names:
//!
//! * **`rsh_sim`** (the default) — the paper's first component, `scp -r`
//!   from each node to stable storage.
//! * **`replica`** — peer-memory first (see [`crate::replica`]): SNAPC
//!   commits images into surviving daemons' memory and drains them to
//!   stable storage asynchronously (write-behind). The drain is this same
//!   copy.

use std::fs;
use std::path::{Path, PathBuf};

use mca::Framework;
use netsim::NodeId;

use cr_core::CrError;

/// Outcome of one FILEM operation: what it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilemReport {
    /// Files moved.
    pub files: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl FilemReport {
    /// Add the files and bytes of `other`.
    pub fn merge(&mut self, other: FilemReport) {
        self.files += other.files;
        self.bytes += other.bytes;
    }
}

/// One file movement request (a batch of these forms an operation).
#[derive(Debug, Clone)]
pub struct CopyRequest {
    /// Source tree (file or directory).
    pub src: PathBuf,
    /// Node the source lives on.
    pub src_node: NodeId,
    /// Destination path (created/overwritten).
    pub dest: PathBuf,
    /// Node the destination lives on.
    pub dest_node: NodeId,
}

/// A file management component.
pub trait FilemComponent: Send + Sync {
    /// Component name.
    fn name(&self) -> &'static str;

    /// Copy one tree.
    fn copy_tree(&self, req: &CopyRequest) -> Result<FilemReport, CrError>;
}

/// Recursively copy `src` to `dest`, adding each file to `report`.
fn copy_tree_files(src: &Path, dest: &Path, report: &mut FilemReport) -> Result<(), CrError> {
    let meta = fs::metadata(src).map_err(|e| CrError::io(src.display().to_string(), &e))?;
    if meta.is_file() {
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent).map_err(|e| CrError::io(parent.display().to_string(), &e))?;
        }
        fs::copy(src, dest).map_err(|e| CrError::io(src.display().to_string(), &e))?;
        report.merge(FilemReport { files: 1, bytes: meta.len() });
        return Ok(());
    }
    fs::create_dir_all(dest).map_err(|e| CrError::io(dest.display().to_string(), &e))?;
    let entries = fs::read_dir(src).map_err(|e| CrError::io(src.display().to_string(), &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| CrError::io(src.display().to_string(), &e))?;
        copy_tree_files(&entry.path(), &dest.join(entry.file_name()), report)?;
    }
    Ok(())
}

/// The one copier, under the name it was selected by.
pub struct CopyFilem(&'static str);

impl FilemComponent for CopyFilem {
    fn name(&self) -> &'static str {
        self.0
    }

    fn copy_tree(&self, req: &CopyRequest) -> Result<FilemReport, CrError> {
        let mut report = FilemReport::default();
        copy_tree_files(&req.src, &req.dest, &mut report)?;
        Ok(report)
    }
}

/// Assemble the FILEM framework (`rsh_sim` default, matching the paper's
/// first component). Selecting `replica` additionally switches SNAPC's
/// gather to commit into peer memory before the drain (see `snapc`).
pub fn filem_framework() -> Framework<dyn FilemComponent> {
    let mut fw: Framework<dyn FilemComponent> = Framework::new("filem");
    fw.register("rsh_sim", 20, "RSH/SCP remote copy of each local snapshot", |_| {
        Box::new(CopyFilem("rsh_sim"))
    });
    fw.register(
        "replica",
        5,
        "peer-memory replication with write-behind drain to stable storage",
        |_| Box::new(CopyFilem("replica")),
    );
    fw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orte_filem_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn make_tree(base: &Path) -> u64 {
        fs::create_dir_all(base.join("sub")).unwrap();
        fs::write(base.join("meta.data"), b"crs = blcr_sim\n").unwrap();
        fs::write(base.join("context.bin"), vec![0u8; 4096]).unwrap();
        fs::write(base.join("sub").join("extra"), vec![1u8; 100]).unwrap();
        15 + 4096 + 100
    }

    #[test]
    fn rsh_copies_tree_exactly() {
        let base = tmpdir("rsh");
        let src = base.join("src");
        let expected_bytes = make_tree(&src);
        let dest = base.join("dest");
        let filem = CopyFilem("rsh_sim");
        let report = filem
            .copy_tree(&CopyRequest {
                src: src.clone(),
                src_node: NodeId(1),
                dest: dest.clone(),
                dest_node: NodeId(0),
            })
            .unwrap();
        assert_eq!(report, FilemReport { files: 3, bytes: expected_bytes });
        assert_eq!(fs::read(dest.join("context.bin")).unwrap(), vec![0u8; 4096]);
        assert_eq!(
            fs::read(dest.join("sub").join("extra")).unwrap(),
            vec![1u8; 100]
        );
        assert!(dest.join("meta.data").is_file());
    }

    #[test]
    fn single_file_copy() {
        let base = tmpdir("single");
        let src = base.join("one.bin");
        fs::write(&src, vec![7u8; 64]).unwrap();
        let dest = base.join("out").join("one.bin");
        let filem = CopyFilem("replica");
        let report = filem
            .copy_tree(&CopyRequest {
                src,
                src_node: NodeId(0),
                dest: dest.clone(),
                dest_node: NodeId(0),
            })
            .unwrap();
        assert_eq!(report, FilemReport { files: 1, bytes: 64 });
        assert!(dest.is_file());
    }

    #[test]
    fn missing_source_is_io_error() {
        let base = tmpdir("missing");
        let filem = CopyFilem("rsh_sim");
        let err = filem
            .copy_tree(&CopyRequest {
                src: base.join("nope"),
                src_node: NodeId(0),
                dest: base.join("out"),
                dest_node: NodeId(0),
            })
            .unwrap_err();
        assert!(matches!(err, CrError::Io { .. }));
    }

    #[test]
    fn framework_selection() {
        let fw = filem_framework();
        let params = mca::McaParams::new();
        assert_eq!(fw.select(&params).unwrap().name(), "rsh_sim");
        params.set("filem", "replica");
        assert_eq!(fw.select(&params).unwrap().name(), "replica");
        params.set("filem", "oob_stream");
        assert!(fw.select(&params).is_err(), "one copier, two names");
    }
}
