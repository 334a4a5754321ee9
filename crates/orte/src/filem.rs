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
//! Components:
//!
//! * **`rsh_sim`** — models `scp -r`: one session per *file*, so the
//!   simulated cost carries a per-file overhead on top of the wire time.
//! * **`oob_stream`** — models streaming a whole tree through one
//!   connection (tar-over-ssh style): one session per *tree*.
//! * **`replica`** — peer-memory first (see [`crate::replica`]): SNAPC
//!   commits images into surviving daemons' memory and drains them to
//!   stable storage asynchronously (write-behind). Its `copy_tree` is the
//!   drain engine — `oob_stream`'s streamed copy with a near-zero
//!   session setup, since the stream originates from memory, not an `scp`
//!   handshake.
//!
//! All components physically copy files on the host filesystem (the trees
//! are real); only the *cost* is simulated, via the topology's link model.

use std::fs;
use std::path::{Path, PathBuf};

use mca::Framework;
use netsim::{NetView, NodeId, SimTime};

use cr_core::CrError;

/// Outcome of one FILEM operation.
///
/// Parallel gathers make "the cost" two different numbers: the total
/// simulated transfer time summed over every copy (the work the cluster
/// did), and the simulated wall-clock span of the operation (what the
/// caller waited). Sequential operations report the same value for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilemReport {
    /// Files moved.
    pub files: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Total simulated transfer time summed over every copy, as if they
    /// ran back to back.
    pub serialized_cost: SimTime,
    /// Simulated wall-clock span: with parallel lanes, the longest lane.
    pub critical_path_cost: SimTime,
}

impl FilemReport {
    /// A report for one indivisible operation costing `cost` of both
    /// serialized and wall-clock time.
    pub fn single(files: u64, bytes: u64, cost: SimTime) -> Self {
        FilemReport {
            files,
            bytes,
            serialized_cost: cost,
            critical_path_cost: cost,
        }
    }

    /// Accumulate a report that ran *after* this one (sequential
    /// composition): both cost figures add.
    pub fn merge(&mut self, other: FilemReport) {
        self.files += other.files;
        self.bytes += other.bytes;
        self.serialized_cost += other.serialized_cost;
        self.critical_path_cost += other.critical_path_cost;
    }

    /// Accumulate a report that ran *concurrently* with this one:
    /// serialized cost adds, wall clock is the longer of the two.
    pub fn merge_parallel(&mut self, other: FilemReport) {
        self.files += other.files;
        self.bytes += other.bytes;
        self.serialized_cost += other.serialized_cost;
        self.critical_path_cost = self.critical_path_cost.max(other.critical_path_cost);
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
    fn copy_tree(&self, net: NetView<'_>, req: &CopyRequest) -> Result<FilemReport, CrError>;
}

/// Recursively copy `src` to `dest`, returning per-file sizes.
fn copy_tree_files(src: &Path, dest: &Path) -> Result<Vec<u64>, CrError> {
    let mut sizes = Vec::new();
    let meta = fs::metadata(src).map_err(|e| CrError::io(src.display().to_string(), &e))?;
    if meta.is_file() {
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent).map_err(|e| CrError::io(parent.display().to_string(), &e))?;
        }
        fs::copy(src, dest).map_err(|e| CrError::io(src.display().to_string(), &e))?;
        sizes.push(meta.len());
        return Ok(sizes);
    }
    fs::create_dir_all(dest).map_err(|e| CrError::io(dest.display().to_string(), &e))?;
    let entries = fs::read_dir(src).map_err(|e| CrError::io(src.display().to_string(), &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| CrError::io(src.display().to_string(), &e))?;
        let name = entry.file_name();
        sizes.extend(copy_tree_files(&entry.path(), &dest.join(name))?);
    }
    Ok(sizes)
}

/// `scp`-style copier: one session per file.
pub struct RshSimFilem;

/// Simulated setup time of one `scp` session.
const RSH_SESSION: SimTime = SimTime::from_millis(120);

impl FilemComponent for RshSimFilem {
    fn name(&self) -> &'static str {
        "rsh_sim"
    }

    fn copy_tree(&self, net: NetView<'_>, req: &CopyRequest) -> Result<FilemReport, CrError> {
        let sizes = copy_tree_files(&req.src, &req.dest)?;
        let mut cost = SimTime::ZERO;
        let mut bytes = 0u64;
        for size in &sizes {
            cost += RSH_SESSION + net.cost(req.src_node, req.dest_node, *size as usize);
            bytes += size;
        }
        Ok(FilemReport::single(sizes.len() as u64, bytes, cost))
    }
}

/// Streaming copier: a whole tree through one session. Registered under
/// two names that differ in what a session costs to set up.
pub struct StreamFilem {
    name: &'static str,
    session: SimTime,
}

impl StreamFilem {
    /// `oob_stream`: tar-over-ssh style, one connection establishment per
    /// tree.
    pub const OOB_STREAM: StreamFilem = StreamFilem {
        name: "oob_stream",
        session: SimTime::from_millis(20),
    };
    /// `replica`: the write-behind drain / stable-fallback engine of the
    /// replica store. The stream originates from memory, not an `scp`
    /// handshake, so its session setup is near zero. Selecting
    /// `filem=replica` additionally switches SNAPC's gather to commit into
    /// peer memory before the drain (see `snapc`); this `copy_tree` is what
    /// the asynchronous drain runs on.
    pub const REPLICA: StreamFilem = StreamFilem {
        name: "replica",
        session: SimTime::from_millis(2),
    };
}

impl FilemComponent for StreamFilem {
    fn name(&self) -> &'static str {
        self.name
    }

    fn copy_tree(&self, net: NetView<'_>, req: &CopyRequest) -> Result<FilemReport, CrError> {
        let sizes = copy_tree_files(&req.src, &req.dest)?;
        let bytes: u64 = sizes.iter().sum();
        let cost = self.session + net.cost(req.src_node, req.dest_node, bytes as usize);
        Ok(FilemReport::single(sizes.len() as u64, bytes, cost))
    }
}

/// Assemble the FILEM framework (`rsh_sim` default, matching the paper's
/// first component).
pub fn filem_framework() -> Framework<dyn FilemComponent> {
    let mut fw: Framework<dyn FilemComponent> = Framework::new("filem");
    fw.register(
        "rsh_sim",
        20,
        "RSH/SCP remote copy, one session per file",
        |_| Box::new(RshSimFilem),
    );
    fw.register(
        "oob_stream",
        10,
        "streamed tree copy over one connection",
        |_| Box::new(StreamFilem::OOB_STREAM),
    );
    fw.register(
        "replica",
        5,
        "peer-memory replication with write-behind drain to stable storage",
        |_| Box::new(StreamFilem::REPLICA),
    );
    fw
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, Topology};

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

    fn topo() -> Topology {
        Topology::uniform(3, LinkSpec::gigabit_ethernet())
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
        let filem = RshSimFilem;
        let report = filem
            .copy_tree(
                NetView::uncontended(&topo()),
                &CopyRequest {
                    src: src.clone(),
                    src_node: NodeId(1),
                    dest: dest.clone(),
                    dest_node: NodeId(0),
                },
            )
            .unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, expected_bytes);
        assert!(report.serialized_cost > SimTime::ZERO);
        assert_eq!(report.serialized_cost, report.critical_path_cost);
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
        let filem = StreamFilem::OOB_STREAM;
        let report = filem
            .copy_tree(
                NetView::uncontended(&topo()),
                &CopyRequest {
                    src,
                    src_node: NodeId(0),
                    dest: dest.clone(),
                    dest_node: NodeId(0),
                },
            )
            .unwrap();
        assert_eq!(report.files, 1);
        assert_eq!(report.bytes, 64);
        assert!(dest.is_file());
    }

    #[test]
    fn missing_source_is_io_error() {
        let base = tmpdir("missing");
        let filem = RshSimFilem;
        let err = filem
            .copy_tree(
                NetView::uncontended(&topo()),
                &CopyRequest {
                    src: base.join("nope"),
                    src_node: NodeId(0),
                    dest: base.join("out"),
                    dest_node: NodeId(0),
                },
            )
            .unwrap_err();
        assert!(matches!(err, CrError::Io { .. }));
    }

    #[test]
    fn per_file_overhead_vs_streaming() {
        // Many small files: rsh (per-file sessions) must cost more than
        // oob_stream (one session) — the A5 ablation's core effect.
        let base = tmpdir("overhead");
        let src = base.join("src");
        fs::create_dir_all(&src).unwrap();
        for i in 0..50 {
            fs::write(src.join(format!("f{i}")), vec![0u8; 128]).unwrap();
        }
        let rsh = RshSimFilem;
        let stream = StreamFilem::OOB_STREAM;
        let req = |dest: &str| CopyRequest {
            src: src.clone(),
            src_node: NodeId(1),
            dest: base.join(dest),
            dest_node: NodeId(0),
        };
        let rsh_report = rsh.copy_tree(NetView::uncontended(&topo()), &req("rsh_out")).unwrap();
        let stream_report = stream.copy_tree(NetView::uncontended(&topo()), &req("stream_out")).unwrap();
        assert_eq!(rsh_report.bytes, stream_report.bytes);
        assert!(rsh_report.serialized_cost > stream_report.serialized_cost * 5);
    }

    #[test]
    fn framework_selection() {
        let fw = filem_framework();
        let params = mca::McaParams::new();
        assert_eq!(fw.select(&params).unwrap().name(), "rsh_sim");
        params.set("filem", "oob_stream");
        assert_eq!(fw.select(&params).unwrap().name(), "oob_stream");
        params.set("filem", "replica");
        assert_eq!(fw.select(&params).unwrap().name(), "replica");
    }

    #[test]
    fn merge_sequential_vs_parallel_cost_composition() {
        let a = FilemReport::single(1, 100, SimTime::from_millis(10));
        let b = FilemReport::single(2, 200, SimTime::from_millis(30));
        let mut seq = a;
        seq.merge(b);
        assert_eq!(seq.files, 3);
        assert_eq!(seq.bytes, 300);
        assert_eq!(seq.serialized_cost, SimTime::from_millis(40));
        assert_eq!(seq.critical_path_cost, SimTime::from_millis(40));
        let mut par = a;
        par.merge_parallel(b);
        assert_eq!(par.files, 3);
        assert_eq!(par.bytes, 300);
        assert_eq!(par.serialized_cost, SimTime::from_millis(40));
        assert_eq!(par.critical_path_cost, SimTime::from_millis(30));
    }

    #[test]
    fn replica_session_is_cheapest() {
        // The drain streams from memory: its per-tree session setup must
        // undercut even oob_stream's connection establishment.
        let base = tmpdir("replica_session");
        let src = base.join("src");
        make_tree(&src);
        let stream = StreamFilem::OOB_STREAM;
        let replica = StreamFilem::REPLICA;
        let req = |dest: &str| CopyRequest {
            src: src.clone(),
            src_node: NodeId(1),
            dest: base.join(dest),
            dest_node: NodeId(0),
        };
        let s = stream.copy_tree(NetView::uncontended(&topo()), &req("stream_out")).unwrap();
        let r = replica.copy_tree(NetView::uncontended(&topo()), &req("replica_out")).unwrap();
        assert_eq!(s.bytes, r.bytes);
        assert!(r.serialized_cost < s.serialized_cost);
        assert!(base.join("replica_out").join("context.bin").is_file());
    }
}
