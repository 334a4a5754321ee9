//! `ompi-snapshot-info` prints an interval's gather line in both forms a
//! tree may carry: the current `files=N bytes=B wall_us=W` and the older
//! `waves=… peak=… wall_us=… bytes=… links=…`.

use std::path::{Path, PathBuf};
use std::process::Command;

use cr_core::{GlobalSnapshot, IntervalRecord, JobId, LaunchRecord, LocalSnapshot, Rank};

/// A one-rank reference with one committed interval per line in `lines`,
/// each carrying that line as its gather stats.
fn tree(base: &Path, lines: &[&str]) -> PathBuf {
    let mut global = GlobalSnapshot::create(base, JobId(7), 1, &LaunchRecord::default()).unwrap();
    for line in lines {
        let (interval, dir) = global.begin_interval().unwrap();
        let local = LocalSnapshot::create(&dir, Rank(0), "self", interval, "node01").unwrap();
        local.finish().unwrap();
        let record = IntervalRecord {
            ranks: vec![(Rank(0), "node01".to_string())],
            gather_stats: Some(line.to_string()),
            ..IntervalRecord::default()
        };
        global.commit_interval(interval, &record).unwrap();
    }
    global.dir().to_path_buf()
}

#[test]
fn prints_the_current_and_the_older_gather_line() {
    let base = std::env::temp_dir().join(format!("tools_snapshot_info_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let reference = tree(
        &base,
        &[
            "files=12 bytes=2097152 wall_us=1000000",
            "waves=2 peak=1 wall_us=500000 bytes=1048576 links=0-1:524288,0-2:524288",
            "wall_us=7",
        ],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ompi-snapshot-info"))
        .arg(&reference)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout.contains("    gather: 12 files, 2097152 bytes in 1000000 us (2.0 MiB/s)\n"),
        "current form: {stdout}"
    );
    assert!(
        stdout.contains("    gather: ? files, 1048576 bytes in 500000 us (2.0 MiB/s)\n"),
        "older form: {stdout}"
    );
    assert!(stdout.contains("    gather (unparsed): wall_us=7\n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&base);
}
