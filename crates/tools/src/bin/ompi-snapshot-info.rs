//! `ompi-snapshot-info` — inspect a snapshot reference.
//!
//! ```text
//! ompi-snapshot-info <global-snapshot-ref>
//! ```
//!
//! Prints the jobid, rank count, committed intervals, per-rank local
//! snapshot details (checkpointer, host, size), what each interval's
//! gather to stable storage moved (files, bytes, wall time, MiB/s, read
//! from its `gather_stats` line, current or older form), and the recorded
//! launch parameters.  Intervals committed through the content-addressed
//! dedup store (`filem_dedup_enabled`) print per-rank chunk counts and
//! the interval's dedup ratio instead of local snapshot directories, plus
//! a chunk-store summary with a refcount histogram.

use std::collections::BTreeMap;

use cr_core::{GlobalSnapshot, Rank};
use opal::store::{ChunkId, ChunkStore};
use tools::ArgSpec;

fn main() {
    if let Err(e) = run() {
        eprintln!("ompi-snapshot-info: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let spec = ArgSpec::parse(&raw, &[])?;
    let reference = spec
        .positional()
        .first()
        .ok_or("usage: ompi-snapshot-info <global-snapshot-ref>")?;
    let global =
        GlobalSnapshot::open(std::path::Path::new(reference)).map_err(|e| e.to_string())?;

    println!("Global snapshot reference: {reference}");
    println!("  job:       {}", global.job());
    println!("  ranks:     {}", global.nprocs());
    let intervals = global.intervals();
    println!("  intervals: {intervals:?}");
    let pending = global.local_committed_intervals();
    if !pending.is_empty() {
        // Early-release gathers still in flight (or stranded by a
        // mid-gather failure): visible for diagnosis, unusable for restart.
        println!("  local-committed (not restartable): {pending:?}");
    }
    let mut any_dedup = false;
    for interval in &intervals {
        if !global.chunk_manifests(*interval).is_empty() {
            any_dedup = true;
            print_dedup_interval(&global, *interval)?;
            print_gather_stats(&global, *interval);
            print_msg_log(&global, *interval);
            continue;
        }
        let size = global
            .interval_size_bytes(*interval)
            .map_err(|e| e.to_string())?;
        println!(
            "  interval {interval}: {size} bytes on stable storage ({})",
            global.commit_state(*interval)
        );
        for r in 0..global.nprocs() {
            let local = global
                .local_snapshot(*interval, Rank(r))
                .map_err(|e| e.to_string())?;
            println!(
                "    rank {r}: crs={}, host={}, {} bytes",
                local.crs_component(),
                local.hostname().unwrap_or("?"),
                local.size_bytes().map_err(|e| e.to_string())?
            );
        }
        print_gather_stats(&global, *interval);
        print_msg_log(&global, *interval);
    }
    print_spare_pool(&global);
    if any_dedup {
        print_chunk_store(&global)?;
    }
    println!("  launch parameters:");
    for (k, v) in global.launch_params() {
        println!("    {k} = {v}");
    }
    print_journal_summary(&global);
    Ok(())
}

/// The runtime's FT event journal, when present next to the stable
/// storage tree (`<base>/journal/ft.jrnl` for a reference under
/// `<base>/stable/`): entry/byte counts and chain status, so an operator
/// sees at a glance whether the audit trail is intact and where to point
/// `cr-replay`.
fn print_journal_summary(global: &GlobalSnapshot) {
    let path = match global.dir().parent().and_then(|stable| stable.parent()) {
        Some(base) => base.join("journal").join(journal::FILE_NAME),
        None => return,
    };
    if !path.exists() {
        return;
    }
    println!("  journal: {}", path.display());
    match journal::verify(&path) {
        Ok(report) => {
            println!(
                "    {} entries, {} bytes, tail hash {:016x}",
                report.entries, report.bytes, report.tail_hash
            );
            match &report.broken {
                None => println!("    chain: intact"),
                Some(b) => println!("    chain: BROKEN — {b}"),
            }
        }
        Err(e) => println!("    unreadable: {e}"),
    }
}

/// One dedup interval: per-rank manifest chunk counts and the interval's
/// dedup ratio (logical image bytes over the bytes its distinct chunks
/// occupy in the store).
fn print_dedup_interval(global: &GlobalSnapshot, interval: u64) -> Result<(), String> {
    let mut logical = 0u64;
    let mut records = 0usize;
    let mut distinct: BTreeMap<ChunkId, u64> = BTreeMap::new();
    let mut per_rank = Vec::new();
    for (rank, rendered) in global.chunk_manifests(interval) {
        let manifest = codec::ChunkManifest::parse(rendered).map_err(|e| e.to_string())?;
        let ids = orte::store::manifest_ids(&manifest);
        records += ids.len();
        logical += manifest.total_bytes();
        for id in &ids {
            distinct.insert(*id, u64::from(id.len));
        }
        per_rank.push((rank, ids.len(), manifest.total_bytes()));
    }
    let stored: u64 = distinct.values().sum();
    println!(
        "  interval {interval}: dedup store, {logical} logical bytes in {records} chunk \
         records, {} distinct chunks ({stored} bytes), dedup ratio {:.2} ({})",
        distinct.len(),
        logical as f64 / stored.max(1) as f64,
        global.commit_state(interval)
    );
    for (rank, chunks, bytes) in per_rank {
        println!("    rank {}: {chunks} chunks, {bytes} bytes", rank.0);
    }
    Ok(())
}

/// What the interval's gather to stable storage moved, from its
/// `key=value` stats line: files, bytes, wall time and MiB/s. Keys it does
/// not know are skipped, so an older tree's line (`waves=… peak=… wall_us=…
/// bytes=… links=…`) still prints its bytes and wall time.
fn print_gather_stats(global: &GlobalSnapshot, interval: u64) {
    let Some(line) = global.gather_stats(interval) else {
        return;
    };
    let field = |key: &str| {
        line.split_whitespace()
            .filter_map(|f| f.split_once('='))
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok())
    };
    let (Some(bytes), Some(wall_us)) = (field("bytes"), field("wall_us")) else {
        println!("    gather (unparsed): {line}");
        return;
    };
    let files = field("files").map_or_else(|| "?".to_string(), |n| n.to_string());
    let mib_s = bytes as f64 / (wall_us.max(1) as f64 / 1e6) / (1024.0 * 1024.0);
    println!("    gather: {files} files, {bytes} bytes in {wall_us} us ({mib_s:.1} MiB/s)");
}

/// The interval's sender-side message-log footprint, when the job ran
/// with `crcp_msg_log_enabled`: per-rank bytes retained for partial
/// restart (frames a survivor would resend to a rank restored from this
/// interval).  Absent for jobs without the log.
fn print_msg_log(global: &GlobalSnapshot, interval: u64) {
    let per_rank = global.msg_log_bytes(interval);
    if per_rank.is_empty() {
        return;
    }
    let total: u64 = per_rank.iter().map(|(_, b)| b).sum();
    println!("    message log: {total} bytes retained for partial restart");
    for (rank, bytes) in per_rank {
        println!("      rank {}: {bytes} bytes", rank.0);
    }
}

/// The spare-node pool recorded at checkpoint time — the nodes a partial
/// restart may claim to rehost failed ranks.  An empty pool means a live
/// `--ranks` restart of this snapshot would refuse and fall back to a
/// full relaunch.
fn print_spare_pool(global: &GlobalSnapshot) {
    let spares = global.spare_pool();
    if spares.is_empty() {
        println!("  spare pool: empty (partial restart would refuse)");
    } else {
        let list = spares
            .iter()
            .map(|n| format!("node {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  spare pool: {} held out ({list})", spares.len());
    }
}

/// The stable chunk tier: totals plus a refcount histogram (references
/// held by recorded manifests per chunk — count-zero chunks are awaiting
/// the next GC sweep).
fn print_chunk_store(global: &GlobalSnapshot) -> Result<(), String> {
    let store = ChunkStore::open(&global.dir().join(orte::store::CHUNK_STORE_DIR))
        .map_err(|e| e.to_string())?;
    println!(
        "  chunk store: {} chunks, {} bytes",
        store.chunk_count().map_err(|e| e.to_string())?,
        store.total_bytes().map_err(|e| e.to_string())?
    );
    let mut histogram: BTreeMap<u64, usize> = BTreeMap::new();
    for id in store.disk_ids().map_err(|e| e.to_string())? {
        *histogram.entry(store.refcount(&id)).or_default() += 1;
    }
    for (refs, chunks) in histogram {
        println!("    refcount {refs}: {chunks} chunks");
    }
    Ok(())
}
