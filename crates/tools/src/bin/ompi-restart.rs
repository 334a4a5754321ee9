//! `ompi-restart` — resurrect a job from a global snapshot reference.
//!
//! ```text
//! ompi-restart [--nodes N] [--interval I] [--base DIR] [--source S] \
//!              <global-snapshot-ref>
//! ```
//!
//! The only required input is the snapshot reference directory: the
//! workload, rank count, and MCA parameters are all read from the
//! snapshot metadata (paper §4 — the user need not remember how the job
//! was originally started). The restarted job runs to completion.
//! `--source` picks where the images come from: `auto` (default;
//! surviving peer-memory replicas first, stable storage fallback),
//! `replica` (peer memory only, fail otherwise), or `stable` (disk only).
//! Every knob lands in one [`ompi::RestartOptions`].
//!
//! `--ranks R1,R2,...` prints a *partial-restart plan* instead of
//! relaunching: which tier would serve each failed rank's image, the
//! recorded spare-node pool, and the per-rank message-log bytes at the
//! chosen interval. An actual partial restart runs inside a live job
//! (`MpiJob::restart_ranks`, driven by the recovery supervisor) — a tool
//! invoked after the job is gone can only relaunch everything.

use tools::apps::{restart_named, tool_runtime};
use tools::ArgSpec;

fn main() {
    if let Err(e) = run() {
        eprintln!("ompi-restart: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let spec = ArgSpec::parse(&raw, &["nodes", "interval", "base", "source", "ranks"])?;
    let reference = spec
        .positional()
        .first()
        .ok_or("usage: ompi-restart [--nodes N] [--interval I] [--source auto|replica|stable] [--ranks R1,R2,...] <global-snapshot-ref>")?;
    let nodes: u32 = spec.option_parsed("nodes", 2)?;
    let interval: i64 = spec.option_parsed("interval", -1)?;
    let source: ompi::RestartSource = spec
        .option("source")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or_default();
    let base = spec
        .option("base")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ompi_restart_{}", std::process::id()))
        });

    if let Some(list) = spec.option("ranks") {
        let ranks: Vec<u32> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse::<u32>().map_err(|e| format!("--ranks: {e}")))
            .collect::<Result<_, _>>()?;
        let interval = if interval < 0 { None } else { Some(interval as u64) };
        return partial_plan(std::path::Path::new(reference), &ranks, interval);
    }

    let rt = tool_runtime(&base, nodes).map_err(|e| e.to_string())?;
    println!("ompi-restart: restoring from {reference}");
    let opts = ompi::RestartOptions {
        source,
        interval: if interval < 0 { None } else { Some(interval as u64) },
        ranks: None,
    };
    let job = restart_named(&rt, std::path::Path::new(reference), opts)
        .map_err(|e| e.to_string())?;
    println!("ompi-restart: job {} resumed on {nodes} nodes", job.handle().job());
    let results = job.wait().map_err(|e| e.to_string())?;
    for (rank, (summary, end)) in results.iter().enumerate() {
        println!("ompi-restart: rank {rank}: {end:?}, {summary}");
    }
    rt.shutdown();
    println!("ompi-restart: job completed");
    Ok(())
}

/// `--ranks`: print what a partial restart of these ranks would do.
fn partial_plan(
    reference: &std::path::Path,
    ranks: &[u32],
    interval: Option<u64>,
) -> Result<(), String> {
    let global = cr_core::GlobalSnapshot::open(reference).map_err(|e| e.to_string())?;
    let interval = match interval {
        Some(i) => i,
        None => global
            .latest_interval()
            .ok_or("global snapshot has no committed intervals")?,
    };
    if !global.intervals().contains(&interval) {
        return Err(format!("interval {interval} was never committed"));
    }
    let nprocs = global.nprocs();
    println!(
        "ompi-restart: partial-restart plan for ranks {ranks:?} of {nprocs} at interval {interval}"
    );
    for &r in ranks {
        if r >= nprocs {
            return Err(format!("rank {r} out of range for a {nprocs}-rank job"));
        }
        let rank = cr_core::Rank(r);
        if global.chunk_manifest(interval, rank).is_some() {
            println!("  rank {r}: dedup chunk manifest (assembled from chunk tiers)");
            continue;
        }
        let holders = global.replica_holders(interval, rank);
        if holders.is_empty() {
            println!("  rank {r}: from stable storage (no replica holders)");
        } else {
            println!("  rank {r}: from replica holders {holders:?}");
        }
    }
    let spares = global.spare_pool();
    if spares.is_empty() {
        println!("  spare pool: empty — a live partial restart would refuse");
    } else {
        println!("  spare pool: nodes {spares:?}");
    }
    let msglog = global.msg_log_bytes(interval);
    if msglog.is_empty() {
        println!("  message log: no per-rank bytes recorded at interval {interval}");
    } else {
        for (rank, bytes) in msglog {
            println!("  message log: rank {rank} held {bytes} bytes at commit");
        }
    }
    println!("ompi-restart: plan only — run partial restart from the recovery supervisor");
    Ok(())
}
