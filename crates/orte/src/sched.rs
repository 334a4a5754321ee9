//! The one batch executor of the FILEM framework: wave scheduling for
//! gathers and drains.
//!
//! Claiming requests in index order lets a batch whose first `k` sources
//! share one node put `k` concurrent transfers on that node's uplink while
//! other links sit idle. This module spreads the batch instead: requests
//! are grouped into *waves* of at most `lanes` concurrent transfers, and
//! each wave is filled greedily with the request whose link is currently
//! least loaded (by per-link transfer counts), so no link carries `k`
//! concurrent transfers while an idle path exists (unless every lane is
//! already busy). With one lane every wave holds one request and the
//! executor is the sequential walk.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cr_core::CrError;

use crate::filem::{CopyRequest, FilemComponent, FilemReport};

/// A scheduled gather: waves of batch indices, each wave running its
/// requests concurrently (one lane per request), waves in sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherPlan {
    /// Batch indices per wave; every index appears exactly once and no
    /// wave exceeds the lane count it was planned for.
    pub waves: Vec<Vec<usize>>,
}

/// Unordered link key of one request (loopback uses the `(n, n)` pair).
fn link_of(req: &CopyRequest) -> (u32, u32) {
    let (a, b) = (req.src_node.0, req.dest_node.0);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Schedule `batch` onto `lanes` concurrent lanes: each wave takes the
/// pending request whose link is least loaded so far.
pub fn plan(batch: &[CopyRequest], lanes: usize) -> GatherPlan {
    let lanes = lanes.max(1);
    let mut pending: Vec<usize> = (0..batch.len()).collect();
    let mut waves = Vec::new();
    while !pending.is_empty() {
        let mut wave: Vec<usize> = Vec::with_capacity(lanes);
        let mut load: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        while wave.len() < lanes && !pending.is_empty() {
            // Least-loaded link first, lowest index on ties: a link only
            // takes a second concurrent transfer once every pending
            // request's link already carries one.
            let pick = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let key = batch.get(i).map(link_of).unwrap_or((0, 0));
                    (load.get(&key).copied().unwrap_or(0), i)
                })
                .map(|(p, _)| p);
            let Some(p) = pick else { break };
            let i = pending.remove(p);
            if let Some(req) = batch.get(i) {
                *load.entry(link_of(req)).or_insert(0) += 1;
            }
            wave.push(i);
        }
        waves.push(wave);
    }
    GatherPlan { waves }
}

/// Per-link concurrent-transfer counts of one wave.
fn wave_loads(batch: &[CopyRequest], wave: &[usize]) -> BTreeMap<(u32, u32), u32> {
    let mut load = BTreeMap::new();
    for &i in wave {
        if let Some(req) = batch.get(i) {
            *load.entry(link_of(req)).or_insert(0) += 1;
        }
    }
    load
}

/// What one scheduled gather did: the plan's shape, the real wall clock,
/// and per-link byte totals. Rendered into the global snapshot metadata
/// (`GlobalSnapshot::record_gather_stats`) so `ompi-snapshot-info` can
/// show the schedule next to the commit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherSchedStats {
    /// Number of waves executed.
    pub waves: usize,
    /// Highest concurrent-transfer count any link saw in any wave.
    pub peak_link_concurrency: u32,
    /// Real wall-clock time of the whole gather.
    pub wall: Duration,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Payload bytes per unordered link pair.
    pub bytes_per_link: BTreeMap<(u32, u32), u64>,
}

impl GatherSchedStats {
    /// Wall-clock throughput in MiB/s.
    pub fn mib_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64().max(1e-9);
        self.bytes as f64 / secs / (1024.0 * 1024.0)
    }

    /// Single-line metadata form:
    /// `waves=3 peak=2 wall_us=81 bytes=12288 links=0-1:8192,0-2:4096`
    pub fn render(&self) -> String {
        let links = self
            .bytes_per_link
            .iter()
            .map(|((a, b), n)| format!("{a}-{b}:{n}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "waves={} peak={} wall_us={} bytes={} links={links}",
            self.waves,
            self.peak_link_concurrency,
            self.wall.as_micros(),
            self.bytes,
        )
    }

    /// Parse the [`render`](GatherSchedStats::render) form back.
    pub fn parse(line: &str) -> Option<GatherSchedStats> {
        let mut waves = None;
        let mut peak = None;
        let mut wall_us = None;
        let mut bytes = None;
        let mut links = BTreeMap::new();
        for field in line.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "waves" => waves = value.parse().ok(),
                "peak" => peak = value.parse().ok(),
                "wall_us" => wall_us = value.parse::<u64>().ok(),
                "bytes" => bytes = value.parse().ok(),
                "links" => {
                    for entry in value.split(',').filter(|e| !e.is_empty()) {
                        let (pair, n) = entry.split_once(':')?;
                        let (a, b) = pair.split_once('-')?;
                        links.insert((a.parse().ok()?, b.parse().ok()?), n.parse().ok()?);
                    }
                }
                _ => return None,
            }
        }
        Some(GatherSchedStats {
            waves: waves?,
            peak_link_concurrency: peak?,
            wall: Duration::from_micros(wall_us?),
            bytes: bytes?,
            bytes_per_link: links,
        })
    }
}

/// Execute `batch` wave-by-wave over at most `lanes` concurrent lanes.
/// Returns the combined report plus the schedule stats. The first copy
/// error is returned after its wave's lanes finish (no partially
/// abandoned transfers).
pub fn copy_all_scheduled(
    filem: &dyn FilemComponent,
    batch: &[CopyRequest],
    lanes: usize,
) -> Result<(FilemReport, GatherSchedStats), CrError> {
    let started = Instant::now();
    let plan = plan(batch, lanes);
    let mut total = FilemReport::default();
    let mut bytes_per_link: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut peak = 0u32;
    for wave in &plan.waves {
        peak = peak.max(wave_loads(batch, wave).values().copied().max().unwrap_or(0));
        let run_lane = |i: usize, req: &CopyRequest| (i, filem.copy_tree(req));
        let requests = wave.iter().filter_map(|&i| batch.get(i).map(|req| (i, req)));
        // A one-request wave (every wave of a one-lane batch) runs on the
        // calling thread: a spawn per copy costs more than small copies
        // themselves.
        let lane_results: Vec<(usize, Result<FilemReport, CrError>)> = if wave.len() == 1 {
            requests.map(|(i, req)| run_lane(i, req)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = requests
                    .map(|(i, req)| scope.spawn(move || run_lane(i, req)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            (usize::MAX, Err(CrError::protocol("FILEM gather worker panicked")))
                        })
                    })
                    .collect()
            })
        };
        for (i, lane) in lane_results {
            let report = lane?;
            if let Some(req) = batch.get(i) {
                *bytes_per_link.entry(link_of(req)).or_insert(0) += report.bytes;
            }
            total.merge(report);
        }
    }
    let stats = GatherSchedStats {
        waves: plan.waves.len(),
        peak_link_concurrency: peak,
        wall: started.elapsed(),
        bytes: total.bytes,
        bytes_per_link,
    };
    Ok((total, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filem::filem_framework;
    use netsim::NodeId;
    use std::path::PathBuf;

    /// A gather batch with the given source nodes, all destined for the
    /// head node (the shape every SNAPC gather has).
    fn batch_from(srcs: &[u32]) -> Vec<CopyRequest> {
        srcs.iter()
            .enumerate()
            .map(|(i, &s)| CopyRequest {
                src: PathBuf::from(format!("/scratch/{i}")),
                src_node: NodeId(s),
                dest: PathBuf::from(format!("/stable/{i}")),
                dest_node: NodeId(0),
            })
            .collect()
    }

    /// The scheduler's invariant: in any wave whose most-loaded link
    /// carries `m ≥ 2` concurrent transfers, every request deferred to a
    /// later wave must itself be on a link already carrying `≥ m - 1`
    /// transfers in this wave — i.e. the plan never doubles up a link
    /// while a deferred request had an idle path.
    fn assert_no_doubling_while_idle(plan: &GatherPlan, batch: &[CopyRequest], lanes: usize) {
        let mut seen = vec![false; batch.len()];
        for wave in &plan.waves {
            assert!(wave.len() <= lanes.max(1), "wave exceeds lane count");
            for &i in wave {
                assert!(!seen[i], "index {i} scheduled twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index must be scheduled");
        for (w, wave) in plan.waves.iter().enumerate() {
            let load = wave_loads(batch, wave);
            let m = load.values().copied().max().unwrap_or(0);
            if m < 2 {
                continue;
            }
            for later in &plan.waves[w + 1..] {
                for &i in later {
                    let Some(req) = batch.get(i) else { continue };
                    let count = load.get(&link_of(req)).copied().unwrap_or(0);
                    assert!(
                        count >= m - 1,
                        "wave {w} puts {m} transfers on one link while deferred \
                         request {i} had a path with only {count} in flight"
                    );
                }
            }
        }
    }

    #[test]
    fn spread_never_doubles_a_link_while_an_idle_path_exists() {
        // Deterministic sweep over skewed source layouts, lane counts,
        // and batch sizes (SplitMix64 for variety without flakiness).
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..200 {
            let n = 1 + (next() % 12) as usize;
            let nodes = 1 + next() % 5;
            let srcs: Vec<u32> = (0..n).map(|_| (1 + next() % nodes) as u32).collect();
            let lanes = 1 + (trial % 6);
            let batch = batch_from(&srcs);
            let p = plan(&batch, lanes);
            assert_no_doubling_while_idle(&p, &batch, lanes);
        }
        // The canonical contended shape: four ranks on node 1, one each
        // on nodes 2 and 3, two lanes. Spread must interleave.
        let batch = batch_from(&[1, 1, 1, 1, 2, 3]);
        let p = plan(&batch, 2);
        assert_no_doubling_while_idle(&p, &batch, 2);
        for wave in &p.waves[..2] {
            let load = wave_loads(&batch, wave);
            assert!(
                load.values().all(|&c| c == 1),
                "first waves must not double the node-1 uplink: {p:?}"
            );
        }
    }

    #[test]
    fn stats_render_parse_roundtrip() {
        let mut bytes_per_link = BTreeMap::new();
        bytes_per_link.insert((0, 1), 8192u64);
        bytes_per_link.insert((0, 3), 4096u64);
        let stats = GatherSchedStats {
            waves: 3,
            peak_link_concurrency: 2,
            wall: Duration::from_micros(81),
            bytes: 12288,
            bytes_per_link,
        };
        let back = GatherSchedStats::parse(&stats.render()).unwrap();
        assert_eq!(back, stats);
        assert!(stats.mib_per_sec() > 0.0);
        assert!(GatherSchedStats::parse("waves=3 nope").is_none());
        assert!(GatherSchedStats::parse("").is_none());
    }

    /// `n` three-file source trees under `base`, sourced round-robin from
    /// nodes 0..3 and all destined for the head node.
    fn tree_batch(base: &std::path::Path, n: u32) -> (Vec<CopyRequest>, u64) {
        let mut batch = Vec::new();
        let mut total = 0u64;
        for i in 0..n {
            let src = base.join(format!("src{i}"));
            std::fs::create_dir_all(src.join("sub")).unwrap();
            std::fs::write(src.join("meta.data"), b"crs = blcr_sim\n").unwrap();
            std::fs::write(src.join("context.bin"), vec![i as u8; 4096 + i as usize]).unwrap();
            std::fs::write(src.join("sub").join("extra"), vec![1u8; 100]).unwrap();
            total += 15 + 4096 + u64::from(i) + 100;
            batch.push(CopyRequest {
                src,
                src_node: NodeId(i % 3),
                dest: base.join(format!("dest{i}")),
                dest_node: NodeId(0),
            });
        }
        (batch, total)
    }

    fn copier() -> Box<dyn FilemComponent> {
        filem_framework().select(&mca::McaParams::new()).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orte_sched_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn copy_all_scheduled_moves_every_tree() {
        let base = tmpdir("moves");
        let (batch, total_bytes) = tree_batch(&base, 6);
        let (report, stats) = copy_all_scheduled(&*copier(), &batch, 3).unwrap();
        assert_eq!(report.files, 18);
        assert_eq!(report.bytes, total_bytes);
        assert_eq!(stats.bytes, report.bytes);
        assert_eq!(stats.waves, 2);
        assert_eq!(stats.peak_link_concurrency, 1, "three lanes, three links: no doubling");
        assert_eq!(
            stats.bytes_per_link.values().sum::<u64>(),
            report.bytes,
            "every byte attributed to a link"
        );
        for i in 0..6 {
            assert!(base.join(format!("dest{i}")).join("context.bin").is_file());
        }
    }

    #[test]
    fn one_lane_is_the_sequential_walk() {
        let base = tmpdir("onelane");
        let (batch, total_bytes) = tree_batch(&base, 5);
        let filem = copier();
        let (seq, stats) = copy_all_scheduled(&*filem, &batch, 1).unwrap();
        assert_eq!(stats.waves, 5, "one lane: one wave per request");
        let in_order: Vec<Vec<usize>> = (0..batch.len()).map(|i| vec![i]).collect();
        assert_eq!(plan(&batch, 1).waves, in_order, "in batch order");
        assert_eq!(seq.bytes, total_bytes);
        // The sequential executor's contract: its report is the plain sum
        // of the per-tree reports.
        let mut sum = FilemReport::default();
        for req in &batch {
            sum.merge(filem.copy_tree(req).unwrap());
        }
        assert_eq!(seq, sum);
    }

    #[test]
    fn reports_first_error() {
        let base = tmpdir("err");
        let (mut batch, _) = tree_batch(&base, 3);
        batch.push(CopyRequest {
            src: base.join("does-not-exist"),
            src_node: NodeId(1),
            dest: base.join("err_out"),
            dest_node: NodeId(0),
        });
        let err = copy_all_scheduled(&*copier(), &batch, 4).unwrap_err();
        assert!(matches!(err, CrError::Io { .. }));
    }
}
