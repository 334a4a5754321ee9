//! Pairing the runtime's own tracer events into spans.
//!
//! The program already records named events (`cr_core::KNOWN_TRACE_EVENTS`)
//! at every layer boundary; the benchmark adds none. A traced cycle keeps
//! those events plus the driver-measured window of every checkpoint and
//! every recovery. Here each window is cut at the last occurrence of the
//! boundary events into consecutive phases, so the phases plus
//! `unattributed` (what lies outside them) add up to the window exactly.
//!
//! Checkpoint (layer that owns the phase in brackets):
//!
//! ```text
//! request .. snapc.global.initiate ............ unattributed (verify round)
//!         .. last ompi.crcp.quiesced ........... quiesce   [ompi::crcp]
//!         .. last snapc.global.local_done ...... capture   [opal::crs]
//!         .. filem.gather | opal.hash.pool ..... gather    [orte::filem, sched, opal::pool]
//!         .. snapc.global.reference_returned ... commit    [orte::snapc, store]
//!         .. checkpoint() returned ............. unattributed
//! ```
//!
//! Recovery:
//!
//! ```text
//! call .. last filem.preload | store.restart.fetch | filem.replica.fetch .. fetch
//!      .. ompi.restart (or the first rank's ompi.init.restart) ............ reassemble
//!      .. last ompi.init.restart ......................................... relaunch [orte::plm, ompi::init]
//!      .. last crcp.replay.done .......................................... replay   [ompi::crcp msg-log]
//!      .. every rank one step further .................................... unattributed
//! ```

use cr_core::trace::TraceEvent;

use crate::cycle::{CycleTrace, Window};
use crate::stats::{obj, Json};

/// Phase name under a checkpoint root, and the metric that reports it.
pub const CHECKPOINT_PHASES: [(&str, &str); 5] = [
    ("quiesce", "phase.quiesce_ms"),
    ("capture", "phase.capture_ms"),
    ("gather", "phase.gather_ms"),
    ("commit", "phase.commit_ms"),
    ("unattributed", "phase.unattributed_ms"),
];
/// The same for a recovery root.
pub const RECOVERY_PHASES: [(&str, &str); 5] = [
    ("fetch", "phase.fetch_ms"),
    ("reassemble", "phase.reassemble_ms"),
    ("relaunch", "phase.relaunch_ms"),
    ("replay", "phase.replay_ms"),
    ("unattributed", "phase.recover_unattributed_ms"),
];

/// One span: a checkpoint or recovery window (`parent` none) or a phase
/// of one. Times are ms since the owning runtime's tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

fn at_ms(event: &TraceEvent) -> f64 {
    event.elapsed_ns as f64 / 1e6
}

/// Events of a window's runtime that fall inside the window.
fn inside<'a>(trace: &'a CycleTrace, w: &Window) -> impl Iterator<Item = &'a TraceEvent> + 'a {
    let (lo, hi) = (w.start_ms, w.end_ms);
    trace.runtimes[w.runtime]
        .iter()
        .filter(move |e| (lo..=hi).contains(&at_ms(e)))
}

fn first_of(trace: &CycleTrace, w: &Window, phases: &[&str]) -> Option<f64> {
    inside(trace, w)
        .find(|e| phases.contains(&e.phase.as_str()))
        .map(at_ms)
}

fn last_of(trace: &CycleTrace, w: &Window, phases: &[&str]) -> Option<f64> {
    inside(trace, w)
        .filter(|e| phases.contains(&e.phase.as_str()))
        .last()
        .map(at_ms)
}

/// Cut `w` at `cuts` (each clamped to lie after the one before, a missing
/// event collapsing its phase to nothing) and emit the root span plus one
/// child per `(name, end)` pair. What precedes `lead_in` and what follows
/// the last cut belongs to no named phase: two `unattributed` children.
fn cut(
    spans: &mut Vec<Span>,
    root: &'static str,
    w: &Window,
    lead_in: Option<f64>,
    cuts: &[(&'static str, Option<f64>)],
) {
    let root_id = spans.len();
    let child = |spans: &mut Vec<Span>, name, start_ms, end_ms| {
        let id = spans.len();
        spans.push(Span {
            id,
            parent: Some(root_id),
            name,
            start_ms,
            end_ms,
        });
    };
    spans.push(Span {
        id: root_id,
        parent: None,
        name: root,
        start_ms: w.start_ms,
        end_ms: w.end_ms,
    });
    let mut cursor = lead_in.map_or(w.start_ms, |t| t.clamp(w.start_ms, w.end_ms));
    child(spans, "unattributed", w.start_ms, cursor);
    for &(name, end) in cuts {
        let end = end.map_or(cursor, |t| t.clamp(cursor, w.end_ms));
        child(spans, name, cursor, end);
        cursor = end;
    }
    child(spans, "unattributed", cursor, w.end_ms);
}

/// All spans of one traced cycle.
pub fn pair(trace: &CycleTrace) -> Vec<Span> {
    let mut spans = Vec::new();
    for w in &trace.checkpoints {
        let gathered = first_of(trace, w, &["filem.gather", "opal.hash.pool"]);
        cut(
            &mut spans,
            "checkpoint",
            w,
            first_of(trace, w, &["snapc.global.initiate"]),
            &[
                ("quiesce", last_of(trace, w, &["ompi.crcp.quiesced"])),
                ("capture", last_of(trace, w, &["snapc.global.local_done"])),
                ("gather", gathered),
                (
                    "commit",
                    last_of(trace, w, &["snapc.global.reference_returned"]),
                ),
            ],
        );
    }
    for w in &trace.recoveries {
        let fetched = last_of(
            trace,
            w,
            &[
                "filem.preload",
                "store.restart.fetch",
                "filem.replica.fetch",
            ],
        );
        // `ompi.restart` closes image reassembly on a whole-job restart;
        // a partial restart records it only after respawning, so there the
        // first rejoining rank's init marks the boundary.
        let rebuilt = first_of(trace, w, &["ompi.restart", "ompi.init.restart"]);
        cut(
            &mut spans,
            "recovery",
            w,
            None,
            &[
                ("fetch", fetched),
                ("reassemble", rebuilt),
                ("relaunch", last_of(trace, w, &["ompi.init.restart"])),
                ("replay", last_of(trace, w, &["crcp.replay.done"])),
            ],
        );
    }
    spans
}

/// Time in phase `name` per window whose root span is called `root`.
pub fn phase_ms(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|r| r.parent.is_none() && r.name == root)
        .map(|r| {
            spans
                .iter()
                .filter(|s| s.parent == Some(r.id) && s.name == name)
                .map(Span::duration_ms)
                .sum()
        })
        .collect()
}

/// The span file: every traced cycle's spans, cycle by cycle.
pub fn to_json(workload: &str, seed: u64, cycles: &[Vec<Span>]) -> Json {
    let cycles = cycles
        .iter()
        .map(|spans| {
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("id", Json::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("name", Json::Str(s.name.into())),
                            ("start_ms", Json::Num(s.start_ms)),
                            ("end_ms", Json::Num(s.end_ms)),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "clock",
            Json::Str("wall, ms since the owning runtime's tracer started".into()),
        ),
        ("cycles", Json::Arr(cycles)),
    ])
}
