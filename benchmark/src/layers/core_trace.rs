//! `cr_core::trace::Tracer` and the `journal` sink behind it: what one
//! recorded event costs, alone, under contention, and journaled.

use std::path::Path;
use std::sync::Arc;

use cr_core::Tracer;
use journal::JournalSink;

use super::timed;
use crate::metrics::Metrics;

const EVENTS: usize = 100_000;
const JOURNALED_EVENTS: usize = 20_000;

fn record(tracer: &Tracer, events: usize) {
    for i in 0..events {
        tracer.record(
            "snapc.global.request",
            if i % 2 == 0 {
                "job 1 by tool"
            } else {
                "job 1 by rank 3"
            },
        );
    }
}

pub fn probe(dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let ((), secs) = timed(|| record(&Tracer::new(), EVENTS));
    out.push("core.trace.record_ns", secs * 1e9 / EVENTS as f64, EVENTS);

    // Two threads into one tracer, as two ranks of a job do.
    let tracer = Tracer::new();
    let ((), secs) = timed(|| {
        std::thread::scope(|scope| {
            for actor in ["rank0", "rank1"] {
                let handle = tracer.with_actor(actor);
                scope.spawn(move || record(&handle, EVENTS / 2));
            }
        })
    });
    out.push(
        "core.trace.record_contended_ns",
        secs * 1e9 / EVENTS as f64,
        EVENTS,
    );

    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let sink = Arc::new(
        JournalSink::open(&dir.join("probe.journal"), 0).map_err(|e| format!("journal: {e}"))?,
    );
    let tracer = Tracer::new();
    tracer.set_sink(Arc::clone(&sink) as Arc<dyn cr_core::trace::TraceSink>);
    let ((), secs) = timed(|| record(&tracer, JOURNALED_EVENTS));
    sink.flush().map_err(|e| format!("journal flush: {e}"))?;
    if sink.append_errors() != 0 {
        return Err("journal appends failed".into());
    }
    out.push(
        "journal.append_us",
        secs * 1e6 / JOURNALED_EVENTS as f64,
        JOURNALED_EVENTS,
    );
    Ok(())
}
