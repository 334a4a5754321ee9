//! Benchmark harness crate.
//!
//! All content lives in `benches/` (one Criterion bench per experiment in
//! DESIGN.md's index):
//!
//! | bench | experiment |
//! |---|---|
//! | `netpipe_latency` | E1 — §7 latency overhead |
//! | `netpipe_bandwidth` | E2 — §7 bandwidth overhead |
//! | `snapc_checkpoint` | E3 — Figure 1 pipeline cost, full vs tree |
//! | `ckpt_scaling` | A1 — checkpoint latency vs rank count |
//! | `ckpt_size` | A2 — checkpoint latency vs snapshot size |
//! | `drain_cost` | A4 — channel drain vs in-flight traffic |
//! | `filem_gather` | A5 — aggregation strategies |
//!
//! Run with `cargo bench` (all) or `cargo bench --bench netpipe_latency`.

#![forbid(unsafe_code)]
