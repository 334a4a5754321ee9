//! cr-model: an explicit-state model checker for the checkpoint/restart
//! protocols, in the style of `cr-lint`.
//!
//! The crate ships small transition models, checked exhaustively by BFS.
//! `quiesce` is a harness around the shipped `ompi::crcp::round::Round`;
//! the others are hand-written models mirroring production state
//! machines:
//!
//! | model     | mirrors                                   | invariant |
//! |-----------|-------------------------------------------|-----------|
//! | `commit`  | `orte::snapc` early-release commit lattice | restart only observes `GlobalCommitted`; promotion monotone |
//! | `quiesce` | runs `ompi::crcp::round::Round` itself     | no cross-round frame or overrun in a clean epoch's drain; no message counted in another epoch; no survivor stuck in a round |
//! | `replica` | `orte::replica` ring placement             | committed images stay fetchable under `k` losses |
//! | `gc`      | `opal::store` refcount GC at retirement    | no live-manifest chunk is ever swept; refcounts match manifests |
//! | `partial` | `ompi::crcp` partial-restart replay        | survivors never regress past global commit; every logged gap replayed exactly once |
//!
//! See DESIGN.md §2.4 "Model-checked protocols" for how the models map
//! to code and how to add a new one.  The `cr-model` binary runs them
//! (`--all`, `--smoke`, `--mutate`), and `crates/model/tests/` contains
//! mutation self-tests proving the checker rediscovers the known bugs
//! when a guard is deleted.

pub mod checker;
pub mod commit;
pub mod gc;
pub mod partial;
pub mod quiesce;
pub mod replay;
pub mod replica;

pub use checker::{check, Bounds, CheckReport, Counterexample, Model, TraceStep};
pub use replay::{conformance, ConformanceReport, PhaseRule, ReplayEvent};

/// Names of the shipped models, in canonical run order.
pub const MODEL_NAMES: &[&str] = &["commit", "quiesce", "replica", "gc", "partial"];

/// Run one shipped model by name (optionally a mutated variant) under
/// `bounds`.  Returns `None` for an unknown model or mutation name.
///
/// Mutations: `commit` accepts `promote_before_gather` and
/// `allow_regress`; `quiesce` accepts `skip_barrier`, `drop_epoch` and
/// `ignore_peer_down`; `replica` accepts
/// `under_replicate`; `gc` accepts `sweep_before_decrement`; `partial`
/// accepts `skip_replay`.
pub fn run_model(name: &str, mutation: Option<&str>, bounds: &Bounds) -> Option<CheckReport> {
    match (name, mutation) {
        ("commit", None) => Some(check(&commit::CommitModel::default(), bounds)),
        ("commit", Some("promote_before_gather")) => Some(check(
            &commit::CommitModel { promote_before_gather: true, ..Default::default() },
            bounds,
        )),
        ("commit", Some("allow_regress")) => Some(check(
            &commit::CommitModel { allow_regress: true, ..Default::default() },
            bounds,
        )),
        ("quiesce", None) => Some(check(&quiesce::QuiesceModel::default(), bounds)),
        ("quiesce", Some("skip_barrier")) => Some(check(
            &quiesce::QuiesceModel { skip_barrier: true, ..Default::default() },
            bounds,
        )),
        ("quiesce", Some("drop_epoch")) => Some(check(
            &quiesce::QuiesceModel { drop_epoch: true, ..Default::default() },
            bounds,
        )),
        ("quiesce", Some("ignore_peer_down")) => Some(check(
            &quiesce::QuiesceModel { ignore_peer_down: true, ..Default::default() },
            bounds,
        )),
        ("replica", None) => Some(check(&replica::ReplicaModel::default(), bounds)),
        ("replica", Some("under_replicate")) => Some(check(
            &replica::ReplicaModel { under_replicate: true, ..Default::default() },
            bounds,
        )),
        ("gc", None) => Some(check(&gc::GcModel::default(), bounds)),
        ("gc", Some("sweep_before_decrement")) => Some(check(
            &gc::GcModel { sweep_before_decrement: true },
            bounds,
        )),
        ("partial", None) => Some(check(&partial::PartialModel::default(), bounds)),
        ("partial", Some("skip_replay")) => Some(check(
            &partial::PartialModel { skip_replay: true, ..Default::default() },
            bounds,
        )),
        _ => None,
    }
}
