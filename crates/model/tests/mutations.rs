//! Mutation self-tests: delete or weaken one transition guard per model
//! and assert the checker finds a counterexample with a minimal trace of
//! the expected length.  These are the checker's own regression tests —
//! if a model or the BFS engine rots, the known-bad variants stop
//! producing their counterexamples and these fail.

use model::checker::{check, Bounds};
use model::commit::CommitModel;
use model::gc::GcModel;
use model::partial::PartialModel;
use model::quiesce::QuiesceModel;
use model::replica::ReplicaModel;

#[test]
fn pristine_models_are_exhaustively_green() {
    for name in model::MODEL_NAMES {
        let report = model::run_model(name, None, &Bounds::exhaustive())
            .expect("known model name");
        assert!(
            report.ok(),
            "{name}: {}",
            report.violation.map(|c| c.render()).unwrap_or_default()
        );
        assert!(report.exhaustive(), "{name} truncated");
    }
}

#[test]
fn smoke_bounds_still_cover_every_model_exhaustively() {
    // scripts/check.sh runs `cr-model --all --smoke`; the gate is only
    // meaningful if the bounded run still visits the full state space.
    for name in model::MODEL_NAMES {
        let report =
            model::run_model(name, None, &Bounds::smoke()).expect("known model name");
        assert!(report.ok() && report.exhaustive(), "{name} truncated under smoke bounds");
    }
}

#[test]
fn promote_before_gather_is_caught() {
    // Weakened guard: promotion no longer waits for the write-behind
    // gather to drain.  Minimal failure: begin, local_commit, promote.
    let m = CommitModel { promote_before_gather: true, ..Default::default() };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("mutated commit model must fail");
    assert_eq!(cx.actions(), vec!["begin(0)", "local_commit(0)", "promote(0)"]);
    assert!(cx.invariant.contains("GlobalCommitted"), "{}", cx.invariant);
}

#[test]
fn commit_regression_violates_monotonicity() {
    // Weakened rule: a direct demotion of a GlobalCommitted interval —
    // the write the commit-state lint rule forbids outside the snapshot
    // authority.  Caught by the step invariant on the regressing edge.
    let m = CommitModel { allow_regress: true, ..Default::default() };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("regressing commit model must fail");
    assert_eq!(cx.len(), 3, "trace: {}", cx.render());
    assert!(cx.invariant.contains("monotone"), "{}", cx.invariant);
}

#[test]
fn deleting_quiesced_barrier_rediscovers_bookmark_overrun() {
    // The PR 1/PR 3 bug: without the Quiesced exit barrier a fast rank
    // resumes and its round-1 frame lands in the slow peer's round-0
    // drain.  Expected minimal trace (7 steps): both ranks notify, rank
    // 0 receives rank 1's bookmark and finishes its drain, exits early,
    // sends a round-1 frame, and rank 1 ingests it before rank 0's
    // bookmark reaches it.
    let m = QuiesceModel { skip_barrier: true, ..Default::default() };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("barrier-free quiesce model must fail");
    assert_eq!(cx.len(), 7, "trace: {}", cx.render());
    assert!(cx.invariant.contains("cross-round"), "{}", cx.invariant);
    let actions = cx.actions().join(" ");
    assert!(actions.contains("exit(0)"), "fast rank must exit early: {actions}");
    assert!(actions.contains("send_app(0,round=1)"), "round-1 send: {actions}");
    assert!(actions.contains("ingest(1,tag=1)"), "cross-round ingest: {actions}");
}

#[test]
fn dropping_the_epoch_counts_a_refused_orders_bookmark_in_the_next() {
    // Every message stamped with the receiver's current epoch: rank 0's
    // bookmark of order 0, which rank 1 refused, reaches rank 1's round
    // of order 1 and is counted there.
    let m = QuiesceModel { drop_epoch: true, ..Default::default() };
    let cx = check(&m, &Bounds::exhaustive()).violation.expect("epoch-free model must fail");
    assert_eq!(
        cx.actions(),
        vec!["notify(0)", "refuse(1)", "abort(1)", "notify(1)", "recv(1<-0,bookmark)"]
    );
    assert!(cx.invariant.contains("message of epoch 0 counted in epoch 1"), "{}", cx.invariant);
}

#[test]
fn ignoring_peer_down_leaves_a_survivor_stuck() {
    // Today's hang before this protocol: rank 2 dies while ranks 0 and
    // 1 wait for its bookmark, and with death notices ignored no step
    // is ever enabled again.
    let m = QuiesceModel { ignore_peer_down: true, ..Default::default() };
    let cx = check(&m, &Bounds::exhaustive()).violation.expect("deaf model must fail");
    assert_eq!(cx.len(), 7, "trace: {}", cx.render());
    assert!(cx.actions().contains(&"kill(2)"), "{}", cx.render());
    assert!(cx.invariant.contains("stuck survivor"), "{}", cx.invariant);
}

#[test]
fn with_the_barrier_the_overrun_is_unreachable() {
    // The same interleavings with the barrier restored: exhaustively
    // green — the PR 3 fix closes the race for every schedule, not just
    // the hand-picked ones in the integration tests.
    let report = check(&QuiesceModel::default(), &Bounds::exhaustive());
    assert!(report.ok() && report.exhaustive());
}

#[test]
fn under_replication_loses_an_image() {
    // Weakened placement: one fewer ring successor than the factor
    // promises.  Minimal failure: commit an image, kill both holders.
    let m = ReplicaModel { under_replicate: true, ..Default::default() };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("under-replicated model must fail");
    assert_eq!(cx.actions(), vec!["commit(0)", "kill(0)", "kill(1)"]);
    assert!(cx.invariant.contains("no live holder"), "{}", cx.invariant);
}

#[test]
fn sweep_before_decrement_dangles_a_shared_chunk() {
    // Weakened retirement: the GC sweeps the retired manifest's chunk
    // list before the decrement lands, so the refcount cannot protect a
    // chunk shared with a live manifest.  Minimal failure: commit and
    // retire interval 0 (its decref still pending), commit interval 1 —
    // which dedups onto the shared chunk `b` — then the eager sweep of
    // interval 0's list removes `b` out from under interval 1.
    let m = GcModel { sweep_before_decrement: true };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("eager-sweep gc model must fail");
    assert_eq!(
        cx.actions(),
        vec![
            "prepare(0)",
            "record(0)",
            "retire(0)",
            "prepare(1)",
            "record(1)",
            "sweep_retired(b)",
        ]
    );
    assert!(cx.invariant.contains("live interval"), "{}", cx.invariant);
}

#[test]
fn with_decrement_first_the_gc_is_safe() {
    // The production order (retire record, decref, sweep count-zero) is
    // exhaustively green: every crash point between the steps is a
    // reachable state, so "node death between decrement and sweep" is
    // covered — a crash can leak a blob, never dangle one.
    let report = check(&GcModel::default(), &Bounds::exhaustive());
    assert!(report.ok() && report.exhaustive());
}

#[test]
fn skipping_replay_leaves_a_message_gap() {
    // Weakened fence: `replay_done` no longer waits for the logged
    // backlog to drain.  Minimal failure: commit a checkpoint, send one
    // frame (it dies with the peer's endpoint), kill, restore from the
    // commit point, and fence immediately — the rejoined rank is live
    // with frame 1 neither delivered nor replayed.
    let m = PartialModel { skip_replay: true, ..Default::default() };
    let report = check(&m, &Bounds::exhaustive());
    let cx = report.violation.expect("fence-first partial model must fail");
    assert_eq!(
        cx.actions(),
        vec!["checkpoint(0)", "send(1)", "kill", "restore(0)", "replay_done"]
    );
    assert!(cx.invariant.contains("message gap"), "{}", cx.invariant);
}

#[test]
fn with_the_replay_guard_partial_restart_is_green() {
    // The production order (repoint, replay backlog, then fence) is
    // exhaustively green, including a second kill after a completed
    // recovery — survivors never regress and no gap survives the fence.
    let report = check(&PartialModel::default(), &Bounds::exhaustive());
    assert!(report.ok() && report.exhaustive());
}

#[test]
fn counterexample_traces_are_deterministic() {
    let m = QuiesceModel { skip_barrier: true, ..Default::default() };
    let a = check(&m, &Bounds::exhaustive());
    let b = check(&m, &Bounds::exhaustive());
    let ca = a.violation.expect("violation").render();
    let cb = b.violation.expect("violation").render();
    assert_eq!(ca, cb);
}
