//! The FT event journal end to end (DESIGN.md §2.6): a real run's journal
//! verifies, attributes actors, replays against the commit, quiesce and
//! partial-restart protocol models, rejects tampered event orders, and
//! diffs run-to-run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_core::request::CheckpointOptions;
use journal::{diff, DiffKey, JournalEntry, JournalWriter};
use mca::McaParams;
use model::ReplayEvent;
use netsim::NodeId;
use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, Mpi, MpiError, RestartOptions, RunConfig};
use ompi_cr::{scratch_dir, test_runtime};
use workloads::ring::{RingApp, RingState};

/// One green early-release checkpointed run; returns its journal entries.
fn early_release_run(tag: &str) -> Vec<JournalEntry> {
    let params = Arc::new(McaParams::new());
    params.set("snapc_early_release", "true");
    checkpointed_run(tag, 4, params)
}

/// One green `nprocs`-rank ring run, checkpointed and terminated once;
/// returns its journal entries.
fn checkpointed_run(tag: &str, nprocs: u32, params: Arc<McaParams>) -> Vec<JournalEntry> {
    let rt = test_runtime(tag, 2);
    let app = Arc::new(RingApp { rounds: 500_000 });
    let job = mpirun(&rt, app, RunConfig { nprocs, params }).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    job.checkpoint(&CheckpointOptions::tool().and_terminate()).unwrap();
    job.wait().unwrap();
    rt.drain_writebehind();
    let path = rt.journal_path().expect("journal on by default");
    rt.shutdown();

    let report = journal::verify(&path).unwrap();
    assert!(report.ok(), "run journal must verify: {}", report.render());
    journal::read_entries(&path).unwrap()
}

fn to_events(entries: &[JournalEntry]) -> Vec<ReplayEvent> {
    entries
        .iter()
        .map(|e| ReplayEvent { seq: e.seq, actor: e.actor.clone(), phase: e.phase.clone() })
        .collect()
}

#[test]
fn real_run_journal_verifies_and_attributes_actors() {
    let entries = early_release_run("jrnl_attr");
    assert_eq!(entries[0].phase, "journal.open");
    // Runtime-level events carry no actor; daemon-side protocol events
    // are attributed to their node, rank-level events to their rank.
    assert!(entries.iter().any(|e| e.phase == "orte.daemon.spawn" && e.actor.is_empty()),
        "daemon spawns are runtime-level (node goes in the detail)");
    assert!(entries.iter().any(|e| e.phase == "snapc.local.initiate" && e.actor.starts_with("node")),
        "local coordinator events must be node-attributed");
    assert!(entries.iter().any(|e| e.actor.starts_with("rank")),
        "rank-level events must be rank-attributed");
    for r in 0..4u32 {
        let actor = format!("rank{r}");
        assert!(entries.iter().any(|e| e.actor == actor), "no events from {actor}");
    }
    // Seqs are dense from 0 and the chain is internally consistent.
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
        assert_eq!(e.hash, e.compute_hash());
    }
}

#[test]
fn green_run_replays_conformant_against_commit_model() {
    let entries = early_release_run("jrnl_green");
    let report = model::conformance("commit", &to_events(&entries)).unwrap();
    assert!(report.ok(), "green run must be model-reachable: {}", report.render());
    assert!(report.matched >= 4, "initiate/local_commit/gather/promote all map");
}

#[test]
fn two_rank_run_replays_conformant_against_quiesce_model() {
    // What `ompi-checkpoint --np 2 --app ring --term` records: each rank's
    // round quiesces and resumes, in whatever order the two interleave.
    let entries = checkpointed_run("jrnl_quiesce", 2, Arc::new(McaParams::new()));
    let report = model::conformance("quiesce", &to_events(&entries)).expect("quiesce model known");
    assert!(report.ok(), "{}", report.render());
    assert!(report.matched >= 4, "{}", report.render());
}

/// A ring whose rank 2 dies at its next step once `armed` is set.
struct FailingRing {
    ring: RingApp,
    armed: AtomicBool,
}

impl MpiApp for FailingRing {
    type State = RingState;

    fn init_state(&self, mpi: &Mpi) -> Result<RingState, MpiError> {
        self.ring.init_state(mpi)
    }

    fn step(&self, mpi: &Mpi, state: &mut RingState) -> Result<StepOutcome, MpiError> {
        if mpi.rank() == 2 && self.armed.swap(false, Ordering::SeqCst) {
            return Err(MpiError::PeerLost { detail: "injected node failure".into() });
        }
        self.ring.step(mpi, state)
    }
}

#[test]
fn partial_restart_run_replays_conformant_against_partial_model() {
    // A 4-rank ring checkpoints, loses rank 2 with its node, restores it
    // onto the spare while the others run on, and finishes. An
    // early-release gather records the `snapc.global.global_commit` the
    // model's checkpoint maps to.
    let rt = test_runtime("jrnl_partial", 5);
    let params = Arc::new(McaParams::new());
    params.set("snapc_early_release", "true");
    params.set("crcp_msg_log_enabled", "true");
    params.set("orte_spare_nodes", "1");
    let app = Arc::new(FailingRing { ring: RingApp { rounds: 40_000 }, armed: AtomicBool::new(false) });
    let job = mpirun(&rt, Arc::clone(&app), RunConfig { nprocs: 4, params }).unwrap();
    job.handle().set_partial_recovery(true);
    std::thread::sleep(Duration::from_millis(30));
    let ck = job.checkpoint(&CheckpointOptions::tool()).unwrap();
    // The interval's global commit is journaled by the write-behind gather;
    // arm the failure only once it has landed, so the kill comes after the
    // event the model's checkpoint maps to.
    rt.drain_writebehind();
    app.armed.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(30);
    while job.failed_ranks().is_empty() {
        assert!(Instant::now() < deadline, "injected failure never reported");
        std::thread::sleep(Duration::from_millis(5));
    }
    rt.kill_daemon(NodeId(2));
    job.restart_ranks(&ck.global_snapshot, &RestartOptions::default().with_ranks(vec![2]))
        .unwrap();
    job.wait().unwrap();
    let path = rt.journal_path().expect("journal on by default");
    rt.shutdown();

    let entries = journal::read_entries(&path).unwrap();
    let report = model::conformance("partial", &to_events(&entries)).expect("partial model known");
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.skipped, 0, "every mapped event is model-reachable: {}", report.render());
    // Commit, kill, claim, three resends and the replay's end.
    assert!(report.matched >= 7, "{}", report.render());
}

#[test]
fn tampered_promote_before_gather_is_rejected() {
    let entries = early_release_run("jrnl_tamper");
    let gather = entries.iter().position(|e| e.phase == "filem.gather").unwrap();
    let promote = entries
        .iter()
        .position(|e| e.phase == "snapc.global.global_commit")
        .unwrap();
    assert!(gather < promote, "early release gathers before promoting");

    // Re-chain a journal with the promote moved ahead of the gather: the
    // forged file is *physically* pristine — fresh CRCs, a valid hash
    // chain — so only protocol replay can catch it.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.retain(|&i| i != promote);
    let at = order.iter().position(|&i| i == gather).unwrap();
    order.insert(at, promote);

    let dir = scratch_dir("jrnl_forged");
    let path = dir.join(journal::FILE_NAME);
    let mut w = JournalWriter::open(&path, 0).unwrap();
    for &i in &order {
        let e = &entries[i];
        w.append(&e.actor, &e.phase, &e.detail, e.elapsed_ns).unwrap();
    }
    w.flush().unwrap();

    let chain = journal::verify(&path).unwrap();
    assert!(chain.ok(), "the forgery is chain-valid by construction");
    let forged = journal::read_entries(&path).unwrap();
    let report = model::conformance("commit", &to_events(&forged)).unwrap();
    assert!(!report.ok(), "promote-before-gather must be model-unreachable");
    let v = report.violation.clone().unwrap();
    assert_eq!(v.phase, "snapc.global.global_commit", "{}", report.render());
    assert_eq!(v.seq, forged[at].seq, "violation pins the forged entry");
}

#[test]
fn diff_pinpoints_divergence_between_two_seeded_runs() {
    // Two single-rank runs of the same seeded workload journal the same
    // phase sequence (details differ: run-local paths), except run B
    // loses its node after completion.
    let run = |tag: &str, kill: bool| -> Vec<JournalEntry> {
        let rt = test_runtime(tag, 1);
        let app = Arc::new(RingApp { rounds: 1_000 });
        let job = mpirun(&rt, app, RunConfig::new(1)).unwrap();
        job.wait().unwrap();
        if kill {
            rt.kill_daemon(NodeId(0));
        }
        let path = rt.journal_path().unwrap();
        rt.shutdown();
        journal::read_entries(&path).unwrap()
    };
    let a = run("jrnl_diff_a", false);
    let b = run("jrnl_diff_b", true);

    // Same run shape under the phase-only key: identical prefix...
    let same = diff(&a, &a, DiffKey::PhaseOnly);
    assert!(same.identical());
    assert!(same.render(&a, 3).contains("identical"));

    // ...while the kill shows up as the exact first divergence, with the
    // surviving prefix aligned.
    let report = diff(&a, &b, DiffKey::PhaseOnly);
    assert!(!report.identical());
    let d = report.divergence.as_ref().unwrap();
    assert_eq!(
        d.right.as_ref().map(|e| e.phase.as_str()),
        Some("orte.daemon.kill"),
        "unexpected divergence:\n{}",
        report.render(&a, 5)
    );
    let rendered = report.render(&a, 3);
    assert!(rendered.contains("first divergence at index"), "{rendered}");
    assert!(rendered.contains("orte.daemon.kill"), "{rendered}");

    // Full-key diff of two distinct runs diverges earlier (details embed
    // run-local snapshot paths) — that's what --phases-only is for.
    assert!(!diff(&a, &b, DiffKey::Full).identical());
}
