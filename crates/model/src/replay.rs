//! Replay-conformance: check a *recorded* FT event journal against the
//! protocol models.
//!
//! The model checker explores every behaviour the protocol allows; this
//! module asks the converse question about one concrete run: **is the
//! sequence of events the journal recorded reachable in the model at
//! all?**  `cr-replay replay --model commit <journal>` feeds the
//! journal's phase stream through [`conformance`], which simulates the
//! named model as a *candidate set* of states (the journal does not
//! record every internal detail, so the simulation is nondeterministic):
//!
//! * each journal phase with a [`PhaseRule`] must correspond to one of a
//!   small set of model actions (matched by action name, any index);
//! * before matching, the candidate set is closed under the model's
//!   *internal* actions — steps the protocol takes without emitting a
//!   trace event (bounded, so a runaway closure fails loudly instead of
//!   hanging);
//! * a `strict` rule with no matching enabled transition is a
//!   **violation**, pinned to the journal seq that could not be
//!   explained; a lenient rule is skipped (the mapping is advisory);
//! * phases with no rule for the model are ignored.
//!
//! The mappings are deliberately conservative: `commit` and `quiesce`
//! have strict rules (their trace phases correspond one-to-one to model
//! actions), `replica` and `gc` are lenient-only sanity sweeps.  The
//! quiesce model runs 2 ranks × 2 orders (plus a 3-rank world with one
//! death), so strict quiesce replay only applies to journals from runs
//! of that shape — larger runs should replay against `commit`, which is
//! rank-agnostic.

use std::collections::BTreeSet;

use crate::checker::Model;
use crate::{commit, gc, partial, quiesce, replica};

/// One journal event to replay: its seq (for violation reports), the
/// actor that recorded it and its phase string.  Built by `cr-replay`
/// from `journal::JournalEntry`; kept `String`-based here so `model` does
/// not depend on `journal`.
#[derive(Clone, Debug)]
pub struct ReplayEvent {
    /// Journal sequence number of the event.
    pub seq: u64,
    /// Attribution label (`rank3`, `node01`), empty for runtime events.
    pub actor: String,
    /// Trace phase string (e.g. `snapc.global.local_commit`).
    pub phase: String,
}

/// Mapping from one journal phase to the model actions that can explain
/// it.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRule {
    /// Journal phase this rule applies to.
    pub phase: &'static str,
    /// Model action names (index argument ignored) that may explain one
    /// occurrence of the phase.
    pub actions: &'static [&'static str],
    /// Strict: an occurrence with no enabled matching transition is a
    /// violation.  Lenient: it is skipped.
    pub strict: bool,
    /// An event recorded by `rankN` is explained only by an action whose
    /// first argument is rank N.
    pub by_actor: bool,
}

/// A journal event the model cannot explain.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Journal seq of the offending event.
    pub seq: u64,
    /// Its phase string.
    pub phase: String,
    /// Why no model transition matched.
    pub detail: String,
}

/// Result of replaying one journal against one model.
#[derive(Debug)]
pub struct ConformanceReport {
    /// Model name.
    pub model: &'static str,
    /// Total journal events examined.
    pub events: usize,
    /// Events matched to a model transition.
    pub matched: usize,
    /// Lenient-rule events with no enabled transition (skipped).
    pub skipped: usize,
    /// Events with no rule for this model (ignored).
    pub ignored: usize,
    /// True when the candidate set hit its size bound (a violation found
    /// after truncation could be spurious; none of the in-repo models
    /// get close to the bound).
    pub truncated: bool,
    /// First inexplicable event, if any.
    pub violation: Option<Violation>,
}

impl ConformanceReport {
    /// True when every strict-rule event was explained by the model.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "model {}: {} events ({} matched, {} skipped, {} ignored)\n",
            self.model, self.events, self.matched, self.skipped, self.ignored
        );
        if self.truncated {
            out.push_str("  (candidate set truncated — result is best-effort)\n");
        }
        match &self.violation {
            Some(v) => out.push_str(&format!(
                "NOT CONFORMANT at seq {} `{}`: {}\n",
                v.seq, v.phase, v.detail
            )),
            None => out.push_str("conformant: the run is model-reachable\n"),
        }
        out
    }
}

/// Candidate-set size bound for the nondeterministic simulation.
const MAX_CANDIDATES: usize = 4096;

/// The action name before the `(index)` argument, e.g. `begin(1)` →
/// `begin`.
fn action_base(label: &str) -> &str {
    label.split('(').next().unwrap_or(label)
}

/// The number that opens the action's argument, e.g. `exit(1)` → 1.
fn action_rank(label: &str) -> Option<u32> {
    label.split_once('(')?.1.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Close `set` under the model's internal actions (bounded BFS).
fn close_internal<M: Model>(
    model: &M,
    internal: &[&str],
    set: &mut BTreeSet<M::State>,
    truncated: &mut bool,
) {
    if internal.is_empty() {
        return;
    }
    let mut queue: Vec<M::State> = set.iter().cloned().collect();
    let mut succs: Vec<(String, M::State)> = Vec::new();
    while let Some(s) = queue.pop() {
        if set.len() >= MAX_CANDIDATES {
            *truncated = true;
            return;
        }
        succs.clear();
        model.transitions(&s, &mut succs);
        for (label, next) in succs.drain(..) {
            if internal.contains(&action_base(&label)) && set.insert(next.clone()) {
                queue.push(next);
            }
        }
    }
}

/// Replay `events` against `model` under the given phase mapping.
///
/// This is the generic engine behind [`conformance`]; exposed so tests
/// (and future models) can supply their own rules.
pub fn conform<M: Model>(
    model: &M,
    rules: &[PhaseRule],
    internal: &[&str],
    events: &[ReplayEvent],
) -> ConformanceReport {
    let mut report = ConformanceReport {
        model: model.name(),
        events: events.len(),
        matched: 0,
        skipped: 0,
        ignored: 0,
        truncated: false,
        violation: None,
    };
    let mut candidates: BTreeSet<M::State> = model.initial().into_iter().collect();
    let mut succs: Vec<(String, M::State)> = Vec::new();
    for event in events {
        let rule = match rules.iter().find(|r| r.phase == event.phase) {
            Some(r) => r,
            None => {
                report.ignored += 1;
                continue;
            }
        };
        // Let the model take unobservable steps, then take one observed one.
        let mut closure = candidates.clone();
        close_internal(model, internal, &mut closure, &mut report.truncated);
        let rank = event.actor.strip_prefix("rank").and_then(|r| r.parse().ok());
        let rank = rank.filter(|_| rule.by_actor);
        let mut matched: BTreeSet<M::State> = BTreeSet::new();
        for s in &closure {
            succs.clear();
            model.transitions(s, &mut succs);
            for (label, next) in succs.drain(..) {
                if rule.actions.contains(&action_base(&label))
                    && (rank.is_none() || action_rank(&label) == rank)
                {
                    matched.insert(next);
                }
            }
        }
        if matched.is_empty() {
            if rule.strict {
                report.violation = Some(Violation {
                    seq: event.seq,
                    phase: event.phase.clone(),
                    detail: format!(
                        "no enabled {:?} transition in any of {} candidate state(s): \
                         the recorded order is not model-reachable",
                        rule.actions,
                        closure.len()
                    ),
                });
                return report;
            }
            report.skipped += 1;
            continue;
        }
        report.matched += 1;
        if rule.strict {
            candidates = matched;
        } else {
            // A lenient phase *may* be this model action (or may be
            // unrelated traffic): keep both readings.
            candidates.extend(matched);
        }
        if candidates.len() > MAX_CANDIDATES {
            report.truncated = true;
            candidates = candidates.into_iter().take(MAX_CANDIDATES).collect();
        }
    }
    report
}

/// Phase rules for the `commit` model.  `filem.gather` is lenient
/// because the same phase is also recorded by the replica peer-memory
/// path and the classic blocking path (where it explains
/// `blocking_commit`).
const COMMIT_RULES: &[PhaseRule] = &[
    PhaseRule { phase: "snapc.global.initiate", actions: &["begin"], strict: true, by_actor: false },
    PhaseRule { phase: "snapc.global.local_commit", actions: &["local_commit"], strict: true, by_actor: false },
    PhaseRule { phase: "snapc.global.global_commit", actions: &["promote"], strict: true, by_actor: false },
    PhaseRule { phase: "filem.gather", actions: &["gather_done", "blocking_commit"], strict: false, by_actor: false },
    PhaseRule { phase: "orte.daemon.kill", actions: &["kill"], strict: false, by_actor: false },
    PhaseRule { phase: "ompi.restart", actions: &["restart"], strict: false, by_actor: false },
];

/// Phase rules for the `quiesce` model (2 ranks × 2 orders only), each
/// bound to the recording rank: a round that returns `Quiesced` (the
/// exit barrier passed), the rank leaving it, and a round's abort.
const QUIESCE_RULES: &[PhaseRule] = &[
    PhaseRule { phase: "ompi.crcp.quiesced", actions: &["quiesced"], strict: true, by_actor: true },
    PhaseRule { phase: "ompi.crcp.resume", actions: &["exit"], strict: true, by_actor: true },
    PhaseRule { phase: "ompi.crcp.aborted", actions: &["abort"], strict: true, by_actor: true },
];

/// Internal (trace-silent) actions of the quiesce model.
const QUIESCE_INTERNAL: &[&str] =
    &["send_app", "notify", "refuse", "recv", "ingest", "send_quiesced"];

/// Lenient sanity rules for the `replica` model.
const REPLICA_RULES: &[PhaseRule] = &[
    PhaseRule { phase: "filem.replica.put", actions: &["commit"], strict: false, by_actor: false },
    PhaseRule { phase: "filem.replica.expire", actions: &["retire"], strict: false, by_actor: false },
    PhaseRule { phase: "orte.daemon.kill", actions: &["kill"], strict: false, by_actor: false },
];

/// Lenient sanity rules for the `gc` model (its two-interval manifest
/// shape cannot carry a whole run strictly).
const GC_RULES: &[PhaseRule] = &[
    PhaseRule { phase: "store.commit", actions: &["record"], strict: false, by_actor: false },
    PhaseRule { phase: "store.gc.sweep", actions: &["sweep"], strict: false, by_actor: false },
];

/// Internal actions of the gc model (no trace phase maps to them).
const GC_INTERNAL: &[&str] = &["prepare", "retire", "decref"];

/// Lenient sanity rules for the `partial` model.  The model is a
/// two-rank abstraction while a real partial-restart journal records one
/// resend per survivor, so the mapping is advisory: each phase *may* be
/// the corresponding model action.  The model's `restore` is the whole
/// recovery in one step (the spare claim, each survivor's resent
/// backlog, and `crcp.replay.done` once every backlog is queued).
const PARTIAL_RULES: &[PhaseRule] = &[
    PhaseRule { phase: "snapc.global.global_commit", actions: &["checkpoint"], strict: false, by_actor: false },
    PhaseRule { phase: "orte.daemon.kill", actions: &["kill"], strict: false, by_actor: false },
    PhaseRule { phase: "orte.spare.claim", actions: &["restore"], strict: false, by_actor: false },
    PhaseRule { phase: "crcp.replay.resent", actions: &["restore"], strict: false, by_actor: false },
    PhaseRule { phase: "crcp.replay.done", actions: &["restore"], strict: false, by_actor: false },
];

/// Internal (trace-silent) actions of the partial model.
const PARTIAL_INTERNAL: &[&str] = &["send", "deliver", "quiesce"];

/// Replay `events` against the named shipped model.  Returns `None` for
/// an unknown model name.  The commit model's interval bound is sized to
/// the number of `snapc.global.initiate` events observed (capped at 8 to
/// keep the candidate space small).
pub fn conformance(model: &str, events: &[ReplayEvent]) -> Option<ConformanceReport> {
    match model {
        "commit" => {
            let initiates = events
                .iter()
                .filter(|e| e.phase == "snapc.global.initiate")
                .count();
            let m = commit::CommitModel {
                max_intervals: initiates.clamp(1, 8),
                ..Default::default()
            };
            Some(conform(&m, COMMIT_RULES, &[], events))
        }
        "quiesce" => Some(conform(
            &quiesce::QuiesceModel::default(),
            QUIESCE_RULES,
            QUIESCE_INTERNAL,
            events,
        )),
        "replica" => Some(conform(
            &replica::ReplicaModel::default(),
            REPLICA_RULES,
            &[],
            events,
        )),
        "gc" => Some(conform(&gc::GcModel::default(), GC_RULES, GC_INTERNAL, events)),
        "partial" => Some(conform(
            &partial::PartialModel::default(),
            PARTIAL_RULES,
            PARTIAL_INTERNAL,
            events,
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(phases: &[&str]) -> Vec<ReplayEvent> {
        let actors = vec![""; phases.len()];
        by(&actors, phases)
    }

    /// Events recorded by `actors[i]`.
    fn by(actors: &[&str], phases: &[&str]) -> Vec<ReplayEvent> {
        actors
            .iter()
            .zip(phases)
            .enumerate()
            .map(|(i, (a, p))| ReplayEvent { seq: i as u64, actor: a.to_string(), phase: p.to_string() })
            .collect()
    }

    #[test]
    fn green_early_release_run_conforms_to_commit() {
        let report = conformance(
            "commit",
            &events(&[
                "journal.open",
                "snapc.global.request",
                "snapc.global.initiate",
                "snapc.global.local_commit",
                "filem.gather",
                "snapc.global.global_commit",
                "snapc.global.initiate",
                "snapc.global.local_commit",
                "filem.gather",
                "snapc.global.global_commit",
                "ompi.restart",
            ]),
        )
        .expect("commit model known");
        assert!(report.ok(), "{}", report.render());
        assert!(report.matched >= 7, "{}", report.render());
        assert_eq!(report.ignored, 2); // journal.open, snapc.global.request
    }

    #[test]
    fn classic_blocking_run_conforms_to_commit() {
        let report = conformance(
            "commit",
            &events(&["snapc.global.initiate", "filem.gather", "ompi.restart"]),
        )
        .expect("commit model known");
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn promote_before_gather_is_rejected() {
        let report = conformance(
            "commit",
            &events(&[
                "snapc.global.initiate",
                "snapc.global.local_commit",
                "snapc.global.global_commit", // promoted before the gather drained
                "filem.gather",
            ]),
        )
        .expect("commit model known");
        let v = report.violation.expect("must reject");
        assert_eq!(v.seq, 2);
        assert_eq!(v.phase, "snapc.global.global_commit");
    }

    #[test]
    fn commit_before_initiate_is_rejected() {
        let report = conformance(
            "commit",
            &events(&["snapc.global.local_commit", "snapc.global.initiate"]),
        )
        .expect("commit model known");
        let v = report.violation.expect("must reject");
        assert_eq!(v.seq, 0);
    }

    #[test]
    fn quiesce_round_conforms() {
        let report = conformance(
            "quiesce",
            &events(&[
                "ompi.crcp.quiesced",
                "ompi.crcp.quiesced",
                "ompi.crcp.resume",
                "ompi.crcp.resume",
            ]),
        )
        .expect("quiesce model known");
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.matched, 4);
    }

    #[test]
    fn resume_before_peer_quiesced_is_rejected() {
        // Rank 0's round passed the barrier; rank 1 resumes before its own
        // round returned `Quiesced`.
        let report = conformance(
            "quiesce",
            &by(&["rank0", "rank1"], &["ompi.crcp.quiesced", "ompi.crcp.resume"]),
        )
        .expect("quiesce model known");
        let v = report.violation.clone().expect("must reject");
        assert_eq!(v.seq, 1, "{}", report.render());
        assert_eq!(v.phase, "ompi.crcp.resume");
        // Without actors the same two events are one rank's round.
        let report = conformance("quiesce", &events(&["ompi.crcp.quiesced", "ompi.crcp.resume"]));
        assert!(report.expect("quiesce model known").ok());
    }

    #[test]
    fn a_rank_may_resume_before_its_peer_records_quiesced() {
        // Rank 1's round returns as rank 0's `Quiesced` lands; it records
        // and resumes before rank 0's round sees rank 1's.
        let actors = ["rank1", "rank1", "rank0", "rank0"];
        let phases = ["ompi.crcp.quiesced", "ompi.crcp.resume"].repeat(2);
        let report = conformance("quiesce", &by(&actors, &phases)).expect("quiesce model known");
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.matched, 4);
    }

    #[test]
    fn aborted_round_then_quiesced_round_conforms() {
        // Rank 1 refuses the first order and rank 0's round aborts; both
        // take the second.
        let report = conformance(
            "quiesce",
            &events(&[
                "ompi.crcp.coordinate",
                "ompi.crcp.aborted",
                "ompi.crcp.aborted",
                "ompi.crcp.coordinate",
                "ompi.crcp.coordinate",
                "ompi.crcp.quiesced",
                "ompi.crcp.quiesced",
                "ompi.crcp.resume",
                "ompi.crcp.resume",
            ]),
        )
        .expect("quiesce model known");
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.matched, 6, "{}", report.render());
        // A third round is one more than the model's two orders.
        let three = events(&["ompi.crcp.aborted", "ompi.crcp.aborted"].repeat(3));
        let report = conformance("quiesce", &three).expect("quiesce model known");
        assert_eq!(report.violation.map(|v| v.seq), Some(4), "three aborted rounds");
    }

    #[test]
    fn lenient_models_never_violate() {
        let noisy = events(&[
            "filem.replica.put",
            "filem.replica.expire",
            "filem.replica.expire",
            "orte.daemon.kill",
            "store.gc.sweep",
            "store.commit",
            "store.commit",
            "store.commit",
        ]);
        for model in ["replica", "gc"] {
            let report = conformance(model, &noisy).expect("model known");
            assert!(report.ok(), "{model}: {}", report.render());
        }
    }

    #[test]
    fn partial_restart_journal_conforms() {
        // The phase stream a one-kill partial-restart run records:
        // commit, node loss, spare claim, the recovery's replay, next
        // commit.
        let report = conformance(
            "partial",
            &events(&[
                "snapc.global.global_commit",
                "orte.daemon.kill",
                "orte.spare.claim",
                "crcp.replay.resent",
                "crcp.replay.done",
                "snapc.global.global_commit",
            ]),
        )
        .expect("partial model known");
        assert!(report.ok(), "{}", report.render());
        assert!(report.matched >= 5, "{}", report.render());
    }

    #[test]
    fn unknown_model_is_none() {
        assert!(conformance("nope", &[]).is_none());
    }

    #[test]
    fn commit_sizes_intervals_to_the_run() {
        // Three initiates need max_intervals >= 3; the default of 2
        // would make the third `begin` unreachable.
        let report = conformance(
            "commit",
            &events(&[
                "snapc.global.initiate",
                "filem.gather",
                "snapc.global.initiate",
                "filem.gather",
                "snapc.global.initiate",
                "filem.gather",
            ]),
        )
        .expect("commit model known");
        assert!(report.ok(), "{}", report.render());
    }
}
