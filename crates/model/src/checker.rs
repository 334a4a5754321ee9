//! Explicit-state model checker: breadth-first exploration of the full
//! reachable state space of a small hand-written transition system, with
//! invariant checking and deterministic, minimal-length counterexample
//! traces.
//!
//! The engine is intentionally tiny and dependency-free, mirroring how
//! `cr-lint` keeps the static-analysis layer in-tree.  States must be
//! `Clone + Ord + Debug`: `Ord` gives a canonical visited-set order so
//! exploration (and therefore the first counterexample found) is fully
//! deterministic across runs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// A transition system with invariants, checked exhaustively by [`check`].
pub trait Model {
    /// The state type.  `Ord` makes the visited set (and thus BFS order)
    /// canonical; `Debug` renders counterexample traces.
    type State: Clone + Ord + Debug;

    /// Short stable name used by the `cr-model` CLI and stats JSON.
    fn name(&self) -> &'static str;

    /// The initial state(s) of the system.
    fn initial(&self) -> Vec<Self::State>;

    /// Push every enabled `(action-label, successor)` pair for `state`
    /// onto `out`.  Labels must uniquely identify the transition from a
    /// given state (they name the steps of a counterexample trace).
    fn transitions(&self, state: &Self::State, out: &mut Vec<(String, Self::State)>);

    /// State invariant, checked on every reachable state.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    /// Edge invariant, checked on every explored transition (e.g. a
    /// monotonicity property relating `from` and `to`).
    fn step_invariant(
        &self,
        _from: &Self::State,
        _action: &str,
        _to: &Self::State,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// Exploration bounds.  `exhaustive()` is effectively unbounded for the
/// in-repo models (a few thousand states each); `smoke()` caps work for
/// the tier-1 gate so a state-space explosion shows up as a truncated
/// (and therefore failing) run instead of a hung CI job.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Stop inserting new states past this count (run is marked truncated).
    pub max_states: usize,
    /// Do not expand states at this BFS depth or beyond.
    pub max_depth: usize,
}

impl Bounds {
    /// Bounds for full verification: large enough that every in-repo
    /// model is explored completely.
    pub fn exhaustive() -> Self {
        Bounds { max_states: 2_000_000, max_depth: usize::MAX }
    }

    /// Deterministic bounded run for `scripts/check.sh`; the in-repo
    /// models still complete exhaustively well inside these bounds.
    pub fn smoke() -> Self {
        Bounds { max_states: 200_000, max_depth: 64 }
    }
}

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Action label of the transition taken.
    pub action: String,
    /// Debug rendering of the state reached by the action.
    pub state: String,
}

/// A minimal-length violating execution: an initial state plus the
/// actions leading to the violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The invariant message produced at the violating state/edge.
    pub invariant: String,
    /// Debug rendering of the initial state of the trace.
    pub initial: String,
    /// The steps from the initial state to the violation.
    pub steps: Vec<TraceStep>,
}

impl Counterexample {
    /// Number of transitions in the trace.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the initial state itself violates the invariant.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The action labels of the trace, in order.
    pub fn actions(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.action.as_str()).collect()
    }

    /// Human-readable rendering of the trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("violated: {}\n", self.invariant));
        out.push_str(&format!("  init: {}\n", self.initial));
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {} -> {}\n", i + 1, step.action, step.state));
        }
        out
    }
}

/// Result of one model-checking run.
#[derive(Debug)]
pub struct CheckReport {
    /// Model name.
    pub model: &'static str,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions explored (edges, including ones to known states).
    pub transitions: usize,
    /// Maximum BFS depth reached.
    pub depth: usize,
    /// True when a bound stopped exploration before the frontier emptied.
    pub truncated: bool,
    /// First (minimal-length) violation found, if any.
    pub violation: Option<Counterexample>,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl CheckReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// True when the full reachable state space was explored.
    pub fn exhaustive(&self) -> bool {
        !self.truncated
    }
}

/// Explore the reachable state space of `model` breadth-first up to
/// `bounds`, checking [`Model::invariant`] on every state and
/// [`Model::step_invariant`] on every edge.  The first violation found
/// is at minimal BFS depth, so no shorter trace reaches any violation.
pub fn check<M: Model>(model: &M, bounds: &Bounds) -> CheckReport {
    let start = Instant::now();
    let mut states: Vec<M::State> = Vec::new();
    let mut index: BTreeMap<M::State, usize> = BTreeMap::new();
    // parent[i] = Some((predecessor id, action)) for non-initial states.
    let mut parent: Vec<Option<(usize, String)>> = Vec::new();
    let mut depth_of: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut truncated = false;
    let mut violation: Option<Counterexample> = None;

    for s in model.initial() {
        if index.contains_key(&s) {
            continue;
        }
        let id = states.len();
        index.insert(s.clone(), id);
        states.push(s);
        parent.push(None);
        depth_of.push(0);
        queue.push_back(id);
    }
    for (id, s) in states.iter().enumerate() {
        if let Err(msg) = model.invariant(s) {
            violation = Some(trace_to(&states, &parent, id, msg, None));
            break;
        }
    }

    let mut succs: Vec<(String, M::State)> = Vec::new();
    'bfs: while violation.is_none() {
        let id = match queue.pop_front() {
            Some(id) => id,
            None => break,
        };
        let cur = match states.get(id) {
            Some(s) => s.clone(),
            None => break,
        };
        let depth = depth_of.get(id).copied().unwrap_or(0);
        if depth >= bounds.max_depth {
            truncated = true;
            continue;
        }
        succs.clear();
        model.transitions(&cur, &mut succs);
        for (action, next) in succs.drain(..) {
            transitions += 1;
            if let Err(msg) = model.step_invariant(&cur, &action, &next) {
                let extra = Some(TraceStep { action, state: format!("{next:?}") });
                violation = Some(trace_to(&states, &parent, id, msg, extra));
                break 'bfs;
            }
            if index.contains_key(&next) {
                continue;
            }
            if states.len() >= bounds.max_states {
                truncated = true;
                continue;
            }
            let nid = states.len();
            index.insert(next.clone(), nid);
            states.push(next);
            parent.push(Some((id, action)));
            depth_of.push(depth + 1);
            max_depth = max_depth.max(depth + 1);
            if let Err(msg) = model.invariant(states.get(nid).unwrap_or(&cur)) {
                violation = Some(trace_to(&states, &parent, nid, msg, None));
                break 'bfs;
            }
            queue.push_back(nid);
        }
    }

    CheckReport {
        model: model.name(),
        states: states.len(),
        transitions,
        depth: max_depth,
        truncated,
        violation,
        wall: start.elapsed(),
    }
}

/// Reconstruct the action path from an initial state to `id` via the
/// BFS parent pointers, optionally appending one extra (violating) edge.
fn trace_to<S: Clone + Debug>(
    states: &[S],
    parent: &[Option<(usize, String)>],
    id: usize,
    invariant: String,
    extra: Option<TraceStep>,
) -> Counterexample {
    let mut rev: Vec<TraceStep> = Vec::new();
    let mut cur = id;
    loop {
        match parent.get(cur).and_then(|p| p.as_ref()) {
            Some((pred, action)) => {
                let state = states
                    .get(cur)
                    .map(|s| format!("{s:?}"))
                    .unwrap_or_else(|| "<missing>".to_owned());
                rev.push(TraceStep { action: action.clone(), state });
                cur = *pred;
            }
            None => break,
        }
    }
    rev.reverse();
    if let Some(step) = extra {
        rev.push(step);
    }
    let initial = states
        .get(cur)
        .map(|s| format!("{s:?}"))
        .unwrap_or_else(|| "<missing>".to_owned());
    Counterexample { invariant, initial, steps: rev }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter that must stay below 3; `inc` and a no-op `spin` action.
    struct Counter;
    impl Model for Counter {
        type State = u8;
        fn name(&self) -> &'static str {
            "counter"
        }
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            if *s < 5 {
                out.push(("inc".to_owned(), s + 1));
            }
            out.push(("spin".to_owned(), *s));
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            if *s >= 3 {
                Err(format!("counter reached {s}"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn bfs_finds_minimal_trace() {
        let report = check(&Counter, &Bounds::exhaustive());
        let cx = report.violation.expect("counter must violate");
        assert_eq!(cx.actions(), vec!["inc", "inc", "inc"]);
        assert_eq!(cx.invariant, "counter reached 3");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = check(&Counter, &Bounds::exhaustive());
        let b = check(&Counter, &Bounds::exhaustive());
        let ca = a.violation.expect("violation");
        let cb = b.violation.expect("violation");
        assert_eq!(ca.render(), cb.render());
    }

    /// Bounded counter without violations explores exhaustively.
    struct Bounded;
    impl Model for Bounded {
        type State = u8;
        fn name(&self) -> &'static str {
            "bounded"
        }
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            if *s < 10 {
                out.push(("inc".to_owned(), s + 1));
            }
        }
        fn invariant(&self, _s: &u8) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn exhaustive_run_reports_full_space() {
        let report = check(&Bounded, &Bounds::exhaustive());
        assert!(report.ok());
        assert!(report.exhaustive());
        assert_eq!(report.states, 11);
        assert_eq!(report.depth, 10);
    }

    #[test]
    fn depth_bound_marks_truncated() {
        let report = check(&Bounded, &Bounds { max_states: 1_000, max_depth: 3 });
        assert!(report.ok());
        assert!(!report.exhaustive());
        assert_eq!(report.states, 4); // depths 0..=3
    }

    #[test]
    fn state_bound_marks_truncated() {
        let report = check(&Bounded, &Bounds { max_states: 5, max_depth: usize::MAX });
        assert!(report.ok());
        assert!(!report.exhaustive());
        assert_eq!(report.states, 5);
    }
}
