//! Rule `commit-state`: `CommitState` values are minted only by the
//! snapshot authority.
//!
//! The commit lattice (`Uncommitted < LocalCommitted < GlobalCommitted`)
//! is owned by `cr_core::snapshot`: every transition must go through one
//! of the calls that write the global reference —
//! `GlobalSnapshot::{commit_interval, local_commit_interval,
//! promote_interval, retire_interval}` (`create`, the fifth writer, starts
//! with every interval `Uncommitted`) — so the persisted metadata, the
//! promotion monotonicity checked by `cr-model` (see
//! `crates/model/src/commit.rs`), and the in-memory view can never
//! disagree.  A component that builds a
//! `CommitState::…` value by hand is asserting a commit status the
//! authority never recorded — read it back with
//! `GlobalSnapshot::commit_state(interval)` instead.
//!
//! The rule flags `CommitState::Variant` path expressions in non-test
//! function bodies outside `cr_core::snapshot`.  Read-only contexts are
//! allowed: comparison operands (preceded by `==`/`!=`) and match-arm
//! patterns (followed by `=>` or `|`), which inspect a value the
//! authority produced rather than minting a new one.

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::report::{Finding, Rule};

/// The module that owns the lattice; constructions there are legitimate.
const AUTHORITY_FILE: &str = "core/src/snapshot.rs";

/// Check one file for hand-built `CommitState` values.
pub fn check(file: &FileModel, findings: &mut Vec<Finding>) {
    if file.rel.ends_with(AUTHORITY_FILE) {
        return;
    }
    let toks = &file.toks;
    for f in &file.fns {
        if f.is_test {
            continue;
        }
        let mut i = f.body.start;
        while i + 3 < f.body.end {
            let Some(t) = toks.get(i) else { break };
            if !(t.is_ident("CommitState")
                && toks.get(i + 1).is_some_and(|p| p.is_punct(':'))
                && toks.get(i + 2).is_some_and(|p| p.is_punct(':')))
            {
                i += 1;
                continue;
            }
            let Some(variant) = toks.get(i + 3).filter(|v| v.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            // Comparison operand: `== CommitState::X` / `!= CommitState::X`.
            let compared = i >= f.body.start + 2
                && toks.get(i - 1).is_some_and(|p| p.is_punct('='))
                && toks
                    .get(i - 2)
                    .is_some_and(|p| p.is_punct('=') || p.is_punct('!'));
            // Match-arm pattern: `CommitState::X => …` / `CommitState::X | …`.
            let pattern = toks.get(i + 4).is_some_and(|p| p.is_punct('|'))
                || (toks.get(i + 4).is_some_and(|p| p.is_punct('='))
                    && toks.get(i + 5).is_some_and(|p| p.is_punct('>')));
            if !compared && !pattern {
                findings.push(Finding::new(
                    Rule::CommitState,
                    &file.rel,
                    variant.line,
                    format!(
                        "CommitState::{} is constructed outside cr_core::snapshot: \
                         commit transitions must go through commit_interval / \
                         local_commit_interval / promote_interval / retire_interval; \
                         read the status back with \
                         GlobalSnapshot::commit_state(interval)",
                        variant.text
                    ),
                ));
            }
            i += 4;
        }
    }
}
