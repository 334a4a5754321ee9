//! Rule `dead-pub`: every public function has a caller outside test code.
//!
//! A `pub fn` in a library crate (`crates/*/src`) is surface the next
//! reader has to understand and keep working. When the only code that
//! calls it is its own unit tests, it is dead weight: a second way to do
//! something the system no longer does, kept alive by tests that check
//! nothing anyone uses. The rule flags each such function.
//!
//! The scan is by name. A function counts as called when its name
//! appears as an identifier anywhere in non-test code — any crate's
//! `src/`, the root package, or the extra caller sources (`examples/`,
//! `benchmark/src`, `crates/*/benches`) — other than in its own
//! declaration and body, and other than in a `use` item (a re-export is
//! not a call). A common name (`new`, `len`) is therefore never flagged;
//! the rule errs towards silence.
//!
//! Public API kept on purpose (MPI calls that tests exercise, queries
//! integration tests use to check paper behaviour) is grandfathered
//! through `lint.allow` (`dead-pub<TAB>path<TAB>n`); the count per file
//! may only go down.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::report::{Finding, Rule};

/// True for the library sources whose `pub fn`s the rule audits.
fn is_library(rel: &str) -> bool {
    matches!(rel.split('/').collect::<Vec<_>>().as_slice(), ["crates", _, "src", ..])
}

/// Identifier tokens (index, text) in non-test code, skipping `use`
/// items.
fn live_idents(file: &FileModel) -> impl Iterator<Item = (usize, &str)> + '_ {
    let mut in_use = false;
    file.toks.iter().enumerate().filter_map(move |(i, t)| {
        if in_use {
            in_use = !t.is_punct(';');
            return None;
        }
        if t.is_ident("use") {
            in_use = true;
            return None;
        }
        (t.kind == TokKind::Ident && !file.in_test(i)).then_some((i, t.text.as_str()))
    })
}

/// Flag every non-test `pub fn` of `sources`' library files whose name
/// appears in no non-test code of `sources` or `callers`.
pub fn check(sources: &[FileModel], callers: &[FileModel], findings: &mut Vec<Finding>) {
    let declared: Vec<_> = sources
        .iter()
        .filter(|m| is_library(&m.rel))
        .flat_map(|m| {
            m.fns
                .iter()
                .filter(|f| f.is_pub && !f.is_test)
                .map(move |f| (m, f))
        })
        .collect();
    let names: BTreeSet<&str> = declared.iter().map(|(_, f)| f.name.as_str()).collect();

    let mut mentions: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for m in sources.iter().chain(callers) {
        for (i, text) in live_idents(m) {
            if let Some(name) = names.get(text) {
                mentions.entry(name).or_default().push((&m.rel, i));
            }
        }
    }

    for (m, f) in declared {
        // From the name token to the closing brace of the body.
        let own = (f.sig.start - 1)..(f.body.end + 1);
        let called = mentions
            .get(f.name.as_str())
            .is_some_and(|sites| sites.iter().any(|&(rel, i)| rel != m.rel || !own.contains(&i)));
        if !called {
            findings.push(Finding::new(
                Rule::DeadPub,
                &m.rel,
                m.toks.get(f.sig.start - 1).map_or(0, |t| t.line),
                format!(
                    "`pub fn {}` has no caller outside test code \
                     (delete it and its tests, or grandfather it in lint.allow)",
                    f.qual
                ),
            ));
        }
    }
}
