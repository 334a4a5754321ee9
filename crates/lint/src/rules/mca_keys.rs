//! Rule `mca-keys`: MCA parameter keys read at use sites must appear at a
//! registration site, and registered defaults must be read somewhere.
//!
//! Open MPI registers every MCA parameter (`mca_base_param_reg_*`) so that
//! `ompi_info` can enumerate it and a typo'd `--mca` key is diagnosable.
//! The reproduction keeps the same discipline: a string key passed to a
//! typed accessor (`get_parsed_or`, `get_bool_or`, or a
//! single-argument `.get("...")`) in non-test code must be one of:
//!
//! - the first argument of a `.default_value("key", ..)` call, or
//! - a `key: "..."` field of the `KNOWN_PARAMS` table in
//!   `crates/mca/src/registry.rs`.
//!
//! Two-argument `.get(section, key)` calls (metadata documents) are not
//! parameter reads and are ignored.
//!
//! The reverse direction catches dead knobs: a `KNOWN_PARAMS` row with
//! `default: Some(_)` whose key no non-test accessor reads is a parameter
//! `ompi-info --params` advertises and nothing obeys. Rows with
//! `default: None` (selection directives, launcher-written informational
//! keys) are exempt — they are set and consumed through non-literal paths.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::report::{Finding, Rule};

/// A parameter key at a source location: a use site in non-test code, or
/// a defaulted `KNOWN_PARAMS` row.
#[derive(Debug)]
pub struct UseSite {
    /// The string key.
    pub key: String,
    /// File.
    pub file: String,
    /// Line.
    pub line: u32,
}

/// Collect registration sites (keys) from one file, and the registry rows
/// that carry a built-in default.
pub fn collect_registered(
    file: &FileModel,
    registered: &mut BTreeSet<String>,
    defaulted: &mut Vec<UseSite>,
) {
    let toks = &file.toks;
    let registry_file = file.rel.ends_with("mca/src/registry.rs");
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // `.default_value("key"` anywhere.
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_ident("default_value"))
            && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            if let Some(k) = toks.get(i + 3).filter(|k| k.kind == TokKind::Str) {
                registered.insert(k.text.clone());
            }
        }
        // `key: "..."` fields of the registry table.
        if registry_file
            && t.is_ident("key")
            && toks.get(i + 1).is_some_and(|p| p.is_punct(':'))
        {
            if let Some(k) = toks.get(i + 2).filter(|k| k.kind == TokKind::Str) {
                registered.insert(k.text.clone());
                // `key: "k", default: Some(..)`
                if toks.get(i + 4).is_some_and(|d| d.is_ident("default"))
                    && toks.get(i + 6).is_some_and(|s| s.is_ident("Some"))
                {
                    defaulted.push(UseSite {
                        key: k.text.clone(),
                        file: file.rel.clone(),
                        line: k.line,
                    });
                }
            }
        }
        i += 1;
    }
}

/// Collect parameter use sites from one file's non-test functions.
pub fn collect_uses(file: &FileModel, uses: &mut Vec<UseSite>) {
    let toks = &file.toks;
    for f in &file.fns {
        if f.is_test {
            continue;
        }
        let mut i = f.body.start;
        while i + 3 < f.body.end {
            let t = &toks[i];
            if !t.is_punct('.') {
                i += 1;
                continue;
            }
            let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            let open = toks.get(i + 2).is_some_and(|p| p.is_punct('('));
            let lit = toks.get(i + 3).filter(|k| k.kind == TokKind::Str);
            if let (true, Some(k)) = (open, lit) {
                let typed = matches!(
                    name.text.as_str(),
                    "get_parsed_or" | "get_bool_or"
                );
                // `.get("key")` only with exactly one argument: metadata
                // documents use `.get(section, key)`.
                let single_get = name.text == "get"
                    && toks.get(i + 4).is_some_and(|p| p.is_punct(')'));
                if typed || single_get {
                    uses.push(UseSite {
                        key: k.text.clone(),
                        file: file.rel.clone(),
                        line: k.line,
                    });
                }
            }
            i += 1;
        }
    }
}

/// Turn unregistered use sites, and defaulted registry rows nothing reads,
/// into findings.
pub fn check(
    registered: &BTreeSet<String>,
    defaulted: &[UseSite],
    uses: &[UseSite],
    findings: &mut Vec<Finding>,
) {
    for u in uses {
        if !registered.contains(&u.key) {
            findings.push(Finding::new(
                Rule::McaKeys,
                &u.file,
                u.line,
                format!(
                    "MCA parameter {:?} is read here but never registered \
                     (add it to mca::registry::KNOWN_PARAMS)",
                    u.key
                ),
            ));
        }
    }
    for row in defaulted {
        if !uses.iter().any(|u| u.key == row.key) {
            findings.push(Finding::new(
                Rule::McaKeys,
                &row.file,
                row.line,
                format!(
                    "MCA parameter {:?} is registered with a default here but no \
                     non-test code reads it (a dead knob: delete the row)",
                    row.key
                ),
            ));
        }
    }
}
