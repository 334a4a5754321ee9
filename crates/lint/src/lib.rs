//! cr-lint: source-level static analysis for checkpoint/restart invariants.
//!
//! The compiler cannot see the C/R protocol: that `FtEvent` handlers must
//! consider all four protocol states, that the INC/coordinator/PML mutexes
//! must be acquired in one global order, that the fault-tolerance path must
//! not contain hidden aborts, that every `--mca` key a component reads is
//! registered for `ompi-info` to enumerate (and every registered default
//! is read by something), that `CommitState` values are
//! minted only by the snapshot authority (`cr_core::snapshot`), and that
//! every trace-event phase recorded is registered in
//! `cr_core::events::KNOWN_TRACE_EVENTS` — and, inversely, that every
//! registered phase is recorded somewhere (no dead registry rows rotting
//! under the replay tooling). `cr-lint` walks the workspace's
//! Rust sources with a lightweight tokenizer (no syntax tree, no external
//! dependencies) and enforces those seven invariants; see DESIGN.md section
//! "Static analysis" for the rationale and ROADMAP.md for its place in the
//! tier-1 checks.
//!
//! Scope: `src/` of every workspace member under `crates/`, plus the root
//! package's `src/`. The `shims/` crates are vendored stand-ins for
//! external dependencies and are not held to C/R invariants. Test code
//! (`#[cfg(test)]` modules, `#[test]` functions, `tests/`, `benches/`) is
//! exempt from the panic-path and MCA rules by construction.

pub mod baseline;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use baseline::{Baseline, BaselineCheck};
use model::FileModel;
use report::{Finding, Rule};

/// Everything one lint run produces.
#[derive(Debug)]
pub struct LintRun {
    /// Hard findings (lock-order, ft-event, mca-keys, commit-state,
    /// trace-keys): always violations.
    pub hard: Vec<Finding>,
    /// Baselined findings (panic-path, dead-events): all sites,
    /// pre-ratchet.
    pub baselined: Vec<Finding>,
    /// Result of comparing `baselined` against `lint.allow`.
    pub baseline_check: BaselineCheck,
    /// Number of files analyzed.
    pub files: usize,
}

impl LintRun {
    /// Findings that should fail the run.
    pub fn violations(&self) -> Vec<Finding> {
        let mut out = self.hard.clone();
        out.extend(self.baseline_check.new_violations.iter().cloned());
        out
    }
}

/// Analyze a set of already-loaded `(relative path, source)` pairs.
///
/// This is the test entry point: fixtures feed sources directly without
/// touching the filesystem.
pub fn analyze_sources(sources: &[(String, String)], baseline: &Baseline) -> LintRun {
    let models: Vec<FileModel> = sources
        .iter()
        .map(|(rel, src)| model::parse_file(rel, src))
        .collect();

    let mut hard = Vec::new();
    let mut baselined = Vec::new();

    rules::lock_order::check(&models, &mut hard);

    let mut registered: BTreeSet<String> = BTreeSet::new();
    let mut defaulted = Vec::new();
    let mut uses = Vec::new();
    let mut trace_registered: BTreeSet<String> = BTreeSet::new();
    let mut trace_uses = Vec::new();
    let mut event_rows = Vec::new();
    let mut recorded: BTreeSet<String> = BTreeSet::new();
    for m in &models {
        rules::ft_event::check(m, &mut hard);
        rules::panic_path::check(m, &mut baselined);
        rules::commit_state::check(m, &mut hard);
        rules::mca_keys::collect_registered(m, &mut registered, &mut defaulted);
        rules::mca_keys::collect_uses(m, &mut uses);
        rules::trace_keys::collect_registered(m, &mut trace_registered);
        rules::trace_keys::collect_uses(m, &mut trace_uses);
        rules::dead_events::collect_registered(m, &mut event_rows);
        rules::dead_events::collect_recorded(m, &mut recorded);
    }
    rules::mca_keys::check(&registered, &defaulted, &uses, &mut hard);
    rules::trace_keys::check(&trace_registered, &trace_uses, &mut hard);
    rules::dead_events::check(&event_rows, &recorded, &mut baselined);

    let baseline_check = baseline.check(&baselined);
    LintRun {
        hard,
        baselined,
        baseline_check,
        files: models.len(),
    }
}

/// Discover the workspace's lintable sources under `root`.
///
/// Returns `(relative path, source)` pairs for `crates/*/src/**/*.rs` and
/// the root package's `src/**/*.rs`, sorted by path for deterministic
/// output.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Render a short human summary line.
pub fn summary_line(run: &LintRun) -> String {
    format!(
        "cr-lint: {} files, {} hard findings, {} baselined sites ({} over baseline)",
        run.files,
        run.hard.len(),
        run.baselined.len(),
        run.baseline_check.new_violations.len()
    )
}

/// Re-export for binary convenience.
pub use report::{render_human, render_json};

/// Which rules are hard (non-baselined). Exposed for documentation tests.
pub const HARD_RULES: [Rule; 5] = [
    Rule::LockOrder,
    Rule::FtEvent,
    Rule::McaKeys,
    Rule::CommitState,
    Rule::TraceKeys,
];
