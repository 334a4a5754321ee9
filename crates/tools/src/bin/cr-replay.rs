//! `cr-replay` — verify, replay, and diff hash-chained FT event journals.
//!
//! ```text
//! cr-replay verify <journal>
//! cr-replay replay --model <commit|quiesce|replica|gc|partial> <journal>
//! cr-replay diff [--phases-only] [--context N] <left> <right>
//! cr-replay show [--tail N] <journal>
//! ```
//!
//! * `verify` re-walks the whole chain: framing, CRC, seq continuity,
//!   `prev_hash` links, and entry hashes.  Any truncation or tampering is
//!   reported with the exact broken link.  Exit 1 on a broken journal.
//! * `replay` feeds the journal's phase stream through the cr-model
//!   replay-conformance engine: the recorded order must be reachable in
//!   the named protocol model.  Exit 1 on a model-unreachable sequence
//!   (the report pins the first inexplicable seq).
//! * `diff` aligns two journals and reports the first divergence with
//!   surrounding context.  `--phases-only` compares `(actor, phase)`
//!   and ignores details (which carry run-specific paths and byte
//!   counts).  Exit 1 when the journals diverge.
//! * `show` pretty-prints entries (all, or the last `--tail N`).

use std::path::Path;
use std::process::ExitCode;

use journal::{diff, DiffKey, JournalEntry};
use model::replay::ReplayEvent;
use tools::ArgSpec;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cr-replay: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cr-replay <verify|replay|diff|show> [options] <journal...>\n\
  verify <journal>                      check the hash chain end to end\n\
  replay --model <name> <journal>       check model-reachability (commit|quiesce|replica|gc|partial)\n\
  diff [--phases-only] [--context N] <left> <right>\n\
  show [--tail N] <journal>";

/// Returns `Ok(true)` when the check passed, `Ok(false)` for a verified
/// failure (broken chain, nonconformant run, diverging journals), and
/// `Err` for usage or I/O problems.
fn run(raw: &[String]) -> Result<bool, String> {
    let (cmd, rest) = raw.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "verify" => verify(rest),
        "replay" => replay(rest),
        "diff" => diff_cmd(rest),
        "show" => show(rest),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn load(path: &str) -> Result<Vec<JournalEntry>, String> {
    journal::read_entries(Path::new(path)).map_err(|e| e.to_string())
}

fn verify(args: &[String]) -> Result<bool, String> {
    let spec = ArgSpec::parse(args, &[])?;
    let path = spec
        .positional()
        .first()
        .ok_or("usage: cr-replay verify <journal>")?;
    let report = journal::verify(Path::new(path)).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    Ok(report.ok())
}

fn replay(args: &[String]) -> Result<bool, String> {
    let spec = ArgSpec::parse(args, &["model"])?;
    let model = spec
        .option("model")
        .ok_or("usage: cr-replay replay --model <name> <journal>")?;
    let path = spec
        .positional()
        .first()
        .ok_or("usage: cr-replay replay --model <name> <journal>")?;
    // A journal that fails verification must not be replayed: conformance
    // of tampered data proves nothing.
    let chain = journal::verify(Path::new(path)).map_err(|e| e.to_string())?;
    if !chain.ok() {
        println!("{}", chain.render());
        return Ok(false);
    }
    let entries = load(path)?;
    let events: Vec<ReplayEvent> = entries
        .iter()
        .map(|e| ReplayEvent { seq: e.seq, actor: e.actor.clone(), phase: e.phase.clone() })
        .collect();
    let report = model::conformance(model, &events).ok_or_else(|| {
        format!("unknown model `{model}` (known: {})", model::MODEL_NAMES.join(", "))
    })?;
    print!("{}", report.render());
    Ok(report.ok())
}

fn diff_cmd(args: &[String]) -> Result<bool, String> {
    let spec = ArgSpec::parse(args, &["context"])?;
    let mut pos = spec.positional().iter();
    let (left_path, right_path) = match (pos.next(), pos.next()) {
        (Some(l), Some(r)) => (l, r),
        _ => return Err("usage: cr-replay diff [--phases-only] [--context N] <left> <right>".into()),
    };
    let context: usize = spec.option_parsed("context", 3)?;
    let key = if spec.flag("phases-only") {
        DiffKey::PhaseOnly
    } else {
        DiffKey::Full
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    let report = diff(&left, &right, key);
    print!("{}", report.render(&left, context));
    Ok(report.identical())
}

fn show(args: &[String]) -> Result<bool, String> {
    let spec = ArgSpec::parse(args, &["tail"])?;
    let path = spec
        .positional()
        .first()
        .ok_or("usage: cr-replay show [--tail N] <journal>")?;
    let entries = load(path)?;
    let tail: usize = spec.option_parsed("tail", entries.len())?;
    let skip = entries.len().saturating_sub(tail);
    for e in entries.iter().skip(skip) {
        let actor = if e.actor.is_empty() { "-" } else { &e.actor };
        println!(
            "#{:<5} {:<8} {:<32} {}",
            e.seq,
            actor,
            e.phase,
            e.detail.replace('\n', "\\n")
        );
    }
    Ok(true)
}
