//! `cr-lint` binary: run the C/R invariant lints over the workspace.
//!
//! ```text
//! cr-lint [--root DIR] [--json] [--update-baseline]
//! ```
//!
//! Exit codes: 0 clean, 1 new violations, 2 usage/configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::baseline::Baseline;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut update_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("cr-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: cr-lint [--root DIR] [--json] [--update-baseline]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cr-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root.or_else(|| lint::find_root(&cwd)) else {
        eprintln!("cr-lint: workspace root not found (looked for Cargo.toml + crates/)");
        return ExitCode::from(2);
    };

    let allow_path = root.join("lint.allow");
    let baseline = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cr-lint: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };

    let sources = match lint::workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cr-lint: cannot read workspace sources: {e}");
            return ExitCode::from(2);
        }
    };

    let callers = match lint::caller_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cr-lint: cannot read caller sources: {e}");
            return ExitCode::from(2);
        }
    };

    let run = lint::analyze_sources(&sources, &callers, &baseline);

    if update_baseline {
        let text = Baseline::render_from(&run.baselined);
        if let Err(e) = std::fs::write(&allow_path, text) {
            eprintln!("cr-lint: cannot write {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
        println!(
            "cr-lint: baseline rewritten with {} sites ({})",
            run.baselined.len(),
            allow_path.display()
        );
    }

    let violations = run.violations();
    if json {
        println!("{}", lint::render_json(&violations));
    } else {
        println!("{}", lint::summary_line(&run));
        for note in &run.baseline_check.notes {
            println!("  note: {note}");
        }
        if !violations.is_empty() {
            print!("{}", lint::render_human(&violations));
        }
    }

    if violations.is_empty() || update_baseline {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
