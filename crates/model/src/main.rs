//! `cr-model` binary: exhaustively check the protocol models.
//!
//! ```text
//! cr-model [--all | MODEL...] [--smoke] [--mutate NAME] [--list]
//!          [--json] [--bench-json PATH]
//! ```
//!
//! Default bounds explore every model's full reachable state space;
//! `--smoke` applies the bounded tier-1 limits (the in-repo models still
//! finish exhaustively inside them — truncation is reported and fails).
//! `--mutate NAME` runs a named mutated variant of the selected model and
//! expects a counterexample, printing its minimized trace.
//!
//! Exit codes: 0 all models green (or mutation found its counterexample),
//! 1 violation/truncation (or mutation found nothing), 2 usage error.

use std::process::ExitCode;

use model::{run_model, Bounds, CheckReport, MODEL_NAMES};

fn main() -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut smoke = false;
    let mut json = false;
    let mut list = false;
    let mut mutate: Option<String> = None;
    let mut bench_json: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => names = MODEL_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            "--smoke" => smoke = true,
            "--json" => json = true,
            "--list" => list = true,
            "--mutate" => match args.next() {
                Some(m) => mutate = Some(m),
                None => {
                    eprintln!("cr-model: --mutate needs a mutation name");
                    return ExitCode::from(2);
                }
            },
            "--bench-json" => match args.next() {
                Some(p) => bench_json = Some(p),
                None => {
                    eprintln!("cr-model: --bench-json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: cr-model [--all | MODEL...] [--smoke] [--mutate NAME] \
                     [--list] [--json] [--bench-json PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => names.push(other.to_owned()),
            other => {
                eprintln!("cr-model: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    if list {
        for name in MODEL_NAMES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if names.is_empty() {
        names = MODEL_NAMES.iter().map(|s| (*s).to_owned()).collect();
    }
    if mutate.is_some() && names.len() != 1 {
        eprintln!("cr-model: --mutate applies to exactly one model");
        return ExitCode::from(2);
    }

    let bounds = if smoke { Bounds::smoke() } else { Bounds::exhaustive() };
    let mut reports: Vec<CheckReport> = Vec::new();
    let mut failed = false;

    for name in &names {
        let report = match run_model(name, mutate.as_deref(), &bounds) {
            Some(r) => r,
            None => {
                match mutate.as_deref() {
                    Some(m) => eprintln!("cr-model: unknown model/mutation {name:?}/{m:?}"),
                    None => eprintln!("cr-model: unknown model {name:?}"),
                }
                return ExitCode::from(2);
            }
        };
        let green = report.ok() && report.exhaustive();
        // A mutated run is expected to find a counterexample.
        let expected = if mutate.is_some() { !report.ok() } else { green };
        if !expected {
            failed = true;
        }
        if !json {
            println!(
                "cr-model: {:<8} states={:<6} transitions={:<7} depth={:<3} {} [{}] ({:.1?})",
                report.model,
                report.states,
                report.transitions,
                report.depth,
                if report.exhaustive() { "exhaustive" } else { "TRUNCATED" },
                match (&report.violation, mutate.is_some()) {
                    (None, false) => "ok",
                    (None, true) => "NO COUNTEREXAMPLE",
                    (Some(_), false) => "VIOLATION",
                    (Some(_), true) => "counterexample found",
                },
                report.wall,
            );
            if let Some(cx) = &report.violation {
                print!("{}", cx.render());
                println!("  ({} steps after minimization)", cx.len());
            }
        }
        reports.push(report);
    }

    let json_text = render_reports_json(&reports, smoke);
    if json {
        println!("{json_text}");
    }
    if let Some(path) = bench_json {
        if let Err(e) = std::fs::write(&path, format!("{json_text}\n")) {
            eprintln!("cr-model: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Hand-rolled stats JSON (the workspace has no JSON library), shaped for
/// `BENCH_model.json`: per-model states/transitions/depth/wall-time so
/// protocol-surface growth shows up as a visible diff.
fn render_reports_json(reports: &[CheckReport], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bounds\": \"{}\",\n", if smoke { "smoke" } else { "exhaustive" }));
    out.push_str("  \"models\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"transitions\": {}, \
             \"depth\": {}, \"exhaustive\": {}, \"ok\": {}, \"wall_ms\": {}}}{}\n",
            r.model,
            r.states,
            r.transitions,
            r.depth,
            r.exhaustive(),
            r.ok(),
            r.wall.as_millis(),
            if i + 1 == reports.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}");
    out
}
