//! The repo's benchmark: wall-clock checkpoint -> failure -> recovery
//! cycles on five named workloads, plus per-layer probes and spans.
//! README.md has the workloads, the metric definitions and the commands.

mod app;
mod cycle;
mod layers;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{obj, Json};

const USAGE: &str = "usage:
  cr-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>   one run; result JSON on the last line
  cr-benchmark --set [--trace <0|1>] [--runs <n>] [--seed <n>] [--seconds <n>]   every workload, a child process per run
  cr-benchmark --check-repeat [--runs <n>] [--seed <n>] [--seconds <n>]   two sets, compared against BENCHMARK.json's bounds
run from the root of the repository";

/// Command-line options; `--set`/`--check-repeat` fill the same fields.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub runs: usize,
    pub set: bool,
    pub check_repeat: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        runs: 10,
        set: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => o.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--runs" => o.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--set" => o.set = true,
            "--check-repeat" => o.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.seconds.is_some_and(|s| !(1.0..=60.0).contains(&s)) || o.runs == 0 {
        return Err("--seconds is 1..=60 and --runs at least 1".into());
    }
    Ok(o)
}

/// `benchmark/out` under the working directory, which must be the root of
/// a checkout: everything the benchmark writes goes there.
fn out_dir() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("BENCHMARK.json").is_file() || !root.join("benchmark").is_dir() {
        return Err(format!(
            "{} is not the root of the repository",
            root.display()
        ));
    }
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // Best effort, ext4 only: see `run::Scratch` for why it matters.
    let _ = std::process::Command::new("chattr")
        .arg("+T")
        .arg(&out)
        .output();
    Ok(out)
}

/// Driver mode: one workload, one run, one JSON line.
fn run_one(o: &Options, name: &str) -> Result<ExitCode, String> {
    let w = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seconds = match o.seconds {
        Some(s) => s,
        None => report::manifest()?.run_seconds,
    };
    let result = run::run(w, o.seed, seconds, o.traced, &out_dir()?);
    eprintln!(
        "{} seed {} trace {}: {} cycles, {} operations, {} failed",
        w.name,
        o.seed,
        u8::from(o.traced),
        result.cycles,
        result.ops.attempted,
        result.ops.failed
    );
    for m in &result.metrics.0 {
        eprintln!(
            "  {:<36} {:>14.4} {:<9} {:<5} n={}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.samples
        );
    }
    if let Some(e) = &result.error {
        eprintln!("error: {e}");
    }
    let correct = result.error.is_none() && result.ops.failed == 0;
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(result.ops.failed as f64)),
        ("metrics", result.metrics.to_json()),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| match (&o.workload, o.set, o.check_repeat) {
        (Some(name), false, false) => run_one(&o, name),
        (None, true, false) => report::set(&o),
        (None, false, true) => report::check_repeat(&o),
        _ => Err("give exactly one of --workload, --set and --check-repeat".into()),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cr-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
