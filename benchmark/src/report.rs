//! Sets of runs: every workload, one child process per run, summarised
//! with medians and quartiles, written out with their provenance; and
//! `--check-repeat`, which runs two sets and holds them to the bounds
//! recorded in `BENCHMARK.json`, the way the driver will.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::stats::{median, obj, quartiles, Json};
use crate::Options;

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the median a metric may worsen by; layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// Read `BENCHMARK.json` from the working directory.
pub fn manifest() -> Result<Manifest, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        field(key)?
            .arr()
            .iter()
            .map(|m| {
                Some(Declared {
                    name: m.get("name")?.str()?.to_string(),
                    unit: m.get("unit")?.str()?.to_string(),
                    lower_is_better: m.get("better")?.str()? == "lower",
                    bound: m.get("bound").and_then(Json::num),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("BENCHMARK.json: malformed entry in {key:?}"))
    };
    Ok(Manifest {
        run_seconds: field("run_seconds")?
            .num()
            .ok_or("run_seconds is not a number")?,
        workloads: field("workloads")?
            .arr()
            .iter()
            .filter_map(|w| Some(w.get("name")?.str()?.to_string()))
            .collect(),
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// First line of a command's output, or "unknown" (the driver's checkout
/// is not a git repository, for one).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(o: &Options, seconds: f64) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    obj([
        (
            "git_commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        ("nproc", Json::Num(cores as f64)),
        ("first_seed", Json::Num(o.seed as f64)),
        ("runs_per_workload", Json::Num(o.runs as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("traced", Json::Bool(o.traced)),
    ])
}

/// Values of one metric on one workload across the runs of a set.
pub struct Summary {
    pub values: Vec<f64>,
}

impl Summary {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Distance between the quartiles as a share of the median: the
    /// driver's measure of run-to-run spread.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = quartiles(&self.values);
        let mid = self.median();
        if mid == 0.0 {
            0.0
        } else {
            (q3 - q1) / mid.abs()
        }
    }
}

/// workload -> metric -> values.
type SetResult = BTreeMap<String, BTreeMap<String, Summary>>;

/// Run one set: every workload in turn (never two jobs at once), each run
/// a fresh child process so memory and tracer growth cannot leak between
/// rows. Run `i` uses seed `first_seed + i`.
fn run_set(o: &Options, m: &Manifest, seconds: f64) -> Result<SetResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let declared = if o.traced {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    let mut set = SetResult::new();
    for workload in &m.workloads {
        let by_metric = set.entry(workload.clone()).or_default();
        for i in 0..o.runs {
            let seed = o.seed + i as u64;
            eprintln!("[{workload}] run {}/{} seed {seed}", i + 1, o.runs);
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if o.traced { "1" } else { "0" },
                ])
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let doc = Json::parse(line)
                .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
            if !out.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
                let log = String::from_utf8_lossy(&out.stderr);
                return Err(format!("{workload} seed {seed} failed:\n{log}"));
            }
            let metrics = doc.get("metrics").ok_or("result line has no metrics")?;
            for d in declared {
                let entry = metrics
                    .get(&d.name)
                    .ok_or_else(|| format!("{workload}: run printed no {}", d.name))?;
                let value = entry
                    .get("value")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: no value", d.name))?;
                if entry.get("unit").and_then(Json::str) != Some(d.unit.as_str()) {
                    return Err(format!("{}: unit differs from BENCHMARK.json", d.name));
                }
                by_metric
                    .entry(d.name.clone())
                    .or_insert_with(|| Summary { values: vec![] })
                    .values
                    .push(value);
            }
            if let Json::Obj(printed) = metrics {
                if let Some(extra) = printed
                    .keys()
                    .find(|k| !declared.iter().any(|d| &d.name == *k))
                {
                    return Err(format!(
                        "{workload}: run printed {extra}, which BENCHMARK.json does not declare"
                    ));
                }
            }
        }
    }
    Ok(set)
}

fn print_set(title: &str, m: &Manifest, set: &SetResult, declared: &[Declared]) {
    println!("== {title}");
    for workload in &m.workloads {
        let by_metric = &set[workload];
        let why = crate::workload::find(workload).map_or("", |w| w.why);
        println!("{workload}: {why}");
        for d in declared {
            let s = &by_metric[&d.name];
            let (q1, q3) = quartiles(&s.values);
            println!(
                "  {:<36} median {:>13.4} {:<9} q1 {:>13.4} q3 {:>13.4} spread {:>6.2}% n={}",
                d.name,
                s.median(),
                d.unit,
                q1,
                q3,
                100.0 * s.spread(),
                s.values.len()
            );
        }
    }
}

fn set_json(set: &SetResult, declared: &[Declared]) -> Json {
    obj(set.iter().map(|(workload, by_metric)| {
        let rows = declared.iter().map(|d| {
            let s = &by_metric[&d.name];
            let (q1, q3) = quartiles(&s.values);
            let row = obj([
                ("unit", Json::Str(d.unit.clone())),
                (
                    "clock",
                    Json::Str(crate::metrics::clock_of(&d.name).label().into()),
                ),
                ("median", Json::Num(s.median())),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("runs", Json::Num(s.values.len() as f64)),
                (
                    "values",
                    Json::Arr(s.values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]);
            (d.name.clone(), row)
        });
        (workload.clone(), obj(rows))
    }))
}

fn seconds_of(o: &Options, m: &Manifest) -> f64 {
    o.seconds.unwrap_or(m.run_seconds)
}

/// `--set`: one set, printed and written to `benchmark/out`.
pub fn set(o: &Options) -> Result<ExitCode, String> {
    let m = manifest()?;
    let out_dir = crate::out_dir()?;
    let seconds = seconds_of(o, &m);
    let declared = if o.traced {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    let result = run_set(o, &m, seconds)?;
    print_set(
        if o.traced {
            "per-layer (traced runs)"
        } else {
            "end to end (untraced runs)"
        },
        &m,
        &result,
        declared,
    );
    let file = out_dir.join(if o.traced {
        "results-layers.json"
    } else {
        "results-e2e.json"
    });
    let doc = obj([
        ("provenance", provenance(o, seconds)),
        ("workloads", set_json(&result, declared)),
    ]);
    std::fs::write(&file, doc.render()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("written to {}", file.display());
    Ok(ExitCode::SUCCESS)
}

/// `--check-repeat`: two untraced sets of the same build and seeds must
/// agree. Every metric's spread within each set, and the second set's
/// median against the first's, must stay within the metric's bound
/// (`setup_s` is exempt from the spread rule, as in the driver). A `count`
/// metric is held to its bound like the rest, which for it is 1 %: the
/// bytes an interval adds include metadata whose digits follow the host's
/// timing, so they repeat to five places, not exactly. Also prints the
/// bound these runs would justify: the larger of 10 % and twice the widest
/// spread seen.
pub fn check_repeat(o: &Options) -> Result<ExitCode, String> {
    let m = manifest()?;
    let out_dir = crate::out_dir()?;
    let seconds = seconds_of(o, &m);
    let untraced = Options {
        traced: false,
        workload: None,
        ..*o
    };
    let first = run_set(&untraced, &m, seconds)?;
    let second = run_set(&untraced, &m, seconds)?;
    print_set("first set", &m, &first, &m.end_to_end);
    print_set("second set", &m, &second, &m.end_to_end);

    let mut complaints = Vec::new();
    println!("== agreement");
    for d in &m.end_to_end {
        let bound = d.bound.ok_or_else(|| format!("{} has no bound", d.name))?;
        let mut widest = 0.0f64;
        for workload in &m.workloads {
            let (a, b) = (&first[workload][&d.name], &second[workload][&d.name]);
            let (ma, mb) = (a.median(), b.median());
            let worse = if d.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            widest = widest.max(a.spread()).max(b.spread());
            if worse > bound {
                complaints.push(format!(
                    "{workload} {}: median {ma:.4} then {mb:.4}, worse by {:.1}%",
                    d.name,
                    100.0 * worse
                ));
            }
            for (which, s) in [("first", a), ("second", b)] {
                if d.name != "setup_s" && s.spread() > bound {
                    complaints.push(format!(
                        "{workload} {}: spread {:.1}% in the {which} set",
                        d.name,
                        100.0 * s.spread()
                    ));
                }
            }
        }
        println!(
            "  {:<30} bound {:>5.1}%  widest spread {:>5.1}%  these runs justify {:>5.1}%",
            d.name,
            100.0 * bound,
            100.0 * widest,
            100.0 * (2.0 * widest).max(0.10)
        );
    }
    let doc = obj([
        ("provenance", provenance(&untraced, seconds)),
        ("first", set_json(&first, &m.end_to_end)),
        ("second", set_json(&second, &m.end_to_end)),
        (
            "complaints",
            Json::Arr(complaints.iter().map(|c| Json::Str(c.clone())).collect()),
        ),
    ]);
    let file = out_dir.join("check-repeat.json");
    std::fs::write(&file, doc.render()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("written to {}", file.display());
    for c in &complaints {
        println!("DISAGREE {c}");
    }
    Ok(if complaints.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
