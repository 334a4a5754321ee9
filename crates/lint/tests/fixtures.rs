//! Integration tests: feed the fixture sources under `tests/fixtures/`
//! through [`lint::analyze_sources`] and assert each rule family fires on
//! its seeded violation and stays quiet on the clean variant.

use lint::baseline::Baseline;
use lint::report::Rule;
use lint::{analyze_sources, LintRun};

fn run(files: &[(&str, &str)]) -> LintRun {
    run_with_baseline(files, "")
}

fn run_with_baseline(files: &[(&str, &str)], baseline: &str) -> LintRun {
    run_with_callers(files, &[], baseline)
}

fn run_with_callers(files: &[(&str, &str)], callers: &[(&str, &str)], baseline: &str) -> LintRun {
    let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect()
    };
    let baseline = Baseline::parse(baseline).expect("fixture baseline parses");
    analyze_sources(&owned(files), &owned(callers), &baseline)
}

#[test]
fn lock_order_cycle_detected() {
    let out = run(&[(
        "crates/demo/src/pair.rs",
        include_str!("fixtures/lock_cycle.rs"),
    )]);
    let cycles: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .collect();
    assert!(!cycles.is_empty(), "expected a lock-order cycle finding");
    let msg = &cycles[0].message;
    assert!(msg.contains("lock-order cycle"), "unexpected message: {msg}");
    // Both lock ids participate, and the inter-procedural edge through
    // `take_a` is attributed to the calling path.
    assert!(msg.contains("Pair.a") && msg.contains("Pair.b"), "{msg}");
    assert!(msg.contains("take_a"), "inter-proc edge missing: {msg}");
}

#[test]
fn lock_order_consistent_order_is_clean() {
    let out = run(&[(
        "crates/demo/src/pair.rs",
        include_str!("fixtures/lock_clean.rs"),
    )]);
    assert!(
        out.hard.iter().all(|f| f.rule != Rule::LockOrder),
        "clean fixture flagged: {:?}",
        out.hard
    );
}

#[test]
fn ft_event_wildcard_detected() {
    let out = run(&[(
        "crates/demo/src/handler.rs",
        include_str!("fixtures/ft_wildcard.rs"),
    )]);
    let ft: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::FtEvent)
        .collect();
    assert!(
        ft.iter().any(|f| f.message.contains("wildcard `_` arm")),
        "wildcard arm not flagged: {ft:?}"
    );
    // The wildcard also hides the three unnamed variants.
    assert!(
        ft.iter().any(|f| f.message.contains("Restart")),
        "missing-variant finding absent: {ft:?}"
    );
}

#[test]
fn ft_event_full_match_is_clean() {
    let out = run(&[(
        "crates/demo/src/handler.rs",
        include_str!("fixtures/ft_clean.rs"),
    )]);
    assert!(
        out.hard.iter().all(|f| f.rule != Rule::FtEvent),
        "clean fixture flagged: {:?}",
        out.hard
    );
}

#[test]
fn mca_unregistered_key_detected() {
    let out = run(&[
        (
            "crates/demo/src/component.rs",
            include_str!("fixtures/mca_use.rs"),
        ),
        (
            "crates/mca/src/registry.rs",
            include_str!("fixtures/mca_registry.rs"),
        ),
    ]);
    let mca: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::McaKeys)
        .collect();
    assert_eq!(mca.len(), 1, "exactly the bad key should fire: {mca:?}");
    assert!(mca[0].message.contains("made_up_key"), "{}", mca[0].message);
    assert!(
        !out.hard.iter().any(|f| f.message.contains("good_key")),
        "registered key must not be flagged"
    );
}

/// A registry whose one row carries a built-in default.
const DEFAULTED_REGISTRY: &str = "pub const KNOWN_PARAMS: &[ParamDef] = &[ParamDef {\n    \
     key: \"gc_batch\",\n    default: Some(\"64\"),\n    help: \"sweep batch\",\n}];\n";

#[test]
fn mca_dead_default_detected() {
    // The only reader sits in a test function, which does not count: the
    // shipped code never obeys the knob `ompi-info --params` advertises.
    let out = run(&[
        ("crates/mca/src/registry.rs", DEFAULTED_REGISTRY),
        (
            "crates/demo/src/component.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn reads() {\n        \
             let _ = params().get_parsed_or(\"gc_batch\", 64u64);\n    }\n}\n",
        ),
    ]);
    let mca: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::McaKeys)
        .collect();
    assert_eq!(mca.len(), 1, "exactly the unread default fires: {mca:?}");
    assert!(mca[0].message.contains("gc_batch"), "{}", mca[0].message);
    assert_eq!(
        mca[0].file, "crates/mca/src/registry.rs",
        "finding anchors at the registry row"
    );
}

#[test]
fn mca_read_default_is_clean() {
    // A shipped reader keeps the row alive.
    let out = run(&[
        ("crates/mca/src/registry.rs", DEFAULTED_REGISTRY),
        (
            "crates/demo/src/component.rs",
            "pub fn batch(params: &McaParams) -> u64 {\n    \
             params.get_parsed_or(\"gc_batch\", 64u64).unwrap_or(64)\n}\n",
        ),
    ]);
    assert!(
        out.hard.iter().all(|f| f.rule != Rule::McaKeys),
        "clean fixture flagged: {:?}",
        out.hard
    );
}

#[test]
fn commit_state_construction_detected() {
    let out = run(&[(
        "crates/demo/src/component.rs",
        include_str!("fixtures/commit_write.rs"),
    )]);
    let cs: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::CommitState)
        .collect();
    // The struct-field construction and the let-bound construction fire;
    // the comparison, the match arms, and the test module do not.
    assert_eq!(cs.len(), 2, "expected both constructions: {cs:?}");
    assert!(
        cs.iter().any(|f| f.message.contains("GlobalCommitted")),
        "{cs:?}"
    );
    assert!(
        cs.iter().any(|f| f.message.contains("LocalCommitted")),
        "{cs:?}"
    );
    assert!(
        cs.iter().all(|f| f.message.contains("commit_state")),
        "message must point at the authority accessor: {cs:?}"
    );
}

#[test]
fn commit_state_authority_reads_are_clean() {
    let out = run(&[
        (
            "crates/demo/src/component.rs",
            include_str!("fixtures/commit_clean.rs"),
        ),
        // The authority file itself may mint values freely.
        (
            "crates/core/src/snapshot.rs",
            include_str!("fixtures/commit_write.rs"),
        ),
    ]);
    assert!(
        out.hard.iter().all(|f| f.rule != Rule::CommitState),
        "clean fixture flagged: {:?}",
        out.hard
    );
}

#[test]
fn trace_unregistered_phase_detected() {
    let out = run(&[
        (
            "crates/demo/src/component.rs",
            include_str!("fixtures/trace_use.rs"),
        ),
        (
            "crates/core/src/events.rs",
            include_str!("fixtures/trace_registry.rs"),
        ),
    ]);
    let tk: Vec<_> = out
        .hard
        .iter()
        .filter(|f| f.rule == Rule::TraceKeys)
        .collect();
    assert_eq!(tk.len(), 1, "exactly the typo'd phase should fire: {tk:?}");
    assert!(tk[0].message.contains("snapc.global.initate"), "{}", tk[0].message);
    assert!(
        tk[0].message.contains("KNOWN_TRACE_EVENTS"),
        "message must point at the registry: {}",
        tk[0].message
    );
    assert!(
        !out.hard.iter().any(|f| f.message.contains("demo.component.ready")),
        "registered phase must not be flagged"
    );
}

#[test]
fn trace_registered_phases_are_clean() {
    let out = run(&[
        (
            "crates/core/src/events.rs",
            include_str!("fixtures/trace_registry.rs"),
        ),
        (
            "crates/demo/src/ready_only.rs",
            "pub fn ready(tracer: &cr_core::Tracer) {\n    \
             tracer.record(\"demo.component.ready\", \"ok\");\n}\n",
        ),
    ]);
    assert!(
        out.hard.iter().all(|f| f.rule != Rule::TraceKeys),
        "clean fixture flagged: {:?}",
        out.hard
    );
}

#[test]
fn dead_event_detected() {
    // The registry fixture registers two phases; only one is ever
    // recorded (multiline call formatting, to prove token adjacency
    // spans newlines), so the other is a dead row.
    let out = run(&[
        (
            "crates/core/src/events.rs",
            include_str!("fixtures/trace_registry.rs"),
        ),
        (
            "crates/demo/src/ready_only.rs",
            "pub fn ready(tracer: &cr_core::Tracer) {\n    \
             tracer.record(\n        \"demo.component.ready\",\n        \"ok\",\n    );\n}\n",
        ),
    ]);
    let dead: Vec<_> = out
        .baselined
        .iter()
        .filter(|f| f.rule == Rule::DeadEvents)
        .collect();
    assert_eq!(dead.len(), 1, "exactly the unrecorded phase fires: {dead:?}");
    assert!(
        dead[0].message.contains("snapc.global.initiate"),
        "{}",
        dead[0].message
    );
    assert_eq!(
        dead[0].file, "crates/core/src/events.rs",
        "finding anchors at the registry row"
    );
    assert!(dead[0].line > 0);
    // With an empty baseline the dead row fails the run; a grandfathering
    // `lint.allow` entry ratchets it instead.
    assert!(out.violations().iter().any(|f| f.rule == Rule::DeadEvents));
    let out = run_with_baseline(
        &[
            (
                "crates/core/src/events.rs",
                include_str!("fixtures/trace_registry.rs"),
            ),
            (
                "crates/demo/src/ready_only.rs",
                "fn ready(tracer: &cr_core::Tracer) {\n    \
                 tracer.record(\"demo.component.ready\", \"ok\");\n}\n",
            ),
        ],
        "dead-events\tcrates/core/src/events.rs\t1\n",
    );
    assert!(out.violations().is_empty(), "{:?}", out.violations());
}

#[test]
fn recorded_everywhere_is_clean() {
    // Both registered phases have record sites — one in library code, one
    // only inside a test function, which still counts as alive.
    let out = run(&[
        (
            "crates/core/src/events.rs",
            include_str!("fixtures/trace_registry.rs"),
        ),
        (
            "crates/demo/src/both.rs",
            "pub fn ready(tracer: &cr_core::Tracer) {\n    \
             tracer.record(\"demo.component.ready\", \"ok\");\n}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn initiates() {\n        \
             let t = cr_core::Tracer::new();\n        \
             t.record(\"snapc.global.initiate\", \"interval 0\");\n    }\n}\n",
        ),
    ]);
    assert!(
        out.baselined.iter().all(|f| f.rule != Rule::DeadEvents),
        "clean fixture flagged: {:?}",
        out.baselined
    );
}

#[test]
fn panic_path_counted_and_ratcheted() {
    let files = &[(
        "crates/demo/src/risky.rs",
        include_str!("fixtures/panic_sites.rs"),
    )];

    // With an empty baseline the library-code unwrap is a violation; the
    // test-function unwraps are exempt.
    let out = run(files);
    assert_eq!(out.baselined.len(), 1, "{:?}", out.baselined);
    assert_eq!(out.baselined[0].rule, Rule::PanicPath);
    assert_eq!(out.violations().len(), 1);

    // A baseline that grandfathers the site makes the run clean.
    let out = run_with_baseline(files, "panic-path\tcrates/demo/src/risky.rs\t1\n");
    assert!(out.violations().is_empty(), "{:?}", out.violations());

    // A stale over-allowance is a ratchet note, never a violation.
    let out = run_with_baseline(files, "panic-path\tcrates/demo/src/risky.rs\t5\n");
    assert!(out.violations().is_empty());
    assert!(
        out.baseline_check.notes.iter().any(|n| n.contains("5")),
        "ratchet opportunity not noted: {:?}",
        out.baseline_check.notes
    );
}

#[test]
fn dead_pub_detected() {
    let files = &[
        (
            "crates/demo/src/surface.rs",
            include_str!("fixtures/dead_pub_dirty.rs"),
        ),
        // A re-export is not a call.
        ("crates/demo/src/lib.rs", "pub use surface::only_tested;\n"),
    ];
    let callers = &[("examples/demo.rs", "fn main() {\n    demo::surface::used();\n}\n")];
    let out = run_with_callers(files, callers, "");
    let dead: Vec<&str> = out
        .baselined
        .iter()
        .filter(|f| f.rule == Rule::DeadPub)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(dead.len(), 2, "{dead:?}");
    assert!(dead[0].contains("demo::surface::only_tested"), "{}", dead[0]);
    assert!(dead[1].contains("demo::surface::countdown"), "{}", dead[1]);
    assert_eq!(out.violations().len(), 2);

    // Without the example, `used` is dead too.
    let out = run_with_callers(files, &[], "");
    assert_eq!(out.violations().len(), 3, "{:?}", out.violations());

    // A baseline that grandfathers both sites makes the run clean.
    let out = run_with_callers(files, callers, "dead-pub\tcrates/demo/src/surface.rs\t2\n");
    assert!(out.violations().is_empty(), "{:?}", out.violations());
}

#[test]
fn dead_pub_called_everywhere_is_clean() {
    let out = run_with_callers(
        &[(
            "crates/demo/src/flow.rs",
            include_str!("fixtures/dead_pub_clean.rs"),
        )],
        &[
            ("examples/demo.rs", "fn main() {\n    demo::flow::start();\n}\n"),
            (
                "crates/demo/benches/flow.rs",
                "fn bench() {\n    demo::flow::measured();\n}\n",
            ),
        ],
        "",
    );
    assert!(
        out.baselined.iter().all(|f| f.rule != Rule::DeadPub),
        "clean fixture flagged: {:?}",
        out.baselined
    );
}
