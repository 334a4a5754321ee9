//! Finding type and human/JSON rendering.

use std::fmt::Write as _;

/// Rule families implemented by cr-lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Inter-procedural lock acquisition order must be acyclic.
    LockOrder,
    /// `FtEvent` impls must handle all four protocol states explicitly.
    FtEvent,
    /// Panic paths (unwrap/expect/panic!/indexing) in non-test lib code.
    PanicPath,
    /// MCA parameter keys used must be registered.
    McaKeys,
    /// `CommitState` values minted only by `cr_core::snapshot`.
    CommitState,
    /// Trace-event phase strings recorded must be registered.
    TraceKeys,
    /// Registered trace events must be recorded somewhere (no dead rows).
    DeadEvents,
}

impl Rule {
    /// Stable machine name (baseline file + JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::FtEvent => "ft-event",
            Rule::PanicPath => "panic-path",
            Rule::McaKeys => "mca-keys",
            Rule::CommitState => "commit-state",
            Rule::TraceKeys => "trace-keys",
            Rule::DeadEvents => "dead-events",
        }
    }
}

/// One violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(rule: Rule, file: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// Render findings grouped by rule, one `file:line: message` per line.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    let mut last_rule = None;
    for f in sorted {
        if last_rule != Some(f.rule) {
            let _ = writeln!(out, "[{}]", f.rule.name());
            last_rule = Some(f.rule);
        }
        let _ = writeln!(out, "  {}:{}: {}", f.file, f.line, f.message);
    }
    out
}

/// Render findings as a JSON array (no external dependencies, so emitted
/// by hand with proper string escaping).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule.name()),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        );
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let f = vec![Finding::new(Rule::PanicPath, "a.rs", 3, "say \"hi\"\n")];
        let json = render_json(&f);
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("\\n"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn human_groups_by_rule() {
        let f = vec![
            Finding::new(Rule::McaKeys, "b.rs", 1, "x"),
            Finding::new(Rule::FtEvent, "a.rs", 2, "y"),
        ];
        let text = render_human(&f);
        let ft = text.find("[ft-event]").expect("ft-event header");
        let mca = text.find("[mca-keys]").expect("mca-keys header");
        assert!(ft < mca, "rules render in enum order");
    }
}
