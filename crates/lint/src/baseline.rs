//! The `lint.allow` baseline: a per-(rule, file) count ratchet.
//!
//! Pre-existing panic paths are grandfathered: the committed `lint.allow`
//! records how many sites each file is allowed. A file may only ever get
//! better — counts above the baseline are new violations and fail the run;
//! counts below it are reported as ratchet opportunities (and
//! `--update-baseline` rewrites the file to the lower numbers).
//!
//! Format: one `rule<TAB>path<TAB>count` per line, `#` comments allowed.

use std::collections::BTreeMap;

use crate::report::Finding;

/// Parsed baseline: (rule name, file) -> allowed count.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: BTreeMap<(String, String), usize>,
}

/// Outcome of checking findings against the baseline.
#[derive(Debug)]
pub struct BaselineCheck {
    /// Findings in excess of the allowance, per (rule, file) — these fail
    /// the run. Contains every finding of an over-budget file so the user
    /// sees all candidate sites (line-level attribution of "which one is
    /// new" is not possible with count ratchets).
    pub new_violations: Vec<Finding>,
    /// Human notes: files now under budget, stale entries.
    pub notes: Vec<String>,
}

impl Baseline {
    /// Parse the `lint.allow` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(rule), Some(path), Some(count)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "lint.allow:{}: expected `rule<TAB>path<TAB>count`, got {:?}",
                    lineno + 1,
                    raw
                ));
            };
            let count: usize = count.trim().parse().map_err(|_| {
                format!("lint.allow:{}: bad count {:?}", lineno + 1, count)
            })?;
            entries.insert((rule.to_string(), path.to_string()), count);
        }
        Ok(Baseline { entries })
    }

    /// Compare `findings` (all from baselined rules) against the allowance.
    pub fn check(&self, findings: &[Finding]) -> BaselineCheck {
        let mut by_file: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
        for f in findings {
            by_file
                .entry((f.rule.name().to_string(), f.file.clone()))
                .or_default()
                .push(f);
        }
        let mut new_violations = Vec::new();
        let mut notes = Vec::new();
        for (key, sites) in &by_file {
            let allowed = self.entries.get(key).copied().unwrap_or(0);
            if sites.len() > allowed {
                notes.push(format!(
                    "{}: {} has {} sites, baseline allows {}",
                    key.0,
                    key.1,
                    sites.len(),
                    allowed
                ));
                new_violations.extend(sites.iter().map(|f| (*f).clone()));
            } else if sites.len() < allowed {
                notes.push(format!(
                    "ratchet: {} in {} dropped {} -> {}; run with --update-baseline",
                    key.0,
                    key.1,
                    allowed,
                    sites.len()
                ));
            }
        }
        for (key, allowed) in &self.entries {
            if *allowed > 0 && !by_file.contains_key(key) {
                notes.push(format!(
                    "ratchet: {} in {} dropped {} -> 0; run with --update-baseline",
                    key.0, key.1, allowed
                ));
            }
        }
        BaselineCheck {
            new_violations,
            notes,
        }
    }

    /// Render the current findings as a fresh baseline.
    pub fn render_from(findings: &[Finding]) -> String {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule.name().to_string(), f.file.clone()))
                .or_default() += 1;
        }
        let mut out = String::from(
            "# cr-lint baseline: per-file allowance of grandfathered sites.\n\
             # Counts may only decrease; regenerate with `cr-lint --update-baseline`.\n\
             # Format: rule<TAB>path<TAB>count\n",
        );
        for ((rule, path), count) in counts {
            out.push_str(&format!("{rule}\t{path}\t{count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Rule;

    fn f(file: &str, line: u32) -> Finding {
        Finding::new(Rule::PanicPath, file, line, "x")
    }

    #[test]
    fn over_budget_fails_under_budget_notes() {
        let base = Baseline::parse("panic-path\ta.rs\t1\npanic-path\tb.rs\t2\n")
            .expect("parses");
        let findings = vec![f("a.rs", 1), f("a.rs", 2), f("b.rs", 9)];
        let check = base.check(&findings);
        assert_eq!(check.new_violations.len(), 2, "a.rs over budget");
        assert!(check.notes.iter().any(|n| n.contains("b.rs") && n.contains("ratchet")));
    }

    #[test]
    fn stale_entries_reported() {
        let base = Baseline::parse("panic-path\tgone.rs\t3\n").expect("parses");
        let check = base.check(&[]);
        assert!(check.new_violations.is_empty());
        assert!(check.notes.iter().any(|n| n.contains("gone.rs")));
    }

    #[test]
    fn roundtrip_render_parse() {
        let findings = vec![f("a.rs", 1), f("a.rs", 2)];
        let text = Baseline::render_from(&findings);
        let base = Baseline::parse(&text).expect("parses");
        assert!(base.check(&findings).new_violations.is_empty());
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Baseline::parse("panic-path a.rs 1\n").is_err(), "spaces not tabs");
        assert!(Baseline::parse("panic-path\ta.rs\tmany\n").is_err());
    }
}
