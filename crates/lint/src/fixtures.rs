//! Known-bad source fixtures, one per rule.
//!
//! Mirrors the defective-kernel fixtures of the PR-2 kernel-IR pipeline:
//! each fixture is a minimal source snippet that must produce **exactly
//! one** diagnostic, pinned to its rule ID and line, so a rule that goes
//! quiet (or noisy) fails a test naming the exact regression. A final
//! fixture exercises the escape hatch: the same defect with a
//! `// lint: allow(<rule>)` comment must produce nothing.
//!
//! The snippets live in raw strings, so linting this file itself sees
//! only opaque literals — the corpus cannot flag its own host.

/// One pinned lint fixture.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// Fixture name (stable, test-facing).
    pub name: &'static str,
    /// Workspace-relative path the snippet pretends to live at — chosen
    /// to exercise the intended scoping (sim crate, audited file).
    pub path: &'static str,
    /// The source snippet.
    pub source: &'static str,
    /// Expected rule ID, or `None` when the fixture must lint clean.
    pub expect_rule: Option<&'static str>,
    /// Expected 1-based line of the finding (0 when `expect_rule` is
    /// `None`).
    pub expect_line: usize,
}

/// The full corpus: seven defective fixtures (at least one per rule) plus
/// one escape-hatch fixture that must lint clean.
pub fn all() -> Vec<Fixture> {
    vec![
        // The real-tree analogue of this fixture (L1 per-PC stats) was
        // fixed per the flat-vs-ordered policy (DESIGN.md §13): the map
        // became a PC-sorted `Vec<(Pc, PcStats)>` — deterministic
        // iteration *and* a cheaper lookup path than any tree or table.
        Fixture {
            name: "hash-iter-over-stats-map",
            path: "crates/mem/src/fixture.rs",
            source: r#"
use std::collections::HashMap;
pub struct Stats { per_pc: HashMap<u64, u64> }
impl Stats {
    pub fn dump(&self) {
        for (pc, n) in self.per_pc.iter() { println!("{pc} {n}"); }
    }
}
"#,
            expect_rule: Some("hash-iter"),
            expect_line: 6,
        },
        Fixture {
            name: "wall-clock-in-sim",
            path: "crates/sm/src/fixture.rs",
            source: r#"
pub fn stamp() -> std::time::Instant {
    Instant::now()
}
"#,
            expect_rule: Some("wall-clock"),
            expect_line: 3,
        },
        Fixture {
            name: "unseeded-rng-opaque-seed",
            path: "crates/workloads/src/fixture.rs",
            source: r#"
pub fn rng(h: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(h)
}
"#,
            expect_rule: Some("unseeded-rng"),
            expect_line: 3,
        },
        Fixture {
            name: "float-ord-partial-sort",
            path: "crates/prefetch/src/fixture.rs",
            source: r#"
pub fn rank(scores: &mut Vec<(u64, f64)>) {
    scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
}
"#,
            expect_rule: Some("float-ord"),
            expect_line: 3,
        },
        Fixture {
            name: "shared-mut-lock-in-sim",
            path: "crates/sched/src/fixture.rs",
            source: r#"
pub struct Scoreboard { slots: std::sync::Mutex<Vec<u64>> }
"#,
            expect_rule: Some("shared-mut"),
            expect_line: 2,
        },
        // Channels are shared-mut in sim crates: cross-thread traffic
        // order is scheduler-chosen.
        Fixture {
            name: "shared-mut-channel-in-sim",
            path: "crates/mem/src/fixture.rs",
            source: r#"
pub struct FillPath { tx: std::sync::mpsc::Sender<u64> }
"#,
            expect_rule: Some("shared-mut"),
            expect_line: 2,
        },
        Fixture {
            name: "panic-path-on-audited-file",
            path: "crates/mem/src/mshr.rs",
            source: r#"
pub fn lookup(table: &[u64], idx: usize) -> u64 {
    *table.get(idx).unwrap()
}
"#,
            expect_rule: Some("panic-path"),
            expect_line: 3,
        },
        Fixture {
            name: "escape-hatch-suppresses",
            path: "crates/sm/src/fixture.rs",
            source: r#"
pub fn stamp() -> std::time::Instant {
    // lint: allow(wall-clock)
    Instant::now()
}
"#,
            expect_rule: None,
            expect_line: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::lint_source;

    #[test]
    fn every_fixture_pins_exactly_its_diagnostic() {
        for fx in all() {
            let findings = lint_source(fx.path, fx.source);
            match fx.expect_rule {
                Some(rule) => {
                    assert_eq!(
                        findings.len(),
                        1,
                        "fixture `{}` must produce exactly one finding, got {findings:?}",
                        fx.name
                    );
                    assert_eq!(findings[0].rule, rule, "fixture `{}`", fx.name);
                    assert_eq!(findings[0].line, fx.expect_line, "fixture `{}`", fx.name);
                    assert!(
                        !findings[0].hint.is_empty(),
                        "fixture `{}`: every rule ships a fix-it hint",
                        fx.name
                    );
                }
                None => {
                    assert!(
                        findings.is_empty(),
                        "fixture `{}` must lint clean, got {findings:?}",
                        fx.name
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_covers_every_rule() {
        let covered: Vec<_> = all().iter().filter_map(|f| f.expect_rule).collect();
        for rule in crate::rules::RULE_IDS {
            assert!(covered.contains(rule), "no fixture for rule `{rule}`");
        }
    }

    #[test]
    fn fixtures_surface_as_warnings_in_a_report() {
        use crate::workspace::{Located, WorkspaceReport};
        use gpu_common::Severity;
        let mut findings = Vec::new();
        for fx in all() {
            for finding in lint_source(fx.path, fx.source) {
                findings.push(Located {
                    path: fx.path.to_owned(),
                    finding,
                    baselined: false,
                });
            }
        }
        let report = WorkspaceReport {
            files_scanned: all().len(),
            findings,
            stale_baseline: Vec::new(),
        };
        let diag = report.to_report();
        assert_eq!(diag.count(Severity::Warning), 7);
        assert!(!diag.is_clean());
        assert!(!diag.has_errors(), "lint findings are warnings, not errors");
    }
}
