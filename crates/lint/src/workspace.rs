//! Workspace walking, file classification, and baseline handling.
//!
//! [`lint_workspace`] scans every shipping `.rs` file — `crates/*/src/**`
//! plus the root package's `src/**` — and runs the [`crate::rules`] set
//! over each, with the rule scope decided by where the file lives:
//!
//! * files under a *simulator* crate ([`SIM_CRATES`]) get the full
//!   shared-mutability treatment (locks and `Relaxed` atomics refused);
//!   infrastructure crates (bench harness, serve, analysis, lint itself)
//!   may use synchronization because their outputs are order-insensitive
//!   by construction (submission-order aggregation);
//! * files on the panic audit list ([`PANIC_AUDITED`]) additionally run
//!   the `panic-path` rule, superseding the old grep-based
//!   `tests/panic_free_paths.rs` integration test;
//! * integration tests, benches, and anything outside `src/` are not
//!   walked at all — tests may hash, clock-read, and unwrap freely.
//!
//! A *baseline* file ([`Baseline`]) grandfathers known findings without
//! hiding them: a baselined finding is demoted from warning to note, so
//! `--deny-warnings` passes while the debt stays visible in every report.
//! The shipped `lint-baseline.txt` is empty — the gate starts at zero.

use crate::rules::{run_rules, FileCtx, Finding};
use gpu_common::diag::{Diagnostic, Report, Severity};
use gpu_common::json::Json;
use std::path::{Path, PathBuf};

/// Crates whose code runs inside the cycle-level simulation and must be
/// a pure function of its inputs (directory names under `crates/`).
pub const SIM_CRATES: &[&str] = &[
    "kernel",
    "mem",
    "sm",
    "sched",
    "prefetch",
    "core",
    "workloads",
];

/// Files on the panic audit: the config-validation, MSHR-allocation,
/// simulation-facade, result-cache, and batch-service paths, plus the
/// lint engine itself (a panicking linter would take down `just check`
/// with no diagnostic). Inherited from the retired
/// `tests/panic_free_paths.rs`.
pub const PANIC_AUDITED: &[&str] = &[
    "crates/common/src/config.rs",
    "crates/mem/src/mshr.rs",
    "crates/mem/src/l1.rs",
    "crates/mem/src/memsys.rs",
    "crates/sm/src/gpu.rs",
    "crates/core/src/sim.rs",
    "crates/bench/src/cache.rs",
    "crates/serve/src/batch.rs",
    "crates/serve/src/service.rs",
    "crates/lint/src/lexer.rs",
    "crates/lint/src/rules.rs",
    "crates/lint/src/workspace.rs",
];

/// Classifies a workspace-relative path (forward-slash form) and runs
/// the rule set over one file's source. This is the single entry point
/// both the walker and the fixture tests go through, so a fixture pinned
/// to a path exercises exactly the scoping the real file would get.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = crate::lexer::lex(src);
    let sim_crate = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .is_some_and(|krate| SIM_CRATES.contains(&krate));
    let ctx = FileCtx {
        lexed: &lexed,
        path: rel_path,
        sim_crate,
        panic_audited: PANIC_AUDITED.contains(&rel_path),
    };
    run_rules(&ctx)
}

/// One finding located in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Located {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The rule finding.
    pub finding: Finding,
    /// `true` when a [`Baseline`] entry grandfathers it (demoted to note).
    pub baselined: bool,
}

/// The outcome of one workspace scan.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings in (path, line, rule) order.
    pub findings: Vec<Located>,
    /// Baseline entries that matched nothing (stale — reported so the
    /// baseline shrinks monotonically instead of rotting).
    pub stale_baseline: Vec<String>,
}

impl WorkspaceReport {
    /// Active (non-baselined) finding count.
    pub fn active(&self) -> usize {
        self.findings.iter().filter(|f| !f.baselined).count()
    }

    /// Converts to a [`gpu_common::diag::Report`]: active findings are
    /// warnings, baselined ones notes, stale baseline entries warnings
    /// (a stale suppression is itself lint debt).
    pub fn to_report(&self) -> Report {
        let mut report = Report::new();
        for loc in &self.findings {
            let severity = if loc.baselined {
                Severity::Note
            } else {
                Severity::Warning
            };
            report.push(Diagnostic::new(
                severity,
                loc.finding.rule,
                None,
                format!(
                    "{}:{}: {} (fix: {})",
                    loc.path, loc.finding.line, loc.finding.message, loc.finding.hint
                ),
            ));
        }
        for stale in &self.stale_baseline {
            report.push(Diagnostic::warning(
                "baseline",
                None,
                format!("stale baseline entry `{stale}` matches no finding"),
            ));
        }
        report
    }

    /// JSON object: scan stats plus the diagnostic array.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("files_scanned".into(), Json::from_u64(self.files_scanned as u64)),
            (
                "findings".into(),
                Json::from_u64(self.findings.len() as u64),
            ),
            ("active".into(), Json::from_u64(self.active() as u64)),
            ("diagnostics".into(), self.to_report().to_json()),
        ])
    }
}

/// A suppression file: one `path:line:rule` entry per line, `#` comments
/// and blank lines ignored. Entries are exact — when the finding moves
/// (line churn) the entry goes stale and is itself reported, forcing the
/// baseline to track reality.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<(String, usize, String)>,
}

impl Baseline {
    /// Parses baseline text. Returns `Err` with the offending line on a
    /// malformed entry, so a typo cannot silently suppress nothing.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Rightmost two `:` fields are line and rule; the path may
            // not contain `:` in this workspace.
            let mut parts = line.rsplitn(3, ':');
            let (Some(rule), Some(line_no), Some(path)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected `path:line:rule`, got `{line}`",
                    idx + 1
                ));
            };
            let Ok(line_no) = line_no.parse::<usize>() else {
                return Err(format!(
                    "baseline line {}: line number `{line_no}` is not a number",
                    idx + 1
                ));
            };
            entries.push((path.to_owned(), line_no, rule.to_owned()));
        }
        Ok(Baseline { entries })
    }

    /// `true` when an entry grandfathers this finding.
    fn matches(&self, path: &str, line: usize, rule: &str) -> bool {
        self.entries
            .iter()
            .any(|(p, l, r)| p == path && *l == line && r == rule)
    }

    /// Entries matching none of `findings` (stale suppressions).
    fn stale(&self, findings: &[Located]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(p, l, r)| {
                !findings
                    .iter()
                    .any(|f| &f.path == p && f.finding.line == *l && f.finding.rule == r)
            })
            .map(|(p, l, r)| format!("{p}:{l}:{r}"))
            .collect()
    }
}

/// Scans the workspace rooted at `root` and returns the report.
///
/// Walks `crates/*/src/**` and `src/**`; directory entries are visited
/// in sorted order so output is byte-identical across filesystems.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> Result<WorkspaceReport, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }

    let mut report = WorkspaceReport::default();
    for path in &files {
        let rel = relative_slash(root, path);
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        report.files_scanned += 1;
        for finding in lint_source(&rel, &src) {
            let baselined = baseline.matches(&rel, finding.line, finding.rule);
            report.findings.push(Located {
                path: rel.clone(),
                finding,
                baselined,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.finding.line, a.finding.rule).cmp(&(
            &b.path,
            b.finding.line,
            b.finding.rule,
        )));
    report.stale_baseline = baseline.stale(&report.findings);
    Ok(report)
}

/// Child paths of `dir`, name-sorted for deterministic traversal.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes on every platform.
fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_crate_scoping_follows_path() {
        // A Mutex is refused in gpu-mem but legal in apres-bench.
        let src = "struct S { m: Mutex<u64> }";
        let mem = lint_source("crates/mem/src/foo.rs", src);
        assert_eq!(mem.len(), 1, "{mem:?}");
        assert_eq!(mem[0].rule, "shared-mut");
        assert!(lint_source("crates/bench/src/foo.rs", src).is_empty());
    }

    #[test]
    fn panic_audit_follows_path() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        let audited = lint_source("crates/mem/src/mshr.rs", src);
        assert_eq!(audited.len(), 1, "{audited:?}");
        assert_eq!(audited[0].rule, "panic-path");
        assert!(lint_source("crates/mem/src/other.rs", src).is_empty());
    }

    #[test]
    fn baseline_demotes_to_note_and_reports_stale() {
        let baseline =
            Baseline::parse("# comment\n\ncrates/x/src/a.rs:2:wall-clock\nstale.rs:9:hash-iter\n")
                .expect("parses");
        let finding = crate::rules::Finding {
            rule: "wall-clock",
            line: 2,
            message: "m".into(),
            hint: "h",
        };
        let located = Located {
            path: "crates/x/src/a.rs".into(),
            finding,
            baselined: baseline.matches("crates/x/src/a.rs", 2, "wall-clock"),
        };
        assert!(located.baselined);
        let report = WorkspaceReport {
            files_scanned: 1,
            findings: vec![located],
            stale_baseline: baseline.stale(&[]),
        };
        let diag = report.to_report();
        assert_eq!(diag.count(Severity::Note), 1);
        // Both baseline entries are stale against an empty finding set.
        assert_eq!(diag.count(Severity::Warning), 2);
        assert_eq!(report.active(), 0);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(Baseline::parse("no-colons-here").is_err());
        assert!(Baseline::parse("a.rs:notanumber:rule").is_err());
        assert!(Baseline::parse("").expect("empty ok").entries.is_empty());
    }

    #[test]
    fn report_message_carries_path_line_and_hint() {
        let report = WorkspaceReport {
            files_scanned: 1,
            findings: vec![Located {
                path: "crates/mem/src/l1.rs".into(),
                finding: crate::rules::Finding {
                    rule: "hash-iter",
                    line: 7,
                    message: "iteration over std hash container".into(),
                    hint: "use BTreeMap",
                },
                baselined: false,
            }],
            stale_baseline: Vec::new(),
        };
        let diag = report.to_report();
        let d = &diag.diagnostics()[0];
        assert_eq!(d.pass, "hash-iter");
        assert!(d.message.contains("crates/mem/src/l1.rs:7:"), "{}", d.message);
        assert!(d.message.contains("(fix: use BTreeMap)"), "{}", d.message);
    }
}
