//! Workspace self-audit: the shipped tree must be clean under the
//! `apres-lint` rule set with an **empty baseline** — the same gate
//! `just lint-workspace` (inside `just check`) runs via the
//! `workspace-lint --deny-warnings` binary, so a determinism hazard
//! fails `cargo test` even when `just` is not installed.
//!
//! This supersedes the old grep-based `panic_free_paths.rs` audit: the
//! panic rules now run as the lint's `panic-path` pass over the same
//! file list ([`apres_lint::workspace::PANIC_AUDITED`]), through a lexer
//! that — unlike grep — sees through strings, comments, and
//! `#[cfg(test)]` modules.
//!
//! The `hash-iter` rule's remediation direction is the flat-vs-ordered
//! container policy of DESIGN.md §13: hot lookup paths use flat sorted
//! `Vec`s (MSHR file, L1 per-PC stats, LSU outstanding ops — all
//! deterministic by construction), `BTreeMap`/`BTreeSet` only where key
//! order is load-bearing (event queues) or the set is tiny. A clean scan
//! here means that policy is holding, not merely that `HashMap` is gone.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use apres_lint::workspace::{lint_workspace, Baseline, PANIC_AUDITED};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn shipped_workspace_is_clean_with_empty_baseline() {
    let report = lint_workspace(repo_root(), &Baseline::default())
        .expect("workspace scan must succeed");
    assert!(
        report.files_scanned >= 90,
        "scan looks truncated: only {} files (walker regression?)",
        report.files_scanned
    );
    let diag = report.to_report();
    assert!(
        diag.is_clean(),
        "determinism lint found {} active finding(s):\n{}",
        report.active(),
        diag.diagnostics()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shipped_baseline_file_is_empty() {
    // The acceptance bar for this gate is *zero grandfathered debt*:
    // lint-baseline.txt exists (so the `just` recipe can pass it
    // unconditionally) but contains no entries.
    let path = repo_root().join("lint-baseline.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let baseline = Baseline::parse(&text).expect("baseline must parse");
    let report = lint_workspace(repo_root(), &baseline).expect("workspace scan");
    assert_eq!(
        report.findings.iter().filter(|f| f.baselined).count(),
        0,
        "lint-baseline.txt must stay empty: fix findings, don't suppress them"
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries: {:?}",
        report.stale_baseline
    );
}

#[test]
fn audited_files_exist() {
    // A renamed critical-path file must move its audit entry with it,
    // not silently drop out of the panic-path rule's scope.
    for rel in PANIC_AUDITED {
        assert!(
            repo_root().join(rel).is_file(),
            "audited path {rel} missing — update apres_lint::workspace::PANIC_AUDITED"
        );
    }
}

#[test]
fn audit_covers_the_lint_itself() {
    for own in [
        "crates/lint/src/lexer.rs",
        "crates/lint/src/rules.rs",
        "crates/lint/src/workspace.rs",
    ] {
        assert!(
            PANIC_AUDITED.contains(&own),
            "{own} must stay on the panic audit: a panicking linter takes \
             down `just check` with no diagnostic"
        );
    }
}

#[test]
fn escape_hatches_stay_rare_and_narrowly_scoped() {
    // The `// lint: allow(...)` hatch exists for the Clock implementation
    // and the harness's TTY progress path (wall-clock) only. If allows
    // proliferate or other rules start being waived — shared-mut above
    // all, since simulator state is never shared across threads — the
    // lint is being routed around: fail loudly with the full inventory.
    let mut allows: Vec<(String, String)> = Vec::new();
    for dir in ["crates", "src"] {
        collect_allows(&repo_root().join(dir), &mut allows);
    }
    // Doc comments *describing* the hatch syntax (`allow(<rule>)`) are
    // captured by the lexer but can never waive anything: only a real
    // rule ID matches a finding. Audit the effective waivers.
    allows.retain(|(_, rule)| apres_lint::RULE_IDS.contains(&rule.as_str()));
    let shared_mut: Vec<_> = allows
        .iter()
        .filter(|(_, rule)| rule == "shared-mut")
        .collect();
    assert!(
        shared_mut.is_empty(),
        "shared-mut may not be waived anywhere, found: {shared_mut:?}"
    );
    let unexpected: Vec<_> = allows
        .iter()
        .filter(|(_, rule)| rule != "wall-clock")
        .collect();
    assert!(
        unexpected.is_empty(),
        "only wall-clock findings may be waived in-source, found: {unexpected:?}"
    );
    assert!(
        allows.len() <= 4,
        "escape-hatch count grew to {}: {allows:?} — fix findings instead \
         of waiving them",
        allows.len()
    );
}

fn collect_allows(dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_allows(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap_or_default();
            for allow in apres_lint::lexer::lex(&src).allows {
                out.push((format!("{}:{}", path.display(), allow.line), allow.rule));
            }
        }
    }
}
