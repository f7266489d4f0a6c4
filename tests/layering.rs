//! Architecture-layering test: the crate graph must stay a DAG with no
//! back-edges against the documented layer order.
//!
//! The workspace layers are (low to high):
//!
//! `common < kernel < mem < sm < {sched, prefetch} < core < workloads <
//! analysis < bench < serve`
//!
//! Each member crate's manifest is parsed (in-tree, string-level — the
//! workspace is dependency-free by design) and every internal dependency
//! must point at a strictly lower layer. A violation means someone added an
//! upward edge — e.g. `gpu-kernel` reaching into `apres-core` — which is
//! how layered simulators rot into a ball of mutual knowledge.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Layer rank per workspace member. Crates on the same rank may not depend
/// on each other.
fn layer_ranks() -> BTreeMap<&'static str, u32> {
    BTreeMap::from([
        ("gpu-common", 0),
        ("gpu-kernel", 1),
        ("gpu-mem", 2),
        ("gpu-sm", 3),
        ("gpu-sched", 4),
        ("gpu-prefetch", 4),
        ("apres-core", 5),
        ("gpu-workloads", 6),
        ("gpu-analysis", 7),
        ("apres-bench", 8),
        ("apres-serve", 9),
    ])
}

/// Extracts `(package_name, internal_dependency_names)` from a manifest.
/// String-level parsing is enough: workspace manifests are machine-regular
/// (`name = "..."` in `[package]`, `<dep>.workspace = true` or
/// `<dep> = { ... }` lines in dependency sections).
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_owned();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                if let Some(v) = rest.split('"').nth(1) {
                    name = v.to_owned();
                }
            }
        }
        if matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies"
        ) && !line.is_empty()
            && !line.starts_with('#')
        {
            let dep: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !dep.is_empty() {
                deps.push(dep);
            }
        }
    }
    (name, deps)
}

#[test]
fn crate_graph_has_no_back_edges() {
    let ranks = layer_ranks();
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut seen = 0;
    let entries = fs::read_dir(&crates_dir).unwrap_or_else(|e| {
        panic!("cannot read {}: {e}", crates_dir.display());
    });
    for entry in entries {
        let manifest = entry
            .unwrap_or_else(|e| panic!("bad dir entry: {e}"))
            .path()
            .join("Cargo.toml");
        let text = fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
        let (name, deps) = parse_manifest(&text);
        let Some(&rank) = ranks.get(name.as_str()) else {
            panic!("crate {name} has no assigned layer rank — update tests/layering.rs");
        };
        seen += 1;
        for dep in deps {
            // Only internal edges are ranked; the workspace has no external
            // dependencies, so anything unranked would itself be a failure
            // of the hermetic-build rule.
            let Some(&dep_rank) = ranks.get(dep.as_str()) else {
                panic!("{name} depends on unranked crate {dep} (external dependency?)");
            };
            assert!(
                dep_rank < rank,
                "layering violation: {name} (layer {rank}) depends on {dep} \
                 (layer {dep_rank}); edges must point strictly downward"
            );
        }
    }
    assert_eq!(
        seen,
        ranks.len(),
        "workspace member count changed — update tests/layering.rs"
    );
}

#[test]
fn manifest_parser_reads_this_workspace_shape() {
    let (name, deps) = parse_manifest(
        "[package]\nname = \"gpu-analysis\"\n\n[lints]\nworkspace = true\n\n\
         [dependencies]\ngpu-common.workspace = true\napres-core = { path = \"x\" }\n",
    );
    assert_eq!(name, "gpu-analysis");
    assert_eq!(deps, vec!["gpu-common".to_owned(), "apres-core".to_owned()]);
}
