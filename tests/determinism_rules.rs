//! The determinism rules of DESIGN.md §12 that clippy cannot check by
//! itself.
//!
//! `clippy.toml` bans the types and methods that let process state leak
//! into results, the seven simulator crates `#![forbid]` waiving those
//! bans, and `unsafe_code` is denied. Clippy only warns when a
//! `clippy.toml` path stops resolving, so each ban has a canary below: an
//! unfulfilled `#[expect]` fails `cargo clippy -- -D warnings`. The tests
//! pin the waiver inventory and the lint attributes, and ban `partial_cmp`
//! calls, which clippy cannot do without also firing inside
//! `#[derive(PartialOrd)]`.

use std::path::Path;

/// One dead use per `clippy.toml` ban.
#[allow(dead_code)]
mod canaries {
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn hash_map(_: std::collections::HashMap<u8, u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn hash_set(_: std::collections::HashSet<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn random_state(_: std::hash::RandomState) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn system_time(_: std::time::SystemTime) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn mutex(_: std::sync::Mutex<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn rw_lock(_: std::sync::RwLock<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn sender(_: std::sync::mpsc::Sender<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn sync_sender(_: std::sync::mpsc::SyncSender<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn receiver(_: std::sync::mpsc::Receiver<u8>) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn atomic_u64(_: std::sync::atomic::AtomicU64) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn atomic_usize(_: std::sync::atomic::AtomicUsize) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn atomic_u32(_: std::sync::atomic::AtomicU32) {}
    #[expect(clippy::disallowed_types, reason = "canary")]
    fn atomic_bool(_: std::sync::atomic::AtomicBool) {}
    #[expect(clippy::disallowed_methods, reason = "canary")]
    fn instant_now() {
        let _ = std::time::Instant::now();
    }
    #[expect(clippy::disallowed_methods, reason = "canary")]
    fn channel() {
        let _ = std::sync::mpsc::channel::<u8>();
    }
    #[expect(clippy::disallowed_methods, reason = "canary")]
    fn sync_channel() {
        let _ = std::sync::mpsc::sync_channel::<u8>(0);
    }
}

const SIM_CRATES: [&str; 7] = [
    "kernel",
    "mem",
    "sm",
    "sched",
    "prefetch",
    "core",
    "workloads",
];

const FORBID: &str =
    "#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]";

/// Config validation, MSHR allocation, the simulation facade, the result
/// cache and the batch service must return typed errors, never panic.
const PANIC_AUDITED: [&str; 9] = [
    "crates/common/src/config.rs",
    "crates/mem/src/mshr.rs",
    "crates/mem/src/l1.rs",
    "crates/mem/src/memsys.rs",
    "crates/sm/src/gpu.rs",
    "crates/core/src/sim.rs",
    "crates/bench/src/cache.rs",
    "crates/serve/src/batch.rs",
    "crates/serve/src/service.rs",
];

const DENY_PANICS: &str =
    "#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]";

/// `(lint, file, at most)`: every waiver of a determinism ban outside this
/// file. The four wall-clock reads feed deadlines and stderr only.
const WAIVERS: [(&str, &str, usize); 6] = [
    (
        "clippy::disallowed_methods",
        "crates/common/src/clock.rs",
        1,
    ),
    (
        "clippy::disallowed_methods",
        "crates/bench/src/harness.rs",
        3,
    ),
    ("clippy::disallowed_types", "crates/common/src/clock.rs", 1),
    ("clippy::disallowed_types", "crates/bench/src/harness.rs", 1),
    ("clippy::disallowed_types", "crates/bench/src/cache.rs", 1),
    ("unsafe_code", "crates/bench/src/alloc.rs", 1),
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `rel`'s source without its comment lines.
fn code(rel: &str) -> String {
    let src = read(rel);
    let lines: Vec<&str> = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect();
    lines.join("\n")
}

/// `(repo-relative path, code)` of every `.rs` file under `dir`.
fn sources(dir: &str, out: &mut Vec<(String, String)>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(root.join(dir))
        .into_iter()
        .flatten()
        .flatten()
    {
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            sources(&rel, out);
        } else if rel.ends_with(".rs") {
            let code = code(&rel);
            out.push((rel, code));
        }
    }
}

#[test]
fn every_ban_has_a_canary() {
    let own = read("tests/determinism_rules.rs");
    let config = read("clippy.toml");
    let bans: Vec<&str> = config
        .split("path = \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(
        bans.len() >= 16,
        "clippy.toml bans look truncated: {bans:?}"
    );
    let canary = format!("reason = {:?}", "canary");
    assert_eq!(
        own.matches(&canary).count(),
        bans.len(),
        "one canary per ban"
    );
    for ban in bans {
        assert!(
            own.contains(ban),
            "clippy.toml bans {ban} but has no canary here"
        );
    }
}

#[test]
fn waivers_stay_few_and_named() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        sources(dir, &mut files);
    }
    for (path, code) in files
        .iter()
        .filter(|(p, _)| p != "tests/determinism_rules.rs")
    {
        // `allow(..)`/`expect(..)` attribute bodies, whitespace-normalised.
        let attrs: Vec<String> = code
            .split('#')
            .filter_map(|s| s.strip_prefix('!').unwrap_or(s).strip_prefix('['))
            .filter(|s| s.starts_with("allow(") || s.starts_with("expect("))
            .map(|s| {
                s[..s.find(")]").unwrap_or(s.len())]
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        for lint in [
            "clippy::disallowed_methods",
            "clippy::disallowed_types",
            "unsafe_code",
        ] {
            let waivers: Vec<_> = attrs.iter().filter(|a| a.contains(lint)).collect();
            let allowed = WAIVERS
                .iter()
                .find(|w| w.0 == lint && w.1 == path)
                .map_or(0, |w| w.2);
            assert!(
                waivers.len() <= allowed,
                "{path} waives {lint} {} time(s), {allowed} allowed (DESIGN.md §12): fix the \
                 code instead. {waivers:?}",
                waivers.len()
            );
            for w in waivers {
                assert!(
                    w.starts_with("expect(") && w.contains("reason ="),
                    "{path}: a waiver is #[expect(.., reason = \"..\")], which fails once it \
                     waives nothing: {w}"
                );
            }
        }
    }
}

#[test]
fn lint_attributes_stay_in_place() {
    // Whitespace-insensitive, so rustfmt may wrap the attributes.
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let carries = |file: &str, attr: &str| squash(&code(file)).contains(&squash(attr));
    for krate in SIM_CRATES {
        let root = format!("crates/{krate}/src/lib.rs");
        assert!(carries(&root, FORBID), "{root} must carry `{FORBID}`");
    }
    for file in PANIC_AUDITED {
        assert!(
            carries(file, DENY_PANICS),
            "{file} must carry `{DENY_PANICS}`"
        );
    }
}

#[test]
fn no_partial_orders_in_shipping_code() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        sources(dir, &mut files);
    }
    let found: Vec<String> = files
        .iter()
        .flat_map(|(path, code)| code.lines().map(move |l| (path, l)))
        .filter(|(_, l)| l.matches("partial_cmp").count() > l.matches("fn partial_cmp").count())
        .map(|(path, l)| format!("{path}: {}", l.trim()))
        .collect();
    assert!(
        found.is_empty(),
        "a partial order panics or reorders on NaN; use `total_cmp` or an integer key:\n{}",
        found.join("\n")
    );
}
