//! The determinism & concurrency rule set.
//!
//! Each rule has a stable identifier, a severity, a fix-it hint, and an
//! in-source escape hatch: a `// lint: allow(<rule>)` comment on the
//! finding's line (or the line directly above) suppresses it. The rules
//! exist to protect the simulator's byte-identical-output guarantee by
//! refusing the constructs that let hidden ordering or wall-clock state
//! leak into simulation results:
//!
//! | rule           | hazard                                                    |
//! |----------------|-----------------------------------------------------------|
//! | `hash-iter`    | iteration over `std` `HashMap`/`HashSet` (random order)   |
//! | `wall-clock`   | `Instant::now`/`SystemTime` outside the `Clock` trait     |
//! | `unseeded-rng` | RNG construction from entropy instead of a derived seed   |
//! | `float-ord`    | float sort keys / `partial_cmp().unwrap()` partial orders |
//! | `shared-mut`   | `static mut`, `Relaxed` atomics, locks, channels in sim state |
//! | `panic-path`   | panicking escape hatches on audited critical paths        |
//!
//! Rules are token-level with light semantic tracking (hash-typed binding
//! names, call-argument spans), which keeps the pass dependency-free and
//! fast; the trade-off — documented per rule — is that they audit names
//! and shapes, not types.

use crate::lexer::{Lexed, Token, TokenKind};

/// Severity of every active finding (the gate runs `--deny-warnings`;
/// baselined findings are demoted to notes).
pub use gpu_common::Severity;

/// One rule violation in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`"hash-iter"`, …).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// Per-file context the rules run against.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// Workspace-relative path (used in messages and audit matching).
    pub path: &'a str,
    /// `true` for the cycle-level simulator crates, where shared-mutable
    /// state is categorically refused (not just discouraged).
    pub sim_crate: bool,
    /// `true` when this file is on the panic-path audit list.
    pub panic_audited: bool,
}

/// All rule identifiers, in reporting order.
pub const RULE_IDS: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "unseeded-rng",
    "float-ord",
    "shared-mut",
    "panic-path",
];

/// Runs every rule over one file and returns surviving findings in
/// (line, rule) order. Findings inside `#[cfg(test)]` items and findings
/// with a matching allow-comment are dropped here.
pub fn run_rules(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    hash_iter(ctx, &mut findings);
    wall_clock(ctx, &mut findings);
    unseeded_rng(ctx, &mut findings);
    float_ord(ctx, &mut findings);
    shared_mut(ctx, &mut findings);
    if ctx.panic_audited {
        panic_path(ctx, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup();
    findings
}

/// Pushes a finding unless its line carries an allow for the rule.
fn emit(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Finding>,
    rule: &'static str,
    token_idx: usize,
    message: String,
    hint: &'static str,
) {
    let line = ctx.lexed.tokens[token_idx].line;
    if ctx.lexed.in_test_code(token_idx) || ctx.lexed.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        line,
        message,
        hint,
    });
}

/// Methods whose results depend on container iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// `hash-iter` — iteration over `std` `HashMap`/`HashSet`.
///
/// Pass 1 collects *hash names*: identifiers bound to a `HashMap` or
/// `HashSet` by a type ascription (`name: HashMap<…>`, struct fields and
/// `let` alike, through any `std::collections::` path) or by an untyped
/// construction (`let name = HashMap::new()`). Pass 2 flags every
/// iteration-order-dependent use of a hash name: an [`ITER_METHODS`] call
/// or a `for … in` loop over it. Lookups (`get`, `insert`,
/// `contains_key`) stay legal — only *order* is nondeterministic.
///
/// The remediation follows the workspace's flat-vs-ordered container
/// policy (DESIGN.md §13): hot lookup paths replace the hash container
/// with a **flat sorted `Vec`** (deterministic by construction, no
/// pointer-chasing — the shipped MSHR file and L1 per-PC stats are the
/// reference examples); `BTreeMap`/`BTreeSet` is the fallback where key
/// order is genuinely load-bearing (event queues) or the set is tiny and
/// rarely touched.
fn hash_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        if let Some(name) = binding_name_before(t, i) {
            if !hash_names.contains(&name) {
                hash_names.push(name);
            }
        }
    }
    for (i, tok) in t.iter().enumerate() {
        let TokenKind::Ident = tok.kind else { continue };
        if !hash_names.contains(&tok.text.as_str()) {
            continue;
        }
        // `name.iter()` / `self.name.drain()` — a method call follows.
        let is_iter_call = t.get(i + 1).is_some_and(|d| d.is_punct('.'))
            && t.get(i + 2).is_some_and(|m| {
                ITER_METHODS.iter().any(|im| m.is_ident(im))
            })
            && t.get(i + 3).is_some_and(|p| p.is_punct('('));
        // `for x in [&[mut]] [self.]name {` — a loop header ends at it.
        let is_for_target = in_for_loop_header(t, i)
            && t.get(i + 1).is_some_and(|n| n.is_punct('{'));
        if is_iter_call || is_for_target {
            let how = if is_iter_call {
                format!(".{}()", t[i + 2].text)
            } else {
                "for-loop".to_owned()
            };
            emit(
                ctx,
                out,
                "hash-iter",
                i,
                format!(
                    "iteration over std hash container `{}` ({how}): \
                     RandomState makes the visit order differ per process",
                    tok.text
                ),
                "prefer a flat sorted Vec on hot lookup paths (DESIGN.md \
                 §13 container policy); use BTreeMap/BTreeSet when key \
                 order is load-bearing, or collect-and-sort before iterating",
            );
        }
    }
}

/// Walks back from a `HashMap`/`HashSet` token to the identifier it is
/// bound to, if the shape is a binding.
fn binding_name_before(t: &[Token], mut i: usize) -> Option<&str> {
    // Skip a leading path (`std :: collections ::`): hop back over
    // `ident ::` pairs.
    while i >= 2 && t[i - 1].is_punct(':') && t[i - 2].is_punct(':') {
        i -= 2;
        if i >= 1 && t[i - 1].kind == TokenKind::Ident {
            i -= 1;
        } else {
            return None;
        }
    }
    if i == 0 {
        return None;
    }
    match &t[i - 1] {
        // `name : HashMap<…>` (field or typed let).
        c if c.is_punct(':') => {
            let n = t.get(i.checked_sub(2)?)?;
            (n.kind == TokenKind::Ident).then_some(n.text.as_str())
        }
        // `let [mut] name = HashMap::new()` / `self.name = HashMap::new()`.
        // A non-identifier before the `=` (e.g. the `>` closing a typed
        // let's generics) is not a binding shape.
        c if c.is_punct('=') => {
            let n = t.get(i.checked_sub(2)?)?;
            (n.kind == TokenKind::Ident && !n.is_ident("mut"))
                .then_some(n.text.as_str())
        }
        _ => None,
    }
}

/// `true` when token `i` sits between a `for … in` and the loop body
/// brace on the same statement (i.e. it is part of the iterated
/// expression).
fn in_for_loop_header(t: &[Token], i: usize) -> bool {
    // Walk back a bounded distance looking for `in` preceded (further
    // back) by `for`, without crossing a `{`, `}` or `;`.
    let lo = i.saturating_sub(12);
    let mut saw_in = None;
    for j in (lo..i).rev() {
        match &t[j].kind {
            TokenKind::Punct('{' | '}' | ';') => break,
            TokenKind::Ident if t[j].text == "in" => saw_in = Some(j),
            TokenKind::Ident if t[j].text == "for" => {
                return saw_in.is_some();
            }
            _ => {}
        }
    }
    false
}

/// `wall-clock` — `Instant::now` / `SystemTime` outside the `Clock`
/// abstraction.
///
/// The simulator's only legal time sources are the virtual cycle counter
/// and `gpu_common::clock::Clock`; those two implementations (and the
/// bench harness's TTY progress path) carry explicit allow-comments.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("Instant")
            && t.get(i + 1).is_some_and(|c| c.is_punct(':'))
            && t.get(i + 2).is_some_and(|c| c.is_punct(':'))
            && t.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            emit(
                ctx,
                out,
                "wall-clock",
                i,
                "raw wall-clock read (`Instant::now`) bypasses the Clock \
                 abstraction"
                    .to_owned(),
                "take a `&dyn gpu_common::clock::Clock` (WallClock in \
                 production, VirtualClock in tests) so time is mockable \
                 and --no-time runs stay byte-identical",
            );
        }
        if tok.is_ident("SystemTime") {
            emit(
                ctx,
                out,
                "wall-clock",
                i,
                "`SystemTime` is a non-monotonic wall-clock source".to_owned(),
                "route time through gpu_common::clock::Clock; SystemTime \
                 has no deterministic stand-in",
            );
        }
    }
}

/// Entropy sources that are nondeterministic by construction.
const ENTROPY_SOURCES: &[&str] = &["thread_rng", "from_entropy", "OsRng", "RandomState"];

/// RNG constructors that take a seed and must receive a deterministic one.
const SEEDED_CONSTRUCTORS: &[(&str, &str)] = &[
    ("Xoshiro256", "seed_from_u64"),
    ("SeedStream", "new"),
];

/// `unseeded-rng` — RNG construction not derived from an explicit seed.
///
/// Two shapes are flagged: (a) any use of a known entropy source
/// ([`ENTROPY_SOURCES`]); (b) a call to a seeded constructor
/// ([`SEEDED_CONSTRUCTORS`]) whose argument span contains neither a
/// numeric literal nor an identifier mentioning "seed" — the workspace
/// convention being that every seed value is either a constant or flows
/// through `derive_seed`/`*_seed`-named bindings.
fn unseeded_rng(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    for (i, tok) in t.iter().enumerate() {
        if ENTROPY_SOURCES.iter().any(|s| tok.is_ident(s)) {
            emit(
                ctx,
                out,
                "unseeded-rng",
                i,
                format!(
                    "`{}` draws from process entropy: results cannot be \
                     reproduced from a seed",
                    tok.text
                ),
                "construct RNGs from derive_seed(base, index) or an \
                 explicit seed constant",
            );
            continue;
        }
        let is_ctor = SEEDED_CONSTRUCTORS.iter().any(|(ty, method)| {
            tok.is_ident(ty)
                && t.get(i + 1).is_some_and(|c| c.is_punct(':'))
                && t.get(i + 2).is_some_and(|c| c.is_punct(':'))
                && t.get(i + 3).is_some_and(|m| m.is_ident(method))
                && t.get(i + 4).is_some_and(|p| p.is_punct('('))
        });
        if !is_ctor {
            continue;
        }
        let Some(args) = call_arg_span(t, i + 4) else {
            continue;
        };
        let deterministic = t[args.0..args.1].iter().any(|a| match &a.kind {
            TokenKind::Number => true,
            TokenKind::Ident => a.text.to_ascii_lowercase().contains("seed"),
            _ => false,
        });
        if !deterministic {
            emit(
                ctx,
                out,
                "unseeded-rng",
                i,
                format!(
                    "`{}::{}` argument shows no explicit seed (no literal \
                     and no seed-named binding)",
                    tok.text, t[i + 3].text
                ),
                "derive the value via derive_seed(..) or name the binding \
                 *_seed so provenance is auditable",
            );
        }
    }
}

/// Token span `(start, end)` of the arguments of a call whose opening
/// paren is at `open`.
fn call_arg_span(t: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(open) {
        match tok.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, j));
                }
            }
            _ => {}
        }
    }
    None
}

/// Comparator-taking methods whose closure must impose a *total* order.
const ORDER_SINKS: &[&str] = &["sort_by", "sort_unstable_by", "min_by", "max_by"];

/// `float-ord` — partial orders used where a total order is required.
///
/// Flags `partial_cmp` when it feeds a sort/min/max comparator or is
/// force-unwrapped: both shapes make NaN (or a refactor that introduces
/// one) reorder results or panic depending on data.
fn float_ord(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    // Collect the argument spans of every order-sink call.
    let mut sink_spans: Vec<(usize, usize)> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if ORDER_SINKS.iter().any(|s| tok.is_ident(s)) {
            if let Some(open) = t.get(i + 1).and_then(|p| p.is_punct('(').then_some(i + 1)) {
                if let Some(span) = call_arg_span(t, open) {
                    sink_spans.push(span);
                }
            }
        }
    }
    for (i, tok) in t.iter().enumerate() {
        if !tok.is_ident("partial_cmp") {
            continue;
        }
        let in_sink = sink_spans.iter().any(|&(s, e)| i >= s && i < e);
        // `partial_cmp(..).unwrap()` / `.expect(..)`.
        let unwrapped = t
            .get(i + 1)
            .and_then(|p| p.is_punct('(').then_some(i + 1))
            .and_then(|open| call_arg_span(t, open))
            .map(|(_, close)| {
                t.get(close + 1).is_some_and(|d| d.is_punct('.'))
                    && t.get(close + 2)
                        .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
            })
            .unwrap_or(false);
        if in_sink || unwrapped {
            emit(
                ctx,
                out,
                "float-ord",
                i,
                format!(
                    "`partial_cmp` {} imposes only a partial order: NaN \
                     reorders or panics data-dependently",
                    if in_sink {
                        "inside a sort/min/max comparator"
                    } else {
                        "force-unwrapped"
                    }
                ),
                "compare with f64::total_cmp (or sort by an integer key)",
            );
        }
    }
}

/// `shared-mut` — mutable state observable across threads in sim paths.
///
/// `static mut` is refused everywhere. In simulator crates
/// ([`FileCtx::sim_crate`]) `Mutex`/`RwLock` and `Relaxed`-ordered
/// atomics are refused too: a simulation must be a pure single-threaded
/// function of its inputs, with cross-SM communication happening through
/// explicitly ordered queues — never through locks whose acquisition
/// order the scheduler picks.
fn shared_mut(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("static") && t.get(i + 1).is_some_and(|m| m.is_ident("mut")) {
            emit(
                ctx,
                out,
                "shared-mut",
                i,
                "`static mut` is unsynchronized global state".to_owned(),
                "thread the state through the owning struct, or use an \
                 atomic with explicit ordering outside sim crates",
            );
        }
        if !ctx.sim_crate {
            continue;
        }
        if tok.is_ident("Mutex") || tok.is_ident("RwLock") {
            emit(
                ctx,
                out,
                "shared-mut",
                i,
                format!(
                    "`{}` in a simulator crate: lock-acquisition order is \
                     scheduler-chosen and would leak into results",
                    tok.text
                ),
                "keep per-SM state owned by the SM; exchange inter-SM \
                 messages through owned queues in a fixed order",
            );
        }
        if tok.is_ident("Relaxed")
            && i >= 2
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
        {
            emit(
                ctx,
                out,
                "shared-mut",
                i,
                "`Relaxed`-ordered atomic in a simulator crate: permits \
                 cross-thread reordering that changes observable state"
                    .to_owned(),
                "simulator state must not be shared mutably; if an atomic \
                 is unavoidable use SeqCst and document why",
            );
        }
        // Channels are cross-thread communication too; simulator state
        // has no waiver for them (tests/workspace_lint.rs asserts that no
        // shared-mut finding is waived anywhere).
        let is_channel_ctor = tok.is_ident("channel")
            && i >= 2
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t.get(i.wrapping_sub(3)).is_some_and(|m| m.is_ident("mpsc"));
        if tok.is_ident("Sender")
            || tok.is_ident("Receiver")
            || tok.is_ident("SyncSender")
            || is_channel_ctor
        {
            emit(
                ctx,
                out,
                "shared-mut",
                i,
                format!(
                    "`{}` in a simulator crate: channel traffic order is \
                     scheduler-chosen",
                    tok.text
                ),
                "exchange inter-SM messages through owned queues in a \
                 fixed order",
            );
        }
    }
}

/// Panicking escape hatches refused on audited critical paths.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `panic-path` — unwrap/expect/panic-family macros on critical paths.
///
/// Supersedes the old grep-based `panic_free_paths` integration test: the
/// audited file list lives in [`crate::workspace::LintConfig`], and the
/// lexer (unlike grep) sees through strings, comments, and `#[cfg(test)]`
/// modules.
fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = &ctx.lexed.tokens;
    for (i, tok) in t.iter().enumerate() {
        // `.unwrap()` / `.expect(` — method position only, so
        // `unwrap_or_else` and friends stay legal.
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && i >= 1
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            emit(
                ctx,
                out,
                "panic-path",
                i,
                format!("`.{}()` on an audited critical path", tok.text),
                "return a typed SimError (see DESIGN.md §8) instead of \
                 panicking",
            );
        }
        if PANIC_MACROS.iter().any(|m| tok.is_ident(m))
            && t.get(i + 1).is_some_and(|b| b.is_punct('!'))
        {
            emit(
                ctx,
                out,
                "panic-path",
                i,
                format!("`{}!` on an audited critical path", tok.text),
                "return a typed SimError (see DESIGN.md §8) instead of \
                 panicking",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, sim_crate: bool, panic_audited: bool) -> Vec<Finding> {
        let lexed = lex(src);
        run_rules(&FileCtx {
            lexed: &lexed,
            path: "test.rs",
            sim_crate,
            panic_audited,
        })
    }

    #[test]
    fn hash_iter_tracks_fields_and_lets() {
        let src = "
            struct S { table: HashMap<u64, u32>, fine: Vec<u32> }
            impl S {
                fn bad(&self) { for x in self.table.values() { use_(x) } }
                fn ok(&self) { self.table.get(&1); self.fine.iter().count(); }
            }
            fn local() {
                let mut seen = HashSet::new();
                for s in seen.drain() { use_(s) }
            }
        ";
        let f = run(src, false, false);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "hash-iter"));
    }

    #[test]
    fn hash_iter_catches_qualified_paths_and_for_loops() {
        let src = "
            struct S { no_fill: std::collections::HashSet<u64> }
            fn f(s: S) { for l in &s.no_fill { use_(l) } }
        ";
        let f = run(src, false, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hash-iter");
    }

    #[test]
    fn vec_iteration_is_legal() {
        let f = run(
            "fn f(v: Vec<u32>, m: BTreeMap<u32, u32>) {
                 for x in &v { use_(x) }
                 for (k, _) in &m { use_(k) }
             }",
            true,
            true,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let f = run(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); }",
            false,
            false,
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "wall-clock"));
    }

    #[test]
    fn allow_comment_suppresses() {
        let f = run(
            "fn f() {\n let t = Instant::now(); // lint: allow(wall-clock)\n}",
            false,
            false,
        );
        assert!(f.is_empty(), "{f:?}");
        // The hatch is rule-specific.
        let f = run(
            "fn f() {\n let t = Instant::now(); // lint: allow(hash-iter)\n}",
            false,
            false,
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let f = run(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn t() { let x = \
             Instant::now(); v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}",
            true,
            true,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unseeded_rng_needs_seed_provenance() {
        let bad = run("fn f() { let r = Xoshiro256::seed_from_u64(h); }", false, false);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "unseeded-rng");
        for ok_src in [
            "fn f() { let r = Xoshiro256::seed_from_u64(7); }",
            "fn f() { let r = Xoshiro256::seed_from_u64(self.seed(i)); }",
            "fn f() { let r = SeedStream::new(BASE_SEED); }",
            "fn f() { let r = Xoshiro256::seed_from_u64(derive_seed(a, b)); }",
        ] {
            assert!(run(ok_src, false, false).is_empty(), "{ok_src}");
        }
        let entropy = run("fn f() { let r = thread_rng(); }", false, false);
        assert_eq!(entropy.len(), 1);
        assert_eq!(entropy[0].rule, "unseeded-rng");
    }

    #[test]
    fn float_ord_flags_sorts_and_unwraps() {
        let f = run(
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            false,
            false,
        );
        assert_eq!(f.len(), 1, "one finding per partial_cmp: {f:?}");
        assert_eq!(f[0].rule, "float-ord");
        let ok = run("fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }", false, false);
        assert!(ok.is_empty());
        // partial_cmp with graceful handling outside a sort is legal.
        let ok = run(
            "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }",
            false,
            false,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn shared_mut_scopes_by_crate_kind() {
        let src = "static mut C: u64 = 0;\nstruct S { m: Mutex<u64> }\n\
                   fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        let sim = run(src, true, false);
        assert_eq!(sim.len(), 3, "{sim:?}");
        assert!(sim.iter().all(|f| f.rule == "shared-mut"));
        // Outside sim crates only `static mut` is refused.
        let infra = run(src, false, false);
        assert_eq!(infra.len(), 1, "{infra:?}");
        assert_eq!(infra[0].line, 1);
    }

    #[test]
    fn shared_mut_flags_channels_in_sim_crates() {
        let src = "struct S { tx: std::sync::mpsc::Sender<u64> }\n\
                   fn f() -> Receiver<u64> { let (a, b) = mpsc::channel(); b }\n\
                   fn g(s: SyncSender<u64>) { s.send(1); }";
        let sim = run(src, true, false);
        // Sender; Receiver and the mpsc::channel() ctor; SyncSender.
        assert_eq!(sim.len(), 4, "{sim:?}");
        assert!(sim.iter().all(|f| f.rule == "shared-mut"));
        assert!(run(src, false, false).is_empty(), "infra crates may use channels");
        // A bare `channel` identifier (helper fn, local) is not a ctor call.
        let ok = run("fn channel() -> u32 { let channel = 3; channel }", true, false);
        assert!(ok.is_empty(), "{ok:?}");
        // The escape hatch works per line.
        let allowed = run(
            "type Tx<T> = mpsc::Sender<T>; // lint: allow(shared-mut)\n",
            true,
            false,
        );
        assert!(allowed.is_empty(), "{allowed:?}");
    }

    #[test]
    fn panic_path_only_on_audited_files() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n\
                   fn g() { unreachable!(\"no\") }\n\
                   fn h(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }";
        let audited = run(src, false, true);
        assert_eq!(audited.len(), 2, "{audited:?}");
        assert!(audited.iter().all(|f| f.rule == "panic-path"));
        assert!(run(src, false, false).is_empty());
    }

    #[test]
    fn findings_are_line_ordered() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   fn g() { let r = thread_rng(); }";
        let f = run(src, false, false);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }
}
