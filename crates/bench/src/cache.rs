//! Persistent, verified result cache keyed by job-spec content hash.
//!
//! Every simulation in this workspace is a **pure function** of its job
//! spec — (benchmark, scheduler, prefetcher, scale, iterations, seed,
//! full GPU configuration). The deterministic harness guarantees
//! byte-identical results for identical specs, which makes cached results
//! provably safe to serve in place of recomputation. This module supplies
//! the two halves of that exchange:
//!
//! * [`JobSpec`] — the canonical description of one simulation job, with a
//!   deterministic 128-bit content hash ([`JobSpec::hash`]) derived from
//!   its canonical string (which embeds the *entire* `GpuConfig`, so any
//!   configuration change changes the key);
//! * [`ResultCache`] — a crash-safe on-disk store of
//!   [`RunResult`]s, one JSON file per spec hash;
//! * [`Executor`] — the one job protocol on top of both (verified lookup,
//!   panic-isolated compute, store, counted), which the sweep harness and
//!   the batch service each run every job through.
//!
//! Integrity is non-negotiable: a cache hit **never returns unverified
//! bytes**. Every entry stores its payload as an exact string alongside a
//! content hash of that string; [`ResultCache::lookup`] re-hashes the
//! payload on every read and decodes it through the strict
//! [`gpu_sm::codec`]. A truncated file, a flipped byte, a stale layout, or
//! an entry recorded for a different spec all classify as
//! [`Lookup::Corrupt`]: the entry is evicted (best-effort unlink) and the
//! caller recomputes. Writes go through a temp file in the same directory,
//! unique to the call, followed by an atomic rename, so neither a crashed
//! writer nor two concurrent writers of one spec can leave a half-written
//! entry under a live entry name.

#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_types,
    reason = "the temp-file sequence and the ops counters are atomics shared by workers; no result depends on their update order"
)]

use crate::{Combo, Scale};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice, Simulation};
use gpu_common::config::GpuConfig;
use gpu_common::hash::{content_hash_str, hash_hex};
use gpu_common::json::Json;
use gpu_common::{SimError, SimResult};
use gpu_sm::RunResult;
use gpu_workloads::Benchmark;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Version tag baked into every canonical spec string and cache entry.
/// Bump it when the spec canonicalisation, the result codec, or the entry
/// layout changes — old entries then miss (and are evicted) instead of
/// being misread.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Schedulers a job spec can name (label form, case-insensitive).
const SCHEDULERS: [SchedulerChoice; 7] = [
    SchedulerChoice::Lrr,
    SchedulerChoice::Gto,
    SchedulerChoice::TwoLevel,
    SchedulerChoice::Ccws,
    SchedulerChoice::Mascar,
    SchedulerChoice::Pa,
    SchedulerChoice::Laws,
];

/// Prefetchers a job spec can name (label form, case-insensitive).
const PREFETCHERS: [PrefetcherChoice; 4] = [
    PrefetcherChoice::None,
    PrefetcherChoice::Str,
    PrefetcherChoice::Sld,
    PrefetcherChoice::Sap,
];

/// The canonical description of one simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload.
    pub bench: Benchmark,
    /// Scheduler policy.
    pub sched: SchedulerChoice,
    /// Prefetcher engine.
    pub pf: PrefetcherChoice,
    /// Evaluation scale (names the config/iteration defaults).
    pub scale: Scale,
    /// Kernel loop iterations (defaults to the scale's value).
    pub iterations: u64,
    /// Workload seed override (`None` keeps the kernel's built-in seed).
    pub seed: Option<u64>,
    /// Full GPU configuration — hashed in its entirety.
    pub cfg: GpuConfig,
}

impl JobSpec {
    /// Builds the spec for one harness data point at a scale's default
    /// iteration count.
    pub fn new(bench: Benchmark, combo: Combo, scale: Scale, cfg: &GpuConfig) -> Self {
        JobSpec {
            bench,
            sched: combo.sched,
            pf: combo.pf,
            scale,
            iterations: scale.iterations(bench),
            seed: None,
            cfg: cfg.clone(),
        }
    }

    /// Builder: sets the workload seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The canonical string the content hash is computed over. Embeds the
    /// cache format version and the complete debug rendering of the GPU
    /// configuration, so *any* semantic change to the job changes the key
    /// (a false miss costs one recomputation; a false hit would be a
    /// correctness bug).
    pub fn canonical(&self) -> String {
        format!(
            "v{};bench={};sched={};pf={};scale={};iters={};seed={:?};cfg={:?}",
            CACHE_FORMAT_VERSION,
            self.bench.label(),
            self.sched.label(),
            self.pf.label(),
            self.scale.label(),
            self.iterations,
            self.seed,
            self.cfg,
        )
    }

    /// 128-bit content hash of the canonical string.
    pub fn hash(&self) -> u128 {
        content_hash_str(&self.canonical())
    }

    /// The hash as 32 hex digits (cache file name / wire form).
    pub fn hash_hex(&self) -> String {
        hash_hex(self.hash())
    }

    /// Runs the simulation this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates any typed [`SimError`] from configuration validation,
    /// kernel validation, or the run itself.
    pub fn run(&self) -> SimResult<RunResult> {
        let mut sim = Simulation::new(self.bench.kernel_scaled(self.iterations))
            .config(self.cfg.clone())
            .scheduler(self.sched)
            .prefetcher(self.pf);
        if let Some(seed) = self.seed {
            sim = sim.workload_seed(seed);
        }
        sim.run()
    }

    /// Serialises the spec for batch request/response documents. The GPU
    /// configuration is represented by its scale name (specs on the wire
    /// always use scale-default configs; harness-internal specs may carry
    /// custom configs, which only affect the hash).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("bench".into(), Json::str(self.bench.label())),
            ("sched".into(), Json::str(self.sched.label())),
            ("pf".into(), Json::str(self.pf.label())),
            ("scale".into(), Json::str(self.scale.label())),
            ("iterations".into(), Json::from_u64(self.iterations)),
        ];
        if let Some(seed) = self.seed {
            members.push(("seed".into(), Json::from_u64(seed)));
        }
        Json::Obj(members)
    }

    /// Parses a spec from a batch request document.
    ///
    /// Required members: `bench`, `sched`, `pf`. Optional: `scale`
    /// (default `"tiny"`), `iterations` (default: the scale's value for
    /// the benchmark), `seed`. The GPU configuration is the scale default.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Parse`] naming the offending member.
    pub fn from_json(v: &Json) -> SimResult<JobSpec> {
        let parse_err = |msg: String| SimError::Parse {
            context: "job spec",
            message: msg,
        };
        let label = |key: &str| -> SimResult<&str> {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| parse_err(format!("missing or non-string member {key:?}")))
        };
        let bench_label = label("bench")?;
        let bench = Benchmark::from_label(bench_label)
            .ok_or_else(|| parse_err(format!("unknown benchmark {bench_label:?}")))?;
        let sched_label = label("sched")?;
        let sched = SCHEDULERS
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(sched_label))
            .ok_or_else(|| parse_err(format!("unknown scheduler {sched_label:?}")))?;
        let pf_label = label("pf")?;
        let pf = PREFETCHERS
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(pf_label))
            .ok_or_else(|| parse_err(format!("unknown prefetcher {pf_label:?}")))?;
        let scale = match v.get("scale") {
            None => Scale::Tiny,
            Some(s) => {
                let name = s
                    .as_str()
                    .ok_or_else(|| parse_err("non-string member \"scale\"".into()))?;
                Scale::from_label(name)
                    .ok_or_else(|| parse_err(format!("unknown scale {name:?}")))?
            }
        };
        let iterations = match v.get("iterations") {
            None => scale.iterations(bench),
            Some(n) => n
                .as_u64()
                .ok_or_else(|| parse_err("non-integer member \"iterations\"".into()))?,
        };
        let seed = match v.get("seed") {
            None => None,
            Some(n) => Some(
                n.as_u64()
                    .ok_or_else(|| parse_err("non-integer member \"seed\"".into()))?,
            ),
        };
        Ok(JobSpec {
            bench,
            sched,
            pf,
            scale,
            iterations,
            seed,
            cfg: scale.config(),
        })
    }
}

/// Outcome of a verified cache read.
#[derive(Debug)]
pub enum Lookup {
    /// The entry existed, verified, and decoded — safe to serve.
    Hit(Box<RunResult>),
    /// No entry for this spec.
    Miss,
    /// The entry failed verification and was evicted; the caller must
    /// recompute. Carries the verifier's finding.
    Corrupt {
        /// What the verifier observed.
        detail: String,
    },
}

/// A crash-safe on-disk result cache: one verified JSON entry per spec.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a spec maps to.
    pub fn entry_path(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.hash_hex()))
    }

    /// Verified read: returns the cached result only if every integrity
    /// check passes; otherwise evicts the entry and reports why. This is
    /// the **only** read path — there is deliberately no way to get cached
    /// bytes without re-verifying them.
    pub fn lookup(&self, spec: &JobSpec) -> Lookup {
        let path = self.entry_path(spec);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return self.evict(&path, format!("unreadable entry: {e}")),
        };
        let doc = match gpu_common::json::parse(&text) {
            Ok(d) => d,
            Err(e) => return self.evict(&path, format!("entry is not valid JSON: {e}")),
        };
        if doc.get("version").and_then(Json::as_u64) != Some(u64::from(CACHE_FORMAT_VERSION)) {
            return self.evict(&path, "entry format version mismatch".into());
        }
        if doc.get("spec_hash").and_then(Json::as_str) != Some(spec.hash_hex().as_str())
            || doc.get("canonical").and_then(Json::as_str) != Some(spec.canonical().as_str())
        {
            return self.evict(&path, "entry records a different job spec".into());
        }
        let Some(payload) = doc.get("payload").and_then(Json::as_str) else {
            return self.evict(&path, "entry has no payload".into());
        };
        let stored_hash = doc.get("payload_hash").and_then(Json::as_str);
        let actual_hash = hash_hex(content_hash_str(payload));
        if stored_hash != Some(actual_hash.as_str()) {
            return self.evict(
                &path,
                format!(
                    "payload hash mismatch (stored {}, actual {})",
                    stored_hash.unwrap_or("<missing>"),
                    actual_hash
                ),
            );
        }
        let result = match gpu_common::json::parse(payload).map_err(|e| e.to_string()) {
            Ok(tree) => match gpu_sm::codec::decode(&tree) {
                Ok(r) => r,
                Err(e) => return self.evict(&path, format!("payload does not decode: {e}")),
            },
            Err(e) => return self.evict(&path, format!("payload is not valid JSON: {e}")),
        };
        Lookup::Hit(Box::new(result))
    }

    /// Persists a result for a spec: a temp file in the cache directory,
    /// named uniquely per call (process id plus a process-wide counter),
    /// then an atomic rename over the entry name. Concurrent writers of the
    /// same spec, in this process or another, therefore never share a temp
    /// file; they write identical bytes (determinism), so last-rename-wins
    /// is harmless.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or rename (the temp file is
    /// cleaned up best-effort on rename failure).
    pub fn store(&self, spec: &JobSpec, result: &RunResult) -> std::io::Result<()> {
        let payload = gpu_sm::codec::encode(result).to_compact();
        let entry = Json::Obj(vec![
            ("version".into(), Json::from_u64(u64::from(CACHE_FORMAT_VERSION))),
            ("spec_hash".into(), Json::str(spec.hash_hex())),
            ("canonical".into(), Json::str(spec.canonical())),
            ("spec".into(), spec.to_json()),
            ("payload_hash".into(), Json::str(hash_hex(content_hash_str(&payload)))),
            ("payload".into(), Json::str(payload)),
        ]);
        let mut text = entry.to_pretty();
        text.push('\n');
        let final_path = self.entry_path(spec);
        static STORES: AtomicU64 = AtomicU64::new(0);
        let tmp_path = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            spec.hash_hex(),
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp_path, &text)?;
        match std::fs::rename(&tmp_path, &final_path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Deterministic fault injection: flips a byte inside the stored
    /// payload of a spec's entry. Returns `true` if an entry existed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the entry exists but cannot be rewritten.
    pub fn corrupt_entry(&self, spec: &JobSpec) -> std::io::Result<bool> {
        let path = self.entry_path(spec);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        // Flip a byte in the back half (inside the payload string), keeping
        // the file valid-length so only hash verification can catch it.
        let idx = bytes.len().saturating_sub(bytes.len() / 4).saturating_sub(1);
        if let Some(b) = bytes.get_mut(idx) {
            *b = if *b == b'0' { b'1' } else { b'0' };
        }
        std::fs::write(&path, bytes)?;
        Ok(true)
    }

    /// Deterministic fault injection: truncates a spec's entry file to its
    /// first half. Returns `true` if an entry existed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the entry exists but cannot be rewritten.
    pub fn truncate_entry(&self, spec: &JobSpec) -> std::io::Result<bool> {
        let path = self.entry_path(spec);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        std::fs::write(&path, &bytes[..bytes.len() / 2])?;
        Ok(true)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        e.path()
                            .extension()
                            .is_some_and(|ext| ext == "json")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes the entry and records the reason.
    fn evict(&self, path: &Path, detail: String) -> Lookup {
        let _ = std::fs::remove_file(path);
        Lookup::Corrupt { detail }
    }
}

/// Cache traffic counted by an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSummary {
    /// Jobs served from a verified cache entry without recomputation.
    pub hits: usize,
    /// Jobs computed because no entry existed.
    pub misses: usize,
    /// Entries that failed verification and were evicted (then recomputed).
    pub evicted: usize,
    /// Results that computed fine but could not be persisted.
    pub store_failures: usize,
}

/// The one job protocol: verified lookup, panic-isolated compute, store,
/// with the cache traffic counted. [`crate::SimSweep::run`] and
/// `apres-serve`'s `serve_batch` run every job through it, from any number
/// of worker threads.
#[derive(Debug, Default)]
pub struct Executor<'a> {
    cache: Option<&'a ResultCache>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evicted: AtomicUsize,
    store_failures: AtomicUsize,
}

impl<'a> Executor<'a> {
    /// An executor over `cache` (`None`: every job is computed).
    pub fn new(cache: Option<&'a ResultCache>) -> Self {
        Executor {
            cache,
            ..Executor::default()
        }
    }

    /// Serves job `index` (its submission index, named in panic reports).
    ///
    /// With a cache and a `spec`, a verified entry is returned without
    /// computing, and a corrupt one is evicted with a warning on stderr.
    /// Otherwise `compute` runs under `catch_unwind`: a panic becomes a
    /// typed [`SimError::InvariantViolation`] naming the job and the panic
    /// payload, and the worker thread survives. A successful result is then
    /// stored (a failed store is a warning, not an error); a failed job is
    /// never stored.
    pub fn run(
        &self,
        index: usize,
        spec: Option<&JobSpec>,
        compute: impl FnOnce() -> SimResult<RunResult>,
    ) -> SimResult<RunResult> {
        let cached = self.cache.zip(spec);
        if let Some((cache, spec)) = cached {
            match cache.lookup(spec) {
                Lookup::Hit(result) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(*result);
                }
                Lookup::Miss => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                Lookup::Corrupt { detail } => {
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "warning: evicted corrupt cache entry for job {}: {detail}",
                        spec.hash_hex()
                    );
                }
            }
        }
        let outcome = catch_panic(index, compute);
        if let (Some((cache, spec)), Ok(result)) = (cached, &outcome) {
            if let Err(e) = cache.store(spec, result) {
                self.store_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: could not store cache entry for job {}: {e}",
                    spec.hash_hex()
                );
            }
        }
        outcome
    }

    /// The cache traffic so far.
    pub fn summary(&self) -> CacheSummary {
        CacheSummary {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
        }
    }
}

/// Runs `f` under `catch_unwind`; a panic becomes a typed invariant
/// violation naming job `index` and the panic payload (the two payload
/// shapes the standard panic machinery produces, else a placeholder).
fn catch_panic(index: usize, f: impl FnOnce() -> SimResult<RunResult>) -> SimResult<RunResult> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic payload>");
        Err(SimError::invariant(
            "worker-panic",
            format!("job {index} panicked: {message}"),
            0,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{APRES, BASELINE};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "apres-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        JobSpec::new(
            Benchmark::Hs,
            BASELINE,
            Scale::Tiny,
            &Scale::Tiny.config(),
        )
    }

    #[test]
    fn spec_hash_is_deterministic_and_sensitive() {
        let a = tiny_spec();
        assert_eq!(a.hash(), tiny_spec().hash());
        let mut b = tiny_spec();
        b.iterations += 1;
        assert_ne!(a.hash(), b.hash());
        let c = JobSpec::new(Benchmark::Hs, APRES, Scale::Tiny, &Scale::Tiny.config());
        assert_ne!(a.hash(), c.hash());
        let mut d = tiny_spec();
        d.cfg.l1.ways *= 2;
        assert_ne!(a.hash(), d.hash(), "config must be part of the key");
        assert_ne!(a.hash(), tiny_spec().with_seed(1).hash());
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = JobSpec::new(Benchmark::Km, APRES, Scale::Tiny, &Scale::Tiny.config())
            .with_seed(99);
        let back = JobSpec::from_json(&spec.to_json()).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.hash(), spec.hash());
    }

    #[test]
    fn spec_json_defaults_and_errors() {
        let v = gpu_common::json::parse(r#"{"bench":"km","sched":"laws","pf":"sap"}"#).unwrap();
        let spec = JobSpec::from_json(&v).expect("defaults apply");
        assert_eq!(spec.scale, Scale::Tiny);
        assert_eq!(spec.iterations, Scale::Tiny.iterations(Benchmark::Km));
        assert_eq!(spec.seed, None);

        let bad = gpu_common::json::parse(r#"{"bench":"nope","sched":"LRR","pf":"none"}"#).unwrap();
        let err = JobSpec::from_json(&bad).expect_err("unknown benchmark");
        assert_eq!(err.class(), "parse");
        assert!(err.to_string().contains("nope"), "{err}");

        let no_sched = gpu_common::json::parse(r#"{"bench":"KM","pf":"none"}"#).unwrap();
        assert!(JobSpec::from_json(&no_sched).is_err());
    }

    #[test]
    fn store_then_lookup_round_trips_exactly() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).expect("open");
        let spec = tiny_spec();
        assert!(matches!(cache.lookup(&spec), Lookup::Miss));
        let result = spec.run().expect("tiny run");
        cache.store(&spec, &result).expect("store");
        assert_eq!(cache.len(), 1);
        match cache.lookup(&spec) {
            Lookup::Hit(cached) => assert_eq!(*cached, result),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entry_is_evicted_not_served() {
        let cache = ResultCache::open(tmp_dir("corrupt")).expect("open");
        let spec = tiny_spec();
        let result = spec.run().expect("tiny run");
        cache.store(&spec, &result).expect("store");
        assert!(cache.corrupt_entry(&spec).expect("corrupt"));
        match cache.lookup(&spec) {
            Lookup::Corrupt { detail } => {
                assert!(detail.contains("hash mismatch") || detail.contains("decode"), "{detail}");
            }
            other => panic!("corrupted entry must not be served: {other:?}"),
        }
        // Evicted: the entry is gone and the next lookup is a clean miss.
        assert!(matches!(cache.lookup(&spec), Lookup::Miss));
        assert!(cache.is_empty());
        // Recompute and store again: serves verified bytes identical to the
        // original result.
        cache.store(&spec, &result).expect("re-store");
        match cache.lookup(&spec) {
            Lookup::Hit(cached) => assert_eq!(*cached, result),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_evicted_not_served() {
        let cache = ResultCache::open(tmp_dir("truncate")).expect("open");
        let spec = tiny_spec();
        let result = spec.run().expect("tiny run");
        cache.store(&spec, &result).expect("store");
        assert!(cache.truncate_entry(&spec).expect("truncate"));
        assert!(matches!(cache.lookup(&spec), Lookup::Corrupt { .. }));
        assert!(matches!(cache.lookup(&spec), Lookup::Miss));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_for_different_spec_never_served() {
        let cache = ResultCache::open(tmp_dir("wrongspec")).expect("open");
        let spec = tiny_spec();
        let result = spec.run().expect("tiny run");
        cache.store(&spec, &result).expect("store");
        // Manually plant the entry under another spec's name (models a
        // renamed/aliased file or a hash collision).
        let mut other = tiny_spec();
        other.iterations += 1;
        std::fs::copy(cache.entry_path(&spec), cache.entry_path(&other)).expect("copy");
        assert!(matches!(cache.lookup(&other), Lookup::Corrupt { .. }));
        // The original entry is untouched and still verifies.
        assert!(matches!(cache.lookup(&spec), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_faults_report_absent_entries() {
        let cache = ResultCache::open(tmp_dir("absent")).expect("open");
        let spec = tiny_spec();
        assert!(!cache.corrupt_entry(&spec).expect("no entry"));
        assert!(!cache.truncate_entry(&spec).expect("no entry"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_of_one_spec_never_collide() {
        // Two threads of one process store the same spec while a third
        // reads it: every store must land, and the reader must only ever
        // see a whole entry or none (DESIGN.md §11, cache invariant 3).
        let cache = ResultCache::open(tmp_dir("race")).expect("open");
        let spec = tiny_spec();
        let result = spec.run().expect("tiny run");
        let writing = AtomicUsize::new(2);
        let arrived = AtomicUsize::new(0);
        let (stores, corrupt) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let ok = (1..=200)
                            .filter(|round| {
                                // Both writers start each round's store together.
                                arrived.fetch_add(1, Ordering::SeqCst);
                                while arrived.load(Ordering::SeqCst) < 2 * round {
                                    std::hint::spin_loop();
                                }
                                cache.store(&spec, &result).is_ok()
                            })
                            .count();
                        writing.fetch_sub(1, Ordering::SeqCst);
                        ok
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                let mut corrupt = Vec::new();
                while writing.load(Ordering::SeqCst) > 0 {
                    if let Lookup::Corrupt { detail } = cache.lookup(&spec) {
                        corrupt.push(detail);
                    }
                    // Leave the CPUs to the writers between reads.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                corrupt
            });
            let stores: usize = writers.into_iter().map(|w| w.join().expect("writer")).sum();
            (stores, reader.join().expect("reader"))
        });
        assert_eq!(stores, 400, "every store must succeed");
        assert!(
            corrupt.is_empty(),
            "reader saw half-written entries: {corrupt:?}"
        );
        assert!(matches!(cache.lookup(&spec), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn executor_serves_hits_and_stores_only_successes() {
        let cache = ResultCache::open(tmp_dir("executor")).expect("open");
        let exec = Executor::new(Some(&cache));
        let spec = tiny_spec();
        let cold = exec.run(0, Some(&spec), || spec.run()).expect("computed");
        let warm = exec
            .run(0, Some(&spec), || panic!("a hit never computes"))
            .expect("served");
        assert_eq!(warm, cold);
        let mut other = tiny_spec();
        other.iterations += 1;
        let err = exec
            .run(1, Some(&other), || Err(SimError::config("l1.ways", "zero")))
            .expect_err("failure is reported");
        assert_eq!(err.class(), "config-validation");
        assert!(
            matches!(cache.lookup(&other), Lookup::Miss),
            "failures are never stored"
        );
        let summary = exec.summary();
        assert_eq!((summary.hits, summary.misses, summary.evicted), (1, 2, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn panic_payload_and_index_are_reported() {
        let err = Executor::new(None)
            .run(7, None, || std::panic::panic_any("kaboom".to_string()))
            .expect_err("panic must become an error");
        assert_eq!(err.class(), "invariant-violation");
        let text = err.to_string();
        assert!(text.contains("job 7"), "{text}");
        assert!(text.contains("kaboom"), "{text}");
    }
}
