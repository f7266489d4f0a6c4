//! The batch-serving engine: verified cache, deadlines, and graceful
//! degradation.
//!
//! [`serve_batch`] is the whole service in one function:
//!
//! 1. **Hash + dedup.** Every job spec is content-hashed
//!    ([`JobSpec::hash`]); identical specs within a batch are computed
//!    once and the outcome is shared (safe because every job is a pure
//!    function of its spec).
//! 2. **Shared executor.** Each unique job goes through
//!    [`apres_bench::Executor`], the protocol the sweep harness uses too:
//!    known hashes are served from the persistent [`ResultCache`] after
//!    the payload hash re-verifies on read (a corrupt or truncated entry
//!    is evicted and the job recomputed, so a cache hit can never return
//!    unverified bytes); misses are computed under `catch_unwind`, so a
//!    panicking worker becomes a typed [`SimError::InvariantViolation`]
//!    instead of tearing the batch down; successes are stored.
//! 3. **Sharding.** Unique jobs run on the [`apres_bench::map_parallel`]
//!    worker pool.
//! 4. **Deadline.** Each computation is timed against the injected
//!    [`Clock`]; exceeding the per-job deadline is a typed
//!    [`SimError::JobTimeout`].
//! 5. **Graceful degradation.** Each job runs once: a simulation is a
//!    pure function of its spec, so a failure would recur on any rerun.
//!    The [`BatchReport`] carries N−K good results and K typed failures,
//!    and a failed job is never cached; the service never aborts a batch
//!    because some jobs failed.
//!
//! The response document ([`BatchReport::to_json`]) deliberately contains
//! no timings or cache provenance — only spec hashes, result payloads and
//! typed errors — so cold and warm servings of the same batch, and
//! servings that recover from a corrupt cache entry, are byte-identical.
//! Operational detail lives in [`ServeStats`], reported on stderr by the
//! binary.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use apres_bench::cache::{Executor, JobSpec, ResultCache};
use gpu_common::{Clock, ServiceFaultPlan, SimError, SimResult};
use gpu_sm::RunResult;

/// Service knobs for one batch.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for cache misses.
    pub workers: usize,
    /// Per-job wall deadline in milliseconds (`None` = unbounded; hangs
    /// *inside* a run are still caught by the simulator's own watchdog).
    pub deadline_ms: Option<u64>,
    /// Deterministic service-level fault injection (tests and smoke runs).
    pub fault: ServiceFaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            deadline_ms: None,
            fault: ServiceFaultPlan::none(),
        }
    }
}

/// Operational counters for one served batch (stderr-only — never part of
/// the response document, which must stay byte-identical across cache
/// states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Distinct spec hashes in the batch.
    pub unique_jobs: usize,
    /// Submissions that shared another submission's spec hash.
    pub duplicate_jobs: usize,
    /// Unique jobs served from a verified cache entry.
    pub cache_hits: usize,
    /// Unique jobs computed because no entry existed.
    pub cache_misses: usize,
    /// Cache entries that failed verification and were evicted.
    pub cache_evicted: usize,
    /// Unique jobs that failed.
    pub failed_jobs: usize,
}

/// The outcome of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// `BENCH/POLICY` label of the spec.
    pub label: String,
    /// The spec's content hash (32 hex digits).
    pub spec_hash: String,
    /// The result, or the typed error the job failed with.
    pub outcome: Result<Box<RunResult>, SimError>,
}

/// Everything the service returns for one batch: per-job outcomes in
/// submission order plus operational counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch name (from the request).
    pub name: String,
    /// One report per submitted job, in submission order.
    pub jobs: Vec<JobReport>,
    /// Operational counters (stderr-only; excluded from the response).
    pub stats: ServeStats,
}

impl BatchReport {
    /// Number of jobs that produced a result.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Number of jobs that failed for good.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// The response document. Contains only deterministic data — spec
    /// hashes, result payloads, typed error classes/messages — never
    /// timings or cache provenance, so servings of the same batch are
    /// byte-identical regardless of cache state.
    pub fn to_json(&self) -> gpu_common::json::Json {
        use gpu_common::json::Json;
        let jobs: Vec<Json> = self
            .jobs
            .iter()
            .map(|j| {
                let mut members = vec![
                    ("label".into(), Json::str(j.label.clone())),
                    ("spec_hash".into(), Json::str(j.spec_hash.clone())),
                ];
                match &j.outcome {
                    Ok(result) => {
                        members.push(("status".into(), Json::str("ok")));
                        members.push(("result".into(), gpu_sm::codec::encode(result)));
                    }
                    Err(e) => {
                        members.push(("status".into(), Json::str("failed")));
                        members.push((
                            "error".into(),
                            Json::Obj(vec![
                                ("class".into(), Json::str(e.class())),
                                ("message".into(), Json::str(e.to_string())),
                            ]),
                        ));
                    }
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("jobs".into(), Json::Arr(jobs)),
            ("completed".into(), Json::from_u64(self.completed() as u64)),
            ("failed".into(), Json::from_u64(self.failed() as u64)),
        ])
    }
}

/// Serves one batch: dedup, verified cache, sharded compute with panic
/// isolation, deadline, graceful degradation. See the module docs for the
/// exact semantics of each stage.
pub fn serve_batch(
    batch: &crate::Batch,
    cache: Option<&ResultCache>,
    opts: &ServeOptions,
    clock: &dyn Clock,
) -> BatchReport {
    // Service-level cache faults fire before serving starts: they model an
    // entry that rotted on disk between submissions, targeted by the
    // submission index of the job whose entry rots.
    if let Some(cache) = cache {
        if let Some(i) = opts.fault.corrupt_entry {
            if let Some(spec) = batch.jobs.get(i) {
                if let Err(e) = cache.corrupt_entry(spec) {
                    eprintln!("warning: corrupt-entry fault on job {i} failed: {e}");
                }
            }
        }
        if let Some(i) = opts.fault.truncate_entry {
            if let Some(spec) = batch.jobs.get(i) {
                if let Err(e) = cache.truncate_entry(spec) {
                    eprintln!("warning: truncate-entry fault on job {i} failed: {e}");
                }
            }
        }
    }

    // Dedup identical specs: compute once, share the outcome. `share[s]`
    // maps submission index -> unique-job index.
    let mut unique: Vec<(usize, &JobSpec)> = Vec::new();
    let mut share: Vec<usize> = Vec::with_capacity(batch.jobs.len());
    let mut seen: std::collections::BTreeMap<u128, usize> = std::collections::BTreeMap::new();
    for (submit_idx, spec) in batch.jobs.iter().enumerate() {
        let hash = spec.hash();
        let unique_idx = *seen.entry(hash).or_insert_with(|| {
            unique.push((submit_idx, spec));
            unique.len() - 1
        });
        share.push(unique_idx);
    }

    let executor = Executor::new(cache);
    let outcomes: Vec<Result<Box<RunResult>, SimError>> =
        apres_bench::map_parallel(opts.workers.max(1), unique, |_, (submit_idx, spec)| {
            executor
                .run(submit_idx, Some(spec), || {
                    compute(spec, submit_idx, opts, clock)
                })
                .map(Box::new)
        });

    let jobs: Vec<JobReport> = batch
        .jobs
        .iter()
        .zip(&share)
        .map(|(spec, &unique_idx)| JobReport {
            label: job_label(spec),
            spec_hash: spec.hash_hex(),
            outcome: outcomes[unique_idx].clone(),
        })
        .collect();

    let traffic = executor.summary();
    let stats = ServeStats {
        unique_jobs: outcomes.len(),
        duplicate_jobs: batch.jobs.len() - outcomes.len(),
        cache_hits: traffic.hits,
        cache_misses: traffic.misses,
        cache_evicted: traffic.evicted,
        failed_jobs: outcomes.iter().filter(|o| o.is_err()).count(),
    };
    BatchReport {
        name: batch.name.clone(),
        jobs,
        stats,
    }
}

/// `BENCH/SCHED` or `BENCH/SCHED+PF` label of a job spec — the same
/// format the bench harness uses for its stderr diagnostics.
pub fn job_label(spec: &JobSpec) -> String {
    match spec.pf {
        apres_core::sim::PrefetcherChoice::None => {
            format!("{}/{}", spec.bench.label(), spec.sched.label())
        }
        _ => format!(
            "{}/{}+{}",
            spec.bench.label(),
            spec.sched.label(),
            spec.pf.label()
        ),
    }
}

/// One computation of a unique job: the injected stall and kill faults,
/// then the run, timed against the per-job deadline. A timed-out job fails
/// even if its run succeeded.
fn compute(
    spec: &JobSpec,
    submit_idx: usize,
    opts: &ServeOptions,
    clock: &dyn Clock,
) -> SimResult<RunResult> {
    let started_ms = clock.now_ms();
    if opts.fault.should_stall(submit_idx) {
        // Sleep one millisecond past the deadline, so the job exceeds it.
        clock.sleep_ms(opts.deadline_ms.unwrap_or(0) + 1);
    }
    if opts.fault.should_kill(submit_idx) {
        ServiceFaultPlan::kill_worker_now();
    }
    let outcome = spec.run();
    if let Some(deadline_ms) = opts.deadline_ms {
        if clock.now_ms().saturating_sub(started_ms) > deadline_ms {
            return Err(SimError::JobTimeout {
                spec_hash: spec.hash(),
                deadline_ms,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batch;
    use apres_bench::{Lookup, Scale, APRES, BASELINE};
    use gpu_common::json::Json;
    use gpu_common::VirtualClock;
    use gpu_workloads::Benchmark;

    fn tiny_spec(bench: Benchmark) -> JobSpec {
        JobSpec::new(bench, BASELINE, Scale::Tiny, &Scale::Tiny.config())
    }

    fn broken_spec() -> JobSpec {
        let mut cfg = Scale::Tiny.config();
        cfg.l1.ways = 0; // fails config validation
        JobSpec::new(Benchmark::Hs, BASELINE, Scale::Tiny, &cfg)
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("apres-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).expect("open cache")
    }

    fn drop_cache(cache: &ResultCache) {
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    /// Serves `[HS, KM]` into a fresh cache with `opts` faulting job 0 and
    /// returns job 0's error, after checking that job 1 serialises exactly
    /// as in a clean serving, and that job 0 was never stored: a clean
    /// re-serve misses it, computes it and matches a direct run.
    fn faulted_job_fails_alone_uncached(tag: &str, opts: &ServeOptions) -> SimError {
        let batch = Batch::new(
            "f",
            vec![tiny_spec(Benchmark::Hs), tiny_spec(Benchmark::Km)],
        );
        let clock = VirtualClock::new();
        let clean = serve_batch(&batch, None, &ServeOptions::default(), &clock);
        let cache = tmp_cache(tag);
        let faulted = quiet_panics(|| serve_batch(&batch, Some(&cache), opts, &clock));
        assert_eq!(faulted.failed(), 1);
        assert_eq!(faulted.stats.failed_jobs, 1);
        let job = |report: &BatchReport, i: usize| {
            report
                .to_json()
                .get("jobs")
                .and_then(Json::as_arr)
                .map(|jobs| jobs[i].to_compact())
        };
        assert_eq!(job(&faulted, 1), job(&clean, 1));
        assert!(matches!(cache.lookup(&batch.jobs[0]), Lookup::Miss));
        let reserved = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(
            (reserved.stats.cache_hits, reserved.stats.cache_misses),
            (1, 1)
        );
        let direct = batch.jobs[0].run().expect("direct run");
        assert_eq!(reserved.jobs[0].outcome, Ok(Box::new(direct)));
        assert_eq!(
            reserved.to_json().to_compact(),
            clean.to_json().to_compact()
        );
        drop_cache(&cache);
        faulted.jobs[0]
            .outcome
            .clone()
            .expect_err("the faulted job fails")
    }

    #[test]
    fn killed_job_fails_typed_and_is_never_cached() {
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().killing_job(0),
            ..ServeOptions::default()
        };
        let err = faulted_job_fails_alone_uncached("kill", &opts);
        assert_eq!(err.class(), "invariant-violation");
        assert!(err.to_string().contains("job 0 panicked"), "{err}");
    }

    #[test]
    fn stalled_job_times_out_and_is_never_cached() {
        let opts = ServeOptions {
            deadline_ms: Some(500),
            fault: ServiceFaultPlan::none().stalling_job(0),
            ..ServeOptions::default()
        };
        let err = faulted_job_fails_alone_uncached("stall", &opts);
        assert_eq!(err.class(), "job-timeout");
        assert!(err.to_string().contains("500 ms"), "{err}");
    }

    #[test]
    fn corrupted_cache_entry_is_evicted_and_recomputed() {
        let cache = tmp_cache("corrupt");
        let spec = tiny_spec(Benchmark::Hs);
        let batch = Batch::new("t", vec![spec]);
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(cold.stats.cache_misses, 1);
        // Corrupt the stored entry via the service fault plan; the next
        // serving must detect it, evict, recompute, and return bytes
        // identical to the cold run.
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().corrupting_entry(0),
            ..ServeOptions::default()
        };
        let rotten = serve_batch(&batch, Some(&cache), &opts, &clock);
        assert_eq!(rotten.stats.cache_evicted, 1);
        assert_eq!(rotten.stats.cache_hits, 0);
        assert_eq!(rotten.to_json().to_compact(), cold.to_json().to_compact());
        // The recomputed entry is stored again: a clean re-serve hits.
        let warm = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.to_json().to_compact(), cold.to_json().to_compact());
        drop_cache(&cache);
    }

    #[test]
    fn truncated_cache_entry_is_evicted_and_recomputed() {
        let cache = tmp_cache("truncate");
        let spec = tiny_spec(Benchmark::Km);
        let batch = Batch::new("t", vec![spec]);
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        let opts = ServeOptions {
            fault: ServiceFaultPlan::none().truncating_entry(0),
            ..ServeOptions::default()
        };
        let rotten = serve_batch(&batch, Some(&cache), &opts, &clock);
        assert_eq!(rotten.stats.cache_evicted, 1);
        assert_eq!(rotten.to_json().to_compact(), cold.to_json().to_compact());
        drop_cache(&cache);
    }

    #[test]
    fn batch_degrades_gracefully() {
        // K failed jobs yield N−K good results plus typed failures.
        let batch = Batch::new(
            "mixed",
            vec![
                tiny_spec(Benchmark::Hs),
                broken_spec(),
                tiny_spec(Benchmark::Km),
            ],
        );
        let report = serve_batch(
            &batch,
            None,
            &ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
            &VirtualClock::new(),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(report.jobs[0].outcome.is_ok());
        assert!(report.jobs[1].outcome.is_err());
        assert!(report.jobs[2].outcome.is_ok());
        let doc = report.to_json().to_compact();
        assert!(doc.contains(r#""completed":2"#), "{doc}");
        assert!(doc.contains(r#""failed":1"#), "{doc}");
        assert!(doc.contains("config-validation"), "{doc}");
    }

    #[test]
    fn duplicate_specs_are_computed_once_and_shared() {
        let spec = tiny_spec(Benchmark::Hs);
        let batch = Batch::new("dup", vec![spec.clone(), spec]);
        let cache = tmp_cache("dedup");
        let report = serve_batch(
            &batch,
            Some(&cache),
            &ServeOptions::default(),
            &VirtualClock::new(),
        );
        assert_eq!(report.stats.unique_jobs, 1);
        assert_eq!(report.stats.duplicate_jobs, 1);
        // One miss total: the duplicate shared the computed outcome.
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.jobs[0].outcome, report.jobs[1].outcome);
        drop_cache(&cache);
    }

    #[test]
    fn warm_serving_is_hits_only_and_byte_identical() {
        let cache = tmp_cache("warm");
        let batch = Batch::new(
            "w",
            vec![
                tiny_spec(Benchmark::Hs),
                JobSpec::new(Benchmark::Km, APRES, Scale::Tiny, &Scale::Tiny.config()),
            ],
        );
        let clock = VirtualClock::new();
        let cold = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(cold.stats.cache_misses, 2);
        let warm = serve_batch(&batch, Some(&cache), &ServeOptions::default(), &clock);
        assert_eq!(warm.stats.cache_hits, 2);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.to_json().to_compact(), cold.to_json().to_compact());
        drop_cache(&cache);
    }
}
