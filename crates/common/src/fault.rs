//! Deterministic service-level fault injection, and the inert remnants of
//! the simulator's former in-run injection.
//!
//! [`ServiceFaultPlan`] injects the failures a batch-service process can
//! meet: a worker killed mid-job, a job stalled past its deadline, and a
//! corrupted or truncated cache entry.
//!
//! The simulator itself injects nothing: a deterministic cycle model cannot
//! drop a response or lose a request, so its watchdog, conservation ledger
//! and typed errors guard against simulator bugs instead. [`FaultCounters`]
//! and [`FaultState`] remain only because the benchmark's traced loop
//! still names them; both are always zero or cannot be built.

/// Counters of the simulator's former in-run fault injection. Always zero:
/// the type stays only because the benchmark's traced loop and the result
/// codec still name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// DRAM/L2 responses dropped (always zero).
    pub dropped_responses: u64,
    /// Responses delayed (always zero).
    pub delayed_responses: u64,
    /// NoC requests dropped (always zero).
    pub dropped_requests: u64,
    /// MSHR allocations refused by an exhaustion burst (always zero).
    pub mshr_refusals: u64,
    /// SAP predictions corrupted (always zero).
    pub corrupted_predictions: u64,
}

impl FaultCounters {
    /// Accumulates another component's counters.
    pub fn add(&mut self, other: &FaultCounters) {
        self.dropped_responses += other.dropped_responses;
        self.delayed_responses += other.delayed_responses;
        self.dropped_requests += other.dropped_requests;
        self.mshr_refusals += other.mshr_refusals;
        self.corrupted_predictions += other.corrupted_predictions;
    }
}

/// A component's former in-run fault state. Uninhabited, so no value of it
/// exists and nothing that takes one can be called: it stays only because
/// the benchmark's traced prefetcher forwards it through the `Prefetcher`
/// trait.
#[derive(Debug, Clone, Copy)]
pub enum FaultState {}

/// Service-level fault classes of the batch-service layer
/// (`apres-serve`): killing a worker mid-job, stalling a job past its
/// deadline, and corrupting or truncating a persisted cache entry. The
/// plan is pure data and every fault is a deterministic function of it —
/// targeted by job *submission index*, so the same plan injects the same
/// faults at any worker count. Each degradation path of the service is exercised in
/// tests and in `scripts/serve_smoke.sh` through this plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceFaultPlan {
    /// Panic the worker running this job index; the job fails with a
    /// typed `InvariantViolation`.
    pub kill_job: Option<usize>,
    /// Stall this job index past its deadline (the service advances its
    /// clock by the job's full deadline plus one); the job fails with a
    /// typed `JobTimeout`.
    pub stall_job: Option<usize>,
    /// Flip bytes in this job index's persisted cache entry before the
    /// batch runs (the verified read path must evict and recompute).
    pub corrupt_entry: Option<usize>,
    /// Truncate this job index's persisted cache entry before the batch
    /// runs (the read path must treat it as corrupt, not serve a prefix).
    pub truncate_entry: Option<usize>,
}

/// Panic payload used by [`ServiceFaultPlan::kill_worker_now`]; the service
/// layer's `catch_unwind` recognises any string payload, this one included.
pub const WORKER_KILL_PAYLOAD: &str = "injected fault: worker killed mid-job";

impl ServiceFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ServiceFaultPlan::default()
    }

    /// Builder: kill the worker running job `index`.
    pub fn killing_job(mut self, index: usize) -> Self {
        self.kill_job = Some(index);
        self
    }

    /// Builder: stall job `index` past its deadline.
    pub fn stalling_job(mut self, index: usize) -> Self {
        self.stall_job = Some(index);
        self
    }

    /// Builder: corrupt job `index`'s cache entry before serving.
    pub fn corrupting_entry(mut self, index: usize) -> Self {
        self.corrupt_entry = Some(index);
        self
    }

    /// Builder: truncate job `index`'s cache entry before serving.
    pub fn truncating_entry(mut self, index: usize) -> Self {
        self.truncate_entry = Some(index);
        self
    }

    /// Should job `index` be killed?
    pub fn should_kill(&self, index: usize) -> bool {
        self.kill_job == Some(index)
    }

    /// Should job `index` be stalled?
    pub fn should_stall(&self, index: usize) -> bool {
        self.stall_job == Some(index)
    }

    /// Kills the current worker with a recognisable panic payload. The
    /// service's panic isolation converts this into a typed
    /// `SimError::InvariantViolation` for the job.
    pub fn kill_worker_now() -> ! {
        std::panic::panic_any(WORKER_KILL_PAYLOAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_plan_targets_one_job_each() {
        let plan = ServiceFaultPlan::none().killing_job(3).stalling_job(5);
        assert!(plan.should_kill(3));
        assert!(!plan.should_kill(4));
        assert!(!plan.should_kill(5));
        assert!(plan.should_stall(5));
        assert!(!plan.should_stall(3));
        assert_eq!(ServiceFaultPlan::none(), ServiceFaultPlan::default());
    }

    #[test]
    fn kill_worker_panics_with_recognisable_payload() {
        let caught = std::panic::catch_unwind(|| ServiceFaultPlan::kill_worker_now())
            .expect_err("must panic");
        let msg = caught.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some(WORKER_KILL_PAYLOAD));
    }
}
