//! Deterministic fault-injection harness.
//!
//! A [`FaultPlan`] describes a set of faults to inject into one simulation
//! run: dropped or delayed DRAM responses, dropped interconnect requests,
//! bursts of artificial MSHR exhaustion, and corrupted SAP prefetch
//! predictions. The plan is pure data; each component that can fault derives
//! a [`FaultState`] from it (plan + a component-specific salt) so that two
//! runs with the same plan inject byte-for-byte the same faults — faults are
//! part of the reproducible experiment, not noise.
//!
//! The harness exists to *prove* resilience: property tests drive random
//! plans through the full simulator and assert that every run either
//! completes, returns a typed [`crate::error::SimError`], or trips the
//! watchdog — never a panic, never an unbounded hang. The companion
//! [`fuzz_config`] helper perturbs configuration geometry the same way for
//! validation-path coverage.

use crate::config::GpuConfig;
use crate::rng::Xoshiro256;
use crate::{Addr, Cycle};

/// Everything that can go wrong on purpose in one run.
///
/// All probabilities are per-opportunity (per response, per request, per
/// prediction) in `[0, 1]`. The default plan is benign: no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every injection decision derives.
    pub seed: u64,
    /// Probability that a DRAM/L2 response toward an SM is silently dropped
    /// (models a lost NoC flit; the waiting warp never wakes — the
    /// watchdog's job).
    pub drop_dram_response: f64,
    /// Probability that a response is delayed by [`FaultPlan::delay_cycles`]
    /// instead of delivered on time (graceful degradation expected).
    pub delay_dram_response: f64,
    /// Extra latency applied to delayed responses.
    pub delay_cycles: Cycle,
    /// Probability that an SM→L2 request vanishes in the interconnect.
    pub drop_noc_request: f64,
    /// Periodic bursts during which every L1 MSHR allocation is rejected:
    /// `(period, duration)` means cycles `[k·period, k·period + duration)`
    /// refuse allocations. Models transient resource exhaustion; the LSU
    /// retry path must absorb it.
    pub mshr_exhaust: Option<(Cycle, Cycle)>,
    /// Probability that a SAP prefetch prediction is corrupted (the
    /// predicted address is perturbed before issue). Wrong prefetches must
    /// only cost performance, never correctness.
    pub corrupt_sap_prediction: f64,
    /// Hard cap on injected faults across one component (`u64::MAX` = no
    /// cap). Lets tests build "drop exactly the first N responses" plans.
    pub max_faults: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_dram_response: 0.0,
            delay_dram_response: 0.0,
            delay_cycles: 0,
            drop_noc_request: 0.0,
            mshr_exhaust: None,
            corrupt_sap_prediction: 0.0,
            max_faults: u64::MAX,
        }
    }

    /// `true` when the plan cannot inject any fault.
    pub fn is_benign(&self) -> bool {
        self.drop_dram_response == 0.0
            && self.delay_dram_response == 0.0
            && self.drop_noc_request == 0.0
            && self.mshr_exhaust.is_none()
            && self.corrupt_sap_prediction == 0.0
    }

    /// Starts an empty plan with a seed (builder entry point).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the DRAM-response drop probability.
    pub fn dropping_dram_responses(mut self, p: f64) -> Self {
        self.drop_dram_response = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the response-delay fault: probability and extra cycles.
    pub fn delaying_dram_responses(mut self, p: f64, extra: Cycle) -> Self {
        self.delay_dram_response = p.clamp(0.0, 1.0);
        self.delay_cycles = extra;
        self
    }

    /// Sets the NoC request-drop probability.
    pub fn dropping_noc_requests(mut self, p: f64) -> Self {
        self.drop_noc_request = p.clamp(0.0, 1.0);
        self
    }

    /// Enables periodic MSHR-exhaustion bursts.
    pub fn exhausting_mshrs(mut self, period: Cycle, duration: Cycle) -> Self {
        self.mshr_exhaust = Some((period.max(1), duration));
        self
    }

    /// Sets the SAP prediction-corruption probability.
    pub fn corrupting_sap(mut self, p: f64) -> Self {
        self.corrupt_sap_prediction = p.clamp(0.0, 1.0);
        self
    }

    /// Caps the number of injected faults per component.
    pub fn capped(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }

    /// Derives a component's deterministic fault state. `salt`
    /// distinguishes components (per-SM L1s, the memory system, SAP) so
    /// each draws an independent — but reproducible — stream.
    pub fn state(&self, salt: u64) -> FaultState {
        FaultState {
            rng: Xoshiro256::seed_from_u64(
                self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            plan: self.clone(),
            counters: FaultCounters::default(),
        }
    }
}

/// How many faults of each class a component actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// DRAM/L2 responses dropped.
    pub dropped_responses: u64,
    /// Responses delayed.
    pub delayed_responses: u64,
    /// NoC requests dropped.
    pub dropped_requests: u64,
    /// MSHR allocations refused by an exhaustion burst.
    pub mshr_refusals: u64,
    /// SAP predictions corrupted.
    pub corrupted_predictions: u64,
}

impl FaultCounters {
    /// Total faults injected by this component.
    pub fn total(&self) -> u64 {
        self.dropped_responses
            + self.delayed_responses
            + self.dropped_requests
            + self.mshr_refusals
            + self.corrupted_predictions
    }

    /// Accumulates another component's counters.
    pub fn add(&mut self, other: &FaultCounters) {
        self.dropped_responses += other.dropped_responses;
        self.delayed_responses += other.delayed_responses;
        self.dropped_requests += other.dropped_requests;
        self.mshr_refusals += other.mshr_refusals;
        self.corrupted_predictions += other.corrupted_predictions;
    }
}

/// Live injection state owned by one component.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: Xoshiro256,
    counters: FaultCounters,
}

impl FaultState {
    fn budget_left(&self) -> bool {
        self.counters.total() < self.plan.max_faults
    }

    /// Should this DRAM/L2 response be dropped?
    pub fn drop_response(&mut self) -> bool {
        if self.budget_left() && self.rng.chance(self.plan.drop_dram_response) {
            self.counters.dropped_responses += 1;
            true
        } else {
            false
        }
    }

    /// Extra delivery latency for this response (0 = on time).
    pub fn response_delay(&mut self) -> Cycle {
        if self.plan.delay_dram_response > 0.0
            && self.budget_left()
            && self.rng.chance(self.plan.delay_dram_response)
        {
            self.counters.delayed_responses += 1;
            self.plan.delay_cycles
        } else {
            0
        }
    }

    /// Should this SM→L2 request be dropped in the interconnect?
    pub fn drop_request(&mut self) -> bool {
        if self.budget_left() && self.rng.chance(self.plan.drop_noc_request) {
            self.counters.dropped_requests += 1;
            true
        } else {
            false
        }
    }

    /// Is the MSHR file artificially exhausted at `now`? Counts a refusal
    /// when it is.
    pub fn mshr_blocked(&mut self, now: Cycle) -> bool {
        let Some((period, duration)) = self.plan.mshr_exhaust else {
            return false;
        };
        if now % period < duration && self.budget_left() {
            self.counters.mshr_refusals += 1;
            true
        } else {
            false
        }
    }

    /// Possibly corrupts a SAP prediction: returns a perturbed address (and
    /// counts the corruption), or the original when no fault fires.
    pub fn corrupt_prediction(&mut self, addr: Addr) -> Addr {
        if self.budget_left() && self.rng.chance(self.plan.corrupt_sap_prediction) {
            self.counters.corrupted_predictions += 1;
            // Flip into a different line, deterministically.
            let delta = (self.rng.next_below(64) as i64 + 1) * 128;
            addr.offset(delta)
        } else {
            addr
        }
    }

    /// Counters of faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }
}

/// Service-level fault classes, extending the in-sim [`FaultPlan`] to the
/// batch-service layer (`apres-serve`): killing a worker mid-job,
/// stalling a job past its deadline, and corrupting or truncating a
/// persisted cache entry. Like [`FaultPlan`], the plan is pure data and
/// every fault is a deterministic function of it — targeted by job
/// *submission index*, so the same plan injects the same faults at any
/// worker count. Each degradation path of the service is exercised in
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

/// Deterministically perturbs one geometry/size field of `cfg`, returning a
/// description of the mutation. Used by property tests to prove that
/// [`GpuConfig::validate`] (not a panic deep in construction) rejects every
/// malformed configuration.
pub fn fuzz_config(cfg: &mut GpuConfig, rng: &mut Xoshiro256) -> &'static str {
    match rng.next_below(8) {
        0 => {
            cfg.l1.line_bytes = 100; // not a power of two
            "l1.line_bytes = 100"
        }
        1 => {
            cfg.l1.ways = 0;
            "l1.ways = 0"
        }
        2 => {
            cfg.l1.capacity_bytes = cfg.l1.line_bytes * 3; // sets not 2^k
            "l1.capacity = 3 lines"
        }
        3 => {
            cfg.core.num_sms = 0;
            "core.num_sms = 0"
        }
        4 => {
            cfg.l1.mshrs = 0;
            "l1.mshrs = 0"
        }
        5 => {
            cfg.dram.partitions = 0;
            "dram.partitions = 0"
        }
        6 => {
            cfg.l2.line_bytes = cfg.l1.line_bytes * 2; // mismatch
            "l2.line_bytes != l1.line_bytes"
        }
        _ => {
            cfg.dram.service_interval = 0;
            "dram.service_interval = 0"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        assert!(FaultPlan::none().is_benign());
        assert!(FaultPlan::default().is_benign());
        assert!(!FaultPlan::seeded(1).dropping_dram_responses(0.5).is_benign());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::seeded(42)
            .dropping_dram_responses(0.3)
            .delaying_dram_responses(0.3, 100);
        let mut a = plan.state(7);
        let mut b = plan.state(7);
        for _ in 0..200 {
            assert_eq!(a.drop_response(), b.drop_response());
            assert_eq!(a.response_delay(), b.response_delay());
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "p=0.3 over 200 draws must fire");
    }

    #[test]
    fn different_salts_decorrelate() {
        let plan = FaultPlan::seeded(42).dropping_dram_responses(0.5);
        let mut a = plan.state(1);
        let mut b = plan.state(2);
        let same = (0..64).filter(|_| a.drop_response() == b.drop_response()).count();
        assert!(same < 64, "salted streams must differ");
    }

    #[test]
    fn fault_cap_respected() {
        let plan = FaultPlan::seeded(9).dropping_dram_responses(1.0).capped(3);
        let mut s = plan.state(0);
        let dropped = (0..100).filter(|_| s.drop_response()).count();
        assert_eq!(dropped, 3);
        assert_eq!(s.counters().dropped_responses, 3);
    }

    #[test]
    fn mshr_burst_windows() {
        let plan = FaultPlan::seeded(0).exhausting_mshrs(100, 10);
        let mut s = plan.state(0);
        assert!(s.mshr_blocked(0));
        assert!(s.mshr_blocked(9));
        assert!(!s.mshr_blocked(10));
        assert!(!s.mshr_blocked(99));
        assert!(s.mshr_blocked(105));
        assert_eq!(s.counters().mshr_refusals, 3);
    }

    #[test]
    fn corruption_changes_line() {
        let plan = FaultPlan::seeded(3).corrupting_sap(1.0);
        let mut s = plan.state(0);
        let a = Addr::new(0x1000);
        let c = s.corrupt_prediction(a);
        assert_ne!(a.line(128), c.line(128), "corruption must change the line");
        assert_eq!(s.counters().corrupted_predictions, 1);
    }

    #[test]
    fn fuzz_config_always_invalidates() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..64 {
            let mut cfg = GpuConfig::paper_baseline();
            let what = fuzz_config(&mut cfg, &mut rng);
            assert!(cfg.validate().is_err(), "{what} must fail validation");
        }
    }

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

    #[test]
    fn counters_accumulate() {
        let mut total = FaultCounters::default();
        let plan = FaultPlan::seeded(5).dropping_dram_responses(1.0).capped(2);
        let mut s = plan.state(0);
        s.drop_response();
        s.drop_response();
        total.add(&s.counters());
        total.add(&s.counters());
        assert_eq!(total.dropped_responses, 4);
        assert_eq!(total.total(), 4);
    }
}
