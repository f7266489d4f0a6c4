//! Lossless JSON codec for [`RunResult`].
//!
//! The result cache (`apres-bench`'s `cache` module and the `apres-serve`
//! binary) persists simulation results on disk and serves them in place of
//! recomputation. That is only sound if deserialising a stored result
//! reproduces the original **exactly** — every downstream table formats
//! the same bytes whether a point was computed or served from cache, and
//! `scripts/serve_smoke.sh` byte-compares the two paths. Hence this codec
//! is written for exactness, not generality:
//!
//! * every counter is `u64` and round-trips through [`Json::Num`]'s raw
//!   text, so there is no floating-point involved at all;
//! * unknown or missing fields are hard errors ([`decode`] returns a
//!   message naming the field), never silently defaulted — a cache entry
//!   from an older layout must *fail verification* and be recomputed, not
//!   be half-read;
//! * [`encode`]'s member order is fixed, so the compact serialisation is a
//!   canonical byte string suitable for content hashing.

use crate::gpu::{RunResult, Termination};
use gpu_common::fault::FaultCounters;
use gpu_common::json::Json;
use gpu_common::stats::{CacheStats, EnergyEvents, MemStats, PrefetchStats, SimStats};
use gpu_common::Pc;
use gpu_mem::l1::PcStats;

/// Serialises a run result to a JSON tree (fixed member order).
pub fn encode(r: &RunResult) -> Json {
    let termination = match r.termination {
        Termination::Drained => Json::Obj(vec![("kind".into(), Json::str("drained"))]),
        Termination::BudgetExhausted { budget } => Json::Obj(vec![
            ("kind".into(), Json::str("budget-exhausted")),
            ("budget".into(), Json::from_u64(budget)),
        ]),
    };
    let per_pc = r
        .per_pc
        .iter()
        .map(|(pc, s)| {
            Json::Obj(vec![
                ("pc".into(), Json::from_u64(pc.0)),
                ("accesses".into(), Json::from_u64(s.accesses)),
                ("hits".into(), Json::from_u64(s.hits)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("scheduler".into(), Json::str(&r.scheduler)),
        ("prefetcher".into(), Json::str(&r.prefetcher)),
        ("kernel".into(), Json::str(&r.kernel)),
        ("cycles".into(), Json::from_u64(r.cycles)),
        ("timed_out".into(), Json::Bool(r.timed_out)),
        ("termination".into(), termination),
        (
            "faults".into(),
            obj_u64(&[
                ("dropped_responses", r.faults.dropped_responses),
                ("delayed_responses", r.faults.delayed_responses),
                ("dropped_requests", r.faults.dropped_requests),
                ("mshr_refusals", r.faults.mshr_refusals),
                ("corrupted_predictions", r.faults.corrupted_predictions),
            ]),
        ),
        (
            "sim".into(),
            obj_u64(&[
                ("cycles", r.sim.cycles),
                ("instructions", r.sim.instructions),
                ("loads", r.sim.loads),
                ("stores", r.sim.stores),
                ("stall_cycles", r.sim.stall_cycles),
                ("stall_lsu_full", r.sim.stall_lsu_full),
                ("stall_dependency", r.sim.stall_dependency),
                ("active_lane_sum", r.sim.active_lane_sum),
            ]),
        ),
        (
            "l1".into(),
            obj_u64(&[
                ("accesses", r.l1.accesses),
                ("hits", r.l1.hits),
                ("hit_after_hit", r.l1.hit_after_hit),
                ("hit_after_miss", r.l1.hit_after_miss),
                ("cold_misses", r.l1.cold_misses),
                ("capacity_conflict_misses", r.l1.capacity_conflict_misses),
                ("mshr_merges", r.l1.mshr_merges),
                ("merges_into_prefetch", r.l1.merges_into_prefetch),
                ("reservation_fails", r.l1.reservation_fails),
                ("evictions", r.l1.evictions),
            ]),
        ),
        (
            "prefetch".into(),
            obj_u64(&[
                ("issued", r.prefetch.issued),
                ("dropped_duplicate", r.prefetch.dropped_duplicate),
                ("dropped_no_resource", r.prefetch.dropped_no_resource),
                ("useful", r.prefetch.useful),
                ("late_merged", r.prefetch.late_merged),
                ("early_evictions", r.prefetch.early_evictions),
                ("useless_evictions", r.prefetch.useless_evictions),
            ]),
        ),
        (
            "mem".into(),
            obj_u64(&[
                ("total_load_latency", r.mem.total_load_latency),
                ("completed_loads", r.mem.completed_loads),
                ("bytes_to_sm", r.mem.bytes_to_sm),
                ("bytes_from_dram", r.mem.bytes_from_dram),
            ]),
        ),
        (
            "energy".into(),
            obj_u64(&[
                ("alu_ops", r.energy.alu_ops),
                ("regfile_accesses", r.energy.regfile_accesses),
                ("l1_accesses", r.energy.l1_accesses),
                ("l2_accesses", r.energy.l2_accesses),
                ("dram_accesses", r.energy.dram_accesses),
                ("apres_table_accesses", r.energy.apres_table_accesses),
            ]),
        ),
        ("per_pc".into(), Json::Arr(per_pc)),
    ])
}

/// Reconstructs a run result from [`encode`]'s layout.
///
/// # Errors
///
/// Returns a message naming the first missing, extra, or ill-typed field;
/// the cache layer treats any error as entry corruption.
pub fn decode(v: &Json) -> Result<RunResult, String> {
    let termination = {
        let t = v.get("termination").ok_or("missing field termination")?;
        match t.get("kind").and_then(Json::as_str) {
            Some("drained") => Termination::Drained,
            Some("budget-exhausted") => Termination::BudgetExhausted {
                budget: field_u64(t, "budget")?,
            },
            other => return Err(format!("unknown termination kind {other:?}")),
        }
    };
    let per_pc = v
        .get("per_pc")
        .and_then(Json::as_arr)
        .ok_or("missing field per_pc")?
        .iter()
        .map(|e| {
            Ok((
                Pc(field_u64(e, "pc")?),
                PcStats {
                    accesses: field_u64(e, "accesses")?,
                    hits: field_u64(e, "hits")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let faults = v.get("faults").ok_or("missing field faults")?;
    let sim = v.get("sim").ok_or("missing field sim")?;
    let l1 = v.get("l1").ok_or("missing field l1")?;
    let prefetch = v.get("prefetch").ok_or("missing field prefetch")?;
    let mem = v.get("mem").ok_or("missing field mem")?;
    let energy = v.get("energy").ok_or("missing field energy")?;
    Ok(RunResult {
        scheduler: field_str(v, "scheduler")?,
        prefetcher: field_str(v, "prefetcher")?,
        kernel: field_str(v, "kernel")?,
        cycles: field_u64(v, "cycles")?,
        timed_out: v
            .get("timed_out")
            .and_then(Json::as_bool)
            .ok_or("missing field timed_out")?,
        termination,
        faults: FaultCounters {
            dropped_responses: field_u64(faults, "dropped_responses")?,
            delayed_responses: field_u64(faults, "delayed_responses")?,
            dropped_requests: field_u64(faults, "dropped_requests")?,
            mshr_refusals: field_u64(faults, "mshr_refusals")?,
            corrupted_predictions: field_u64(faults, "corrupted_predictions")?,
        },
        sim: SimStats {
            cycles: field_u64(sim, "cycles")?,
            instructions: field_u64(sim, "instructions")?,
            loads: field_u64(sim, "loads")?,
            stores: field_u64(sim, "stores")?,
            stall_cycles: field_u64(sim, "stall_cycles")?,
            stall_lsu_full: field_u64(sim, "stall_lsu_full")?,
            stall_dependency: field_u64(sim, "stall_dependency")?,
            active_lane_sum: field_u64(sim, "active_lane_sum")?,
        },
        l1: CacheStats {
            accesses: field_u64(l1, "accesses")?,
            hits: field_u64(l1, "hits")?,
            hit_after_hit: field_u64(l1, "hit_after_hit")?,
            hit_after_miss: field_u64(l1, "hit_after_miss")?,
            cold_misses: field_u64(l1, "cold_misses")?,
            capacity_conflict_misses: field_u64(l1, "capacity_conflict_misses")?,
            mshr_merges: field_u64(l1, "mshr_merges")?,
            merges_into_prefetch: field_u64(l1, "merges_into_prefetch")?,
            reservation_fails: field_u64(l1, "reservation_fails")?,
            evictions: field_u64(l1, "evictions")?,
        },
        prefetch: PrefetchStats {
            issued: field_u64(prefetch, "issued")?,
            dropped_duplicate: field_u64(prefetch, "dropped_duplicate")?,
            dropped_no_resource: field_u64(prefetch, "dropped_no_resource")?,
            useful: field_u64(prefetch, "useful")?,
            late_merged: field_u64(prefetch, "late_merged")?,
            early_evictions: field_u64(prefetch, "early_evictions")?,
            useless_evictions: field_u64(prefetch, "useless_evictions")?,
        },
        mem: MemStats {
            total_load_latency: field_u64(mem, "total_load_latency")?,
            completed_loads: field_u64(mem, "completed_loads")?,
            bytes_to_sm: field_u64(mem, "bytes_to_sm")?,
            bytes_from_dram: field_u64(mem, "bytes_from_dram")?,
        },
        energy: EnergyEvents {
            alu_ops: field_u64(energy, "alu_ops")?,
            regfile_accesses: field_u64(energy, "regfile_accesses")?,
            l1_accesses: field_u64(energy, "l1_accesses")?,
            l2_accesses: field_u64(energy, "l2_accesses")?,
            dram_accesses: field_u64(energy, "dram_accesses")?,
            apres_table_accesses: field_u64(energy, "apres_table_accesses")?,
        },
        per_pc,
    })
}

/// Builds an object of `u64` members in the given order.
fn obj_u64(fields: &[(&str, u64)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::from_u64(*v)))
            .collect(),
    )
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-u64 field {key}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(ToOwned::to_owned)
        .ok_or_else(|| format!("missing or non-string field {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            scheduler: "LAWS".into(),
            prefetcher: "SAP".into(),
            kernel: "KM".into(),
            cycles: 123_456,
            timed_out: false,
            termination: Termination::Drained,
            faults: FaultCounters {
                dropped_responses: 1,
                delayed_responses: 2,
                dropped_requests: 3,
                mshr_refusals: 4,
                corrupted_predictions: 5,
            },
            sim: SimStats {
                cycles: 123_456,
                instructions: 7_890,
                loads: 100,
                stores: 50,
                stall_cycles: 999,
                stall_lsu_full: 12,
                stall_dependency: 34,
                active_lane_sum: u64::MAX,
            },
            l1: CacheStats {
                accesses: 1000,
                hits: 800,
                hit_after_hit: 600,
                hit_after_miss: 200,
                cold_misses: 50,
                capacity_conflict_misses: 150,
                mshr_merges: 7,
                merges_into_prefetch: 3,
                reservation_fails: 11,
                evictions: 42,
            },
            prefetch: PrefetchStats {
                issued: 64,
                dropped_duplicate: 1,
                dropped_no_resource: 2,
                useful: 40,
                late_merged: 10,
                early_evictions: 5,
                useless_evictions: 9,
            },
            mem: MemStats {
                total_load_latency: 1_000_000,
                completed_loads: 5_000,
                bytes_to_sm: 128 * 1024,
                bytes_from_dram: 64 * 1024,
            },
            energy: EnergyEvents {
                alu_ops: 1,
                regfile_accesses: 2,
                l1_accesses: 3,
                l2_accesses: 4,
                dram_accesses: 5,
                apres_table_accesses: 6,
            },
            per_pc: vec![
                (
                    Pc(0x10),
                    PcStats {
                        accesses: 9,
                        hits: 4,
                    },
                ),
                (
                    Pc(0x20),
                    PcStats {
                        accesses: 1,
                        hits: 0,
                    },
                ),
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let r = sample();
        let back = decode(&encode(&r)).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn round_trip_budget_exhausted() {
        let mut r = sample();
        r.timed_out = true;
        r.termination = Termination::BudgetExhausted { budget: u64::MAX };
        let back = decode(&encode(&r)).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn compact_serialisation_is_canonical() {
        let r = sample();
        let a = encode(&r).to_compact();
        let b = encode(&decode(&encode(&r)).expect("decode")).to_compact();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_fields_are_hard_errors() {
        let r = sample();
        let Json::Obj(members) = encode(&r) else {
            panic!("encode must produce an object")
        };
        // Dropping any top-level member must fail decoding loudly.
        for skip in 0..members.len() {
            let pruned = Json::Obj(
                members
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, m)| m.clone())
                    .collect(),
            );
            let err = decode(&pruned).expect_err("pruned field must fail");
            assert!(err.contains("missing"), "{err}");
        }
    }

    #[test]
    fn ill_typed_counter_rejected() {
        let doc = encode(&sample());
        let text = doc.to_compact().replace("\"loads\":100", "\"loads\":\"x\"");
        let reparsed = gpu_common::json::parse(&text).expect("still valid JSON");
        let err = decode(&reparsed).expect_err("string counter must fail");
        assert!(err.contains("loads"), "{err}");
    }

    #[test]
    fn real_run_round_trips() {
        // A tiny end-to-end simulation, through the codec and back.
        let kernel = gpu_kernel::Kernel::builder("probe")
            .load(
                gpu_kernel::AddressPattern::warp_strided(0, 128, 128 * 16, 4),
                &[],
            )
            .alu(8, &[0])
            .iterations(4)
            .build();
        let r = crate::Gpu::new(
            &gpu_common::GpuConfig::small_test(),
            kernel,
            &|_| Box::new(crate::gpu::SimpleRoundRobin::default()),
            &|_| Box::new(crate::traits::NullPrefetcher),
        )
        .and_then(|g| g.run(2_000_000, &mut ()))
        .expect("tiny run completes");
        let back = decode(&encode(&r)).expect("decode");
        assert_eq!(back, r);
        assert_eq!(encode(&back).to_compact(), encode(&r).to_compact());
    }
}
