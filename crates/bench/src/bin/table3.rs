//! Table III — the simulated GPU configuration.

use apres_bench::BenchArgs;
use gpu_common::GpuConfig;

fn main() {
    // Static print — parsing the shared arguments keeps the command line
    // uniform across exhibit binaries.
    let _args = BenchArgs::parse();
    let c = GpuConfig::paper_baseline();
    println!("Table III — simulation configuration\n");
    println!(
        "GPU Core        {} SMs, SIMD width: {}, max {} active warps/SM",
        c.core.num_sms, c.core.warp_size, c.core.warps_per_sm
    );
    println!("Warp Scheduler  LRR/GTO/2LV/CCWS/MASCAR/PA (+ LAWS)");
    println!("Prefetcher      STR/SLD (+ SAP)");
    println!(
        "L1 Data Cache   {}-way, {} KB, {}B line, {} MSHRs, {}-cycle hit",
        c.l1.ways,
        c.l1.capacity_bytes / 1024,
        c.l1.line_bytes,
        c.l1.mshrs,
        c.l1.hit_latency
    );
    println!(
        "L2 Shared Cache {}-way, {} KB, {}B line, {} cycles latency",
        c.l2.ways,
        c.l2.capacity_bytes / 1024,
        c.l2.line_bytes,
        c.l2.hit_latency
    );
    println!(
        "DRAM            {}-partitioned, {} cycles latency, 1 line / {} cycles / partition",
        c.dram.partitions, c.dram.latency, c.dram.service_interval
    );
    println!(
        "Interconnect    {}-cycle latency, {} request(s)/cycle/SM",
        c.noc.latency, c.noc.requests_per_cycle
    );
    println!(
        "Mem Req Merging request coalescing; merging in {} L1 MSHRs",
        c.l1.mshrs
    );
    println!("Branch Control  immediate post-dominator (per-instruction active masks)");
    println!("Baseline        LRR without prefetching");
    println!("APRES           LAWS + SAP");
    assert!(c.validate().is_ok());
}
