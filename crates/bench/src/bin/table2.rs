//! Table II — hardware cost of APRES, derived from the structure geometry.

use apres_bench::BenchArgs;
use apres_core::hw_cost::HwCost;
use gpu_common::config::ApresConfig;

fn main() {
    // Static derivation — no simulations to shard; parsing the shared
    // arguments keeps the command line uniform across exhibit binaries.
    let _args = BenchArgs::parse();
    let cost = HwCost::compute(&ApresConfig::table_ii(), 48);
    println!("Table II — hardware cost of APRES (per SM, 48 warps)\n");
    println!("LAWS  LLT: 4B x 48            = {:>4} B", cost.llt_bytes);
    println!("LAWS  WGT: 48b x 3            = {:>4} B", cost.wgt_bytes);
    println!("SAP   DRQ: 8B x 32            = {:>4} B", cost.drq_bytes);
    println!("SAP   WQ:  1B x 48            = {:>4} B", cost.wq_bytes);
    println!("SAP   PT:  (4B+1B+8B+8B) x 10 = {:>4} B", cost.pt_bytes);
    println!("----------------------------------------");
    println!("LAWS subtotal                 = {:>4} B", cost.laws_bytes());
    println!("SAP  subtotal                 = {:>4} B", cost.sap_bytes());
    println!(
        "Total                         = {:>4} B (paper: 724 B)",
        cost.total_bytes()
    );
    println!(
        "\nRaw-storage overhead vs 32 KB L1: {:.2}% (paper, incl. CACTI tag overhead: 2.06%)",
        cost.overhead_vs_l1(32 * 1024) * 100.0
    );
    let sim = HwCost::compute(&ApresConfig::default(), 48);
    println!(
        "Simulator configuration (12-entry WGT covering this pipeline's in-flight loads): {} B",
        sim.total_bytes()
    );
}
