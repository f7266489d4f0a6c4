//! Reproduce the paper's Section III-B methodology on any workload:
//! per-static-load %Load, #L/#R, miss rate, and dominant inter-warp stride
//! (the columns of Table I).
//!
//! ```text
//! cargo run --release --example characterize_loads [APP]
//! ```
//!
//! `APP` is one of BFS, MUM, NW, SPMV, KM, LUD, SRAD, PA, HISTO, BP, PF,
//! CS, ST, HS, SP (default: all memory-intensive apps).

use apres::{characterize, Benchmark, GpuConfig};

fn main() {
    let cfg = GpuConfig::paper_baseline();
    let arg = std::env::args().nth(1);
    let benches: Vec<Benchmark> = match arg.as_deref() {
        Some(name) => {
            vec![Benchmark::from_label(name).unwrap_or_else(|| panic!("unknown benchmark {name}"))]
        }
        None => Benchmark::MEMORY_INTENSIVE.to_vec(),
    };

    println!(
        "{:<6} {:>8} {:>7} {:>7} {:>9} {:>10} {:>8}",
        "App", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride"
    );
    for b in benches {
        let profiles = characterize(&b.kernel(), &cfg, None);
        for p in &profiles {
            println!(
                "{:<6} {:>8} {:>6.1}% {:>7.2} {:>9.2} {:>10} {:>7.1}%",
                b.label(),
                format!("{}", p.pc),
                p.pct_load * 100.0,
                p.lines_per_ref,
                p.miss_rate,
                p.stride,
                p.pct_stride * 100.0
            );
        }
    }
    println!(
        "\nInterpretation (Section III-B): a small #L/#R with a high miss rate\n\
         means inter-warp locality is being destroyed by cache thrashing —\n\
         the gap LAWS closes. A high #L/#R with a dominant stride means the\n\
         load streams predictably — the pattern SAP prefetches."
    );
}
