//! Time-series view of a run: per-interval IPC and L1 miss rate as a text
//! sparkline, comparing baseline and APRES warm-up/phase behaviour on the
//! KMeans-like workload.
//!
//! ```text
//! cargo run --release --example timeline [APP]
//! ```

use apres::core::sim::DEFAULT_MAX_CYCLES;
use apres::{Benchmark, Cycle, Gpu, GpuConfig, Observer, Simulation};

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    values
        .iter()
        .map(|v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

const INTERVAL: Cycle = 512;

/// One interval of the run.
struct Sample {
    /// Instructions per cycle within the interval (all SMs).
    ipc: f64,
    /// L1 miss rate within the interval.
    l1_miss_rate: f64,
}

/// Running totals over all SMs, as read at the end of an interval.
#[derive(Default, Clone, Copy)]
struct Totals {
    instructions: u64,
    l1_accesses: u64,
    l1_misses: u64,
}

/// Reads every SM's counters each `INTERVAL` cycles and keeps the deltas.
#[derive(Default)]
struct Sampler {
    last: Totals,
    samples: Vec<Sample>,
}

impl Observer for Sampler {
    fn on_cycle(&mut self, gpu: &Gpu) {
        if !gpu.now().is_multiple_of(INTERVAL) {
            return;
        }
        let mut cur = Totals::default();
        for sm in gpu.sms() {
            cur.instructions += sm.stats().instructions;
            cur.l1_accesses += sm.cache_stats().accesses;
            cur.l1_misses += sm.cache_stats().misses();
        }
        let accesses = cur.l1_accesses - self.last.l1_accesses;
        self.samples.push(Sample {
            ipc: (cur.instructions - self.last.instructions) as f64 / INTERVAL as f64,
            l1_miss_rate: if accesses == 0 {
                0.0
            } else {
                (cur.l1_misses - self.last.l1_misses) as f64 / accesses as f64
            },
        });
        self.last = cur;
    }
}

fn run_sampled(bench: Benchmark, apres: bool) -> apres::SimResult<Vec<Sample>> {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 4;
    let mut sim = Simulation::new(bench.kernel()).config(cfg);
    if apres {
        sim = sim.apres();
    }
    let mut sampler = Sampler::default();
    sim.build()?.run(DEFAULT_MAX_CYCLES, &mut sampler)?;
    Ok(sampler.samples)
}

fn main() -> apres::SimResult<()> {
    let bench = std::env::args()
        .nth(1)
        .map(|name| {
            Benchmark::from_label(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"))
        })
        .unwrap_or(Benchmark::Km);

    println!(
        "per-{INTERVAL}-cycle samples on {} (4 SMs)\n",
        bench.label()
    );
    for (name, apres) in [("baseline", false), ("APRES", true)] {
        let samples = run_sampled(bench, apres)?;
        let ipc: Vec<f64> = samples.iter().map(|s| s.ipc).collect();
        let miss: Vec<f64> = samples.iter().map(|s| s.l1_miss_rate).collect();
        println!("{name:>8} IPC  {}", sparkline(&ipc));
        println!("{:>8} miss {}", "", sparkline(&miss));
        println!(
            "{:>8}      {} samples, mean IPC {:.2}, mean miss {:.2}\n",
            "",
            samples.len(),
            ipc.iter().sum::<f64>() / ipc.len().max(1) as f64,
            miss.iter().sum::<f64>() / miss.len().max(1) as f64
        );
    }
    Ok(())
}
