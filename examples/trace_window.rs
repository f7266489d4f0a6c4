//! Dump a window of pipeline events under LRR vs APRES — the interleavings
//! behind the paper's Figure 6, read straight off the machine.
//!
//! ```text
//! cargo run --release --example trace_window [APP] [N]
//! ```

use apres::core::sim::DEFAULT_MAX_CYCLES;
use apres::{Benchmark, Gpu, GpuConfig, IssueKind, Observer, Simulation, TraceEvent};

/// Keeps every pipeline event of the run, SM by SM within a cycle.
struct Recorder(Vec<TraceEvent>);

impl Observer for Recorder {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_cycle(&mut self, gpu: &Gpu) {
        for sm in gpu.sms() {
            self.0.extend_from_slice(sm.events());
        }
    }
}

fn show(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Issue {
            cycle,
            warp,
            pc,
            kind,
        } => {
            let k = match kind {
                IssueKind::Alu => "alu ",
                IssueKind::Load => "LD  ",
                IssueKind::Store => "st  ",
                IssueKind::Barrier => "bar ",
            };
            format!("{cycle:>7}  issue  {warp:<4} {k} {pc}")
        }
        TraceEvent::L1Access {
            cycle,
            warp,
            pc,
            line,
            hit,
        } => format!(
            "{cycle:>7}  L1     {warp:<4} {} {pc} {line}",
            if hit { "HIT " } else { "MISS" }
        ),
        TraceEvent::Prefetch {
            cycle,
            target,
            line,
        } => {
            format!("{cycle:>7}  PREFETCH -> {target:<4} {line}")
        }
        TraceEvent::Fill { cycle, line, woken } => {
            format!("{cycle:>7}  fill   {line} wakes {woken}")
        }
        TraceEvent::BarrierRelease {
            cycle,
            body_idx,
            released,
        } => {
            format!("{cycle:>7}  barrier[{body_idx}] releases {released}")
        }
    }
}

fn main() -> apres::SimResult<()> {
    let mut args = std::env::args().skip(1);
    let bench = args
        .next()
        .map(|name| {
            Benchmark::from_label(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"))
        })
        .unwrap_or(Benchmark::Lud);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);

    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 1;

    for apres in [false, true] {
        let mut sim = Simulation::new(bench.kernel_scaled(4)).config(cfg.clone());
        if apres {
            sim = sim.apres();
        }
        let mut recorder = Recorder(Vec::new());
        let res = sim.build()?.run(DEFAULT_MAX_CYCLES, &mut recorder)?;
        let trace = recorder.0;
        println!(
            "=== {} under {} ({} events, showing a mid-run window of {n}) ===",
            bench.label(),
            if apres { "APRES" } else { "LRR baseline" },
            trace.len()
        );
        let start = trace.len() / 2;
        for ev in trace.iter().skip(start).take(n) {
            println!("{}", show(ev));
        }
        println!(
            "... IPC {:.3}, L1 miss {:.1}%\n",
            res.ipc(),
            res.l1.miss_rate() * 100.0
        );
    }
    Ok(())
}
