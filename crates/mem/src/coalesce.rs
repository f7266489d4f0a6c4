//! Memory request coalescing.
//!
//! "The memory requests are coalesced if threads in a warp access consecutive
//! addresses in the device memory" (Section II). The coalescer reduces the
//! per-lane byte addresses of one warp instruction to the set of distinct
//! cache lines touched, preserving the order of first appearance (lane 0
//! first) — the paper's SAP stores "the address requested by the lowest
//! thread ID" (Section IV-B), which is exactly element 0 of our output.

use gpu_common::{Addr, LaneList, LineAddr};

/// Coalesces per-lane byte addresses into unique line addresses, ordered by
/// first appearance, inline (no heap allocation).
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two, or if the addresses touch
/// more than [`gpu_common::MAX_REQUESTS_PER_WARP`] distinct lines (a warp
/// has at most that many lanes).
///
/// # Example
///
/// ```
/// use gpu_common::Addr;
/// use gpu_mem::coalesce::coalesce;
///
/// // 32 lanes × 4-byte elements within one 128-byte line → 1 request.
/// let addrs: Vec<Addr> = (0..32).map(|l| Addr::new(0x1000 + l * 4)).collect();
/// assert_eq!(coalesce(&addrs, 128).len(), 1);
/// ```
pub fn coalesce(addrs: &[Addr], line_bytes: u64) -> LaneList<LineAddr> {
    let mut out = LaneList::new();
    for &a in addrs {
        let line = a.line(line_bytes);
        if !out.contains(&line) {
            out.push(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::check::run_cases;

    #[test]
    fn fully_coalesced_single_line() {
        let addrs: Vec<Addr> = (0..32).map(|l| Addr::new(0x80 * 7 + l * 4)).collect();
        let lines = coalesce(&addrs, 128);
        assert_eq!(*lines, [LineAddr(7)]);
    }

    #[test]
    fn stride_128_one_line_per_lane() {
        let addrs: Vec<Addr> = (0..32).map(|l| Addr::new(l * 128)).collect();
        let lines = coalesce(&addrs, 128);
        assert_eq!(lines.len(), 32);
        assert_eq!(lines[0], LineAddr(0));
        assert_eq!(lines[31], LineAddr(31));
    }

    #[test]
    fn order_is_first_appearance() {
        let addrs = vec![
            Addr::new(0x100),
            Addr::new(0x000),
            Addr::new(0x180), // same line as 0x100
            Addr::new(0x080),
        ];
        let lines = coalesce(&addrs, 128);
        assert_eq!(*lines, [LineAddr(2), LineAddr(0), LineAddr(3), LineAddr(1)]);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(&[], 128).is_empty());
    }

    #[test]
    fn lowest_lane_first_for_sap() {
        // SAP keys its stride table on the lowest-lane address; make sure it
        // is element 0 even when later lanes touch lower lines.
        let addrs = vec![Addr::new(0x2000), Addr::new(0x1000)];
        assert_eq!(coalesce(&addrs, 128)[0], Addr::new(0x2000).line(128));
    }

    #[test]
    fn output_lines_unique_and_cover_all_lanes() {
        run_cases(128, |_, g| {
            let n = g.usize_range(1, 31);
            let addrs: Vec<Addr> = (0..n)
                .map(|_| Addr::new(g.range(0, (1 << 20) - 1)))
                .collect();
            let lines = coalesce(&addrs, 128);
            // Unique.
            let mut sorted = lines.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != lines.len() {
                return Err("duplicate output lines".into());
            }
            // ≤ one per lane and ≥ 1.
            if lines.len() > addrs.len() || lines.is_empty() {
                return Err(format!("{} lines from {} lanes", lines.len(), addrs.len()));
            }
            // Every lane's line is represented.
            for a in &addrs {
                if !lines.contains(&a.line(128)) {
                    return Err(format!("lane {a} not covered"));
                }
            }
            Ok(())
        });
    }
}
