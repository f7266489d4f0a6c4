//! Shared command-line handling for every bench binary.
//!
//! All exhibit binaries accept the same flag set, parsed once into
//! [`BenchArgs`]:
//!
//! * `--fast` / `--tiny` — reduced evaluation scales ([`Scale`]);
//! * `--jobs N` — worker threads for the parallel sweep harness
//!   (default: the `APRES_JOBS` environment variable, else all cores);
//! * `--csv DIR` / `--json DIR` — also write each exhibit table as
//!   `DIR/<name>.csv` / `DIR/<name>.json`;
//! * `--seed S` — seed-perturbation mode: each job re-seeds its kernel
//!   with `derive_seed(S, job_index)` (see [`crate::harness`]);
//! * `--cache DIR` — verified result cache: jobs whose spec hash already
//!   has a cache entry are served from disk (after hash verification);
//!   misses are computed and stored, so re-running an exhibit after a
//!   change recomputes only the changed jobs (see [`crate::cache`]);
//! * `--no-time` — suppress wall-clock columns (binaries that print any),
//!   so output is byte-comparable across runs;
//! * positional arguments — benchmark names for the binaries that take
//!   them (`sweep`, `diag`).
//!
//! Flag values never collide with positionals: `--jobs 8 KM` parses as
//! `jobs = 8` with positional `KM`, which is why binaries must not scan
//! `std::env::args` themselves.

use crate::Scale;

/// Parsed command line shared by the bench binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Evaluation scale (`--fast`, `--tiny`, default paper scale).
    pub scale: Scale,
    /// Worker threads for sweeps (`--jobs`, `APRES_JOBS`, else all cores).
    pub jobs: usize,
    /// Directory for CSV copies of printed tables (`--csv DIR`).
    pub csv: Option<String>,
    /// Directory for JSON copies of printed tables (`--json DIR`).
    pub json: Option<String>,
    /// Base seed for per-job kernel re-seeding (`--seed S`).
    pub seed: Option<u64>,
    /// Directory of the verified result cache (`--cache DIR`).
    pub cache: Option<String>,
    /// Suppress wall-clock output columns (`--no-time`).
    pub no_time: bool,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments; prints usage and exits with status 2
    /// on a malformed flag.
    pub fn parse() -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: [--fast | --tiny] [--jobs N] [--csv DIR] [--json DIR] \
                     [--seed S] [--cache DIR] [--no-time] [ARGS...]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Testable parser core; `args` excludes the program name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag on unknown flags,
    /// missing values, or unparsable numbers.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs {
            scale: Scale::Paper,
            jobs: 0,
            csv: None,
            json: None,
            seed: None,
            cache: None,
            no_time: false,
            positional: Vec::new(),
        };
        let mut jobs_flag: Option<usize> = None;
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fast" => out.scale = Scale::Fast,
                "--tiny" => out.scale = Scale::Tiny,
                "--no-time" => out.no_time = true,
                "--jobs" => {
                    let v = args.next().ok_or("--jobs requires a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs: not a number: {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    jobs_flag = Some(n);
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed requires a value")?;
                    let s: u64 = v
                        .parse()
                        .map_err(|_| format!("--seed: not a number: {v:?}"))?;
                    out.seed = Some(s);
                }
                "--csv" => {
                    out.csv = Some(args.next().ok_or("--csv requires a directory")?);
                }
                "--json" => {
                    out.json = Some(args.next().ok_or("--json requires a directory")?);
                }
                "--cache" => {
                    out.cache = Some(args.next().ok_or("--cache requires a directory")?);
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                _ => out.positional.push(a),
            }
        }
        out.jobs = resolve_jobs(jobs_flag);
        Ok(out)
    }

    /// The first positional argument, if any (benchmark name for `sweep`
    /// and `diag`).
    pub fn first_positional(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }
}

/// Resolves the worker-thread count: an explicit `--jobs` value wins, then
/// the `APRES_JOBS` environment variable, then every available core.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("APRES_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring unparsable APRES_JOBS={v:?}");
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert!(a.jobs >= 1);
        assert_eq!(a.csv, None);
        assert_eq!(a.json, None);
        assert_eq!(a.seed, None);
        assert_eq!(a.cache, None);
        assert!(!a.no_time);
        assert!(a.positional.is_empty());
    }

    #[test]
    fn flags_and_positionals_do_not_collide() {
        let a = parse(&["--jobs", "8", "KM", "--fast", "--csv", "out"]).unwrap();
        assert_eq!(a.jobs, 8);
        assert_eq!(a.scale, Scale::Fast);
        assert_eq!(a.csv.as_deref(), Some("out"));
        assert_eq!(a.first_positional(), Some("KM"));
        assert_eq!(a.positional, vec!["KM".to_string()]);
    }

    #[test]
    fn tiny_scale_and_seed() {
        let a = parse(&["--tiny", "--seed", "42", "--no-time"]).unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.seed, Some(42));
        assert!(a.no_time);
    }

    #[test]
    fn json_dir() {
        let a = parse(&["--json", "results/json"]).unwrap();
        assert_eq!(a.json.as_deref(), Some("results/json"));
    }

    #[test]
    fn cache_dir() {
        let a = parse(&["--cache", "results/cache", "--tiny"]).unwrap();
        assert_eq!(a.cache.as_deref(), Some("results/cache"));
        assert_eq!(a.scale, Scale::Tiny);
        assert!(parse(&["--cache"]).unwrap_err().contains("directory"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--jobs"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--jobs", "x"])
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--seed", "-1"])
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--csv"]).unwrap_err().contains("directory"));
        // The removed engine knobs are unknown flags, not silently ignored.
        assert!(parse(&["--step-mode", "skip"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--sim-threads", "2"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn explicit_jobs_beats_env() {
        assert_eq!(resolve_jobs(Some(3)), 3);
    }
}
