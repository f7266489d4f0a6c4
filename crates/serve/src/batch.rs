//! Batch request documents: a named list of job specs.
//!
//! A batch is the unit of submission to the service. On disk it is a JSON
//! object:
//!
//! ```json
//! {
//!   "name": "nightly",
//!   "jobs": [
//!     { "bench": "KM", "sched": "LAWS", "pf": "SAP", "scale": "tiny" },
//!     { "bench": "HS", "sched": "LRR",  "pf": "none", "seed": 7 }
//!   ]
//! }
//! ```
//!
//! Each job object is parsed by [`apres_bench::cache::JobSpec::from_json`]:
//! `bench`/`sched`/`pf` are required labels (case-insensitive), `scale`
//! defaults to `"tiny"`, `iterations` to the scale's default for the
//! benchmark, and `seed` is optional. Parsing is strict — an unknown label
//! or ill-typed member is a typed [`SimError::Parse`] naming the problem,
//! and one bad job rejects the whole document (malformed input fails
//! loudly at the door; *runtime* failures degrade gracefully instead, see
//! [`crate::service`]).

#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use apres_bench::cache::JobSpec;
use gpu_common::json::Json;
use gpu_common::{SimError, SimResult};

/// A named list of job specs — the unit of submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Batch name (tags the response document and stderr diagnostics).
    pub name: String,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Batch {
    /// Builds a batch in memory.
    pub fn new(name: impl Into<String>, jobs: Vec<JobSpec>) -> Batch {
        Batch {
            name: name.into(),
            jobs,
        }
    }

    /// Parses a batch document from JSON text.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] on malformed JSON, a missing/ill-typed `jobs`
    /// array, or any job spec that fails [`JobSpec::from_json`].
    pub fn parse(text: &str) -> SimResult<Batch> {
        let doc = gpu_common::json::parse(text).map_err(|message| SimError::Parse {
            context: "batch JSON",
            message,
        })?;
        Batch::from_json(&doc)
    }

    /// Builds a batch from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] when `jobs` is missing or not an array, or when
    /// any element is not a valid job spec.
    pub fn from_json(doc: &Json) -> SimResult<Batch> {
        let name = match doc.get("name") {
            None => "batch".to_owned(),
            Some(n) => n
                .as_str()
                .ok_or(SimError::Parse {
                    context: "batch JSON",
                    message: "member \"name\" must be a string".into(),
                })?
                .to_owned(),
        };
        let Some(Json::Arr(items)) = doc.get("jobs") else {
            return Err(SimError::Parse {
                context: "batch JSON",
                message: "missing or non-array member \"jobs\"".into(),
            });
        };
        let mut jobs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let spec = JobSpec::from_json(item).map_err(|e| SimError::Parse {
                context: "batch JSON",
                message: format!("jobs[{i}]: {e}"),
            })?;
            jobs.push(spec);
        }
        Ok(Batch { name, jobs })
    }

    /// Serialises the batch back to a request document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            (
                "jobs".into(),
                Json::Arr(self.jobs.iter().map(JobSpec::to_json).collect()),
            ),
        ])
    }

    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apres_bench::Scale;
    use gpu_workloads::Benchmark;

    #[test]
    fn parse_round_trip() {
        let text = r#"{
            "name": "nightly",
            "jobs": [
                {"bench": "KM", "sched": "LAWS", "pf": "SAP", "scale": "tiny"},
                {"bench": "HS", "sched": "LRR", "pf": "none", "scale": "tiny", "seed": 7}
            ]
        }"#;
        let batch = Batch::parse(text).expect("valid batch");
        assert_eq!(batch.name, "nightly");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.jobs[0].bench, Benchmark::Km);
        assert_eq!(batch.jobs[1].seed, Some(7));
        assert_eq!(batch.jobs[1].scale, Scale::Tiny);
        let again = Batch::from_json(&batch.to_json()).expect("round trip");
        assert_eq!(again, batch);
    }

    #[test]
    fn name_defaults_and_jobs_required() {
        let batch =
            Batch::parse(r#"{"jobs":[{"bench":"KM","sched":"GTO","pf":"STR"}]}"#).expect("ok");
        assert_eq!(batch.name, "batch");
        assert!(!batch.is_empty());

        let missing = Batch::parse(r#"{"name":"x"}"#).expect_err("no jobs");
        assert_eq!(missing.class(), "parse");
        assert!(missing.to_string().contains("jobs"), "{missing}");
    }

    #[test]
    fn bad_job_is_named_by_index() {
        let err = Batch::parse(
            r#"{"jobs":[{"bench":"KM","sched":"LRR","pf":"none"},{"bench":"??","sched":"LRR","pf":"none"}]}"#,
        )
        .expect_err("bad second job");
        assert!(err.to_string().contains("jobs[1]"), "{err}");
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert_eq!(Batch::parse("{").expect_err("bad json").class(), "parse");
    }
}
