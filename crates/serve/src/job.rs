//! Job lifecycle: the state machine one submitted experiment moves
//! through, and its JSON status encoding.
//!
//! ```text
//!            submit            worker picks up
//!   (429/503 rejected)  ──►  Queued ──► Running ──► Done
//!                               │          │   ├──► Failed
//!                               │          │   └──► TimedOut
//!                               └──────────┴─────► Cancelled
//! ```
//!
//! Queued jobs cancel immediately; running jobs cancel at the next
//! cell boundary (the simulator itself is never interrupted mid-cell,
//! so every cached cell is complete). Terminal states never change.

use pfsim_analysis::Json;
use pfsim_bench::spec::wire::WireSpec;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating (or replaying cached) cells.
    Running,
    /// All cells produced; the manifest is written and validated.
    Done,
    /// The run aborted (a cell panicked, or assembly or validation
    /// failed).
    Failed,
    /// Cancelled by the client before completion.
    Cancelled,
    /// Exceeded its wall-clock budget at a cell boundary.
    TimedOut,
}

impl JobState {
    /// The wire name of the state (stable API surface).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
        }
    }

    /// Whether the state is final.
    pub fn terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One submitted experiment and everything observable about it.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (rendered as `job-<n>`).
    pub id: u64,
    /// The validated spec as submitted.
    pub spec: WireSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Grid size (`apps × variants`).
    pub cells_total: usize,
    /// Cells produced so far (cached or simulated).
    pub cells_done: usize,
    /// Cells answered from the result cache.
    pub cache_hits: u64,
    /// Cells that had to be simulated.
    pub cache_misses: u64,
    /// Failure detail for `Failed`.
    pub error: Option<String>,
    /// The manifest text, once `Done`.
    pub manifest: Option<String>,
    /// Where the manifest was written, once `Done`.
    pub manifest_path: Option<String>,
    /// Set by the cancel endpoint; checked at cell boundaries.
    pub cancel_requested: bool,
    /// Progress events (NDJSON lines), appended as cells finish.
    pub events: Vec<String>,
}

impl Job {
    /// A freshly accepted job.
    pub fn new(id: u64, spec: WireSpec) -> Job {
        let cells_total = spec.apps.len() * spec.variants.len();
        Job {
            id,
            spec,
            state: JobState::Queued,
            cells_total,
            cells_done: 0,
            cache_hits: 0,
            cache_misses: 0,
            error: None,
            manifest: None,
            manifest_path: None,
            cancel_requested: false,
            events: Vec::new(),
        }
    }

    /// The job's public name (`job-<n>`).
    pub fn public_id(&self) -> String {
        format!("job-{}", self.id)
    }

    /// The status document served at `GET /jobs/<id>`.
    pub fn status_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.public_id())),
            ("name", Json::str(&self.spec.name)),
            ("state", Json::str(self.state.name())),
            ("cells_total", Json::uint(self.cells_total as u64)),
            ("cells_done", Json::uint(self.cells_done as u64)),
            ("cache_hits", Json::uint(self.cache_hits)),
            ("cache_misses", Json::uint(self.cache_misses)),
            ("error", self.error.as_deref().map_or(Json::Null, Json::str)),
            (
                "manifest_path",
                self.manifest_path.as_deref().map_or(Json::Null, Json::str),
            ),
        ])
    }
}

/// Parses a public job id (`job-<n>`) back to the numeric id.
pub fn parse_job_id(public: &str) -> Option<u64> {
    public.strip_prefix("job-")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_bench::Size;
    use pfsim_prefetch::Scheme;
    use pfsim_workloads::App;

    #[test]
    fn lifecycle_states_classify() {
        assert!(!JobState::Queued.terminal());
        assert!(!JobState::Running.terminal());
        for s in [
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::TimedOut,
        ] {
            assert!(s.terminal(), "{} is terminal", s.name());
        }
    }

    #[test]
    fn job_status_reports_grid_shape() {
        let spec = WireSpec::baseline_grid(
            "t",
            Size::Default,
            &[App::Mp3d, App::Water],
            &[Scheme::Sequential { degree: 1 }],
        );
        let job = Job::new(3, spec);
        assert_eq!(job.cells_total, 4);
        assert_eq!(job.public_id(), "job-3");
        assert_eq!(parse_job_id("job-3"), Some(3));
        assert_eq!(parse_job_id("job-x"), None);
        let doc = job.status_json();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(doc.get("cells_total").unwrap().as_u64(), Some(4));
    }
}
