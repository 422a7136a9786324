//! **mlbench** — the repository's end-to-end benchmark.
//!
//! Three workloads drive the MLbox pipeline through its public API, one
//! workload per process, closed-loop with one client:
//!
//! - [`hot`]: the Table 1 filters, specialized during set-up, served in
//!   64-packet batches through a one-worker pool (dispatch-bound);
//! - [`churn`]: about a thousand tenant filters persisted to an artifact
//!   store during set-up, then requested with Zipf-skewed popularity
//!   through a store-backed pool whose cache is much smaller than the
//!   tenant count (bound by the miss path);
//! - [`staged`]: the paper's §3 programs compiled from source, each
//!   program in a fresh session (bound by the front end and run-time
//!   code generation).
//!
//! Every item is checked against a reference that is not the CCAM. The
//! traced run ([`trace`]) times each layer's public entry points from
//! outside and derives the per-layer metrics.

pub mod churn;
pub mod front;
pub mod hot;
pub mod reference;
pub mod report;
pub mod rng;
pub mod serve;
pub mod staged;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Reference kernel runs timed at process start and again when set-up is
/// done.
pub const KERNEL_RUNS_AT_READY: usize = 8;

/// One worker process's settings and its private scratch directory
/// (removed when the `Env` drops).
#[derive(Debug)]
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Stop once set-up is done (a set-up timing run).
    pub setup_only: bool,
    /// Scratch directory for stores and the written trace.
    pub dir: PathBuf,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Reference kernel times taken at process start, before set-up.
    pub start_kernel: Vec<Duration>,
}

impl Env {
    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A path under the scratch directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Tells the launcher set-up is over, with the process CPU time it
    /// took (process start included, the kernel runs left out) in
    /// reference seconds, timing the kernel at both ends of set-up: the
    /// launcher's `setup_s`.
    pub fn ready(&self) {
        use std::io::Write;
        let cpu = stats::process_cpu().saturating_sub(self.start_kernel.iter().sum());
        let mut kernel = self.start_kernel.clone();
        kernel.extend(reference::sample(KERNEL_RUNS_AT_READY));
        let setup = reference::at_reference_speed(cpu, &kernel).as_secs_f64();
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "READY {setup:.9}");
        let _ = out.flush();
    }

    pub fn write_trace(&self, tr: &trace::Tracer) {
        if let Some(path) = &self.trace_out {
            if let Err(e) = tr.write(path) {
                eprintln!("mlbench: cannot write trace to {}: {e}", path.display());
            }
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
