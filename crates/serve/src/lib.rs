//! **mlbox-serve** — a concurrent filter-serving engine over the CCAM.
//!
//! The paper's premise is *generate once, run many*: a generating
//! extension pays its specialization cost once and the generated code is
//! then run on a stream of inputs (Table 1's packet-filter rows). This
//! crate makes that operational at production shape:
//!
//! - a **specialization cache** ([`cache`]) keyed by (filter-program
//!   fingerprint, [`SessionOptions`](mlbox::SessionOptions) fingerprint),
//!   guaranteeing that N workers requesting the same filter trigger
//!   exactly one specialization, and evicting the least recently used
//!   entry at an exact capacity;
//! - a **batched worker pool** ([`pool`]) of threads that each own a
//!   private [`Machine`](ccam::Machine), drain packet batches from a
//!   bounded channel (blocking `submit` or shed-with-reason
//!   `try_submit`), and run them against cached
//!   [`CompiledFilter`](mlbox::CompiledFilter) artifacts;
//! - a **disk artifact store** ([`store`]) persisting specialized
//!   filters in the versioned, checksummed `mlbox::wire` container, so
//!   a cold process hydrates yesterday's artifacts instead of
//!   re-running the generator;
//! - **hot swap** ([`swap`]): generation-keyed filter slots whose
//!   program can be replaced under live traffic, in-flight batches
//!   draining against the snapshot they were submitted with;
//! - **latency histograms** ([`hist`]): lock-free log-bucketed
//!   end-to-end batch latency, surfacing p50/p99 per configuration;
//! - a `serve-bench` binary sweeping workers × batch size over the
//!   Table 1 filters (plus `--persist` cold-start and `--tenants`
//!   multi-tenant sweeps), verifying every verdict and step count
//!   against the single-threaded oracle, and emitting
//!   `BENCH_serve.json` / `BENCH_serve_persist.json`.
//!
//! Machines stay single-threaded — CCAM values are `Rc`/`RefCell`
//! graphs, and sharing one machine behind a lock would serialize exactly
//! the work we want to parallelize. What crosses threads is the frozen
//! *artifact*, held as its checksummed wire bytes (`Send + Sync` by
//! construction); each worker decodes it once into its own heap and runs
//! packets locally.

pub mod cache;
pub mod hist;
pub mod pool;
pub mod store;
pub mod swap;

pub use cache::{CacheKey, CacheStats, FilterCache, SpecializationCache};
pub use hist::{LatencyHistogram, LatencySnapshot};
pub use pool::{
    AdmissionError, BatchOutput, BatchResult, PoolConfig, PoolReport, ServePool, Ticket,
    WorkerStats,
};
pub use store::{ArtifactStore, StoreError, StoreStats};
pub use swap::SwappableFilter;
