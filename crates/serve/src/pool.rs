//! The batched worker pool.
//!
//! Each worker thread owns a private [`Machine`] — CCAM values are
//! `Rc`/`RefCell` graphs, so a shared machine behind a lock would
//! serialize exactly the work the pool exists to parallelize. Workers
//! drain `BatchRequest`s from one bounded channel (natural
//! backpressure: `submit` blocks when the queue is full; `try_submit`
//! sheds with a typed reason instead), resolve the filter through the
//! shared [`FilterCache`] (optionally backed by a disk
//! [`ArtifactStore`]), hydrate the artifact once into their own heap,
//! and run the batch packet by packet, recording a verdict and a
//! reduction-step count per packet. Every batch's queue wait and
//! service time land in a shared [`LatencyHistogram`].

use crate::cache::{CacheKey, CacheStats, FilterCache};
use crate::hist::{LatencyHistogram, LatencySnapshot};
use crate::store::ArtifactStore;
use crate::swap::SwappableFilter;
use ccam::machine::Machine;
use ccam::value::Value;
use mlbox::artifact::{app_code, apply, machine_for};
use mlbox::SessionOptions;
use mlbox_bpf::harness::{expect_verdict, filter_arg};
use mlbox_bpf::insn::Insn;
use mlbox_bpf::packet::Packet;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (each owns a machine).
    pub workers: usize,
    /// Bounded request-queue depth; `submit` blocks beyond it and
    /// `try_submit` sheds.
    pub queue_depth: usize,
    /// Capacity of the specialization cache created by
    /// [`ServePool::new`] (ignored by [`ServePool::with_cache`]).
    pub cache_capacity: usize,
    /// Machine/compilation mode for every artifact the pool serves.
    pub options: SessionOptions,
    /// Disk tier behind the cache: misses load persisted artifacts
    /// before falling back to specialization, and fresh specializations
    /// are persisted for the next cold start.
    pub store: Option<Arc<ArtifactStore>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 64,
            options: SessionOptions::default(),
            store: None,
        }
    }
}

/// One unit of pool work: a filter and the packets to run through it.
#[derive(Debug)]
struct BatchRequest {
    filter: Arc<Vec<Insn>>,
    packets: Vec<Packet>,
    /// Generation the filter was snapshotted at, for swappable filters.
    generation: Option<u64>,
    submitted: Instant,
    reply: Sender<BatchResult>,
}

/// Per-packet results of one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    /// Filter verdict per packet, in submission order.
    pub verdicts: Vec<i64>,
    /// CCAM reduction steps per packet, in submission order.
    pub steps: Vec<u64>,
}

/// What comes back for a submitted batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Which worker ran the batch.
    pub worker: usize,
    /// Fingerprint of the filter program the batch ran against.
    pub filter_fingerprint: u64,
    /// The filter generation the batch was submitted under, for batches
    /// submitted through a [`SwappableFilter`].
    pub generation: Option<u64>,
    /// Time the batch waited in the queue before a worker picked it up.
    pub queued_nanos: u64,
    /// Time the worker spent on the batch (cache resolution, hydration
    /// if needed, and running every packet).
    pub service_nanos: u64,
    /// Per-packet outputs, or a rendered error (specialization or
    /// machine failure).
    pub outcome: Result<BatchOutput, String>,
}

/// Why a batch was refused admission (never silently dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity; shedding now is cheaper than
    /// queueing into a latency collapse.
    QueueFull {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// Every worker has exited (the pool is shutting down).
    PoolClosed,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { depth } => {
                write!(f, "request shed: queue full at depth {depth}")
            }
            AdmissionError::PoolClosed => write!(f, "request shed: pool closed"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A handle to one in-flight batch.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<BatchResult>,
}

impl Ticket {
    /// Blocks until the batch completes.
    ///
    /// # Panics
    ///
    /// Panics if the pool was torn down without answering (a bug — the
    /// worker replies even on failure).
    pub fn wait(self) -> BatchResult {
        self.rx
            .recv()
            .expect("pool dropped a batch without replying")
    }
}

/// Counters from one worker's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Batches drained.
    pub batches: u64,
    /// Packets run.
    pub packets: u64,
    /// Total CCAM reduction steps across those packets.
    pub steps: u64,
    /// Artifact hydrations (local installs of cached artifacts).
    pub installs: u64,
    /// Blocks the worker's machine promoted under an adaptive tier
    /// policy ([`SessionOptions::adaptive`]); zero for static profiles.
    pub promotions: u64,
    /// Freeze misses that re-rendered an already-frozen arena (the
    /// arena grew between runs).
    pub refreezes: u64,
    /// Baseline reduction steps the worker's machine executed at each
    /// tier (0 cold, 1 fused). Sums to `steps` under an adaptive
    /// policy; all zero under static profiles.
    pub tier_steps: [u64; 2],
}

/// The pool's final accounting, returned by [`ServePool::shutdown`].
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// One entry per worker.
    pub workers: Vec<WorkerStats>,
    /// Shared-cache counters at shutdown.
    pub cache: CacheStats,
    /// Batches refused by [`ServePool::try_submit`].
    pub shed: u64,
    /// End-to-end (queue + service) batch latency distribution.
    pub latency: LatencySnapshot,
}

impl PoolReport {
    /// Packets run across all workers.
    pub fn total_packets(&self) -> u64 {
        self.workers.iter().map(|w| w.packets).sum()
    }

    /// Reduction steps across all workers.
    pub fn total_steps(&self) -> u64 {
        self.workers.iter().map(|w| w.steps).sum()
    }

    /// Tier promotions across all workers (adaptive profiles only).
    pub fn total_promotions(&self) -> u64 {
        self.workers.iter().map(|w| w.promotions).sum()
    }

    /// Stale-snapshot re-renderings across all workers.
    pub fn total_refreezes(&self) -> u64 {
        self.workers.iter().map(|w| w.refreezes).sum()
    }

    /// Baseline steps executed at each tier across all workers — the
    /// pool's tier occupancy. Index 0 is the cold interpreter, 1 the
    /// fused rendering.
    pub fn tier_occupancy(&self) -> [u64; 2] {
        let mut total = [0u64; 2];
        for w in &self.workers {
            for (slot, steps) in total.iter_mut().zip(w.tier_steps) {
                *slot += steps;
            }
        }
        total
    }
}

/// A running pool of filter-serving workers.
#[derive(Debug)]
pub struct ServePool {
    tx: Option<SyncSender<BatchRequest>>,
    handles: Vec<JoinHandle<WorkerStats>>,
    cache: Arc<FilterCache>,
    latency: Arc<LatencyHistogram>,
    shed: AtomicU64,
    queue_depth: usize,
}

// Workers hydrate artifacts and run the CCAM, both of which recurse on
// the Rust stack; give them room well beyond the 2 MiB default.
const WORKER_STACK: usize = 64 * 1024 * 1024;

impl ServePool {
    /// Spawns `config.workers` workers around a fresh cache.
    pub fn new(config: PoolConfig) -> ServePool {
        let cache = Arc::new(FilterCache::new(config.cache_capacity));
        ServePool::with_cache(config, cache)
    }

    /// Spawns workers around an existing (possibly pre-warmed, possibly
    /// shared with other pools) cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero or a worker thread cannot be
    /// spawned.
    pub fn with_cache(config: PoolConfig, cache: Arc<FilterCache>) -> ServePool {
        assert!(config.workers > 0, "a pool needs at least one worker");
        let queue_depth = config.queue_depth.max(1);
        let (tx, rx) = sync_channel::<BatchRequest>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let latency = Arc::new(LatencyHistogram::new());
        let handles = (0..config.workers)
            .map(|index| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let options = config.options.clone();
                let store = config.store.clone();
                let latency = Arc::clone(&latency);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || {
                        worker_loop(index, &rx, &cache, &options, store.as_deref(), &latency)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ServePool {
            tx: Some(tx),
            handles,
            cache,
            latency,
            shed: AtomicU64::new(0),
            queue_depth,
        }
    }

    /// The pool's specialization cache (e.g. for pre-warming).
    pub fn cache(&self) -> &Arc<FilterCache> {
        &self.cache
    }

    /// Batches refused by [`try_submit`](ServePool::try_submit) so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The end-to-end latency distribution recorded so far.
    pub fn latency(&self) -> LatencySnapshot {
        self.latency.snapshot()
    }

    /// Enqueues a batch; blocks while the queue is full. The returned
    /// [`Ticket`] resolves when a worker finishes the batch.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ServePool::shutdown`] (impossible by
    /// construction — `shutdown` consumes the pool).
    pub fn submit(&self, filter: Arc<Vec<Insn>>, packets: Vec<Packet>) -> Ticket {
        self.submit_tagged(filter, packets, None)
    }

    /// Enqueues a batch against the current generation of a swappable
    /// filter slot; the result carries the generation the batch was
    /// snapshotted at. Blocks while the queue is full.
    pub fn submit_swappable(&self, slot: &SwappableFilter, packets: Vec<Packet>) -> Ticket {
        let (generation, filter) = slot.current();
        self.submit_tagged(filter, packets, Some(generation))
    }

    fn submit_tagged(
        &self,
        filter: Arc<Vec<Insn>>,
        packets: Vec<Packet>,
        generation: Option<u64>,
    ) -> Ticket {
        let (reply, rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("pool is shut down")
            .send(BatchRequest {
                filter,
                packets,
                generation,
                submitted: Instant::now(),
                reply,
            })
            .expect("all pool workers died");
        Ticket { rx }
    }

    /// Admission-controlled submit: enqueues the batch if the bounded
    /// queue has room, otherwise sheds immediately with the reason —
    /// under overload, refusing new work beats queueing into a latency
    /// collapse. Shed batches are counted (see
    /// [`shed`](ServePool::shed) and [`PoolReport::shed`]).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when the queue is at capacity;
    /// [`AdmissionError::PoolClosed`] when the workers are gone.
    pub fn try_submit(
        &self,
        filter: Arc<Vec<Insn>>,
        packets: Vec<Packet>,
    ) -> Result<Ticket, AdmissionError> {
        self.try_submit_tagged(filter, packets, None)
    }

    /// [`try_submit`](ServePool::try_submit) against the current
    /// generation of a swappable filter slot.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`try_submit`](ServePool::try_submit).
    pub fn try_submit_swappable(
        &self,
        slot: &SwappableFilter,
        packets: Vec<Packet>,
    ) -> Result<Ticket, AdmissionError> {
        let (generation, filter) = slot.current();
        self.try_submit_tagged(filter, packets, Some(generation))
    }

    fn try_submit_tagged(
        &self,
        filter: Arc<Vec<Insn>>,
        packets: Vec<Packet>,
        generation: Option<u64>,
    ) -> Result<Ticket, AdmissionError> {
        let (reply, rx) = mpsc::channel();
        let request = BatchRequest {
            filter,
            packets,
            generation,
            submitted: Instant::now(),
            reply,
        };
        match self
            .tx
            .as_ref()
            .expect("pool is shut down")
            .try_send(request)
        {
            Ok(()) => Ok(Ticket { rx }),
            Err(TrySendError::Full(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err(AdmissionError::QueueFull {
                    depth: self.queue_depth,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err(AdmissionError::PoolClosed)
            }
        }
    }

    /// Graceful shutdown: closes the queue, lets workers drain what was
    /// already submitted, joins them, and returns the final accounting.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic.
    pub fn shutdown(mut self) -> PoolReport {
        self.tx = None; // disconnect: workers finish the queue, then exit
        let workers = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("pool worker panicked"))
            .collect();
        PoolReport {
            workers,
            cache: self.cache.stats(),
            shed: self.shed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        // `shutdown` already drained `handles`; otherwise make sure no
        // worker threads outlive the pool.
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    index: usize,
    rx: &Mutex<Receiver<BatchRequest>>,
    cache: &FilterCache,
    options: &SessionOptions,
    store: Option<&ArtifactStore>,
    latency: &LatencyHistogram,
) -> WorkerStats {
    let mut machine = machine_for(options);
    let app = app_code();
    // This worker's hydrated entry points: the shared artifact is
    // `Arc`ed portable data; each worker rebuilds it as `Rc` values in
    // its own heap exactly once per filter.
    let mut installed: HashMap<CacheKey, Value> = HashMap::new();
    let mut stats = WorkerStats {
        worker: index,
        batches: 0,
        packets: 0,
        steps: 0,
        installs: 0,
        promotions: 0,
        refreezes: 0,
        tier_steps: [0; 2],
    };
    loop {
        // Hold the receiver lock only for the dequeue, not the work.
        let request = match rx.lock().expect("pool queue poisoned").recv() {
            Ok(r) => r,
            Err(_) => break, // queue closed and drained: graceful exit
        };
        let queued_nanos =
            u64::try_from(request.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let started = Instant::now();
        let result = run_batch(
            &mut machine,
            &app,
            cache,
            options,
            store,
            &mut installed,
            &request,
            &mut stats,
        );
        let service_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        latency.record_nanos(queued_nanos.saturating_add(service_nanos));
        stats.batches += 1;
        let fingerprint = mlbox_bpf::insn::fingerprint(&request.filter);
        // A dropped ticket is the caller's business, not an error here.
        let _ = request.reply.send(BatchResult {
            worker: index,
            filter_fingerprint: fingerprint,
            generation: request.generation,
            queued_nanos,
            service_nanos,
            outcome: result,
        });
    }
    // Tier counters live on the machine (promotion is a machine-level
    // event, not a per-packet one); fold the lifetime totals in on exit.
    let machine_stats = machine.stats();
    stats.promotions = machine_stats.promotions;
    stats.refreezes = machine_stats.refreezes;
    stats.tier_steps = machine_stats.tier_steps;
    stats
}

#[allow(clippy::too_many_arguments)]
fn run_batch(
    machine: &mut Machine,
    app: &ccam::CodeRef,
    cache: &FilterCache,
    options: &SessionOptions,
    store: Option<&ArtifactStore>,
    installed: &mut HashMap<CacheKey, Value>,
    request: &BatchRequest,
    stats: &mut WorkerStats,
) -> Result<BatchOutput, String> {
    let key = CacheKey::new(&request.filter, options);
    // Every batch is one cache request — the hit/miss counters account
    // for batches, not workers. The shared lookup is cheap (a read lock
    // plus a `OnceLock` read); only the *hydration* of the artifact into
    // this worker's Rc heap is memoized locally.
    let artifact = match store {
        Some(store) => cache.get_or_load_or_specialize(&request.filter, options, store)?,
        None => cache.get_or_specialize(&request.filter, options)?,
    };
    let entry = match installed.get(&key) {
        Some(v) => v.clone(),
        None => {
            // Checked hydration: a frame-bearing (flat_env) artifact
            // must never install into a worker running another env
            // mode. The cache key already separates the modes, so this
            // only fires if an artifact was handed over out of band.
            let entry = artifact
                .hydrate_entry_for(options)
                .map_err(|e| e.to_string())?;
            stats.installs += 1;
            installed.insert(key, entry.clone());
            entry
        }
    };
    let mut verdicts = Vec::with_capacity(request.packets.len());
    let mut steps = Vec::with_capacity(request.packets.len());
    for pkt in &request.packets {
        let (value, delta) =
            apply(machine, app, &entry, filter_arg(pkt)).map_err(|e| e.to_string())?;
        verdicts.push(expect_verdict(&value).map_err(|e| e.to_string())?);
        steps.push(delta.steps);
        stats.packets += 1;
        stats.steps += delta.steps;
    }
    Ok(BatchOutput { verdicts, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_bpf::{port_filter, telnet_filter, FilterHarness, PacketGen};

    #[test]
    fn pool_serves_batches_and_shuts_down() {
        let pool = ServePool::new(PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        });
        let filter = Arc::new(telnet_filter());
        let mut g = PacketGen::new(31);
        let packets = g.workload(6, 0.5);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(Arc::clone(&filter), packets.clone()))
            .collect();
        let mut outputs = Vec::new();
        for t in tickets {
            let result = t.wait();
            assert_eq!(result.generation, None);
            assert!(result.service_nanos > 0);
            outputs.push(result.outcome.expect("batch runs"));
        }
        // Same filter, same packets, any worker: identical answers.
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
        let report = pool.shutdown();
        assert_eq!(report.total_packets(), 24);
        assert_eq!(report.cache.misses, 1, "one specialization for 4 batches");
        assert_eq!(report.cache.hits, 3);
        assert_eq!(report.shed, 0);
        assert_eq!(report.latency.count, 4, "one latency sample per batch");
    }

    #[test]
    fn pool_matches_the_harness_oracle() {
        let filter = port_filter(80);
        let mut g = PacketGen::new(32);
        let packets = g.workload(5, 0.4);
        let mut oracle = FilterHarness::new(&filter).unwrap();
        let mut instance = oracle.compile_artifact().unwrap().instantiate();
        let pool = ServePool::new(PoolConfig::default());
        let out = pool
            .submit(Arc::new(filter), packets.clone())
            .wait()
            .outcome
            .unwrap();
        for (i, pkt) in packets.iter().enumerate() {
            let (v, s) = instance.run(filter_arg(pkt)).unwrap();
            assert_eq!(out.verdicts[i], expect_verdict(&v).unwrap());
            assert_eq!(out.steps[i], s.steps, "packet {i} step count");
        }
    }

    #[test]
    fn specialization_failures_come_back_as_errors() {
        let pool = ServePool::new(PoolConfig::default());
        let bad = Arc::new(vec![Insn::JeqK { k: 0, jt: 9, jf: 9 }]);
        let result = pool.submit(Arc::clone(&bad), vec![]).wait();
        assert!(result.outcome.is_err());
        // And the failure is cached, not recomputed.
        let again = pool.submit(bad, vec![]).wait();
        assert!(again.outcome.is_err());
        let report = pool.shutdown();
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 1);
    }

    #[test]
    fn overload_sheds_with_a_reason_instead_of_blocking() {
        // One worker, queue depth 1: the worker parks on the first slow
        // batch while the queue holds one more; every further try_submit
        // must shed with QueueFull, not block.
        let pool = ServePool::new(PoolConfig {
            workers: 1,
            queue_depth: 1,
            ..PoolConfig::default()
        });
        let filter = Arc::new(telnet_filter());
        let mut g = PacketGen::new(33);
        let packets = g.workload(40, 0.5);
        let mut tickets = Vec::new();
        let mut shed = 0usize;
        // Submit far more than (in-flight + queue) can hold at once.
        for _ in 0..24 {
            match pool.try_submit(Arc::clone(&filter), packets.clone()) {
                Ok(t) => tickets.push(t),
                Err(AdmissionError::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    shed += 1;
                }
                Err(AdmissionError::PoolClosed) => panic!("pool is open"),
            }
        }
        assert!(shed > 0, "a 1-deep queue cannot admit 24 instant submits");
        // Everything admitted still completes correctly.
        for t in tickets {
            t.wait().outcome.expect("admitted batch runs");
        }
        let report = pool.shutdown();
        assert_eq!(report.shed, shed as u64);
        assert_eq!(report.latency.count, 24 - report.shed, "admitted batches");
    }

    #[test]
    fn adaptive_pool_promotes_and_matches_the_plain_oracle() {
        // A pool serving under an adaptive profile must return exactly
        // the verdicts and step counts of the plain (Paper) profile —
        // promotion changes the rendering, never the observable cost —
        // while the report shows the tier controller actually working.
        let policy = mlbox::TierPolicy {
            promote_after: 1,
            ..mlbox::TierPolicy::default()
        };
        let options = SessionOptions {
            adaptive: Some(policy),
            ..SessionOptions::default()
        };
        let filter = port_filter(80);
        let mut g = PacketGen::new(35);
        let packets = g.workload(8, 0.4);
        let mut oracle = FilterHarness::new(&filter).unwrap();
        let mut instance = oracle.compile_artifact().unwrap().instantiate();
        let pool = ServePool::new(PoolConfig {
            workers: 1,
            options,
            ..PoolConfig::default()
        });
        // Several batches so blocks cross the promotion threshold.
        let outputs: Vec<BatchOutput> = (0..4)
            .map(|_| {
                pool.submit(Arc::new(filter.clone()), packets.clone())
                    .wait()
                    .outcome
                    .expect("adaptive batch runs")
            })
            .collect();
        for out in &outputs {
            for (i, pkt) in packets.iter().enumerate() {
                let (v, s) = instance.run(filter_arg(pkt)).unwrap();
                assert_eq!(out.verdicts[i], expect_verdict(&v).unwrap());
                assert_eq!(out.steps[i], s.steps, "packet {i} step count");
            }
        }
        let report = pool.shutdown();
        assert!(report.total_promotions() > 0, "no block was promoted");
        let occupancy = report.tier_occupancy();
        assert_eq!(
            occupancy.iter().sum::<u64>(),
            report.total_steps(),
            "tier occupancy must partition the pool's steps"
        );
        assert!(occupancy[1] > 0, "promoted blocks should run fused");
    }

    #[test]
    fn swappable_submissions_carry_their_generation() {
        let pool = ServePool::new(PoolConfig::default());
        let slot = SwappableFilter::new(telnet_filter());
        let mut g = PacketGen::new(34);
        let packets = g.workload(4, 0.5);
        let before = pool.submit_swappable(&slot, packets.clone());
        slot.swap(port_filter(23));
        let after = pool.submit_swappable(&slot, packets.clone());
        let r0 = before.wait();
        let r1 = after.wait();
        assert_eq!(r0.generation, Some(0));
        assert_eq!(r1.generation, Some(1));
        // Both generations of the telnet-ish filters agree on verdicts
        // only if the programs agree; what must hold unconditionally is
        // that each batch ran against its snapshot's fingerprint.
        assert_eq!(
            r0.filter_fingerprint,
            mlbox_bpf::insn::fingerprint(&telnet_filter())
        );
        assert_eq!(
            r1.filter_fingerprint,
            mlbox_bpf::insn::fingerprint(&port_filter(23))
        );
        pool.shutdown();
    }
}
