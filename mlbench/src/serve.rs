//! What the two serve workloads share: tenants and their requests,
//! specialization with generator accounting, the independent references
//! every verdict and step count is checked against, the pooled closed
//! loop, and the in-thread replay of the pool's layer calls that the
//! traced run times.

use crate::front;
use crate::report::Report;
use crate::stats::{peak_rss_mb, Recorder};
use crate::trace::Tracer;
use crate::Env;
use ccam::value::Value;
use mlbox::artifact::{app_code, apply, machine_for};
use mlbox::{CompiledFilter, SessionOptions};
use mlbox_bpf::mlsrc::{filter_decl, BPF_ML};
use mlbox_bpf::native::run_filter;
use mlbox_bpf::{expect_verdict, filter_arg, fingerprint, FilterHarness, Insn, Packet};
use mlbox_serve::{ArtifactStore, CacheKey, FilterCache, ServePool};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// One filter program served under the default (Paper-profile) options.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub filter: Arc<Vec<Insn>>,
    pub key: CacheKey,
}

impl Tenant {
    pub fn new(filter: Vec<Insn>) -> Tenant {
        let key = CacheKey::new(&filter, &SessionOptions::default());
        Tenant {
            filter: Arc::new(filter),
            key,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.filter)
    }
}

/// One batch for one tenant, with its expected per-packet outputs.
#[derive(Debug, Clone)]
pub struct Request {
    pub tenant: usize,
    pub packets: Vec<Packet>,
    /// Verdicts of `bpf::native::run_filter`, the trusted baseline.
    pub verdicts: Vec<i64>,
    /// Steps of a single-threaded `FilterInstance` oracle.
    pub steps: Vec<u64>,
}

impl Request {
    pub fn new(tenant: usize, packets: Vec<Packet>) -> Request {
        Request {
            tenant,
            packets,
            verdicts: Vec::new(),
            steps: Vec::new(),
        }
    }
}

/// Runs a tenant's generating extension once through a fresh harness
/// session, recording the generator's time and machine counters.
pub fn specialize(filter: &[Insn], tr: &mut Tracer) -> Result<CompiledFilter, String> {
    tr.begin("bpf.harness.new");
    let harness = FilterHarness::new(filter).map_err(|e| e.to_string());
    tr.end("bpf.harness.new");
    let mut harness = harness?;
    let before = harness.machine_stats();
    tr.begin("ccam.generate");
    let artifact = harness.compile_artifact().map_err(|e| e.to_string());
    tr.end("ccam.generate");
    let stats = harness.machine_stats().delta_since(&before);
    tr.count("ccam.generate_runs", 1.0);
    tr.count("ccam.generate_steps", stats.steps as f64);
    tr.count("ccam.emitted", stats.emitted as f64);
    tr.count("ccam.freezes", stats.freezes as f64);
    tr.count("ccam.freeze_hits", stats.freeze_hits as f64);
    artifact
}

/// Fills in the expected outputs of `requests` (all for `tenant`'s
/// `artifact`): steps from a fresh single-threaded instance, verdicts
/// from the native interpreter. The two must agree on every verdict.
pub fn expect(
    tenant: &Tenant,
    artifact: &CompiledFilter,
    requests: &mut [&mut Request],
) -> Result<(), String> {
    let mut oracle = artifact.instantiate();
    for req in requests.iter_mut() {
        req.verdicts.clear();
        req.steps.clear();
        for pkt in &req.packets {
            let (v, s) = oracle.run(filter_arg(pkt)).map_err(|e| e.to_string())?;
            let ccam = expect_verdict(&v).map_err(|e| e.to_string())?;
            let native = run_filter(&tenant.filter, &pkt.bytes);
            if ccam != native {
                return Err(format!(
                    "oracle disagrees with the native filter: {ccam} vs {native}"
                ));
            }
            req.verdicts.push(native);
            req.steps.push(s.steps);
        }
    }
    Ok(())
}

/// Packets whose verdict or step count disagrees with `req`'s
/// references (all of them if the counts do not line up).
fn mismatches(req: &Request, verdicts: &[i64], steps: &[u64]) -> u64 {
    if verdicts.len() != req.packets.len() || steps.len() != req.packets.len() {
        return req.packets.len() as u64;
    }
    (0..req.packets.len())
        .filter(|&i| verdicts[i] != req.verdicts[i] || steps[i] != req.steps[i])
        .count() as u64
}

/// Sends each of `requests` through `pool` once, untimed, checking every
/// output against the references.
pub fn warm(pool: &ServePool, tenants: &[Tenant], requests: &[Request]) -> Result<(), String> {
    for req in requests {
        let out = pool
            .submit(Arc::clone(&tenants[req.tenant].filter), req.packets.clone())
            .wait()
            .outcome?;
        if mismatches(req, &out.verdicts, &out.steps) > 0 {
            return Err("warm-up batch disagrees with the references".to_string());
        }
    }
    Ok(())
}

/// The closed loop: one client, one request outstanding, through the
/// pool. Runs until the recorder's window closes and at least one full
/// cycle has completed; returns the steps per packet over that first
/// cycle (exact for a seed).
pub fn run_pooled(
    pool: &ServePool,
    tenants: &[Tenant],
    cycle: &[Request],
    rec: &mut Recorder,
) -> f64 {
    let (mut steps, mut packets) = (0u64, 0u64);
    let mut i = 0usize;
    while i < cycle.len() || !rec.done() {
        let req = &cycle[i % cycle.len()];
        let filter = Arc::clone(&tenants[req.tenant].filter);
        let batch = req.packets.clone();
        let n = req.packets.len() as u64;
        let t0 = rec.stamp();
        let failed = match pool.try_submit(filter, batch) {
            Ok(ticket) => match ticket.wait().outcome {
                Ok(out) => {
                    if i < cycle.len() {
                        steps += out.steps.iter().sum::<u64>();
                        packets += n;
                    }
                    mismatches(req, &out.verdicts, &out.steps)
                }
                Err(_) => n,
            },
            Err(_) => n,
        };
        rec.record(t0, n, failed);
        i += 1;
    }
    steps as f64 / packets.max(1) as f64
}

/// Where the replay gets artifacts on a cache miss.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// The disk store (the pool's `get_or_load_or_specialize` path).
    Store(&'a ArtifactStore),
    /// Artifacts specialized during set-up, by tenant.
    Prebuilt(&'a [Arc<CompiledFilter>]),
}

/// A replay, on one thread and without the pool's queue, of what a pool
/// worker does per batch — cache lookup, store load on a miss, hydrate
/// on first sight, dispatch each packet — with a span around each layer
/// call. Request latency covers
/// only those calls; after each request, outside its span, the replay
/// also times the native filter on the same packets and, for every
/// artifact the request loaded, a wire decode of its stored bytes.
pub struct Replay<'a> {
    tenants: &'a [Tenant],
    cache: FilterCache,
    source: Source<'a>,
    machine: ccam::machine::Machine,
    app: ccam::CodeRef,
    installed: HashMap<CacheKey, Value>,
    options: SessionOptions,
}

/// Native filter repetitions per request, so its span is long enough to
/// time with a wall clock.
const NATIVE_REPS: usize = 16;

impl<'a> Replay<'a> {
    pub fn new(tenants: &'a [Tenant], cache_capacity: usize, source: Source<'a>) -> Replay<'a> {
        let options = SessionOptions::default();
        Replay {
            tenants,
            cache: FilterCache::new(cache_capacity),
            source,
            machine: machine_for(&options),
            app: app_code(),
            installed: HashMap::new(),
            options,
        }
    }

    /// Replays `cycle` until the window closes.
    pub fn run(&mut self, cycle: &[Request], rec: &mut Recorder, tr: &mut Tracer) {
        let mut i = 0usize;
        while !rec.done() {
            let req = &cycle[i % cycle.len()];
            tr.next_request();
            let t0 = rec.stamp();
            let result = self.request(req, tr);
            let failed = match &result {
                Ok((verdicts, steps, _)) => mismatches(req, verdicts, steps),
                Err(_) => req.packets.len() as u64,
            };
            rec.record(t0, req.packets.len() as u64, failed);
            if tr.enabled() {
                self.native(req, tr);
                if let Ok((_, _, true)) = result {
                    self.decode(req, tr);
                }
            }
            i += 1;
        }
    }

    /// One batch; the flag says whether the artifact came from the store.
    fn request(
        &mut self,
        req: &Request,
        tr: &mut Tracer,
    ) -> Result<(Vec<i64>, Vec<u64>, bool), String> {
        let tenant = &self.tenants[req.tenant];
        let key = tenant.key;
        let mut loaded = false;
        tr.begin("serve.request");
        tr.begin("serve.cache.lookup");
        let source = &self.source;
        let options = &self.options;
        let artifact = self.cache.get_or_init(key, || match source {
            Source::Store(store) => {
                tr.begin("serve.store.load");
                let found = store.load(key.filter, options).map_err(|e| e.to_string());
                tr.end("serve.store.load");
                loaded = true;
                found?
                    .map(Arc::new)
                    .ok_or_else(|| "tenant missing from the store".to_string())
            }
            Source::Prebuilt(artifacts) => Ok(Arc::clone(&artifacts[req.tenant])),
        });
        tr.end("serve.cache.lookup");
        let result = artifact.and_then(|artifact| {
            let entry = match self.installed.get(&key) {
                Some(v) => v.clone(),
                None => {
                    tr.begin("core.artifact.hydrate");
                    let entry = artifact
                        .hydrate_entry_for(options)
                        .map_err(|e| e.to_string());
                    tr.end("core.artifact.hydrate");
                    let entry = entry?;
                    self.installed.insert(key, entry.clone());
                    entry
                }
            };
            tr.begin("ccam.dispatch");
            let mut verdicts = Vec::with_capacity(req.packets.len());
            let mut steps = Vec::with_capacity(req.packets.len());
            let mut total = 0;
            let mut failure = None;
            for pkt in &req.packets {
                match apply(&mut self.machine, &self.app, &entry, filter_arg(pkt)) {
                    Ok((v, s)) => {
                        verdicts.push(expect_verdict(&v).unwrap_or(i64::MIN));
                        steps.push(s.steps);
                        total += s.steps;
                    }
                    Err(e) => {
                        failure = Some(e.to_string());
                        break;
                    }
                }
            }
            tr.end("ccam.dispatch");
            tr.count("ccam.dispatch_packets", req.packets.len() as f64);
            tr.count("ccam.dispatch_steps", total as f64);
            match failure {
                Some(e) => Err(e),
                None => Ok((verdicts, steps, loaded)),
            }
        });
        tr.end("serve.request");
        result
    }

    fn native(&self, req: &Request, tr: &mut Tracer) {
        let filter = &self.tenants[req.tenant].filter;
        tr.begin("bpf.native");
        for _ in 0..NATIVE_REPS {
            for pkt in &req.packets {
                black_box(run_filter(black_box(filter), black_box(&pkt.bytes)));
            }
        }
        tr.end("bpf.native");
        tr.count(
            "bpf.native_packets",
            (NATIVE_REPS * req.packets.len()) as f64,
        );
    }

    fn decode(&self, req: &Request, tr: &mut Tracer) {
        let Source::Store(store) = self.source else {
            return;
        };
        let key = self.tenants[req.tenant].key;
        let Ok(bytes) = std::fs::read(store.path_for(key.filter, &self.options)) else {
            return;
        };
        tr.begin("core.wire.decode");
        let decoded = CompiledFilter::from_wire_bytes_for(&bytes, &self.options);
        tr.end("core.wire.decode");
        black_box(decoded.is_ok());
        tr.count("core.wire.decodes", 1.0);
        tr.count("core.wire.bytes", bytes.len() as f64);
    }
}

/// Round trip of `artifacts` through a store in `dir` — save, load, a
/// decode of the saved bytes, hydrate — `reps` times, each call in its
/// own span. On a workload whose timed path has no store, this is how
/// the traced run still measures those layers on its own artifacts.
pub fn store_probe(
    artifacts: &[Arc<CompiledFilter>],
    dir: &std::path::Path,
    reps: usize,
    tr: &mut Tracer,
) -> Result<(), String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let options = SessionOptions::default();
    for _ in 0..reps {
        for artifact in artifacts {
            tr.begin("serve.store.save");
            let saved = store.save(artifact).map_err(|e| e.to_string());
            tr.end("serve.store.save");
            let path = saved?;
            tr.begin("serve.store.load");
            let loaded = store.load(artifact.source_fingerprint(), &options);
            tr.end("serve.store.load");
            let loaded = loaded
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "saved artifact missing".to_string())?;
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            tr.begin("core.wire.decode");
            let decoded = CompiledFilter::from_wire_bytes_for(&bytes, &options);
            tr.end("core.wire.decode");
            decoded.map_err(|e| e.to_string())?;
            tr.count("core.wire.decodes", 1.0);
            tr.count("core.wire.bytes", bytes.len() as f64);
            tr.begin("core.artifact.hydrate");
            let entry = loaded.hydrate_entry_for(&options);
            tr.end("core.artifact.hydrate");
            black_box(entry.map_err(|e| e.to_string())?);
        }
    }
    Ok(())
}

/// Counts of the pooled phase a traced run reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolCounts {
    /// Median wall time of a pooled request: the pool's cost is mostly
    /// the handoff to its worker, which CPU time leaves out.
    pub p50_us: f64,
    pub hit_rate: f64,
    pub evictions: f64,
    pub installs: f64,
    pub shed: f64,
}

impl PoolCounts {
    pub fn from_report(report: &mlbox_serve::PoolReport, rec: &Recorder) -> PoolCounts {
        PoolCounts {
            p50_us: rec.wall_p50_us(),
            hit_rate: report.cache.hit_rate(),
            evictions: report.cache.evictions as f64,
            installs: report.workers.iter().map(|w| w.installs).sum::<u64>() as f64,
            shed: report.shed as f64,
        }
    }
}

/// Stack for replay threads, as large as a pool worker's.
const REPLAY_STACK: usize = 64 * 1024 * 1024;

/// Replays the cycle twice, spans off then on, each time on a fresh
/// thread as a pool worker would run it. Returns the untraced median
/// request wall time (µs) and both throughputs (items per reference
/// second).
pub fn replay_pair(
    tenants: &[Tenant],
    cycle: &[Request],
    cache_capacity: usize,
    source: Source<'_>,
    window: Duration,
    tr: &mut Tracer,
    report: &mut Report,
) -> (f64, f64, f64) {
    let mut rates = [0.0; 2];
    let mut p50 = 0.0;
    for (i, on) in [false, true].into_iter().enumerate() {
        let mut off = Tracer::new(false);
        let t = if on { &mut *tr } else { &mut off };
        let rec = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(REPLAY_STACK)
                .spawn_scoped(s, || {
                    let mut replay = Replay::new(tenants, cache_capacity, source);
                    let mut rec = Recorder::new(window);
                    replay.run(cycle, &mut rec, t);
                    rec
                })
                .expect("spawn replay thread")
                .join()
                .expect("replay thread panicked")
        });
        report.attempted += rec.attempted;
        report.failed += rec.failed;
        rates[i] = rec.throughput();
        if !on {
            p50 = rec.wall_p50_us();
        }
    }
    (p50, rates[0], rates[1])
}

/// The front end and `Session::new` are off a serve workload's timed
/// path; the traced run measures them on the sources set-up compiles for
/// `tenants` (`BPF_ML` and the filter declaration).
pub fn harness_layers(tenants: &[Tenant], tr: &mut Tracer) -> Result<(), String> {
    for tenant in tenants {
        let decl = filter_decl("theFilter", &tenant.filter);
        front::replay(&[BPF_ML, &decl], tr)?;
        tr.begin("core.session.new");
        let session = mlbox::Session::new().map_err(|e| e.to_string());
        tr.end("core.session.new");
        drop(session?);
    }
    Ok(())
}

/// The timed part of a serve workload. Untraced: the pooled closed loop
/// over the whole window, giving the end-to-end metrics. Traced: a third
/// of the window each for the pool, the untraced replay and the traced
/// replay, giving the per-layer metrics.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    env: &Env,
    pool: ServePool,
    tenants: &[Tenant],
    cycle: &[Request],
    cache_capacity: usize,
    source: Source<'_>,
    tr: &mut Tracer,
    report: &mut Report,
) {
    if !env.trace {
        let mut rec = Recorder::new(env.window());
        let steps = run_pooled(&pool, tenants, cycle, &mut rec);
        report.end_to_end(&rec, steps, peak_rss_mb());
        let done = pool.shutdown();
        eprintln!(
            "mlbench: cache hit rate {:.3} over {} lookups, {} evictions, {} installs, {} shed",
            done.cache.hit_rate(),
            done.cache.requests(),
            done.cache.evictions,
            done.workers.iter().map(|w| w.installs).sum::<u64>(),
            done.shed
        );
        return;
    }
    let third = env.window() / 3;
    let mut rec = Recorder::new(third);
    run_pooled(&pool, tenants, cycle, &mut rec);
    report.attempted += rec.attempted;
    report.failed += rec.failed;
    let counts = PoolCounts::from_report(&pool.shutdown(), &rec);
    let (replay_p50, untraced, traced) =
        replay_pair(tenants, cycle, cache_capacity, source, third, tr, report);
    report.per_layer(tr, counts, &rec, replay_p50, untraced, traced);
    env.write_trace(tr);
}
