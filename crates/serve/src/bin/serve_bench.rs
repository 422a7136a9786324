//! `serve-bench` — throughput sweep for the filter-serving engine.
//!
//! Sweeps workers × batch size over the four Table 1 filters, with every
//! packet verified against two oracles (the native BPF interpreter for
//! verdicts; a single-threaded artifact instance for verdicts *and*
//! per-packet reduction-step counts), and emits `BENCH_serve.json` on
//! stdout. Progress goes to stderr.
//!
//! Usage:
//!
//! ```text
//! serve-bench [--smoke] [--paper] [--persist]
//!             [--workers 1,2,4] [--batches 8,32] [--rounds N] [--tenants N]
//! ```
//!
//! `--smoke` is the CI configuration: 2 workers, each filter's 16 packets
//! sent in enough rounds that some worker activates it more than
//! [`PROMOTE_AFTER`] times, so promoted code runs through the oracle
//! check too — asserted from the pool's tier counters.
//! `--persist` switches to the persistence benchmark: it measures
//! cold-start (loading a stored artifact vs. re-running the generator)
//! for the Table 1 filters, then drives a multi-tenant sweep through a
//! disk-backed pool whose cache is deliberately smaller than the filter
//! population — evicted artifacts must come back from the store, not
//! the generator — and emits `BENCH_serve_persist.json` instead of
//! `BENCH_serve.json`. `--tenants N` overrides the sweep's tenant count.
//! The sweep runs the default options (flat frame environments), so
//! artifacts carry frame environments and the oracle checks flat-mode
//! step counts. `--paper` runs it (oracle included) under
//! [`SessionOptions::paper`] instead: pair-spine artifacts and the
//! paper's step counts.

use ccam::machine::PROMOTE_AFTER;
use mlbox::SessionOptions;
use mlbox_bpf::harness::{expect_verdict, filter_arg};
use mlbox_bpf::insn::Insn;
use mlbox_bpf::native::run_filter;
use mlbox_bpf::packet::Packet;
use mlbox_bpf::{
    chain_filter, multi_port_filter, port_filter, telnet_filter, FilterHarness, PacketGen,
};
use mlbox_serve::{
    AdmissionError, ArtifactStore, CacheKey, FilterCache, PoolConfig, ServePool, Ticket,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    smoke: bool,
    persist: bool,
    tenants: usize,
    workers_sweep: Vec<usize>,
    batch_sizes: Vec<usize>,
    rounds: usize,
    packets_per_filter: usize,
    /// The one options value used for the oracle harness, the pre-warm,
    /// and every pool worker — they must agree, or the exact per-packet
    /// step assertions (and the one-miss-per-filter cache identity)
    /// would compare different execution modes.
    options: SessionOptions,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let options = if args.iter().any(|a| a == "--paper") {
        SessionOptions::paper()
    } else {
        SessionOptions::default()
    };
    let list = |flag: &str, default: Vec<usize>| -> Vec<usize> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.split(',')
                    .map(|n| n.parse().expect("numeric sweep value"))
                    .collect()
            })
            .unwrap_or(default)
    };
    let scalar = |flag: &str, default: usize| -> usize { list(flag, vec![default])[0] };
    let persist = args.iter().any(|a| a == "--persist");
    if smoke {
        let packets_per_filter = 16;
        let workers_sweep = list("--workers", vec![2]);
        let workers = workers_sweep.iter().copied().max().unwrap_or(1);
        Config {
            smoke,
            persist,
            tenants: scalar("--tenants", 48),
            workers_sweep,
            batch_sizes: list("--batches", vec![16]),
            // Whichever way batches fall, some worker then serves each
            // filter more than PROMOTE_AFTER packets.
            rounds: scalar(
                "--rounds",
                (workers * PROMOTE_AFTER as usize) / packets_per_filter + 1,
            ),
            packets_per_filter,
            options,
        }
    } else {
        Config {
            smoke,
            persist,
            tenants: scalar("--tenants", 2048),
            workers_sweep: list("--workers", vec![1, 2, 4]),
            batch_sizes: list("--batches", vec![8, 32]),
            rounds: scalar("--rounds", 3),
            packets_per_filter: 64,
            options,
        }
    }
}

/// One filter's workload with oracle answers attached.
struct Workload {
    name: &'static str,
    filter: Arc<Vec<Insn>>,
    packets: Vec<Packet>,
    /// Single-threaded artifact oracle: (verdict, steps) per packet.
    expected: Vec<(i64, u64)>,
    /// Steps the one-time specialization cost (for the report).
    specialize_steps: u64,
    /// Instructions in the extracted artifact.
    artifact_instructions: usize,
}

fn build_workloads(config: &Config) -> Vec<Workload> {
    let filters: Vec<(&'static str, Vec<Insn>)> = vec![
        ("accept_telnet", telnet_filter()),
        ("accept_port_80", port_filter(80)),
        ("accept_ports_22_23_80", multi_port_filter(&[22, 23, 80])),
        ("chain_8", chain_filter(8)),
    ];
    filters
        .into_iter()
        .enumerate()
        .map(|(i, (name, filter))| {
            let mut generator = PacketGen::new(41 + i as u64);
            let packets = generator.workload(config.packets_per_filter, 0.5);
            let mut harness = FilterHarness::with_options(&filter, config.options.clone())
                .expect("harness builds");
            let specialize_steps = harness.specialize().expect("filter specializes").steps;
            let artifact = harness.compile_artifact().expect("artifact extracts");
            let artifact_instructions = artifact.instructions();
            let mut instance = artifact.instantiate();
            let expected = packets
                .iter()
                .map(|pkt| {
                    let (value, stats) = instance.run(filter_arg(pkt)).expect("oracle run");
                    let verdict = expect_verdict(&value).expect("integer verdict");
                    assert_eq!(
                        verdict,
                        run_filter(&filter, &pkt.bytes),
                        "{name}: oracle disagrees with the native interpreter"
                    );
                    (verdict, stats.steps)
                })
                .collect();
            Workload {
                name,
                filter: Arc::new(filter),
                packets,
                expected,
                specialize_steps,
                artifact_instructions,
            }
        })
        .collect()
}

struct SweepPoint {
    workers: usize,
    batch_size: usize,
    batches: u64,
    packets: u64,
    steps: u64,
    elapsed_secs: f64,
    promotions: u64,
    /// Steps run cold and promoted.
    tier_steps: [u64; 2],
}

impl SweepPoint {
    fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.elapsed_secs.max(1e-9)
    }

    fn steps_per_packet(&self) -> f64 {
        self.steps as f64 / (self.packets as f64).max(1.0)
    }
}

/// Runs one (workers, batch_size) sweep point against the shared cache,
/// verifying every batch against the oracle.
fn run_sweep_point(
    config: &Config,
    cache: &Arc<FilterCache>,
    workloads: &[Workload],
    workers: usize,
    batch_size: usize,
) -> SweepPoint {
    let pool = ServePool::with_cache(
        PoolConfig {
            workers,
            queue_depth: 64,
            cache_capacity: 64,
            options: config.options.clone(),
            store: None,
        },
        Arc::clone(cache),
    );
    let started = Instant::now();
    let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
    for _ in 0..config.rounds {
        for (w, workload) in workloads.iter().enumerate() {
            for (chunk_index, chunk) in workload.packets.chunks(batch_size).enumerate() {
                let ticket = pool.submit(Arc::clone(&workload.filter), chunk.to_vec());
                tickets.push((w, chunk_index * batch_size, ticket));
            }
        }
    }
    let mut packets = 0u64;
    let mut steps = 0u64;
    let mut batches = 0u64;
    for (w, offset, ticket) in tickets {
        let workload = &workloads[w];
        let result = ticket.wait();
        let output = result
            .outcome
            .unwrap_or_else(|e| panic!("{}: batch failed: {e}", workload.name));
        batches += 1;
        for (i, (&verdict, &step_count)) in
            output.verdicts.iter().zip(output.steps.iter()).enumerate()
        {
            let (expected_verdict, expected_steps) = workload.expected[offset + i];
            assert_eq!(
                verdict,
                expected_verdict,
                "{}: packet {} verdict diverged from the oracle",
                workload.name,
                offset + i
            );
            assert_eq!(
                step_count,
                expected_steps,
                "{}: packet {} step count diverged from the oracle",
                workload.name,
                offset + i
            );
            packets += 1;
            steps += step_count;
        }
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let report = pool.shutdown();
    SweepPoint {
        workers,
        batch_size,
        batches,
        packets,
        steps,
        elapsed_secs,
        promotions: report.total_promotions(),
        tier_steps: report.tier_occupancy(),
    }
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Cold-start numbers for one filter: what re-running the generator
/// costs vs. loading the persisted artifact, and what installing the
/// loaded artifact in a worker costs.
struct ColdStart {
    name: &'static str,
    compile_ms: f64,
    load_ms: f64,
    hydrate_ms: f64,
    speedup: f64,
}

/// Measures compile-vs-load for the Table 1 filters against `store`.
/// Compile = build a harness session and extract the artifact (what a
/// cold process without a store must do); load = read the stored
/// container, verify its checksum and fingerprints, validate its payload
/// (every check the payload decoder makes, building nothing), and
/// compatibility-check it (what a cold process with a store does);
/// hydrate = decode the loaded payload into a fresh segment and values
/// (what a pool worker does once per artifact). All three are
/// min-of-reps; the speedup is compile over load. Every loaded artifact
/// is verified to serve the same verdicts as the native interpreter.
fn measure_cold_start(config: &Config, store: &ArtifactStore) -> Vec<ColdStart> {
    let filters: Vec<(&'static str, Vec<Insn>)> = vec![
        ("accept_telnet", telnet_filter()),
        ("accept_port_80", port_filter(80)),
        ("accept_ports_22_23_80", multi_port_filter(&[22, 23, 80])),
        ("chain_8", chain_filter(8)),
    ];
    let compile_reps = if config.smoke { 2 } else { 5 };
    let load_reps = if config.smoke { 20 } else { 100 };
    filters
        .into_iter()
        .map(|(name, filter)| {
            let fingerprint = mlbox_bpf::insn::fingerprint(&filter);
            let mut compile_ms = f64::INFINITY;
            let mut artifact = None;
            for _ in 0..compile_reps {
                let started = Instant::now();
                let mut harness = FilterHarness::with_options(&filter, config.options.clone())
                    .expect("harness builds");
                let compiled = harness.compile_artifact().expect("artifact extracts");
                compile_ms = compile_ms.min(started.elapsed().as_secs_f64() * 1e3);
                artifact = Some(compiled);
            }
            store.save(&artifact.expect("compiled")).expect("save");
            let mut load_ms = f64::INFINITY;
            let mut loaded = None;
            for _ in 0..load_reps {
                let started = Instant::now();
                let from_disk = store
                    .load(fingerprint, &config.options)
                    .expect("store readable")
                    .expect("artifact was just saved");
                load_ms = load_ms.min(started.elapsed().as_secs_f64() * 1e3);
                loaded = Some(from_disk);
            }
            let loaded = loaded.expect("loaded");
            let mut hydrate_ms = f64::INFINITY;
            for _ in 0..load_reps {
                let started = Instant::now();
                let entry = loaded
                    .hydrate_entry_for(&config.options)
                    .expect("loaded artifact hydrates");
                hydrate_ms = hydrate_ms.min(started.elapsed().as_secs_f64() * 1e3);
                drop(entry);
            }
            // The loaded artifact must actually serve correctly.
            let mut instance = loaded.instantiate();
            let packets = PacketGen::new(97).workload(4, 0.5);
            for pkt in &packets {
                let (value, _) = instance.run(filter_arg(pkt)).expect("loaded artifact runs");
                assert_eq!(
                    expect_verdict(&value).expect("integer verdict"),
                    run_filter(&filter, &pkt.bytes),
                    "{name}: loaded artifact diverges from the native interpreter"
                );
            }
            let speedup = compile_ms / load_ms.max(1e-9);
            eprintln!(
                "serve-bench:   {name}: compile {compile_ms:.3} ms, load {load_ms:.3} ms \
                 ({speedup:.0}x), hydrate {hydrate_ms:.3} ms"
            );
            ColdStart {
                name,
                compile_ms,
                load_ms,
                hydrate_ms,
                speedup,
            }
        })
        .collect()
}

/// One tenant of the multi-tenant sweep.
struct Tenant {
    filter: Arc<Vec<Insn>>,
    packets: Vec<Packet>,
}

/// The `--persist` benchmark: cold-start measurement plus a
/// store-backed multi-tenant sweep with a deliberately undersized
/// cache, emitting `BENCH_serve_persist.json` on stdout.
fn run_persist(config: &Config) {
    let root = std::env::temp_dir().join(format!("mlbox-serve-bench-{}", std::process::id()));
    let store = Arc::new(ArtifactStore::open(&root).expect("open artifact store"));

    eprintln!(
        "serve-bench: measuring cold start (store at {})...",
        root.display()
    );
    let cold = measure_cold_start(config, &store);
    let min_speedup = cold.iter().map(|c| c.speedup).fold(f64::INFINITY, f64::min);
    assert!(
        min_speedup >= 10.0,
        "cold-start from the store must be >=10x faster than recompiling \
         (measured {min_speedup:.1}x)"
    );

    // The tenant sweep: `filters` distinct filter programs shared by
    // `tenants` tenants, served through a cache that cannot hold the
    // whole population (9 filters into capacity 8, so the cache must
    // evict). Every artifact that comes back after eviction is a store
    // load, not a generator run — the sweep asserts the generator ran
    // exactly once per distinct filter. Tenants take the filters round
    // robin, a cyclic scan that LRU serves with almost no hits: the
    // sweep proves evictions come back from the store, it does not
    // measure the hit rate.
    let nfilters = if config.smoke { 9 } else { 32 };
    let tenants = config.tenants;
    let cache_capacity = 8;
    let filters: Vec<Arc<Vec<Insn>>> = (0..nfilters)
        .map(|i| {
            let port = 2000 + i as u16;
            Arc::new(if i % 2 == 0 {
                port_filter(port)
            } else {
                multi_port_filter(&[22, 80, port])
            })
        })
        .collect();
    let workload: Vec<Tenant> = (0..tenants)
        .map(|t| {
            let mut generator = PacketGen::new(1000 + t as u64);
            Tenant {
                filter: Arc::clone(&filters[t % nfilters]),
                packets: generator.workload(4, 0.5),
            }
        })
        .collect();

    // Pre-populate the store — the cold-process scenario: yesterday's
    // artifacts are on disk, today's process serves from them. With the
    // store populated up front, the sweep's save counter measures
    // generator runs *during serving* exactly (a concurrent first-touch
    // could otherwise double-specialize one filter benignly).
    for filter in &filters {
        let mut harness =
            FilterHarness::with_options(filter, config.options.clone()).expect("harness builds");
        let artifact = harness.compile_artifact().expect("artifact extracts");
        store.save(&artifact).expect("save");
    }
    let saves_before_sweep = store.stats().saves;

    eprintln!(
        "serve-bench: sweeping {tenants} tenants x {nfilters} filters \
         (cache capacity {cache_capacity})..."
    );
    let pool = ServePool::new(PoolConfig {
        workers: 2,
        queue_depth: 32,
        cache_capacity,
        options: config.options.clone(),
        store: Some(Arc::clone(&store)),
    });
    let started = Instant::now();
    let mut pending: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut packets_total = 0u64;
    let mut verify = |t: usize, ticket: Ticket| {
        let tenant: &Tenant = &workload[t];
        let output = ticket
            .wait()
            .outcome
            .unwrap_or_else(|e| panic!("tenant {t}: batch failed: {e}"));
        for (i, (&verdict, pkt)) in output.verdicts.iter().zip(&tenant.packets).enumerate() {
            assert_eq!(
                verdict,
                run_filter(&tenant.filter, &pkt.bytes),
                "tenant {t}: packet {i} verdict diverged from the native interpreter"
            );
            packets_total += 1;
        }
    };
    for (t, tenant) in workload.iter().enumerate() {
        loop {
            match pool.try_submit(Arc::clone(&tenant.filter), tenant.packets.clone()) {
                Ok(ticket) => {
                    pending.push_back((t, ticket));
                    break;
                }
                // Admission control in action: the queue is full, so
                // drain the oldest in-flight batch and try again.
                Err(AdmissionError::QueueFull { .. }) => {
                    let (done, ticket) = pending.pop_front().expect("work is in flight");
                    verify(done, ticket);
                }
                Err(AdmissionError::PoolClosed) => panic!("pool closed mid-sweep"),
            }
        }
    }
    for (t, ticket) in pending {
        verify(t, ticket);
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let report = pool.shutdown();
    let store_stats = store.stats();

    // The whole point of the store tier: across every tenant request and
    // every eviction, the generator never ran during serving — every
    // cache miss was answered from disk.
    assert_eq!(
        store_stats.saves, saves_before_sweep,
        "the generator must not run while serving a populated store"
    );
    assert!(
        report.cache.evictions > 0,
        "the sweep must overflow the cache to exercise the store tier"
    );
    assert!(
        store_stats.loads > 0,
        "evicted artifacts must come back from the store"
    );
    assert_eq!(packets_total, (tenants * 4) as u64);

    let resident = store.len().expect("store readable");
    let _ = std::fs::remove_dir_all(&root);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve_persist\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", config.smoke));
    out.push_str(&format!("  \"flat_env\": {},\n", config.options.flat_env));
    out.push_str("  \"cold_start\": [\n");
    for (i, c) in cold.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"compile_ms\": {}, \"load_ms\": {}, \"hydrate_ms\": {}, \
             \"speedup\": {}}}{}\n",
            c.name,
            json_f(c.compile_ms),
            json_f(c.load_ms),
            json_f(c.hydrate_ms),
            json_f(c.speedup),
            if i + 1 < cold.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cold_start_min_speedup\": {},\n",
        json_f(min_speedup)
    ));
    out.push_str(&format!(
        "  \"sweep\": {{\"tenants\": {tenants}, \"filters\": {nfilters}, \
         \"cache_capacity\": {cache_capacity}, \"packets\": {packets_total}, \
         \"elapsed_ms\": {}}},\n",
        json_f(elapsed_secs * 1e3)
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"expired\": {}, \"hit_rate\": {}}},\n",
        report.cache.requests(),
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.expired,
        json_f(report.cache.hit_rate())
    ));
    out.push_str(&format!(
        "  \"store\": {{\"saves\": {}, \"loads\": {}, \"misses\": {}, \"resident\": {resident}}},\n",
        store_stats.saves, store_stats.loads, store_stats.misses
    ));
    out.push_str(&format!("  \"shed\": {},\n", report.shed));
    out.push_str(&format!(
        "  \"latency\": {{\"count\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
         \"max_ms\": {}, \"mean_ms\": {}}},\n",
        report.latency.count,
        json_f(report.latency.p50_ms()),
        json_f(report.latency.p90_nanos as f64 / 1e6),
        json_f(report.latency.p99_ms()),
        json_f(report.latency.max_nanos as f64 / 1e6),
        json_f(report.latency.mean_nanos as f64 / 1e6)
    ));
    out.push_str("  \"oracle\": \"verified\"\n");
    out.push_str("}\n");
    print!("{out}");
    eprintln!(
        "serve-bench: persist ok (min cold-start speedup {min_speedup:.0}x, \
         {} evictions, {} store loads, p99 {:.3} ms)",
        report.cache.evictions,
        store_stats.loads,
        report.latency.p99_ms()
    );
}

fn main() {
    let config = parse_args();
    if config.persist {
        run_persist(&config);
        return;
    }
    eprintln!("serve-bench: building workloads and oracles...");
    let workloads = build_workloads(&config);
    let distinct_filters = workloads.len() as u64;

    // One cache for the whole sweep: pre-warm it (the only misses), then
    // every batch in every sweep point must hit.
    let cache = Arc::new(FilterCache::new(64));
    for workload in &workloads {
        cache
            .get_or_specialize(
                CacheKey::new(&workload.filter, &config.options),
                &workload.filter,
                &config.options,
            )
            .expect("pre-warm specialization");
    }

    let mut sweep = Vec::new();
    for &workers in &config.workers_sweep {
        for &batch_size in &config.batch_sizes {
            eprintln!("serve-bench: workers={workers} batch={batch_size} ...");
            let point = run_sweep_point(&config, &cache, &workloads, workers, batch_size);
            eprintln!(
                "serve-bench:   {} packets in {:.1} ms ({:.0} packets/sec, {:.1} steps/packet, \
                 {} promotions)",
                point.packets,
                point.elapsed_secs * 1e3,
                point.packets_per_sec(),
                point.steps_per_packet(),
                point.promotions
            );
            if config.smoke {
                // The oracle checked promoted code only if some ran
                // (a `--rounds` too small for the threshold fails here).
                assert!(point.promotions > 0, "no block was promoted");
                assert!(point.tier_steps[1] > 0, "no promoted code ran");
            }
            sweep.push(point);
        }
    }

    // The acceptance identity: every request after pre-warm hits, so
    // hit rate == (requests - distinct filters) / requests, *exactly*.
    let stats = cache.stats();
    assert_eq!(
        stats.misses, distinct_filters,
        "exactly one specialization per distinct filter"
    );
    assert_eq!(stats.evictions, 0, "the sweep must fit in the cache");
    let requests = stats.requests();
    assert_eq!(
        stats.hits,
        requests - distinct_filters,
        "cache hit rate deviates from (requests - distinct)/requests"
    );

    // 1 -> max-workers scaling per batch size (for equal batch sizes and
    // the same total work). Meaningful only when the host has cores to
    // scale onto, so it is reported, not asserted.
    let speedup = |from: usize, to: usize| -> Option<f64> {
        let of = |w: usize, b: usize| {
            sweep
                .iter()
                .find(|p| p.workers == w && p.batch_size == b)
                .map(SweepPoint::packets_per_sec)
        };
        let mut ratios: Vec<f64> = Vec::new();
        for &b in &config.batch_sizes {
            if let (Some(base), Some(high)) = (of(from, b), of(to, b)) {
                ratios.push(high / base);
            }
        }
        ratios.iter().copied().reduce(f64::max)
    };
    let speedup_1_to_4 = speedup(1, 4);

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", config.smoke));
    out.push_str(&format!("  \"flat_env\": {},\n", config.options.flat_env));
    out.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    out.push_str("  \"filters\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"bpf_len\": {}, \"artifact_instructions\": {}, \"specialize_steps\": {}, \"packets\": {}}}{}\n",
            w.name,
            w.filter.len(),
            w.artifact_instructions,
            w.specialize_steps,
            w.packets.len(),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cache\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}},\n",
        requests,
        stats.hits,
        stats.misses,
        stats.evictions,
        json_f(stats.hit_rate())
    ));
    out.push_str("  \"oracle\": \"verified\",\n");
    out.push_str("  \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"batch_size\": {}, \"batches\": {}, \"packets\": {}, \"elapsed_ms\": {}, \"packets_per_sec\": {}, \"steps_per_packet\": {}, \"promotions\": {}, \"tier_steps\": [{}, {}]}}{}\n",
            p.workers,
            p.batch_size,
            p.batches,
            p.packets,
            json_f(p.elapsed_secs * 1e3),
            json_f(p.packets_per_sec()),
            json_f(p.steps_per_packet()),
            p.promotions,
            p.tier_steps[0],
            p.tier_steps[1],
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match speedup_1_to_4 {
        Some(s) => out.push_str(&format!("  \"speedup_1_to_4\": {}\n", json_f(s))),
        None => out.push_str("  \"speedup_1_to_4\": null\n"),
    }
    out.push_str("}\n");
    print!("{out}");
    eprintln!(
        "serve-bench: ok ({requests} cache requests, hit rate {:.3})",
        stats.hit_rate()
    );
}
