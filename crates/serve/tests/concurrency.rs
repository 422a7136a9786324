//! The serving layer's concurrency contract, CI-sized:
//!
//! 1. N threads hammering one cache key trigger exactly one
//!    specialization (the others block and share it);
//! 2. N workers × M packets through the cache + pool produce
//!    byte-identical verdicts *and* identical per-packet reduction-step
//!    counts to a fresh single-threaded `FilterHarness` oracle;
//! 3. the cache hit rate is exactly
//!    (requests − distinct filters) / requests.

use mlbox::SessionOptions;
use mlbox_bpf::harness::{expect_verdict, filter_arg};
use mlbox_bpf::insn::Insn;
use mlbox_bpf::{port_filter, telnet_filter, FilterHarness, PacketGen};
use mlbox_serve::{CacheKey, PoolConfig, ServePool, SpecializationCache, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn contended_key_specializes_exactly_once() {
    let cache: Arc<SpecializationCache<u64>> = Arc::new(SpecializationCache::new(16));
    let runs = Arc::new(AtomicU64::new(0));
    let key = CacheKey {
        filter: 0xfeed,
        options: 0xbeef,
    };
    let threads = 8;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let runs = Arc::clone(&runs);
            scope.spawn(move || {
                let value = cache
                    .get_or_init(key, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: everyone must wait for
                        // this initializer, not run their own.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(Arc::new(77))
                    })
                    .unwrap();
                assert_eq!(*value, 77);
            });
        }
    });
    assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one initializer");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, threads - 1);
}

#[test]
fn pool_is_byte_identical_to_a_fresh_single_threaded_oracle() {
    let workers = 4;
    let packets_per_filter = 12;
    let batch_size = 4;
    let filters: Vec<(Arc<Vec<Insn>>, u64)> = vec![
        (Arc::new(telnet_filter()), 51),
        (Arc::new(port_filter(80)), 52),
    ];

    // Workloads first, so the oracle and the pool see identical bytes.
    let workloads: Vec<_> = filters
        .iter()
        .map(|(filter, seed)| {
            let packets = PacketGen::new(*seed).workload(packets_per_filter, 0.5);
            (Arc::clone(filter), packets)
        })
        .collect();

    // The oracle: a fresh single-threaded harness per filter, measured
    // through the same artifact/apply path the workers use.
    let mut expected: Vec<Vec<(i64, u64)>> = Vec::new();
    for (filter, packets) in &workloads {
        let mut harness = FilterHarness::new(filter).unwrap();
        let mut instance = harness.compile_artifact().unwrap().instantiate();
        expected.push(
            packets
                .iter()
                .map(|pkt| {
                    let (value, stats) = instance.run(filter_arg(pkt)).unwrap();
                    (expect_verdict(&value).unwrap(), stats.steps)
                })
                .collect(),
        );
    }

    let pool = ServePool::new(PoolConfig {
        workers,
        queue_depth: 8,
        cache_capacity: 16,
        ..PoolConfig::default()
    });
    let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
    for (f, (filter, packets)) in workloads.iter().enumerate() {
        for (c, chunk) in packets.chunks(batch_size).enumerate() {
            tickets.push((
                f,
                c * batch_size,
                pool.submit(Arc::clone(filter), chunk.to_vec()),
            ));
        }
    }
    let batches = tickets.len() as u64;
    for (f, offset, ticket) in tickets {
        let output = ticket.wait().outcome.expect("batch runs");
        for (i, (&verdict, &steps)) in output.verdicts.iter().zip(&output.steps).enumerate() {
            let (want_verdict, want_steps) = expected[f][offset + i];
            assert_eq!(verdict, want_verdict, "filter {f} packet {}", offset + i);
            assert_eq!(steps, want_steps, "filter {f} packet {} steps", offset + i);
        }
    }

    // Hit-rate identity: every batch is a request; only the first
    // request per distinct filter misses.
    let report = pool.shutdown();
    let distinct = filters.len() as u64;
    assert_eq!(report.cache.requests(), batches);
    assert_eq!(report.cache.misses, distinct);
    assert_eq!(report.cache.hits, batches - distinct);
    assert_eq!(
        report.total_packets(),
        (packets_per_filter * filters.len()) as u64
    );
}

#[test]
fn modes_keep_separate_cache_entries_end_to_end() {
    // The same filter served under two machine modes must specialize
    // twice — options are half of the cache key.
    let filter = Arc::new(telnet_filter());
    let packets = PacketGen::new(53).workload(4, 0.5);
    let flat = SessionOptions {
        flat_env: true,
        ..SessionOptions::default()
    };
    assert_ne!(
        CacheKey::new(&filter, &SessionOptions::default()),
        CacheKey::new(&filter, &flat),
        "one cache entry per mode"
    );

    let run_mode = |options: SessionOptions| {
        let pool = ServePool::new(PoolConfig {
            workers: 2,
            options,
            ..PoolConfig::default()
        });
        let out = pool
            .submit(Arc::clone(&filter), packets.clone())
            .wait()
            .outcome
            .expect("batch runs");
        pool.shutdown();
        out
    };
    let plain = run_mode(SessionOptions::default());
    let fast = run_mode(flat);
    assert_eq!(plain.verdicts, fast.verdicts, "modes agree on verdicts");
    // Flat frames load each variable in one step.
    for (f, p) in fast.steps.iter().zip(&plain.steps) {
        assert!(f <= p, "flat {f} > pair spine {p}");
    }
}
