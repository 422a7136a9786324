//! The artifact store's persistence contract: save/load round-trips,
//! typed errors for corrupt or mismatched files, idempotent saves, no
//! leftover temp files, and cache integration (a store-backed cache
//! never re-runs the generator for an artifact that is on disk, and one
//! request sequence gives the same cache counters on every replay).

use ccam::wire::WireError as PayloadError;
use mlbox::fingerprint::Fnv1a;
use mlbox::wire::WireError;
use mlbox::{Error, SessionOptions};
use mlbox_bpf::harness::{expect_verdict, filter_arg};
use mlbox_bpf::native::run_filter;
use mlbox_bpf::{port_filter, telnet_filter, FilterHarness, PacketGen};
use mlbox_serve::{ArtifactStore, CacheKey, FilterCache, PoolConfig, ServePool, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh store directory per test, removed on drop.
struct TempStore {
    root: PathBuf,
    store: ArtifactStore,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let root =
            std::env::temp_dir().join(format!("mlbox-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ArtifactStore::open(&root).expect("open store");
        TempStore { root, store }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn compile(filter: &[mlbox_bpf::insn::Insn], options: &SessionOptions) -> mlbox::CompiledFilter {
    let mut harness = FilterHarness::with_options(filter, options.clone()).unwrap();
    harness.compile_artifact().unwrap()
}

#[test]
fn save_load_roundtrip_serves_identically() {
    let temp = TempStore::new("roundtrip");
    let options = SessionOptions::default();
    let filter = telnet_filter();
    let artifact = compile(&filter, &options);
    let path = temp.store.save(&artifact).unwrap();
    assert!(path.exists());
    assert_eq!(temp.store.len().unwrap(), 1);

    let fingerprint = mlbox_bpf::insn::fingerprint(&filter);
    assert!(temp.store.contains(fingerprint, &options));
    let loaded = temp
        .store
        .load(fingerprint, &options)
        .unwrap()
        .expect("artifact is on disk");

    // The loaded artifact serves the same verdicts and step counts.
    let mut fresh = artifact.instantiate();
    let mut disk = loaded.instantiate();
    for pkt in PacketGen::new(71).workload(8, 0.5) {
        let (v1, s1) = fresh.run(filter_arg(&pkt)).unwrap();
        let (v2, s2) = disk.run(filter_arg(&pkt)).unwrap();
        let verdict = expect_verdict(&v2).unwrap();
        assert_eq!(expect_verdict(&v1).unwrap(), verdict);
        assert_eq!(verdict, run_filter(&filter, &pkt.bytes));
        assert_eq!(s1.steps, s2.steps);
    }
    let stats = temp.store.stats();
    assert_eq!((stats.saves, stats.loads, stats.misses), (1, 1, 0));
}

#[test]
fn missing_artifacts_are_none_not_errors() {
    let temp = TempStore::new("missing");
    let options = SessionOptions::default();
    assert!(temp.store.load(0xdead, &options).unwrap().is_none());
    assert!(!temp.store.contains(0xdead, &options));
    assert_eq!(temp.store.stats().misses, 1);
    assert!(temp.store.is_empty().unwrap());
}

#[test]
fn double_saves_are_idempotent() {
    let temp = TempStore::new("idempotent");
    let options = SessionOptions::default();
    let artifact = compile(&port_filter(80), &options);
    let p1 = temp.store.save(&artifact).unwrap();
    let p2 = temp.store.save(&artifact).unwrap();
    assert_eq!(p1, p2, "same key, same path");
    assert_eq!(temp.store.len().unwrap(), 1, "one file, not two");
}

#[test]
fn no_temp_files_survive_saving() {
    let temp = TempStore::new("tmpfiles");
    let options = SessionOptions::default();
    for filter in [telnet_filter(), port_filter(23)] {
        temp.store.save(&compile(&filter, &options)).unwrap();
    }
    let leftovers: Vec<_> = std::fs::read_dir(&temp.root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| !name.ends_with(".mlart"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

#[test]
fn corrupt_files_error_with_types_not_panics() {
    let temp = TempStore::new("corrupt");
    let options = SessionOptions::default();
    let filter = telnet_filter();
    let fingerprint = mlbox_bpf::insn::fingerprint(&filter);
    let path = temp.store.save(&compile(&filter, &options)).unwrap();

    // Flip one byte in the middle: the checksum catches it.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    match temp.store.load(fingerprint, &options) {
        Err(StoreError::Artifact(_)) => {}
        other => panic!("corrupt file gave {other:?}"),
    }

    // Truncate it: typed error too.
    bytes[mid] ^= 0xff; // restore
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match temp.store.load(fingerprint, &options) {
        Err(StoreError::Artifact(_)) => {}
        other => panic!("truncated file gave {other:?}"),
    }
}

#[test]
fn resealed_structural_corruptions_are_refused_at_load() {
    // A payload edit under a recomputed checksum passes every container
    // check, so only the payload's own structural checks can refuse it:
    // a load must never trust the checksum for structure.
    let temp = TempStore::new("resealed");
    let options = SessionOptions::default();
    let filter = telnet_filter();
    let fingerprint = mlbox_bpf::insn::fingerprint(&filter);
    let path = temp.store.save(&compile(&filter, &options)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Header (32 bytes), options section, payload length; the payload
    // opens with the block count and the first block's length.
    let options_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let payload = 32 + options_len + 4;
    let first_len = u32::from_le_bytes(bytes[payload + 4..payload + 8].try_into().unwrap());
    assert!(first_len > 0, "the first block has an instruction");
    bytes[payload + 8] = 0xff; // no instruction has this opcode
    let content = bytes.len() - 8;
    let mut h = Fnv1a::new();
    h.write(&bytes[..content]);
    bytes[content..].copy_from_slice(&h.finish().to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match temp.store.load(fingerprint, &options) {
        Err(StoreError::Artifact(Error::Wire(WireError::Payload(PayloadError::Corrupt(what))))) => {
            assert_eq!(what, "unknown instruction opcode");
        }
        other => panic!("resealed corrupt file gave {other:?}"),
    }
    assert_eq!(temp.store.stats().loads, 0, "nothing was loaded");
}

#[test]
fn renamed_files_cannot_impersonate_another_key() {
    let temp = TempStore::new("rename");
    let options = SessionOptions::default();
    let filter = telnet_filter();
    let path = temp.store.save(&compile(&filter, &options)).unwrap();
    // Give the telnet artifact the port-80 filter's file name.
    let other = mlbox_bpf::insn::fingerprint(&port_filter(80));
    let imposter = temp
        .root
        .join(ArtifactStore::file_name(other, options.fingerprint()));
    std::fs::rename(&path, &imposter).unwrap();
    match temp.store.load(other, &options) {
        Err(StoreError::KeyMismatch { expected, found }) => {
            assert_eq!(expected.0, other);
            assert_eq!(found.0, mlbox_bpf::insn::fingerprint(&filter));
        }
        other => panic!("imposter file gave {other:?}"),
    }
}

#[test]
fn incompatible_consumers_are_refused_at_load() {
    // An artifact saved under flat_env is refused by a pair-spine
    // consumer *if it carries frames*; either way, the load path must
    // only ever hand back artifacts the consumer can hydrate. Exercise
    // the cheap half: a flat-env consumer asking for a key saved under
    // different options simply misses (different file name), it never
    // gets the wrong artifact.
    let temp = TempStore::new("modes");
    let plain = SessionOptions::paper();
    let flat = SessionOptions {
        flat_env: true,
        ..SessionOptions::default()
    };
    let filter = telnet_filter();
    let fingerprint = mlbox_bpf::insn::fingerprint(&filter);
    temp.store.save(&compile(&filter, &plain)).unwrap();
    assert!(
        temp.store.load(fingerprint, &flat).unwrap().is_none(),
        "options are part of the key: no cross-mode aliasing"
    );
}

#[test]
fn store_backed_cache_never_recompiles_persisted_artifacts() {
    let temp = TempStore::new("cache");
    let options = SessionOptions::default();
    let filter = telnet_filter();

    // Populate the store (one generator run)...
    temp.store.save(&compile(&filter, &options)).unwrap();

    // ...then serve through a cache so small every request re-misses.
    let cache = FilterCache::new(1);
    for _ in 0..3 {
        let artifact = cache
            .get_or_load_or_specialize(
                CacheKey::new(&filter, &options),
                &filter,
                &options,
                &temp.store,
            )
            .unwrap();
        assert_eq!(
            artifact.source_fingerprint(),
            mlbox_bpf::insn::fingerprint(&filter)
        );
    }
    let stats = temp.store.stats();
    assert_eq!(stats.saves, 1, "the generator never ran through the cache");
    assert!(stats.loads >= 1, "the cache fetched from disk");

    // A filter that is NOT on disk is specialized once and saved.
    let fresh = port_filter(8080);
    cache
        .get_or_load_or_specialize(
            CacheKey::new(&fresh, &options),
            &fresh,
            &options,
            &temp.store,
        )
        .unwrap();
    let stats = temp.store.stats();
    assert_eq!(stats.saves, 2, "the miss was specialized and persisted");
    assert_eq!(temp.store.len().unwrap(), 2);
}

#[test]
fn store_backed_pool_replays_give_identical_cache_counters() {
    // Cache misses are store loads here, whose time varies from run to
    // run; eviction must depend only on the request order, so every
    // replay of one sequence counts the same hits, misses and evictions.
    // The cache holds half the filters, as many entries as
    // `tenant_churn`'s, so each eviction chooses among 16 entries.
    let temp = TempStore::new("replay");
    let options = SessionOptions::default();
    let filters: Vec<Arc<Vec<mlbox_bpf::insn::Insn>>> =
        (0..32).map(|i| Arc::new(port_filter(8000 + i))).collect();
    for f in &filters {
        temp.store.save(&compile(f, &options)).unwrap();
    }
    // A seeded, skewed sequence: squaring a uniform draw favours the
    // low-numbered filters, so some hit and the rest churn.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let requests: Vec<usize> = (0..400)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            (u * u * filters.len() as f64) as usize
        })
        .collect();
    let packet = PacketGen::new(72).tcp(8003, 16);
    let store = Arc::new(ArtifactStore::open(&temp.root).unwrap());
    let replay = || {
        let pool = ServePool::new(PoolConfig {
            workers: 1,
            cache_capacity: 16,
            options: options.clone(),
            store: Some(Arc::clone(&store)),
            ..PoolConfig::default()
        });
        let tickets: Vec<_> = requests
            .iter()
            .map(|&i| pool.submit(Arc::clone(&filters[i]), vec![packet.clone()]))
            .collect();
        for ticket in tickets {
            ticket.wait().outcome.unwrap();
        }
        let cache = pool.shutdown().cache;
        (cache.hits, cache.misses, cache.evictions)
    };
    let first = replay();
    assert!(
        first.0 > 0 && first.2 > 0,
        "the sequence both hits and evicts: {first:?}"
    );
    for _ in 1..5 {
        assert_eq!(replay(), first);
    }
    let stats = store.stats();
    assert_eq!(stats.saves, 0, "the generator never ran");
    assert_eq!(stats.loads, 5 * first.1, "every miss was a store load");
}

#[test]
fn gc_evicts_least_recently_loaded_down_to_budget() {
    let temp = TempStore::new("gc");
    let options = SessionOptions::default();
    let filters = [port_filter(21), port_filter(22), port_filter(23)];
    let mut sizes = Vec::new();
    for f in &filters {
        let path = temp.store.save(&compile(f, &options)).unwrap();
        sizes.push(std::fs::metadata(&path).unwrap().len());
    }
    // Touch the first filter so the second becomes the coldest.
    let fp = |f: &[mlbox_bpf::insn::Insn]| mlbox_bpf::insn::fingerprint(f);
    temp.store.load(fp(&filters[0]), &options).unwrap().unwrap();

    // Budget for two artifacts: the coldest (filters[1]) goes.
    let budget = sizes.iter().sum::<u64>() - sizes[1];
    let report = temp.store.gc(budget).unwrap();
    assert_eq!(report.evicted, 1);
    assert_eq!(report.bytes_evicted, sizes[1]);
    assert!(report.resident_bytes <= budget);
    assert!(!temp.store.contains(fp(&filters[1]), &options));
    assert!(temp.store.contains(fp(&filters[0]), &options));
    assert!(temp.store.contains(fp(&filters[2]), &options));

    // A generous budget is a no-op sweep.
    let report = temp.store.gc(u64::MAX).unwrap();
    assert_eq!((report.evicted, report.bytes_evicted), (0, 0));
    // A zero budget clears the store.
    let report = temp.store.gc(0).unwrap();
    assert_eq!(report.resident_bytes, 0);
    assert!(temp.store.is_empty().unwrap());
}

#[test]
fn gc_never_removes_an_entry_loaded_during_the_sweep() {
    let temp = TempStore::new("gc-race");
    let options = SessionOptions::default();
    let filters = [port_filter(80), port_filter(443)];
    for f in &filters {
        temp.store.save(&compile(f, &options)).unwrap();
    }
    let fp = |f: &[mlbox_bpf::insn::Insn]| mlbox_bpf::insn::fingerprint(f);
    // Zero budget selects both as victims; the hook simulates a worker
    // loading each artifact between victim selection and its unlink.
    // Every victim is re-stamped mid-sweep, so the sweep removes nothing.
    let report = temp
        .store
        .gc_with_hook(0, |path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            for f in &filters {
                let key = ArtifactStore::file_name(fp(f), options.fingerprint());
                if key == name {
                    temp.store.load(fp(f), &options).unwrap().unwrap();
                }
            }
        })
        .unwrap();
    assert_eq!(
        report.evicted, 0,
        "loads during the sweep pin their entries"
    );
    assert_eq!(temp.store.len().unwrap(), 2);
    // With no interference the same budget clears both.
    let report = temp.store.gc(0).unwrap();
    assert_eq!(report.evicted, 2);
}
