//! The benchmark's own guarantees: inputs are a function of the seed,
//! the paper's step metric repeats exactly, and a staged-program item
//! costs the same at the end of a run as at the start.
//!
//! Run with `cargo test --release --manifest-path mlbench/Cargo.toml`.

use mlbench::rng::Rng;
use mlbench::serve::Request;
use mlbench::stats::Recorder;
use mlbench::trace::Tracer;
use mlbench::{churn, hot, serve, staged};
use std::sync::Mutex;
use std::time::Duration;

/// Tests that run timed or pooled loops take turns, so one does not
/// steal the other's cores mid-measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn packets(cycle: &[Request]) -> Vec<(usize, Vec<Vec<u8>>)> {
    cycle
        .iter()
        .map(|r| {
            (
                r.tenant,
                r.packets.iter().map(|p| p.bytes.clone()).collect(),
            )
        })
        .collect()
}

fn fingerprints(tenants: &[serve::Tenant]) -> Vec<u64> {
    tenants.iter().map(serve::Tenant::fingerprint).collect()
}

#[test]
fn same_seed_same_inputs() {
    assert_eq!(packets(&hot::cycle(7)), packets(&hot::cycle(7)));
    assert_eq!(packets(&churn::cycle(7)), packets(&churn::cycle(7)));
    assert_eq!(
        fingerprints(&churn::tenants(7)),
        fingerprints(&churn::tenants(7))
    );
    assert_eq!(staged::items(7), staged::items(7));
}

#[test]
fn different_seed_different_inputs() {
    assert_ne!(packets(&hot::cycle(7)), packets(&hot::cycle(8)));
    assert_ne!(packets(&churn::cycle(7)), packets(&churn::cycle(8)));
    assert_ne!(
        fingerprints(&churn::tenants(7)),
        fingerprints(&churn::tenants(8))
    );
    assert_ne!(staged::items(7), staged::items(8));
}

#[test]
fn churn_tenants_are_distinct() {
    let mut fps = fingerprints(&churn::tenants(3));
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), churn::TENANTS);
}

#[test]
fn zipf_and_rng_stay_in_range() {
    let mut rng = Rng::new(1, 0);
    let zipf = mlbench::rng::Zipf::new(10, 1.0);
    let mut counts = [0u32; 10];
    for _ in 0..10_000 {
        counts[zipf.sample(&mut rng)] += 1;
        let x = rng.range(-3, 3);
        assert!((-3..=3).contains(&x));
    }
    assert!(counts[0] > counts[9] * 5, "rank 0 dominates: {counts:?}");
}

/// The hot-filters set-up and its steps over the first cycle.
fn hot_steps(seed: u64) -> f64 {
    let hot = hot::setup(seed, &mut Tracer::new(false)).expect("set-up");
    let mut rec = Recorder::new(Duration::ZERO);
    let steps = serve::run_pooled(&hot.pool, &hot.tenants, &hot.cycle, &mut rec);
    assert_eq!(rec.failed, 0, "every verdict and step count verified");
    steps
}

#[test]
fn steps_per_item_repeats_exactly() {
    let _turn = serial();
    assert_eq!(hot_steps(5).to_bits(), hot_steps(5).to_bits());
    let items = staged::items(5);
    let steps = |items: &[staged::Item]| {
        let mut rec = Recorder::new(Duration::ZERO);
        let (s, _) = staged::run_loop(items, &mut rec, &mut Tracer::new(false));
        assert_eq!(rec.failed, 0, "every staged value verified");
        s
    };
    let first = steps(&items);
    assert_eq!(first.to_bits(), steps(&items).to_bits());
    // Deck composition is fixed, so the step count does not depend on
    // the seed either.
    assert_eq!(first.to_bits(), steps(&staged::items(6)).to_bits());
}

/// The bound `BENCHMARK.json` gives `request_p50_ref_ms`.
fn latency_bound() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let at = text
        .find("\"request_p50_ref_ms\"")
        .expect("request_p50_ref_ms metric");
    let rest = &text[at..];
    let b = rest.find("\"bound\":").expect("bound") + "\"bound\":".len();
    let num: String = rest[b..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().expect("numeric bound")
}

#[test]
fn staged_items_do_not_slow_down_over_a_run() {
    let _turn = serial();
    let items = staged::items(9);
    let mut rec = Recorder::new(Duration::from_secs(3));
    staged::run_loop(&items, &mut rec, &mut Tracer::new(false));
    assert_eq!(rec.failed, 0);
    let (first, last) = staged::first_last_tenth_ms(&rec);
    let bound = latency_bound();
    assert!(
        (last / first - 1.0).abs() <= bound,
        "mean item latency moved from {first:.4} ms to {last:.4} ms (bound {bound})"
    );
}
