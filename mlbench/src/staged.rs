//! `staged_programs`: the paper's §3 programs compiled from source, each
//! program (item) in a fresh [`Session`] so no item's cost depends on how
//! many ran before it. Bound by the front end and run-time code
//! generation.
//!
//! Items come in decks of fixed composition — `compPoly` on polynomials
//! of every fourth degree from 4 to 48 (then 16 calls of the generated
//! function), `memoPower2`, `composeGen`, and the multi-stage `CLIENT` —
//! so every seed asks for the same work; the seed shuffles each deck and
//! picks the coefficients and arguments. Every value is checked against
//! plain Rust arithmetic (MLbox integers wrap like `i64::wrapping_*`).

use crate::front;
use crate::report::Report;
use crate::rng::Rng;
use crate::serve::{self, PoolCounts, Request, Source, Tenant};
use crate::stats::{peak_rss_mb, Recorder};
use crate::trace::Tracer;
use crate::Env;
use ccam::value::Value;
use mlbox::programs::{CLIENT, COMPOSE_GEN, COMP_POLY, EVAL_POLY, MEMO_POWER2};
use mlbox::Session;
use mlbox_bpf::{telnet_filter, PacketGen};
use mlbox_serve::{PoolConfig, ServePool};
use std::sync::Arc;
use std::time::Duration;

/// Calls of each generated function per item.
pub const CALLS: usize = 16;
/// Polynomial degrees in a deck.
pub const DEGREES: [usize; 12] = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48];
/// `memoPower2` exponents per memo item (two memo items per deck).
pub const MEMO_EXPONENTS: [[u32; 3]; 2] = [[16, 9, 24], [40, 3, 28]];
/// `CLIENT` poly sizes per client item (two client items per deck).
pub const CLIENT_SIZES: [[i64; 2]; 2] = [[3, 5], [8, 2]];
/// Composition pairs per deck.
const COMPOSE_ITEMS: usize = 2;
/// Leading decks of a timed window over which `steps_per_item` is summed
/// (exact per seed) and after which `peak_rss_mb` is read. Sessions that
/// run `memoPower2` or `CLIENT` leak, so the peak grows with items run;
/// read after a fixed count it measures that leak, not the throughput.
pub const LEAD_DECKS: usize = 32;
/// Decks run, verified, during set-up. Enough work that `setup_s` is not
/// dominated by process start-up jitter.
const WARM_DECKS: usize = 4;
/// Decks generated ahead; the sequence cycles through them.
pub const DECKS: usize = 64;

/// One program, with the inputs the seed chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// `compPoly coeffs`, then the generated function at each `x`.
    Poly { coeffs: Vec<i64>, xs: Vec<i64> },
    /// `memoPower2 e b` for each `(e, b)`.
    Memo { calls: Vec<(u32, i64)> },
    /// `composeGen (fn x => x * a, fn x => x + c)`, then at each `x`.
    Compose { a: i64, c: i64, xs: Vec<i64> },
    /// `eval client`, then `stage1 n y` for each `(n, y)`.
    Client { calls: Vec<(i64, i64)> },
}

fn ints(rng: &mut Rng, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..n).map(|_| rng.range(lo, hi)).collect()
}

/// The item sequence for `seed`: `DECKS` shuffled decks.
pub fn items(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    for _ in 0..DECKS {
        let mut deck = Vec::new();
        for &d in &DEGREES {
            deck.push(Item::Poly {
                coeffs: ints(&mut rng, d + 1, 0, 999),
                xs: ints(&mut rng, CALLS, -50, 50),
            });
        }
        for exps in MEMO_EXPONENTS {
            deck.push(Item::Memo {
                calls: exps.iter().map(|&e| (e, rng.range(-3, 3))).collect(),
            });
        }
        for _ in 0..COMPOSE_ITEMS {
            deck.push(Item::Compose {
                a: rng.range(1, 999),
                c: rng.range(0, 999),
                xs: ints(&mut rng, CALLS, 0, 9999),
            });
        }
        for sizes in CLIENT_SIZES {
            deck.push(Item::Client {
                calls: sizes.iter().map(|&n| (n, rng.range(0, 99))).collect(),
            });
        }
        rng.shuffle(&mut deck);
        out.extend(deck);
    }
    out
}

/// Items per deck.
pub const DECK: usize = DEGREES.len() + MEMO_EXPONENTS.len() + COMPOSE_ITEMS + CLIENT_SIZES.len();

/// Horner evaluation of `a0 + x * (a1 + x * ...)` in wrapping `i64`.
fn horner(coeffs: &[i64], x: i64) -> i64 {
    coeffs
        .iter()
        .rev()
        .fold(0i64, |acc, &a| a.wrapping_add(x.wrapping_mul(acc)))
}

/// `makePoly n` of the CLIENT program: `[7n, 7(n-1), ..., 7]`.
fn make_poly(n: i64) -> Vec<i64> {
    (1..=n).rev().map(|k| 7 * k).collect()
}

/// An integer literal in MLbox syntax (`~` for negation).
fn ml_int(n: i64) -> String {
    if n < 0 {
        format!("~{}", n.unsigned_abs())
    } else {
        n.to_string()
    }
}

fn list(xs: &[i64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| ml_int(x)).collect();
    format!("[{}]", body.join(", "))
}

/// The program an item declares, and the declaration that runs its
/// generator (`None` for `Memo`, which generates inside its calls).
pub fn sources(item: &Item) -> (Vec<&'static str>, Option<String>) {
    match item {
        Item::Poly { coeffs, .. } => (
            vec![EVAL_POLY, COMP_POLY],
            Some(format!(
                "val p = {}\nval f = eval (compPoly p)",
                list(coeffs)
            )),
        ),
        Item::Memo { .. } => (vec![MEMO_POWER2], None),
        Item::Compose { a, c, .. } => (
            vec![COMPOSE_GEN],
            Some(format!(
                "val f = eval (composeGen (code (fn x => x * {a}), code (fn x => x + {c})))"
            )),
        ),
        Item::Client { .. } => (
            vec![EVAL_POLY, COMP_POLY, CLIENT],
            Some("val stage1 = eval client".to_string()),
        ),
    }
}

/// What one item did.
#[derive(Debug, Default, Clone, Copy)]
pub struct ItemOutcome {
    /// CCAM steps after `Session::new` (declarations, generation, calls).
    pub steps: u64,
    /// Values that disagreed with the reference (or an error).
    pub wrong: u64,
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(n) => Some(*n),
        _ => None,
    }
}

/// Runs one item in a fresh session, with a span around each public call.
pub fn run_item(item: &Item, tr: &mut Tracer) -> Result<ItemOutcome, String> {
    let e = |e: mlbox::Error| e.to_string();
    tr.begin("core.session.new");
    let session = Session::new().map_err(e);
    tr.end("core.session.new");
    let mut s = session?;
    let base = s.stats();
    let (program, generator) = sources(item);
    for src in program {
        tr.begin("core.session.run");
        let r = s.run(src).map_err(e);
        tr.end("core.session.run");
        r?;
    }
    if let Some(generator) = generator {
        let before = s.stats();
        tr.begin("ccam.generate");
        let r = s.run(&generator).map_err(e);
        tr.end("ccam.generate");
        r?;
        generated(tr, &s.stats().delta_since(&before));
    }
    let mut wrong = 0;
    match item {
        Item::Poly { coeffs, xs } => {
            for &x in xs {
                wrong += u64::from(dispatch(&mut s, x, tr)? != Some(horner(coeffs, x)));
            }
        }
        Item::Compose { a, c, xs } => {
            for &x in xs {
                let want = x.wrapping_add(*c).wrapping_mul(*a);
                wrong += u64::from(dispatch(&mut s, x, tr)? != Some(want));
            }
        }
        Item::Memo { calls } => {
            for &(exp, b) in calls {
                let got = generate_expr(&mut s, &format!("memoPower2 {exp} {}", ml_int(b)), tr)?;
                wrong += u64::from(got != Some(b.wrapping_pow(exp)));
            }
        }
        Item::Client { calls } => {
            for &(n, y) in calls {
                let got = generate_expr(&mut s, &format!("stage1 {n} {}", ml_int(y)), tr)?;
                wrong += u64::from(got != Some(horner(&make_poly(n), y)));
            }
        }
    }
    Ok(ItemOutcome {
        steps: s.stats().delta_since(&base).steps,
        wrong,
    })
}

fn generated(tr: &mut Tracer, stats: &ccam::machine::Stats) {
    tr.count("ccam.generate_runs", 1.0);
    tr.count("ccam.generate_steps", stats.steps as f64);
    tr.count("ccam.emitted", stats.emitted as f64);
    tr.count("ccam.freezes", stats.freezes as f64);
    tr.count("ccam.freeze_hits", stats.freeze_hits as f64);
}

/// One call of the generated function `f`.
fn dispatch(s: &mut Session, x: i64, tr: &mut Tracer) -> Result<Option<i64>, String> {
    tr.begin("ccam.dispatch");
    let r = s.call("f", Value::Int(x)).map_err(|e| e.to_string());
    tr.end("ccam.dispatch");
    let (v, stats) = r?;
    tr.count("ccam.dispatch_packets", 1.0);
    tr.count("ccam.dispatch_steps", stats.steps as f64);
    Ok(int(&v))
}

/// An expression whose evaluation generates code and runs it.
fn generate_expr(s: &mut Session, src: &str, tr: &mut Tracer) -> Result<Option<i64>, String> {
    tr.begin("ccam.generate");
    let r = s.eval_expr(src).map_err(|e| e.to_string());
    tr.end("ccam.generate");
    let out = r?;
    generated(tr, &out.stats);
    Ok(int(&out.raw))
}

/// Runs items from the cycle until the window closes and the leading
/// `LEAD_DECKS` decks are done. Returns the steps per item over those
/// decks and the peak resident memory (MiB) when they were done.
pub fn run_loop(items: &[Item], rec: &mut Recorder, tr: &mut Tracer) -> (f64, f64) {
    let lead = LEAD_DECKS * DECK;
    let (mut steps, mut rss) = (0u64, 0.0);
    let mut i = 0usize;
    while i < lead || !rec.done() {
        tr.next_request();
        let t0 = rec.stamp();
        let out = run_item(&items[i % items.len()], tr);
        let wrong = match &out {
            Ok(o) => u64::from(o.wrong > 0),
            Err(_) => 1,
        };
        if i < lead {
            steps += out.map_or(0, |o| o.steps);
        }
        rec.record(t0, 1, wrong);
        i += 1;
        if i == lead {
            rss = peak_rss_mb();
        }
    }
    (steps as f64 / lead as f64, rss)
}

/// Mean latency of the first and last tenth of a run's items, ms.
pub fn first_last_tenth_ms(rec: &Recorder) -> (f64, f64) {
    let n = rec.latencies_ns.len();
    let tenth = (n / 10).max(1);
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64 / 1e6;
    (
        mean(&rec.latencies_ns[..tenth]),
        mean(&rec.latencies_ns[n - tenth..]),
    )
}

/// The serve layers are off this workload's path; the traced run
/// measures them on a small fixed probe — the telnet filter in 64-packet
/// batches through a store round trip and a one-worker pool — so every
/// per-layer metric is a measurement. The probe records into its own
/// tracer; only its serve, wire, hydrate and native spans are kept.
fn serve_probe(env: &Env, tr: &mut Tracer) -> Result<(PoolCounts, f64), String> {
    let mut probe = Tracer::new(true);
    let tenants = vec![Tenant::new(telnet_filter())];
    let artifact = Arc::new(serve::specialize(
        &tenants[0].filter,
        &mut Tracer::new(false),
    )?);
    serve::store_probe(
        std::slice::from_ref(&artifact),
        &env.scratch("probe-store"),
        16,
        &mut probe,
    )?;
    let mut gen = PacketGen::new(env.seed ^ 0x7072_6f62);
    let mut cycle: Vec<Request> = (0..16)
        .map(|_| Request::new(0, gen.workload(64, 0.5)))
        .collect();
    serve::expect(
        &tenants[0],
        &artifact,
        &mut cycle.iter_mut().collect::<Vec<_>>(),
    )?;
    let pool = ServePool::new(PoolConfig {
        workers: 1,
        queue_depth: 2,
        ..PoolConfig::default()
    });
    let window = Duration::from_millis(300);
    let mut rec = Recorder::new(window);
    serve::run_pooled(&pool, &tenants, &cycle, &mut rec);
    let counts = PoolCounts::from_report(&pool.shutdown(), &rec);
    let artifacts = [artifact];
    let mut scratch = Report::default();
    let source = Source::Prebuilt(&artifacts);
    let (replay_p50, _, _) = serve::replay_pair(
        &tenants,
        &cycle,
        16,
        source,
        window,
        &mut probe,
        &mut scratch,
    );
    if rec.failed + scratch.failed > 0 {
        return Err("serve probe disagrees with the references".to_string());
    }
    tr.absorb(
        &probe,
        &[
            "serve.store.save",
            "serve.store.load",
            "core.wire.decode",
            "core.wire.decodes",
            "core.wire.bytes",
            "core.artifact.hydrate",
            "bpf.native",
            "bpf.native_packets",
        ],
    );
    Ok((counts, replay_p50))
}

/// Items whose sources the traced run replays through the front end.
const FRONT_ITEMS: usize = 4 * DECK;

pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let items = items(env.seed);
    // Set-up: verified, untimed decks, so the timed window starts warm.
    let mut off = Tracer::new(false);
    for item in &items[..WARM_DECKS * DECK] {
        match run_item(item, &mut off) {
            Ok(o) if o.wrong == 0 => {}
            Ok(_) => report
                .errors
                .push("warm-up item disagrees with the reference".into()),
            Err(e) => report.errors.push(e),
        }
    }
    if !report.errors.is_empty() {
        return report;
    }
    env.ready();
    if env.setup_only {
        return report;
    }
    if !env.trace {
        let mut rec = Recorder::new(env.window());
        let (steps, rss) = run_loop(&items, &mut rec, &mut off);
        let (first, last) = first_last_tenth_ms(&rec);
        eprintln!("mlbench: item latency first tenth {first:.4} ms, last tenth {last:.4} ms");
        report.end_to_end(&rec, steps, rss);
        return report;
    }
    // Traced: half the window with spans off, half with spans on.
    let half = env.window() / 2;
    let mut rates = [0.0; 2];
    let mut untraced_rec = None;
    let mut tr = Tracer::new(true);
    for (i, on) in [false, true].into_iter().enumerate() {
        let mut rec = Recorder::new(half);
        let t = if on { &mut tr } else { &mut off };
        run_loop(&items, &mut rec, t);
        rates[i] = rec.throughput();
        report.attempted += rec.attempted;
        report.failed += rec.failed;
        if !on {
            untraced_rec = Some(rec);
        }
    }
    let untraced_rec = untraced_rec.expect("the untraced half ran");
    for item in &items[..FRONT_ITEMS] {
        let (mut srcs, generator) = sources(item);
        srcs.extend(generator.as_deref());
        if let Err(e) = front::replay(&srcs, &mut tr) {
            report.errors.push(e);
        }
    }
    match serve_probe(env, &mut tr) {
        Ok((pool, replay_p50)) => {
            report.per_layer(&tr, pool, &untraced_rec, replay_p50, rates[0], rates[1])
        }
        Err(e) => report.errors.push(e),
    }
    env.write_trace(&tr);
    report
}
