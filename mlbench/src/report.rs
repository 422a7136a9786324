//! The worker's result line and the metric sets it carries.

use crate::serve::PoolCounts;
use crate::stats::Recorder;
use crate::trace::Tracer;
use std::fmt::Write;

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set-up or verification failures that are not per-item.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// One JSON object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The end-to-end metrics of an untraced timed window (all but
    /// `setup_s`, which the launcher takes from several set-ups).
    /// `peak_rss_mb` is the process's peak resident memory so far.
    pub fn end_to_end(&mut self, rec: &Recorder, steps_per_item: f64, peak_rss_mb: f64) {
        let (p50, p99) = rec.latency_ms();
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.metric("throughput_per_ref_s", rec.throughput(), "1/s");
        self.metric("request_p50_ref_ms", p50, "ms");
        self.metric("request_p99_ref_ms", p99, "ms");
        self.metric("steps_per_item", steps_per_item, "steps");
        let verified = (rec.attempted - rec.failed) as f64 / rec.attempted.max(1) as f64;
        self.metric("verified_rate", verified, "ratio");
        self.metric("peak_rss_mb", peak_rss_mb, "MiB");
        eprintln!(
            "mlbench: {} requests; p50/p99 are medians over {} slices of at least {} requests; \
             {} items attempted, {} failed; wall time / CPU time inside requests {:.3}; \
             {:.0} items per CPU second; reference kernel {:.1} us",
            rec.latencies_ns.len(),
            crate::stats::SLICES,
            rec.min_slice_requests(),
            rec.attempted,
            rec.failed,
            rec.wall_per_cpu(),
            rec.cpu_rate(),
            rec.kernel_us()
        );
    }

    /// The per-layer metrics, from the traced run's spans and counters.
    /// `untraced` is the recorder of the workload's own loop with spans
    /// off; `untraced_rate`/`traced_rate` are its throughputs (items per
    /// reference second) with spans off and on.
    pub fn per_layer(
        &mut self,
        tr: &Tracer,
        pool: PoolCounts,
        untraced: &Recorder,
        replay_p50_us: f64,
        untraced_rate: f64,
        traced_rate: f64,
    ) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let items = tr.counter("front.items");
        self.metric(
            "syntax.parse_us",
            tr.self_us_per("syntax.parse", items),
            "us",
        );
        self.metric("ir.elab_us", tr.self_us_per("ir.elab", items), "us");
        self.metric("types.check_us", tr.self_us_per("types.check", items), "us");
        self.metric(
            "compile.compile_us",
            tr.self_us_per("compile.compile", items),
            "us",
        );
        self.metric(
            "compile.instrs",
            ratio(tr.counter("compile.instrs"), items),
            "count",
        );
        let news = tr.agg("core.session.new").count as f64;
        self.metric(
            "core.session.new_us",
            tr.self_us_per("core.session.new", news),
            "us",
        );
        let runs = tr.counter("ccam.generate_runs");
        self.metric(
            "ccam.generate_us",
            tr.self_us_per("ccam.generate", runs),
            "us",
        );
        self.metric(
            "ccam.generate_steps",
            ratio(tr.counter("ccam.generate_steps"), runs),
            "steps",
        );
        self.metric(
            "ccam.emitted",
            ratio(tr.counter("ccam.emitted"), runs),
            "count",
        );
        let (hits, misses) = (tr.counter("ccam.freeze_hits"), tr.counter("ccam.freezes"));
        self.metric("ccam.freeze_hit_rate", ratio(hits, hits + misses), "ratio");
        let dispatch_ns = tr.agg("ccam.dispatch").self_ns as f64;
        let (steps, calls) = (
            tr.counter("ccam.dispatch_steps"),
            tr.counter("ccam.dispatch_packets"),
        );
        let ns_per_step = ratio(dispatch_ns, steps);
        let us_per_call = ratio(dispatch_ns, calls) / 1e3;
        let native_ns = ratio(
            tr.agg("bpf.native").self_ns as f64,
            tr.counter("bpf.native_packets"),
        );
        self.metric("ccam.dispatch_ns_per_step", ns_per_step, "ns");
        self.metric("ccam.dispatch_us_per_packet", us_per_call, "us");
        self.metric("ccam.steps_per_packet", ratio(steps, calls), "steps");
        self.metric("bpf.native_ns_per_packet", native_ns, "ns");
        self.metric(
            "ccam.native_gap",
            ratio(us_per_call * 1e3, native_ns),
            "ratio",
        );
        let per = |name: &str| tr.self_us_per(name, tr.agg(name).count as f64);
        self.metric("serve.store.load_us", per("serve.store.load"), "us");
        self.metric("serve.store.save_us", per("serve.store.save"), "us");
        self.metric("core.wire.decode_us", per("core.wire.decode"), "us");
        self.metric(
            "core.wire.bytes",
            ratio(
                tr.counter("core.wire.bytes"),
                tr.counter("core.wire.decodes"),
            ),
            "bytes",
        );
        self.metric(
            "core.artifact.hydrate_us",
            per("core.artifact.hydrate"),
            "us",
        );
        self.metric("serve.cache.hit_rate", pool.hit_rate, "ratio");
        self.metric("serve.cache.evictions", pool.evictions, "count");
        self.metric("serve.pool.installs", pool.installs, "count");
        self.metric("serve.pool.shed", pool.shed, "count");
        self.metric("serve.pool.overhead_us", pool.p50_us - replay_p50_us, "us");
        self.metric("trace.overhead", ratio(untraced_rate, traced_rate), "ratio");
        self.metric("request.wall_per_cpu", untraced.wall_per_cpu(), "ratio");
        self.metric("host.ref_kernel_us", untraced.kernel_us(), "us");
    }
}
