//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public entry points: name, start, end, parent span, and
//! the request they belong to. Self time (a span's duration minus the
//! part its children cover) is aggregated per name as spans close; the
//! raw spans are kept in memory (up to a cap) and written out at exit.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace; aggregation covers every span.
const KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
struct Span {
    id: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: usize,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    next_id: usize,
    stack: Vec<Open>,
    spans: Vec<Span>,
    agg: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            agg: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            id,
        });
    }

    pub fn end(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without begin");
        assert_eq!(open.name, name, "spans must nest");
        let total = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += total;
            p.id
        });
        let a = self.agg.entry(name).or_default();
        a.count += 1;
        a.total_ns += total;
        a.self_ns += total.saturating_sub(open.child_ns);
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                id: open.id,
                name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                request: self.request,
            });
        }
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += by;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Mean self time of `name` per `per` units, in microseconds (0 when
    /// nothing was recorded).
    pub fn self_us_per(&self, name: &str, per: f64) -> f64 {
        let a = self.agg(name);
        if per <= 0.0 {
            0.0
        } else {
            a.self_ns as f64 / 1e3 / per
        }
    }

    /// Writes the kept spans (JSON lines) and the per-name self-time
    /// table to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, a) in &self.agg {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        for (name, v) in &self.counts {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}")?;
        }
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    /// Adds `other`'s aggregates and counters for `names` to this tracer
    /// (spans are not copied).
    pub fn absorb(&mut self, other: &Tracer, names: &[&'static str]) {
        for &name in names {
            if let Some(a) = other.agg.get(name) {
                let mine = self.agg.entry(name).or_default();
                mine.count += a.count;
                mine.total_ns += a.total_ns;
                mine.self_ns += a.self_ns;
            }
            if let Some(&v) = other.counts.get(name) {
                *self.counts.entry(name).or_default() += v;
            }
        }
    }
}
