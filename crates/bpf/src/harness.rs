//! The measurement harness: loads the MLbox BPF programs into a session,
//! binds a filter, and measures interpreted versus specialized execution
//! in CCAM reduction steps — the experiment behind Table 1 rows 1–4.

use crate::insn::{fingerprint, validate_filter, Insn};
use crate::mlsrc::{filter_decl, packet_value, BPF_ML};
use crate::packet::Packet;
use ccam::machine::Stats;
use ccam::value::Value;
use mlbox::{CompiledFilter, Error, Session, SessionOptions};

/// A session preloaded with `evalpf`/`bevalpf` and one bound filter.
#[derive(Debug)]
pub struct FilterHarness {
    session: Session,
    filter: Vec<Insn>,
    filter_value: Value,
    specialize_stats: Option<Stats>,
    memo_specialize_stats: Option<Stats>,
}

impl FilterHarness {
    /// Builds a harness for `filter`.
    ///
    /// # Errors
    ///
    /// Returns an error if the filter is statically invalid or any MLbox
    /// stage fails.
    pub fn new(filter: &[Insn]) -> Result<FilterHarness, Error> {
        FilterHarness::with_options(filter, SessionOptions::default())
    }

    /// Builds a harness with explicit session options (e.g. flat
    /// environments or a fuel budget).
    ///
    /// # Errors
    ///
    /// Returns an error if the filter is statically invalid or any MLbox
    /// stage fails.
    pub fn with_options(filter: &[Insn], options: SessionOptions) -> Result<FilterHarness, Error> {
        validate_filter(filter).map_err(|msg| Error::Static {
            diag: mlbox_syntax::diag::Diagnostic::new(
                mlbox_syntax::diag::Phase::Elaborate,
                format!("invalid filter program: {msg}"),
                mlbox_syntax::span::Span::SYNTH,
            ),
            src: String::new(),
        })?;
        let mut session = Session::with_options(options)?;
        session.run(BPF_ML)?;
        session.run(&filter_decl("theFilter", filter))?;
        let filter_value = session.eval_expr("theFilter")?.raw;
        Ok(FilterHarness {
            session,
            filter: filter.to_vec(),
            filter_value,
            specialize_stats: None,
            memo_specialize_stats: None,
        })
    }

    /// The stable fingerprint of the bound filter program
    /// ([`crate::insn::fingerprint`]).
    pub fn filter_fingerprint(&self) -> u64 {
        fingerprint(&self.filter)
    }

    /// Runs the *interpretive* filter (`evalpf`) on a packet. Returns the
    /// verdict and the per-call statistics.
    ///
    /// # Errors
    ///
    /// Returns an error on machine failure.
    pub fn interp(&mut self, pkt: &Packet) -> Result<(i64, u64), Error> {
        let arg = Value::pair(self.filter_value.clone(), packet_value(pkt));
        let (v, stats) = self.session.call("runpf", arg)?;
        Ok((expect_verdict(&v)?, stats.steps))
    }

    /// Specializes the filter once via `bevalpf` (binding `pfc`),
    /// returning the generation statistics (steps spent generating,
    /// instructions emitted).
    ///
    /// # Errors
    ///
    /// Returns an error on machine failure.
    pub fn specialize(&mut self) -> Result<Stats, Error> {
        if let Some(s) = self.specialize_stats {
            return Ok(s);
        }
        let outs = self.session.run("val pfc = compilepf theFilter")?;
        let stats = outs.last().expect("one outcome").stats;
        self.specialize_stats = Some(stats);
        Ok(stats)
    }

    /// Runs the *specialized* filter on a packet. Requires
    /// [`FilterHarness::specialize`] first.
    ///
    /// # Errors
    ///
    /// Returns an error if the filter was not specialized or the machine
    /// fails.
    pub fn specialized(&mut self, pkt: &Packet) -> Result<(i64, u64), Error> {
        self.specialize()?;
        let (v, stats) = self.session.call("pfc", packet_value(pkt))?;
        Ok((expect_verdict(&v)?, stats.steps))
    }

    /// Specializes via the memoizing staged interpreter (`mkMemoBev`,
    /// binding `pfm`), which caches one generating extension per program
    /// point instead of duplicating shared jump targets.
    ///
    /// # Errors
    ///
    /// Returns an error on machine failure.
    pub fn specialize_memo(&mut self) -> Result<Stats, Error> {
        if let Some(s) = self.memo_specialize_stats {
            return Ok(s);
        }
        let outs = self.session.run(
            "val pfmRaw = eval (mkMemoBev theFilter)\nval pfm = fn pkt => pfmRaw (0, 0, pkt)",
        )?;
        let stats = outs.first().expect("one outcome").stats;
        self.memo_specialize_stats = Some(stats);
        Ok(stats)
    }

    /// Runs the memo-specialized filter on a packet.
    ///
    /// # Errors
    ///
    /// Returns an error if the filter was not memo-specialized or the
    /// machine fails.
    pub fn memo_specialized(&mut self, pkt: &Packet) -> Result<(i64, u64), Error> {
        self.specialize_memo()?;
        let (v, stats) = self.session.call("pfm", packet_value(pkt))?;
        Ok((expect_verdict(&v)?, stats.steps))
    }

    /// Specializes the filter via `bevalpf` and extracts the *generated*
    /// closure into a thread-shareable [`CompiledFilter`]. The generator
    /// runs here, once; workers instantiate machines from the artifact
    /// and apply it to [`filter_arg`]-shaped packets without paying
    /// generation again.
    ///
    /// Note the asymmetry with [`FilterHarness::specialized`]: that path
    /// runs `compilepf`'s wrapper `fn pkt => f (0, 0, pkt)`, a closure
    /// over the whole session environment (prelude tables are ref cells,
    /// which can never cross threads). The artifact captures only the
    /// code generated by `bevalpf (theFilter, 0)` — closed by
    /// construction, every lifted constant an immediate — and the
    /// `(A, X, pkt)` triple is built on the Rust side ([`filter_arg`])
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns an error if specialization fails or the generated value
    /// cannot be extracted.
    pub fn compile_artifact(&mut self) -> Result<CompiledFilter, Error> {
        let fp = self.filter_fingerprint();
        self.session
            .compile_to_artifact("bevalpf (theFilter, 0)", fp)
    }

    /// Cumulative machine statistics for the whole session, including the
    /// freeze-cache counters (`freezes`, `freeze_hits`). Combine with
    /// [`Stats::delta_since`] to meter a window of calls.
    pub fn machine_stats(&self) -> Stats {
        self.session.stats()
    }

    /// Access to the underlying session (for custom measurements).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

/// The machine-value argument a specialized filter body expects: the
/// `(A, X, pkt)` triple with both registers zeroed, exactly what
/// `compilepf`'s ML wrapper `fn pkt => f (0, 0, pkt)` would build.
/// Artifact runners build it here instead so the entry point stays free
/// of session state.
pub fn filter_arg(pkt: &Packet) -> Value {
    Value::tuple(vec![Value::Int(0), Value::Int(0), packet_value(pkt)])
}

/// Reads an integer verdict off a filter result.
///
/// # Errors
///
/// Returns a machine type-mismatch error if the value is not an integer.
pub fn expect_verdict(v: &Value) -> Result<i64, Error> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(Error::Machine(ccam::machine::MachineError::TypeMismatch {
            instr: "harness",
            expected: "an integer verdict",
            found: other.to_string(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{chain_filter, telnet_filter};
    use crate::native::run_filter;
    use crate::packet::PacketGen;

    #[test]
    fn interp_agrees_with_native_interpreter() {
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let mut g = PacketGen::new(21);
        for pkt in g.workload(12, 0.5) {
            let (ml_verdict, _) = h.interp(&pkt).unwrap();
            let native = run_filter(&filter, &pkt.bytes);
            assert_eq!(ml_verdict, native, "on {:?}", pkt.kind);
        }
    }

    #[test]
    fn specialized_agrees_with_interp_and_is_faster() {
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let mut g = PacketGen::new(22);
        let gen_stats = h.specialize().unwrap();
        assert!(gen_stats.emitted > 0, "specialization must emit code");
        for pkt in g.workload(8, 0.5) {
            let (iv, isteps) = h.interp(&pkt).unwrap();
            let (sv, ssteps) = h.specialized(&pkt).unwrap();
            assert_eq!(iv, sv, "verdicts agree on {:?}", pkt.kind);
            assert!(
                ssteps * 2 < isteps,
                "specialized {ssteps} vs interpreted {isteps} on {:?}",
                pkt.kind
            );
        }
    }

    #[test]
    fn memo_specialization_agrees() {
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let mut g = PacketGen::new(23);
        for pkt in g.workload(6, 0.5) {
            let (iv, _) = h.interp(&pkt).unwrap();
            let (mv, _) = h.memo_specialized(&pkt).unwrap();
            assert_eq!(iv, mv, "on {:?}", pkt.kind);
        }
    }

    #[test]
    fn memo_specialization_emits_no_more_than_plain() {
        // With shared jump targets (both port-test branches reach RET),
        // the memoizing generator must emit at most as many instructions.
        let filter = telnet_filter();
        let mut h1 = FilterHarness::new(&filter).unwrap();
        let plain = h1.specialize().unwrap();
        let mut h2 = FilterHarness::new(&filter).unwrap();
        let memo = h2.specialize_memo().unwrap();
        assert!(
            memo.emitted <= plain.emitted,
            "memo {} vs plain {}",
            memo.emitted,
            plain.emitted
        );
    }

    #[test]
    fn chain_filters_work_at_every_length() {
        for n in [0usize, 1, 4, 16] {
            let filter = chain_filter(n);
            let mut h = FilterHarness::new(&filter).unwrap();
            let pkt = Packet {
                bytes: vec![42, 0, 0, 0],
                kind: crate::packet::PacketKind::Arp,
            };
            let (v, _) = h.interp(&pkt).unwrap();
            assert_eq!(v, 42);
            let (v2, _) = h.specialized(&pkt).unwrap();
            assert_eq!(v2, 42);
        }
    }

    #[test]
    fn specialized_runs_do_not_refreeze() {
        // Specialization freezes the generated arena once; running the
        // resulting closure afterwards is plain closure application and
        // must not freeze (or re-copy) anything.
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let mut g = PacketGen::new(24);
        let pkt = g.workload(1, 0.5).remove(0);
        h.specialized(&pkt).unwrap();
        let before = h.machine_stats();
        assert!(before.freezes > 0, "specialization must freeze");
        for _ in 0..10 {
            h.specialized(&pkt).unwrap();
        }
        let delta = h.machine_stats().delta_since(&before);
        assert_eq!(delta.freezes, 0, "re-running must not re-freeze");
    }

    #[test]
    fn artifact_agrees_with_specialized_and_native() {
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let artifact = h.compile_artifact().unwrap();
        assert_eq!(artifact.source_fingerprint(), h.filter_fingerprint());
        assert!(artifact.instructions() > 0);
        let mut instance = artifact.instantiate();
        let mut g = PacketGen::new(25);
        for pkt in g.workload(8, 0.5) {
            let (sv, _) = h.specialized(&pkt).unwrap();
            let (raw, stats) = instance.run(filter_arg(&pkt)).unwrap();
            let av = expect_verdict(&raw).unwrap();
            assert_eq!(av, sv, "artifact verdict on {:?}", pkt.kind);
            assert_eq!(av, run_filter(&filter, &pkt.bytes), "native agreement");
            assert!(stats.steps > 0);
            assert_eq!(stats.emitted, 0, "artifact runs must not generate");
        }
    }

    #[test]
    fn artifact_instances_cost_identical_steps_per_packet() {
        let filter = telnet_filter();
        let mut h = FilterHarness::new(&filter).unwrap();
        let artifact = h.compile_artifact().unwrap();
        let mut a = artifact.instantiate();
        let mut b = artifact.instantiate();
        let mut g = PacketGen::new(26);
        for pkt in g.workload(6, 0.5) {
            let (va, sa) = a.run(filter_arg(&pkt)).unwrap();
            let (vb, sb) = b.run(filter_arg(&pkt)).unwrap();
            assert_eq!(expect_verdict(&va).unwrap(), expect_verdict(&vb).unwrap());
            assert_eq!(sa.steps, sb.steps, "per-packet cost is deterministic");
        }
    }

    #[test]
    fn invalid_filter_is_rejected() {
        let bad = vec![Insn::JeqK { k: 0, jt: 9, jf: 9 }];
        assert!(FilterHarness::new(&bad).is_err());
    }
}
