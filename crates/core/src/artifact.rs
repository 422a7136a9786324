//! Shareable compiled-code artifacts: the *generate once, run many*
//! half of the paper, made operational.
//!
//! A [`Session`](crate::Session) is single-threaded by construction —
//! its values are `Rc`/`RefCell` graphs. A [`CompiledFilter`] is the
//! escape hatch: the finished, frozen result of running a generating
//! extension, held as its checksummed wire bytes ([`crate::wire`], whose
//! payload is [`ccam::wire`]'s encoding of the entry point) together
//! with the metadata a cache needs (the options it was compiled under, a
//! fingerprint of the source program, and its instruction count). The
//! bytes are the `Send + Sync` form: any thread can then [`instantiate`]
//! a fresh machine from the artifact — decoding the bytes straight into
//! its own segment and values — and run packets against it without
//! re-running the generator.
//!
//! [`instantiate`]: CompiledFilter::instantiate

use crate::error::Error;
use crate::session::SessionOptions;
use ccam::instr::Instr;
use ccam::machine::{Machine, MachineError, Stats};
use ccam::seg::{CodeRef, CodeSeg};
use ccam::value::Value;
use ccam::wire::{Decoded, PayloadInfo};
use std::sync::Arc;

/// A frozen, validated, thread-shareable compiled filter.
///
/// Produced by [`Session::compile_to_artifact`] or loaded with
/// [`CompiledFilter::from_wire_bytes`]; consumed by
/// [`CompiledFilter::instantiate`] on any thread. Either way its payload
/// has passed [`ccam::wire::validate`], which accepts exactly the bytes
/// [`ccam::wire::decode`] accepts, so every later decode succeeds.
///
/// [`Session::compile_to_artifact`]: crate::Session::compile_to_artifact
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    /// The checksummed container, shared by every clone.
    pub(crate) bytes: Arc<[u8]>,
    /// Where the payload section starts in `bytes`; it ends at the
    /// checksum trailer.
    pub(crate) payload_start: usize,
    pub(crate) options: SessionOptions,
    pub(crate) source_fingerprint: u64,
    /// What the payload validator counted.
    pub(crate) info: PayloadInfo,
}

// A compiled artifact must be shareable across worker threads — that is
// its entire reason to exist. Compile-time enforcement.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledFilter>();
    assert_send_sync::<Arc<CompiledFilter>>();
};

impl CompiledFilter {
    /// Frames an encoded entry point ([`ccam::wire::encode`]) as an
    /// artifact and validates it exactly as a load would.
    pub(crate) fn new(
        payload: &[u8],
        options: SessionOptions,
        source_fingerprint: u64,
    ) -> Result<Self, Error> {
        CompiledFilter::from_wire_bytes(&crate::wire::frame(payload, &options, source_fingerprint))
    }

    /// The options the artifact was compiled under.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Fingerprint of the source program the artifact was compiled from.
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Fingerprint of the compilation options ([`SessionOptions::fingerprint`]).
    pub fn options_fingerprint(&self) -> u64 {
        self.options.fingerprint()
    }

    /// Number of distinct instructions in the artifact (shared code
    /// bodies counted once).
    pub fn instructions(&self) -> usize {
        self.info.instructions
    }

    /// Whether the entry point's value graph carries contiguous frame
    /// environments (it was generated with `flat_env`); recomputed from
    /// the payload, never read from a field the producer wrote.
    pub fn uses_frames(&self) -> bool {
        self.info.uses_frames
    }

    /// The payload section: [`ccam::wire::encode`]'s bytes for the entry
    /// point.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.payload_start..self.bytes.len() - 8]
    }

    /// Checks that this artifact's value representation is sound for a
    /// consumer compiled under `consumer` options. An artifact whose
    /// value graph carries contiguous frames (it was generated with
    /// `flat_env`) must never run in a session using a different
    /// environment mode: the consumer's step accounting assumes the
    /// pair-spine cost model, and silently running frame-backed
    /// closures would corrupt the measurement the serving oracle
    /// compares. The options fingerprint already keeps such artifacts
    /// in separate cache slots; this is the belt-and-braces check at
    /// the load boundary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] on a representation mismatch.
    pub fn check_compatible(&self, consumer: &SessionOptions) -> Result<(), Error> {
        if self.info.uses_frames && !consumer.flat_env {
            return Err(Error::Artifact(
                "artifact carries flat-env frame environments but the \
                 consuming session is not in flat_env mode; rebuild the \
                 artifact under the consumer's options"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Decodes the entry point into a fresh segment and value graph for
    /// a consumer running under `consumer` options, first rejecting
    /// representation mismatches
    /// (see [`check_compatible`](CompiledFilter::check_compatible)).
    /// Sharing inside the artifact is preserved. Dropping the result
    /// tears the decoded segment down.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] on a representation mismatch.
    pub fn hydrate_for(&self, consumer: &SessionOptions) -> Result<Hydrated, Error> {
        self.check_compatible(consumer)?;
        Ok(self.hydrate())
    }

    /// [`hydrate_for`](CompiledFilter::hydrate_for)'s entry point alone,
    /// without the segment it was decoded into. Nothing tears that
    /// segment down: an artifact whose code quotes a closure over its
    /// own segment (a `lift`ed function) is never freed. Prefer
    /// `hydrate_for`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] on a representation mismatch.
    pub fn hydrate_entry_for(&self, consumer: &SessionOptions) -> Result<Value, Error> {
        self.check_compatible(consumer)?;
        Ok(self.decode().value)
    }

    /// A fresh single-threaded runner for this artifact: its own
    /// [`Machine`] (configured with the artifact's options) plus a
    /// decoded copy of the entry point. Cheap — no parsing, type
    /// checking, or code generation happens.
    pub fn instantiate(&self) -> FilterInstance {
        FilterInstance {
            machine: machine_for(&self.options),
            entry: self.hydrate(),
            app: app_code(),
        }
    }

    fn hydrate(&self) -> Hydrated {
        let Decoded { seg, value, .. } = self.decode();
        Hydrated { seg, entry: value }
    }

    fn decode(&self) -> Decoded {
        ccam::wire::decode(self.payload())
            .expect("an artifact's payload was validated when the artifact was built")
    }
}

/// A decoded entry point together with the segment it was decoded into
/// ([`CompiledFilter::hydrate_for`]). Dropping it tears that segment
/// down ([`CodeSeg::tear_down`]), so the `Rc` cycle of an artifact whose
/// code quotes a closure over its own segment is freed with it.
#[derive(Debug)]
pub struct Hydrated {
    seg: CodeSeg,
    entry: Value,
}

impl Hydrated {
    /// The entry point, valid while `self` lives: applying a function
    /// taken out of it after the drop fails with
    /// [`MachineError::DanglingBlock`].
    pub fn entry(&self) -> &Value {
        &self.entry
    }
}

impl Drop for Hydrated {
    fn drop(&mut self) {
        let entry = std::mem::replace(&mut self.entry, Value::Unit);
        self.seg.tear_down([entry]);
    }
}

/// Builds a machine configured exactly as a [`Session`](crate::Session)
/// with these options would configure its own.
pub fn machine_for(options: &SessionOptions) -> Machine {
    match options.fuel {
        Some(f) => Machine::with_fuel(f),
        None => Machine::new(),
    }
}

/// The single-instruction application program used by every artifact
/// runner. Using one shared entry sequence (bare `app` on a
/// `(closure, argument)` pair) guarantees the oracle and every pool
/// worker pay *identical* step counts for the same packet.
pub fn app_code() -> CodeRef {
    CodeSeg::new().entry(vec![Instr::App])
}

/// Applies `entry` to `arg` on `machine`, returning the result and the
/// statistics of this call alone. `app` should come from [`app_code`]
/// (passed in so callers can reuse one allocation across a batch).
///
/// # Errors
///
/// Returns any CCAM run-time error from the application.
pub fn apply(
    machine: &mut Machine,
    app: &CodeRef,
    entry: &Value,
    arg: Value,
) -> Result<(Value, Stats), MachineError> {
    let before = machine.stats();
    let result = machine.run(app.clone(), Value::pair(entry.clone(), arg))?;
    let stats = machine.stats().delta_since(&before);
    Ok((result, stats))
}

/// A single-threaded runner instantiated from a [`CompiledFilter`]:
/// one machine, one decoded entry point.
#[derive(Debug)]
pub struct FilterInstance {
    machine: Machine,
    entry: Hydrated,
    app: CodeRef,
}

impl FilterInstance {
    /// Applies the compiled filter to `arg`, returning the result and
    /// the statistics of this call alone.
    ///
    /// # Errors
    ///
    /// Returns any CCAM run-time error from the application.
    pub fn run(&mut self, arg: Value) -> Result<(Value, Stats), MachineError> {
        apply(&mut self.machine, &self.app, self.entry.entry(), arg)
    }

    /// Total statistics accumulated by this instance.
    pub fn stats(&self) -> Stats {
        self.machine.stats()
    }

    /// Zeroes the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.machine.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn power_artifact() -> CompiledFilter {
        let mut s = Session::new().unwrap();
        s.run(
            "fun codePower e = if e = 0 then code (fn b => 1)
                               else let cogen p = codePower (e - 1)
                                    in code (fn b => b * (p b)) end",
        )
        .unwrap();
        s.compile_to_artifact("codePower 3", 0xc0de).unwrap()
    }

    #[test]
    fn artifact_round_trips_a_generated_function() {
        let artifact = power_artifact();
        assert!(artifact.instructions() > 0);
        assert_eq!(artifact.source_fingerprint(), 0xc0de);
        let mut instance = artifact.instantiate();
        let (v, stats) = instance.run(Value::Int(5)).unwrap();
        assert_eq!(v.to_string(), "125");
        assert!(stats.steps > 0);
        assert_eq!(stats.emitted, 0, "running an artifact generates nothing");
    }

    #[test]
    fn instances_are_independent_and_deterministic() {
        let artifact = power_artifact();
        let mut a = artifact.instantiate();
        let mut b = artifact.instantiate();
        let (va, sa) = a.run(Value::Int(7)).unwrap();
        let (vb, sb) = b.run(Value::Int(7)).unwrap();
        assert_eq!(va.to_string(), vb.to_string());
        assert_eq!(sa.steps, sb.steps, "same artifact, same per-call cost");
        a.reset_stats();
        assert_eq!(a.stats().steps, 0);
        assert_eq!(b.stats().steps, sb.steps, "reset is per-instance");
    }

    #[test]
    fn artifact_runs_on_another_thread() {
        let artifact = Arc::new(power_artifact());
        let shared = Arc::clone(&artifact);
        let remote = std::thread::spawn(move || {
            let mut instance = shared.instantiate();
            let (v, stats) = instance.run(Value::Int(4)).unwrap();
            (v.to_string(), stats.steps)
        })
        .join()
        .unwrap();
        let mut local = artifact.instantiate();
        let (v, stats) = local.run(Value::Int(4)).unwrap();
        assert_eq!(remote, (v.to_string(), stats.steps));
    }

    #[test]
    fn artifact_agrees_with_ml_level_eval() {
        // The unit-environment splice must produce the same function
        // `eval` would — same verdicts, same generated body.
        let mut s = Session::new().unwrap();
        s.run(
            "fun codePower e = if e = 0 then code (fn b => 1)
                               else let cogen p = codePower (e - 1)
                                    in code (fn b => b * (p b)) end
             val viaEval = eval (codePower 3)",
        )
        .unwrap();
        let artifact = s.compile_to_artifact("codePower 3", 0).unwrap();
        let mut instance = artifact.instantiate();
        for n in [0i64, 1, 2, 9] {
            let oracle = s.call("viaEval", Value::Int(n)).unwrap().0;
            let (v, _) = instance.run(Value::Int(n)).unwrap();
            assert_eq!(v.to_string(), oracle.to_string());
        }
    }

    #[test]
    fn hydrated_entries_free_a_self_quoting_segment() {
        // Lifting `f` into the generated code quotes a closure whose body
        // is in the artifact: decoded, the segment holds itself.
        let mut s = Session::new().unwrap();
        s.run("val f = fn x => x + 1").unwrap();
        let artifact = s
            .compile_to_artifact("let cogen c = lift f in code (fn x => c x) end", 0)
            .unwrap();
        drop(s);
        // Premise: the bare decode keeps its segment alive.
        let decoded = artifact.decode();
        let leaked = decoded.seg.downgrade();
        drop(decoded);
        let seg = leaked.upgrade().expect("premise: a self-quoting segment");
        seg.tear_down([]);
        drop(seg);
        assert!(leaked.upgrade().is_none());
        // A hydrated entry and an instance own their segments.
        let hydrated = artifact.hydrate_for(&SessionOptions::default()).unwrap();
        let weak = hydrated.seg.downgrade();
        drop(hydrated);
        assert!(weak.upgrade().is_none(), "hydrated entry freed");
        let mut instance = artifact.instantiate();
        assert_eq!(instance.run(Value::Int(4)).unwrap().0.to_string(), "5");
        let weak = instance.entry.seg.downgrade();
        drop(instance);
        assert!(weak.upgrade().is_none(), "instance freed");
    }

    #[test]
    fn non_function_results_are_rejected() {
        let mut s = Session::new().unwrap();
        let err = s.compile_to_artifact("lift 42", 0).unwrap_err();
        assert!(err.to_string().contains("not a function"), "{err}");
    }

    #[test]
    fn flat_env_artifacts_refuse_pair_spine_consumers() {
        let flat = SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        };
        let mut s = Session::with_options(flat.clone()).unwrap();
        // `f` closes over the frame-backed session environment, and
        // lifting it residualizes that frame into the generated code.
        s.run("val a = 1;\nval b = 2;\nval f = fn x => x + a + b")
            .unwrap();
        let artifact = s
            .compile_to_artifact("let cogen c = lift f in code (fn x => c x) end", 0)
            .unwrap();
        assert!(
            artifact.uses_frames(),
            "the lifted closure must carry its frame environment"
        );
        // The artifact runs correctly under its own options...
        let mut instance = artifact.instantiate();
        let (v, _) = instance.run(Value::Int(4)).unwrap();
        assert_eq!(v.to_string(), "7");
        // ...checked hydration under matching options succeeds...
        artifact.hydrate_entry_for(&flat).unwrap();
        // ...and a pair-spine consumer is refused rather than silently
        // mis-measured.
        let err = artifact
            .hydrate_entry_for(&SessionOptions::paper())
            .unwrap_err();
        assert!(err.to_string().contains("flat-env"), "{err}");
    }

    #[test]
    fn frame_free_artifacts_hydrate_for_any_consumer() {
        let artifact = power_artifact();
        assert!(!artifact.uses_frames());
        artifact
            .hydrate_entry_for(&SessionOptions::default())
            .unwrap();
        artifact
            .hydrate_entry_for(&SessionOptions {
                flat_env: true,
                ..SessionOptions::default()
            })
            .unwrap();
    }

    #[test]
    fn unportable_residuals_are_rejected() {
        let mut s = Session::new().unwrap();
        // Lifting a ref cell residualizes it into the generated body as
        // an immediate — inherently thread-unsafe, so encoding must
        // refuse it.
        s.run("val r = ref 0").unwrap();
        let err = s
            .compile_to_artifact("let cogen c = lift r in code (fn x => c) end", 0)
            .unwrap_err();
        assert!(err.to_string().contains("ref cell"), "{err}");
    }
}
