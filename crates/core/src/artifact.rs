//! Shareable compiled-code artifacts: the *generate once, run many*
//! half of the paper, made operational.
//!
//! A [`Session`](crate::Session) is single-threaded by construction —
//! its values are `Rc`/`RefCell` graphs. A [`CompiledFilter`] is the
//! escape hatch: the finished, frozen result of running a generating
//! extension, extracted into the `Send + Sync` portable representation
//! ([`ccam::portable`]) together with the metadata a cache needs (the
//! options it was compiled under, a fingerprint of the source program,
//! and its instruction count). Any thread can then [`instantiate`] a
//! fresh machine from the artifact and run packets against it without
//! re-running the generator.
//!
//! [`instantiate`]: CompiledFilter::instantiate

use crate::error::Error;
use crate::session::SessionOptions;
use ccam::instr::Instr;
use ccam::machine::{Machine, MachineError, Stats};
use ccam::portable::PortableValue;
use ccam::seg::{CodeRef, CodeSeg};
use ccam::value::Value;
use std::sync::Arc;

/// A frozen, validated, thread-shareable compiled filter.
///
/// Produced by [`Session::compile_to_artifact`]; consumed by
/// [`CompiledFilter::instantiate`] on any thread.
///
/// [`Session::compile_to_artifact`]: crate::Session::compile_to_artifact
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    entry: PortableValue,
    options: SessionOptions,
    source_fingerprint: u64,
    instructions: usize,
}

// A compiled artifact must be shareable across worker threads — that is
// its entire reason to exist. Compile-time enforcement.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledFilter>();
    assert_send_sync::<Arc<CompiledFilter>>();
};

impl CompiledFilter {
    /// Packages an already-extracted entry point with its metadata.
    /// Prefer [`Session::compile_to_artifact`], which also validates.
    ///
    /// [`Session::compile_to_artifact`]: crate::Session::compile_to_artifact
    pub fn new(entry: PortableValue, options: SessionOptions, source_fingerprint: u64) -> Self {
        let instructions = entry.instr_count();
        CompiledFilter {
            entry,
            options,
            source_fingerprint,
            instructions,
        }
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
        self.instructions
    }

    /// The portable entry-point value.
    pub fn entry(&self) -> &PortableValue {
        &self.entry
    }

    /// Rebuilds the entry point as a machine value for the current
    /// thread. Sharing inside the artifact is preserved.
    pub fn hydrate_entry(&self) -> Value {
        self.entry.hydrate()
    }

    /// Checks that this artifact's value representation is sound for a
    /// consumer compiled under `consumer` options. An artifact whose
    /// value graph carries contiguous frames (it was generated with
    /// `flat_env`) must never hydrate into a session using a different
    /// environment mode: the consumer's step accounting assumes the
    /// pair-spine cost model, and silently running frame-backed
    /// closures would corrupt the measurement the serving oracle
    /// compares. The options fingerprint already keeps such artifacts
    /// in separate cache slots; this is the belt-and-braces check at
    /// the hydration boundary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] on a representation mismatch.
    pub fn check_compatible(&self, consumer: &SessionOptions) -> Result<(), Error> {
        if self.entry.uses_frames() && !consumer.flat_env {
            return Err(Error::Artifact(
                "artifact carries flat-env frame environments but the \
                 consuming session is not in flat_env mode; rebuild the \
                 artifact under the consumer's options"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Rebuilds the entry point for a consumer running under `consumer`
    /// options, first rejecting representation mismatches
    /// (see [`check_compatible`](CompiledFilter::check_compatible)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] on a representation mismatch.
    pub fn hydrate_entry_for(&self, consumer: &SessionOptions) -> Result<Value, Error> {
        self.check_compatible(consumer)?;
        Ok(self.entry.hydrate())
    }

    /// A fresh single-threaded runner for this artifact: its own
    /// [`Machine`] (configured with the artifact's options) plus a
    /// hydrated copy of the entry point. Cheap — no parsing, type
    /// checking, or code generation happens.
    pub fn instantiate(&self) -> FilterInstance {
        FilterInstance {
            machine: machine_for(&self.options),
            entry: self.entry.hydrate(),
            app: app_code(),
        }
    }
}

/// Builds a machine configured exactly as a [`Session`](crate::Session)
/// with these options would configure its own.
pub fn machine_for(options: &SessionOptions) -> Machine {
    let mut machine = match options.fuel {
        Some(f) => Machine::with_fuel(f),
        None => Machine::new(),
    };
    machine.set_optimize(options.optimize);
    machine.set_count_opcodes(options.count_opcodes);
    machine.set_fuse(options.fuse);
    if let Some(policy) = options.adaptive {
        // Step charges stay in the baseline cost model the compiler
        // targets: pair-spine units unless accesses compile to
        // indexed/flat `acc` paths.
        let spine_units = !(options.indexed_env || options.flat_env);
        machine.set_tier_policy(Some(policy), spine_units);
    }
    machine
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
/// one machine, one hydrated entry point.
#[derive(Debug)]
pub struct FilterInstance {
    machine: Machine,
    entry: Value,
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
        apply(&mut self.machine, &self.app, &self.entry, arg)
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
            artifact.entry().uses_frames(),
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
            .hydrate_entry_for(&SessionOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("flat-env"), "{err}");
    }

    #[test]
    fn frame_free_artifacts_hydrate_for_any_consumer() {
        let artifact = power_artifact();
        assert!(!artifact.entry().uses_frames());
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
        // an immediate — inherently thread-unsafe, so extraction must
        // refuse it.
        s.run("val r = ref 0").unwrap();
        let err = s
            .compile_to_artifact("let cogen c = lift r in code (fn x => c) end", 0)
            .unwrap_err();
        assert!(err.to_string().contains("ref cell"), "{err}");
    }
}
