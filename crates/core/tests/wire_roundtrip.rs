//! Wire round-trips across the whole mode lattice.
//!
//! Both environment representations (pair spine / flat frames) must
//! round-trip an artifact through the wire format and serve identically:
//! same value, same reduction-step count, byte-identical re-encode. The
//! frame-bearing / flat-env compatibility rule is checked at both ends
//! (a flat artifact refuses a pair-spine consumer; every artifact accepts a
//! consumer with its own options).

use mlbox::{CompiledFilter, Session, SessionOptions};

/// A staged program whose artifact exercises closures, recursion in the
/// generator, and arithmetic — small enough to compile in every mode.
const PROGRAM: &str = "fun codePower e = if e = 0 then code (fn b => 1)
                       else let cogen p = codePower (e - 1)
                            in code (fn b => b * (p b)) end";

fn mode_lattice() -> Vec<SessionOptions> {
    [false, true]
        .map(|flat_env| SessionOptions {
            flat_env,
            ..SessionOptions::default()
        })
        .to_vec()
}

fn artifact_under(options: &SessionOptions) -> CompiledFilter {
    let mut session = Session::with_options(options.clone()).unwrap();
    session.run(PROGRAM).unwrap();
    session.compile_to_artifact("codePower 4", 0xabcd).unwrap()
}

#[test]
fn every_mode_roundtrips_value_and_step_identical() {
    for options in mode_lattice() {
        let artifact = artifact_under(&options);
        let bytes = artifact.to_wire_bytes();
        let back = CompiledFilter::from_wire_bytes_for(&bytes, &options)
            .unwrap_or_else(|e| panic!("{options:?}: own-options consumer refused: {e}"));
        let entry = back.hydrate_entry_for(&options).unwrap();
        assert_eq!(
            ccam::wire::encode(&entry).unwrap().0,
            back.payload(),
            "{options:?}: re-encode is not byte-identical"
        );
        let (fresh_value, fresh_stats) = artifact
            .instantiate()
            .run(ccam::value::Value::Int(3))
            .unwrap();
        let (value, stats) = back.instantiate().run(ccam::value::Value::Int(3)).unwrap();
        assert_eq!(value.to_string(), "81", "{options:?}: wrong answer");
        assert_eq!(value.to_string(), fresh_value.to_string());
        assert_eq!(
            stats.steps, fresh_stats.steps,
            "{options:?}: cost model changed across the wire"
        );
    }
}

#[test]
fn frame_bearing_artifacts_refuse_incompatible_consumers() {
    // `codePower` artifacts carry no frame values in any mode (the
    // generated closures close over nothing), so build one that does: a
    // lifted closure over top-level flat-mode bindings embeds its frame
    // environment in the artifact.
    let flat = SessionOptions {
        flat_env: true,
        ..SessionOptions::default()
    };
    let mut session = Session::with_options(flat.clone()).unwrap();
    session
        .run("val a = 1;\nval b = 2;\nval f = fn x => x + a + b")
        .unwrap();
    let artifact = session
        .compile_to_artifact("let cogen c = lift f in code (fn x => c x) end", 0)
        .unwrap();
    assert!(artifact.uses_frames(), "test premise: frames on board");
    let bytes = artifact.to_wire_bytes();
    // The artifact's own mode loads it...
    CompiledFilter::from_wire_bytes_for(&bytes, &flat).unwrap();
    // ...a pair-spine consumer must be refused at load, not at run time.
    let err = CompiledFilter::from_wire_bytes_for(&bytes, &SessionOptions::paper())
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("flat-env"),
        "expected the flat-env compatibility error, got: {err}"
    );
}

#[test]
fn cross_mode_loads_are_allowed_when_values_carry_no_frames() {
    // Frame-freedom, not the producer's mode bit, is what gates loading:
    // a pair-spine artifact (no frames anywhere) may be loaded by
    // any consumer, including a flat-env one.
    let bytes = artifact_under(&SessionOptions::paper()).to_wire_bytes();
    for options in mode_lattice() {
        CompiledFilter::from_wire_bytes_for(&bytes, &options)
            .unwrap_or_else(|e| panic!("{options:?}: frame-free artifact refused: {e}"));
    }
}
