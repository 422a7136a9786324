//! Pins the artifact wire format byte-for-byte.
//!
//! The canonical artifact — the §3.4 staged power function specialized
//! at exponent 2, default options, source fingerprint `0x1998`, exactly
//! what the `wire-dump` binary emits — must encode to the hex in
//! `tests/golden/artifact_wire.hex`. Any drift is a wire format change:
//! artifacts persisted by earlier builds would stop (or worse, subtly
//! change how they) decode. A deliberate format change must bump
//! `mlbox::wire::FORMAT_VERSION` and regenerate the lockfile:
//!
//! ```text
//! cargo run -p mlbox --bin wire-dump > tests/golden/artifact_wire.hex
//! ```
//!
//! CI runs the same diff as a workflow step, and the decode direction is
//! pinned too: the golden *bytes* must still decode, hydrate, and
//! compute 6² with the same reduction-step count. The bytes of removed
//! options stay in the format; an artifact that turns one on decodes to
//! a typed error naming it.

use mlbox::fingerprint::Fnv1a;
use mlbox::wire::WireError;
use mlbox::{CompiledFilter, Error, Session, SessionOptions, TierPolicy};

const GOLDEN_HEX: &str = include_str!("../../../tests/golden/artifact_wire.hex");

const GOLDEN_PROGRAM: &str = "fun codePower e = if e = 0 then code (fn b => 1)
                   else let cogen p = codePower (e - 1)
                        in code (fn b => b * (p b)) end";

fn golden_artifact() -> CompiledFilter {
    let mut session = Session::new().unwrap();
    session.run(GOLDEN_PROGRAM).unwrap();
    session.compile_to_artifact("codePower 2", 0x1998).unwrap()
}

fn hex_lines(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn golden_bytes() -> Vec<u8> {
    let digits: Vec<u8> = GOLDEN_HEX.bytes().filter(u8::is_ascii_hexdigit).collect();
    assert_eq!(digits.len() % 2, 0, "lockfile has a dangling hex digit");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn encoding_matches_the_golden_lockfile() {
    let got = hex_lines(&golden_artifact().to_wire_bytes());
    assert_eq!(
        got.trim_end(),
        GOLDEN_HEX.trim_end(),
        "wire encoding drifted from tests/golden/artifact_wire.hex — \
         if intentional, bump FORMAT_VERSION and regenerate with \
         `cargo run -p mlbox --bin wire-dump`"
    );
}

#[test]
fn golden_bytes_still_decode_and_run() {
    let decoded = CompiledFilter::from_wire_bytes(&golden_bytes()).unwrap();
    assert_eq!(decoded.source_fingerprint(), 0x1998);

    // The pinned bytes must serve exactly like a fresh compile: same
    // answer, same reduction-step count (the cost model is part of the
    // format contract).
    let fresh = golden_artifact();
    let (fresh_value, fresh_stats) = fresh.instantiate().run(ccam::value::Value::Int(6)).unwrap();
    let (value, stats) = decoded
        .instantiate()
        .run(ccam::value::Value::Int(6))
        .unwrap();
    assert_eq!(value.to_string(), "36");
    assert_eq!(value.to_string(), fresh_value.to_string());
    assert_eq!(stats.steps, fresh_stats.steps);
}

/// Sets the last byte of the options section — the removed-option byte
/// of both a static and an adaptive encoding — to 1, and recomputes the
/// trailing checksum so the option, not the checksum, is what decode
/// sees.
fn turn_on_last_option_byte(mut bytes: Vec<u8>) -> Vec<u8> {
    let options_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let at = 32 + options_len - 1;
    assert_eq!(bytes[at], 0, "removed options are written as 0");
    bytes[at] = 1;
    let content = bytes.len() - 8;
    let mut h = Fnv1a::new();
    h.write(&bytes[..content]);
    bytes[content..].copy_from_slice(&h.finish().to_le_bytes());
    bytes
}

#[test]
fn artifacts_with_a_removed_option_on_decode_to_a_typed_error() {
    let err =
        CompiledFilter::from_wire_bytes(&turn_on_last_option_byte(golden_bytes())).unwrap_err();
    assert!(
        matches!(err, Error::Wire(WireError::RemovedOption("native"))),
        "{err}"
    );

    let mut session = Session::with_options(SessionOptions {
        adaptive: Some(TierPolicy::default()),
        ..SessionOptions::default()
    })
    .unwrap();
    session.run(GOLDEN_PROGRAM).unwrap();
    let adaptive = session
        .compile_to_artifact("codePower 2", 0x1998)
        .unwrap()
        .to_wire_bytes();
    CompiledFilter::from_wire_bytes(&adaptive).unwrap();
    let err = CompiledFilter::from_wire_bytes(&turn_on_last_option_byte(adaptive)).unwrap_err();
    assert!(
        matches!(err, Error::Wire(WireError::RemovedOption("use_native"))),
        "{err}"
    );
}
