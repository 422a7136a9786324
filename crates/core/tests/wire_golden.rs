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
//! compute 6² with the same reduction-step count. The slots of removed
//! options stay in the format at the one value each had in use; an
//! artifact holding any other value there decodes to a typed error
//! naming the option. So does a container of the removed adaptive
//! profile, which appended a trailer to the options section.

use mlbox::fingerprint::Fnv1a;
use mlbox::wire::WireError;
use mlbox::{CompiledFilter, Error, Session};

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

fn options_len(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize
}

/// Recomputes the trailing checksum, so an edit before it, not the
/// checksum, is what decode sees.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let content = bytes.len() - 8;
    let mut h = Fnv1a::new();
    h.write(&bytes[..content]);
    bytes[content..].copy_from_slice(&h.finish().to_le_bytes());
    bytes
}

/// Changes the options-section byte `from_end` places before the
/// section's end (1 = its last byte) from `from` to `to`, and reseals.
fn set_option_byte(mut bytes: Vec<u8>, from_end: usize, from: u8, to: u8) -> Vec<u8> {
    let at = 32 + options_len(&bytes) - from_end;
    assert_eq!(bytes[at], from, "the artifact holds the option's value");
    bytes[at] = to;
    reseal(bytes)
}

/// Options-section positions, counted from the section's end: a static
/// encoding ends `.., typecheck, optimize, count_opcodes, indexed_env,
/// flat_env, fuse, native`; an adaptive one appended an 18-byte trailer
/// (the profile marker, `promote_after` and `fuse_top_k` as `u64` LE,
/// and `use_native`).
const STATIC_NATIVE: usize = 1;
const STATIC_FUSE: usize = 2;
const STATIC_INDEXED_ENV: usize = 4;
const STATIC_COUNT_OPCODES: usize = 5;
const STATIC_OPTIMIZE: usize = 6;
const STATIC_TYPECHECK: usize = 7;
const ADAPTIVE_USE_NATIVE: usize = 1;
/// The low byte of `fuse_top_k`.
const ADAPTIVE_FUSE_TOP_K: usize = 9;
const ADAPTIVE_FUSE: usize = STATIC_FUSE + 18;
const ADAPTIVE_OPTIMIZE: usize = STATIC_OPTIMIZE + 18;

/// The trailer the removed `TierPolicy::default()` encoded to: the
/// profile marker, `promote_after` 8, `fuse_top_k` at its fixed 7,
/// `use_native` off.
const ADAPTIVE_DEFAULT_TRAILER: [u8; 18] = [1, 8, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0];
/// The options fingerprint the removed profile gave those options.
const ADAPTIVE_DEFAULT_OPTIONS_FINGERPRINT: u64 = 0x7949_25d3_eec1_e0c7;

/// The golden program's artifact as builds with the adaptive profile
/// wrote it: the golden bytes with the adaptive options fingerprint, the
/// trailer after the options section, and the checksum over both.
fn adaptive_golden_bytes() -> Vec<u8> {
    let golden = golden_bytes();
    let options_end = 32 + options_len(&golden);
    let mut bytes = golden[..options_end].to_vec();
    bytes[20..28].copy_from_slice(&ADAPTIVE_DEFAULT_OPTIONS_FINGERPRINT.to_le_bytes());
    let len = u32::try_from(options_len(&golden) + ADAPTIVE_DEFAULT_TRAILER.len()).unwrap();
    bytes[28..32].copy_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&ADAPTIVE_DEFAULT_TRAILER);
    bytes.extend_from_slice(&golden[options_end..]);
    reseal(bytes)
}

#[test]
fn adaptive_artifacts_are_the_golden_bytes_plus_the_trailer() {
    // Promotion is not an option any more: the golden program encodes
    // to the golden bytes with no trailer, and a container that carries
    // one names the removed option.
    assert_eq!(golden_artifact().to_wire_bytes(), golden_bytes());
    let err = CompiledFilter::from_wire_bytes(&adaptive_golden_bytes()).unwrap_err();
    assert!(
        matches!(err, Error::Wire(WireError::RemovedOption("adaptive"))),
        "{err}"
    );
}

#[test]
fn artifacts_with_a_removed_option_on_decode_to_a_typed_error() {
    let (golden, adaptive) = (golden_bytes(), adaptive_golden_bytes());
    let inputs = [
        (&golden, STATIC_NATIVE, 0, 1, "native"),
        (&golden, STATIC_FUSE, 0, 1, "fuse"),
        (&adaptive, ADAPTIVE_FUSE, 0, 1, "fuse"),
        (&golden, STATIC_OPTIMIZE, 0, 1, "optimize"),
        (&adaptive, ADAPTIVE_OPTIMIZE, 0, 1, "optimize"),
        (&golden, STATIC_INDEXED_ENV, 0, 1, "indexed_env"),
        (&golden, STATIC_COUNT_OPCODES, 0, 1, "count_opcodes"),
        (&golden, STATIC_TYPECHECK, 1, 0, "typecheck"),
        // The trailer's own slots are not read apart from it.
        (&adaptive, ADAPTIVE_USE_NATIVE, 0, 1, "adaptive"),
        (&adaptive, ADAPTIVE_FUSE_TOP_K, 7, 3, "adaptive"),
    ];
    for (bytes, from_end, from, to, name) in inputs {
        let bytes = set_option_byte(bytes.clone(), from_end, from, to);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::RemovedOption(n)) if n == name),
            "{name}: {err}"
        );
    }
}

#[test]
fn adaptive_artifacts_with_static_flags_are_corrupt() {
    // The static tier slots of an adaptive artifact are read before its
    // trailer and hold booleans: a byte that is neither 0 nor 1 is
    // corrupt, and a set flag names that option rather than `adaptive`.
    for (from_end, name) in [(ADAPTIVE_OPTIMIZE, "optimize"), (ADAPTIVE_FUSE, "fuse")] {
        let bytes = set_option_byte(adaptive_golden_bytes(), from_end, 0, 2);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::Corrupt(_))),
            "{name}: {err}"
        );
        let bytes = set_option_byte(adaptive_golden_bytes(), from_end, 0, 1);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::RemovedOption(n)) if n == name),
            "{name}: {err}"
        );
    }
}
