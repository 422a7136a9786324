//! `wire-dump` — hex dump of the canonical wire-format artifact.
//!
//! Builds the golden artifact (the paper's §3.4 staged power function,
//! specialized at exponent 2, the Paper profile
//! ([`SessionOptions::paper`]), source
//! fingerprint `0x1998`), encodes it with
//! [`CompiledFilter::to_wire_bytes`], and prints the bytes as lowercase
//! hex, 32 bytes per line. The output is pinned byte-for-byte in
//! `tests/golden/artifact_wire.hex`: any change to the dump is a wire
//! format change and must come with a `FORMAT_VERSION` bump and a
//! deliberate lockfile update (see `crates/core/tests/wire_golden.rs`
//! and the CI diff step).
//!
//! [`SessionOptions::paper`]: mlbox::SessionOptions::paper
//! [`CompiledFilter::to_wire_bytes`]: mlbox::CompiledFilter::to_wire_bytes

use mlbox::{Session, SessionOptions};

/// The program behind the golden artifact. Stable on purpose: it uses a
/// recursive generator, `lift`-free quoting, and a multiplication chain,
/// so the payload exercises closures, code blocks, and sharing.
pub const GOLDEN_PROGRAM: &str = "fun codePower e = if e = 0 then code (fn b => 1)
                   else let cogen p = codePower (e - 1)
                        in code (fn b => b * (p b)) end";

/// The expression specialized into the golden artifact.
pub const GOLDEN_EXPR: &str = "codePower 2";

/// The golden artifact's source fingerprint (the paper's year).
pub const GOLDEN_SOURCE_FINGERPRINT: u64 = 0x1998;

/// Renders `bytes` as lowercase hex, 32 bytes (64 hex digits) per line.
pub fn hex_lines(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

/// Builds and encodes the golden artifact.
///
/// # Panics
///
/// Panics if the golden program fails to compile — the program is fixed
/// and known-good, so a failure means the pipeline itself regressed.
pub fn golden_wire_bytes() -> Vec<u8> {
    let mut session = Session::with_options(SessionOptions::paper()).expect("session builds");
    session
        .run(GOLDEN_PROGRAM)
        .expect("golden program compiles");
    session
        .compile_to_artifact(GOLDEN_EXPR, GOLDEN_SOURCE_FINGERPRINT)
        .expect("golden artifact extracts")
        .to_wire_bytes()
}

fn main() {
    print!("{}", hex_lines(&golden_wire_bytes()));
}
