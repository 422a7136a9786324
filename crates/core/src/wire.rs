//! The on-disk artifact container: framing, versioning, and integrity
//! for [`CompiledFilter`].
//!
//! `ccam::wire` renders the *payload* — the entry point's reachable
//! blocks and value graph — as bytes. This module wraps that payload in
//! the container a serving system actually ships: a magic header, a
//! format version, the two fingerprints that make artifacts
//! content-addressable (source program and
//! [`SessionOptions::fingerprint`]), length-prefixed sections, and a
//! trailing FNV-1a checksum over everything before it.
//! DESIGN.md §14 specifies the layout byte by byte:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----
//!      0     8  magic, the ASCII bytes "MLBXART\0"
//!      8     2  format version, u16 LE (currently 1)
//!     10     2  reserved, u16 LE (must be 0)
//!     12     8  source fingerprint, u64 LE
//!     20     8  options fingerprint, u64 LE
//!     28     4  options section length, u32 LE
//!     32     …  options section (SessionOptions fields, fixed order)
//!      …     4  payload section length, u32 LE
//!      …     …  payload section (ccam::wire::encode bytes)
//!   last     8  FNV-1a 64 checksum of every preceding byte, u64 LE
//! ```
//!
//! Decoding re-derives everything it can rather than trusting the
//! producer: the stored options fingerprint must equal the fingerprint
//! recomputed from the decoded options section, the payload's
//! `uses_frames` flag is recomputed by the payload validator
//! ([`ccam::wire::validate`], which checks everything the payload
//! decoder checks but builds nothing), and
//! [`CompiledFilter::from_wire_bytes_for`] applies
//! [`CompiledFilter::check_compatible`] so an option-incompatible
//! consumer is refused at load time, before any decode of its own.
//! A [`CompiledFilter`] keeps the container bytes it was loaded from (or
//! framed into, by [`Session::compile_to_artifact`]); that buffer is the
//! artifact's thread-shareable form.
//!
//! [`Session::compile_to_artifact`]: crate::Session::compile_to_artifact

use crate::artifact::CompiledFilter;
use crate::error::Error;
use crate::fingerprint::Fnv1a;
use crate::session::SessionOptions;
use std::fmt;
use std::sync::Arc;

/// The leading magic bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"MLBXART\0";

/// The container format version this build writes and accepts.
pub const FORMAT_VERSION: u16 = 1;

/// Why a byte buffer is not a valid artifact container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The leading bytes are not [`MAGIC`] — this is not an artifact.
    BadMagic,
    /// The container was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// A structurally invalid container (bad reserved field, malformed
    /// options section, section length overrun, …).
    Corrupt(&'static str),
    /// The stored options fingerprint disagrees with the fingerprint of
    /// the decoded options section.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        stored: u64,
        /// Fingerprint recomputed from the decoded options.
        computed: u64,
    },
    /// The payload section failed to decode.
    Payload(ccam::wire::WireError),
    /// Input left over after the checksum trailer.
    TrailingBytes(usize),
    /// The options section sets an option this build no longer has to a
    /// value other than the one it had in use (its slot is still in the
    /// format, and holds that fixed value).
    RemovedOption(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated artifact: read of {needed} byte(s) with {remaining} remaining"
            ),
            WireError::BadMagic => write!(f, "not an MLbox artifact (bad magic)"),
            WireError::UnsupportedVersion(v) => write!(
                f,
                "artifact format version {v} is not supported (this build \
                 reads version {FORMAT_VERSION})"
            ),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            WireError::Corrupt(what) => write!(f, "corrupt artifact: {what}"),
            WireError::FingerprintMismatch { stored, computed } => write!(
                f,
                "artifact options fingerprint {stored:#018x} does not match \
                 the decoded options ({computed:#018x})"
            ),
            WireError::Payload(e) => write!(f, "artifact payload: {e}"),
            WireError::TrailingBytes(n) => {
                write!(f, "artifact has {n} trailing byte(s) after the checksum")
            }
            WireError::RemovedOption(name) => write!(
                f,
                "artifact was built with a setting of `{name}`, an option this \
                 build no longer has; rebuild it"
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ccam::wire::WireError> for WireError {
    fn from(e: ccam::wire::WireError) -> Self {
        WireError::Payload(e)
    }
}

// ---------------------------------------------------------------------
// Options section
// ---------------------------------------------------------------------

/// Fuel-absent marker in the options section.
const FUEL_NONE: u8 = 0;
/// Fuel-present marker, followed by the u64 budget.
const FUEL_SOME: u8 = 1;
/// Marker of the removed adaptive profile's trailer, which followed the
/// nine fields: the marker, `promote_after` and `fuse_top_k` (u64 LE
/// each), and the byte of the `use_native` policy flag. Since promotion
/// runs at a constant threshold in every session nothing writes it; a
/// container that carries it decodes to
/// `WireError::RemovedOption("adaptive")`.
const PROFILE_ADAPTIVE: u8 = 1;

fn encode_options(out: &mut Vec<u8>, o: &SessionOptions) {
    // Field order matches SessionOptions::fingerprint exactly, so the
    // section reads as the fingerprint's preimage.
    out.push(u8::from(o.prelude));
    match o.fuel {
        Some(f) => {
            out.push(FUEL_SOME);
            out.extend_from_slice(&f.to_le_bytes());
        }
        None => out.push(FUEL_NONE),
    }
    // Removed options keep their slots at the one value they had in
    // use: `typecheck` on, `optimize`, `count_opcodes`, `indexed_env`
    // and `fuse` off.
    out.push(1);
    out.push(0);
    out.push(0);
    out.push(0);
    out.push(u8::from(o.flat_env));
    out.push(0);
    // The removed thread-coded tier's `native` flag: always off.
    out.push(0);
}

struct OptionsReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> OptionsReader<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(WireError::Corrupt("options section ends early"))?;
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("options boolean is neither 0 nor 1")),
        }
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut raw = [0u8; 8];
        for slot in &mut raw {
            *slot = self.u8()?;
        }
        Ok(u64::from_le_bytes(raw))
    }
}

/// Checks the slot of an option this build no longer has: the value it
/// had in use decodes, any other names the option in a typed error.
fn fixed<T: PartialEq>(name: &'static str, read: T, expected: T) -> Result<(), WireError> {
    if read == expected {
        Ok(())
    } else {
        Err(WireError::RemovedOption(name))
    }
}

fn decode_options(bytes: &[u8]) -> Result<SessionOptions, WireError> {
    let mut r = OptionsReader { bytes, pos: 0 };
    let prelude = r.bool()?;
    let fuel = match r.u8()? {
        FUEL_NONE => None,
        FUEL_SOME => {
            let mut raw = [0u8; 8];
            for slot in &mut raw {
                *slot = r.u8()?;
            }
            Some(u64::from_le_bytes(raw))
        }
        _ => return Err(WireError::Corrupt("unknown fuel marker")),
    };
    fixed("typecheck", r.bool()?, true)?;
    fixed("optimize", r.bool()?, false)?;
    fixed("count_opcodes", r.bool()?, false)?;
    fixed("indexed_env", r.bool()?, false)?;
    let options = SessionOptions {
        prelude,
        fuel,
        flat_env: r.bool()?,
    };
    fixed("fuse", r.bool()?, false)?;
    fixed("native", r.bool()?, false)?;
    if r.pos != bytes.len() {
        if r.u8()? != PROFILE_ADAPTIVE {
            return Err(WireError::Corrupt("unknown execution-profile marker"));
        }
        r.u64()?;
        r.u64()?;
        r.bool()?;
        if r.pos == bytes.len() {
            return Err(WireError::RemovedOption("adaptive"));
        }
    }
    if r.pos != bytes.len() {
        return Err(WireError::Corrupt("options section has trailing bytes"));
    }
    Ok(options)
}

// ---------------------------------------------------------------------
// Container encode/decode
// ---------------------------------------------------------------------

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Frames an encoded payload as a container (the format above).
/// Deterministic: the same artifact always produces the same bytes,
/// which is what lets the store content-address files and the golden
/// lockfile pin the format.
pub(crate) fn frame(payload: &[u8], options: &SessionOptions, source_fingerprint: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&source_fingerprint.to_le_bytes());
    out.extend_from_slice(&options.fingerprint().to_le_bytes());
    let mut section = Vec::new();
    encode_options(&mut section, options);
    out.extend_from_slice(
        &u32::try_from(section.len())
            .expect("options section")
            .to_le_bytes(),
    );
    out.extend_from_slice(&section);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("artifact payload exceeds u32 bytes")
            .to_le_bytes(),
    );
    out.extend_from_slice(payload);
    let digest = checksum(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

impl CompiledFilter {
    /// The artifact's checksummed byte container (the format above).
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }

    /// Parses an artifact container, verifying magic, version, checksum,
    /// section framing, and the options fingerprint, and validates the
    /// payload with [`ccam::wire::validate`]: every check the payload
    /// decoder makes, with no segment or value built. The payload's
    /// instruction count and frame flag are recomputed by that walk, so
    /// the compatibility check on the result keeps its meaning
    /// regardless of what the producer claimed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wire`] describing the first violation. Never
    /// panics, whatever the input.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<CompiledFilter, Error> {
        Ok(decode_container(bytes)?)
    }

    /// Like [`from_wire_bytes`](CompiledFilter::from_wire_bytes), then
    /// additionally rejects artifacts a consumer running under
    /// `consumer` options must not run (the frame-bearing /
    /// flat-env rule of
    /// [`check_compatible`](CompiledFilter::check_compatible)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Wire`] for container violations and
    /// [`Error::Artifact`] for representation mismatches.
    pub fn from_wire_bytes_for(
        bytes: &[u8],
        consumer: &SessionOptions,
    ) -> Result<CompiledFilter, Error> {
        let artifact = CompiledFilter::from_wire_bytes(bytes)?;
        artifact.check_compatible(consumer)?;
        Ok(artifact)
    }
}

fn decode_container(bytes: &[u8]) -> Result<CompiledFilter, WireError> {
    // Fixed header: magic + version + reserved + two fingerprints +
    // options length.
    const HEADER: usize = 8 + 2 + 2 + 8 + 8 + 4;
    if bytes.len() < 8 {
        return Err(WireError::Truncated {
            needed: 8,
            remaining: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes.len() < HEADER + 8 {
        return Err(WireError::Truncated {
            needed: HEADER + 8,
            remaining: bytes.len(),
        });
    }
    let version = read_u16(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    if read_u16(bytes, 10) != 0 {
        return Err(WireError::Corrupt("reserved field is not zero"));
    }
    // Integrity before structure: everything after this point may index
    // by lengths read from the input, so make sure the input is what the
    // producer wrote.
    let content = &bytes[..bytes.len() - 8];
    let stored = read_u64(bytes, bytes.len() - 8);
    let computed = checksum(content);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let source_fingerprint = read_u64(bytes, 12);
    let options_fingerprint = read_u64(bytes, 20);
    let options_len = read_u32(bytes, 28) as usize;
    let options_start = HEADER;
    let options_end = options_start
        .checked_add(options_len)
        .ok_or(WireError::Corrupt("options length overflows"))?;
    if options_end + 4 > content.len() {
        return Err(WireError::Truncated {
            needed: options_end + 4,
            remaining: content.len(),
        });
    }
    let options = decode_options(&content[options_start..options_end])?;
    let computed_fp = options.fingerprint();
    if computed_fp != options_fingerprint {
        return Err(WireError::FingerprintMismatch {
            stored: options_fingerprint,
            computed: computed_fp,
        });
    }
    let payload_len = read_u32(content, options_end) as usize;
    let payload_start = options_end + 4;
    let payload_end = payload_start
        .checked_add(payload_len)
        .ok_or(WireError::Corrupt("payload length overflows"))?;
    if payload_end > content.len() {
        return Err(WireError::Truncated {
            needed: payload_end,
            remaining: content.len(),
        });
    }
    if payload_end != content.len() {
        return Err(WireError::TrailingBytes(content.len() - payload_end));
    }
    let info = ccam::wire::validate(&content[payload_start..payload_end])?;
    Ok(CompiledFilter {
        bytes: Arc::from(bytes),
        payload_start,
        options,
        source_fingerprint,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use ccam::value::Value;

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

    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        // Recompute the trailing checksum after a deliberate header edit,
        // so the edit (not the checksum) is what decode rejects.
        let content = bytes.len() - 8;
        let digest = checksum(&bytes[..content]);
        bytes[content..].copy_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn container_roundtrips_and_runs() {
        let artifact = power_artifact();
        let bytes = artifact.to_wire_bytes();
        let back = CompiledFilter::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.source_fingerprint(), 0xc0de);
        assert_eq!(back.options_fingerprint(), artifact.options_fingerprint());
        assert_eq!(back.instructions(), artifact.instructions());
        let entry = back.hydrate_entry_for(back.options()).unwrap();
        let (payload, _) = ccam::wire::encode(&entry).unwrap();
        assert_eq!(payload, back.payload(), "re-encode is byte-identical");
        let mut a = artifact.instantiate();
        let mut b = back.instantiate();
        let (va, sa) = a.run(Value::Int(6)).unwrap();
        let (vb, sb) = b.run(Value::Int(6)).unwrap();
        assert_eq!(va.to_string(), vb.to_string());
        assert_eq!(sa.steps, sb.steps, "cost model survives the disk");
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = power_artifact().to_wire_bytes();
        for len in 0..bytes.len() {
            assert!(
                CompiledFilter::from_wire_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let bytes = power_artifact().to_wire_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            assert!(
                CompiledFilter::from_wire_bytes(&corrupt).is_err(),
                "flip at {pos} decoded"
            );
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = power_artifact().to_wire_bytes();
        bytes[0] = b'X';
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(matches!(err, Error::Wire(WireError::BadMagic)), "{err}");
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = power_artifact().to_wire_bytes();
        bytes[8] = 2;
        let bytes = reseal(bytes);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::UnsupportedVersion(2))),
            "{err}"
        );
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let mut bytes = power_artifact().to_wire_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::ChecksumMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn options_fingerprint_mismatch_is_typed() {
        let mut bytes = power_artifact().to_wire_bytes();
        // Flip a bit of the stored options fingerprint and reseal; the
        // decoded options no longer hash to it.
        bytes[20] ^= 0x01;
        let bytes = reseal(bytes);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, Error::Wire(WireError::FingerprintMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = power_artifact().to_wire_bytes();
        bytes.extend_from_slice(&[0, 0, 0]);
        let err = CompiledFilter::from_wire_bytes(&bytes).unwrap_err();
        // The appended bytes displace the checksum trailer, so decode
        // sees a checksum mismatch — either typed error is a rejection,
        // but it must be an error.
        assert!(matches!(err, Error::Wire(_)), "{err}");
    }

    #[test]
    fn incompatible_consumers_are_refused_at_load() {
        let flat = SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        };
        let mut s = Session::with_options(flat.clone()).unwrap();
        s.run("val a = 1;\nval b = 2;\nval f = fn x => x + a + b")
            .unwrap();
        let artifact = s
            .compile_to_artifact("let cogen c = lift f in code (fn x => c x) end", 0)
            .unwrap();
        assert!(artifact.uses_frames());
        let bytes = artifact.to_wire_bytes();
        // The matching consumer loads fine…
        CompiledFilter::from_wire_bytes_for(&bytes, &flat).unwrap();
        // …a pair-spine consumer is refused with the artifact error, and
        // the frame flag that drives the refusal was recomputed from the
        // payload, not read from a forgeable field.
        let err =
            CompiledFilter::from_wire_bytes_for(&bytes, &SessionOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Artifact(_)), "{err}");
        assert!(err.to_string().contains("flat-env"), "{err}");
    }

    #[test]
    fn options_survive_the_container() {
        for options in [
            SessionOptions::default(),
            SessionOptions {
                fuel: Some(123_456),
                ..SessionOptions::default()
            },
            SessionOptions {
                flat_env: true,
                prelude: false,
                ..SessionOptions::default()
            },
        ] {
            let mut bytes = Vec::new();
            encode_options(&mut bytes, &options);
            let back = decode_options(&bytes).unwrap();
            assert_eq!(back, options);
            assert_eq!(back.fingerprint(), options.fingerprint());
        }
    }

    #[test]
    fn adaptive_trailer_is_a_pure_extension() {
        // The removed adaptive profile appended a trailer to the static
        // encoding: its marker, `promote_after` 8, `fuse_top_k` 7 and
        // `use_native` off. A whole trailer names the removed option; a
        // malformed one is corrupt.
        let mut static_bytes = Vec::new();
        encode_options(&mut static_bytes, &SessionOptions::default());
        let mut adaptive_bytes = static_bytes.clone();
        adaptive_bytes.push(PROFILE_ADAPTIVE);
        adaptive_bytes.extend_from_slice(&8u64.to_le_bytes());
        adaptive_bytes.extend_from_slice(&7u64.to_le_bytes());
        adaptive_bytes.push(0);
        assert_eq!(
            decode_options(&adaptive_bytes),
            Err(WireError::RemovedOption("adaptive"))
        );
        // Unknown profile marker.
        let mut bad = static_bytes.clone();
        bad.push(9);
        assert!(matches!(decode_options(&bad), Err(WireError::Corrupt(_))));
        // Truncated trailer, and bytes after a whole one.
        for len in static_bytes.len() + 1..adaptive_bytes.len() {
            assert!(
                matches!(
                    decode_options(&adaptive_bytes[..len]),
                    Err(WireError::Corrupt(_))
                ),
                "trailer prefix of {len} bytes"
            );
        }
        adaptive_bytes.push(0);
        assert!(matches!(
            decode_options(&adaptive_bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn adaptive_artifact_roundtrips_and_promotes() {
        // Every artifact runs under the tier controller: a rehydrated
        // instance promotes its hot block past the threshold and still
        // reports the first run's value and steps on every run.
        let bytes = power_artifact().to_wire_bytes();
        let back = CompiledFilter::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.to_wire_bytes(), bytes);
        let mut b = back.instantiate();
        let (v0, s0) = b.run(Value::Int(6)).unwrap();
        assert_eq!(v0.to_string(), "216");
        for _ in 0..ccam::machine::PROMOTE_AFTER + 1 {
            let (v, s) = b.run(Value::Int(6)).unwrap();
            assert_eq!(v.to_string(), v0.to_string());
            assert_eq!(s.steps, s0.steps);
        }
        let stats = b.stats();
        assert!(stats.promotions > 0, "{stats:?}");
        assert!(stats.tier_steps[1] > 0, "{stats:?}");
    }
}
