//! The on-disk container format.
//!
//! Every artifact file is one container: a fixed 36-byte header followed
//! by the payload bytes the header describes.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RLGSTORE"
//! 8       2     format version, u16 LE (currently 1)
//! 10      1     artifact kind (ArtifactKind wire code)
//! 11      1     flags (reserved, must be 0)
//! 12      8     payload length in bytes, u64 LE
//! 20      8     checksum stream A, u64 LE   (FNV-1a, standard offset)
//! 28      8     checksum stream B, u64 LE   (FNV-1a, XORed offset)
//! 36      ...   payload
//! ```
//!
//! The dual-FNV checksum covers the payload only; the header fields are
//! self-validating (fixed magic, known version, kind expected by the
//! caller, length checked against the actual file size). A reader rejects
//! the container — and the store quarantines the file — on the FIRST
//! mismatch; the payload is never deserialized unless every check passes.

use crate::key::checksum;

/// File magic, first 8 bytes of every container.
pub const MAGIC: [u8; 8] = *b"RLGSTORE";
/// Current container format version. Bump on ANY layout change; readers
/// quarantine unknown versions rather than guessing.
pub const FORMAT_VERSION: u16 = 1;
/// Bytes in the fixed header.
pub const HEADER_LEN: usize = 36;

/// File extensions of the kinds earlier versions stored under wire codes
/// 1 (the compiled tape) and 4 (the propagation estimate). Both are
/// cheaper to recompute than to read back; `Store::gc` deletes their
/// files.
pub(crate) const RETIRED_EXTENSIONS: [&str; 2] = ["tape", "est"];

/// What a container holds. Wire codes are append-only; the retired codes
/// 1 and 4 and their extensions `tape` and `est` stay reserved so they
/// are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Provenance record: format tag, backend tag, netlist text.
    Meta,
    /// `relogic::Weights` (weight vectors + signal probabilities).
    Weights,
    /// `relogic::ObservabilityMatrix` (+ its run diagnostics).
    Observability,
}

impl ArtifactKind {
    /// Every kind, in wire-code order.
    pub const ALL: [ArtifactKind; 3] = [
        ArtifactKind::Meta,
        ArtifactKind::Weights,
        ArtifactKind::Observability,
    ];

    /// Stable wire code stored in the container header.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ArtifactKind::Meta => 0,
            ArtifactKind::Weights => 2,
            ArtifactKind::Observability => 3,
        }
    }

    /// Inverse of [`ArtifactKind::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<ArtifactKind> {
        match code {
            0 => Some(ArtifactKind::Meta),
            2 => Some(ArtifactKind::Weights),
            3 => Some(ArtifactKind::Observability),
            _ => None,
        }
    }

    /// On-disk file extension for this kind.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Meta => "meta",
            ArtifactKind::Weights => "wts",
            ArtifactKind::Observability => "obs",
        }
    }

    /// Inverse of [`ArtifactKind::extension`].
    #[must_use]
    pub fn from_extension(ext: &str) -> Option<ArtifactKind> {
        match ext {
            "meta" => Some(ArtifactKind::Meta),
            "wts" => Some(ArtifactKind::Weights),
            "obs" => Some(ArtifactKind::Observability),
            _ => None,
        }
    }

    /// Human-readable kind name (CLI `cache ls` output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Meta => "meta",
            ArtifactKind::Weights => "weights",
            ArtifactKind::Observability => "observability",
        }
    }
}

/// Why a container was rejected. The store maps any variant to the same
/// outcome — quarantine — but `cache verify` reports the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// File shorter than the fixed header.
    Truncated,
    /// First 8 bytes are not [`MAGIC`].
    BadMagic,
    /// Header version is not [`FORMAT_VERSION`].
    BadVersion(u16),
    /// Header kind code is unknown or not the kind the caller expected.
    BadKind(u8),
    /// Reserved flags byte is non-zero.
    BadFlags(u8),
    /// Header payload length disagrees with the actual byte count.
    LengthMismatch { header: u64, actual: u64 },
    /// Dual-FNV checksum mismatch: the payload bytes changed.
    ChecksumMismatch,
    /// Checksum passed but the payload failed structural validation.
    Malformed(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "truncated container"),
            ContainerError::BadMagic => write!(f, "bad magic"),
            ContainerError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            ContainerError::BadKind(c) => write!(f, "unexpected artifact kind code {c}"),
            ContainerError::BadFlags(b) => write!(f, "reserved flags byte {b:#04x} set"),
            ContainerError::LengthMismatch { header, actual } => {
                write!(
                    f,
                    "payload length mismatch (header {header}, actual {actual})"
                )
            }
            ContainerError::ChecksumMismatch => write!(f, "checksum mismatch"),
            ContainerError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

/// Frames `payload` into a complete container byte vector.
#[must_use]
pub fn seal(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let (sum_a, sum_b) = checksum(payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.code());
    out.push(0); // flags
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&sum_a.to_le_bytes());
    out.extend_from_slice(&sum_b.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates every header field and the payload checksum of `bytes`,
/// returning the payload slice on success.
///
/// # Errors
///
/// The first failed check, in layout order: truncation, magic, version,
/// kind, flags, declared-vs-actual length, checksum.
pub fn open(bytes: &[u8], expected: ArtifactKind) -> Result<&[u8], ContainerError> {
    if bytes.len() < HEADER_LEN {
        return Err(ContainerError::Truncated);
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    if header[0..8] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != FORMAT_VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    if ArtifactKind::from_code(header[10]) != Some(expected) {
        return Err(ContainerError::BadKind(header[10]));
    }
    if header[11] != 0 {
        return Err(ContainerError::BadFlags(header[11]));
    }
    let declared = u64::from_le_bytes(
        header[12..20]
            .try_into()
            .map_err(|_| ContainerError::Truncated)?,
    );
    if declared != payload.len() as u64 {
        return Err(ContainerError::LengthMismatch {
            header: declared,
            actual: payload.len() as u64,
        });
    }
    let sum_a = u64::from_le_bytes(
        header[20..28]
            .try_into()
            .map_err(|_| ContainerError::Truncated)?,
    );
    let sum_b = u64::from_le_bytes(
        header[28..36]
            .try_into()
            .map_err(|_| ContainerError::Truncated)?,
    );
    if checksum(payload) != (sum_a, sum_b) {
        return Err(ContainerError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_returns_the_payload() {
        let sealed = seal(ArtifactKind::Meta, b"hello");
        assert_eq!(open(&sealed, ArtifactKind::Meta).unwrap(), b"hello");
    }

    #[test]
    fn kind_codes_and_extensions_round_trip() {
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::from_code(kind.code()), Some(kind));
            assert_eq!(ArtifactKind::from_extension(kind.extension()), Some(kind));
        }
        // Retired kinds stay unknown: their codes and extensions are
        // reserved, never reused.
        for code in [1, 4, 5] {
            assert_eq!(ArtifactKind::from_code(code), None);
        }
        for ext in ["tape", "est", "corrupt"] {
            assert_eq!(ArtifactKind::from_extension(ext), None);
        }
    }

    #[test]
    fn every_header_defect_is_rejected() {
        let sealed = seal(ArtifactKind::Weights, b"payload");

        assert_eq!(
            open(&sealed[..10], ArtifactKind::Weights),
            Err(ContainerError::Truncated)
        );

        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::BadMagic)
        );

        let mut bad = sealed.clone();
        bad[8] = 0xff;
        assert!(matches!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::BadVersion(_))
        ));

        // Right container, wrong expectation: version gating also covers
        // a kind byte that decodes but is not what the caller asked for.
        assert_eq!(
            open(&sealed, ArtifactKind::Observability),
            Err(ContainerError::BadKind(ArtifactKind::Weights.code()))
        );

        // A container of a retired kind is no kind at all.
        let mut bad = sealed.clone();
        bad[10] = 1;
        assert_eq!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::BadKind(1))
        );

        let mut bad = sealed.clone();
        bad[11] = 1;
        assert_eq!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::BadFlags(1))
        );

        let mut bad = sealed.clone();
        bad[12] ^= 0x01;
        assert!(matches!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::LengthMismatch { .. })
        ));

        let mut bad = sealed.clone();
        *bad.last_mut().unwrap() ^= 0x80;
        assert_eq!(
            open(&bad, ArtifactKind::Weights),
            Err(ContainerError::ChecksumMismatch)
        );

        // Truncating the payload shows up as a length mismatch.
        let short = &sealed[..sealed.len() - 1];
        assert!(matches!(
            open(short, ArtifactKind::Weights),
            Err(ContainerError::LengthMismatch { .. })
        ));
    }
}
