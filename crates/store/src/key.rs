//! Content-addressed store keys.
//!
//! A [`StoreKey`] is the 128-bit digest of a circuit payload — netlist
//! text, netlist format tag, and backend cache tag — produced by two
//! independent 64-bit FNV-1a streams. The scheme (offsets, prime, field
//! order, NUL separators) is shared with `relogic-serve`'s in-memory
//! `ArtifactKey`, which delegates here, so a key computed by the service
//! and a key computed offline by `relogic cache warm` can never diverge.

use std::fmt;

/// 64-bit FNV-1a over one byte stream.
///
/// Every step multiplies by an odd prime (invertible mod 2^64) after a
/// byte XOR, so any single-byte change to the stream always changes the
/// final state — the property the single-byte-flip fuzz suite pins.
#[derive(Clone, Copy)]
pub(crate) struct Fnv64 {
    pub(crate) state: u64,
}

impl Fnv64 {
    pub(crate) const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    pub(crate) const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// XOR applied to [`Fnv64::OFFSET`] to seed the second stream.
    pub(crate) const OFFSET_XOR: u64 = 0x5bd1_e995_9d1b_a6d5;

    pub(crate) fn new(offset: u64) -> Self {
        Fnv64 { state: offset }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }
}

/// Dual-FNV checksum of an arbitrary byte slice (container payloads).
#[must_use]
pub(crate) fn checksum(payload: &[u8]) -> (u64, u64) {
    let mut a = Fnv64::new(Fnv64::OFFSET);
    let mut b = Fnv64::new(Fnv64::OFFSET ^ Fnv64::OFFSET_XOR);
    a.write(payload);
    b.write(payload);
    (a.state, b.state)
}

/// The 128-bit content address of a circuit's artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey {
    a: u64,
    b: u64,
}

impl StoreKey {
    /// Digests a circuit payload. `format_tag` is the netlist format's
    /// wire tag (`"bench"`, `"blif"`, `"verilog"`), `backend_tag` the
    /// backend cache tag (`"bdd"`, `"sim:{patterns}:{seed}"`), `netlist`
    /// the full netlist text.
    #[must_use]
    pub fn digest(format_tag: &str, backend_tag: &str, netlist: &str) -> StoreKey {
        // Two FNV streams with different offsets ≈ a 128-bit digest;
        // adversarial collisions are out of scope (the store is a
        // performance layer, not an integrity boundary), accidental ones
        // are vanishingly unlikely.
        let mut a = Fnv64::new(Fnv64::OFFSET);
        let mut b = Fnv64::new(Fnv64::OFFSET ^ Fnv64::OFFSET_XOR);
        for stream in [&mut a, &mut b] {
            stream.write(format_tag.as_bytes());
            stream.write(b"\x00");
            stream.write(backend_tag.as_bytes());
            stream.write(b"\x00");
            stream.write(netlist.as_bytes());
        }
        StoreKey {
            a: a.state,
            b: b.state,
        }
    }

    /// The key's two 64-bit words, in `(a, b)` order.
    #[must_use]
    pub fn words(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// The 32-character lowercase hex form used as the on-disk file stem.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }

    /// Parses the [`StoreKey::hex`] form; `None` unless exactly 32 lowercase
    /// hex digits.
    #[must_use]
    pub fn parse_hex(s: &str) -> Option<StoreKey> {
        if s.len() != 32
            || !s
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        let a = u64::from_str_radix(&s[..16], 16).ok()?;
        let b = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(StoreKey { a, b })
    }
}

impl fmt::Debug for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StoreKey({})", self.hex())
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_field_sensitive() {
        let k = StoreKey::digest("bench", "bdd", "INPUT(a)\n");
        assert_eq!(k, StoreKey::digest("bench", "bdd", "INPUT(a)\n"));
        assert_ne!(k, StoreKey::digest("blif", "bdd", "INPUT(a)\n"));
        assert_ne!(k, StoreKey::digest("bench", "sim:1024:7", "INPUT(a)\n"));
        assert_ne!(k, StoreKey::digest("bench", "bdd", "INPUT(b)\n"));
    }

    #[test]
    fn hex_round_trips() {
        let k = StoreKey::digest("bench", "bdd", "x");
        let hex = k.hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(StoreKey::parse_hex(&hex), Some(k));
        assert_eq!(StoreKey::parse_hex("zz"), None);
        assert_eq!(StoreKey::parse_hex(&hex.to_uppercase()), None);
    }

    #[test]
    fn checksum_differs_on_any_single_byte_change() {
        let payload = b"the quick brown fox".to_vec();
        let base = checksum(&payload);
        for i in 0..payload.len() {
            for bit in 0..8u8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(checksum(&mutated), base, "byte {i} bit {bit}");
            }
        }
    }
}
