//! Payload codecs for each artifact kind.
//!
//! All integers are little-endian; `f64` values are stored as their IEEE
//! bit patterns (`to_bits`/`from_bits`), so a round trip is bit-identical
//! including signed zeros and subnormals. Sequences are length-prefixed
//! (`u64` count). Decoders are defensive even though they sit behind the
//! container checksum: every read is bounds-checked, every count is
//! validated against the bytes actually remaining before any allocation,
//! and the rebuilt values route through the owning crate's `from_parts`
//! validators — a hash collision must degrade into
//! [`ContainerError::Malformed`], never a panic or an oversized
//! allocation.

use crate::container::ContainerError;
use relogic::{BddEngineStats, Diagnostics, ObservabilityMatrix, Weights};

/// Provenance record stored next to a circuit's computed artifacts: enough
/// to recompute them offline (`relogic cache warm`) and to answer "what is
/// this key?" (`relogic cache ls`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Netlist format wire tag (`"bench"`, `"blif"`, `"verilog"`).
    pub format_tag: String,
    /// Backend cache tag (`"bdd"`, `"sim:{patterns}:{seed}"`).
    pub backend_tag: String,
    /// Full netlist text.
    pub netlist: String,
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64_slice(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if self.buf.len() < n {
            return Err(ContainerError::Malformed(
                "unexpected end of payload".into(),
            ));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, ContainerError> {
        let bytes = self.take(8)?;
        bytes
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| ContainerError::Malformed("short u64".into()))
    }

    fn f64(&mut self) -> Result<f64, ContainerError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix for `elem_bytes`-sized elements, refusing
    /// counts that exceed the bytes remaining (so a corrupt count can
    /// never drive a huge allocation).
    fn count(&mut self, elem_bytes: usize) -> Result<usize, ContainerError> {
        let n = self.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| ContainerError::Malformed("count overflows usize".into()))?;
        if n.checked_mul(elem_bytes).is_none_or(|b| b > self.buf.len()) {
            return Err(ContainerError::Malformed("count exceeds payload".into()));
        }
        Ok(n)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, ContainerError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, ContainerError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ContainerError::Malformed("invalid utf-8".into()))
    }

    fn finish(&self) -> Result<(), ContainerError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ContainerError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len()
            )))
        }
    }
}

/// Encodes a provenance record.
#[must_use]
pub fn encode_meta(meta: &ArtifactMeta) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&meta.format_tag);
    w.str(&meta.backend_tag);
    w.str(&meta.netlist);
    w.buf
}

/// Decodes a provenance record.
///
/// # Errors
///
/// [`ContainerError::Malformed`] on truncation, bad UTF-8, or trailing
/// bytes.
pub fn decode_meta(payload: &[u8]) -> Result<ArtifactMeta, ContainerError> {
    let mut r = Reader::new(payload);
    let meta = ArtifactMeta {
        format_tag: r.string()?,
        backend_tag: r.string()?,
        netlist: r.string()?,
    };
    r.finish()?;
    Ok(meta)
}

/// Encodes weight vectors + signal probabilities.
#[must_use]
pub fn encode_weights(weights: &Weights) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(weights.vectors().len() as u64);
    for v in weights.vectors() {
        w.f64_slice(v);
    }
    w.f64_slice(weights.signal_probs());
    w.buf
}

/// Decodes weight vectors, revalidating via [`Weights::from_parts`].
///
/// # Errors
///
/// [`ContainerError::Malformed`] on truncation, a violated weights
/// invariant, or trailing bytes.
pub fn decode_weights(payload: &[u8]) -> Result<Weights, ContainerError> {
    let mut r = Reader::new(payload);
    // Each vector costs at least a u64 length prefix.
    let n = r.count(8)?;
    let mut vectors = Vec::with_capacity(n);
    for _ in 0..n {
        vectors.push(r.f64_vec()?);
    }
    let signal_probs = r.f64_vec()?;
    r.finish()?;
    Weights::from_parts(vectors, signal_probs).map_err(ContainerError::Malformed)
}

/// Encodes an observability matrix together with its run diagnostics.
#[must_use]
pub fn encode_observability(matrix: &ObservabilityMatrix) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(matrix.per_output_rows().len() as u64);
    for row in matrix.per_output_rows() {
        w.f64_slice(row);
    }
    w.f64_slice(matrix.any_output_values());
    let d = matrix.diagnostics();
    w.u64(d.prob_clamps());
    w.u64(d.coeff_saturations());
    w.u64(d.theta_clamps());
    w.u64(d.correlation_fallbacks());
    w.f64(d.worst_excursion());
    match d.bdd_stats() {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.u64(s.peak_live_nodes as u64);
            w.u64(s.live_nodes as u64);
            w.f64(s.unique_load);
            w.u64(s.cache_hits);
            w.u64(s.cache_misses);
            w.u64(s.gc_runs);
            w.u64(s.reorders);
        }
    }
    w.buf
}

/// Decodes an observability matrix, revalidating via
/// [`ObservabilityMatrix::from_parts`].
///
/// # Errors
///
/// [`ContainerError::Malformed`] on truncation, a violated matrix
/// invariant, a bad diagnostics flag, or trailing bytes.
pub fn decode_observability(payload: &[u8]) -> Result<ObservabilityMatrix, ContainerError> {
    let mut r = Reader::new(payload);
    let n = r.count(8)?;
    let mut per_output = Vec::with_capacity(n);
    for _ in 0..n {
        per_output.push(r.f64_vec()?);
    }
    let any_output = r.f64_vec()?;
    let prob_clamps = r.u64()?;
    let coeff_saturations = r.u64()?;
    let theta_clamps = r.u64()?;
    let correlation_fallbacks = r.u64()?;
    let worst_excursion = r.f64()?;
    let bdd = match r.u8()? {
        0 => None,
        1 => Some(BddEngineStats {
            peak_live_nodes: usize::try_from(r.u64()?)
                .map_err(|_| ContainerError::Malformed("peak_live_nodes overflow".into()))?,
            live_nodes: usize::try_from(r.u64()?)
                .map_err(|_| ContainerError::Malformed("live_nodes overflow".into()))?,
            unique_load: r.f64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            gc_runs: r.u64()?,
            reorders: r.u64()?,
        }),
        flag => {
            return Err(ContainerError::Malformed(format!(
                "bad diagnostics flag {flag}"
            )))
        }
    };
    r.finish()?;
    let diagnostics = Diagnostics::restore(
        prob_clamps,
        coeff_saturations,
        theta_clamps,
        correlation_fallbacks,
        worst_excursion,
        bdd,
    );
    ObservabilityMatrix::from_parts(per_output, any_output, diagnostics)
        .map_err(ContainerError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let meta = ArtifactMeta {
            format_tag: "bench".into(),
            backend_tag: "sim:1024:7".into(),
            netlist: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into(),
        };
        assert_eq!(decode_meta(&encode_meta(&meta)).unwrap(), meta);
    }

    #[test]
    fn truncated_meta_is_malformed_not_a_panic() {
        let meta = ArtifactMeta {
            format_tag: "bench".into(),
            backend_tag: "bdd".into(),
            netlist: "x".into(),
        };
        let bytes = encode_meta(&meta);
        for cut in 0..bytes.len() {
            assert!(decode_meta(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn huge_count_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_weights(&bytes).is_err());
        assert!(decode_observability(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let meta = ArtifactMeta {
            format_tag: "bench".into(),
            backend_tag: "bdd".into(),
            netlist: "x".into(),
        };
        let mut bytes = encode_meta(&meta);
        bytes.push(0);
        assert!(matches!(
            decode_meta(&bytes),
            Err(ContainerError::Malformed(_))
        ));
    }
}
