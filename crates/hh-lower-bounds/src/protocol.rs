//! The one-way protocol abstraction shared by every reduction.

/// Result of executing one reduction end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionOutcome {
    /// Bits of the message Alice sent: the streaming algorithm's model
    /// state plus any auxiliary payload (e.g. the Hamming weights in
    /// Theorem 13).
    pub message_bits: u64,
    /// The communication-complexity shape of the source problem,
    /// evaluated with constant 1 (e.g. `t·log₂(alphabet)` for Indexing).
    /// A sound reduction requires `message_bits = Ω(lower_bound_units)`;
    /// the E8 harness plots the ratio.
    pub lower_bound_units: f64,
    /// Whether Bob decoded his answer correctly in this run (the paper's
    /// protocols succeed with probability 1 − δ, not always).
    pub success: bool,
}

impl ReductionOutcome {
    /// Ratio `message_bits / lower_bound_units` — the constant the
    /// algorithm "pays" relative to the proven floor (must be bounded
    /// below across sweeps for the reduction to be meaningful).
    pub fn ratio(&self) -> f64 {
        self.message_bits as f64 / self.lower_bound_units.max(1.0)
    }
}

/// The auxiliary payload Alice attaches beside the algorithm state.
/// Counted toward `message_bits` at 8 bits per byte.
#[derive(Debug, Clone, Default)]
pub struct AuxPayload {
    data: Vec<u8>,
}

impl AuxPayload {
    /// Empty payload.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Payload of little-endian `u64`s (e.g. Hamming weights).
    pub fn from_u64s(values: &[u64]) -> Self {
        let mut buf = Vec::with_capacity(values.len() * 8);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Self { data: buf }
    }

    /// Decodes the payload back into `u64`s.
    pub fn to_u64s(&self) -> Vec<u64> {
        self.data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Payload length in bits.
    pub fn bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }
}

/// Runs a reduction over `trials` seeds and returns the empirical success
/// rate (Bob decoding correctly).
pub fn success_rate<F>(trials: u64, mut run: F) -> f64
where
    F: FnMut(u64) -> ReductionOutcome,
{
    let ok = (0..trials).filter(|&s| run(s).success).count();
    ok as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_payload_roundtrip() {
        let p = AuxPayload::from_u64s(&[1, 2, u64::MAX]);
        assert_eq!(p.to_u64s(), vec![1, 2, u64::MAX]);
        assert_eq!(p.bits(), 3 * 64);
        assert_eq!(AuxPayload::empty().bits(), 0);
    }

    #[test]
    fn ratio_guards_division() {
        let o = ReductionOutcome {
            message_bits: 100,
            lower_bound_units: 0.0,
            success: true,
        };
        assert_eq!(o.ratio(), 100.0);
    }

    #[test]
    fn success_rate_counts() {
        let rate = success_rate(10, |s| ReductionOutcome {
            message_bits: 1,
            lower_bound_units: 1.0,
            success: s % 2 == 0,
        });
        assert_eq!(rate, 0.5);
    }
}
