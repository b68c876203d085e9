//! Gate kinds and their Boolean semantics.
//!
//! [`GateKind`] is the single source of truth for how a node computes its
//! value: scalar evaluation, truth-table enumeration, and arity constraints
//! all live here so that the BDD bridge and the analytical engines cannot
//! drift apart. The 64-lane word rule lives with the compiled tape in
//! `relogic-sim`, which is checked against [`GateKind::eval`].

use std::fmt;

/// The Boolean function computed by a netlist node.
///
/// `Input` and `Const` are sources (arity 0); `Buf`/`Not` are unary; the
/// remaining kinds accept any arity ≥ 1 with the usual n-ary semantics
/// (`Xor` is odd parity, `Xnor` even parity).
///
/// # Examples
///
/// ```
/// use relogic_netlist::GateKind;
///
/// assert!(GateKind::And.eval(&[true, true]));
/// assert!(!GateKind::Nand.eval(&[true, true]));
/// assert!(GateKind::Xor.eval(&[true, true, true])); // odd parity
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Primary input: a free Boolean variable of the circuit.
    Input,
    /// Constant source driving the contained value.
    Const(bool),
    /// Identity (used for fanout buffering).
    Buf,
    /// Inverter.
    Not,
    /// n-ary conjunction.
    And,
    /// n-ary negated conjunction.
    Nand,
    /// n-ary disjunction.
    Or,
    /// n-ary negated disjunction.
    Nor,
    /// n-ary odd parity.
    Xor,
    /// n-ary even parity.
    Xnor,
}

impl GateKind {
    /// All logic-gate kinds (sources excluded), useful for exhaustive tests
    /// and random generation.
    pub const LOGIC_KINDS: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Returns `true` for `Input` and `Const`, which take no fanins.
    #[must_use]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const(_))
    }

    /// Returns `true` if this kind computes a logic function of fanins.
    #[must_use]
    pub fn is_gate(self) -> bool {
        !self.is_source()
    }

    /// Returns `true` if the gate's output is the complement of the
    /// corresponding non-inverting kind (`Nand`, `Nor`, `Xnor`, `Not`).
    #[must_use]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The range of fanin counts this kind accepts, as `(min, max)`.
    ///
    /// `max` is [`usize::MAX`] for the n-ary kinds; arity is additionally
    /// capped by [`Circuit`](crate::Circuit) policy when gates are created.
    #[must_use]
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const(_) => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (1, usize::MAX),
        }
    }

    /// Returns `true` if `arity` fanins are acceptable for this kind.
    #[must_use]
    pub fn accepts_arity(self, arity: usize) -> bool {
        let (lo, hi) = self.arity_range();
        (lo..=hi).contains(&arity)
    }

    /// Evaluates the gate on scalar fanin values.
    ///
    /// # Panics
    ///
    /// Panics if `fanins.len()` violates [`GateKind::accepts_arity`], or if a
    /// source kind is evaluated with fanins.
    #[must_use]
    pub fn eval(self, fanins: &[bool]) -> bool {
        debug_assert!(
            self.accepts_arity(fanins.len()),
            "{self:?} cannot take {} fanins",
            fanins.len()
        );
        match self {
            GateKind::Input => panic!("primary inputs have no evaluation rule"),
            GateKind::Const(v) => v,
            GateKind::Buf => fanins[0],
            GateKind::Not => !fanins[0],
            GateKind::And => fanins.iter().all(|&b| b),
            GateKind::Nand => !fanins.iter().all(|&b| b),
            GateKind::Or => fanins.iter().any(|&b| b),
            GateKind::Nor => !fanins.iter().any(|&b| b),
            GateKind::Xor => fanins.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !fanins.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// Evaluates the gate on the fanin combination encoded by `combo`.
    ///
    /// Bit `j` of `combo` is the value of fanin `j`. This is the
    /// truth-table form used by the single-pass reliability engine, where a
    /// gate's weight vector indexes input combinations the same way.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `arity` is unacceptable for this kind or
    /// exceeds 63.
    #[must_use]
    pub fn eval_combo(self, combo: usize, arity: usize) -> bool {
        debug_assert!(arity < 64, "combo evaluation supports arity < 64");
        debug_assert!(
            self.accepts_arity(arity),
            "{self:?} cannot take {arity} fanins"
        );
        match self {
            GateKind::Input => panic!("primary inputs have no evaluation rule"),
            GateKind::Const(v) => v,
            GateKind::Buf => combo & 1 != 0,
            GateKind::Not => combo & 1 == 0,
            GateKind::And => combo == (1usize << arity) - 1,
            GateKind::Nand => combo != (1usize << arity) - 1,
            GateKind::Or => combo != 0,
            GateKind::Nor => combo == 0,
            GateKind::Xor => (combo.count_ones() & 1) == 1,
            GateKind::Xnor => (combo.count_ones() & 1) == 0,
        }
    }

    /// The canonical lowercase name used by the textual formats.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const(false) => "const0",
            GateKind::Const(true) => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
        }
    }

    /// Parses a gate-kind name as used by the ISCAS-85 `.bench` format
    /// (case-insensitive; `BUFF` is accepted as an alias for `buf`).
    ///
    /// Returns `None` for unknown names and for `input` (which the formats
    /// declare through dedicated directives, not gate lines).
    #[must_use]
    pub fn parse_name(name: &str) -> Option<GateKind> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "buf" | "buff" => GateKind::Buf,
            "not" | "inv" => GateKind::Not,
            "and" => GateKind::And,
            "nand" => GateKind::Nand,
            "or" => GateKind::Or,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "const0" | "gnd" => GateKind::Const(false),
            "const1" | "vdd" => GateKind::Const(true),
            _ => return None,
        })
    }

    /// Returns the non-inverting dual of this kind (`Nand → And`, …) along
    /// with whether an inversion was stripped.
    ///
    /// Useful for algorithms that canonicalize to positive-phase gates plus
    /// an output complement.
    #[must_use]
    pub fn positive_phase(self) -> (GateKind, bool) {
        match self {
            GateKind::Nand => (GateKind::And, true),
            GateKind::Nor => (GateKind::Or, true),
            GateKind::Xnor => (GateKind::Xor, true),
            GateKind::Not => (GateKind::Buf, true),
            other => (other, false),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(combo: usize, arity: usize) -> Vec<bool> {
        (0..arity).map(|j| combo >> j & 1 != 0).collect()
    }

    #[test]
    fn scalar_truth_tables() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false, true]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Const(true).eval(&[]));
        assert!(!GateKind::Const(false).eval(&[]));
    }

    #[test]
    fn combo_eval_matches_scalar_eval() {
        for kind in GateKind::LOGIC_KINDS {
            let arities: &[usize] = if matches!(kind, GateKind::Buf | GateKind::Not) {
                &[1]
            } else {
                &[1, 2, 3, 4, 5]
            };
            for &arity in arities {
                for combo in 0..1usize << arity {
                    assert_eq!(
                        kind.eval_combo(combo, arity),
                        kind.eval(&bits(combo, arity)),
                        "{kind:?} arity {arity} combo {combo:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn arity_constraints() {
        assert!(GateKind::Input.accepts_arity(0));
        assert!(!GateKind::Input.accepts_arity(1));
        assert!(GateKind::Not.accepts_arity(1));
        assert!(!GateKind::Not.accepts_arity(2));
        assert!(GateKind::And.accepts_arity(1));
        assert!(GateKind::And.accepts_arity(17));
        assert!(!GateKind::And.accepts_arity(0));
    }

    #[test]
    fn name_parse_roundtrip() {
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Const(false),
            GateKind::Const(true),
        ] {
            assert_eq!(GateKind::parse_name(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(GateKind::parse_name("BUFF"), Some(GateKind::Buf));
        assert_eq!(GateKind::parse_name("NAND"), Some(GateKind::Nand));
        assert_eq!(GateKind::parse_name("widget"), None);
        assert_eq!(GateKind::parse_name("input"), None);
    }

    #[test]
    fn positive_phase_strips_inversion() {
        assert_eq!(GateKind::Nand.positive_phase(), (GateKind::And, true));
        assert_eq!(GateKind::Xor.positive_phase(), (GateKind::Xor, false));
        for kind in GateKind::LOGIC_KINDS {
            let (pos, inv) = kind.positive_phase();
            for combo in 0..4usize {
                let arity = if matches!(kind, GateKind::Buf | GateKind::Not) {
                    1
                } else {
                    2
                };
                if combo < 1 << arity {
                    assert_eq!(
                        kind.eval_combo(combo, arity),
                        pos.eval_combo(combo, arity) ^ inv
                    );
                }
            }
        }
    }

    #[test]
    fn inverting_flags() {
        assert!(GateKind::Nand.is_inverting());
        assert!(GateKind::Not.is_inverting());
        assert!(!GateKind::And.is_inverting());
        assert!(GateKind::Input.is_source());
        assert!(GateKind::Const(true).is_source());
        assert!(GateKind::Xor.is_gate());
    }
}
