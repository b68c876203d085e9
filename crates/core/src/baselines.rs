//! The competing analyses the paper positions itself against (§2).
//!
//! * [`compositional`] — the von Neumann-style analytical approach (the
//!   paper's refs [3, 4]): per-gate error probabilities composed with
//!   simple independence rules, no weight vectors, no correlation
//!   tracking. Fast and scalable, but — as §2 puts it — "when used on
//!   irregular multi-level structures such as logic circuits, they suffer
//!   significant penalties in accuracy even on small circuits".
//! * [`ptm_exact`] — a probabilistic-transfer-matrix-style *exact* engine
//!   (the paper's ref \[5\]): the joint distribution over (fault-free,
//!   faulty) values of all live signals is propagated through the circuit.
//!   Exact for any ε⃗, but the state space is `4^(live signals)`, which is
//!   why the original PTM work "suggests their inapplicability to large
//!   circuits" — reproduce that blow-up with `--bin baselines`.

use crate::GateEps;
use relogic_netlist::{Circuit, GateKind, NodeId};
use std::collections::HashMap;

/// Von Neumann-style compositional reliability analysis.
///
/// Each signal carries a single error probability θ (not value-conditioned).
/// At every gate the inputs are assumed *independent and uniformly
/// distributed*, and the output error is
///
/// ```text
/// θ_g = ε + (1 − 2ε) · P(output flips | input θs, uniform combos)
/// ```
///
/// Returns the per-output error probabilities. Compare with
/// [`SinglePass`](crate::SinglePass), which replaces the uniform-input
/// assumption with weight vectors and tracks error direction and
/// correlation.
///
/// # Panics
///
/// Panics if `eps` does not match the circuit or a gate exceeds
/// [`crate::MAX_ANALYSIS_ARITY`].
#[must_use]
pub fn compositional(circuit: &Circuit, eps: &GateEps) -> Vec<f64> {
    assert_eq!(eps.len(), circuit.len());
    let mut theta = vec![0.0f64; circuit.len()];
    for (id, node) in circuit.iter() {
        let i = id.index();
        match node.kind() {
            GateKind::Input | GateKind::Const(_) => theta[i] = eps.get(id),
            kind => {
                let k = node.arity();
                assert!(k <= crate::MAX_ANALYSIS_ARITY);
                let e = eps.get(id);
                // P(output flips due to inputs), uniform over fault-free
                // input combinations, independent per-input flips.
                let mut flip = 0.0f64;
                for v in 0..1usize << k {
                    let out_v = kind.eval_combo(v, k);
                    let mut p_flip_v = 0.0f64;
                    for u in 0..1usize << k {
                        if kind.eval_combo(u, k) == out_v {
                            continue;
                        }
                        let mut p = 1.0f64;
                        for (j, &f) in node.fanins().iter().enumerate() {
                            let t = theta[f.index()];
                            p *= if (v ^ u) >> j & 1 == 1 { t } else { 1.0 - t };
                        }
                        p_flip_v += p;
                    }
                    #[allow(clippy::cast_precision_loss)]
                    {
                        flip += p_flip_v / (1usize << k) as f64;
                    }
                }
                theta[i] = e + (1.0 - 2.0 * e) * flip.clamp(0.0, 1.0);
            }
        }
    }
    circuit
        .outputs()
        .iter()
        .map(|o| theta[o.node().index()])
        .collect()
}

/// Error returned by [`ptm_exact`] when the live-signal cut exceeds the
/// width budget (the PTM state space is `4^width`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PtmTooWide {
    /// The cut width that was required.
    pub required: usize,
    /// The configured limit.
    pub limit: usize,
}

impl std::fmt::Display for PtmTooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ptm analysis needs a live cut of {} signals, over the limit of {}",
            self.required, self.limit
        )
    }
}

impl std::error::Error for PtmTooWide {}

/// Exact reliability via joint (fault-free, faulty) state propagation — a
/// probabilistic-transfer-matrix-equivalent computation.
///
/// Sweeps the circuit in topological order, maintaining the exact joint
/// distribution of `(clean value, noisy value)` over all *live* signals
/// (signals with unread fanouts). Each node's error probability is read off
/// the marginal at its creation, so the result is exact for every output —
/// including all input and error correlations — at a cost exponential in
/// the maximum live-cut width.
///
/// # Errors
///
/// Returns [`PtmTooWide`] if the live cut ever exceeds `max_width`
/// (16 is already 4³² ≈ 4·10⁹ conceivable states; practical limits are
/// lower and enforced by the caller's patience).
///
/// # Panics
///
/// Panics if `eps` does not match the circuit.
pub fn ptm_exact(
    circuit: &Circuit,
    eps: &GateEps,
    max_width: usize,
) -> Result<Vec<f64>, PtmTooWide> {
    assert_eq!(eps.len(), circuit.len());
    // Remaining-reader counts drive liveness.
    let mut remaining = vec![0usize; circuit.len()];
    for (_, node) in circuit.iter() {
        for &f in node.fanins() {
            remaining[f.index()] += 1;
        }
    }

    // Live signals, ordered; slot index = bit position in the state keys.
    let mut live: Vec<NodeId> = Vec::new();
    let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
    // State: (clean bits, noisy bits) over live slots → probability.
    let mut states: HashMap<(u32, u32), f64> = HashMap::new();
    states.insert((0, 0), 1.0);
    let mut node_delta = vec![0.0f64; circuit.len()];

    for (id, node) in circuit.iter() {
        let e = eps.get(id);
        // Produce the (clean, noisy) pair for this node in every state.
        let mut next: HashMap<(u32, u32), f64> = HashMap::with_capacity(states.len() * 2);
        let slot = live.len();
        if slot >= max_width {
            return Err(PtmTooWide {
                required: slot + 1,
                limit: max_width,
            });
        }
        let mut delta = 0.0f64;
        let push = |next: &mut HashMap<(u32, u32), f64>,
                    key: (u32, u32),
                    clean: bool,
                    noisy: bool,
                    p: f64,
                    delta: &mut f64| {
            if p <= 0.0 {
                return;
            }
            let mut k = key;
            if clean {
                k.0 |= 1 << slot;
            }
            if noisy {
                k.1 |= 1 << slot;
            }
            if clean != noisy {
                *delta += p;
            }
            *next.entry(k).or_insert(0.0) += p;
        };
        match node.kind() {
            GateKind::Input => {
                for (&key, &p) in &states {
                    for value in [false, true] {
                        let pv = p * 0.5;
                        if e > 0.0 {
                            push(&mut next, key, value, !value, pv * e, &mut delta);
                            push(&mut next, key, value, value, pv * (1.0 - e), &mut delta);
                        } else {
                            push(&mut next, key, value, value, pv, &mut delta);
                        }
                    }
                }
            }
            GateKind::Const(v) => {
                for (&key, &p) in &states {
                    if e > 0.0 {
                        push(&mut next, key, v, !v, p * e, &mut delta);
                        push(&mut next, key, v, v, p * (1.0 - e), &mut delta);
                    } else {
                        push(&mut next, key, v, v, p, &mut delta);
                    }
                }
            }
            kind => {
                let fanin_slots: Vec<usize> = node.fanins().iter().map(|f| slot_of[f]).collect();
                let mut clean_bits = Vec::with_capacity(fanin_slots.len());
                let mut noisy_bits = Vec::with_capacity(fanin_slots.len());
                for (&key, &p) in &states {
                    clean_bits.clear();
                    noisy_bits.clear();
                    for &s in &fanin_slots {
                        clean_bits.push(key.0 >> s & 1 == 1);
                        noisy_bits.push(key.1 >> s & 1 == 1);
                    }
                    let clean = kind.eval(&clean_bits);
                    let noisy_base = kind.eval(&noisy_bits);
                    if e > 0.0 {
                        push(&mut next, key, clean, !noisy_base, p * e, &mut delta);
                        push(&mut next, key, clean, noisy_base, p * (1.0 - e), &mut delta);
                    } else {
                        push(&mut next, key, clean, noisy_base, p, &mut delta);
                    }
                }
            }
        }
        node_delta[id.index()] = delta;
        live.push(id);
        slot_of.insert(id, slot);
        states = next;

        // Retire fanins whose last reader this was (and this node itself if
        // nothing ever reads it), compacting the slot space.
        for &f in node.fanins() {
            remaining[f.index()] -= 1;
        }
        let dead: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|&w| remaining[w.index()] == 0)
            .collect();
        if !dead.is_empty() {
            let keep: Vec<NodeId> = live.iter().copied().filter(|w| !dead.contains(w)).collect();
            let mut projected: HashMap<(u32, u32), f64> = HashMap::with_capacity(states.len());
            for (&(c, n), &p) in &states {
                let mut nc = 0u32;
                let mut nn = 0u32;
                for (new_slot, w) in keep.iter().enumerate() {
                    let old = slot_of[w];
                    if c >> old & 1 == 1 {
                        nc |= 1 << new_slot;
                    }
                    if n >> old & 1 == 1 {
                        nn |= 1 << new_slot;
                    }
                }
                *projected.entry((nc, nn)).or_insert(0.0) += p;
            }
            states = projected;
            slot_of.clear();
            for (s, w) in keep.iter().enumerate() {
                slot_of.insert(*w, s);
            }
            live = keep;
        }
    }

    Ok(circuit
        .outputs()
        .iter()
        .map(|o| node_delta[o.node().index()])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic_sim::exact_reliability;

    fn reconvergent() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let s = c.nand([a, b]);
        let p = c.and([s, x]);
        let q = c.or([s, x]);
        let g = c.xor([p, q]);
        c.add_output("y", g);
        c.add_output("z", q);
        c
    }

    #[test]
    fn ptm_matches_exhaustive_exactly() {
        let c = reconvergent();
        for &e in &[0.0, 0.05, 0.2, 0.5] {
            let eps = GateEps::try_uniform(&c, e).unwrap();
            let ptm = ptm_exact(&c, &eps, 16).expect("narrow circuit");
            let exact = exact_reliability(&c, eps.as_slice());
            for (k, (&a, &b)) in ptm.iter().zip(&exact.per_output).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "ε={e} output {k}: ptm {a} vs exhaustive {b}"
                );
            }
        }
    }

    #[test]
    fn ptm_handles_noisy_inputs_and_constants() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let k1 = c.add_const(true);
        let g = c.and([a, k1]);
        c.add_output("y", g);
        let mut eps = GateEps::zero(&c);
        eps.try_set(a, 0.1).unwrap();
        eps.try_set(k1, 0.2).unwrap();
        eps.try_set(g, 0.05).unwrap();
        let ptm = ptm_exact(&c, &eps, 8).unwrap();
        let exact = exact_reliability(&c, eps.as_slice());
        assert!((ptm[0] - exact.per_output[0]).abs() < 1e-12);
    }

    #[test]
    fn ptm_width_limit_enforced() {
        // A wide fanin layer keeps many signals live at once.
        let mut c = Circuit::new("wide");
        let ins: Vec<_> = (0..10).map(|i| c.add_input(format!("x{i}"))).collect();
        let g = c.xor(ins);
        c.add_output("y", g);
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let err = ptm_exact(&c, &eps, 6).unwrap_err();
        assert!(err.required > 6);
        assert!(err.to_string().contains("live cut"));
        assert!(ptm_exact(&c, &eps, 16).is_ok());
    }

    #[test]
    fn compositional_is_exact_on_uniform_trees() {
        // On a fanout-free tree with uniform inputs, the compositional
        // assumptions hold exactly.
        let mut c = Circuit::new("tree");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let e_in = c.add_input("e");
        let g1 = c.and([a, b]);
        let g2 = c.or([d, e_in]);
        let g3 = c.xor([g1, g2]);
        c.add_output("y", g3);
        for &e in &[0.05, 0.2] {
            let eps = GateEps::try_uniform(&c, e).unwrap();
            let comp = compositional(&c, &eps);
            let exact = exact_reliability(&c, eps.as_slice());
            // XOR output: error direction does not matter and signal probs
            // are uniform, so compositional == exact here.
            assert!(
                (comp[0] - exact.per_output[0]).abs() < 0.02,
                "ε={e}: comp {} vs exact {}",
                comp[0],
                exact.per_output[0]
            );
        }
    }

    #[test]
    fn compositional_loses_accuracy_on_benchmark_logic() {
        // The paper's §2 claim: compositional rules "suffer significant
        // penalties in accuracy" on irregular multi-level logic, compared
        // to the weight-vector single-pass analysis. Checked on the x2
        // analogue against Monte Carlo.
        use crate::{metrics, Backend, InputDistribution, SinglePass, SinglePassOptions, Weights};
        let c = relogic_gen::suite::x2();
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let mc = relogic_sim::try_estimate(
            &c,
            eps.as_slice(),
            &relogic_sim::MonteCarloConfig {
                patterns: 1 << 17,
                ..Default::default()
            },
        )
        .unwrap();
        let comp = compositional(&c, &eps);
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let sp = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&eps)
            .unwrap();
        let comp_err = metrics::average_percent_error(&comp, mc.per_output());
        let sp_err = metrics::average_percent_error(sp.per_output(), mc.per_output());
        assert!(
            sp_err * 2.0 < comp_err,
            "single-pass {sp_err}% should be far better than compositional {comp_err}%"
        );
    }

    #[test]
    fn compositional_stays_in_unit_interval() {
        let c = reconvergent();
        for &e in &[0.0, 0.3, 0.5] {
            for d in compositional(&c, &GateEps::try_uniform(&c, e).unwrap()) {
                assert!((0.0..=1.0).contains(&d));
            }
        }
    }
}
