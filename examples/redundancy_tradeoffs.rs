//! Redundancy trade-off exploration: TMR schemes quantified with the
//! single-pass analysis and checked against Monte Carlo.
//!
//! Demonstrates three findings the `relogic` analysis makes cheap to
//! obtain:
//!
//! 1. With voters as noisy as the logic they protect, blanket TMR *hurts*
//!    a control circuit like x2 at every ε — the voters add more exposure
//!    than the redundancy removes. This is precisely why the paper argues
//!    for analysis-directed insertion instead of blanket redundancy.
//! 2. With hardened voters (ε/10, e.g. larger cells), output-level TMR
//!    wins at small ε, with the margin shrinking as ε grows.
//! 3. Either way, the single-pass analysis prices every variant in
//!    milliseconds, making the design space cheap to explore.
//!
//! Run with: `cargo run --release --example redundancy_tradeoffs`

use relogic::{
    Backend, GateEps, InputDistribution, ObservabilityMatrix, SinglePass, SinglePassOptions,
    Weights,
};
use relogic_gen::{tmr_gates, tmr_outputs, tmr_selected};
use relogic_netlist::Circuit;

/// Mean output error with uniform gate ε, except that nodes for which
/// `hardened` returns true fail 10× less often (e.g. voters built from
/// larger, slower cells).
fn mean_delta(
    c: &Circuit,
    eps_value: f64,
    hardened: impl Fn(relogic_netlist::NodeId) -> bool,
) -> f64 {
    let backend = Backend::Simulation {
        patterns: 1 << 15,
        seed: 17,
    };
    let w = Weights::try_compute(c, &InputDistribution::Uniform, backend).unwrap();
    let eps = GateEps::try_from_fn(c, |id| {
        if !c.node(id).kind().is_gate() {
            0.0
        } else if hardened(id) {
            eps_value / 10.0
        } else {
            eps_value
        }
    })
    .unwrap();
    let r = SinglePass::try_new(c, &w, SinglePassOptions::default())
        .unwrap()
        .try_run(&eps)
        .unwrap();
    let d = r.per_output();
    d.iter().sum::<f64>() / d.len() as f64
}

fn main() {
    let base = relogic_gen::suite::x2();
    let full_outputs = tmr_outputs(&base);
    let full_gates = tmr_gates(&base);

    // Analysis-directed selection: protect the top-k most critical gates.
    let obs = ObservabilityMatrix::compute(
        &base,
        &InputDistribution::Uniform,
        Backend::Simulation {
            patterns: 1 << 14,
            seed: 7,
        },
    );
    let mut ranked: Vec<_> = base
        .node_ids()
        .filter(|&id| base.node(id).kind().is_gate())
        .map(|id| (id, obs.any(id)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top8: Vec<_> = ranked.iter().take(8).map(|&(id, _)| id).collect();
    let selective = tmr_selected(&base, &top8);

    // In `tmr_outputs` the voters are the 5·outputs gates appended last.
    let voter_start = full_outputs.len() - 5 * base.output_count();
    let voters_of_full = move |id: relogic_netlist::NodeId| id.index() >= voter_start;

    println!("variant                                 gates   mean-delta @ eps:");
    println!(
        "                                                0.001      0.01       0.05       0.20"
    );
    let never = |_: relogic_netlist::NodeId| false;
    type HardenedFn<'a> = &'a dyn Fn(relogic_netlist::NodeId) -> bool;
    let rows: Vec<(&str, &Circuit, HardenedFn)> = vec![
        ("unprotected x2", &base, &never),
        ("TMR at outputs, noisy voters", &full_outputs, &never),
        ("TMR every gate, noisy voters", &full_gates, &never),
        ("TMR top-8 critical, noisy voters", &selective, &never),
        (
            "TMR at outputs, hardened voters",
            &full_outputs,
            &voters_of_full,
        ),
    ];
    for (name, c, hardened) in rows {
        print!("{name:39} {:5}", c.gate_count());
        for &e in &[0.001, 0.01, 0.05, 0.2] {
            print!("   {:.6}", mean_delta(c, e, hardened));
        }
        println!();
    }
    println!(
        "\nReadings: with voters as noisy as the logic, every TMR variant loses on x2 at\n\
         every ε — the voters add more exposure than the redundancy removes, which is\n\
         why §5.1 argues for analysis-directed rather than blanket insertion. Hardening\n\
         only the voters (ε/10) flips output-level TMR into a clear win at small ε,\n\
         shrinking to parity as ε grows and every variant saturates."
    );
}
