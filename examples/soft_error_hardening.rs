//! Soft-error-rate estimation and selective hardening (§3 and §5.1).
//!
//! Single-event upsets are localized to one gate, which is exactly the
//! regime where the observability closed form is *exact*. This example:
//!
//! 1. ranks the gates of the b9 analogue by soft-error criticality
//!    (`ε_i · o_i`, their contribution to the output error rate),
//! 2. greedily hardens a small budget of gates (ε ÷ 10 each), and
//! 3. reports the asymmetric `Pr(0→1)` vs `Pr(1→0)` profile that §5.1
//!    proposes for directing quadded-logic-style asymmetric redundancy.
//!
//! Run with: `cargo run --release --example soft_error_hardening`

use relogic::applications::{asymmetry_report, selective_hardening};
use relogic::{
    Backend, GateEps, InputDistribution, ObservabilityMatrix, SinglePass, SinglePassOptions,
    Weights,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let c = relogic_gen::suite::b9();
    let eps = GateEps::try_uniform(&c, 1e-3)?; // SEU-like rarity
    let backend = Backend::Bdd;

    // --- criticality ranking (closed form is exact for single failures) ---
    let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, backend);
    println!("top 10 soft-error-critical gates of b9 (ε·o, any-output observability):");
    for (id, crit) in obs.criticality(&c, &eps).iter().take(10) {
        println!(
            "  {:>5}  kind {:5}  criticality {:.3e}  observability {:.3}",
            c.display_name(*id),
            c.node(*id).kind().to_string(),
            crit,
            obs.any(*id)
        );
    }

    // --- selective hardening under the single-pass model ---
    let weights = Weights::try_compute(&c, &InputDistribution::Uniform, backend)?;
    let budget = 8;
    let plan = selective_hardening(&c, &weights, &eps, budget, 0.1)?;
    println!(
        "\nselective hardening: baseline mean output δ = {:.3e}",
        plan.baseline
    );
    for (i, step) in plan.steps.iter().enumerate() {
        println!(
            "  step {}: harden {:>5} → mean δ = {:.3e}",
            i + 1,
            c.display_name(step.node),
            step.mean_delta_after
        );
    }
    println!(
        "hardening {budget} of {} gates improves reliability by {:.1}%",
        c.gate_count(),
        plan.improvement() * 100.0
    );

    // --- asymmetric redundancy guidance ---
    let engine = SinglePass::try_new(&c, &weights, SinglePassOptions::default())?;
    let result = engine.try_run(&GateEps::try_uniform(&c, 0.02)?)?;
    let report = asymmetry_report(&c, &result);
    println!("\nmost direction-skewed nodes at ε = 0.02 (asymmetric redundancy targets):");
    for row in report.iter().take(8) {
        println!(
            "  {:>5}  Pr(0→1) = {:.4}  Pr(1→0) = {:.4}  skew = {:.2}",
            c.display_name(row.node),
            row.p01,
            row.p10,
            row.skew()
        );
    }
    Ok(())
}
