//! Regenerates **Figure 1(b)/(c)**: observability-based closed-form
//! reliability (Eq. 3) vs Monte Carlo.
//!
//! * Fig. 1(b): on the small Fig. 1(a)-style circuit, the closed form
//!   tracks Monte Carlo closely, deviating slightly as ε → 0.5.
//! * Fig. 1(c): on one output of b9, the deviation grows with ε because
//!   multiple simultaneous gate failures dominate.
//!
//! Also reproduces the §3.1 discussion: the exact joint flip influence of
//! the `Gx`/`Gz` pair vs the independence estimate the closed form uses
//! (the paper's "46/256 vs 19/256" observation).
//!
//! ```text
//! cargo run -p relogic-bench --release --bin fig1 [-- --points 50]
//! ```

use relogic::{sweep, InputDistribution, ObservabilityMatrix};
use relogic_bench::{render_table, Cli};
use relogic_gen::suite;
use relogic_sim::flip_influence;

fn main() {
    let cli = Cli::parse();
    let points = cli.points.unwrap_or(50);
    let grid = sweep::try_epsilon_grid(points, 0.0, 0.5).unwrap();

    // ---- Fig. 1(b): small circuit ----
    let small = suite::fig1_example();
    let obs =
        ObservabilityMatrix::compute(&small, &InputDistribution::Uniform, relogic::Backend::Bdd);
    let cf = sweep::sweep_closed_form(&small, &obs, &grid, 1).expect("closed-form sweep");
    let mc = sweep::sweep_monte_carlo(&small, &cli.mc_config(), &grid, 1).expect("MC sweep");
    println!("Fig. 1(b) analogue: delta(eps) for the Fig. 1(a)-style circuit\n");
    let rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            vec![
                format!("{e:.3}"),
                format!("{:.5}", mc.delta[i][0]),
                format!("{:.5}", cf.delta[i][0]),
                format!("{:+.5}", cf.delta[i][0] - mc.delta[i][0]),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["eps", "MonteCarlo", "ClosedForm", "diff"], &rows)
    );

    // ---- §3.1: multi-failure interaction Gx & Gz ----
    let gx = small.find("Gx").expect("Gx named");
    let gz = small.find("Gz").expect("Gz named");
    let both = flip_influence(&small, &[gx, gz])[0];
    let ox = obs.at_output(gx, 0);
    let oz = obs.at_output(gz, 0);
    // The closed form treats the two observabilities as independent events:
    // P(odd number observable) = ox(1-oz) + oz(1-ox).
    let independent = ox * (1.0 - oz) + oz * (1.0 - ox);
    println!(
        "S3.1 check (both Gx and Gz fail): exact output-failure probability = {both:.4}, \
         independence estimate = {independent:.4}\n"
    );

    // ---- Fig. 1(c): the deepest-cone output of b9 ----
    let b9 = suite::b9();
    let obs_b9 =
        ObservabilityMatrix::compute(&b9, &InputDistribution::Uniform, relogic::Backend::Bdd);
    let cf9 = sweep::sweep_closed_form(&b9, &obs_b9, &grid, 1).expect("closed-form sweep");
    let mc9 = sweep::sweep_monte_carlo(&b9, &cli.mc_config(), &grid, 1).expect("MC sweep");
    let cones = relogic_netlist::structure::output_cone_sizes(&b9);
    let output = cones
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(k, _)| k)
        .expect("b9 has outputs");
    println!(
        "Fig. 1(c) analogue: delta(eps) for output {output} of b9 (cone of {} gates)\n",
        cones[output]
    );
    let rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            vec![
                format!("{e:.3}"),
                format!("{:.5}", mc9.delta[i][output]),
                format!("{:.5}", cf9.delta[i][output]),
                format!("{:+.5}", cf9.delta[i][output] - mc9.delta[i][output]),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["eps", "MonteCarlo", "ClosedForm", "diff"], &rows)
    );
    println!(
        "The closed form is accurate for small eps and deviates as eps grows (multiple\n\
         simultaneous gate failures violate its single-failure assumption) - the paper's\n\
         Fig. 1(c) observation."
    );
}
