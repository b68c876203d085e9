//! Measures the compiled-tape execution layer and writes
//! `results/tape_throughput.json`:
//!
//! * **Monte Carlo** — patterns/second of the tape kernel (at
//!   [`DEFAULT_LANES`] lanes) on the i10 analogue (c6288-class) at 1/2/4/8
//!   worker threads, with the scaling over one thread.
//! * **Sweep** — ε-grid points/second on the c499 analogue, per-point
//!   single-pass vs the tape's single-traversal grid kernel.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin tape_throughput [-- --out results/tape_throughput.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks the budgets and turns the run into a same-run
//! regression gate: it exits non-zero unless the grid kernel holds a
//! margin over the per-point engine on the machine at hand (a floor under
//! the archived speedups).
//! Both modes assert the correctness contracts: tape MC estimates are
//! thread-count invariant, and tape sweep curves match the per-point
//! engine bit for bit.

use relogic::{
    Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, SweepTape, Weights,
};
use relogic_sim::{available_threads, estimate_tape, CircuitTape, MonteCarloConfig, DEFAULT_LANES};
use std::fmt::Write as _;
use std::time::Instant;

/// `--smoke` floor on the grid-vs-per-point sweep ratio (archived full
/// runs: ~14× on a 24-thread host, ~5× on a 2-vCPU VM).
const SMOKE_SWEEP_FLOOR: f64 = 4.0;

fn best_of<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut out_path = None;
    let mut smoke = false;
    {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--out" => out_path = args.next(),
                "--smoke" => smoke = true,
                other => {
                    eprintln!("unknown argument `{other}` (expected --out <path> or --smoke)");
                    std::process::exit(2);
                }
            }
        }
    }
    let (patterns, points, reps) = if smoke {
        (1u64 << 15, 25usize, 2u32)
    } else {
        (1u64 << 17, 50usize, 5u32)
    };
    let hw_threads = available_threads();

    // ---- Monte Carlo: tape thread scaling on i10 ----
    let i10 = relogic_gen::suite::i10();
    let eps = GateEps::uniform(&i10, 0.1);
    println!(
        "MC on i10 ({} gates), {patterns} patterns x best-of-{reps}, {DEFAULT_LANES} lanes, {hw_threads} hardware thread(s)",
        i10.gate_count()
    );
    let t = Instant::now();
    let mc_tape = CircuitTape::compile(&i10);
    let mc_compile_us = t.elapsed().as_secs_f64() * 1e6;

    let reference = estimate_tape(
        &i10,
        &mc_tape,
        eps.as_slice(),
        &MonteCarloConfig {
            patterns,
            threads: 1,
            ..MonteCarloConfig::default()
        },
        DEFAULT_LANES,
    );
    let mut mc_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let cfg = MonteCarloConfig {
            patterns,
            threads,
            ..MonteCarloConfig::default()
        };
        let r = estimate_tape(&i10, &mc_tape, eps.as_slice(), &cfg, DEFAULT_LANES);
        assert_eq!(r, reference, "tape estimate must be thread-count invariant");
        let secs = best_of(reps, || {
            std::hint::black_box(estimate_tape(
                &i10,
                &mc_tape,
                eps.as_slice(),
                &cfg,
                DEFAULT_LANES,
            ));
        });
        #[allow(clippy::cast_precision_loss)]
        let pps = patterns as f64 / secs;
        let scaling = mc_rows.first().map_or(1.0, |&(_, one, _, _)| one / secs);
        println!("  threads {threads}:  {pps:>12.0} pps   x{scaling:.2} vs 1 thread");
        mc_rows.push((threads, secs, pps, scaling));
    }

    // ---- Sweep: per-point vs grid on c499 ----
    let c499 = relogic_gen::suite::c499();
    let weights = Weights::compute(&c499, &InputDistribution::Uniform, Backend::Bdd);
    let grid = relogic::sweep::epsilon_grid(points, 0.0, 0.5);
    println!(
        "sweep on c499 ({} gates), {points}-point eps grid, 1 thread",
        c499.gate_count()
    );

    let engine = SinglePass::new(&c499, &weights, SinglePassOptions::without_correlations());
    let mut per_point_rows = Vec::new();
    let per_point = best_of(reps, || {
        per_point_rows = grid
            .iter()
            .map(|&e| {
                engine
                    .run(&GateEps::uniform(&c499, e))
                    .per_output()
                    .to_vec()
            })
            .collect();
    });

    let t = Instant::now();
    let sweep_tape = SweepTape::try_new(&c499, &weights).expect("c499 compiles");
    let sweep_compile_us = t.elapsed().as_secs_f64() * 1e6;
    let mut curves = sweep_tape.try_run_grid(&grid, 1).expect("grid runs");
    // The grid kernel finishes in under a millisecond, so take the best
    // of extra repetitions to keep the ratio out of timer noise.
    let grid_secs = best_of(4 * reps, || {
        curves = sweep_tape.try_run_grid(&grid, 1).expect("grid runs");
    });

    let mut worst = 0.0f64;
    for (i, row) in per_point_rows.iter().enumerate() {
        for (k, &d) in row.iter().enumerate() {
            worst = worst.max((curves.delta[i][k] - d).abs());
        }
    }
    assert!(
        worst <= 1e-12,
        "tape sweep diverged from per-point engine: worst |diff| = {worst:.3e}"
    );
    #[allow(clippy::cast_precision_loss)]
    let (pp_pps, grid_pps) = (points as f64 / per_point, points as f64 / grid_secs);
    let sweep_speedup = per_point / grid_secs;
    println!(
        "  per-point {pp_pps:>8.1} pts/s   grid {grid_pps:>10.1} pts/s   x{sweep_speedup:.2}   worst |diff| {worst:.1e}"
    );

    // ---- JSON ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"tape_throughput\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hw_threads},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"mc\": {{");
    let _ = writeln!(json, "    \"circuit\": \"i10\",");
    let _ = writeln!(json, "    \"gates\": {},", i10.gate_count());
    let _ = writeln!(json, "    \"patterns\": {patterns},");
    let _ = writeln!(json, "    \"eps\": 0.1,");
    let _ = writeln!(json, "    \"lanes\": {DEFAULT_LANES},");
    let _ = writeln!(json, "    \"tape_compile_us\": {mc_compile_us:.1},");
    let _ = writeln!(json, "    \"rows\": [");
    for (i, (threads, secs, pps, scaling)) in mc_rows.iter().enumerate() {
        let comma = if i + 1 == mc_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{ \"threads\": {threads}, \"seconds\": {secs:.6}, \
             \"patterns_per_sec\": {pps:.0}, \"scaling\": {scaling:.3} }}{comma}"
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"circuit\": \"c499\",");
    let _ = writeln!(json, "    \"gates\": {},", c499.gate_count());
    let _ = writeln!(json, "    \"points\": {points},");
    let _ = writeln!(json, "    \"max_eps\": 0.5,");
    let _ = writeln!(json, "    \"tape_compile_us\": {sweep_compile_us:.1},");
    let _ = writeln!(json, "    \"per_point_seconds\": {per_point:.6},");
    let _ = writeln!(json, "    \"grid_seconds\": {grid_secs:.6},");
    let _ = writeln!(json, "    \"per_point_points_per_sec\": {pp_pps:.1},");
    let _ = writeln!(json, "    \"grid_points_per_sec\": {grid_pps:.1},");
    let _ = writeln!(json, "    \"speedup\": {sweep_speedup:.3},");
    let _ = writeln!(json, "    \"worst_abs_diff\": {worst:e}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write results JSON");
        println!("wrote {path}");
    } else {
        println!("\n{json}");
    }

    if smoke {
        if sweep_speedup < SMOKE_SWEEP_FLOOR {
            eprintln!("SMOKE FAIL: sweep grid speedup x{sweep_speedup:.2} < x{SMOKE_SWEEP_FLOOR}");
            std::process::exit(1);
        }
        println!("smoke ok: sweep x{sweep_speedup:.2} (floor x{SMOKE_SWEEP_FLOOR})");
    }
}
