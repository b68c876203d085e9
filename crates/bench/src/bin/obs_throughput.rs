//! Exact-observability throughput on the generated ISCAS-85 analogue
//! suite: wall time and BDD engine statistics for the full
//! `ObservabilityMatrix` (every node × every output + any-output column)
//! with the BDD backend, at 1 and 2 worker threads. Archives node counts,
//! cache hit rates, and wall times to `results/obs_throughput.json`, one
//! row per circuit and thread count. Each row's `wall_ms` is the median of
//! [`RUNS`] runs that alternate between the thread counts, so a stretch
//! where the host lends the process only one core skews both rows alike.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin obs_throughput [-- --out results/obs_throughput.json]
//! ```
//!
//! These are the circuits the paper's Table 2 scalability claims rest on:
//! `c499`/`c1355` are the XOR-reconvergent workloads that used to be
//! intractable for the exact backend. The 2-thread rows show whether the
//! sweep's split by post-dominator tree pays on the host that ran it.

use relogic::{Backend, CancelToken, InputDistribution, ObservabilityMatrix};
use std::fmt::Write as _;
use std::time::Instant;

const CIRCUITS: [&str; 4] = ["x2", "b9", "c499", "c1355"];

const THREADS: [usize; 2] = [1, 2];

const RUNS: usize = 3;

fn main() {
    let out_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--out" {
                path = args.next();
            }
        }
        path
    };

    println!("exact observability throughput (bdd backend, full matrix)\n");
    let mut rows = Vec::new();
    let circuits: Vec<_> = CIRCUITS
        .iter()
        .map(|&name| {
            (
                name,
                relogic_gen::suite::build(name).expect("suite circuit"),
            )
        })
        .collect();
    for (name, circuit) in &circuits {
        let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); THREADS.len()];
        let mut last_stats = Vec::new();
        for _ in 0..RUNS {
            last_stats.clear();
            for (runs, &threads) in walls.iter_mut().zip(&THREADS) {
                let started = Instant::now();
                let obs = ObservabilityMatrix::try_compute_threads_cancellable(
                    circuit,
                    &InputDistribution::Uniform,
                    Backend::Bdd,
                    threads,
                    &CancelToken::new(),
                )
                .expect("suite circuits fit the exact backend");
                runs.push(started.elapsed().as_secs_f64() * 1e3);
                last_stats.push(
                    obs.diagnostics()
                        .bdd_stats()
                        .copied()
                        .expect("bdd backend reports engine stats"),
                );
            }
        }
        for ((&threads, runs), stats) in THREADS.iter().zip(&mut walls).zip(last_stats) {
            runs.sort_by(f64::total_cmp);
            let wall_ms = runs[RUNS / 2];
            println!(
                "{name:>6}: {:>4} nodes x {:>2} outputs  {threads} thread(s)  {wall_ms:>9.1} ms  \
                 peak {:>8} live nodes  cache hit rate {:.3}  {} gc  {} reorders",
                circuit.len(),
                circuit.output_count(),
                stats.peak_live_nodes,
                stats.cache_hit_rate(),
                stats.gc_runs,
                stats.reorders,
            );
            rows.push((name, circuit, threads, wall_ms, stats));
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"obs_throughput\",");
    let _ = writeln!(json, "  \"backend\": \"bdd\",");
    let _ = writeln!(
        json,
        "  \"available_parallelism\": {},",
        relogic_sim::exec::available_threads()
    );
    let _ = writeln!(json, "  \"runs_per_row\": {RUNS},");
    let _ = writeln!(json, "  \"circuits\": [");
    for (i, (name, circuit, threads, wall_ms, stats)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"nodes\": {},", circuit.len());
        let _ = writeln!(json, "      \"gates\": {},", circuit.gate_count());
        let _ = writeln!(json, "      \"inputs\": {},", circuit.input_count());
        let _ = writeln!(json, "      \"outputs\": {},", circuit.output_count());
        let _ = writeln!(json, "      \"threads\": {threads},");
        let _ = writeln!(json, "      \"wall_ms\": {wall_ms:.1},");
        let _ = writeln!(
            json,
            "      \"peak_live_nodes\": {},",
            stats.peak_live_nodes
        );
        let _ = writeln!(
            json,
            "      \"unique_table_load\": {:.3},",
            stats.unique_load
        );
        let _ = writeln!(json, "      \"cache_hits\": {},", stats.cache_hits);
        let _ = writeln!(json, "      \"cache_misses\": {},", stats.cache_misses);
        let _ = writeln!(
            json,
            "      \"cache_hit_rate\": {:.3},",
            stats.cache_hit_rate()
        );
        let _ = writeln!(json, "      \"gc_runs\": {},", stats.gc_runs);
        let _ = writeln!(json, "      \"reorders\": {}", stats.reorders);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write results JSON");
        println!("\nwrote {path}");
    } else {
        println!("\n{json}");
    }
}
