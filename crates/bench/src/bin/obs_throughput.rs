//! Exact-observability throughput on the generated ISCAS-85 analogue
//! suite: wall time and BDD engine statistics for the full
//! `ObservabilityMatrix` (every node × every output + any-output column)
//! with the BDD backend. Archives node counts, cache hit rates, and wall
//! times to `results/obs_throughput.json`.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin obs_throughput [-- --out results/obs_throughput.json]
//! ```
//!
//! These are the circuits the paper's Table 2 scalability claims rest on:
//! `c499`/`c1355` are the XOR-reconvergent workloads that used to be
//! intractable for the exact backend.

use relogic::{Backend, InputDistribution, ObservabilityMatrix};
use std::fmt::Write as _;
use std::time::Instant;

const CIRCUITS: [&str; 4] = ["x2", "b9", "c499", "c1355"];

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
    for name in CIRCUITS {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        let started = Instant::now();
        let obs = ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = obs
            .diagnostics()
            .bdd_stats()
            .copied()
            .expect("bdd backend reports engine stats");
        println!(
            "{name:>6}: {:>4} nodes x {:>2} outputs  {wall_ms:>9.1} ms  \
             peak {:>8} live nodes  cache hit rate {:.3}  {} gc  {} reorders",
            circuit.len(),
            circuit.output_count(),
            stats.peak_live_nodes,
            stats.cache_hit_rate(),
            stats.gc_runs,
            stats.reorders,
        );
        rows.push((name, circuit, wall_ms, stats));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"obs_throughput\",");
    let _ = writeln!(json, "  \"backend\": \"bdd\",");
    let _ = writeln!(json, "  \"circuits\": [");
    for (i, (name, circuit, wall_ms, stats)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"nodes\": {},", circuit.len());
        let _ = writeln!(json, "      \"gates\": {},", circuit.gate_count());
        let _ = writeln!(json, "      \"inputs\": {},", circuit.input_count());
        let _ = writeln!(json, "      \"outputs\": {},", circuit.output_count());
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
