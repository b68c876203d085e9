//! Chaos crash simulations for the on-disk artifact store.
//!
//! Requires the `chaos` feature: the store's disk-fault hooks (short
//! writes, torn renames, fsync failure, read-time bit flips) are compiled
//! out of default builds. Each test injects a deterministic fault, then
//! "restarts" by opening a fresh `Store` on the same directory and
//! asserts the store recovers: residue is quarantined or collected and
//! correct results are served after recompute.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::{Backend, InputDistribution, ObservabilityMatrix, Weights};
use relogic_netlist::Circuit;
use relogic_sim::chaos::{Chaos, ChaosConfig, ChaosSite, SitePolicy};
use relogic_store::{encode_weights, ArtifactMeta, Loaded, Store, StoreKey};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-test unique temp directory (tests run concurrently in one binary).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "relogic-store-chaos-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn full_adder() -> Circuit {
    let mut c = Circuit::new("fa");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let cin = c.add_input("cin");
    let s1 = c.xor([a, b]);
    let sum = c.xor([s1, cin]);
    let c1 = c.and([a, b]);
    let c2 = c.and([s1, cin]);
    let cout = c.or([c1, c2]);
    c.add_output("sum", sum);
    c.add_output("cout", cout);
    c
}

fn adder_weights() -> Weights {
    Weights::try_compute(&full_adder(), &InputDistribution::Uniform, Backend::Bdd).unwrap()
}

fn adder_key() -> StoreKey {
    StoreKey::digest("bench", "bdd", "synthetic-full-adder")
}

// ---------------------------------------------------------------------------
// 3. Chaos crash simulations
// ---------------------------------------------------------------------------

fn chaos_store(dir: &Path, site: ChaosSite, limit: u64) -> Store {
    let mut store = Store::open(dir).unwrap().quiet();
    store.set_chaos(Chaos::new(
        ChaosConfig::quiet(0xD15C).site(site, SitePolicy::limited(1.0, limit)),
    ));
    store
}

#[test]
fn torn_rename_leaves_no_final_file_and_restart_recovers() {
    let dir = temp_dir("torn");
    let store = chaos_store(&dir, ChaosSite::DiskTornRename, 1);
    let weights = adder_weights();
    let key = adder_key();

    // The kill-mid-write: temp file complete, rename never happens.
    let err = store.save_weights(key, &weights).unwrap_err();
    assert!(err.to_string().contains("disk_torn_rename"));
    assert!(!dir.join(format!("{}.wts", key.hex())).exists());

    // Restart: a fresh store on the same directory sees a clean miss,
    // recomputes, and the retry (budget exhausted) succeeds.
    let restarted = Store::open(&dir).unwrap().quiet();
    assert!(matches!(restarted.load_weights(key).unwrap(), Loaded::Miss));
    restarted.save_weights(key, &weights).unwrap();
    let loaded = restarted.load_weights(key).unwrap().hit().unwrap();
    assert_eq!(encode_weights(&loaded), encode_weights(&weights));

    // The crashed write's residue is invisible to ls and removed by gc.
    assert_eq!(restarted.ls().unwrap().len(), 1);
    let report = restarted.gc().unwrap();
    assert_eq!(report.removed, 1, "one *.tmp from the torn rename");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_write_tears_the_final_file_and_restart_quarantines_it() {
    let dir = temp_dir("short");
    let store = chaos_store(&dir, ChaosSite::DiskShortWrite, 1);
    let weights = adder_weights();
    let key = adder_key();

    // A non-atomic writer dies halfway through the final file.
    let err = store.save_weights(key, &weights).unwrap_err();
    assert!(err.to_string().contains("disk_short_write"));
    assert!(dir.join(format!("{}.wts", key.hex())).exists());

    // Restart: the torn file is detected, quarantined, and never served.
    let restarted = Store::open(&dir).unwrap().quiet();
    assert!(matches!(
        restarted.load_weights(key).unwrap(),
        Loaded::Quarantined(_)
    ));
    assert_eq!(restarted.counters().quarantined, 1);
    assert!(dir.join(format!("{}.wts.corrupt", key.hex())).exists());

    // Recompute + rewrite heals; gc sweeps the quarantined residue.
    restarted.save_weights(key, &weights).unwrap();
    let loaded = restarted.load_weights(key).unwrap().hit().unwrap();
    assert_eq!(encode_weights(&loaded), encode_weights(&weights));
    assert_eq!(restarted.gc().unwrap().removed, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_failure_reports_an_error_but_the_data_landed() {
    let dir = temp_dir("fsync");
    let store = chaos_store(&dir, ChaosSite::DiskFsyncFail, 1);
    let weights = adder_weights();
    let key = adder_key();

    let err = store.save_weights(key, &weights).unwrap_err();
    assert!(err.to_string().contains("disk_fsync_fail"));

    // The rename completed before the (simulated) fsync verdict, so a
    // read legitimately hits — fsync failure loses durability, not
    // atomicity.
    let loaded = store.load_weights(key).unwrap().hit().unwrap();
    assert_eq!(encode_weights(&loaded), encode_weights(&weights));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_time_bit_flips_are_always_quarantined_never_served_wrong() {
    let dir = temp_dir("bitflip");
    {
        let circuit = full_adder();
        let store = Store::open(&dir).unwrap().quiet();
        let key = adder_key();
        store
            .save_meta(
                key,
                &ArtifactMeta {
                    format_tag: "bench".into(),
                    backend_tag: "bdd".into(),
                    netlist: "synthetic-full-adder".into(),
                },
            )
            .unwrap();
        store.save_weights(key, &adder_weights()).unwrap();
        store
            .save_observability(
                key,
                &ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd),
            )
            .unwrap();
    }
    let store = chaos_store(&dir, ChaosSite::DiskBitFlip, u64::MAX);
    let key = adder_key();
    assert!(matches!(
        store.load_meta(key).unwrap(),
        Loaded::Quarantined(_)
    ));
    assert!(matches!(
        store.load_weights(key).unwrap(),
        Loaded::Quarantined(_)
    ));
    assert!(matches!(
        store.load_observability(key).unwrap(),
        Loaded::Quarantined(_)
    ));
    assert_eq!(store.counters().quarantined, 3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_disk_profile_storm_never_serves_a_wrong_answer() {
    // Drive the full disk profile (all four sites, seeded) through many
    // write/read cycles: every read either hits bit-identical, misses, or
    // quarantines — and after the budgets drain the store heals.
    let dir = temp_dir("storm");
    let weights = adder_weights();
    let weights_enc = encode_weights(&weights);
    let key = adder_key();

    let mut store = Store::open(&dir).unwrap().quiet();
    store.set_chaos(Chaos::new(ChaosConfig::disk_profile(7)));
    for _ in 0..64 {
        let _ = store.save_weights(key, &weights);
        match store.load_weights(key).unwrap() {
            Loaded::Hit(w) => assert_eq!(encode_weights(&w), weights_enc, "wrong answer served"),
            Loaded::Miss | Loaded::Quarantined(_) => {}
        }
    }
    // Budgets exhausted (bit-flip site is unlimited but probabilistic;
    // write sites are budgeted): a final write+read settles to a hit.
    let healed = Store::open(&dir).unwrap().quiet();
    healed.save_weights(key, &weights).unwrap();
    assert_eq!(
        encode_weights(&healed.load_weights(key).unwrap().hit().unwrap()),
        weights_enc
    );
    let _ = healed.gc().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}
