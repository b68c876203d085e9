//! End-to-end robustness suite for the on-disk artifact store.
//!
//! Four contracts:
//!
//! 1. **Round trip** — every artifact type serializes and deserializes
//!    bit-identically for randomized circuits (f64s compared by bit
//!    pattern via the canonical encoding).
//! 2. **Never a wrong answer** — an exhaustive single-byte-flip fuzz over
//!    a complete small archive: every mutated container either loads
//!    bit-identical to the original or is rejected and quarantined.
//! 3. **Maintenance** — `verify` reports corruption, `gc` removes
//!    `*.tmp`/`*.corrupt` residue and retired-kind containers and nothing
//!    else.
//!
//! Chaos crash simulations (short writes, torn renames, fsync failure)
//! live in `store_chaos.rs`, gated on the `chaos` feature.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::collection;
use proptest::prelude::*;
use relogic::{Backend, InputDistribution, ObservabilityMatrix, Weights};
use relogic_netlist::{Circuit, GateKind, NodeId};
use relogic_store::{encode_observability, encode_weights, ArtifactMeta, Loaded, Store, StoreKey};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-test unique temp directory (tests run concurrently in one binary).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "relogic-store-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Recipe for one random gate: a kind selector plus two fanin selectors
/// (reduced modulo the number of already-built nodes).
#[derive(Clone, Debug)]
struct CircuitSeed {
    inputs: usize,
    gates: Vec<(u8, u32, u32)>,
    outputs: Vec<u32>,
}

fn arb_circuit() -> impl Strategy<Value = CircuitSeed> {
    (
        2usize..=8,
        collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..24),
        collection::vec(any::<u32>(), 1..4),
    )
        .prop_map(|(inputs, gates, outputs)| CircuitSeed {
            inputs,
            gates,
            outputs,
        })
}

fn build_circuit(seed: &CircuitSeed) -> Circuit {
    let mut c = Circuit::new("prop");
    for i in 0..seed.inputs {
        c.add_input(format!("x{i}"));
    }
    for &(kind_sel, a, b) in &seed.gates {
        let kinds = GateKind::LOGIC_KINDS;
        let kind = kinds[kind_sel as usize % kinds.len()];
        let n = u32::try_from(c.len()).unwrap();
        let fa = NodeId::from_index((a % n) as usize);
        let fb = NodeId::from_index((b % n) as usize);
        let fanins: Vec<NodeId> = if kind.accepts_arity(2) {
            vec![fa, fb]
        } else {
            vec![fa]
        };
        c.add_gate(kind, fanins).unwrap();
    }
    let n = u32::try_from(c.len()).unwrap();
    for (k, &sel) in seed.outputs.iter().enumerate() {
        c.add_output(format!("y{k}"), NodeId::from_index((sel % n) as usize));
    }
    c
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

fn adder_key() -> StoreKey {
    StoreKey::digest("bench", "bdd", "synthetic-full-adder")
}

/// Writes a complete archive (meta + weights + observability) for the
/// full adder and returns the canonical encodings for bit-identity checks.
fn populate(store: &Store) -> (Vec<u8>, Vec<u8>) {
    let circuit = full_adder();
    let key = adder_key();
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let matrix = ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
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
    store.save_weights(key, &weights).unwrap();
    store.save_observability(key, &matrix).unwrap();
    (encode_weights(&weights), encode_observability(&matrix))
}

// ---------------------------------------------------------------------------
// 1. Round-trip property tests
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn weights_round_trip_bit_identically(seed in arb_circuit()) {
        let circuit = build_circuit(&seed);
        let weights = Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let dir = temp_dir("weights-prop");
        let store = Store::open(&dir).unwrap().quiet();
        let key = StoreKey::digest("bench", "bdd", &format!("{seed:?}"));
        store.save_weights(key, &weights).unwrap();
        let loaded = store.load_weights(key).unwrap().hit().expect("hit");
        // Canonical encoding compares every f64 by bit pattern.
        prop_assert_eq!(encode_weights(&weights), encode_weights(&loaded));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observability_round_trips_bit_identically(seed in arb_circuit()) {
        let circuit = build_circuit(&seed);
        let matrix =
            ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
        let dir = temp_dir("obs-prop");
        let store = Store::open(&dir).unwrap().quiet();
        let key = StoreKey::digest("bench", "bdd", &format!("{seed:?}"));
        store.save_observability(key, &matrix).unwrap();
        let loaded = store.load_observability(key).unwrap().hit().expect("hit");
        prop_assert_eq!(encode_observability(&matrix), encode_observability(&loaded));
        // Diagnostics survive the trip (BDD engine stats included).
        prop_assert_eq!(loaded.diagnostics(), matrix.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

}

#[test]
fn meta_round_trips_through_a_store() {
    let dir = temp_dir("meta");
    let store = Store::open(&dir).unwrap().quiet();
    let key = adder_key();
    let meta = ArtifactMeta {
        format_tag: "blif".into(),
        backend_tag: "sim:4096:42".into(),
        netlist: ".model m\n.inputs a\n.outputs y\n".into(),
    };
    store.save_meta(key, &meta).unwrap();
    assert_eq!(store.load_meta(key).unwrap().hit().unwrap(), meta);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// 2. Exhaustive single-byte-flip fuzz: never a wrong answer
// ---------------------------------------------------------------------------

/// For every byte of every container in a complete archive, and every bit
/// of that byte: the mutated file must either be quarantined or load
/// bit-identical to the original. (With dual-FNV payload checksums and a
/// fully-validated header, every flip is in fact quarantined; the test
/// asserts the weaker disjunction the contract promises and additionally
/// counts that nothing wrong was ever served.)
#[test]
fn every_single_byte_flip_is_quarantined_or_bit_identical() {
    let dir = temp_dir("fuzz");
    let store = Store::open(&dir).unwrap().quiet();
    let (weights_enc, obs_enc) = populate(&store);
    let key = adder_key();

    let files: Vec<PathBuf> = store
        .ls()
        .unwrap()
        .iter()
        .map(|e| dir.join(format!("{}.{}", e.key.hex(), e.kind.extension())))
        .collect();
    assert_eq!(files.len(), 3, "meta + weights + observability");

    let mut mutations = 0u64;
    let mut served_identical = 0u64;
    for path in &files {
        let pristine = fs::read(path).unwrap();
        for byte in 0..pristine.len() {
            for bit in 0..8u8 {
                let mut mutated = pristine.clone();
                mutated[byte] ^= 1 << bit;
                fs::write(path, &mutated).unwrap();
                mutations += 1;

                let ext = path.extension().unwrap().to_str().unwrap();
                let outcome_identical = match ext {
                    "meta" => match store.load_meta(key).unwrap() {
                        Loaded::Hit(m) => Some(
                            m.format_tag == "bench"
                                && m.backend_tag == "bdd"
                                && m.netlist == "synthetic-full-adder",
                        ),
                        Loaded::Quarantined(_) => None,
                        Loaded::Miss => panic!("mutated file vanished"),
                    },
                    "wts" => match store.load_weights(key).unwrap() {
                        Loaded::Hit(w) => Some(encode_weights(&w) == weights_enc),
                        Loaded::Quarantined(_) => None,
                        Loaded::Miss => panic!("mutated file vanished"),
                    },
                    "obs" => match store.load_observability(key).unwrap() {
                        Loaded::Hit(o) => Some(encode_observability(&o) == obs_enc),
                        Loaded::Quarantined(_) => None,
                        Loaded::Miss => panic!("mutated file vanished"),
                    },
                    other => panic!("unexpected extension {other}"),
                };
                match outcome_identical {
                    // Served: must be bit-identical to the original.
                    Some(identical) => {
                        assert!(
                            identical,
                            "WRONG ANSWER served for {} byte {byte} bit {bit}",
                            path.display()
                        );
                        served_identical += 1;
                    }
                    // Quarantined: the file must be out of circulation.
                    None => {
                        assert!(
                            !path.exists(),
                            "quarantine left {} in place (byte {byte} bit {bit})",
                            path.display()
                        );
                    }
                }
                // Restore for the next mutation (quarantine renamed it away).
                fs::write(path, &pristine).unwrap();
            }
        }
    }

    assert!(
        mutations > 1000,
        "fuzz actually ran ({mutations} mutations)"
    );
    // Every header field and payload byte is covered by validation, so in
    // practice nothing mutated is ever served.
    assert_eq!(served_identical, 0, "checksum coverage has a hole");
    assert_eq!(store.counters().quarantined, mutations);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// 4. Offline maintenance
// ---------------------------------------------------------------------------

#[test]
fn ls_verify_and_gc_manage_a_mixed_directory() {
    let dir = temp_dir("maint");
    let store = Store::open(&dir).unwrap().quiet();
    populate(&store);
    let key = adder_key();

    // Containers of the retired tape and estimator kinds, as earlier
    // versions wrote them: unknown to ls, verify and bytes_on_disk.
    let retired = [
        dir.join(format!("{}.tape", key.hex())),
        dir.join(format!("{}.est", key.hex())),
    ];
    for path in &retired {
        fs::write(path, b"RLGSTORE retired kind").unwrap();
    }

    // ls sees exactly the three live containers and bytes_on_disk matches.
    let entries = store.ls().unwrap();
    assert_eq!(entries.len(), 3);
    let total: u64 = entries.iter().map(|e| e.bytes).sum();
    assert_eq!(store.bytes_on_disk().unwrap(), total);
    assert_eq!(store.meta_keys().unwrap(), vec![key]);

    // A clean archive verifies clean.
    let report = store.verify().unwrap();
    assert_eq!(report.ok, 3);
    assert!(report.quarantined.is_empty());

    // Corrupt one file: verify finds it, quarantines it, and reports why.
    let victim = dir.join(format!("{}.wts", key.hex()));
    let mut bytes = fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    fs::write(&victim, &bytes).unwrap();
    let report = store.verify().unwrap();
    assert_eq!(report.ok, 2);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].0, victim);
    assert!(!victim.exists());

    // gc removes the quarantined residue and the retired containers; the
    // live artifacts and stray unrelated files survive, even one whose
    // extension is retired but whose stem is no key.
    fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
    fs::write(dir.join("notes.tape"), b"keep me").unwrap();
    let report = store.gc().unwrap();
    assert_eq!(report.removed, 3);
    assert!(report.bytes_freed > 0);
    assert_eq!(store.ls().unwrap().len(), 2);
    assert!(retired.iter().all(|path| !path.exists()));
    assert!(dir.join("unrelated.txt").exists());
    assert!(dir.join("notes.tape").exists());
    fs::remove_dir_all(&dir).unwrap();
}
