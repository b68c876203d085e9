//! Persistence tests driven through the public service API: a restarted
//! service must serve previously-seen circuits from the on-disk artifact
//! store without recomputing them, corrupted artifacts must be quarantined
//! and recomputed (never served), and an unusable cache directory must
//! degrade the service to in-memory operation instead of failing requests.

// Test helpers may unwrap: a panic here is a test failure, not a crash path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::Weights;
use relogic_serve::cache::ArtifactKey;
use relogic_serve::json::{self, Json};
use relogic_serve::proto::{BackendSpec, CircuitPayload, NetlistFormat};
use relogic_serve::{Service, ServiceConfig};
use relogic_store::{Store, StoreKey};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SMALL: &str = "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\nt = NAND(a, b)\\ny = NOT(t)\\n";

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "relogic-serve-persist-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service_with_dir(dir: Option<PathBuf>) -> Service {
    Service::new(ServiceConfig {
        timeout_ms: 0,
        cache_dir: dir,
        ..ServiceConfig::default()
    })
}

fn stats_of(service: &Service) -> Json {
    let reply = service.handle_line(r#"{"kind":"stats"}"#);
    json::parse(reply.trim())
        .unwrap()
        .get("result")
        .unwrap()
        .clone()
}

fn disk_counter(stats: &Json, field: &str) -> u64 {
    stats
        .get("disk")
        .unwrap()
        .get(field)
        .and_then(Json::as_u64)
        .unwrap()
}

#[test]
fn warm_restart_serves_observability_from_disk_without_recomputing() {
    let dir = temp_dir("warm");
    let frame = format!(r#"{{"kind":"observability","netlist":"{SMALL}"}}"#);

    // Cold service: computes everything and writes through to disk.
    let cold = service_with_dir(Some(dir.clone()));
    let cold_reply = cold.handle_line(&frame);
    assert!(cold_reply.contains("\"ok\":true"), "{cold_reply}");
    let cold_stats = stats_of(&cold);
    assert_eq!(
        cold_stats.get("cache_dir").and_then(Json::as_str),
        Some("ready")
    );
    assert!(disk_counter(&cold_stats, "disk_writes") >= 2, "meta + obs");
    assert!(disk_counter(&cold_stats, "bytes_on_disk") > 0);
    drop(cold);

    // Warm service: a fresh process image pointed at the same directory
    // must produce the bit-identical answer without running the analysis.
    let warm = service_with_dir(Some(dir.clone()));
    let warm_reply = warm.handle_line(&frame);
    assert_eq!(cold_reply, warm_reply, "restart changed the answer");
    let warm_counters = warm.cache().counters();
    assert_eq!(
        warm_counters.observability_computed.load(Ordering::Relaxed),
        0,
        "warm restart must not recompute observability"
    );
    let warm_stats = stats_of(&warm);
    assert!(disk_counter(&warm_stats, "disk_hits") >= 1);
    assert_eq!(disk_counter(&warm_stats, "corrupt_quarantined"), 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_reuses_weights_and_tapes_too() {
    let dir = temp_dir("kinds");
    let analyze = format!(r#"{{"kind":"analyze","netlist":"{SMALL}","eps":0.1}}"#);
    let mc = format!(
        r#"{{"kind":"monte_carlo","netlist":"{SMALL}","patterns":4096,"seed":3,"threads":1}}"#
    );

    let cold = service_with_dir(Some(dir.clone()));
    let cold_analyze = cold.handle_line(&analyze);
    let cold_mc = cold.handle_line(&mc);
    assert!(cold_analyze.contains("\"ok\":true"), "{cold_analyze}");
    assert!(cold_mc.contains("\"ok\":true"), "{cold_mc}");
    drop(cold);

    let warm = service_with_dir(Some(dir.clone()));
    assert_eq!(cold_analyze, warm.handle_line(&analyze));
    assert_eq!(cold_mc, warm.handle_line(&mc));
    let counters = warm.cache().counters();
    assert_eq!(counters.weights_computed.load(Ordering::Relaxed), 0);
    // Compiling a tape is faster than reading one back: it is never
    // stored, so the warm service compiles it again.
    assert_eq!(counters.tapes_compiled.load(Ordering::Relaxed), 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sampled_weights_stored_under_the_sequential_stream_tag_are_never_served() {
    let dir = temp_dir("old-stream");
    let analyze = format!(
        r#"{{"kind":"analyze","netlist":"{SMALL}","eps":0.1,"backend":"sim","backend_patterns":4096,"backend_seed":3}}"#
    );
    let netlist = SMALL.replace("\\n", "\n");
    // What a daemon on the sequential input stream stored for this
    // request: its tag was `sim:{patterns}:{seed}`. Constant weights make
    // a served copy visible in the answer.
    let old_key = StoreKey::digest("bench", "sim:4096:3", &netlist);
    let stale = Weights::from_parts(
        vec![vec![], vec![], vec![0.25; 4], vec![0.5; 2]],
        vec![0.5; 4],
    )
    .unwrap();
    Store::open(&dir)
        .unwrap()
        .save_weights(old_key, &stale)
        .unwrap();

    let service = service_with_dir(Some(dir.clone()));
    let reply = service.handle_line(&analyze);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let counters = service.cache().counters();
    assert_eq!(counters.weights_computed.load(Ordering::Relaxed), 1);
    assert_eq!(
        reply,
        service_with_dir(None).handle_line(&analyze),
        "the stored weights reached the answer"
    );
    // The memory tier keys artifacts by the same digest.
    let payload = CircuitPayload {
        netlist,
        format: NetlistFormat::Bench,
        backend: BackendSpec::Sim {
            patterns: 4096,
            seed: 3,
        },
    };
    assert_ne!(ArtifactKey::of(&payload).store_key(), old_key);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifacts_are_quarantined_and_recomputed_never_served() {
    let dir = temp_dir("corrupt");
    let frame = format!(r#"{{"kind":"observability","netlist":"{SMALL}"}}"#);

    let cold = service_with_dir(Some(dir.clone()));
    let cold_reply = cold.handle_line(&frame);
    assert!(cold_reply.contains("\"ok\":true"), "{cold_reply}");
    drop(cold);

    // Flip one payload byte in every stored artifact.
    let mut flipped = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        flipped += 1;
    }
    assert!(
        flipped >= 2,
        "expected at least meta + observability on disk"
    );

    // The warm service must detect the corruption, quarantine the files,
    // recompute, and still answer bit-identically.
    let warm = service_with_dir(Some(dir.clone()));
    let warm_reply = warm.handle_line(&frame);
    assert_eq!(cold_reply, warm_reply, "corruption leaked into the answer");
    let warm_stats = stats_of(&warm);
    assert!(disk_counter(&warm_stats, "corrupt_quarantined") >= 1);
    assert_eq!(
        warm_stats.get("cache_dir").and_then(Json::as_str),
        Some("ready"),
        "corruption quarantines files, it does not degrade the tier"
    );
    let corrupt_files = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|ext| ext == "corrupt")
        })
        .count();
    assert!(corrupt_files >= 1, "quarantine must rename, not delete");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_degrades_to_memory_and_keeps_serving() {
    // A regular file where the cache directory should be: create_dir_all
    // fails, the tier degrades at open, and every request still succeeds.
    let blocker = temp_dir("degraded");
    fs::write(&blocker, b"not a directory").unwrap();

    let svc = service_with_dir(Some(blocker.clone()));
    let frame = format!(r#"{{"kind":"analyze","netlist":"{SMALL}","eps":0.1}}"#);
    let reply = svc.handle_line(&frame);
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let stats = stats_of(&svc);
    assert_eq!(
        stats.get("cache_dir").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(disk_counter(&stats, "disk_hits"), 0);
    assert_eq!(disk_counter(&stats, "bytes_on_disk"), 0);

    let health = svc.handle_line(r#"{"kind":"health"}"#);
    let doc = json::parse(health.trim()).unwrap();
    assert_eq!(
        doc.get("result")
            .unwrap()
            .get("cache_dir")
            .and_then(Json::as_str),
        Some("degraded")
    );
    // Degradation must not affect readiness: memory-only is a supported mode.
    assert_eq!(
        doc.get("result")
            .unwrap()
            .get("ready")
            .and_then(Json::as_bool),
        Some(true)
    );

    let _ = fs::remove_file(&blocker);
}

#[test]
fn no_cache_dir_reports_none_and_stays_purely_in_memory() {
    let svc = service_with_dir(None);
    let frame = format!(r#"{{"kind":"observability","netlist":"{SMALL}"}}"#);
    assert!(svc.handle_line(&frame).contains("\"ok\":true"));
    let stats = stats_of(&svc);
    assert_eq!(stats.get("cache_dir").and_then(Json::as_str), Some("none"));
    assert_eq!(disk_counter(&stats, "disk_writes"), 0);
}
