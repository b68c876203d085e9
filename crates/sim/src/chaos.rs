//! Deterministic, seed-driven fault injection for the execution stack.
//!
//! The DATE 2007 paper models every gate as a fault site that fails with a
//! known probability ε; this module applies the same discipline to the
//! software that *computes* those reliabilities. Every layer of the serving
//! stack — worker-pool jobs, request execution, connection I/O, the
//! artifact cache — exposes an injection site ([`ChaosSite`]) with a
//! configurable, seeded failure probability, so the stack's failure paths
//! (typed errors, deadline timeouts, panic containment, LRU eviction) can
//! be exercised under *injected* faults instead of waiting
//! for production to find them.
//!
//! # Determinism contract
//!
//! Every injection decision is a pure function of `(seed, site, n)` where
//! `n` is the per-site draw counter: draw `n` at site `s` fires iff
//! `splitmix64(seed ⊕ salt(s) ⊕ mix(n)) < p·2⁶⁴`, subject to the site's
//! event budget. Two runs with the same seed therefore produce the same
//! *decision sequence per site*. Under concurrency the thread interleaving
//! still decides **which request** absorbs event `n`, so chaos tests must
//! assert interleaving-independent invariants (no hang, no wrong answer
//! for requests that succeed, bounded memory, clean drain) rather than
//! exact event placement. The one exception is a site with
//! `probability = 1.0` and `limit = k`: exactly the first `k` draws fire,
//! whichever threads make them.
//!
//! # Zero cost when disabled
//!
//! The module only exists under `#[cfg(any(test, feature = "chaos"))]`;
//! release builds without the `chaos` feature compile every injection hook
//! to nothing (see the feature-gate pin in the crate root and the CI
//! `chaos-smoke` job's `cargo tree -e features` check).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injection point in the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosSite {
    /// A worker-pool job panics instead of running (contained by the
    /// pool's per-job `catch_unwind`; in `relogic-serve` the job is a
    /// whole connection, so the connection drops).
    PoolPanic,
    /// A worker-pool job is delayed by [`ChaosConfig::delay`] before it
    /// runs (latency spike).
    PoolDelay,
    /// Request execution panics mid-analysis (in `relogic-serve` the
    /// request-level `catch_unwind` turns this into exactly one `internal`
    /// wire error).
    ExecPanic,
    /// Request execution is delayed by [`ChaosConfig::delay`] first.
    ExecDelay,
    /// A connection read stalls for [`ChaosConfig::delay`] before any
    /// bytes arrive (slow peer).
    ReadStall,
    /// A connection read returns a single byte (torn frame: the frame
    /// loop must reassemble across many short reads).
    TornRead,
    /// A connection write fails after writing only half its bytes
    /// (mid-write EOF: the peer sees a truncated frame, then a close).
    WriteEof,
    /// The artifact cache evicts everything before the lookup (eviction
    /// churn: every request recompiles and re-materializes).
    CacheEvict,
    /// The artifact cache fails the lookup outright (simulated
    /// materialization failure, surfaced as a typed `internal` error).
    CacheFail,
    /// A disk-store write crashes after flushing only the first half of
    /// the bytes to the *final* path (a non-atomic filesystem or a power
    /// cut mid-write): the next read must quarantine the truncated file.
    DiskShortWrite,
    /// A disk-store write completes its temp file but dies before the
    /// atomic rename (torn rename): the artifact is absent on restart and
    /// the stale `*.tmp` must be garbage-collectable.
    DiskTornRename,
    /// A disk-store fsync reports failure after the data was handed to
    /// the kernel: the write is reported failed even though the bytes may
    /// later prove durable.
    DiskFsyncFail,
    /// A disk-store read observes one flipped bit in the returned buffer
    /// (bit rot / torn sector): the checksum must reject it and the file
    /// must be quarantined, never decoded.
    DiskBitFlip,
}

/// Number of distinct sites (array-index bound).
pub const SITE_COUNT: usize = 13;

impl ChaosSite {
    /// All sites, in index order.
    pub const ALL: [ChaosSite; SITE_COUNT] = [
        ChaosSite::PoolPanic,
        ChaosSite::PoolDelay,
        ChaosSite::ExecPanic,
        ChaosSite::ExecDelay,
        ChaosSite::ReadStall,
        ChaosSite::TornRead,
        ChaosSite::WriteEof,
        ChaosSite::CacheEvict,
        ChaosSite::CacheFail,
        ChaosSite::DiskShortWrite,
        ChaosSite::DiskTornRename,
        ChaosSite::DiskFsyncFail,
        ChaosSite::DiskBitFlip,
    ];

    /// The site's dense index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ChaosSite::PoolPanic => 0,
            ChaosSite::PoolDelay => 1,
            ChaosSite::ExecPanic => 2,
            ChaosSite::ExecDelay => 3,
            ChaosSite::ReadStall => 4,
            ChaosSite::TornRead => 5,
            ChaosSite::WriteEof => 6,
            ChaosSite::CacheEvict => 7,
            ChaosSite::CacheFail => 8,
            ChaosSite::DiskShortWrite => 9,
            ChaosSite::DiskTornRename => 10,
            ChaosSite::DiskFsyncFail => 11,
            ChaosSite::DiskBitFlip => 12,
        }
    }

    /// A stable human-readable name (used in stats and error messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::PoolPanic => "pool_panic",
            ChaosSite::PoolDelay => "pool_delay",
            ChaosSite::ExecPanic => "exec_panic",
            ChaosSite::ExecDelay => "exec_delay",
            ChaosSite::ReadStall => "read_stall",
            ChaosSite::TornRead => "torn_read",
            ChaosSite::WriteEof => "write_eof",
            ChaosSite::CacheEvict => "cache_evict",
            ChaosSite::CacheFail => "cache_fail",
            ChaosSite::DiskShortWrite => "disk_short_write",
            ChaosSite::DiskTornRename => "disk_torn_rename",
            ChaosSite::DiskFsyncFail => "disk_fsync_fail",
            ChaosSite::DiskBitFlip => "disk_bit_flip",
        }
    }

    /// A per-site salt decorrelating the sites' decision streams.
    fn salt(self) -> u64 {
        // Any fixed distinct odd constants work; golden-ratio multiples.
        0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(self.index() as u64 + 1)
    }
}

/// Per-site injection policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SitePolicy {
    /// Probability in `[0, 1]` that a draw at this site fires.
    pub probability: f64,
    /// Total events this site may fire across the process lifetime;
    /// `0` means unlimited. A site with `probability = 1.0` and
    /// `limit = k` fires on exactly its first `k` draws.
    pub limit: u64,
}

impl SitePolicy {
    /// A site that never fires.
    pub const OFF: SitePolicy = SitePolicy {
        probability: 0.0,
        limit: 0,
    };

    /// A site firing with probability `p`, unlimited events.
    #[must_use]
    pub fn with_probability(p: f64) -> SitePolicy {
        SitePolicy {
            probability: p,
            limit: 0,
        }
    }

    /// A site firing with probability `p`, at most `limit` times.
    #[must_use]
    pub fn limited(p: f64, limit: u64) -> SitePolicy {
        SitePolicy {
            probability: p,
            limit,
        }
    }
}

/// Full fault-injection configuration: a seed, per-site policies, and the
/// latency applied by delay/stall sites.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for every site's decision stream.
    pub seed: u64,
    /// Per-site policies, indexed by [`ChaosSite::index`].
    pub sites: [SitePolicy; SITE_COUNT],
    /// Sleep applied when a delay/stall site fires.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A configuration with every site off.
    #[must_use]
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            sites: [SitePolicy::OFF; SITE_COUNT],
            delay: Duration::from_millis(20),
        }
    }

    /// Sets one site's policy (builder style).
    #[must_use]
    pub fn site(mut self, site: ChaosSite, policy: SitePolicy) -> ChaosConfig {
        self.sites[site.index()] = policy;
        self
    }

    /// The `worker` profile: injected panics and latency spikes in
    /// worker-pool jobs and request execution.
    #[must_use]
    pub fn worker_profile(seed: u64) -> ChaosConfig {
        ChaosConfig::quiet(seed)
            .site(ChaosSite::PoolPanic, SitePolicy::limited(0.10, 4))
            .site(ChaosSite::PoolDelay, SitePolicy::with_probability(0.15))
            .site(ChaosSite::ExecPanic, SitePolicy::limited(0.25, 6))
            .site(ChaosSite::ExecDelay, SitePolicy::with_probability(0.20))
    }

    /// The `io` profile: torn frames, stalled reads, mid-write EOF on
    /// serve connections.
    #[must_use]
    pub fn io_profile(seed: u64) -> ChaosConfig {
        ChaosConfig::quiet(seed)
            .site(ChaosSite::ReadStall, SitePolicy::with_probability(0.10))
            .site(ChaosSite::TornRead, SitePolicy::with_probability(0.30))
            .site(ChaosSite::WriteEof, SitePolicy::limited(0.15, 8))
    }

    /// The `cache` profile: forced eviction churn and simulated
    /// materialization failures in the artifact cache.
    #[must_use]
    pub fn cache_profile(seed: u64) -> ChaosConfig {
        ChaosConfig::quiet(seed)
            .site(ChaosSite::CacheEvict, SitePolicy::with_probability(0.50))
            .site(ChaosSite::CacheFail, SitePolicy::limited(0.25, 8))
    }

    /// The `disk` profile: short writes, torn renames, fsync failures,
    /// and read-time bit flips in the persistent artifact store. Failure
    /// sites carry finite budgets so every run dries up into a healthy
    /// store; the bit-flip site is unbudgeted because a quarantined read
    /// always heals by recompute.
    #[must_use]
    pub fn disk_profile(seed: u64) -> ChaosConfig {
        ChaosConfig::quiet(seed)
            .site(ChaosSite::DiskShortWrite, SitePolicy::limited(0.20, 4))
            .site(ChaosSite::DiskTornRename, SitePolicy::limited(0.20, 4))
            .site(ChaosSite::DiskFsyncFail, SitePolicy::limited(0.15, 4))
            .site(ChaosSite::DiskBitFlip, SitePolicy::with_probability(0.20))
    }

    /// The `all` profile: every fault class at reduced intensity.
    #[must_use]
    pub fn all_profile(seed: u64) -> ChaosConfig {
        ChaosConfig::quiet(seed)
            .site(ChaosSite::PoolPanic, SitePolicy::limited(0.05, 3))
            .site(ChaosSite::PoolDelay, SitePolicy::with_probability(0.10))
            .site(ChaosSite::ExecPanic, SitePolicy::limited(0.10, 4))
            .site(ChaosSite::ExecDelay, SitePolicy::with_probability(0.10))
            .site(ChaosSite::ReadStall, SitePolicy::with_probability(0.05))
            .site(ChaosSite::TornRead, SitePolicy::with_probability(0.15))
            .site(ChaosSite::WriteEof, SitePolicy::limited(0.08, 5))
            .site(ChaosSite::CacheEvict, SitePolicy::with_probability(0.25))
            .site(ChaosSite::CacheFail, SitePolicy::limited(0.10, 5))
            .site(ChaosSite::DiskShortWrite, SitePolicy::limited(0.10, 2))
            .site(ChaosSite::DiskTornRename, SitePolicy::limited(0.10, 2))
            .site(ChaosSite::DiskFsyncFail, SitePolicy::limited(0.08, 2))
            .site(ChaosSite::DiskBitFlip, SitePolicy::with_probability(0.10))
    }

    /// Parses a `--chaos-profile` spec: `NAME[:SEED]` where `NAME` is
    /// `worker`, `io`, `cache`, or `all` and `SEED` is a decimal u64
    /// (default 1).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown profiles or malformed
    /// seeds.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let (name, seed) = match spec.split_once(':') {
            Some((name, seed)) => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("invalid chaos seed `{seed}` (expected a u64)"))?;
                (name, seed)
            }
            None => (spec, 1),
        };
        match name {
            "worker" => Ok(ChaosConfig::worker_profile(seed)),
            "io" => Ok(ChaosConfig::io_profile(seed)),
            "cache" => Ok(ChaosConfig::cache_profile(seed)),
            "disk" => Ok(ChaosConfig::disk_profile(seed)),
            "all" => Ok(ChaosConfig::all_profile(seed)),
            other => Err(format!(
                "unknown chaos profile `{other}` (expected worker, io, cache, disk, or all)"
            )),
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A live fault injector: the configuration plus per-site draw and event
/// counters. Cheap to share (`Arc`) across every layer of the stack.
#[derive(Debug)]
pub struct Chaos {
    config: ChaosConfig,
    draws: [AtomicU64; SITE_COUNT],
    fired: [AtomicU64; SITE_COUNT],
}

impl Chaos {
    /// Builds a shared injector from a configuration.
    #[must_use]
    pub fn new(config: ChaosConfig) -> Arc<Chaos> {
        Arc::new(Chaos {
            config,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// The configuration this injector runs.
    #[must_use]
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Draws one injection decision at `site`. Deterministic per the
    /// module-level contract; bumps the site's draw counter and, when it
    /// fires, the event counter (respecting the site's budget).
    #[must_use]
    pub fn should(&self, site: ChaosSite) -> bool {
        let idx = site.index();
        let policy = self.config.sites[idx];
        if policy.probability <= 0.0 {
            return false;
        }
        let n = self.draws[idx].fetch_add(1, Ordering::Relaxed);
        let hit = if policy.probability >= 1.0 {
            true
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let threshold = (policy.probability * u64::MAX as f64) as u64;
            let roll = splitmix64(
                self.config
                    .seed
                    .wrapping_add(site.salt())
                    .wrapping_add(splitmix64(n)),
            );
            roll < threshold
        };
        if !hit {
            return false;
        }
        if policy.limit == 0 {
            self.fired[idx].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Budgeted site: claim one of the remaining events atomically so
        // `probability = 1.0, limit = k` fires on exactly the first k
        // draws process-wide.
        self.fired[idx]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                if f < policy.limit {
                    Some(f + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    /// Events fired at `site` so far.
    #[must_use]
    pub fn fired(&self, site: ChaosSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Draws made at `site` so far.
    #[must_use]
    pub fn draws(&self, site: ChaosSite) -> u64 {
        self.draws[site.index()].load(Ordering::Relaxed)
    }

    /// The configured injection latency.
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.config.delay
    }

    /// Sleeps for the configured delay if the delay-class `site` fires.
    pub fn maybe_delay(&self, site: ChaosSite) {
        if self.should(site) {
            std::thread::sleep(self.config.delay);
        }
    }

    /// Panics (with a recognizable payload) if the panic-class `site`
    /// fires. Callers must sit under a `catch_unwind` boundary — the
    /// worker pool's per-job one and serve's per-request one both do.
    pub fn maybe_panic(&self, site: ChaosSite) {
        if self.should(site) {
            panic!("chaos: injected {} fault", site.name());
        }
    }

    /// The hook the worker pool runs before each job: a possible latency
    /// spike, then a possible injected panic (inside the pool's per-job
    /// `catch_unwind`).
    pub fn pool_job_hook(&self) {
        self.maybe_delay(ChaosSite::PoolDelay);
        self.maybe_panic(ChaosSite::PoolPanic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        for seed in [1u64, 7, 0xdead_beef] {
            let config = ChaosConfig::quiet(seed)
                .site(ChaosSite::ExecPanic, SitePolicy::with_probability(0.3));
            let a = Chaos::new(config.clone());
            let b = Chaos::new(config);
            let seq_a: Vec<bool> = (0..256).map(|_| a.should(ChaosSite::ExecPanic)).collect();
            let seq_b: Vec<bool> = (0..256).map(|_| b.should(ChaosSite::ExecPanic)).collect();
            assert_eq!(seq_a, seq_b, "seed {seed}");
            let hits = seq_a.iter().filter(|&&h| h).count();
            assert!((20..=140).contains(&hits), "p=0.3 over 256: {hits}");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = Chaos::new(
            ChaosConfig::quiet(1).site(ChaosSite::TornRead, SitePolicy::with_probability(0.5)),
        );
        let b = Chaos::new(
            ChaosConfig::quiet(2).site(ChaosSite::TornRead, SitePolicy::with_probability(0.5)),
        );
        let seq_a: Vec<bool> = (0..128).map(|_| a.should(ChaosSite::TornRead)).collect();
        let seq_b: Vec<bool> = (0..128).map(|_| b.should(ChaosSite::TornRead)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn sites_are_decorrelated() {
        let config = ChaosConfig::quiet(9)
            .site(ChaosSite::ReadStall, SitePolicy::with_probability(0.5))
            .site(ChaosSite::WriteEof, SitePolicy::with_probability(0.5));
        let c = Chaos::new(config);
        let seq_a: Vec<bool> = (0..128).map(|_| c.should(ChaosSite::ReadStall)).collect();
        let seq_b: Vec<bool> = (0..128).map(|_| c.should(ChaosSite::WriteEof)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn limits_cap_total_events() {
        let c = Chaos::new(
            ChaosConfig::quiet(3).site(ChaosSite::ExecPanic, SitePolicy::limited(1.0, 2)),
        );
        let fired: Vec<bool> = (0..10).map(|_| c.should(ChaosSite::ExecPanic)).collect();
        assert_eq!(
            fired,
            [true, true, false, false, false, false, false, false, false, false]
        );
        assert_eq!(c.fired(ChaosSite::ExecPanic), 2);
        assert_eq!(c.draws(ChaosSite::ExecPanic), 10);
    }

    #[test]
    fn off_sites_never_fire() {
        let c = Chaos::new(ChaosConfig::quiet(5));
        assert!((0..64).all(|_| !c.should(ChaosSite::CacheEvict)));
        assert_eq!(c.fired(ChaosSite::CacheEvict), 0);
    }

    #[test]
    fn profile_parsing() {
        let c = ChaosConfig::parse("worker:42").unwrap();
        assert_eq!(c.seed, 42);
        assert!(c.sites[ChaosSite::ExecPanic.index()].probability > 0.0);
        assert_eq!(c.sites[ChaosSite::TornRead.index()], SitePolicy::OFF);
        let c = ChaosConfig::parse("io").unwrap();
        assert_eq!(c.seed, 1);
        assert!(c.sites[ChaosSite::TornRead.index()].probability > 0.0);
        assert!(ChaosConfig::parse("entropy").is_err());
        assert!(ChaosConfig::parse("worker:banana").is_err());
        assert!(ChaosConfig::parse("all:7").is_ok());
        assert!(ChaosConfig::parse("cache").is_ok());
        let c = ChaosConfig::parse("disk:5").unwrap();
        assert_eq!(c.seed, 5);
        assert!(c.sites[ChaosSite::DiskShortWrite.index()].probability > 0.0);
        assert!(c.sites[ChaosSite::DiskBitFlip.index()].probability > 0.0);
        assert_eq!(c.sites[ChaosSite::ExecPanic.index()], SitePolicy::OFF);
    }

    #[test]
    fn all_profile_covers_every_site() {
        let c = ChaosConfig::all_profile(1);
        for site in ChaosSite::ALL {
            assert!(
                c.sites[site.index()].probability > 0.0,
                "site {} missing from the all profile",
                site.name()
            );
        }
    }

    #[test]
    fn maybe_panic_carries_a_recognizable_payload() {
        let c = Chaos::new(
            ChaosConfig::quiet(1).site(ChaosSite::ExecPanic, SitePolicy::limited(1.0, 1)),
        );
        let err = std::panic::catch_unwind(|| c.maybe_panic(ChaosSite::ExecPanic)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("chaos"), "{msg}");
        // Budget exhausted: never panics again.
        c.maybe_panic(ChaosSite::ExecPanic);
    }
}
