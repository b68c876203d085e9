//! The ROBDD node manager: complement edges, an open-addressed unique
//! table, a memoized `ite` kernel, mark-and-sweep garbage collection with
//! external roots, and optional sifting-based dynamic reordering.
//!
//! # Representation
//!
//! A [`BddRef`] packs a node index and a *complement tag*: bit 0 set means
//! the ref denotes the **negation** of the stored node's function. There is
//! a single terminal node (index 0); [`BddRef::TRUE`] is its regular ref
//! and [`BddRef::FALSE`] its complemented ref. Negation is therefore one
//! XOR — no traversal, no new nodes — which is what keeps XOR/NAND-heavy
//! circuits (parity lattices, decomposed benchmarks) from duplicating
//! every negated subgraph.
//!
//! Canonicity with complement edges requires one polarity convention:
//! every stored node keeps its **low edge regular** (never complemented).
//! [`BddManager::check_canonical`] verifies the invariant, and the
//! property suite asserts `not(not(f)) == f` as pointer equality.
//!
//! # Tables
//!
//! The unique table and the operation cache are open-addressed arrays with
//! power-of-two capacities and multiplicative (xxhash-style) mixing of the
//! packed `(var, low, high)` triple. The unique table is exact (linear
//! probing, doubled in place at 80% load, rebuilt tombstone-free after
//! garbage collection); each 8-byte slot carries the node's 32-bit hash
//! beside its index, so a probe reads a node only when the hashes match,
//! and growing the table reads no node at all. The operation cache is
//! *lossy* — one 16-byte entry per slot, overwritten on collision, with
//! the operation folded into the key — holds about one entry per two
//! nodes, and keeps hit/miss counters surfaced through
//! [`BddManager::stats`].
//!
//! # Bytes per live node
//!
//! A node takes 12 bytes, its share of the unique table 10 to 20 (an
//! 8-byte slot at a load between 40 and 80 %), and its share of the op
//! cache about 8. No table is held twice while it grows: the node store
//! and the unique table grow by reallocation (a large block is remapped,
//! not copied), and the cache is released before its larger successor is
//! allocated. So a build that stops at a live-node limit peaks at the
//! tables it ends with, about 38 bytes per live node at a 2M limit
//! (24 MiB of nodes, a 32 MiB unique table, a 16 MiB cache). The cache's
//! size cannot change a result: between collections a miss re-derives a
//! result whose nodes all exist, so node indices, live counts and limit
//! trips are those of any cache size, and only the hit/miss counters
//! move.
//!
//! # Live-node limit
//!
//! [`BddManager::set_live_node_limit`] caps the live node count at node
//! allocation. The first allocation that would pass the limit is refused:
//! the manager is then *exhausted* ([`BddManager::limit_exceeded`]),
//! every operation returns at once with a placeholder, and no further node
//! or cache entry is written, so everything stored before the refusal
//! stays valid and the peak never passes the limit.
//!
//! # Variable order
//!
//! Variables are identified by stable [`Var`] indices; their *levels* are
//! an indirection ([`BddManager::sift`] permutes levels, never `Var`
//! identities), so callers' probability vectors and assignments — always
//! indexed by `Var` — survive dynamic reordering untouched.

use std::fmt;

/// Handle to a BDD function owned by a [`BddManager`].
///
/// Refs pack a node index with a complement tag (bit 0); they are only
/// meaningful relative to the manager that issued them. The two constant
/// functions are [`BddRef::FALSE`] and [`BddRef::TRUE`] — the same
/// terminal node in opposite polarities. Structural equality of functions
/// is equality of refs: `f == g` as functions iff the refs are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BddRef(pub(crate) u32);

impl BddRef {
    /// The constant-true function (the terminal node, regular polarity).
    pub const TRUE: BddRef = BddRef(0);
    /// The constant-false function (the terminal node, complemented).
    pub const FALSE: BddRef = BddRef(1);

    /// Returns `true` if this is one of the two constant functions.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// Returns `true` if this is the constant-true function.
    #[must_use]
    pub fn is_true(self) -> bool {
        self == BddRef::TRUE
    }

    /// Returns `true` if this is the constant-false function.
    #[must_use]
    pub fn is_false(self) -> bool {
        self == BddRef::FALSE
    }

    /// The complement tag: `true` when this ref denotes the negation of
    /// its stored node.
    #[inline]
    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// `¬f` — one bit flip, no manager needed.
    #[inline]
    fn negate(self) -> BddRef {
        BddRef(self.0 ^ 1)
    }

    /// The ref with the complement tag cleared.
    #[inline]
    fn regular(self) -> BddRef {
        BddRef(self.0 & !1)
    }

    /// The index of the stored node this ref points at.
    #[inline]
    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }
}

impl fmt::Debug for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddRef::FALSE => write!(f, "⊥"),
            BddRef::TRUE => write!(f, "⊤"),
            r if r.is_complement() => write!(f, "!b{}", r.index()),
            r => write!(f, "b{}", r.index()),
        }
    }
}

/// Variable index within a manager (stable across reordering; the
/// *level* a variable is decided at is internal state).
pub type Var = u32;

const TERMINAL_VAR: Var = Var::MAX;
const FREE_VAR: Var = Var::MAX - 1;
/// Free-list terminator and empty unique-table slot marker.
const NIL_IDX: u32 = u32::MAX;

const UNIQUE_MIN: usize = 1 << 10;
const CACHE_MIN: usize = 1 << 11;
const CACHE_MAX: usize = 1 << 22;

#[derive(Clone, Copy)]
struct Node {
    var: Var,
    /// Packed [`BddRef`] bits; regular by the canonical-form invariant
    /// (doubles as the next-free link while the node is on the free list).
    low: u32,
    /// Packed [`BddRef`] bits; may be complemented.
    high: u32,
}

/// A unique-table slot: a node index and the node's hash, whose low bits
/// are also its home slot.
#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    /// Node index, or [`NIL_IDX`] for an empty slot.
    idx: u32,
}

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    idx: NIL_IDX,
};

/// An operation-cache entry. The key is `(f, g, h)` for ITE, whose `f` is
/// a regular non-terminal ref (even, at least 2), and `(f | 1, v, value)`
/// for restriction, whose `f` is regular too; `a == 0` marks an empty
/// slot.
#[derive(Clone, Copy)]
struct CacheEntry {
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY_ENTRY: CacheEntry = CacheEntry {
    a: 0,
    b: 0,
    c: 0,
    result: 0,
};

/// What [`BddManager::ite`] and [`BddManager::restrict`] return once the
/// live-node limit has refused an allocation.
const PLACEHOLDER: BddRef = BddRef::FALSE;

/// xxhash-style avalanche over three 64-bit lanes.
#[inline]
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= c.wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

#[inline]
#[allow(clippy::cast_possible_truncation)]
fn node_hash(var: Var, low: u32, high: u32) -> u32 {
    hash3(u64::from(var), u64::from(low), u64::from(high)) as u32
}

/// Engine counters reported by [`BddManager::stats`].
///
/// Several managers' counters fold into one report with
/// [`BddStats::merge`]: counters sum, peaks and load factors take the
/// maximum, so the numbers describe a whole multi-worker run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BddStats {
    /// Nodes currently allocated and reachable-or-not-yet-collected
    /// (terminal excluded; summed over merged managers).
    pub live_nodes: usize,
    /// High-water mark of `live_nodes` in any one manager.
    pub peak_live_nodes: usize,
    /// Worst occupied fraction of any manager's unique table.
    pub unique_load: f64,
    /// Operation-cache lookups that found their entry.
    pub cache_hits: u64,
    /// Operation-cache lookups that missed (or hit an overwritten slot).
    pub cache_misses: u64,
    /// Mark-and-sweep collections run.
    pub gc_runs: u64,
    /// Sifting passes run.
    pub reorders: u64,
}

impl BddStats {
    /// Hit fraction of the operation cache (0 when never consulted).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_hits as f64 / total as f64
            }
        }
    }

    /// Folds another manager's counters into this one: sums the monotonic
    /// counters, maxes the extrema — the right combination for aggregating
    /// per-worker managers into one report.
    pub fn merge(&mut self, other: &BddStats) {
        self.live_nodes += other.live_nodes;
        self.peak_live_nodes = self.peak_live_nodes.max(other.peak_live_nodes);
        self.unique_load = self.unique_load.max(other.unique_load);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.gc_runs += other.gc_runs;
        self.reorders += other.reorders;
    }
}

impl fmt::Display for BddStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "peak live BDD nodes:      {}", self.peak_live_nodes)?;
        writeln!(f, "unique-table load:        {:.3}", self.unique_load)?;
        writeln!(
            f,
            "op-cache hit rate:        {:.3} ({} hits / {} misses)",
            self.cache_hit_rate(),
            self.cache_hits,
            self.cache_misses
        )?;
        writeln!(f, "GC runs:                  {}", self.gc_runs)?;
        write!(f, "reorder passes:           {}", self.reorders)
    }
}

/// A reduced ordered binary decision diagram manager with complement
/// edges.
///
/// All BDDs created through one manager share a variable order and a
/// hash-consed node store, so semantic equality of functions is equality
/// of [`BddRef`]s, and negation ([`BddManager::not`]) is free.
///
/// # Examples
///
/// ```
/// use relogic_bdd::BddManager;
///
/// let mut m = BddManager::new(2);
/// let a = m.var(0);
/// let b = m.var(1);
/// let f = m.and(a, b);
/// let g = m.or(a, b);
/// assert_ne!(f, g);
/// assert!(m.eval(f, &[true, true]));
/// assert!(!m.eval(f, &[true, false]));
/// assert_eq!(m.probability_uniform(g), 0.75);
/// let nf = m.not(f);
/// assert_eq!(m.not(nf), f); // pointer equality, O(1)
/// ```
#[derive(Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    free_head: u32,
    live: usize,
    peak_live: usize,
    /// `level_of[var]` — the level a variable is currently decided at.
    level_of: Vec<u32>,
    /// `var_at[level]` — inverse of `level_of`.
    var_at: Vec<Var>,
    /// Open-addressed unique table: hashed node indices or [`EMPTY_SLOT`].
    unique: Vec<Slot>,
    unique_len: usize,
    /// Lossy operation cache (ite / restrict), overwrite-on-collision.
    cache: Vec<CacheEntry>,
    /// Allocations that would take `live` past this are refused.
    live_limit: usize,
    /// Set once the limit has refused an allocation.
    exhausted: bool,
    /// Most bytes the node store, unique table and op cache have held at
    /// once, a table being replaced included.
    #[cfg(test)]
    table_bytes_peak: usize,
    cache_hits: u64,
    cache_misses: u64,
    gc_runs: u64,
    reorders: u64,
    reorder_trigger: Option<usize>,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("vars", &self.var_at.len())
            .field("live_nodes", &self.live)
            .field("allocated", &self.nodes.len())
            .finish()
    }
}

impl BddManager {
    /// Creates a manager with `var_count` variables (indices
    /// `0..var_count`), each initially at the level equal to its index.
    ///
    #[must_use]
    pub fn new(var_count: usize) -> Self {
        let levels = u32::try_from(var_count).expect("variable count overflow");
        BddManager {
            nodes: vec![Node {
                var: TERMINAL_VAR,
                low: 0,
                high: 0,
            }],
            free_head: NIL_IDX,
            live: 0,
            peak_live: 0,
            level_of: (0..levels).collect(),
            var_at: (0..levels).collect(),
            unique: vec![EMPTY_SLOT; UNIQUE_MIN],
            unique_len: 0,
            cache: vec![EMPTY_ENTRY; CACHE_MIN],
            live_limit: usize::MAX,
            exhausted: false,
            #[cfg(test)]
            table_bytes_peak: 0,
            cache_hits: 0,
            cache_misses: 0,
            gc_runs: 0,
            reorders: 0,
            reorder_trigger: None,
        }
    }

    /// Number of variables in the order.
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.level_of.len()
    }

    /// Moves variable `v` to the top of the order (level 0), shifting the
    /// variables above it down one level.
    ///
    /// Only valid while the manager holds no nodes: the observability
    /// engine uses it to pin its auxiliary splice variable at the top
    /// *before* building any circuit function, which keeps every spliced
    /// cone linear in the base BDD size (an auxiliary at the bottom drags
    /// its dependency through every path instead).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or any node has been created.
    pub fn place_var_at_top(&mut self, v: Var) {
        assert!(
            (v as usize) < self.level_of.len(),
            "variable {v} out of range"
        );
        assert_eq!(
            self.live, 0,
            "the order can only be preset on an empty manager"
        );
        let cur = self.level_of[v as usize] as usize;
        self.var_at.remove(cur);
        self.var_at.insert(0, v);
        for (lvl, &var) in self.var_at.iter().enumerate() {
            self.level_of[var as usize] = u32::try_from(lvl).expect("level fits");
        }
    }

    /// Total number of allocated node slots (terminal and free-listed
    /// slots included); a coarse memory metric. See
    /// [`BddManager::live_node_count`] for the reachable figure.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently allocated and not on the free list (terminal
    /// excluded).
    #[must_use]
    pub fn live_node_count(&self) -> usize {
        self.live
    }

    /// Caps the live node count at `limit` (`usize::MAX` for none) and
    /// clears an earlier refusal.
    ///
    /// Node allocation enforces the cap: the first allocation that would
    /// take the live count past `limit` is refused, and from then on
    /// [`BddManager::limit_exceeded`] is `true` and every operation
    /// returns at once with a meaningless placeholder, allocating nothing
    /// and writing no cache entry. Nodes and cache entries stored before
    /// the refusal stay valid, and the peak live count never passes
    /// `limit`. Sifting is exempt: it always runs to completion.
    pub fn set_live_node_limit(&mut self, limit: usize) {
        self.live_limit = limit;
        self.exhausted = false;
    }

    /// Whether the live-node limit has refused an allocation since it was
    /// last set; if so, every ref returned since then is a placeholder.
    #[must_use]
    pub fn limit_exceeded(&self) -> bool {
        self.exhausted
    }

    /// Engine counters: node census, table load, cache hit/miss, GC and
    /// reorder activity.
    #[must_use]
    pub fn stats(&self) -> BddStats {
        #[allow(clippy::cast_precision_loss)]
        let unique_load = self.unique_len as f64 / self.unique.len() as f64;
        BddStats {
            live_nodes: self.live,
            peak_live_nodes: self.peak_live,
            unique_load,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            gc_runs: self.gc_runs,
            reorders: self.reorders,
        }
    }

    /// Number of nodes reachable from `f` (its BDD size), the terminal
    /// excluded. Complement polarity does not affect size.
    #[must_use]
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.regular()];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r.index()) {
                continue;
            }
            count += 1;
            let n = self.nodes[r.index()];
            stack.push(BddRef(n.low).regular());
            stack.push(BddRef(n.high).regular());
        }
        count
    }

    /// The level a ref's top variable is decided at (`u32::MAX` for
    /// terminals, below every variable).
    #[inline]
    fn level(&self, r: BddRef) -> u32 {
        if r.is_terminal() {
            u32::MAX
        } else {
            self.level_of[self.nodes[r.index()].var as usize]
        }
    }

    /// Low cofactor of `r` as a function (complement tag propagated).
    #[inline]
    fn low_of(&self, r: BddRef) -> BddRef {
        BddRef(self.nodes[r.index()].low ^ (r.0 & 1))
    }

    /// High cofactor of `r` as a function (complement tag propagated).
    #[inline]
    fn high_of(&self, r: BddRef) -> BddRef {
        BddRef(self.nodes[r.index()].high ^ (r.0 & 1))
    }

    // ----- unique table -------------------------------------------------

    /// Whether one more entry would take the unique table to its maximum
    /// load of 80%. (The hash in each slot keeps long probe runs cheap:
    /// a probe reads a node only on a hash match.)
    #[inline]
    fn unique_full(&self) -> bool {
        (self.unique_len + 1) * 5 >= self.unique.len() * 4
    }

    /// Doubles the unique table in place. The grown `Vec` keeps the old
    /// slots in its lower half (a large block grows by remapping, not by
    /// copying), and one pass over them moves every entry to its slot in
    /// the doubled table, so the old and the new table are never resident
    /// at once, and no node is read.
    ///
    /// The pass visits the old slots in a circle that starts after an
    /// empty one, so it walks every probe run from its first slot, lifting
    /// each entry out and re-inserting it from its new home. A re-insertion
    /// probes only slots the pass has visited, so no entry it steps over
    /// moves later: in the lower half it stops at the slot it was lifted
    /// from at the latest, and the upper half cannot fill up to its top
    /// before the pass reaches the entries that wrapped round the old
    /// table's end.
    fn unique_grow(&mut self) {
        let old_cap = self.unique.len();
        let mask = 2 * old_cap - 1;
        self.unique.resize(2 * old_cap, EMPTY_SLOT);
        self.note_table_bytes(0);
        let start = self.unique[..old_cap]
            .iter()
            .position(|s| s.idx == NIL_IDX)
            .expect("a table at most 80% full has an empty slot");
        for k in 1..old_cap {
            let i = (start + k) & (old_cap - 1);
            let s = std::mem::replace(&mut self.unique[i], EMPTY_SLOT);
            if s.idx == NIL_IDX {
                continue;
            }
            let mut j = s.hash as usize & mask;
            while self.unique[j].idx != NIL_IDX {
                j = (j + 1) & mask;
            }
            self.unique[j] = s;
        }
    }

    /// Folds the bytes the three tables hold now, plus `transient` bytes
    /// of a table being replaced, into the peak the unit tests gate on. A
    /// table that grows by reallocation has no transient.
    #[inline]
    fn note_table_bytes(&mut self, transient: usize) {
        #[cfg(test)]
        {
            let held = self.nodes.capacity() * std::mem::size_of::<Node>()
                + self.unique.len() * std::mem::size_of::<Slot>()
                + self.cache.len() * std::mem::size_of::<CacheEntry>();
            self.table_bytes_peak = self.table_bytes_peak.max(held + transient);
        }
        #[cfg(not(test))]
        let _ = transient;
    }

    /// Re-inserts an already-allocated node under its (possibly new)
    /// triple. The triple must not collide with a resident node.
    fn unique_insert(&mut self, idx: u32) {
        if self.unique_full() {
            self.unique_grow();
        }
        let n = self.nodes[idx as usize];
        let hash = node_hash(n.var, n.low, n.high);
        let mask = self.unique.len() - 1;
        let mut i = hash as usize & mask;
        while self.unique[i].idx != NIL_IDX {
            #[cfg(debug_assertions)]
            {
                let o = self.nodes[self.unique[i].idx as usize];
                debug_assert!(
                    o.var != n.var || o.low != n.low || o.high != n.high,
                    "duplicate canonical triple in unique table"
                );
            }
            i = (i + 1) & mask;
        }
        self.unique[i] = Slot { hash, idx };
        self.unique_len += 1;
    }

    /// Removes a node from the unique table by backward-shift deletion
    /// (keeps linear probe chains intact without tombstones).
    fn unique_remove(&mut self, idx: u32) {
        let mask = self.unique.len() - 1;
        let n = self.nodes[idx as usize];
        let mut i = node_hash(n.var, n.low, n.high) as usize & mask;
        while self.unique[i].idx != idx {
            debug_assert!(self.unique[i].idx != NIL_IDX, "node missing from table");
            i = (i + 1) & mask;
        }
        self.unique[i] = EMPTY_SLOT;
        self.unique_len -= 1;
        let mut j = (i + 1) & mask;
        while self.unique[j].idx != NIL_IDX {
            let k = self.unique[j].hash as usize & mask;
            // The entry at j may move into the hole at i iff the hole lies
            // on its probe path from its home slot k.
            if (j.wrapping_sub(k) & mask) >= (j.wrapping_sub(i) & mask) {
                self.unique[i] = self.unique[j];
                self.unique[j] = EMPTY_SLOT;
                i = j;
            }
            j = (j + 1) & mask;
        }
    }

    /// Finds or allocates the node `(var, low, high)` (raw packed edges;
    /// `low` must be regular). Returns the node index and whether it was
    /// freshly allocated, or `None` when the allocation would pass the
    /// live-node limit (the manager is then exhausted).
    fn mk_raw(&mut self, var: Var, low: u32, high: u32) -> Option<(u32, bool)> {
        debug_assert_eq!(low & 1, 0, "canonical form: low edge must be regular");
        let hash = node_hash(var, low, high);
        let mut mask = self.unique.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.unique[i];
            if s.idx == NIL_IDX {
                break;
            }
            if s.hash == hash {
                let n = self.nodes[s.idx as usize];
                if n.var == var && n.low == low && n.high == high {
                    return Some((s.idx, false));
                }
            }
            i = (i + 1) & mask;
        }
        if self.live >= self.live_limit {
            self.exhausted = true;
            return None;
        }
        if self.unique_full() {
            self.unique_grow();
            mask = self.unique.len() - 1;
            i = hash as usize & mask;
            while self.unique[i].idx != NIL_IDX {
                i = (i + 1) & mask;
            }
        }
        let idx = if self.free_head != NIL_IDX {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].low;
            self.nodes[idx as usize] = Node { var, low, high };
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("BDD node count overflow");
            assert!(idx < 1 << 31, "BDD node count overflow");
            let cap = self.nodes.capacity();
            self.nodes.push(Node { var, low, high });
            if self.nodes.capacity() != cap {
                self.note_table_bytes(0);
            }
            idx
        };
        self.unique[i] = Slot { hash, idx };
        self.unique_len += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        Some((idx, true))
    }

    /// Returns the canonical ref for the function `var ? high : low`,
    /// normalizing the complement tags so the stored low edge is regular.
    fn mk(&mut self, var: Var, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        debug_assert!(
            self.level_of[var as usize] < self.level(low)
                && self.level_of[var as usize] < self.level(high),
            "mk: children must sit strictly below the decision variable"
        );
        let c = low.0 & 1;
        match self.mk_raw(var, low.0 ^ c, high.0 ^ c) {
            Some((idx, _)) => BddRef(idx << 1 | c),
            None => PLACEHOLDER,
        }
    }

    // ----- operation cache ----------------------------------------------

    /// Grows the lossy cache to half the node store, rounded up to a power
    /// of two, once the store passes twice its length (never shrinks,
    /// capped at [`CACHE_MAX`] entries). Called at public operation entry
    /// points only — never mid-recursion. The old cache is released before
    /// the new one is allocated.
    ///
    /// Half the node count, rather than one entry per node, saves 16 MiB
    /// of a build that trips at 2M live nodes and costs 3–6 % more misses
    /// on the c499 and c1355 base builds.
    fn maybe_grow_cache(&mut self) {
        if self.cache.len() < CACHE_MAX && self.nodes.len() > 2 * self.cache.len() {
            let want = (self.nodes.len().next_power_of_two() / 2).min(CACHE_MAX);
            if want > self.cache.len() {
                self.cache = Vec::new();
                self.cache = vec![EMPTY_ENTRY; want];
                self.note_table_bytes(0);
            }
        }
    }

    /// Looks `(a, b, c)` up in the operation cache; on a miss, returns the
    /// slot for the [`BddManager::cache_put`] that stores its result.
    #[inline]
    fn cache_get(&mut self, a: u32, b: u32, c: u32) -> Result<BddRef, usize> {
        let i = hash3(u64::from(a), u64::from(b), u64::from(c)) as usize & (self.cache.len() - 1);
        let e = self.cache[i];
        if e.a == a && e.b == b && e.c == c {
            self.cache_hits += 1;
            Ok(BddRef(e.result))
        } else {
            self.cache_misses += 1;
            Err(i)
        }
    }

    /// Stores a result in the slot [`BddManager::cache_get`] returned for
    /// its key; the cache is never resized mid-operation, so the slot is
    /// still the key's.
    #[inline]
    fn cache_put(&mut self, slot: usize, a: u32, b: u32, c: u32, result: u32) {
        self.cache[slot] = CacheEntry { a, b, c, result };
    }

    // ----- construction and Boolean operations --------------------------

    /// The single-variable function `x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: Var) -> BddRef {
        assert!(
            (v as usize) < self.level_of.len(),
            "variable {v} out of range"
        );
        self.mk(v, BddRef::FALSE, BddRef::TRUE)
    }

    /// A constant terminal as a `BddRef`.
    #[must_use]
    pub fn constant(value: bool) -> BddRef {
        if value {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    /// Negation `¬f`: flips the complement tag — `O(1)`, allocation-free.
    #[must_use]
    pub fn not(&self, f: BddRef) -> BddRef {
        let _ = self;
        f.negate()
    }

    /// Conjunction `a ∧ b`.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, b, BddRef::FALSE)
    }

    /// Disjunction `a ∨ b`.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, BddRef::TRUE, b)
    }

    /// Exclusive or `a ⊕ b`.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, b.negate(), b)
    }

    /// Ranking key for standard-triple canonicalization: earlier level
    /// first, node index as the deterministic tie-break.
    #[inline]
    fn rank(&self, r: BddRef) -> u64 {
        (u64::from(self.level(r)) << 32) | r.index() as u64
    }

    /// If-then-else `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)` — the single
    /// memoized kernel every binary operation reduces to.
    ///
    /// Arguments are normalized to a *standard triple* before the cache
    /// lookup (constant/equal-argument reductions, operand swaps that pick
    /// the canonical representative of equivalent calls, and complement
    /// canonicalization so the cached `f` and `g` are always regular), so
    /// e.g. `and(a, b)`, `and(b, a)` and `not(or(¬a, ¬b))` all share one
    /// cache line.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        self.maybe_grow_cache();
        self.ite_rec(f, g, h)
    }

    fn ite_rec(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        if self.exhausted {
            return PLACEHOLDER;
        }
        // Terminal f.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        let (mut f, mut g, mut h) = (f, g, h);
        // Equal/complement argument reductions.
        if f == g {
            g = BddRef::TRUE;
        } else if f == g.negate() {
            g = BddRef::FALSE;
        }
        if f == h {
            h = BddRef::FALSE;
        } else if f == h.negate() {
            h = BddRef::TRUE;
        }
        // Terminal-result cases.
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.negate();
        }
        // Operand swaps: pick the canonical representative among the
        // equivalent formulations so the cache collapses them.
        if g.is_true() {
            // ite(f,1,h) = f ∨ h = ite(h,1,f)
            if self.rank(h) < self.rank(f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if g.is_false() {
            // ite(f,0,h) = ¬f ∧ h = ite(¬h,0,¬f)
            if self.rank(h) < self.rank(f) {
                let nf = f.negate();
                f = h.negate();
                h = nf;
            }
        } else if h.is_false() {
            // ite(f,g,0) = f ∧ g = ite(g,f,0)
            if self.rank(g) < self.rank(f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if h.is_true() {
            // ite(f,g,1) = ¬f ∨ g = ite(¬g,¬f,1)
            if self.rank(g) < self.rank(f) {
                let nf = f.negate();
                f = g.negate();
                g = nf;
            }
        } else if g == h.negate() {
            // ite(f,g,¬g) = f ⊙ g = ite(g,f,¬f)
            if self.rank(g) < self.rank(f) {
                let nf = f.negate();
                std::mem::swap(&mut f, &mut g);
                h = nf;
            }
        }
        // Complement canonicalization: cached f and g are regular.
        if f.is_complement() {
            f = f.negate();
            std::mem::swap(&mut g, &mut h);
        }
        let complement_out = g.is_complement();
        if complement_out {
            g = g.negate();
            h = h.negate();
        }
        let slot = match self.cache_get(f.0, g.0, h.0) {
            Ok(r) => return if complement_out { r.negate() } else { r },
            Err(slot) => slot,
        };
        let v_level = self.level(f).min(self.level(g)).min(self.level(h));
        let v = self.var_at[v_level as usize];
        let (f0, f1) = self.cofactor_at(f, v_level);
        let (g0, g1) = self.cofactor_at(g, v_level);
        let (h0, h1) = self.cofactor_at(h, v_level);
        let low = self.ite_rec(f0, g0, h0);
        let high = self.ite_rec(f1, g1, h1);
        let r = self.mk(v, low, high);
        if self.exhausted {
            return PLACEHOLDER;
        }
        self.cache_put(slot, f.0, g.0, h.0, r.0);
        if complement_out {
            r.negate()
        } else {
            r
        }
    }

    #[inline]
    fn cofactor_at(&self, r: BddRef, v_level: u32) -> (BddRef, BddRef) {
        if !r.is_terminal() && self.level(r) == v_level {
            (self.low_of(r), self.high_of(r))
        } else {
            (r, r)
        }
    }

    /// n-ary conjunction over an iterator of functions (true for empty).
    pub fn and_all(&mut self, fs: impl IntoIterator<Item = BddRef>) -> BddRef {
        fs.into_iter().fold(BddRef::TRUE, |acc, f| self.and(acc, f))
    }

    /// n-ary disjunction over an iterator of functions (false for empty).
    pub fn or_all(&mut self, fs: impl IntoIterator<Item = BddRef>) -> BddRef {
        fs.into_iter().fold(BddRef::FALSE, |acc, f| self.or(acc, f))
    }

    /// Cofactor: `f` with variable `v` fixed to `value`.
    ///
    /// Memoized in the shared operation cache, so repeated restrictions
    /// over a family of related functions (the per-output Boolean
    /// differences of one observability target) share their subgraph work.
    pub fn restrict(&mut self, f: BddRef, v: Var, value: bool) -> BddRef {
        self.maybe_grow_cache();
        let v_level = self.level_of[v as usize];
        self.restrict_rec(f, v, v_level, value)
    }

    fn restrict_rec(&mut self, f: BddRef, v: Var, v_level: u32, value: bool) -> BddRef {
        if self.exhausted {
            return PLACEHOLDER;
        }
        if f.is_terminal() || self.level(f) > v_level {
            return f;
        }
        let c = f.0 & 1;
        let fr = f.regular();
        if self.level(fr) == v_level {
            let r = if value {
                self.high_of(fr)
            } else {
                self.low_of(fr)
            };
            return BddRef(r.0 ^ c);
        }
        // The odd first key word tells restriction from ITE.
        let key = (fr.0 | 1, v, u32::from(value));
        let slot = match self.cache_get(key.0, key.1, key.2) {
            Ok(r) => return BddRef(r.0 ^ c),
            Err(slot) => slot,
        };
        let n = self.nodes[fr.index()];
        let low = self.restrict_rec(BddRef(n.low), v, v_level, value);
        let high = self.restrict_rec(BddRef(n.high), v, v_level, value);
        let r = self.mk(n.var, low, high);
        if self.exhausted {
            return PLACEHOLDER;
        }
        self.cache_put(slot, key.0, key.1, key.2, r.0);
        BddRef(r.0 ^ c)
    }

    /// Boolean difference `∂f/∂v = f|_{v=0} ⊕ f|_{v=1}`: the set of input
    /// assignments where the value of `v` is observable at `f`.
    pub fn boolean_difference(&mut self, f: BddRef, v: Var) -> BddRef {
        let f0 = self.restrict(f, v, false);
        let f1 = self.restrict(f, v, true);
        self.xor(f0, f1)
    }

    /// Evaluates `f` under a full variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable with index `>= assignment.len()`.
    #[must_use]
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut r = f;
        while !r.is_terminal() {
            let n = self.nodes[r.index()];
            let next = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
            // Carry the accumulated complement parity down the path.
            r = BddRef(next ^ (r.0 & 1));
        }
        r.is_true()
    }

    /// Probability that `f` is true when each variable `v` is independently
    /// true with probability `var_probs[v]`.
    ///
    /// Runs a memoized bottom-up sweep over the `O(|f|)` nodes of `f`,
    /// with a fresh memo over the whole node store; many queries on one
    /// manager should share one through [`BddManager::probability_memo`].
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable with index `>= var_probs.len()`.
    #[must_use]
    pub fn probability(&self, f: BddRef, var_probs: &[f64]) -> f64 {
        self.probability_memo(f, var_probs, &mut Vec::new())
    }

    /// Like [`BddManager::probability`] but reusing a caller-provided memo
    /// table, so many related queries (e.g. weight-vector entries) share
    /// work. The memo is indexed by node (it grows to the node store's
    /// size, unset entries NaN); it is only valid for one fixed
    /// `var_probs` and must be cleared after every [`BddManager::gc`] or
    /// sifting pass (both recycle node indices).
    pub fn probability_memo(&self, f: BddRef, var_probs: &[f64], memo: &mut Vec<f64>) -> f64 {
        if memo.len() < self.nodes.len() {
            memo.resize(self.nodes.len(), f64::NAN);
        }
        self.probability_rec(f, var_probs, memo)
    }

    fn probability_rec(&self, f: BddRef, var_probs: &[f64], memo: &mut [f64]) -> f64 {
        if f.is_false() {
            return 0.0;
        }
        if f.is_true() {
            return 1.0;
        }
        let i = f.index();
        let mut p = memo[i];
        if p.is_nan() {
            let n = self.nodes[i];
            let p_hi = self.probability_rec(BddRef(n.high), var_probs, memo);
            let p_lo = self.probability_rec(BddRef(n.low), var_probs, memo);
            let pv = var_probs[n.var as usize];
            p = pv * p_hi + (1.0 - pv) * p_lo;
            memo[i] = p;
        }
        if f.is_complement() {
            1.0 - p
        } else {
            p
        }
    }

    /// Probability that `f` is true under the uniform input distribution.
    #[must_use]
    pub fn probability_uniform(&self, f: BddRef) -> f64 {
        let probs = vec![0.5; self.level_of.len()];
        self.probability(f, &probs)
    }

    /// Number of satisfying assignments of `f` over all `var_count`
    /// variables (as `f64`, exact for up to 2^52 models).
    #[must_use]
    pub fn sat_count(&self, f: BddRef) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let scale = (self.level_of.len() as f64).exp2();
        self.probability_uniform(f) * scale
    }

    // ----- garbage collection -------------------------------------------

    /// Mark-and-sweep collection: every node not reachable from `roots` is
    /// reclaimed onto the free list, the unique table is rebuilt
    /// (tombstone-free), and the operation cache is dropped (its entries
    /// may name reclaimed nodes). Returns the number of nodes freed.
    ///
    /// **Every ref the caller intends to keep using must be covered by
    /// `roots`** (reachability counts: interior nodes of a rooted function
    /// survive). External memo tables keyed by [`BddRef`] must be
    /// discarded afterwards, since collection recycles node indices.
    pub fn gc(&mut self, roots: &[BddRef]) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<usize> = roots
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.index())
            .collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut marked[i], true) {
                continue;
            }
            let n = self.nodes[i];
            stack.push((n.low >> 1) as usize);
            stack.push((n.high >> 1) as usize);
        }
        let mut freed = 0usize;
        for (i, mark) in marked.iter().enumerate().skip(1) {
            if !mark && self.nodes[i].var != FREE_VAR {
                self.nodes[i] = Node {
                    var: FREE_VAR,
                    low: self.free_head,
                    high: 0,
                };
                self.free_head = u32::try_from(i).expect("node index fits");
                freed += 1;
            }
        }
        self.live -= freed;
        self.rebuild_unique();
        self.cache.fill(EMPTY_ENTRY);
        self.gc_runs += 1;
        freed
    }

    /// Rebuilds the unique table from the live node population, resizing
    /// toward twice the live count.
    fn rebuild_unique(&mut self) {
        let want = (self.live * 2).next_power_of_two().max(UNIQUE_MIN);
        let mut slots = vec![EMPTY_SLOT; want];
        self.note_table_bytes(want * std::mem::size_of::<Slot>());
        let mask = want - 1;
        let mut len = 0usize;
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var == FREE_VAR {
                continue;
            }
            let hash = node_hash(n.var, n.low, n.high);
            let mut s = hash as usize & mask;
            while slots[s].idx != NIL_IDX {
                s = (s + 1) & mask;
            }
            slots[s] = Slot {
                hash,
                idx: u32::try_from(i).expect("node index fits"),
            };
            len += 1;
        }
        self.unique = slots;
        self.unique_len = len;
        debug_assert_eq!(len, self.live);
    }

    // ----- dynamic reordering -------------------------------------------

    /// Arms the size-growth trigger: [`BddManager::maybe_reorder`] runs a
    /// sifting pass whenever the live node count exceeds `trigger_nodes`
    /// (after which the trigger re-arms at twice the post-sift size).
    pub fn enable_reordering(&mut self, trigger_nodes: usize) {
        self.reorder_trigger = Some(trigger_nodes.max(256));
    }

    /// Checks the size-growth trigger and sifts if it fired. Must only be
    /// called at a quiescent point — no operation in progress — with
    /// `roots` covering every externally held ref (see [`BddManager::gc`]).
    /// Returns whether a reorder ran.
    pub fn maybe_reorder(&mut self, roots: &[BddRef]) -> bool {
        let Some(trigger) = self.reorder_trigger else {
            return false;
        };
        if self.live <= trigger {
            return false;
        }
        self.sift(roots);
        self.reorder_trigger = Some((self.live * 2).max(trigger));
        true
    }

    /// Sifting-based dynamic reordering (Rudell): each variable is moved
    /// through the order by adjacent-level swaps and left at its best
    /// position, with a growth abort (a variable stops exploring once the
    /// diagram has grown 20% past its pre-sift size).
    ///
    /// Reordering is *function-preserving for every outstanding ref*:
    /// nodes are rewritten in place, so a `BddRef` denotes the same
    /// Boolean function before and after. Variable identities are stable —
    /// only levels move — so probability vectors and assignments indexed
    /// by [`Var`] stay valid. Like [`BddManager::gc`] (which this runs
    /// first), `roots` must cover every ref the caller keeps, and external
    /// memo tables must be discarded afterwards.
    pub fn sift(&mut self, roots: &[BddRef]) {
        self.gc(roots);
        let nvars = self.var_at.len();
        if nvars < 2 || self.live == 0 {
            return;
        }
        // Per-variable node lists and exact reference counts (edges from
        // live nodes plus the caller's roots), maintained across swaps so
        // the live size signal stays exact and orphans free eagerly.
        let mut by_var: Vec<Vec<u32>> = vec![Vec::new(); nvars];
        let mut rc: Vec<u32> = vec![0; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var == FREE_VAR {
                continue;
            }
            by_var[n.var as usize].push(u32::try_from(i).expect("node index fits"));
            rc[(n.low >> 1) as usize] += 1;
            rc[(n.high >> 1) as usize] += 1;
        }
        for r in roots {
            rc[r.index()] += 1;
        }
        // Nodes freed mid-sift are quarantined until the pass ends so the
        // free list never recycles an index into a stale list entry.
        let mut pending_free: Vec<u32> = Vec::new();
        let mut vars: Vec<Var> = (0..nvars)
            .filter(|&v| !by_var[v].is_empty())
            .map(|v| Var::try_from(v).expect("var index fits"))
            .collect();
        vars.sort_by_key(|&v| std::cmp::Reverse(by_var[v as usize].len()));
        // A swap may grow the diagram before it shrinks it, so the
        // live-node limit does not apply here.
        let live_limit = std::mem::replace(&mut self.live_limit, usize::MAX);
        for v in vars {
            let limit = self.live + self.live / 5 + 16;
            self.sift_one(v, &mut by_var, &mut rc, &mut pending_free, limit);
        }
        self.live_limit = live_limit;
        for idx in pending_free {
            debug_assert_eq!(self.nodes[idx as usize].var, FREE_VAR);
            self.nodes[idx as usize].low = self.free_head;
            self.free_head = idx;
        }
        self.cache.fill(EMPTY_ENTRY);
        self.reorders += 1;
    }

    /// Number of sifting passes run so far.
    #[must_use]
    pub fn reorder_count(&self) -> u64 {
        self.reorders
    }

    fn sift_one(
        &mut self,
        v: Var,
        by_var: &mut [Vec<u32>],
        rc: &mut Vec<u32>,
        pending: &mut Vec<u32>,
        limit: usize,
    ) {
        let nlevels = self.var_at.len();
        let start = self.level_of[v as usize] as usize;
        let mut cur = start;
        let mut best = start;
        let mut best_size = self.live;
        // Explore downward.
        while cur + 1 < nlevels {
            self.swap_adjacent(cur, by_var, rc, pending);
            cur += 1;
            if self.live < best_size {
                best_size = self.live;
                best = cur;
            }
            if self.live > limit {
                break;
            }
        }
        // Explore upward (back through the start position to the top).
        while cur > 0 {
            self.swap_adjacent(cur - 1, by_var, rc, pending);
            cur -= 1;
            if self.live < best_size {
                best_size = self.live;
                best = cur;
            }
            if self.live > limit {
                break;
            }
        }
        // Settle at the best position seen.
        while cur < best {
            self.swap_adjacent(cur, by_var, rc, pending);
            cur += 1;
        }
        while cur > best {
            self.swap_adjacent(cur - 1, by_var, rc, pending);
            cur -= 1;
        }
    }

    /// Swaps the variables at levels `upper` and `upper + 1`.
    ///
    /// Nodes at the upper level with a child at the lower level are
    /// rewritten **in place** (same index, same function, new decision
    /// variable), so every outstanding ref — internal or external —
    /// remains valid. Upper-level nodes without a lower-level child are
    /// untouched; lower-level nodes never move.
    fn swap_adjacent(
        &mut self,
        upper: usize,
        by_var: &mut [Vec<u32>],
        rc: &mut Vec<u32>,
        pending: &mut Vec<u32>,
    ) {
        let a = self.var_at[upper];
        let b = self.var_at[upper + 1];
        // Commit the new order first so node construction below sees
        // post-swap levels.
        self.var_at[upper] = b;
        self.var_at[upper + 1] = a;
        self.level_of[a as usize] = u32::try_from(upper + 1).expect("level fits");
        self.level_of[b as usize] = u32::try_from(upper).expect("level fits");

        let a_list = std::mem::take(&mut by_var[a as usize]);
        let mut keep = Vec::with_capacity(a_list.len());
        let mut rewrite = Vec::new();
        for idx in a_list {
            let n = self.nodes[idx as usize];
            if n.var != a {
                continue; // freed (or recycled under another variable)
            }
            let lo_var = self.nodes[(n.low >> 1) as usize].var;
            let hi_var = self.nodes[(n.high >> 1) as usize].var;
            if lo_var == b || hi_var == b {
                rewrite.push(idx);
            } else {
                keep.push(idx);
            }
        }
        by_var[a as usize] = keep;
        // The rewritten nodes change their triples: pull them out of the
        // unique table up front so in-swap construction can never resolve
        // to a stale key.
        for &idx in &rewrite {
            self.unique_remove(idx);
        }
        for idx in rewrite {
            let n = self.nodes[idx as usize];
            let f0 = BddRef(n.low);
            let f1 = BddRef(n.high);
            let (f00, f01) = if self.nodes[f0.index()].var == b {
                (self.low_of(f0), self.high_of(f0))
            } else {
                (f0, f0)
            };
            let (f10, f11) = if self.nodes[f1.index()].var == b {
                (self.low_of(f1), self.high_of(f1))
            } else {
                (f1, f1)
            };
            let new_low = self.sift_mk(a, f00, f10, by_var, rc);
            let new_high = self.sift_mk(a, f01, f11, by_var, rc);
            // The fresh low child is built from regular cofactors, so the
            // in-place rewrite never needs to flip this node's polarity.
            debug_assert!(!new_low.is_complement());
            self.nodes[idx as usize] = Node {
                var: b,
                low: new_low.0,
                high: new_high.0,
            };
            self.unique_insert(idx);
            by_var[b as usize].push(idx);
            self.sift_deref(f0, rc, pending);
            self.sift_deref(f1, rc, pending);
        }
    }

    /// `mk` variant for use inside a swap: maintains reference counts and
    /// the per-variable lists, and returns with one reference charged to
    /// the caller.
    fn sift_mk(
        &mut self,
        var: Var,
        low: BddRef,
        high: BddRef,
        by_var: &mut [Vec<u32>],
        rc: &mut Vec<u32>,
    ) -> BddRef {
        if low == high {
            rc[low.index()] += 1;
            return low;
        }
        let (l, h, c) = if low.is_complement() {
            (low.negate(), high.negate(), 1)
        } else {
            (low, high, 0)
        };
        let (idx, inserted) = self
            .mk_raw(var, l.0, h.0)
            .expect("sifting runs without a live-node limit");
        if inserted {
            if idx as usize >= rc.len() {
                rc.resize(self.nodes.len(), 0);
            }
            rc[idx as usize] = 0;
            rc[(l.0 >> 1) as usize] += 1;
            rc[(h.0 >> 1) as usize] += 1;
            by_var[var as usize].push(idx);
        }
        rc[idx as usize] += 1;
        BddRef(idx << 1 | c)
    }

    /// Releases one reference to `r`, freeing (and cascading through) any
    /// node whose count reaches zero. Freed indices go to `pending`, not
    /// the free list — see [`BddManager::sift`].
    fn sift_deref(&mut self, r: BddRef, rc: &mut [u32], pending: &mut Vec<u32>) {
        let mut stack = vec![r];
        while let Some(r) = stack.pop() {
            let i = r.index();
            debug_assert!(rc[i] > 0, "reference count underflow");
            rc[i] -= 1;
            if i == 0 || rc[i] > 0 {
                continue;
            }
            let n = self.nodes[i];
            self.unique_remove(u32::try_from(i).expect("node index fits"));
            self.nodes[i].var = FREE_VAR;
            self.live -= 1;
            pending.push(u32::try_from(i).expect("node index fits"));
            stack.push(BddRef(n.low));
            stack.push(BddRef(n.high));
        }
    }

    // ----- invariants ---------------------------------------------------

    /// Verifies the manager's structural invariants: every stored low edge
    /// is regular, no redundant (`low == high`) nodes exist, children sit
    /// strictly below their parent's level, and the unique table exactly
    /// indexes the live population.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_canonical(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var == FREE_VAR {
                continue;
            }
            if n.var == TERMINAL_VAR {
                return Err(format!("node {i}: stray terminal marker"));
            }
            if n.low & 1 == 1 {
                return Err(format!("node {i}: complemented low edge"));
            }
            if n.low == n.high {
                return Err(format!("node {i}: redundant node (low == high)"));
            }
            let lvl = self.level_of[n.var as usize];
            for (edge, name) in [(n.low, "low"), (n.high, "high")] {
                let child = BddRef(edge);
                if !child.is_terminal() {
                    let cn = self.nodes[child.index()];
                    if cn.var == FREE_VAR {
                        return Err(format!("node {i}: {name} edge into freed node"));
                    }
                    if self.level_of[cn.var as usize] <= lvl {
                        return Err(format!("node {i}: {name} edge violates the order"));
                    }
                }
            }
            // The node must be findable under its own triple.
            let mask = self.unique.len() - 1;
            let hash = node_hash(n.var, n.low, n.high);
            let mut s = hash as usize & mask;
            loop {
                let slot = self.unique[s];
                if slot.idx == NIL_IDX {
                    return Err(format!("node {i}: missing from the unique table"));
                }
                if slot.idx as usize == i {
                    if slot.hash != hash {
                        return Err(format!("node {i}: stale hash in the unique table"));
                    }
                    break;
                }
                s = (s + 1) & mask;
            }
        }
        if self.unique_len != self.live {
            return Err(format!(
                "unique table holds {} entries for {} live nodes",
                self.unique_len, self.live
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var() -> (BddManager, BddRef, BddRef) {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        (m, a, b)
    }

    #[test]
    fn hash_consing_gives_canonical_forms() {
        let (mut m, a, b) = two_var();
        let f1 = m.and(a, b);
        let f2 = m.and(b, a);
        assert_eq!(f1, f2);
        let n1 = m.not(f1);
        let nand_direct = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(n1, nand_direct); // De Morgan, structurally
        m.check_canonical().unwrap();
    }

    #[test]
    fn terminals_and_constants() {
        assert!(BddRef::TRUE.is_true());
        assert!(BddRef::FALSE.is_false());
        assert_eq!(BddManager::constant(true), BddRef::TRUE);
        let (mut m, a, _) = two_var();
        assert_eq!(m.and(a, BddRef::FALSE), BddRef::FALSE);
        assert_eq!(m.and(a, BddRef::TRUE), a);
        assert_eq!(m.or(a, BddRef::TRUE), BddRef::TRUE);
        assert_eq!(m.xor(a, BddRef::FALSE), a);
        let na = m.not(a);
        assert_eq!(m.xor(a, BddRef::TRUE), na);
    }

    #[test]
    fn negation_is_constant_time_and_involutive() {
        let (mut m, a, b) = two_var();
        let f = m.xor(a, b);
        let before = m.node_count();
        let nf = m.not(f);
        assert_eq!(m.node_count(), before, "not must not allocate");
        assert_eq!(m.not(nf), f);
        assert_ne!(nf, f);
    }

    #[test]
    fn eval_matches_semantics() {
        let (mut m, a, b) = two_var();
        let f = m.xor(a, b);
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(m.eval(f, &[true, false]));
        assert!(!m.eval(f, &[true, true]));
    }

    #[test]
    fn ite_identities() {
        let (mut m, a, b) = two_var();
        let f = m.ite(a, b, BddRef::FALSE);
        let g = m.and(a, b);
        assert_eq!(f, g);
        let na = m.not(a);
        assert_eq!(m.ite(a, BddRef::FALSE, BddRef::TRUE), na);
        assert_eq!(m.ite(a, BddRef::TRUE, BddRef::FALSE), a);
        assert_eq!(m.ite(BddRef::TRUE, a, b), a);
        assert_eq!(m.ite(BddRef::FALSE, a, b), b);
        assert_eq!(m.ite(b, a, a), a);
    }

    #[test]
    fn ite_standard_triples_share_cache_lines() {
        let (mut m, a, b) = two_var();
        // Build once; the algebraically equal forms must all resolve to
        // the same ref without growing the node store.
        let f1 = m.and(a, b);
        let nodes_after_first = m.node_count();
        let f2 = {
            let na = m.not(a);
            let nb = m.not(b);
            let o = m.or(na, nb);
            m.not(o)
        };
        assert_eq!(f1, f2);
        assert_eq!(m.node_count(), nodes_after_first);
        let nb = m.not(b);
        let x1 = m.xor(a, b);
        let x2 = m.xor(b, a);
        let x3 = m.ite(a, nb, b);
        assert_eq!(x1, x2);
        assert_eq!(x1, x3);
        let stats = m.stats();
        assert!(stats.cache_hits > 0, "normalization should yield hits");
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, a, b) = two_var();
        let f = m.and(a, b);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), BddRef::FALSE);
        assert_eq!(m.restrict(f, 1, true), a);
        // restricting a variable not in support is identity
        let g = m.var(0);
        assert_eq!(m.restrict(g, 1, true), g);
        // restrict distributes over complement
        let nf = m.not(f);
        let r = m.restrict(nf, 0, true);
        let nb = m.not(b);
        assert_eq!(r, nb);
    }

    #[test]
    fn boolean_difference_detects_observability() {
        let (mut m, a, b) = two_var();
        let f = m.and(a, b);
        // a is observable iff b=1
        assert_eq!(m.boolean_difference(f, 0), b);
        let g = m.xor(a, b);
        // xor always observes both inputs
        assert_eq!(m.boolean_difference(g, 0), BddRef::TRUE);
    }

    #[test]
    fn probability_weighted_and_uniform() {
        let (mut m, a, b) = two_var();
        let f = m.and(a, b);
        assert!((m.probability(f, &[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((m.probability(f, &[0.1, 0.9]) - 0.09).abs() < 1e-12);
        let g = m.or(a, b);
        assert!((m.probability(g, &[0.1, 0.9]) - (1.0 - 0.9 * 0.1)).abs() < 1e-12);
        assert_eq!(m.sat_count(f), 1.0);
        assert_eq!(m.sat_count(g), 3.0);
    }

    #[test]
    fn size_exploits_complement_sharing() {
        let (mut m, a, b) = two_var();
        let f = m.xor(a, b);
        // With complement edges an xor is one decision node per variable:
        // the two b-children are the same node in opposite polarity.
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(BddRef::TRUE), 0);
        let nf = m.not(f);
        assert_eq!(m.size(nf), m.size(f));
    }

    #[test]
    fn place_var_at_top_reorders_levels() {
        let mut m = BddManager::new(3);
        m.place_var_at_top(2);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        // c sits at the top now, so it is the decision variable of f.
        assert_eq!(m.nodes[f.index()].var, 2);
        assert_eq!(m.level(f), 0);
        assert!(m.eval(f, &[true, false, true]));
        assert!(!m.eval(f, &[true, false, false]));
        m.check_canonical().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(1);
        let _ = m.var(3);
    }

    #[test]
    fn three_variable_majority() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let t = m.or(ab, ac);
        let maj = m.or(t, bc);
        assert_eq!(m.sat_count(maj), 4.0);
        for p in 0..8u32 {
            let asg: Vec<bool> = (0..3).map(|j| p >> j & 1 != 0).collect();
            let expect = asg.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(m.eval(maj, &asg), expect);
        }
        m.check_canonical().unwrap();
    }

    #[test]
    fn live_node_limit_refuses_the_first_node_past_it() {
        let mut m = BddManager::new(4);
        let vs: Vec<BddRef> = (0..4).map(|v| m.var(v)).collect();
        let ab = m.and(vs[0], vs[1]);
        let live = m.live_node_count();
        m.set_live_node_limit(live);
        // Nodes that exist are still found at the limit.
        assert_eq!(m.and(vs[1], vs[0]), ab);
        assert_eq!(m.var(2), vs[2]);
        assert!(!m.limit_exceeded());
        // The first new node is refused.
        let _ = m.or(vs[2], vs[3]);
        assert!(m.limit_exceeded());
        assert_eq!(m.live_node_count(), live);
        assert_eq!(m.stats().peak_live_nodes, live);
        // Once refused, operations return at once: no lookup, no node.
        let before = m.stats();
        let _ = m.xor(vs[0], vs[3]);
        let _ = m.restrict(ab, 0, true);
        assert_eq!(m.stats(), before);
        m.check_canonical().unwrap();
        // Lifting the limit leaves a whole manager: no placeholder was
        // cached for the refused operation.
        m.set_live_node_limit(usize::MAX);
        assert!(!m.limit_exceeded());
        let o = m.or(vs[2], vs[3]);
        assert!(m.eval(o, &[false, false, false, true]));
        assert!(!m.eval(o, &[true, true, false, false]));
        assert_eq!(m.live_node_count(), live + 1);
        m.check_canonical().unwrap();
    }

    #[test]
    fn probability_memo_is_node_indexed_and_reusable() {
        let (mut m, a, b) = two_var();
        let f = m.and(a, b);
        let g = m.or(a, b);
        let probs = [0.1, 0.9];
        let mut memo = Vec::new();
        let pf = m.probability_memo(f, &probs, &mut memo);
        assert_eq!(memo.len(), m.node_count());
        let pg = m.probability_memo(g, &probs, &mut memo);
        assert!((pf - 0.09).abs() < 1e-12);
        assert!((pg - (1.0 - 0.9 * 0.1)).abs() < 1e-12);
        let nf = m.not(f);
        assert!((m.probability_memo(nf, &probs, &mut memo) - (1.0 - pf)).abs() < 1e-12);
    }

    #[test]
    fn gc_reclaims_garbage_and_keeps_roots() {
        let mut m = BddManager::new(4);
        let vs: Vec<BddRef> = (0..4).map(|v| m.var(v)).collect();
        let keep = {
            let t = m.and(vs[0], vs[1]);
            m.or(t, vs[2])
        };
        // Build garbage: a chain of xors never rooted.
        let mut junk = vs[3];
        for &v in &vs {
            junk = m.xor(junk, v);
        }
        let live_before = m.live_node_count();
        // Root the kept function plus the variable nodes the test keeps
        // using (a single-variable BDD is its own node, not necessarily a
        // subgraph of `keep`).
        let freed = m.gc(&[keep, vs[0], vs[1], vs[2]]);
        assert!(freed > 0, "unrooted xor chain must be collected");
        assert_eq!(m.live_node_count(), live_before - freed);
        m.check_canonical().unwrap();
        // The kept function still evaluates correctly...
        assert!(m.eval(keep, &[true, true, false, false]));
        assert!(!m.eval(keep, &[true, false, false, false]));
        // ...and hash consing still resolves to the same node.
        let t = m.and(vs[0], vs[1]);
        let again = m.or(t, vs[2]);
        assert_eq!(again, keep);
        assert_eq!(m.stats().gc_runs, 1);
    }

    #[test]
    fn gc_recycles_indices_through_the_free_list() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let junk = m.and(a, b);
        let allocated = m.node_count();
        let _ = junk;
        let freed = m.gc(&[a, b]);
        assert_eq!(freed, 1);
        // A new node must reuse the freed slot, not grow the store.
        let c = m.var(2);
        assert_eq!(m.node_count(), allocated);
        let _ = m.and(a, c);
        m.check_canonical().unwrap();
    }

    #[test]
    fn stats_track_cache_and_peak() {
        let mut m = BddManager::new(6);
        let vs: Vec<BddRef> = (0..6).map(|v| m.var(v)).collect();
        let mut f = BddRef::FALSE;
        for &v in &vs {
            f = m.xor(f, v);
        }
        let s = m.stats();
        assert!(s.live_nodes > 0);
        assert!(s.peak_live_nodes >= s.live_nodes);
        assert!(s.unique_load > 0.0 && s.unique_load < 1.0);
        assert!(s.cache_misses > 0);
        let mut merged = BddStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.cache_misses, 2 * s.cache_misses);
        assert_eq!(merged.peak_live_nodes, s.peak_live_nodes);
        assert!(merged.cache_hit_rate() >= 0.0);
    }

    #[test]
    fn in_place_doubling_keeps_every_entry_findable() {
        // Synthetic slots at up to 80% load, with home slots crowded at
        // the top so that probe runs wrap in the old table and re-inserted
        // entries wrap in the doubled one.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            hash3(state, 0, 0)
        };
        for trial in 0..500_u32 {
            let cap = 16usize << (trial % 3);
            let mut m = BddManager::new(1);
            m.unique = vec![EMPTY_SLOT; cap];
            let fill = cap * 4 / 5 - (trial as usize % 5);
            for idx in 0..fill {
                let r = next();
                #[allow(clippy::cast_possible_truncation)]
                let hash = if r % 2 == 0 {
                    // Home in the top eighth of both the old and the
                    // doubled table.
                    (r >> 32) as u32 | (cap as u32 * 2 - cap as u32 / 8)
                } else {
                    (r >> 32) as u32
                };
                let mut i = hash as usize & (cap - 1);
                while m.unique[i].idx != NIL_IDX {
                    i = (i + 1) & (cap - 1);
                }
                m.unique[i] = Slot {
                    hash,
                    idx: u32::try_from(idx).unwrap(),
                };
            }
            m.unique_grow();
            let mask = 2 * cap - 1;
            let mut found = 0;
            for s in m.unique.iter().filter(|s| s.idx != NIL_IDX) {
                let mut i = s.hash as usize & mask;
                while m.unique[i].idx != s.idx {
                    assert_ne!(m.unique[i].idx, NIL_IDX, "trial {trial}: lost {}", s.idx);
                    i = (i + 1) & mask;
                }
                found += 1;
            }
            assert_eq!(found, fill, "trial {trial}");
        }
    }

    #[test]
    fn a_tripped_build_holds_at_most_40_bytes_per_live_node() {
        // 2M / 16: the tables stand to this limit as to the estimate
        // tier's 2M budget, and the unique table doubles on the way.
        let budget = 125_000;
        let circuit = relogic_gen::suite::build("c1908").unwrap();
        let order = crate::VarOrder::dfs(&circuit);
        let mut m = BddManager::new(order.len());
        let built = crate::CircuitBdds::try_build(&mut m, &circuit, &order, budget, &mut || false);
        assert!(matches!(built, Err(crate::BuildInterrupt::Budget(_))));
        assert_eq!(m.stats().peak_live_nodes, budget);
        let peak = m.table_bytes_peak;
        assert!(
            peak <= 40 * budget,
            "{peak} table bytes at the peak: {} per live node",
            peak / budget
        );
    }

    #[test]
    fn sift_preserves_functions_and_canonicity() {
        let mut m = BddManager::new(6);
        let vs: Vec<BddRef> = (0..6).map(|v| m.var(v)).collect();
        // An order-sensitive function: (v0&v3) | (v1&v4) | (v2&v5) is
        // exponential in the interleaved order, linear when paired.
        let t0 = m.and(vs[0], vs[3]);
        let t1 = m.and(vs[1], vs[4]);
        let t2 = m.and(vs[2], vs[5]);
        let o = m.or(t0, t1);
        let f = m.or(o, t2);
        let size_before = m.size(f);
        let truth: Vec<bool> = (0..64u32)
            .map(|p| {
                let asg: Vec<bool> = (0..6).map(|j| p >> j & 1 != 0).collect();
                m.eval(f, &asg)
            })
            .collect();
        m.sift(&[f]);
        m.check_canonical().unwrap();
        assert!(m.size(f) <= size_before, "sift must not grow the root");
        for (p, &expect) in truth.iter().enumerate() {
            let asg: Vec<bool> = (0..6).map(|j| p >> j & 1 != 0).collect();
            assert_eq!(m.eval(f, &asg), expect, "pattern {p:06b}");
        }
        assert_eq!(m.reorder_count(), 1);
        // Probabilities stay indexed by Var, not level.
        assert!((m.probability_uniform(f) - m.sat_count(f) / 64.0).abs() < 1e-12);
    }

    #[test]
    fn reorder_trigger_fires_and_rearms() {
        let mut m = BddManager::new(8);
        m.enable_reordering(256);
        let vs: Vec<BddRef> = (0..8).map(|v| m.var(v)).collect();
        // Interleaved achilles-heel function to force growth.
        let t0 = m.and(vs[0], vs[4]);
        let t1 = m.and(vs[1], vs[5]);
        let t2 = m.and(vs[2], vs[6]);
        let t3 = m.and(vs[3], vs[7]);
        let o0 = m.or(t0, t1);
        let o1 = m.or(o0, t2);
        let f = m.or(o1, t3);
        assert!(!m.maybe_reorder(&[f]), "small diagrams must not trigger");
        // Force the trigger artificially low and confirm it runs and
        // re-arms above the post-sift size.
        m.enable_reordering(256);
        let mut g = BddRef::FALSE;
        for i in 0..8 {
            for j in (i + 1)..8 {
                let t = m.and(vs[i], vs[j]);
                g = m.xor(g, t);
            }
        }
        let fired = m.maybe_reorder(&[f, g]);
        let expected = m.live_node_count() > 256;
        assert_eq!(fired, expected);
        m.check_canonical().unwrap();
    }
}
