//! The FastTrack dynamic race-detection algorithm (Flanagan & Freund,
//! PLDI 2009), as used by ThreadSanitizer-style runtimes.
//!
//! The detector is event-driven and VM-agnostic: the host runtime feeds
//! it reads/writes (with compact interned stacks) and happens-before
//! edges (fork, mutex acquire/release, merge-release for wait-groups,
//! sequentially-consistent atomic edges, and raw clock snapshot/join for
//! per-message channel synchronisation). Races are recorded — never
//! thrown — so a run reports every distinct race it observes, matching
//! the Go race detector's behaviour.
//!
//! # Hot path
//!
//! FastTrack's defining observation is that the overwhelming majority of
//! accesses repeat within the owning thread's current epoch and need no
//! vector-clock work at all. The detector therefore exposes a two-phase
//! API so the *host* can skip its own per-access bookkeeping too:
//!
//! 1. [`Detector::read_fast`] / [`Detector::write_fast`] perform the
//!    same-epoch check without needing a call stack — when they return
//!    [`FastPath::EpochHit`] the event is fully processed and the host
//!    never has to materialise a stack snapshot;
//! 2. on a miss, the host builds the stack and calls
//!    [`Detector::read_slow`] / [`Detector::write_slow`], which run the
//!    full FastTrack transfer function.
//!
//! # Lock-aware sync-epoch cache
//!
//! Sync-heavy programs defeat the same-epoch check by construction:
//! every lock release advances the owner's epoch, so a counter loop
//! (`mu.Lock(); n++; mu.Unlock()`) misses on every iteration even
//! though nothing about the variable's ownership changed. Two O(1)
//! caches close that gap without changing any observable behaviour:
//!
//! - **Per-variable owner cache** (the fast functions' *second
//!   chance*): each access record remembers the [`StackGen`] — an
//!   opaque host token identifying the acting thread's exact call
//!   stack — under which the last slow-path transfer stored it. When
//!   the same thread re-accesses a variable it exclusively owns (write
//!   epoch and read state both its own) at an unchanged stack
//!   generation, the full transfer function provably reduces to
//!   bumping the stored epoch: no race is reachable, and the stored
//!   access record (stack, thread, kind) is already byte-identical to
//!   what the slow path would write. The fast functions apply that
//!   reduced update in place and return [`FastPath::CacheHit`] — the
//!   host skips the snapshot *and* the detector skips the transfer.
//! - **Per-sync release epoch** (FastTrack's O(1) acquire):
//!   [`Detector::release`] stores, next to the released clock, the
//!   epoch `c@t` of the releasing thread. A later
//!   [`Detector::acquire`] whose thread already knows `c@t` (one
//!   component compare) must already contain the whole stored clock,
//!   so the O(width) join is skipped. Merge-releases invalidate the
//!   epoch (several releasers — no single epoch summarises the join).
//!
//! Both caches are *physical* optimisations: the [`DetStats`] counters
//! keep their logical meaning (a short-circuited acquire still counts
//! its `clock_joins`), so counter baselines stay bit-identical across
//! cache on/off — the savings surface in the dedicated
//! `read_sync_hits` / `write_sync_hits` / `sync_epoch_hits` counters
//! and in wall-clock. [`Detector::set_sync_cache`] turns the caches
//! off for differential testing.
//!
//! [`Detector::read`] / [`Detector::write`] remain as the combined
//! single-call form (they pass [`StackGen::NONE`], which never
//! cache-hits). Variable states live in a dense array indexed by
//! address (the host allocates cells densely), sync/dedup maps use a
//! fast deterministic hasher, and every clock operation either joins in
//! place or reuses an existing buffer — [`Detector::stats`] counts the
//! events, fast-path hits, joins, clock allocations and the allocations
//! those reuses avoided, and the counters are exactly reproducible for
//! a given event sequence (the CI perf gate diffs them against a
//! checked-in baseline).
//!
//! # Shadow-state lifecycle (streaming detection)
//!
//! Long-lived programs would grow the shadow state without bound:
//! variable states accumulate per address and the vector-clock width
//! grows per goroutine ever spawned. Three mechanisms bound it, the
//! first two *physical* — turning them on or off never changes race
//! reports or any logical [`DetStats`] counter (the same transparency
//! discipline as the sync caches; the savings land in
//! [`ShadowStats`]):
//!
//! - **Epoch-based GC** ([`Detector::collect`]): the host supplies a
//!   retirement frontier — a clock ≤ every live thread's clock, so ≤
//!   every future event's clock (use [`Detector::live_frontier`]).
//!   Every variable state *strictly* below the frontier is provably
//!   unable to ever race again *or* to produce a same-epoch fast hit,
//!   so it is reset in place and its buffers are freed. Read-shared
//!   states are cleared but keep their `Shared` shape (an epoch-shaped
//!   resurrection would re-enable the same-epoch fast path and drift
//!   the counters). Dense states live in fixed-size pages that are
//!   freed when fully vacant, so shadow memory tracks *live* states,
//!   not the highest address ever touched.
//! - **Clock-width reclamation** ([`Detector::thread_exit`]): an
//!   exiting thread's final clock is joined into a retired-clock
//!   accumulator and its clock *slot* is freed. A later
//!   [`Detector::fork`] reuses the slot only when the exited final
//!   clock ≤ the parent's clock — i.e. the exit happens-before the new
//!   thread's start — which keeps every stale epoch `c@slot` correct:
//!   any thread that appears to know `c` via the slot's new occupant
//!   provably synchronised through the fork point, hence after the
//!   exit. External [`ThreadId`]s stay dense and are never reused; the
//!   slot indirection is invisible to hosts.

use crate::clock::{Epoch, ThreadId, VectorClock};
use crate::report::{AccessKind, Fnv1a};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Abstract address of a monitored memory cell.
pub type Addr = u64;

/// Interned id of a variable name (resolved by the host VM).
pub type NameId = u32;

/// Interned id of a stack frame (resolved by the host VM).
pub type FrameId = u32;

/// Addresses below this bound get dense (page-indexed) variable state;
/// anything above falls back to a hash map. Hosts that allocate cells
/// densely from zero — `govm` does — never touch the map.
/// Unit tests lower the bound (`Detector::with_dense_limit`) to exercise
/// the crossover without growing a multi-million-entry array.
pub const DENSE_LIMIT: usize = 1 << 22;

/// Dense variable states per page (pages are allocated on first touch
/// and freed by [`Detector::collect`] when fully vacant, so dense
/// shadow memory tracks live states, not the highest address).
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Sized so that first-touch of a page (allocate + default-init) stays
/// in the noise for short corpus runs — a `VarState` is >100 bytes, so
/// 4096-entry pages cost ~0.5 MB of zeroing per touch, which dominated
/// small-program campaigns (measured ~4× on the exposure corpus).
/// 64 entries keeps a page under 10 KB — first-touch beats even the
/// pre-paging flat array's grow-to-max-address resize — and makes
/// page-level GC granularity finer for the churn regime.
const PAGE_BITS: usize = 6;

/// Physical shadow-state lifecycle counters.
///
/// Deliberately separate from [`DetStats`]: these move when GC or slot
/// reclamation engage, while every `DetStats` field keeps its logical
/// meaning and stays bit-identical across lifecycle on/off.
/// Deterministic for a given event sequence, like everything
/// the perf gate compares.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStats {
    /// Variable states retired by [`Detector::collect`] (epoch-shaped
    /// resets plus shared-state clears).
    pub states_collected: u64,
    /// Read-shared states cleared in place (subset of
    /// `states_collected`; they keep their shape, see module docs).
    pub shared_states_cleared: u64,
    /// Dense pages freed after a sweep left them fully vacant.
    pub pages_freed: u64,
    /// [`Detector::collect`] passes run.
    pub collect_passes: u64,
    /// Threads retired via [`Detector::thread_exit`].
    pub threads_exited: u64,
    /// Clock slots of exited threads reused by a later fork.
    pub clock_slots_reclaimed: u64,
}

impl ShadowStats {
    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn accumulate(&mut self, other: &ShadowStats) {
        self.states_collected += other.states_collected;
        self.shared_states_cleared += other.shared_states_cleared;
        self.pages_freed += other.pages_freed;
        self.collect_passes += other.collect_passes;
        self.threads_exited += other.threads_exited;
        self.clock_slots_reclaimed += other.clock_slots_reclaimed;
    }
}

/// Opaque host token identifying the exact call stack of one thread at
/// one moment: equal tokens from the same thread guarantee the stack
/// snapshot the host *would* materialise is byte-identical.
///
/// `govm` derives it from `(goroutine frame-push/pop generation,
/// interned top-frame id)` — line-granular, so one source statement's
/// reads and writes share a token; any host scheme works as long as a
/// token is never reused by the same thread for a different stack.
/// [`StackGen::NONE`] opts an event out of the owner cache (the
/// combined [`Detector::read`] / [`Detector::write`] forms always pass
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackGen(u64);

impl StackGen {
    /// The "no token" sentinel: never equal to a cacheable generation.
    pub const NONE: StackGen = StackGen(u64::MAX);

    /// Builds a token from a host generation counter and a program
    /// counter (the `govm` scheme).
    pub fn from_parts(depth_gen: u32, pc: u32) -> StackGen {
        StackGen((u64::from(depth_gen) << 32) | u64::from(pc))
    }

    /// `true` unless this is [`StackGen::NONE`].
    pub fn is_some(self) -> bool {
        self != StackGen::NONE
    }
}

/// Outcome of a phase-one ([`Detector::read_fast`] /
/// [`Detector::write_fast`]) check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPath {
    /// The access repeats within the thread's current epoch: fully
    /// processed, no state change, no stack needed.
    EpochHit,
    /// The lock-aware owner cache absorbed the access: the reduced
    /// transfer function has been applied in place, no stack needed.
    CacheHit,
    /// The host must materialise a stack and call the slow phase.
    Miss,
}

impl FastPath {
    /// `true` when the event is fully processed (no slow phase needed).
    pub fn is_hit(self) -> bool {
        !matches!(self, FastPath::Miss)
    }
}

/// A fast, deterministic multiply-xor hasher (FxHash-style) for the
/// detector's interior maps. With the default SipHash, keying the sync
/// and dedup tables dominates per-event cost; none of these tables is
/// ever iterated, so hash quality only has to be good enough to spread
/// dense ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const FAST_HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(FAST_HASH_K);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(FAST_HASH_K);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// Deterministic hot-path cost counters for one detector instance.
///
/// Every field is an exact function of the event sequence (no clocks,
/// no addresses-of-allocations), so two runs of the same schedule
/// produce bit-identical counters on any machine — which is what lets
/// the perf CI gate compare them against a checked-in baseline without
/// wall-clock flakiness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetStats {
    /// Read/write events processed.
    pub events: u64,
    /// Reads fully answered by the same-epoch fast path.
    pub read_fast_hits: u64,
    /// Writes fully answered by the same-epoch fast path.
    pub write_fast_hits: u64,
    /// Full vector-clock joins performed.
    pub clock_joins: u64,
    /// Vector clocks freshly allocated (clones and promotions).
    pub clock_allocs: u64,
    /// Clock allocations avoided by joining in place or reusing an
    /// existing sync-object buffer.
    pub clock_allocs_avoided: u64,
    /// Reads absorbed by the lock-aware owner cache (second chance).
    pub read_sync_hits: u64,
    /// Writes absorbed by the lock-aware owner cache (second chance).
    pub write_sync_hits: u64,
    /// Acquire joins short-circuited by the per-sync release epoch
    /// (counted *in addition to* the logical `clock_joins` increment).
    pub sync_epoch_hits: u64,
}

impl DetStats {
    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn accumulate(&mut self, other: &DetStats) {
        self.events += other.events;
        self.read_fast_hits += other.read_fast_hits;
        self.write_fast_hits += other.write_fast_hits;
        self.clock_joins += other.clock_joins;
        self.clock_allocs += other.clock_allocs;
        self.clock_allocs_avoided += other.clock_allocs_avoided;
        self.read_sync_hits += other.read_sync_hits;
        self.write_sync_hits += other.write_sync_hits;
        self.sync_epoch_hits += other.sync_epoch_hits;
    }

    /// Same-epoch fast-path hits across reads and writes.
    pub fn fast_hits(&self) -> u64 {
        self.read_fast_hits + self.write_fast_hits
    }

    /// Lock-aware owner-cache hits across reads and writes.
    pub fn sync_hits(&self) -> u64 {
        self.read_sync_hits + self.write_sync_hits
    }
}

/// A compact access record: kind, interned stack (innermost first), and
/// the acting thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawAccess {
    /// Read or write.
    pub kind: AccessKind,
    /// Interned stack, innermost frame first.
    pub stack: Vec<FrameId>,
    /// Acting thread.
    pub tid: ThreadId,
}

/// A detected race between two compact accesses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawRace {
    /// The earlier (already recorded) access.
    pub prev: RawAccess,
    /// The access that triggered detection.
    pub cur: RawAccess,
    /// Racy cell address.
    pub addr: Addr,
    /// Interned variable name.
    pub var: NameId,
}

/// How many distinct `(record, gen)` pairs each reader keeps in the
/// read-shared state. One is enough for a thread that always reads a
/// variable from one site; a reader alternating between a few sites
/// (the classic accumulate-then-publish loop) would thrash a
/// single-record cache — every read flips the stored generation, so no
/// read ever hits. A short MRU list makes all of the alternating sites
/// hit at once.
const READER_GENS: usize = 4;

/// Per-reader access records for the read-shared state: up to
/// [`READER_GENS`] `(record, gen)` pairs, most-recent-use first.
///
/// The front record is always byte-identical to the single record the
/// cache-off run would hold for this thread: a cache hit on a non-front
/// generation *promotes* it (the slow path it replaces would have
/// re-stored exactly that record, making it the latest), and the slow
/// path stores new records at the front.
#[derive(Debug, Clone, Default)]
struct ReaderRecords {
    recs: Vec<(RawAccess, StackGen)>,
}

impl ReaderRecords {
    fn with(rec: RawAccess, gen: StackGen, spare: &mut Spare) -> Self {
        let mut recs = spare.records.pop().unwrap_or_default();
        recs.push((rec, gen));
        ReaderRecords { recs }
    }

    /// The record the cache-off run would currently hold (MRU front).
    fn current(&self) -> Option<&RawAccess> {
        self.recs.first().map(|(a, _)| a)
    }

    /// Cache probe: if any stored generation equals `gen`, promote that
    /// record to the front and report a hit. Callers guarantee
    /// `gen.is_some()`, so [`StackGen::NONE`] records never match.
    fn promote(&mut self, gen: StackGen) -> bool {
        match self.recs.iter().position(|(_, g)| *g == gen) {
            Some(0) => true,
            Some(i) => {
                self.recs[..=i].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Slow-path store: front-inserts (or refreshes in place) the
    /// record for `gen`, evicting the least-recently-used entry beyond
    /// [`READER_GENS`]. The matching-front case reuses the existing
    /// stack buffer — steady-state slow reads stay allocation-free.
    fn store(&mut self, tid: ThreadId, stack: &[FrameId], gen: StackGen, spare: &mut Spare) {
        if let Some(i) = self.recs.iter().position(|(_, g)| *g == gen) {
            self.recs[..=i].rotate_right(1);
            let (a, _) = &mut self.recs[0];
            a.kind = AccessKind::Read;
            a.tid = tid;
            a.stack.clear();
            a.stack.extend_from_slice(stack);
            return;
        }
        self.recs
            .insert(0, (spare.access(AccessKind::Read, stack, tid), gen));
        if self.recs.len() > READER_GENS {
            if let Some((evicted, _)) = self.recs.pop() {
                spare.put_access(evicted);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum ReadState {
    /// Reads by at most one thread since the last write.
    Epoch(Epoch, Option<RawAccess>),
    /// Read-shared: full clock plus per-thread access info, each reader
    /// holding a short MRU list of records tagged with the [`StackGen`]
    /// they were captured under (the owner cache's freshness witness,
    /// per reader and per read site).
    Shared(VectorClock, ReaderMap),
}

#[derive(Debug, Clone)]
struct VarState {
    w: Epoch,
    w_access: Option<RawAccess>,
    /// Host stack token under which `w_access` was stored (the owner
    /// cache's freshness witness); [`StackGen::NONE`] when unknown.
    w_gen: StackGen,
    r: ReadState,
    /// Host stack token for the epoch-read access record.
    r_gen: StackGen,
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            w: Epoch::ZERO,
            w_access: None,
            w_gen: StackGen::NONE,
            r: ReadState::Epoch(Epoch::ZERO, None),
            r_gen: StackGen::NONE,
        }
    }
}

/// One sync object: its release clock plus the lock-aware sync-epoch
/// cache — the epoch of the (sole) last releaser, which lets a later
/// acquire prove `clock ≤ acquirer` with one component compare.
#[derive(Debug, Clone)]
struct SyncState {
    clock: VectorClock,
    /// `Some(c@t)`: the stored clock is exactly thread `t`'s clock at
    /// its local time `c` (set by plain release / atomic ops). `None`
    /// after a merge-release — several releasers, no single epoch
    /// summarises the joined clock.
    release_epoch: Option<Epoch>,
}

/// One page of dense variable states (see [`PAGE_SIZE`]).
type VarPage = Box<[VarState]>;

/// One side of a race as the transfer functions see it: kind, stack,
/// external thread id.
type AccessRef<'a> = (AccessKind, &'a [FrameId], ThreadId);

/// The stored access record, or — defensively, a non-zero epoch always
/// has one — an empty-stack record attributed to the slot's current
/// external owner.
fn record_or<'a>(
    rec: Option<&'a RawAccess>,
    kind: AccessKind,
    slot: usize,
    slot_owner: &[ThreadId],
) -> AccessRef<'a> {
    match rec {
        Some(a) => (a.kind, &a.stack[..], a.tid),
        None => (kind, &[], slot_owner.get(slot).copied().unwrap_or(slot)),
    }
}

/// The races one run recorded, deduplicated by variable and stack pair.
#[derive(Debug, Default)]
struct RaceLog {
    list: Vec<RawRace>,
    seen: HashSet<u64, FastBuildHasher>,
}

impl RaceLog {
    /// Records the race between `prev` and `cur` on `addr` unless this
    /// run already recorded one with the same variable and the same
    /// (unordered) pair of stacks. The identity is hashed from the
    /// borrowed stacks first, so a replayed race allocates nothing.
    fn push(
        &mut self,
        spare: &mut Spare,
        prev: AccessRef<'_>,
        cur: AccessRef<'_>,
        addr: Addr,
        var: NameId,
    ) {
        let stack_hash = |stack: &[FrameId]| {
            let mut sh = Fnv1a::new();
            for fid in stack {
                sh.write(&fid.to_le_bytes());
            }
            sh.finish()
        };
        let mut h = Fnv1a::new();
        h.write(&var.to_le_bytes());
        // Symmetric over the two stacks: hash the sorted pair of
        // full-stack hashes.
        let (a, b) = (stack_hash(prev.1), stack_hash(cur.1));
        for s in [a.min(b), a.max(b)] {
            h.write(&s.to_le_bytes());
        }
        if self.seen.insert(h.finish()) {
            self.list.push(RawRace {
                prev: spare.access(prev.0, prev.1, prev.2),
                cur: spare.access(cur.0, cur.1, cur.2),
                addr,
                var,
            });
        }
    }

    fn clear(&mut self, spare: &mut Spare) {
        for r in self.list.drain(..) {
            spare.put_access(r.prev);
            spare.put_access(r.cur);
        }
        self.seen.clear();
    }
}

/// Per-reader record lists of one read-shared variable.
type ReaderMap = HashMap<ThreadId, ReaderRecords, FastBuildHasher>;

/// Per-address variable states: dense pages below `dense_limit`, a
/// hash map above it.
#[derive(Debug)]
struct VarTable {
    /// Dense states in lazily instantiated fixed-size pages.
    pages: Vec<Option<VarPage>>,
    /// Overflow states for sparse high addresses.
    sparse: HashMap<Addr, VarState, FastBuildHasher>,
    /// Dense/sparse crossover ([`DENSE_LIMIT`] unless overridden).
    dense_limit: Addr,
    /// Page indices instantiated since the last reset: exactly the
    /// pages [`Detector::reset`] has to scrub.
    touched: Vec<usize>,
    /// Scrubbed pages from earlier runs, reused before allocating.
    free: Vec<VarPage>,
}

impl VarTable {
    fn new(dense_limit: Addr) -> Self {
        VarTable {
            pages: Vec::new(),
            sparse: HashMap::default(),
            dense_limit,
            touched: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn state_mut(&mut self, addr: Addr) -> &mut VarState {
        let i = addr as usize;
        if addr < self.dense_limit {
            let p = i >> PAGE_BITS;
            if self.pages.get(p).map_or(true, Option::is_none) {
                self.instantiate(p);
            }
            let page = self.pages[p].as_mut().expect("page instantiated");
            &mut page[i & (PAGE_SIZE - 1)]
        } else {
            self.sparse.entry(addr).or_default()
        }
    }

    #[cold]
    fn instantiate(&mut self, p: usize) {
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self
            .free
            .pop()
            .unwrap_or_else(|| vec![VarState::default(); PAGE_SIZE].into_boxed_slice());
        self.pages[p] = Some(page);
        self.touched.push(p);
    }

    /// Scrubs every state this run created back to pristine, salvaging
    /// record buffers into `spare` and pages into the free list. Costs
    /// in proportion to the pages the run touched.
    fn reset(&mut self, spare: &mut Spare) {
        for p in self.touched.drain(..) {
            if let Some(mut page) = self.pages.get_mut(p).and_then(Option::take) {
                for vs in page.iter_mut() {
                    spare.put_state(vs);
                }
                self.free.push(page);
            }
        }
        self.pages.clear();
        for (_, mut vs) in self.sparse.drain() {
            spare.put_state(&mut vs);
        }
    }
}

/// Buffers salvaged from retired shadow state and handed out again
/// before anything is allocated: access-record stacks, clocks,
/// reader maps and reader record lists. [`Detector::reset`] fills it, so
/// a detector reused across runs allocates only where a run outgrows
/// every earlier one. Purely physical; nothing logical reads it.
#[derive(Debug, Default)]
struct Spare {
    stacks: Vec<Vec<FrameId>>,
    clocks: Vec<VectorClock>,
    readers: Vec<ReaderMap>,
    records: Vec<Vec<(RawAccess, StackGen)>>,
}

impl Spare {
    fn access(&mut self, kind: AccessKind, stack: &[FrameId], tid: ThreadId) -> RawAccess {
        let mut buf = self.stacks.pop().unwrap_or_default();
        buf.extend_from_slice(stack);
        RawAccess {
            kind,
            stack: buf,
            tid,
        }
    }

    /// Keeps `a`'s stack buffer. Like every `put_*`, it drops a buffer
    /// that never allocated, so each list holds at most as many
    /// buffers as runs ever had live at once.
    fn put_access(&mut self, mut a: RawAccess) {
        if a.stack.capacity() > 0 {
            a.stack.clear();
            self.stacks.push(a.stack);
        }
    }

    /// An all-zero clock.
    fn clock(&mut self) -> VectorClock {
        self.clocks.pop().unwrap_or_default()
    }

    fn clock_of(&mut self, c: &VectorClock) -> VectorClock {
        let mut out = self.clock();
        out.copy_from(c);
        out
    }

    fn put_clock(&mut self, mut c: VectorClock) {
        if c.capacity() > 0 {
            c.clear();
            self.clocks.push(c);
        }
    }

    fn put_read(&mut self, r: ReadState) {
        match r {
            ReadState::Epoch(_, Some(a)) => self.put_access(a),
            ReadState::Epoch(_, None) => {}
            ReadState::Shared(vc, mut readers) => {
                self.put_clock(vc);
                for (_, mut r) in readers.drain() {
                    for (a, _) in r.recs.drain(..) {
                        self.put_access(a);
                    }
                    if r.recs.capacity() > 0 {
                        self.records.push(r.recs);
                    }
                }
                if readers.capacity() > 0 {
                    self.readers.push(readers);
                }
            }
        }
    }

    /// Resets `vs` to the pristine default, keeping its buffers.
    fn put_state(&mut self, vs: &mut VarState) {
        if let Some(a) = vs.w_access.take() {
            self.put_access(a);
        }
        self.put_read(std::mem::take(vs).r);
    }
}

/// The FastTrack detector for one program run.
///
/// Thread identity is two-layered: the *external* [`ThreadId`]s handed
/// out by [`Detector::fork`] are dense and never reused (hosts index
/// their own tables with them), while internally each live thread owns
/// a clock *slot* — the index actually stored in epochs and clock
/// components. [`Detector::thread_exit`] frees a slot for reuse, which
/// is what lets vector-clock width track live threads. All event APIs
/// take external ids.
#[derive(Debug)]
pub struct Detector {
    /// Per-slot clocks (slot-indexed; width = live-ish thread count).
    clocks: Vec<VectorClock>,
    /// External thread id → clock slot.
    slot_of: Vec<usize>,
    /// Clock slot → external id of its *current* owner (only used for
    /// defensive report fallbacks; records carry external ids).
    slot_owner: Vec<ThreadId>,
    /// Whether the slot's owner is still live.
    slot_live: Vec<bool>,
    /// External thread ids retired by [`Detector::thread_exit`]
    /// (debug-assert guard against post-exit events).
    exited: Vec<bool>,
    /// Per-slot high-water mark of the *published* own-clock value —
    /// the highest own component ever stored into shadow state, a sync
    /// clock or another thread's clock. A release ticks the releaser
    /// *after* snapshotting, so an exiting thread's final clock usually
    /// ends one past everything it published; reuse eligibility must
    /// compare against the published value or it would never fire for
    /// the canonical `wg.Done`/send-then-exit shape. Monotone across
    /// slot occupants (never reset on reuse), which is what keeps
    /// epochs of *earlier* occupants covered too.
    published: Vec<u32>,
    /// Freed slots awaiting reuse, FIFO, each with the exiting thread's
    /// final clock and published own value (the reuse-eligibility
    /// witness).
    free_slots: Vec<(usize, VectorClock, u32)>,
    /// Join of every exited thread's final clock.
    retired: VectorClock,
    /// Per-address variable states.
    vars: VarTable,
    syncs: HashMap<u64, SyncState, FastBuildHasher>,
    races: RaceLog,
    stats: DetStats,
    shadow: ShadowStats,
    /// Buffers kept from earlier runs (see [`Detector::reset`]).
    spare: Spare,
    /// Lock-aware caching (owner second chance + sync release epochs);
    /// on by default, off for differential testing.
    sync_cache: bool,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            clocks: Vec::new(),
            slot_of: Vec::new(),
            slot_owner: Vec::new(),
            slot_live: Vec::new(),
            exited: Vec::new(),
            published: Vec::new(),
            free_slots: Vec::new(),
            retired: VectorClock::new(),
            vars: VarTable::new(DENSE_LIMIT as Addr),
            syncs: HashMap::default(),
            races: RaceLog::default(),
            stats: DetStats::default(),
            shadow: ShadowStats::default(),
            spare: Spare::default(),
            sync_cache: true,
        }
    }
}

impl Detector {
    /// Creates a detector with the main thread (id 0) registered.
    pub fn new() -> Self {
        let mut d = Detector::default();
        d.register_main();
        d
    }

    fn register_main(&mut self) {
        let mut c = self.spare.clock();
        c.tick(0);
        self.clocks.push(c);
        self.slot_of.push(0);
        self.slot_owner.push(0);
        self.slot_live.push(true);
        self.exited.push(false);
        self.published.push(0);
    }

    /// Returns the detector to the state [`Detector::new`] builds: only
    /// the main thread registered, and no shadow state, sync clocks,
    /// races or statistics. Configuration (sync cache, dense
    /// limit) is kept, and so are buffers: clocks, access-record stacks,
    /// dense pages and map capacity are recycled into the next run, so
    /// a host re-running one program allocates only where a run
    /// outgrows every earlier one. Only the pages this run instantiated
    /// are scrubbed, so a reset costs in proportion to the run, not to
    /// the retained capacity. Every event sequence replayed after a
    /// reset produces exactly what it produces on a new detector.
    pub fn reset(&mut self) {
        // Destructured without `..`, so a new field cannot be forgotten.
        let Detector {
            clocks,
            slot_of,
            slot_owner,
            slot_live,
            exited,
            published,
            free_slots,
            retired,
            vars,
            syncs,
            races,
            stats,
            shadow,
            spare,
            sync_cache: _,
        } = self;
        vars.reset(spare);
        for (_, s) in syncs.drain() {
            spare.put_clock(s.clock);
        }
        races.clear(spare);
        for c in clocks.drain(..) {
            spare.put_clock(c);
        }
        for (_, c, _) in free_slots.drain(..) {
            spare.put_clock(c);
        }
        retired.clear();
        slot_of.clear();
        slot_owner.clear();
        slot_live.clear();
        exited.clear();
        published.clear();
        *stats = DetStats::default();
        *shadow = ShadowStats::default();
        self.register_main();
    }

    /// Hands a clock the host no longer needs (a consumed message clock
    /// from [`Detector::release_snapshot`]) back for reuse.
    pub fn recycle_clock(&mut self, c: VectorClock) {
        self.spare.put_clock(c);
    }

    /// [`Detector::new`] with a custom dense/sparse address crossover
    /// (tests exercise the exact boundary without a 4M-entry array).
    #[cfg(test)]
    pub(crate) fn with_dense_limit(limit: usize) -> Self {
        let mut d = Detector::new();
        d.vars.dense_limit = limit as Addr;
        d
    }

    /// Enables or disables the lock-aware caches (owner second chance
    /// and per-sync release epochs). Disabling never changes observable
    /// behaviour — races, clocks and the logical counters are
    /// bit-identical either way; only the `*_sync_hits` /
    /// `sync_epoch_hits` counters stop moving.
    pub fn set_sync_cache(&mut self, enabled: bool) {
        self.sync_cache = enabled;
    }

    /// Number of threads ever registered (external ids stay dense and
    /// are never reused, so this is also the next id `fork` hands out).
    pub fn thread_count(&self) -> usize {
        self.slot_of.len()
    }

    /// Current vector-clock width: clock slots allocated, which tracks
    /// live threads (plus freed slots awaiting an eligible reuse), not
    /// the total ever spawned.
    pub fn clock_width(&self) -> usize {
        self.clocks.len()
    }

    /// The deterministic cost counters accumulated so far.
    pub fn stats(&self) -> &DetStats {
        &self.stats
    }

    /// The physical shadow-lifecycle counters accumulated so far.
    pub fn shadow_stats(&self) -> &ShadowStats {
        &self.shadow
    }

    /// Clock slot of live external thread `t`.
    #[inline]
    fn slot(&self, t: ThreadId) -> usize {
        debug_assert!(!self.exited[t], "event for exited thread {t}");
        self.slot_of[t]
    }

    /// Registers a new thread forked by `parent`, returning its id.
    ///
    /// Establishes the happens-before edge from the `go` statement to
    /// the start of the child. The child's external id is always fresh
    /// (dense, never reused); its clock *slot* reuses a freed slot when
    /// some exited thread's final clock ≤ `parent`'s clock — the exit
    /// happens-before the child's start, so stale epochs at that slot
    /// keep exactly their happens-before meaning (module docs). The
    /// logical `clock_allocs` counter moves identically either way.
    pub fn fork(&mut self, parent: ThreadId) -> ThreadId {
        let child = self.slot_of.len();
        let pslot = self.slot(parent);
        self.stats.clock_allocs += 1;
        // First freed slot whose every *published* epoch is ordered
        // before this fork, in retirement order (deterministic). The
        // own component is compared via the published mark, not the
        // final clock — the trailing release tick published nothing.
        let reuse = self.free_slots.iter().position(|(slot, fin, pub_own)| {
            let pc = &self.clocks[pslot];
            *pub_own <= pc.get(*slot) && fin.iter().all(|(k, v)| k == *slot || v <= pc.get(k))
        });
        let cslot = match reuse {
            Some(idx) => {
                let (slot, fin, _) = self.free_slots.remove(idx);
                // Reuse the final clock's buffer for the child's clock.
                let mut cc = fin;
                cc.copy_from(&self.clocks[pslot]);
                cc.tick(slot);
                self.clocks[slot] = cc;
                self.slot_owner[slot] = child;
                self.slot_live[slot] = true;
                self.shadow.clock_slots_reclaimed += 1;
                slot
            }
            None => {
                let slot = self.clocks.len();
                let mut cc = self.spare.clock_of(&self.clocks[pslot]);
                cc.tick(slot);
                self.clocks.push(cc);
                self.slot_owner.push(child);
                self.slot_live.push(true);
                self.published.push(0);
                slot
            }
        };
        self.slot_of.push(cslot);
        self.exited.push(false);
        // The child's clock carries the parent's current own value —
        // that is a publication, and the post-publication tick follows.
        self.publish(pslot);
        self.clocks[pslot].tick(pslot);
        child
    }

    /// Records that `slot`'s current own-clock value is now visible
    /// outside its own clock (shadow state, a sync clock, or another
    /// thread's clock). Clocks are monotone, so plain assignment is a
    /// running maximum.
    #[inline]
    fn publish(&mut self, slot: usize) {
        self.published[slot] = self.clocks[slot].get(slot);
    }

    /// Establishes `child` happens-before `parent` (a join edge).
    pub fn join_thread(&mut self, parent: ThreadId, child: ThreadId) {
        if parent == child {
            return;
        }
        let (pslot, cslot) = (self.slot(parent), self.slot(child));
        let (dst, src) = if pslot < cslot {
            let (lo, hi) = self.clocks.split_at_mut(cslot);
            (&mut lo[pslot], &hi[0])
        } else {
            let (lo, hi) = self.clocks.split_at_mut(pslot);
            (&mut hi[0], &lo[cslot])
        };
        dst.join(src);
        self.stats.clock_joins += 1;
        self.stats.clock_allocs_avoided += 1;
        // The child's whole clock — trailing ticks included — is now
        // visible in the parent.
        self.publish(cslot);
    }

    /// Retires an exited thread: joins its final clock into the
    /// retired-clock accumulator (preserving every happens-before edge
    /// it ever published for races detected later) and frees its clock
    /// slot for reuse by an eligible future [`Detector::fork`].
    ///
    /// Purely physical — no logical counter moves, and no observable
    /// behaviour changes whether or not a host ever calls this. The
    /// caller must deliver no further events for `t`.
    pub fn thread_exit(&mut self, t: ThreadId) {
        let slot = self.slot(t);
        debug_assert!(self.slot_live[slot], "double thread_exit for {t}");
        self.exited[t] = true;
        self.slot_live[slot] = false;
        let fin = std::mem::take(&mut self.clocks[slot]);
        self.retired.join(&fin);
        let pub_own = self.published[slot];
        self.free_slots.push((slot, fin, pub_own));
        self.shadow.threads_exited += 1;
    }

    /// Join of every exited thread's final clock — everything the dead
    /// ever published. For tests and host diagnostics.
    pub fn retired_clock(&self) -> &VectorClock {
        &self.retired
    }

    /// Same-epoch read check — phase one of a read event.
    ///
    /// [`FastPath::EpochHit`]: the read repeats within `t`'s current
    /// epoch; fully processed, no state change, no stack needed.
    /// [`FastPath::CacheHit`]: `t` exclusively owns the read state and
    /// `gen` proves its stored access record is still current, so the
    /// full transfer function reduces to bumping the read epoch —
    /// applied here, in place. [`FastPath::Miss`]: the host must follow
    /// up with [`Detector::read_slow`], passing the same `gen`.
    #[inline]
    pub fn read_fast(&mut self, t: ThreadId, addr: Addr, gen: StackGen) -> FastPath {
        self.read_fast_with(t, addr, || gen).0
    }

    /// [`Detector::read_fast`] with a *lazily derived* stack token: the
    /// epoch check needs no token, so `gen_fn` only runs on an epoch
    /// miss — on hosts where deriving the token costs a few loads, the
    /// dominant same-epoch case stays token-free. Returns the outcome
    /// plus the token (needed for the slow phase on a miss;
    /// [`StackGen::NONE`] after an epoch hit).
    #[inline]
    pub fn read_fast_with<F: FnOnce() -> StackGen>(
        &mut self,
        t: ThreadId,
        addr: Addr,
        gen_fn: F,
    ) -> (FastPath, StackGen) {
        self.stats.events += 1;
        let s = self.slot(t);
        let e = Epoch::new(s, self.clocks[s].get(s));
        let vs = self.vars.state_mut(addr);
        let VarState {
            w,
            w_access,
            w_gen,
            r,
            r_gen,
        } = vs;
        match r {
            ReadState::Epoch(re, acc) => {
                if *re == e {
                    self.stats.read_fast_hits += 1;
                    return (FastPath::EpochHit, StackGen::NONE);
                }
                let gen = gen_fn();
                if self.sync_cache && gen.is_some() {
                    // Lock-aware second chance: `t` already owns the read
                    // epoch and its stack is unchanged since the record was
                    // stored. The slow path would find `re.le(ct)` (own
                    // component) and `vs.w.le(ct)` either true or a
                    // dedup-identical replay of an already-recorded race,
                    // then store an access record byte-identical to the
                    // current one — so the whole transfer collapses to
                    // `*re = e`.
                    if !re.is_zero() && re.tid == s && *r_gen == gen {
                        *re = e;
                        self.published[s] = e.clock;
                        self.stats.read_sync_hits += 1;
                        return (FastPath::CacheHit, gen);
                    }
                    // Post-write re-read: the read state was collapsed by
                    // `t`'s own write at this very stack generation (the
                    // `n = n + 1` pattern reads and writes one source
                    // line). The write record's stack *is* the current
                    // stack, so the read record the slow path would build
                    // can be copied from it — no host snapshot needed.
                    if re.is_zero() && !w.is_zero() && w.tid == s && *w_gen == gen {
                        if let Some(wa) = w_access {
                            match acc {
                                Some(a) => {
                                    a.kind = AccessKind::Read;
                                    a.tid = t;
                                    a.stack.clone_from(&wa.stack);
                                }
                                None => {
                                    *acc = Some(self.spare.access(AccessKind::Read, &wa.stack, t))
                                }
                            }
                            *re = e;
                            *r_gen = gen;
                            self.published[s] = e.clock;
                            self.stats.read_sync_hits += 1;
                            return (FastPath::CacheHit, gen);
                        }
                    }
                }
                (FastPath::Miss, gen)
            }
            // Read-shared second chance: `t` re-reads a variable it is
            // already a recorded reader of, at an unchanged stack
            // generation. No write can have intervened (a write
            // collapses the shared state), so the slow path would
            // re-run an already dedup-identical write-read check and
            // overwrite `t`'s record with byte-identical content — all
            // that remains is `t`'s component of the read clock.
            ReadState::Shared(vc, accs) => {
                let gen = gen_fn();
                if self.sync_cache && gen.is_some() {
                    if let Some(recs) = accs.get_mut(&s) {
                        if recs.promote(gen) {
                            vc.set(s, e.clock);
                            self.published[s] = e.clock;
                            self.stats.read_sync_hits += 1;
                            return (FastPath::CacheHit, gen);
                        }
                    }
                }
                (FastPath::Miss, gen)
            }
        }
    }

    /// Full read transfer function — phase two, after a
    /// [`Detector::read_fast`] miss supplied the stack. `gen` must be
    /// the token passed to the matching fast call ([`StackGen::NONE`]
    /// when the host does not track stack generations).
    pub fn read_slow(
        &mut self,
        t: ThreadId,
        addr: Addr,
        var: NameId,
        stack: &[FrameId],
        gen: StackGen,
    ) {
        let s = self.slot(t);
        let ct = &self.clocks[s];
        let e = Epoch::new(s, ct.get(s));
        // The state record below stores the current epoch.
        self.published[s] = e.clock;
        let slot_owner = &self.slot_owner;
        let vs = self.vars.state_mut(addr);

        // Same-epoch guard (no-op when correctly preceded by a
        // `read_fast` miss; keeps direct calls semantically identical to
        // the combined `read`).
        if let ReadState::Epoch(re, _) = &vs.r {
            if *re == e {
                return;
            }
        }

        // Write-read check.
        if !vs.w.le(ct) {
            // Defensive fallback only (a non-zero epoch always has a
            // record): resolve the slot to its current external owner.
            let prev = record_or(
                vs.w_access.as_ref(),
                AccessKind::Write,
                vs.w.tid,
                slot_owner,
            );
            self.races.push(
                &mut self.spare,
                prev,
                (AccessKind::Read, stack, t),
                addr,
                var,
            );
        }

        // Update read state. The epoch-exclusive branch reuses the
        // existing record's stack buffer — steady-state slow reads are
        // allocation-free.
        match &mut vs.r {
            ReadState::Epoch(re, acc) => {
                if re.le(ct) {
                    *re = e;
                    match acc {
                        Some(a) => {
                            a.kind = AccessKind::Read;
                            a.tid = t;
                            a.stack.clear();
                            a.stack.extend_from_slice(stack);
                        }
                        None => *acc = Some(self.spare.access(AccessKind::Read, stack, t)),
                    }
                    vs.r_gen = gen;
                } else {
                    let spare = &mut self.spare;
                    let mut vc = spare.clock();
                    vc.set(re.tid, re.clock);
                    vc.set(s, e.clock);
                    self.stats.clock_allocs += 1;
                    let mut accs = spare.readers.pop().unwrap_or_default();
                    let prev_gen = vs.r_gen;
                    if let Some(a) = acc.take() {
                        accs.insert(re.tid, ReaderRecords::with(a, prev_gen, spare));
                    }
                    let cur = spare.access(AccessKind::Read, stack, t);
                    accs.insert(s, ReaderRecords::with(cur, gen, spare));
                    vs.r = ReadState::Shared(vc, accs);
                    vs.r_gen = StackGen::NONE;
                }
            }
            ReadState::Shared(vc, accs) => {
                vc.set(s, e.clock);
                // Front-store into the reader's MRU records (same-site
                // refreshes reuse the existing stack buffer: repeated
                // shared reads are allocation-free).
                let spare = &mut self.spare;
                accs.entry(s)
                    .or_insert_with(|| ReaderRecords {
                        recs: spare.records.pop().unwrap_or_default(),
                    })
                    .store(t, stack, gen, spare);
                vs.r_gen = StackGen::NONE;
            }
        }
    }

    /// Processes a read of `addr` by `t` (combined fast + slow phases).
    pub fn read(&mut self, t: ThreadId, addr: Addr, var: NameId, stack: &[FrameId]) {
        if self.read_fast(t, addr, StackGen::NONE) == FastPath::Miss {
            self.read_slow(t, addr, var, stack, StackGen::NONE);
        }
    }

    /// Same-epoch write check — phase one of a write event.
    ///
    /// [`FastPath::EpochHit`]: the write repeats within `t`'s current
    /// epoch. [`FastPath::CacheHit`]: `t` exclusively owns the variable
    /// (write epoch and read state both its own) and `gen` proves the
    /// stored write record is still current — the transfer function
    /// reduces to bumping the write epoch and collapsing the read
    /// state, applied here in place. [`FastPath::Miss`]: the host must
    /// follow up with [`Detector::write_slow`], passing the same `gen`.
    #[inline]
    pub fn write_fast(&mut self, t: ThreadId, addr: Addr, gen: StackGen) -> FastPath {
        self.write_fast_with(t, addr, || gen).0
    }

    /// [`Detector::write_fast`] with a lazily derived stack token (see
    /// [`Detector::read_fast_with`]).
    #[inline]
    pub fn write_fast_with<F: FnOnce() -> StackGen>(
        &mut self,
        t: ThreadId,
        addr: Addr,
        gen_fn: F,
    ) -> (FastPath, StackGen) {
        self.stats.events += 1;
        let s = self.slot(t);
        let e = Epoch::new(s, self.clocks[s].get(s));
        let vs = self.vars.state_mut(addr);
        if vs.w == e {
            self.stats.write_fast_hits += 1;
            return (FastPath::EpochHit, StackGen::NONE);
        }
        let gen = gen_fn();
        // Lock-aware second chance: `t` owns the write epoch (its own
        // component only ever grows, so `vs.w.le(ct)` holds), the read
        // state is absent or also `t`'s (same argument), and the stored
        // write record's stack is unchanged — the slow path would
        // record no new race (any replay dedups to an already-recorded
        // one) and write back exactly this state with `w = e`.
        if self.sync_cache && gen.is_some() && !vs.w.is_zero() && vs.w.tid == s && vs.w_gen == gen {
            if let ReadState::Epoch(re, _) = &mut vs.r {
                if re.is_zero() || re.tid == s {
                    vs.w = e;
                    // FastTrack WriteShared collapse, as the slow path
                    // does after its checks (the dead record's buffer
                    // is kept for the next slow read to reuse — a zero
                    // epoch never exposes it).
                    *re = Epoch::ZERO;
                    vs.r_gen = StackGen::NONE;
                    self.published[s] = e.clock;
                    self.stats.write_sync_hits += 1;
                    return (FastPath::CacheHit, gen);
                }
            }
        }
        (FastPath::Miss, gen)
    }

    /// Full write transfer function — phase two, after a
    /// [`Detector::write_fast`] miss supplied the stack. `gen` must be
    /// the token passed to the matching fast call ([`StackGen::NONE`]
    /// when the host does not track stack generations).
    pub fn write_slow(
        &mut self,
        t: ThreadId,
        addr: Addr,
        var: NameId,
        stack: &[FrameId],
        gen: StackGen,
    ) {
        let s = self.slot(t);
        let ct = &self.clocks[s];
        let e = Epoch::new(s, ct.get(s));
        // The state record below stores the current epoch.
        self.published[s] = e.clock;
        let slot_owner = &self.slot_owner;
        let vs = self.vars.state_mut(addr);

        // Same-epoch guard (see `read_slow`).
        if vs.w == e {
            return;
        }

        let cur = (AccessKind::Write, stack, t);

        // Write-write check.
        if !vs.w.le(ct) {
            // Defensive fallback only — see `read_slow`.
            let prev = record_or(
                vs.w_access.as_ref(),
                AccessKind::Write,
                vs.w.tid,
                slot_owner,
            );
            self.races.push(&mut self.spare, prev, cur, addr, var);
        }

        // Read-write check.
        match &vs.r {
            ReadState::Epoch(re, racc) => {
                if !re.is_zero() && !re.le(ct) {
                    let prev = record_or(racc.as_ref(), AccessKind::Read, re.tid, slot_owner);
                    self.races.push(&mut self.spare, prev, cur, addr, var);
                }
            }
            ReadState::Shared(vc, accs) => {
                for (tid, val) in vc.iter() {
                    if val > ct.get(tid) {
                        let rec = accs.get(&tid).and_then(|r| r.current());
                        let prev = record_or(rec, AccessKind::Read, tid, slot_owner);
                        self.races.push(&mut self.spare, prev, cur, addr, var);
                    }
                }
            }
        }

        vs.w = e;
        // Reuse the previous record's stack buffer — steady-state slow
        // writes are allocation-free.
        match &mut vs.w_access {
            Some(a) => {
                a.kind = AccessKind::Write;
                a.tid = t;
                a.stack.clear();
                a.stack.extend_from_slice(stack);
            }
            None => vs.w_access = Some(self.spare.access(AccessKind::Write, stack, t)),
        }
        vs.w_gen = gen;
        // FastTrack WriteShared: collapse the read state after checking.
        // An epoch-state collapse keeps the dead record's stack buffer —
        // the zero epoch guards every use of it, and the next slow read
        // refills it in place instead of allocating.
        match &mut vs.r {
            ReadState::Epoch(re, _) => *re = Epoch::ZERO,
            shared => {
                let old = std::mem::replace(shared, ReadState::Epoch(Epoch::ZERO, None));
                self.spare.put_read(old);
            }
        }
        vs.r_gen = StackGen::NONE;
    }

    /// Processes a write of `addr` by `t` (combined fast + slow phases).
    pub fn write(&mut self, t: ThreadId, addr: Addr, var: NameId, stack: &[FrameId]) {
        if self.write_fast(t, addr, StackGen::NONE) == FastPath::Miss {
            self.write_slow(t, addr, var, stack, StackGen::NONE);
        }
    }

    /// Lock acquire: joins the sync object's release clock into `t`.
    ///
    /// The join is skipped (same result, `sync_epoch_hits` counted)
    /// when the sync-epoch cache proves `t` already contains the stored
    /// clock: the last release was a plain release by thread `u` at
    /// epoch `c@u`, and `t`'s clock already has `u ≥ c` — then the
    /// stored clock (exactly `u`'s clock at `c`) is pointwise ≤ `t`'s.
    /// The logical `clock_joins` / `clock_allocs_avoided` counters are
    /// incremented either way, so counter baselines do not depend on
    /// the cache.
    pub fn acquire(&mut self, t: ThreadId, sync: u64) {
        let slot = self.slot(t);
        if let Some(s) = self.syncs.get(&sync) {
            self.stats.clock_joins += 1;
            self.stats.clock_allocs_avoided += 1;
            if self.sync_cache {
                if let Some(re) = s.release_epoch {
                    if re.le(&self.clocks[slot]) {
                        self.stats.sync_epoch_hits += 1;
                        return;
                    }
                }
            }
            self.clocks[slot].join(&s.clock);
        }
    }

    /// Lock release: stores `t`'s clock in the sync object and advances
    /// `t`. The sync object's existing buffer is reused when present,
    /// and the sync-epoch cache is refreshed — the stored clock is
    /// exactly `t`'s, so the epoch `c@t` summarises it.
    pub fn release(&mut self, t: ThreadId, sync: u64) {
        let slot = self.slot(t);
        let epoch = Some(Epoch::new(slot, self.clocks[slot].get(slot)));
        match self.syncs.entry(sync) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let s = e.get_mut();
                s.clock.copy_from(&self.clocks[slot]);
                s.release_epoch = epoch;
                self.stats.clock_allocs_avoided += 1;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(SyncState {
                    clock: self.spare.clock_of(&self.clocks[slot]),
                    release_epoch: epoch,
                });
                self.stats.clock_allocs += 1;
            }
        }
        self.publish(slot);
        self.clocks[slot].tick(slot);
    }

    /// Merge-release (wait-group `Done`, RWMutex `RUnlock`): joins `t`'s
    /// clock into the sync object without overwriting other releasers.
    /// Invalidates the sync-epoch cache — no single releaser's epoch
    /// summarises the joined clock.
    pub fn release_merge(&mut self, t: ThreadId, sync: u64) {
        let slot = self.slot(t);
        match self.syncs.entry(sync) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let s = e.get_mut();
                s.clock.join(&self.clocks[slot]);
                s.release_epoch = None;
                self.stats.clock_joins += 1;
                self.stats.clock_allocs_avoided += 1;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(SyncState {
                    clock: self.spare.clock_of(&self.clocks[slot]),
                    release_epoch: Some(Epoch::new(slot, self.clocks[slot].get(slot))),
                });
                self.stats.clock_allocs += 1;
            }
        }
        self.publish(slot);
        self.clocks[slot].tick(slot);
    }

    /// Sequentially-consistent atomic edge: total order between all
    /// atomic operations on `sync` (each op both acquires and releases).
    pub fn atomic_op(&mut self, t: ThreadId, sync: u64) {
        let slot = self.slot(t);
        match self.syncs.entry(sync) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let s = e.get_mut();
                self.clocks[slot].join(&s.clock);
                s.clock.copy_from(&self.clocks[slot]);
                // Post-join the stored clock is exactly `t`'s again.
                s.release_epoch = Some(Epoch::new(slot, self.clocks[slot].get(slot)));
                self.stats.clock_joins += 1;
                self.stats.clock_allocs_avoided += 1;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(SyncState {
                    clock: self.spare.clock_of(&self.clocks[slot]),
                    release_epoch: Some(Epoch::new(slot, self.clocks[slot].get(slot))),
                });
                self.stats.clock_allocs += 1;
            }
        }
        self.publish(slot);
        self.clocks[slot].tick(slot);
    }

    /// Snapshots `t`'s clock (release half of a message send) and advances
    /// `t`. The returned clock travels with the message.
    pub fn release_snapshot(&mut self, t: ThreadId) -> VectorClock {
        let slot = self.slot(t);
        let c = self.spare.clock_of(&self.clocks[slot]);
        self.stats.clock_allocs += 1;
        self.publish(slot);
        self.clocks[slot].tick(slot);
        c
    }

    /// Joins a message clock into `t` (acquire half of a message receive).
    pub fn acquire_clock(&mut self, t: ThreadId, vc: &VectorClock) {
        let slot = self.slot(t);
        self.clocks[slot].join(vc);
        self.stats.clock_joins += 1;
    }

    /// Forgets a freed cell. Forgetting an address that was never
    /// accessed — including a dense slot no page ever grew to cover —
    /// is a no-op, and `forget` never moves [`Detector::stats`].
    pub fn forget(&mut self, addr: Addr) {
        let i = addr as usize;
        if addr < self.vars.dense_limit {
            if let Some(Some(page)) = self.vars.pages.get_mut(i >> PAGE_BITS) {
                self.spare.put_state(&mut page[i & (PAGE_SIZE - 1)]);
            }
        } else if let Some(mut vs) = self.vars.sparse.remove(&addr) {
            self.spare.put_state(&mut vs);
        }
    }

    /// The largest retirement frontier valid right now: the pointwise
    /// minimum of every live thread's clock. Clocks only grow and every
    /// future thread inherits a live parent's clock at fork, so this
    /// frontier happens-before every future event — exactly the
    /// precondition [`Detector::collect`] needs. Returns `None` when no
    /// thread is live (nothing more can happen; collecting is moot).
    pub fn live_frontier(&self) -> Option<VectorClock> {
        let mut live = self
            .clocks
            .iter()
            .zip(&self.slot_live)
            .filter(|&(_, &l)| l)
            .map(|(c, _)| c);
        let mut f = live.next()?.clone();
        for c in live {
            f.meet(c);
        }
        Some(f)
    }

    /// `true` when every access recorded in `vs` sits strictly below
    /// the frontier: no future access can race with it *and* no live
    /// thread's current epoch equals a stored epoch (which is what
    /// keeps the same-epoch fast-hit stream, hence every logical
    /// counter, bit-identical after retirement).
    fn state_dead(vs: &VarState, f: &VectorClock) -> bool {
        let w_dead = vs.w.is_zero() || vs.w.clock < f.get(vs.w.tid);
        if !w_dead {
            return false;
        }
        match &vs.r {
            ReadState::Epoch(re, _) => re.is_zero() || re.clock < f.get(re.tid),
            // Shared states have no same-epoch path, so plain
            // happens-before suffices per component.
            ReadState::Shared(vc, _) => vc.iter().all(|(s, v)| v <= f.get(s)),
        }
    }

    /// `true` when `vs` holds no shadow content (default, or a cleared
    /// shared husk).
    fn state_is_empty(vs: &VarState) -> bool {
        vs.w.is_zero()
            && vs.w_access.is_none()
            && match &vs.r {
                ReadState::Epoch(re, acc) => re.is_zero() && acc.is_none(),
                ReadState::Shared(vc, accs) => vc.iter().next().is_none() && accs.is_empty(),
            }
    }

    /// `true` when `vs` is byte-equivalent to a never-touched state
    /// (epoch-shaped default — the page-free eligibility test).
    fn state_is_pristine(vs: &VarState) -> bool {
        vs.w.is_zero()
            && vs.w_access.is_none()
            && matches!(&vs.r, ReadState::Epoch(re, acc) if re.is_zero() && acc.is_none())
    }

    /// Retires one dead state in place, freeing its buffers. Epoch
    /// states reset to the pristine default; read-shared states are
    /// cleared but keep their `Shared` shape (module docs). Returns
    /// `true` if the slot is now pristine.
    fn retire_state(vs: &mut VarState, shadow: &mut ShadowStats) -> bool {
        shadow.states_collected += 1;
        match &vs.r {
            ReadState::Shared(..) => {
                vs.w = Epoch::ZERO;
                vs.w_access = None;
                vs.w_gen = StackGen::NONE;
                vs.r = ReadState::Shared(VectorClock::new(), HashMap::default());
                vs.r_gen = StackGen::NONE;
                shadow.shared_states_cleared += 1;
                false
            }
            ReadState::Epoch(..) => {
                *vs = VarState::default();
                true
            }
        }
    }

    /// Epoch-based shadow GC: sweeps the dense pages and the sparse
    /// map, retiring every variable state strictly below `frontier` —
    /// a clock the host guarantees happens-before every future event
    /// ([`Detector::live_frontier`] computes the largest such clock).
    /// Fully vacated dense pages are freed. Returns the number of
    /// states retired by this pass.
    ///
    /// Purely physical: races, bug hashes and every logical
    /// [`DetStats`] counter are bit-identical whether or not a host
    /// ever collects — only [`ShadowStats`] and memory move. `collect`
    /// generalises [`Detector::forget`] (one address, host asserts
    /// deadness) to a whole-shadow sweep with a proof obligation the
    /// detector checks per state.
    pub fn collect(&mut self, frontier: &VectorClock) -> u64 {
        let before = self.shadow.states_collected;
        let shadow = &mut self.shadow;
        for slot in self.vars.pages.iter_mut() {
            let Some(page) = slot else { continue };
            let mut pristine = true;
            for vs in page.iter_mut() {
                if !Self::state_is_empty(vs) && Self::state_dead(vs, frontier) {
                    Self::retire_state(vs, shadow);
                }
                pristine &= Self::state_is_pristine(vs);
            }
            if pristine {
                *slot = None;
                shadow.pages_freed += 1;
            }
        }
        self.vars.sparse.retain(|_, vs| {
            if Self::state_is_empty(vs) || !Self::state_dead(vs, frontier) {
                // Keep live states and shared husks; drop a pristine
                // entry (it behaves exactly like an absent one).
                return !Self::state_is_pristine(vs);
            }
            !Self::retire_state(vs, shadow)
        });
        shadow.collect_passes += 1;
        shadow.states_collected - before
    }

    /// Number of variable states currently holding shadow content
    /// (the streaming-memory bound the soak tests assert on).
    pub fn live_states(&self) -> u64 {
        let dense: usize = self
            .vars
            .pages
            .iter()
            .flatten()
            .map(|p| p.iter().filter(|vs| !Self::state_is_empty(vs)).count())
            .sum();
        let sparse = self
            .vars
            .sparse
            .values()
            .filter(|vs| !Self::state_is_empty(vs))
            .count();
        (dense + sparse) as u64
    }

    /// Deterministic estimate of resident shadow memory: the current
    /// run's dense pages, sparse entries and clock storage (buffers kept
    /// for reuse by [`Detector::reset`] are not live state and are not
    /// counted). Not an exact
    /// allocator measurement (record stacks and shared maps are
    /// excluded), but an exact function of the event sequence, so the
    /// perf gate can track it without wall-clock noise.
    pub fn shadow_bytes(&self) -> u64 {
        let state = std::mem::size_of::<VarState>() as u64;
        let pages = self.vars.pages.iter().flatten().count() as u64 * PAGE_SIZE as u64 * state;
        let sparse = self.vars.sparse.len() as u64 * state;
        let clocks: u64 = self
            .clocks
            .iter()
            .map(|c| 4 * c.width() as u64)
            .sum::<u64>()
            + 4 * self.retired.width() as u64;
        pages + sparse + clocks
    }

    /// Races recorded so far.
    pub fn races(&self) -> &[RawRace] {
        &self.races.list
    }

    /// Consumes the detector, returning all recorded races.
    pub fn into_races(self) -> Vec<RawRace> {
        self.races.list
    }

    /// Current clock of live thread `t` (for tests and debugging).
    pub fn clock(&self, t: ThreadId) -> &VectorClock {
        &self.clocks[self.slot_of[t]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = 100;
    const V: NameId = 1;

    fn stack(id: FrameId) -> Vec<FrameId> {
        vec![id]
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(0, A, V, &stack(1));
        d.write(t1, A, V, &stack(2));
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].prev.kind, AccessKind::Write);
        assert_eq!(d.races()[0].cur.kind, AccessKind::Write);
    }

    #[test]
    fn fork_edge_orders_parent_prefix() {
        let mut d = Detector::new();
        d.write(0, A, V, &stack(1)); // before fork
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(2)); // child sees parent's prefix
        assert!(d.races().is_empty());
        // But a parent write AFTER the fork races with the child.
        d.write(0, A, V, &stack(3));
        d.read(t1, A, V, &stack(4));
        assert!(!d.races().is_empty());
    }

    #[test]
    fn mutex_orders_critical_sections() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let m = 7;
        d.acquire(0, m);
        d.write(0, A, V, &stack(1));
        d.release(0, m);
        d.acquire(t1, m);
        d.write(t1, A, V, &stack(2));
        d.release(t1, m);
        assert!(d.races().is_empty());
    }

    #[test]
    fn mutex_on_different_locks_does_not_order() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.acquire(0, 7);
        d.write(0, A, V, &stack(1));
        d.release(0, 7);
        d.acquire(t1, 8);
        d.write(t1, A, V, &stack(2));
        d.release(t1, 8);
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn waitgroup_merge_release_orders_all_children() {
        let mut d = Detector::new();
        let wg = 9;
        let t1 = d.fork(0);
        let t2 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.release_merge(t1, wg); // Done
        d.write(t2, 200, V, &stack(2));
        d.release_merge(t2, wg); // Done
        d.acquire(0, wg); // Wait
        d.read(0, A, V, &stack(3));
        d.read(0, 200, V, &stack(4));
        assert!(d.races().is_empty());
    }

    #[test]
    fn plain_release_would_lose_first_done() {
        // Demonstrates why Done must merge: with plain release the second
        // Done overwrites the first child's clock.
        let mut d = Detector::new();
        let wg = 9;
        let t1 = d.fork(0);
        let t2 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.release(t1, wg);
        d.release(t2, wg); // overwrites
        d.acquire(0, wg);
        d.read(0, A, V, &stack(2));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn message_clocks_order_send_before_receive() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        let msg = d.release_snapshot(t1); // send
        d.acquire_clock(0, &msg); // receive
        d.read(0, A, V, &stack(2));
        assert!(d.races().is_empty());
    }

    #[test]
    fn read_shared_then_unordered_write_races_with_each_reader() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let t2 = d.fork(0);
        d.read(t1, A, V, &stack(1));
        d.read(t2, A, V, &stack(2));
        d.write(0, A, V, &stack(3));
        // Races with both readers (two distinct reports).
        assert_eq!(d.races().len(), 2);
        assert!(d
            .races()
            .iter()
            .all(|r| r.prev.kind == AccessKind::Read && r.cur.kind == AccessKind::Write));
    }

    #[test]
    fn atomics_totally_order_operations() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let flag = 11;
        d.write(0, A, V, &stack(1));
        d.atomic_op(0, flag); // store
        d.atomic_op(t1, flag); // load (later in the serialized run)
        d.read(t1, A, V, &stack(2));
        assert!(d.races().is_empty());
    }

    #[test]
    fn duplicate_races_are_deduped() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(0, A, V, &stack(1));
        d.write(t1, A, V, &stack(2));
        d.write(0, A, V, &stack(1));
        d.write(t1, A, V, &stack(2));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn join_thread_orders_child_suffix() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.join_thread(0, t1);
        d.write(0, A, V, &stack(2));
        assert!(d.races().is_empty());
    }

    #[test]
    fn same_epoch_fast_path_skips_duplicate_work() {
        let mut d = Detector::new();
        d.write(0, A, V, &stack(1));
        let before = d.stats().events;
        d.write(0, A, V, &stack(1));
        d.write(0, A, V, &stack(1));
        assert_eq!(d.stats().events, before + 2);
        assert_eq!(d.stats().write_fast_hits, 2);
        assert!(d.races().is_empty());
    }

    #[test]
    fn two_phase_api_matches_combined_calls() {
        // Drive the same event sequence through the combined and the
        // two-phase APIs: identical races and identical counters.
        let drive = |two_phase: bool| {
            let mut d = Detector::new();
            let t1 = d.fork(0);
            let events: Vec<(ThreadId, AccessKind, Addr)> = vec![
                (0, AccessKind::Write, A),
                (0, AccessKind::Read, A),
                (0, AccessKind::Read, A),
                (t1, AccessKind::Read, A),
                (t1, AccessKind::Write, A),
                (0, AccessKind::Write, 300),
                (t1, AccessKind::Read, 300),
            ];
            for (i, (t, kind, addr)) in events.into_iter().enumerate() {
                let st = stack(i as FrameId);
                match (kind, two_phase) {
                    (AccessKind::Read, true) => {
                        if d.read_fast(t, addr, StackGen::NONE) == FastPath::Miss {
                            d.read_slow(t, addr, V, &st, StackGen::NONE);
                        }
                    }
                    (AccessKind::Read, false) => d.read(t, addr, V, &st),
                    (AccessKind::Write, true) => {
                        if d.write_fast(t, addr, StackGen::NONE) == FastPath::Miss {
                            d.write_slow(t, addr, V, &st, StackGen::NONE);
                        }
                    }
                    (AccessKind::Write, false) => d.write(t, addr, V, &st),
                }
            }
            (d.races().to_vec(), *d.stats())
        };
        let (races_combined, stats_combined) = drive(false);
        let (races_split, stats_split) = drive(true);
        assert_eq!(races_combined, races_split);
        assert_eq!(stats_combined, stats_split);
        assert!(stats_combined.fast_hits() > 0);
    }

    #[test]
    fn sparse_addresses_fall_back_to_the_overflow_map() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let far = (DENSE_LIMIT as Addr) + 17;
        d.write(0, far, V, &stack(1));
        d.write(t1, far, V, &stack(2));
        assert_eq!(d.races().len(), 1);
        d.forget(far);
        d.write(t1, far, V, &stack(3));
        assert_eq!(d.races().len(), 1, "forget resets the cell state");
    }

    /// A miniature host: replays a shared trace through any of the
    /// three API shapes, with an honest stack-generation scheme (the
    /// stack is a pure function of the gen, like a real host's frame
    /// stack). `sync` events are lock acquire+release pairs so epochs
    /// advance the way sync-heavy programs advance them.
    #[derive(Clone, Copy)]
    enum Ev {
        R(ThreadId, Addr, u64),
        W(ThreadId, Addr, u64),
        /// acquire+release of lock `sync` by the thread.
        Cs(ThreadId, u64),
    }

    fn drive_trace(events: &[Ev], mode: u8, cache: bool) -> (Vec<RawRace>, DetStats) {
        let mut d = Detector::new();
        d.set_sync_cache(cache);
        replay(&mut d, events, mode);
        (d.races().to_vec(), *d.stats())
    }

    fn replay(d: &mut Detector, events: &[Ev], mode: u8) {
        // mode 0: combined; 1: two-phase without gens; 2: two-phase
        // with real gens.
        let t1 = d.fork(0);
        let t2 = d.fork(0);
        assert_eq!((t1, t2), (1, 2));
        for ev in events {
            match *ev {
                Ev::Cs(t, s) => {
                    d.acquire(t, s);
                    d.release(t, s);
                }
                Ev::R(t, addr, g) => {
                    let st = vec![g as FrameId];
                    let gen = if mode == 2 {
                        StackGen::from_parts(0, g as u32)
                    } else {
                        StackGen::NONE
                    };
                    match mode {
                        0 => d.read(t, addr, V, &st),
                        _ => {
                            if d.read_fast(t, addr, gen) == FastPath::Miss {
                                d.read_slow(t, addr, V, &st, gen);
                            }
                        }
                    }
                }
                Ev::W(t, addr, g) => {
                    let st = vec![g as FrameId];
                    let gen = if mode == 2 {
                        StackGen::from_parts(0, g as u32)
                    } else {
                        StackGen::NONE
                    };
                    match mode {
                        0 => d.write(t, addr, V, &st),
                        _ => {
                            if d.write_fast(t, addr, gen) == FastPath::Miss {
                                d.write_slow(t, addr, V, &st, gen);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reset_replays_exactly_like_a_new_detector() {
        // A wide first run: many pages, read-shared states, races, exits
        // with slot reuse and a GC pass.
        let mut d = Detector::new();
        let mut wide = Vec::new();
        for i in 0..40u64 {
            let t = 1 + (i % 2) as ThreadId;
            wide.push(Ev::W(t, i * 70, i));
            wide.push(Ev::R(3 - t, i * 70, i + 1));
            wide.push(Ev::R(t, i * 70, i + 2));
        }
        replay(&mut d, &wide, 2);
        let extra = d.fork(0);
        d.write(extra, 5000, V, &stack(9));
        d.release(extra, 77);
        d.thread_exit(extra);
        d.acquire(0, 77);
        let reused = d.fork(0);
        d.read(reused, 5000, V, &stack(10));
        if let Some(f) = d.live_frontier() {
            d.collect(&f);
        }
        d.write(0, (DENSE_LIMIT + 3) as Addr, V, &stack(11));
        assert!(!d.races().is_empty() && d.shadow_bytes() > 0);

        d.reset();
        let mut fresh = Detector::new();
        for det in [&mut d, &mut fresh] {
            replay(det, &mixed_trace(), 2);
        }
        assert_eq!(d.races(), fresh.races());
        assert_eq!(d.stats(), fresh.stats());
        assert_eq!(d.shadow_stats(), fresh.shadow_stats());
        assert_eq!(d.shadow_bytes(), fresh.shadow_bytes());
        assert_eq!(d.clock_width(), fresh.clock_width());
        assert_eq!(d.live_states(), fresh.live_states());
        assert_eq!(d.thread_count(), fresh.thread_count());
        assert_eq!(d.retired_clock(), fresh.retired_clock());
    }

    /// A sync-heavy trace with same-thread streaks (owner-cache hits),
    /// cross-thread handoffs (true slow paths), a read-shared phase and
    /// a genuine race.
    fn mixed_trace() -> Vec<Ev> {
        use Ev::*;
        let mut t = Vec::new();
        // t1 and t2 increment A under the lock, in streaks.
        for round in 0..4 {
            let owner = 1 + (round % 2);
            for _ in 0..3 {
                t.push(Cs(owner, 7));
                t.push(R(owner, A, 10));
                t.push(W(owner, A, 11));
            }
        }
        // Read-shared phase on another cell, then a racy write.
        t.push(R(1, 300, 20));
        t.push(R(2, 300, 21));
        t.push(W(0, 300, 22));
        // Unsynchronised same-line loop (same-epoch fast path).
        t.push(W(0, 400, 30));
        t.push(W(0, 400, 30));
        t.push(R(0, 400, 31));
        t
    }

    /// Satellite: every access counts `events` exactly once, in every
    /// API shape — combined, two-phase, and two-phase with the
    /// lock-aware cache engaged — and races plus every *logical*
    /// counter are bit-identical across all of them.
    #[test]
    fn counter_exactness_across_api_shapes() {
        let trace = mixed_trace();
        let n_accesses = trace
            .iter()
            .filter(|e| matches!(e, Ev::R(..) | Ev::W(..)))
            .count() as u64;
        let (races0, stats0) = drive_trace(&trace, 0, true);
        let (races1, stats1) = drive_trace(&trace, 1, true);
        let (races2, stats2) = drive_trace(&trace, 2, true);
        let (races3, stats3) = drive_trace(&trace, 2, false);

        assert_eq!(stats0.events, n_accesses, "each access counts once");
        assert_eq!(races0, races1);
        assert_eq!(races0, races2, "owner cache must not change races");
        assert_eq!(races0, races3);
        assert_eq!(stats0, stats1, "two-phase ≡ combined, counter-exact");

        // With real gens the cache absorbs slow transfers, but every
        // logical counter stays bit-identical; only the new sync-hit
        // counters move.
        let logical = |s: &DetStats| {
            (
                s.events,
                s.read_fast_hits,
                s.write_fast_hits,
                s.clock_joins,
                s.clock_allocs,
                s.clock_allocs_avoided,
            )
        };
        assert_eq!(logical(&stats0), logical(&stats2));
        assert_eq!(logical(&stats0), logical(&stats3));
        assert!(stats2.sync_hits() > 0, "{stats2:?}");
        assert!(stats2.sync_epoch_hits > 0, "{stats2:?}");
        assert_eq!(stats3.sync_hits(), 0, "cache off never second-chances");
        assert_eq!(stats3.sync_epoch_hits, 0);
        // A cache hit replaces a slow transfer, never a fast hit.
        assert_eq!(stats2.fast_hits(), stats0.fast_hits());
    }

    /// The owner cache must drop out as soon as another thread touches
    /// the variable or the owner's stack generation changes.
    #[test]
    fn owner_cache_invalidates_on_ownership_or_stack_change() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let g = StackGen::from_parts(0, 5);
        let m = 7;
        d.acquire(0, m);
        assert_eq!(d.write_fast(0, A, g), FastPath::Miss);
        d.write_slow(0, A, V, &stack(5), g);
        d.release(0, m);
        // Same thread, same stack gen, epoch advanced by the release:
        // second chance.
        d.acquire(0, m);
        assert_eq!(d.write_fast(0, A, g), FastPath::CacheHit);
        d.release(0, m);
        // Same thread but a different stack gen: full slow path.
        d.acquire(0, m);
        let g2 = StackGen::from_parts(1, 5);
        assert_eq!(d.write_fast(0, A, g2), FastPath::Miss);
        d.write_slow(0, A, V, &stack(6), g2);
        d.release(0, m);
        // Another thread under the same lock: miss (ownership moved),
        // and after it the original owner misses too.
        d.acquire(t1, m);
        let gt = StackGen::from_parts(0, 9);
        assert_eq!(d.write_fast(t1, A, gt), FastPath::Miss);
        d.write_slow(t1, A, V, &stack(9), gt);
        d.release(t1, m);
        d.acquire(0, m);
        assert_eq!(d.write_fast(0, A, g2), FastPath::Miss);
        assert!(d.races().is_empty(), "properly locked: no races");
    }

    /// `StackGen::NONE` never matches a stored generation — hosts that
    /// do not track stacks can never get a stale record reused.
    #[test]
    fn none_gen_never_cache_hits() {
        let mut d = Detector::new();
        let m = 7;
        for i in 0..3 {
            d.acquire(0, m);
            assert_eq!(d.write_fast(0, A, StackGen::NONE), FastPath::Miss);
            d.write_slow(0, A, V, &stack(i), StackGen::NONE);
            d.release(0, m);
        }
        assert_eq!(d.stats().sync_hits(), 0);
    }

    /// The per-sync release epoch short-circuits self-reacquires but
    /// never a handoff that carries new information.
    #[test]
    fn sync_epoch_cache_skips_only_provable_joins() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let m = 7;
        d.acquire(0, m); // no sync state yet: no join at all
        d.release(0, m);
        let before = d.stats().sync_epoch_hits;
        d.acquire(0, m); // self-reacquire: skippable
        assert_eq!(d.stats().sync_epoch_hits, before + 1);
        d.write(0, A, V, &stack(1));
        d.release(0, m);
        // Handoff to t1: t1 has never seen 0's release epoch, so the
        // join must happen — and it is what orders the write.
        d.acquire(t1, m);
        d.write(t1, A, V, &stack(2));
        assert!(d.races().is_empty(), "handoff join must not be skipped");
        // After the join, t1 knows 0's epoch: re-acquire is skippable.
        d.release(t1, m);
        let before = d.stats().sync_epoch_hits;
        d.acquire(t1, m);
        assert_eq!(d.stats().sync_epoch_hits, before + 1);
    }

    /// Merge-releases invalidate the sync epoch: a `Wait`-style acquire
    /// after two `Done`s must always join.
    #[test]
    fn merge_release_invalidates_sync_epoch() {
        let mut d = Detector::new();
        let wg = 9;
        let t1 = d.fork(0);
        let t2 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.release(t1, wg);
        d.write(t2, 200, V, &stack(2));
        d.release_merge(t2, wg); // merge: epoch invalidated
        d.acquire(0, wg);
        d.read(0, A, V, &stack(3));
        d.read(0, 200, V, &stack(4));
        assert!(d.races().is_empty(), "merge clock must be fully joined");
    }

    /// Satellite: accesses and forgets at, below and above the
    /// dense/sparse crossover behave identically, and `forget` of a
    /// never-grown dense slot is a no-op with no stats drift.
    #[test]
    fn dense_sparse_crossover_is_seamless() {
        const LIMIT: usize = 8;
        let limit = LIMIT as Addr;
        // The same two-thread racy trace at the boundary addresses must
        // produce identical races and identical counters per address.
        let run_at = |addr: Addr| {
            let mut d = Detector::with_dense_limit(LIMIT);
            let t1 = d.fork(0);
            d.write(0, addr, V, &stack(1));
            d.write(t1, addr, V, &stack(2));
            d.read(0, addr, V, &stack(3));
            (d.races().len(), *d.stats())
        };
        let (below, s_below) = run_at(limit - 1);
        let (at, s_at) = run_at(limit);
        let (above, s_above) = run_at(limit + 1);
        assert_eq!(below, 2, "write-write + write-read");
        assert_eq!((below, s_below), (at, s_at));
        assert_eq!((below, s_below), (above, s_above));

        // forget resets each side of the boundary identically…
        let forget_roundtrip = |addr: Addr| {
            let mut d = Detector::with_dense_limit(LIMIT);
            let t1 = d.fork(0);
            d.write(0, addr, V, &stack(1));
            d.forget(addr);
            let stats_after_forget = *d.stats();
            d.write(t1, addr, V, &stack(2));
            (d.races().len(), stats_after_forget)
        };
        for addr in [limit - 1, limit, limit + 1] {
            let (races, _) = forget_roundtrip(addr);
            assert_eq!(races, 0, "forget at {addr} must reset the cell");
        }

        // …and forget never moves the stats.
        let mut d = Detector::with_dense_limit(LIMIT);
        d.write(0, 2, V, &stack(1));
        let before = *d.stats();
        d.forget(2);
        d.forget(limit - 1); // dense slot the array never grew to cover
        d.forget(limit); // sparse, never touched
        d.forget(limit + 100);
        assert_eq!(*d.stats(), before, "forget must not drift stats");
        // The never-grown dense slots stayed ungrown: everything here
        // lives on page 0, and forget must not allocate pages.
        assert!(
            d.vars.pages.len() <= 1,
            "forget must not grow the page table"
        );
        assert_eq!(
            d.vars.pages.iter().flatten().count(),
            1,
            "forget must not allocate fresh pages"
        );
        // And forgetting the never-grown slot was a true no-op: a fresh
        // access there behaves like a first access.
        let t1 = d.fork(0);
        d.write(t1, limit - 1, V, &stack(2));
        assert!(d.races().is_empty());
    }

    /// The owner cache may never cache-hit across a read-shared state.
    #[test]
    fn shared_read_state_disables_second_chance() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let g = StackGen::from_parts(0, 1);
        // Build a shared read state.
        d.read(0, A, V, &stack(1));
        d.read(t1, A, V, &stack(2));
        // Writer with a matching gen story must still take the slow
        // path (the shared clock has to be checked reader by reader).
        let m = 7;
        d.acquire(0, m);
        assert_eq!(d.write_fast(0, A, g), FastPath::Miss);
        d.write_slow(0, A, V, &stack(3), g);
        d.release(0, m);
        assert_eq!(d.races().len(), 1, "t1's read races with 0's write");
    }

    #[test]
    fn lock_handoffs_reuse_sync_clock_buffers() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        let m = 7;
        for _ in 0..4 {
            d.acquire(0, m);
            d.release(0, m);
            d.acquire(t1, m);
            d.release(t1, m);
        }
        let s = d.stats();
        // Only the very first release allocates; every later release
        // reuses the buffer, and every acquire joins in place.
        assert_eq!(s.clock_allocs, 2, "fork clone + first release");
        assert!(s.clock_allocs_avoided >= 14, "{s:?}");
    }

    /// Satellite: a race is still detected (with the right thread id
    /// and stack) after the racing goroutine exited — the stored
    /// access record plus the retired-clock accumulator preserve the
    /// unhappened-before edge past the clock slot's death.
    #[test]
    fn race_detected_after_racing_thread_exited() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.thread_exit(t1); // no join: the write stays unordered
        assert!(d.races().is_empty());
        d.write(0, A, V, &stack(2));
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].prev.tid, t1, "report names the dead thread");
        assert_eq!(d.races()[0].prev.stack, stack(1));
        // The accumulator kept everything the dead ever published.
        assert!(d.retired_clock().get(1) > 0);
    }

    /// Satellite: exit-then-spawn reuses the dead thread's clock slot
    /// when (and only when) the exit is ordered before the fork, so
    /// clock width tracks live threads while external ids stay dense.
    #[test]
    fn exit_then_spawn_reuses_clock_slot() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.join_thread(0, t1); // exit ordered before everything later
        d.thread_exit(t1);
        assert_eq!(d.clock_width(), 2);
        let t2 = d.fork(0);
        assert_eq!(t2, 2, "external thread ids are never reused");
        assert_eq!(d.clock_width(), 2, "t2 reuses t1's clock slot");
        assert_eq!(d.shadow_stats().clock_slots_reclaimed, 1);
        // The join edge survives the slot handoff: t2's write to A is
        // ordered after t1's, and t1-vs-t2 stays two distinct threads
        // in every report-facing API.
        d.write(t2, A, V, &stack(2));
        assert!(d.races().is_empty(), "join edge must survive slot reuse");
    }

    /// The canonical VM exit shape: the worker's last event is a
    /// release (`wg.Done`, channel send), which ticks its clock *after*
    /// snapshotting — so the final clock is strictly above everything
    /// the waiter can ever learn. Eligibility keys on the *published*
    /// own-epoch instead, and must fire here.
    #[test]
    fn release_then_exit_is_reusable_after_acquire() {
        let wg = 5;
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.release_merge(t1, wg); // wg.Done — ticks t1 past the snapshot
        d.thread_exit(t1);
        // Before the waiter synchronises, the slot is not reusable.
        let t2 = d.fork(0);
        assert_eq!(d.clock_width(), 3, "pre-Wait fork must not reuse");
        // After wg.Wait, everything t1 published is covered.
        d.acquire(0, wg);
        let t3 = d.fork(0);
        assert_eq!(d.clock_width(), 3, "post-Wait fork reuses t1's slot");
        assert_eq!(d.shadow_stats().clock_slots_reclaimed, 1);
        // HB edges stay exact: t3 is ordered after t1's write (via the
        // wait-group), t2 is not.
        d.write(t3, A, V, &stack(3));
        assert!(d.races().is_empty(), "wg edge must survive slot reuse");
        d.write(t2, A, V, &stack(2));
        assert_eq!(d.races().len(), 1, "t2 still races with t3's write");
    }

    /// An *unsynchronised* exit is not eligible for reuse — handing the
    /// slot to a concurrent sibling would manufacture a false
    /// happens-before edge, so the width grows instead.
    #[test]
    fn unsynchronised_exit_is_not_reused() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        d.thread_exit(t1); // no join
        let t2 = d.fork(0);
        assert_eq!(d.clock_width(), 3, "concurrent sibling gets a fresh slot");
        assert_eq!(d.shadow_stats().clock_slots_reclaimed, 0);
        d.write(t2, A, V, &stack(2));
        assert_eq!(d.races().len(), 1, "t1 and t2 are concurrent");
        assert_eq!(d.races()[0].prev.tid, t1);
    }

    /// Satellite: on a single address, `collect` with a valid frontier
    /// is equivalent to the host asserting deadness via `forget` — same
    /// post-state, same (zero) logical stats movement, and a later
    /// access behaves like a first access in both.
    #[test]
    fn forget_and_collect_agree_on_a_single_address() {
        let run = |use_collect: bool| {
            let mut d = Detector::new();
            let t1 = d.fork(0);
            d.write(t1, A, V, &stack(1));
            // Tick past the access and order the exit before main's
            // future, making the state provably dead.
            d.acquire(t1, 7);
            d.release(t1, 7);
            d.join_thread(0, t1);
            d.thread_exit(t1);
            let logical = *d.stats();
            if use_collect {
                let f = d.live_frontier().expect("main is live");
                assert_eq!(d.collect(&f), 1, "exactly the one state dies");
            } else {
                d.forget(A);
            }
            assert_eq!(*d.stats(), logical, "lifecycle must not move stats");
            assert_eq!(d.live_states(), 0);
            // Fresh access: first-access behaviour, no race against the
            // discarded write.
            let t2 = d.fork(0);
            d.write(t2, A, V, &stack(2));
            (d.races().to_vec(), *d.stats())
        };
        assert_eq!(run(true), run(false));
    }

    /// A state at a *live* thread's current epoch must survive any
    /// collect — retiring it would break the same-epoch hit stream and
    /// drift the logical counters.
    #[test]
    fn collect_spares_live_frontier_states() {
        let mut d = Detector::new();
        let t1 = d.fork(0);
        d.write(t1, A, V, &stack(1));
        let f = d.live_frontier().expect("live threads exist");
        assert_eq!(d.collect(&f), 0, "current-epoch state is not dead");
        assert_eq!(d.live_states(), 1);
        // The epoch fast path still hits.
        d.write(t1, A, V, &stack(1));
        assert_eq!(d.stats().write_fast_hits, 1);
    }

    /// Dense pages whose every state died are freed, and the byte
    /// estimator shrinks accordingly.
    #[test]
    fn collect_frees_dead_pages() {
        let n = 2 * PAGE_SIZE as Addr;
        let mut d = Detector::new();
        let t1 = d.fork(0);
        for a in 0..n {
            d.write(t1, a, V, &stack(1));
        }
        assert_eq!(d.live_states(), n);
        let bytes_full = d.shadow_bytes();
        d.acquire(t1, 7);
        d.release(t1, 7); // tick past the writes
        d.join_thread(0, t1);
        d.thread_exit(t1);
        let f = d.live_frontier().expect("main is live");
        assert_eq!(d.collect(&f), n);
        assert_eq!(d.live_states(), 0);
        assert_eq!(d.shadow_stats().pages_freed, 2);
        assert!(
            d.shadow_bytes() < bytes_full / 4,
            "freed pages must shrink the footprint ({} vs {})",
            d.shadow_bytes(),
            bytes_full
        );
    }

    /// Collecting mid-trace with the live frontier is logically
    /// invisible: identical races and identical `DetStats` against an
    /// uncollected reference replay, in both API shapes.
    #[test]
    fn collect_is_logically_invisible_on_traces() {
        let trace = mixed_trace();
        for mode in [0u8, 2] {
            let (races_ref, stats_ref) = drive_trace(&trace, mode, true);
            let mut d = Detector::new();
            d.set_sync_cache(true);
            let t1 = d.fork(0);
            let t2 = d.fork(0);
            assert_eq!((t1, t2), (1, 2));
            for (i, ev) in trace.iter().enumerate() {
                match *ev {
                    Ev::Cs(t, s) => {
                        d.acquire(t, s);
                        d.release(t, s);
                    }
                    Ev::R(t, addr, g) => {
                        let gen = if mode == 2 {
                            StackGen::from_parts(0, g as u32)
                        } else {
                            StackGen::NONE
                        };
                        match mode {
                            0 => d.read(t, addr, V, &[g as FrameId]),
                            _ => {
                                if d.read_fast(t, addr, gen) == FastPath::Miss {
                                    d.read_slow(t, addr, V, &[g as FrameId], gen);
                                }
                            }
                        }
                    }
                    Ev::W(t, addr, g) => {
                        let gen = if mode == 2 {
                            StackGen::from_parts(0, g as u32)
                        } else {
                            StackGen::NONE
                        };
                        match mode {
                            0 => d.write(t, addr, V, &[g as FrameId]),
                            _ => {
                                if d.write_fast(t, addr, gen) == FastPath::Miss {
                                    d.write_slow(t, addr, V, &[g as FrameId], gen);
                                }
                            }
                        }
                    }
                }
                if i % 3 == 2 {
                    let f = d.live_frontier().expect("all threads live");
                    d.collect(&f);
                }
            }
            assert_eq!(d.races().to_vec(), races_ref, "mode {mode}");
            assert_eq!(*d.stats(), stats_ref, "mode {mode}");
            assert!(d.shadow_stats().collect_passes > 0);
        }
    }
}
