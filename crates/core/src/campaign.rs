//! Campaign orchestration (§2.2 at deployment scale): streaming 10k+
//! generated cases through sharded, work-stealing, stage-pipelined
//! execution with snapshot/resume — the fix service's "real service
//! surface", driven by the `campaignctl` bin.
//!
//! # Shape
//!
//! ```text
//!  CorpusStream ──► [detect ×W] ──► [diagnose] ──► [fix ×W] ──► [validate ×W] ──► collector
//!   (on demand)         │ claim from sharded queues,                │                 │ fold in
//!                       │ steal when home shard drains              │ zero VM         │ index order,
//!                       ▼                                           ▼ (tournament     ▼ checkpoint
//!                  shard cursors                                     pool build)   per-shard digests
//! ```
//!
//! Four stages over bounded `std::sync::mpsc::sync_channel` links
//! inside one `std::thread::scope`: validation of case `N` overlaps
//! detection of case `N+k`. Cases are synthesized on demand from a
//! [`CorpusStream`] — the corpus never materializes; the only resident
//! case sources are the in-flight window, whose byte high-water the run
//! measures ([`CampaignMetrics::peak_resident_case_bytes`]).
//!
//! # Determinism
//!
//! Results are **bit-identical to the serial reference at any
//! shard/worker count** because every quantity that reaches the digest
//! is a pure function of `(config, case index)`:
//!
//! 1. case sources come from the stream's per-index RNG
//!    (`splitmix64(seed ⊕ salt ⊕ splitmix64(i))`);
//! 2. the pipeline seed is [`derive_case_seed`]`(pipeline.seed, i)` —
//!    the same derivation the PR 2 fleet uses — so detection and
//!    validation schedules never observe claim order;
//! 3. the collector folds outcomes into per-shard FNV-1a digests in
//!    strict index order, whatever order workers deliver them.
//!
//! Work-stealing therefore changes *wall-clock placement only*; an A/B
//! test (`tests/campaign_ab.rs`) pins serial ≡ pipelined digests.
//!
//! # Snapshot / resume
//!
//! Every `checkpoint_every` folded cases per shard the collector
//! serializes a [`Snapshot`] — per-shard cursors, digests, and
//! [`StopReason`] tallies plus a config fingerprint — via
//! temp-file-and-rename. A killed campaign resumes from the contiguous
//! folded frontier of each shard: finished work is never recomputed,
//! and because outcomes are index-pure the resumed digests match an
//! uninterrupted run exactly (proven by a proptest over random kill
//! points in `tests/campaign_resume.rs`).

use crate::fleet::{derive_case_seed, fnv1a64_fold, FNV1A_OFFSET};
use crate::pipeline::{DrFix, FixOutcome, PipelineConfig};
use crate::raceinfo;
use corpus::stream::{CorpusStream, StreamConfig};
use corpus::RaceCase;
use govm::{CompileOptions, StopReason};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Schema of campaign snapshots and metrics reports (matches the
/// perfscan report schema this PR bumps to v6).
pub const CAMPAIGN_SCHEMA: u32 = 6;

/// Stage names, in pipeline order (index into the per-stage metrics).
pub const STAGES: [&str; 4] = ["detect", "diagnose", "fix", "validate"];

/// What the campaign does with each case after detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignMode {
    /// Detection only — the monitoring-service shape (HardRace's
    /// deployment argument): every case is generated, compiled, and
    /// campaigned for races; nothing is fixed. This is the mode that
    /// scales to 10k+ cases.
    Detect,
    /// The full fix service: detect → diagnose → fix → validate. With a
    /// tournament configured the fix stage is purely static (candidate
    /// pool + lint repair) and all VM work concentrates in detect and
    /// validate; without one, fix and validate fuse into one stage
    /// (the single-path loop interleaves them by design).
    Fix,
}

impl CampaignMode {
    /// Stable lowercase name (CLI value, snapshot field).
    pub fn name(&self) -> &'static str {
        match self {
            CampaignMode::Detect => "detect",
            CampaignMode::Fix => "fix",
        }
    }

    /// Parses a name produced by [`CampaignMode::name`].
    pub fn parse(s: &str) -> Option<CampaignMode> {
        match s {
            "detect" => Some(CampaignMode::Detect),
            "fix" => Some(CampaignMode::Fix),
            _ => None,
        }
    }
}

/// Full configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total cases (the stream indices `0..cases`).
    pub cases: usize,
    /// Work-queue shards; each owns a contiguous index range.
    pub shards: usize,
    /// Worker threads per parallel stage. `1` selects the serial
    /// reference executor (no threads, no channels) whose digests every
    /// pipelined run must reproduce.
    pub workers: usize,
    /// Detect-only or full-fix (see [`CampaignMode`]).
    pub mode: CampaignMode,
    /// The streamed corpus (family + seed) cases are drawn from.
    pub stream: StreamConfig,
    /// Pipeline configuration; `pipeline.seed` is the base the per-case
    /// seeds derive from.
    pub pipeline: PipelineConfig,
    /// Folded cases per shard between snapshot writes.
    pub checkpoint_every: usize,
    /// Deterministic in-process kill switch: stop claiming new cases
    /// after this many checkpoints have been written, drain the
    /// pipeline, and exit with an interrupted snapshot. This is how the
    /// smoke test and the resume proptest kill a campaign at a
    /// checkpoint without process gymnastics.
    pub halt_after_checkpoints: Option<u64>,
    /// Bound on cases in flight (claimed but not folded). Caps resident
    /// case bytes and the collector's reorder buffers at O(this),
    /// independent of `cases`. `0` picks `max(4 × workers, 16)`.
    pub max_in_flight: usize,
}

impl CampaignConfig {
    /// A detect-mode campaign over `cases` indices of `stream`.
    pub fn new(cases: usize, shards: usize, stream: StreamConfig) -> Self {
        CampaignConfig {
            cases,
            shards: shards.max(1),
            workers: 1,
            mode: CampaignMode::Detect,
            stream,
            pipeline: PipelineConfig::default(),
            checkpoint_every: 64,
            halt_after_checkpoints: None,
            max_in_flight: 0,
        }
    }

    /// The effective in-flight bound (resolves the `0` default).
    pub fn in_flight_limit(&self) -> usize {
        if self.max_in_flight > 0 {
            self.max_in_flight
        } else {
            (4 * self.workers.max(1)).max(16)
        }
    }

    /// Fingerprint of everything that determines outcomes: cases,
    /// sharding, stream, mode, and the pipeline config. **Not**
    /// included: worker count, in-flight bound, halt switch — those
    /// change wall-clock placement only, and a snapshot taken at 2
    /// workers must resume at 8.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        for v in [
            self.cases as u64,
            self.shards as u64,
            self.checkpoint_every as u64,
            self.stream.seed,
        ] {
            h = fnv1a64_fold(h, &v.to_le_bytes());
        }
        h = fnv1a64_fold(h, self.stream.family.name().as_bytes());
        h = fnv1a64_fold(h, self.mode.name().as_bytes());
        // The pipeline config has no serde form; its Debug rendering is
        // deterministic and covers every outcome-relevant knob.
        h = fnv1a64_fold(h, format!("{:?}", self.pipeline).as_bytes());
        h
    }
}

/// The compact, digestible outcome of one case — everything the
/// campaign keeps per case (the full [`FixOutcome`] with its patched
/// sources is dropped at fold time; memory stays O(in-flight)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// Stream index.
    pub index: usize,
    /// Why the detection campaign stopped.
    pub stop: StopReason,
    /// Whether detection exposed a race.
    pub raced: bool,
    /// Whether the fix arm produced a validated patch (always `false`
    /// in detect mode).
    pub fixed: bool,
    /// LLM calls spent (fix mode).
    pub llm_calls: u32,
    /// Validation campaigns run (fix mode).
    pub validations: u32,
    /// Candidates rejected by the static gate (fix mode).
    pub rejected_static: u32,
    /// VM instructions spent detecting.
    pub detect_vm_steps: u64,
    /// VM instructions spent validating (fix mode).
    pub validation_vm_steps: u64,
    /// Detector shadow-memory high-water during detection.
    pub peak_shadow_bytes: u64,
    /// Changed-line count of the accepted patch (0 = none).
    pub patch_loc: u64,
    /// FNV-1a of the reproduced race's bug hash (0 = no race).
    pub bug_fnv: u64,
}

fn stop_code(s: StopReason) -> u8 {
    match s {
        StopReason::Completed => 0,
        StopReason::RaceExposed => 1,
        StopReason::DedupSaturated => 2,
        StopReason::BudgetExhausted => 3,
    }
}

/// Folds one outcome into a running FNV-1a digest. Field order is part
/// of the digest contract: snapshots store the folded value, so
/// reordering fields here invalidates old snapshots (bump
/// [`CAMPAIGN_SCHEMA`] if you must).
pub fn fold_outcome(digest: u64, o: &CaseOutcome) -> u64 {
    let mut h = digest;
    for v in [
        o.index as u64,
        u64::from(stop_code(o.stop)),
        u64::from(o.raced),
        u64::from(o.fixed),
        u64::from(o.llm_calls),
        u64::from(o.validations),
        u64::from(o.rejected_static),
        o.detect_vm_steps,
        o.validation_vm_steps,
        o.peak_shadow_bytes,
        o.patch_loc,
        o.bug_fnv,
    ] {
        h = fnv1a64_fold(h, &v.to_le_bytes());
    }
    h
}

/// Running outcome totals — the campaign's answer sheet, additive
/// across shards and preserved exactly by snapshot/resume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tallies {
    /// Cases folded.
    pub cases: u64,
    /// Cases whose detection exposed a race.
    pub raced: u64,
    /// Cases fixed (fix mode).
    pub fixed: u64,
    /// Detection campaigns stopped by [`StopReason::Completed`].
    pub stop_completed: u64,
    /// … by [`StopReason::RaceExposed`].
    pub stop_race_exposed: u64,
    /// … by [`StopReason::DedupSaturated`].
    pub stop_dedup_saturated: u64,
    /// … by [`StopReason::BudgetExhausted`].
    pub stop_budget_exhausted: u64,
    /// LLM calls spent.
    pub llm_calls: u64,
    /// Validation campaigns run.
    pub validations: u64,
    /// Static-gate rejections.
    pub rejected_static: u64,
    /// VM instructions spent detecting.
    pub detect_vm_steps: u64,
    /// VM instructions spent validating.
    pub validation_vm_steps: u64,
    /// Max per-case detector shadow high-water (a gauge: max, not sum).
    pub peak_shadow_bytes: u64,
}

impl Tallies {
    fn add(&mut self, o: &CaseOutcome) {
        self.cases += 1;
        self.raced += u64::from(o.raced);
        self.fixed += u64::from(o.fixed);
        match o.stop {
            StopReason::Completed => self.stop_completed += 1,
            StopReason::RaceExposed => self.stop_race_exposed += 1,
            StopReason::DedupSaturated => self.stop_dedup_saturated += 1,
            StopReason::BudgetExhausted => self.stop_budget_exhausted += 1,
        }
        self.llm_calls += u64::from(o.llm_calls);
        self.validations += u64::from(o.validations);
        self.rejected_static += u64::from(o.rejected_static);
        self.detect_vm_steps += o.detect_vm_steps;
        self.validation_vm_steps += o.validation_vm_steps;
        self.peak_shadow_bytes = self.peak_shadow_bytes.max(o.peak_shadow_bytes);
    }

    /// Merges another shard's totals into this one.
    pub fn merge(&mut self, other: &Tallies) {
        self.cases += other.cases;
        self.raced += other.raced;
        self.fixed += other.fixed;
        self.stop_completed += other.stop_completed;
        self.stop_race_exposed += other.stop_race_exposed;
        self.stop_dedup_saturated += other.stop_dedup_saturated;
        self.stop_budget_exhausted += other.stop_budget_exhausted;
        self.llm_calls += other.llm_calls;
        self.validations += other.validations;
        self.rejected_static += other.rejected_static;
        self.detect_vm_steps += other.detect_vm_steps;
        self.validation_vm_steps += other.validation_vm_steps;
        self.peak_shadow_bytes = self.peak_shadow_bytes.max(other.peak_shadow_bytes);
    }
}

/// One shard's durable state: its index range, the contiguous folded
/// frontier, and the digest/tallies over the folded prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardProgress {
    /// First index owned (inclusive).
    pub start: usize,
    /// One past the last index owned.
    pub end: usize,
    /// Folded cases: indices `start .. start+done` are final.
    pub done: usize,
    /// FNV-1a digest over the folded prefix, in index order.
    pub digest: u64,
    /// Outcome totals over the folded prefix.
    pub tallies: Tallies,
}

impl ShardProgress {
    fn fresh(start: usize, end: usize) -> Self {
        ShardProgress {
            start,
            end,
            done: 0,
            digest: FNV1A_OFFSET,
            tallies: Tallies::default(),
        }
    }

    /// Cases this shard owns.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the shard owns no indices.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Contiguous equal partition of `0..cases` into `shards` ranges.
pub fn partition(cases: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let chunk = cases.div_ceil(shards).max(1);
    (0..shards)
        .map(|i| ((i * chunk).min(cases), ((i + 1) * chunk).min(cases)))
        .collect()
}

/// The durable campaign state: what a checkpoint writes and a resume
/// reads. Serialized as JSON via temp-file-and-rename, so a kill during
/// the write leaves the previous snapshot intact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot schema ([`CAMPAIGN_SCHEMA`]).
    pub schema: u32,
    /// [`CampaignConfig::fingerprint`] of the run that wrote it; resume
    /// refuses a snapshot whose fingerprint does not match.
    pub fingerprint: u64,
    /// Stream family name (informational; covered by the fingerprint).
    pub family: String,
    /// Campaign mode name (informational; covered by the fingerprint).
    pub mode: String,
    /// Total cases of the campaign.
    pub cases: usize,
    /// Per-shard progress.
    pub shards: Vec<ShardProgress>,
    /// `true` once every shard folded its full range.
    pub completed: bool,
}

impl Snapshot {
    fn fresh(cfg: &CampaignConfig) -> Self {
        Snapshot {
            schema: CAMPAIGN_SCHEMA,
            fingerprint: cfg.fingerprint(),
            family: cfg.stream.family.name().to_owned(),
            mode: cfg.mode.name().to_owned(),
            cases: cfg.cases,
            shards: partition(cfg.cases, cfg.shards)
                .into_iter()
                .map(|(s, e)| ShardProgress::fresh(s, e))
                .collect(),
            completed: cfg.cases == 0,
        }
    }

    /// Cases folded across all shards.
    pub fn done(&self) -> usize {
        self.shards.iter().map(|s| s.done).sum()
    }

    /// Merged outcome totals across all shards.
    pub fn tallies(&self) -> Tallies {
        let mut t = Tallies::default();
        for s in &self.shards {
            t.merge(&s.tallies);
        }
        t
    }

    /// The campaign digest: per-shard digests folded in shard order.
    /// Bit-identical across worker counts, kills, and resumes.
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        for s in &self.shards {
            h = fnv1a64_fold(h, &s.digest.to_le_bytes());
        }
        h
    }

    /// Writes the snapshot atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot written by [`Snapshot::save`].
    pub fn load(path: &Path) -> std::io::Result<Snapshot> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The machine-readable progress/metrics report (schema v6) a campaign
/// emits: per-stage throughput, queue/steal accounting, and the
/// bounded-memory evidence. Deterministic fields (everything but the
/// wall-clock and busy-seconds floats and the threaded-only channel
/// gauges) replay bit-identically on the serial executor — that is what
/// the perfscan campaign section exact-gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Report schema ([`CAMPAIGN_SCHEMA`]).
    pub schema: u32,
    /// Cases folded by this run (excludes resumed-over work).
    pub cases_done: u64,
    /// Wall-clock seconds — reported, never gated.
    pub wall_seconds: f64,
    /// Cases processed per stage, pipeline order (see [`STAGES`]).
    pub stage_cases: Vec<u64>,
    /// Per-stage busy seconds: the time spent inside the stage's work on
    /// each case, summed over the stage's workers. Waiting on a channel,
    /// the claim gate or a hand-off is not busy time, so a stage's share
    /// of the sum is its share of the work.
    pub stage_busy_seconds: Vec<f64>,
    /// Successful claims from the sharded queues.
    pub queue_pops: u64,
    /// Claims served by a non-home shard (work-stealing).
    pub steals: u64,
    /// Shard queues examined across all claims (probe count).
    pub steal_probes: u64,
    /// High-water depth of each inter-stage channel (threaded runs
    /// only; the serial executor has no channels and reports zeros).
    pub channel_peak_depth: Vec<u64>,
    /// High-water of cases in flight (claimed, not folded) — must stay
    /// ≤ the configured in-flight limit.
    pub peak_in_flight: u64,
    /// High-water of the collector's reorder buffer (≤ peak_in_flight).
    pub peak_pending: u64,
    /// High-water of resident generated case bytes — the
    /// never-materializes proof: independent of campaign length.
    pub peak_resident_case_bytes: u64,
    /// Result-collection instructions: outcomes folded into digests.
    pub folds: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Merged outcome totals for the folded prefix (whole campaign,
    /// including resumed-over shards — read from the snapshot).
    pub tallies: Tallies,
}

impl CampaignMetrics {
    /// Cases/second through stage `i` (by its busy time, waits excluded).
    pub fn stage_rate(&self, i: usize) -> f64 {
        let busy = self.stage_busy_seconds.get(i).copied().unwrap_or(0.0);
        let cases = self.stage_cases.get(i).copied().unwrap_or(0);
        if busy > 0.0 {
            cases as f64 / busy
        } else {
            0.0
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cases in {:.2}s — {:.1} cases/s | pops {} steals {} folds {} | in-flight ≤{} resident ≤{}B",
            self.cases_done,
            self.wall_seconds,
            if self.wall_seconds > 0.0 {
                self.cases_done as f64 / self.wall_seconds
            } else {
                0.0
            },
            self.queue_pops,
            self.steals,
            self.folds,
            self.peak_in_flight,
            self.peak_resident_case_bytes,
        )
    }
}

/// What [`run_campaign`] returns.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Final durable state (also written to the snapshot path, if any).
    pub snapshot: Snapshot,
    /// This run's metrics report.
    pub metrics: CampaignMetrics,
    /// `true` when the halt switch stopped the campaign early.
    pub interrupted: bool,
}

// ── Work distribution ────────────────────────────────────────────────

/// Sharded claim queues with work-stealing: each shard is an atomic
/// cursor over its contiguous range; a worker drains its home shard,
/// then probes the others in cyclic order. Which worker claims an index
/// affects *placement only* — the case content and seeds depend on the
/// index alone.
struct ShardQueues {
    next: Vec<AtomicUsize>,
    ends: Vec<usize>,
    pops: AtomicU64,
    steals: AtomicU64,
    probes: AtomicU64,
}

impl ShardQueues {
    fn from_snapshot(snap: &Snapshot) -> Self {
        ShardQueues {
            next: snap
                .shards
                .iter()
                .map(|s| AtomicUsize::new(s.start + s.done))
                .collect(),
            ends: snap.shards.iter().map(|s| s.end).collect(),
            pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// Claims the next index, preferring the `home` shard. Returns the
    /// index, its owning shard, and whether the claim was a steal.
    fn claim(&self, home: usize) -> Option<(usize, usize)> {
        let n = self.ends.len();
        for off in 0..n {
            let s = (home + off) % n;
            self.probes.fetch_add(1, Ordering::Relaxed);
            let i = self.next[s].fetch_add(1, Ordering::Relaxed);
            if i < self.ends[s] {
                self.pops.fetch_add(1, Ordering::Relaxed);
                if off > 0 {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some((i, s));
            }
            // Overshot an exhausted shard: the cursor stays past `end`,
            // which later claims read as empty. Nothing to undo.
        }
        None
    }
}

/// The claim gate: bounds cases in flight (claimed but not folded) so
/// pipelining can never buffer O(cases) anywhere. Workers block here
/// when the window is full and are woken by folds — or by a halt.
struct Gate {
    st: Mutex<GateSt>,
    cv: Condvar,
    limit: usize,
}

struct GateSt {
    in_flight: usize,
    peak: usize,
    halted: bool,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Gate {
            st: Mutex::new(GateSt {
                in_flight: 0,
                peak: 0,
                halted: false,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Takes one in-flight slot; `false` means the campaign halted.
    fn acquire(&self) -> bool {
        let mut st = self.st.lock().expect("gate poisoned");
        loop {
            if st.halted {
                return false;
            }
            if st.in_flight < self.limit {
                st.in_flight += 1;
                st.peak = st.peak.max(st.in_flight);
                return true;
            }
            st = self.cv.wait(st).expect("gate poisoned");
        }
    }

    /// Returns one slot (called per folded case).
    fn release(&self) {
        let mut st = self.st.lock().expect("gate poisoned");
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    /// Halts the campaign: wakes every blocked claimer to exit.
    fn halt(&self) {
        self.st.lock().expect("gate poisoned").halted = true;
        self.cv.notify_all();
    }

    fn peak(&self) -> usize {
        self.st.lock().expect("gate poisoned").peak
    }
}

// ── Stages ───────────────────────────────────────────────────────────

/// One case moving through the pipeline. Stages consume their payload
/// as they go: the generated sources are dropped (and their bytes
/// un-charged) the moment no later stage needs them.
struct Item {
    index: usize,
    shard: usize,
    bytes: u64,
    stop: StopReason,
    detect_vm_steps: u64,
    peak_shadow_bytes: u64,
    bug_fnv: u64,
    test: String,
    case: Option<RaceCase>,
    report: Option<racedet::RaceReport>,
    info: Option<raceinfo::RaceInfo>,
    build: Option<crate::tournament::PoolBuild>,
    fix: Option<FixOutcome>,
}

fn per_case_cfg(cfg: &CampaignConfig, index: usize) -> PipelineConfig {
    let mut p = cfg.pipeline.clone();
    p.seed = derive_case_seed(cfg.pipeline.seed, index as u64);
    p
}

/// Resident-case-bytes accounting: `add` on generation, `sub` when the
/// sources drop; `peak` is observed via `fetch_max` after every add.
struct Resident {
    now: AtomicU64,
    peak: AtomicU64,
}

impl Resident {
    fn new() -> Self {
        Resident {
            now: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn add(&self, bytes: u64) {
        let now = self.now.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        self.now.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Stage 1 — detect: synthesize the case from the stream and run the
/// detection campaign (the only stage that touches the scheduler in
/// detect mode).
fn stage_detect(cfg: &CampaignConfig, stream: &CorpusStream, index: usize, shard: usize) -> Item {
    let case = stream.case(index);
    let bytes = CorpusStream::case_bytes(&case);
    let drfix = DrFix::new(per_case_cfg(cfg, index), None);
    let detected = govm::compile_sources(&case.files, &CompileOptions::default())
        .ok()
        .map(|prog| drfix.detect_outcome(&prog, &case.test));
    let (stop, steps, shadow, report) = match detected {
        Some(out) => (
            out.stop,
            out.counters.vm_steps,
            out.counters.peak_shadow_bytes,
            out.races.into_iter().next(),
        ),
        // Synthetic cases always compile; a failure still folds as a
        // zero-step completed campaign rather than crashing the fleet.
        None => (StopReason::Completed, 0, 0, None),
    };
    let bug_fnv = report
        .as_ref()
        .map(|r| fnv1a64_fold(FNV1A_OFFSET, r.bug_hash().as_bytes()))
        .unwrap_or(0);
    Item {
        index,
        shard,
        bytes,
        stop,
        detect_vm_steps: steps,
        peak_shadow_bytes: shadow,
        bug_fnv,
        test: case.test.clone(),
        case: Some(case),
        report,
        info: None,
        build: None,
        fix: None,
    }
}

/// Stage 2 — diagnose: extract fix locations from the race report (one
/// parse of each case file).
fn stage_diagnose(item: &mut Item) {
    if let (Some(report), Some(case)) = (&item.report, &item.case) {
        item.info = Some(raceinfo::extract(report, &case.files));
    }
}

/// Stage 3 — fix: run the fix arm's static half over the stage's one
/// parse of the case sources. With a tournament this is candidate
/// enumeration + lint repair (zero VM steps); the single-path loop
/// interleaves generation and validation by design, so it runs whole
/// here and stage 4 passes it through. The ASTs, then the case sources,
/// are dropped at the end — later stages never need them.
fn stage_fix(cfg: &CampaignConfig, item: &mut Item, resident: &Resident) {
    if cfg.mode == CampaignMode::Fix {
        let drfix = DrFix::new(per_case_cfg(cfg, item.index), None);
        match (&item.case, &item.info) {
            (Some(case), Some(info)) => {
                // A raced case compiled, so its sources parse.
                let parsed = golite::parse_sources(&case.files).unwrap_or_default();
                match &drfix.config().tournament {
                    Some(tcfg) => item.build = Some(drfix.tournament_pool(&parsed, info, tcfg)),
                    None => item.fix = Some(drfix.fix_single_path(&parsed, &case.test, info)),
                }
            }
            _ => item.fix = Some(DrFix::unreproduced_outcome()),
        }
    }
    if item.case.take().is_some() {
        resident.sub(item.bytes);
    }
}

/// Stage 4 — validate: the tournament's dynamic half (rank survivors,
/// campaign them, crown the winner), then compact the outcome.
fn stage_validate(cfg: &CampaignConfig, mut item: Item) -> (usize, CaseOutcome) {
    if let Some(build) = item.build.take() {
        let pcfg = per_case_cfg(cfg, item.index);
        let tcfg = pcfg
            .tournament
            .clone()
            .expect("pool build without tournament config");
        let info = item.info.as_ref().expect("pool build without race info");
        let drfix = DrFix::new(pcfg, None);
        item.fix = Some(drfix.tournament_decide(&item.test, info, &tcfg, build));
    }
    let o = match &item.fix {
        Some(f) => CaseOutcome {
            index: item.index,
            stop: item.stop,
            raced: item.report.is_some(),
            fixed: f.fixed,
            llm_calls: f.llm_calls,
            validations: f.validations,
            rejected_static: f.rejected_static,
            detect_vm_steps: item.detect_vm_steps,
            validation_vm_steps: f.validation_vm_steps,
            peak_shadow_bytes: item.peak_shadow_bytes,
            patch_loc: f.patch_loc.unwrap_or(0) as u64,
            bug_fnv: item.bug_fnv,
        },
        None => CaseOutcome {
            index: item.index,
            stop: item.stop,
            raced: item.report.is_some(),
            fixed: false,
            llm_calls: 0,
            validations: 0,
            rejected_static: 0,
            detect_vm_steps: item.detect_vm_steps,
            validation_vm_steps: 0,
            peak_shadow_bytes: item.peak_shadow_bytes,
            patch_loc: 0,
            bug_fnv: item.bug_fnv,
        },
    };
    (item.shard, o)
}

// ── Collection ───────────────────────────────────────────────────────

/// The collector: reorders arrivals per shard, folds the contiguous
/// frontier into digests/tallies, and writes checkpoints. Outcomes
/// beyond the frontier wait in bounded buffers (the claim gate caps
/// them); on a halt, unfolded stragglers are discarded — a resume
/// recomputes them deterministically.
struct Collector<'a> {
    cfg: &'a CampaignConfig,
    snap: Snapshot,
    pending: Vec<BTreeMap<usize, CaseOutcome>>,
    pending_len: usize,
    peak_pending: usize,
    folds: u64,
    checkpoints: u64,
    since: Vec<usize>,
    snapshot_path: Option<&'a Path>,
    halted: bool,
}

impl<'a> Collector<'a> {
    fn new(cfg: &'a CampaignConfig, snap: Snapshot, snapshot_path: Option<&'a Path>) -> Self {
        let shards = snap.shards.len();
        Collector {
            cfg,
            snap,
            pending: (0..shards).map(|_| BTreeMap::new()).collect(),
            pending_len: 0,
            peak_pending: 0,
            folds: 0,
            checkpoints: 0,
            since: vec![0; shards],
            snapshot_path,
            halted: false,
        }
    }

    /// Accepts one outcome; folds everything it makes contiguous.
    /// Returns how many cases were folded (gate slots to release).
    fn accept(&mut self, shard: usize, o: CaseOutcome) -> usize {
        self.pending[shard].insert(o.index, o);
        self.pending_len += 1;
        self.peak_pending = self.peak_pending.max(self.pending_len);
        let mut newly = 0;
        loop {
            let frontier = self.snap.shards[shard].start + self.snap.shards[shard].done;
            let Some(o) = self.pending[shard].remove(&frontier) else {
                break;
            };
            self.pending_len -= 1;
            let sp = &mut self.snap.shards[shard];
            sp.digest = fold_outcome(sp.digest, &o);
            sp.tallies.add(&o);
            sp.done += 1;
            self.folds += 1;
            self.since[shard] += 1;
            newly += 1;
            if self.since[shard] >= self.cfg.checkpoint_every.max(1) {
                self.since[shard] = 0;
                self.checkpoint();
            }
        }
        newly
    }

    fn checkpoint(&mut self) {
        self.checkpoints += 1;
        self.snap.completed = self.snap.done() == self.snap.cases;
        if let Some(path) = self.snapshot_path {
            // A failed checkpoint write is not fatal mid-run; the final
            // save reports the error.
            let _ = self.snap.save(path);
        }
        if let Some(h) = self.cfg.halt_after_checkpoints {
            if self.checkpoints >= h {
                self.halted = true;
            }
        }
    }

    fn finish(mut self) -> (Snapshot, CollectorStats) {
        self.snap.completed = self.snap.done() == self.snap.cases;
        (
            self.snap,
            CollectorStats {
                folds: self.folds,
                checkpoints: self.checkpoints,
                peak_pending: self.peak_pending,
            },
        )
    }
}

struct CollectorStats {
    folds: u64,
    checkpoints: u64,
    peak_pending: usize,
}

// ── Executors ────────────────────────────────────────────────────────

fn resolve_snapshot(cfg: &CampaignConfig, resume: Option<&Snapshot>) -> Result<Snapshot, String> {
    match resume {
        None => Ok(Snapshot::fresh(cfg)),
        Some(snap) => {
            if snap.schema != CAMPAIGN_SCHEMA {
                return Err(format!(
                    "snapshot schema {} ≠ supported {}",
                    snap.schema, CAMPAIGN_SCHEMA
                ));
            }
            if snap.fingerprint != cfg.fingerprint() {
                return Err(format!(
                    "snapshot fingerprint {:#018x} does not match this configuration \
                     ({:#018x}) — refusing to resume into different outcomes",
                    snap.fingerprint,
                    cfg.fingerprint()
                ));
            }
            let want = partition(cfg.cases, cfg.shards);
            let got: Vec<(usize, usize)> = snap.shards.iter().map(|s| (s.start, s.end)).collect();
            if want != got {
                return Err("snapshot shard ranges do not match this configuration".into());
            }
            for (i, s) in snap.shards.iter().enumerate() {
                if s.done > s.len() {
                    return Err(format!("snapshot shard {i} cursor past its range"));
                }
            }
            Ok(snap.clone())
        }
    }
}

/// Runs a campaign. `resume` continues from a snapshot (validated
/// against the config fingerprint); `snapshot_path` receives checkpoint
/// and final snapshots. `cfg.workers == 1` runs the serial reference
/// executor; more workers run the pipelined one — both produce
/// bit-identical snapshots and deterministic counters.
pub fn run_campaign(
    cfg: &CampaignConfig,
    resume: Option<&Snapshot>,
    snapshot_path: Option<&Path>,
) -> Result<CampaignRun, String> {
    let snap = resolve_snapshot(cfg, resume)?;
    let run = if cfg.workers <= 1 {
        run_serial(cfg, snap, snapshot_path)
    } else {
        run_pipelined(cfg, snap, snapshot_path)
    };
    if let Some(path) = snapshot_path {
        run.snapshot
            .save(path)
            .map_err(|e| format!("writing final snapshot: {e}"))?;
    }
    Ok(run)
}

/// The serial reference executor: one thread, no channels — the
/// bit-identity baseline and the deterministic-counter source the
/// perfscan campaign section gates.
fn run_serial(cfg: &CampaignConfig, snap: Snapshot, snapshot_path: Option<&Path>) -> CampaignRun {
    let start = Instant::now();
    let stream = CorpusStream::new(cfg.stream);
    let queues = ShardQueues::from_snapshot(&snap);
    let resident = Resident::new();
    let mut collector = Collector::new(cfg, snap, snapshot_path);
    let mut stage_cases = [0u64; 4];
    let mut stage_busy = [0f64; 4];
    let mut peak_in_flight = 0u64;

    while !collector.halted {
        let Some((index, shard)) = queues.claim(0) else {
            break;
        };
        peak_in_flight = 1;
        let mut item = timed(&mut stage_busy[0], || {
            stage_detect(cfg, &stream, index, shard)
        });
        resident.add(item.bytes);
        stage_cases[0] += 1;
        timed(&mut stage_busy[1], || stage_diagnose(&mut item));
        stage_cases[1] += 1;
        timed(&mut stage_busy[2], || stage_fix(cfg, &mut item, &resident));
        stage_cases[2] += 1;
        let (shard, outcome) = timed(&mut stage_busy[3], || stage_validate(cfg, item));
        stage_cases[3] += 1;
        collector.accept(shard, outcome);
    }

    let interrupted = collector.halted;
    let (snap, cstats) = collector.finish();
    let metrics = CampaignMetrics {
        schema: CAMPAIGN_SCHEMA,
        cases_done: cstats.folds,
        wall_seconds: start.elapsed().as_secs_f64(),
        stage_cases: stage_cases.to_vec(),
        stage_busy_seconds: stage_busy.to_vec(),
        queue_pops: queues.pops.load(Ordering::Relaxed),
        steals: queues.steals.load(Ordering::Relaxed),
        steal_probes: queues.probes.load(Ordering::Relaxed),
        channel_peak_depth: vec![0; 3],
        peak_in_flight,
        peak_pending: cstats.peak_pending as u64,
        peak_resident_case_bytes: resident.peak.load(Ordering::Relaxed),
        folds: cstats.folds,
        checkpoints: cstats.checkpoints,
        tallies: snap.tallies(),
    };
    CampaignRun {
        snapshot: snap,
        metrics,
        interrupted,
    }
}

/// Runs one stage call, adding its wall time to `busy`.
fn timed<T>(busy: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *busy += t0.elapsed().as_secs_f64();
    out
}

/// Receives from a shared receiver (std mpsc receivers are single-
/// consumer; the mutex serializes the handoff, not the processing).
fn recv_shared<T>(rx: &Mutex<Receiver<T>>) -> Option<T> {
    rx.lock().expect("stage channel poisoned").recv().ok()
}

struct Depth {
    now: AtomicU64,
    peak: AtomicU64,
}

impl Depth {
    fn new() -> Self {
        Depth {
            now: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Called *before* the send: the consumer's `received` may run
    /// before a post-send increment would, underflowing the counter.
    fn sending(&self) {
        let now = self.now.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn received(&self) {
        self.now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The pipelined executor: detect/fix/validate worker pools and a
/// diagnose worker over bounded channels inside one `thread::scope`;
/// the calling thread is the collector.
fn run_pipelined(
    cfg: &CampaignConfig,
    snap: Snapshot,
    snapshot_path: Option<&Path>,
) -> CampaignRun {
    let start = Instant::now();
    let stream = CorpusStream::new(cfg.stream);
    let queues = ShardQueues::from_snapshot(&snap);
    let resident = Resident::new();
    let gate = Gate::new(cfg.in_flight_limit());
    let halt = AtomicBool::new(false);
    let workers = cfg.workers.max(2);
    let cap = cfg.in_flight_limit();
    let stage_cases: [AtomicU64; 4] = Default::default();
    let depths = [Depth::new(), Depth::new(), Depth::new()];
    let stage_busy = Mutex::new([0f64; 4]);

    let (tx_ab, rx_ab) = sync_channel::<Item>(cap);
    let (tx_bc, rx_bc) = sync_channel::<Item>(cap);
    let (tx_cd, rx_cd) = sync_channel::<Item>(cap);
    let (tx_out, rx_out) = sync_channel::<(usize, CaseOutcome)>(cap);
    let rx_bc = Mutex::new(rx_bc);
    let rx_cd = Mutex::new(rx_cd);

    let mut collector = Collector::new(cfg, snap, snapshot_path);
    std::thread::scope(|s| {
        // Stage 1: detect workers (worker w's home shard is w mod shards).
        for w in 0..workers {
            let tx = tx_ab.clone();
            let (queues, gate, halt, resident, stream) =
                (&queues, &gate, &halt, &resident, &stream);
            let (stage_cases, stage_busy, depth) = (&stage_cases, &stage_busy, &depths[0]);
            let home = w % cfg.shards.max(1);
            s.spawn(move || {
                let mut busy = 0f64;
                loop {
                    if halt.load(Ordering::Relaxed) || !gate.acquire() {
                        break;
                    }
                    let Some((index, shard)) = queues.claim(home) else {
                        gate.release();
                        break;
                    };
                    let item = timed(&mut busy, || stage_detect(cfg, stream, index, shard));
                    resident.add(item.bytes);
                    stage_cases[0].fetch_add(1, Ordering::Relaxed);
                    depth.sending();
                    if tx.send(item).is_err() {
                        break;
                    }
                }
                stage_busy.lock().expect("busy poisoned")[0] += busy;
            });
        }
        drop(tx_ab);

        // Stage 2: one diagnose worker (location extraction is cheap).
        {
            let tx = tx_bc.clone();
            let (stage_cases, stage_busy) = (&stage_cases, &stage_busy);
            let (d_in, d_out) = (&depths[0], &depths[1]);
            s.spawn(move || {
                let mut busy = 0f64;
                while let Ok(mut item) = rx_ab.recv() {
                    d_in.received();
                    timed(&mut busy, || stage_diagnose(&mut item));
                    stage_cases[1].fetch_add(1, Ordering::Relaxed);
                    d_out.sending();
                    if tx.send(item).is_err() {
                        break;
                    }
                }
                stage_busy.lock().expect("busy poisoned")[1] += busy;
            });
        }
        drop(tx_bc);

        // Stage 3: fix workers.
        for _ in 0..workers {
            let tx = tx_cd.clone();
            let (rx, resident) = (&rx_bc, &resident);
            let (stage_cases, stage_busy) = (&stage_cases, &stage_busy);
            let (d_in, d_out) = (&depths[1], &depths[2]);
            s.spawn(move || {
                let mut busy = 0f64;
                while let Some(mut item) = recv_shared(rx) {
                    d_in.received();
                    timed(&mut busy, || stage_fix(cfg, &mut item, resident));
                    stage_cases[2].fetch_add(1, Ordering::Relaxed);
                    d_out.sending();
                    if tx.send(item).is_err() {
                        break;
                    }
                }
                stage_busy.lock().expect("busy poisoned")[2] += busy;
            });
        }
        drop(tx_cd);

        // Stage 4: validate workers.
        for _ in 0..workers {
            let tx: SyncSender<(usize, CaseOutcome)> = tx_out.clone();
            let rx = &rx_cd;
            let (stage_cases, stage_busy, d_in) = (&stage_cases, &stage_busy, &depths[2]);
            s.spawn(move || {
                let mut busy = 0f64;
                while let Some(item) = recv_shared(rx) {
                    d_in.received();
                    let out = timed(&mut busy, || stage_validate(cfg, item));
                    stage_cases[3].fetch_add(1, Ordering::Relaxed);
                    if tx.send(out).is_err() {
                        break;
                    }
                }
                stage_busy.lock().expect("busy poisoned")[3] += busy;
            });
        }
        drop(tx_out);

        // Collector (this thread): fold, release gate slots, halt.
        while let Ok((shard, outcome)) = rx_out.recv() {
            let folded = collector.accept(shard, outcome);
            for _ in 0..folded {
                gate.release();
            }
            if collector.halted && !halt.swap(true, Ordering::Relaxed) {
                gate.halt();
            }
        }
    });

    let interrupted = collector.halted;
    let (snap, cstats) = collector.finish();
    let metrics = CampaignMetrics {
        schema: CAMPAIGN_SCHEMA,
        cases_done: cstats.folds,
        wall_seconds: start.elapsed().as_secs_f64(),
        stage_cases: stage_cases
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        stage_busy_seconds: stage_busy.lock().expect("busy poisoned").to_vec(),
        queue_pops: queues.pops.load(Ordering::Relaxed),
        steals: queues.steals.load(Ordering::Relaxed),
        steal_probes: queues.probes.load(Ordering::Relaxed),
        channel_peak_depth: depths
            .iter()
            .map(|d| d.peak.load(Ordering::Relaxed))
            .collect(),
        peak_in_flight: gate.peak() as u64,
        peak_pending: cstats.peak_pending as u64,
        peak_resident_case_bytes: resident.peak.load(Ordering::Relaxed),
        folds: cstats.folds,
        checkpoints: cstats.checkpoints,
        tallies: snap.tallies(),
    };
    CampaignRun {
        snapshot: snap,
        metrics,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::stream::StreamFamily;

    fn small_cfg(cases: usize, shards: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(
            cases,
            shards,
            StreamConfig {
                family: StreamFamily::Exposure,
                seed: 0xCA4A,
            },
        );
        cfg.pipeline.detect_runs = 6;
        cfg.pipeline.seed = 0xFEED;
        cfg.checkpoint_every = 4;
        cfg
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        for (cases, shards) in [(10, 3), (0, 2), (7, 7), (5, 9), (100, 1)] {
            let parts = partition(cases, shards);
            assert_eq!(parts.len(), shards.max(1));
            let mut at = 0;
            for &(s, e) in &parts {
                assert_eq!(s, at.min(cases));
                assert!(e >= s);
                at = e;
            }
            assert_eq!(parts.last().unwrap().1, cases);
        }
    }

    #[test]
    fn pipelined_digest_matches_serial_reference() {
        let cfg = small_cfg(18, 3);
        let serial = run_campaign(&cfg, None, None).unwrap();
        assert!(!serial.interrupted);
        assert!(serial.snapshot.completed);
        assert_eq!(serial.metrics.cases_done, 18);
        for workers in [2, 4] {
            let mut pcfg = cfg.clone();
            pcfg.workers = workers;
            let run = run_campaign(&pcfg, None, None).unwrap();
            assert_eq!(
                run.snapshot, serial.snapshot,
                "snapshot diverged at {workers} workers"
            );
            assert_eq!(run.snapshot.digest(), serial.snapshot.digest());
        }
    }

    #[test]
    fn detect_campaign_actually_detects() {
        let run = run_campaign(&small_cfg(12, 2), None, None).unwrap();
        let t = run.snapshot.tallies();
        assert_eq!(t.cases, 12);
        assert!(t.raced > 0, "exposure corpus exposed nothing: {t:?}");
        assert!(t.detect_vm_steps > 0);
        assert_eq!(t.fixed, 0, "detect mode must not fix");
        assert_eq!(
            t.cases,
            t.stop_completed
                + t.stop_race_exposed
                + t.stop_dedup_saturated
                + t.stop_budget_exhausted
        );
    }

    #[test]
    fn halt_then_resume_reproduces_uninterrupted_digest() {
        let cfg = small_cfg(16, 2);
        let full = run_campaign(&cfg, None, None).unwrap();

        let mut hcfg = cfg.clone();
        hcfg.halt_after_checkpoints = Some(1);
        let halted = run_campaign(&hcfg, None, None).unwrap();
        assert!(halted.interrupted);
        assert!(!halted.snapshot.completed);
        let done = halted.snapshot.done();
        assert!(done < 16, "halt failed to stop early ({done}/16)");
        assert!(done >= 4, "checkpoint fired before its quota");

        let resumed = run_campaign(&cfg, Some(&halted.snapshot), None).unwrap();
        assert!(resumed.snapshot.completed);
        assert_eq!(resumed.snapshot, full.snapshot);
        assert_eq!(
            resumed.metrics.cases_done,
            16 - done as u64,
            "resume recomputed finished work"
        );
    }

    #[test]
    fn resume_refuses_mismatched_fingerprint_and_schema() {
        let cfg = small_cfg(8, 2);
        let run = run_campaign(&cfg, None, None).unwrap();
        let mut other = cfg.clone();
        other.stream.seed ^= 1;
        let err = run_campaign(&other, Some(&run.snapshot), None).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let mut stale = run.snapshot.clone();
        stale.schema = CAMPAIGN_SCHEMA - 1;
        let err = run_campaign(&cfg, Some(&stale), None).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn snapshot_survives_a_disk_round_trip() {
        let cfg = small_cfg(8, 2);
        let dir = std::env::temp_dir().join(format!("drfix-camp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let run = run_campaign(&cfg, None, Some(&path)).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded, run.snapshot);
        assert_eq!(loaded.digest(), run.snapshot.digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_flight_and_resident_bytes_stay_bounded() {
        let mut cfg = small_cfg(24, 2);
        cfg.workers = 4;
        cfg.max_in_flight = 5;
        let run = run_campaign(&cfg, None, None).unwrap();
        assert!(run.metrics.peak_in_flight <= 5, "{:?}", run.metrics);
        assert!(run.metrics.peak_pending <= 5, "{:?}", run.metrics);
        assert!(run.metrics.peak_resident_case_bytes > 0);
        // 8 KiB is a generous per-case ceiling for these templates; the
        // point is the bound scales with the window, not the corpus.
        assert!(
            run.metrics.peak_resident_case_bytes <= 5 * 8192,
            "resident bytes not bounded by the in-flight window: {}",
            run.metrics.peak_resident_case_bytes
        );
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [CampaignMode::Detect, CampaignMode::Fix] {
            assert_eq!(CampaignMode::parse(m.name()), Some(m));
        }
        assert_eq!(CampaignMode::parse("nope"), None);
    }

    #[test]
    fn empty_campaign_completes_immediately() {
        let run = run_campaign(&small_cfg(0, 2), None, None).unwrap();
        assert!(run.snapshot.completed);
        assert_eq!(run.metrics.cases_done, 0);
    }
}
