//! Campaign orchestration (§2.2 at deployment scale): streaming 10k+
//! generated cases through a sharded, work-stealing worker pool with
//! snapshot/resume — the fix service's "real service surface", driven by
//! the `campaignctl` bin.
//!
//! # Shape
//!
//! ```text
//!   CorpusStream          worker ×W: gate → claim(home) → DrFix::run_case → lock(collector)
//!    (on demand)            │ steal when the home shard drains                 │ fold in
//!                           ▼                                                  │ index order,
//!                      shard cursors                                           ▼ checkpoint
//!                                                                    per-shard digests
//! ```
//!
//! Each worker claims a case and runs it start to finish — detect, then
//! in fix mode diagnose, fix and validate — on one parse, exactly as
//! [`DrFix::fix_case`] does, then folds its compact [`CaseOutcome`] into
//! the shared collector under the collector's lock and returns the gate
//! slots the fold freed. The workers run on [`fleet::run_indexed`]; one
//! worker runs the same loop inline on the calling thread. Cases are
//! synthesized on demand from a [`CorpusStream`] — the corpus never
//! materializes; the only resident case sources are the ones workers are
//! running, whose byte high-water the run measures
//! ([`CampaignMetrics::peak_resident_case_bytes`]).
//!
//! # Determinism
//!
//! Results are **bit-identical to the one-worker run at any
//! shard/worker count** because every quantity that reaches the digest
//! is a pure function of `(config, case index)`:
//!
//! 1. case sources come from the stream's per-index RNG
//!    (`splitmix64(seed ⊕ salt ⊕ splitmix64(i))`);
//! 2. the pipeline seed is [`derive_case_seed`]`(pipeline.seed, i)` —
//!    the same derivation the fleet uses — so detection and
//!    validation schedules never observe claim order;
//! 3. the collector folds outcomes into per-shard FNV-1a digests in
//!    strict index order, whatever order workers deliver them.
//!
//! Work-stealing therefore changes *wall-clock placement only*; an A/B
//! test (`tests/campaign_ab.rs`) pins one-worker ≡ many-worker digests.
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
//! points in `tests/campaign_resume.rs`). A truncated or corrupted
//! snapshot fails its checksum or [`Snapshot::validate`] and is refused
//! with an error, never a panic.

use crate::fleet::{self, derive_case_seed, fnv1a64_fold, FNV1A_OFFSET};
use crate::pipeline::{DrFix, PipelineConfig};
use corpus::stream::{CorpusStream, StreamConfig};
use govm::StopReason;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Schema of campaign snapshots and metrics reports.
pub const CAMPAIGN_SCHEMA: u32 = 9;

/// Phase names of one case, in order (index into
/// [`CampaignMetrics::stage_busy_seconds`]).
pub const PHASES: [&str; 4] = ["detect", "diagnose", "fix", "validate"];

/// What the campaign does with each case after detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignMode {
    /// Detection only — the monitoring-service shape (HardRace's
    /// deployment argument): every case is generated, compiled, and
    /// campaigned for races; nothing is fixed. This is the mode that
    /// scales to 10k+ cases.
    Detect,
    /// The full fix service: detect → diagnose → fix → validate. With a
    /// tournament configured the fix phase is purely static (candidate
    /// pool + lint repair) and all VM work concentrates in detect and
    /// validate; without one, fix and validate fuse into one phase
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
    /// Worker threads, each running whole cases. `0` and `1` run the
    /// worker loop inline on the calling thread; every worker count
    /// folds bit-identical digests.
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
    /// after this many checkpoints have been written, let running cases
    /// finish, and exit with an interrupted snapshot. This is how the
    /// smoke test and the resume proptest kill a campaign at a
    /// checkpoint without process gymnastics.
    pub halt_after_checkpoints: Option<u64>,
    /// Bound on cases in flight (claimed but not folded). Caps the
    /// collector's reorder buffers at O(this), independent of `cases`.
    /// `0` picks `max(4 × workers, 16)`.
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
/// campaign keeps per case (the worker drops the full
/// [`FixOutcome`](crate::FixOutcome) with its patched sources as soon as
/// it compacts it; memory stays O(in-flight)).
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
        let mut one = Tallies {
            cases: 1,
            raced: u64::from(o.raced),
            fixed: u64::from(o.fixed),
            llm_calls: u64::from(o.llm_calls),
            validations: u64::from(o.validations),
            rejected_static: u64::from(o.rejected_static),
            detect_vm_steps: o.detect_vm_steps,
            validation_vm_steps: o.validation_vm_steps,
            peak_shadow_bytes: o.peak_shadow_bytes,
            ..Tallies::default()
        };
        match o.stop {
            StopReason::Completed => one.stop_completed = 1,
            StopReason::RaceExposed => one.stop_race_exposed = 1,
            StopReason::DedupSaturated => one.stop_dedup_saturated = 1,
            StopReason::BudgetExhausted => one.stop_budget_exhausted = 1,
        }
        self.merge(&one);
    }

    /// Merges another shard's totals into this one. Totals saturate at
    /// `u64::MAX`, so a resumed run never panics or wraps; no real
    /// campaign comes near it, and [`Snapshot::validate`] refuses a
    /// snapshot whose merged totals would overflow.
    pub fn merge(&mut self, other: &Tallies) {
        if let Some(t) = self.combine(other, |a, b| Some(a.saturating_add(b))) {
            *self = t;
        }
    }

    /// Sums every total with `add` (the gauge takes the max).
    fn combine(&self, o: &Tallies, add: impl Fn(u64, u64) -> Option<u64>) -> Option<Tallies> {
        Some(Tallies {
            cases: add(self.cases, o.cases)?,
            raced: add(self.raced, o.raced)?,
            fixed: add(self.fixed, o.fixed)?,
            stop_completed: add(self.stop_completed, o.stop_completed)?,
            stop_race_exposed: add(self.stop_race_exposed, o.stop_race_exposed)?,
            stop_dedup_saturated: add(self.stop_dedup_saturated, o.stop_dedup_saturated)?,
            stop_budget_exhausted: add(self.stop_budget_exhausted, o.stop_budget_exhausted)?,
            llm_calls: add(self.llm_calls, o.llm_calls)?,
            validations: add(self.validations, o.validations)?,
            rejected_static: add(self.rejected_static, o.rejected_static)?,
            detect_vm_steps: add(self.detect_vm_steps, o.detect_vm_steps)?,
            validation_vm_steps: add(self.validation_vm_steps, o.validation_vm_steps)?,
            peak_shadow_bytes: self.peak_shadow_bytes.max(o.peak_shadow_bytes),
        })
    }

    /// Cases counted by the four stop-reason tallies, or `None` on
    /// overflow.
    fn stops(&self) -> Option<u64> {
        self.stop_completed
            .checked_add(self.stop_race_exposed)?
            .checked_add(self.stop_dedup_saturated)?
            .checked_add(self.stop_budget_exhausted)
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
/// reads. Written via temp-file-and-rename, so a kill during the write
/// leaves the previous snapshot intact. On disk it is a line holding the
/// FNV-1a checksum of the JSON body, in hex, followed by the body.
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

    /// Writes the snapshot atomically (temp file + rename), checksum line
    /// first.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let sum = fnv1a64_fold(FNV1A_OFFSET, json.as_bytes());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{sum:016x}\n{json}"))?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot written by [`Snapshot::save`]. A file whose body
    /// does not match its checksum, does not parse, or fails
    /// [`Snapshot::validate`] is `InvalidData`.
    pub fn load(path: &Path) -> std::io::Result<Snapshot> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let text = std::fs::read_to_string(path)?;
        let (sum, json) = text
            .split_once('\n')
            .ok_or_else(|| invalid("snapshot has no checksum line".into()))?;
        if u64::from_str_radix(sum, 16).ok() != Some(fnv1a64_fold(FNV1A_OFFSET, json.as_bytes())) {
            return Err(invalid("snapshot body does not match its checksum".into()));
        }
        let snap: Snapshot = serde_json::from_str(json).map_err(|e| invalid(e.to_string()))?;
        snap.validate().map_err(invalid)?;
        Ok(snap)
    }

    /// Checks everything a snapshot must satisfy whatever the
    /// configuration: the schema; shards contiguous over `0..cases`, each
    /// with `start ≤ end` and `done ≤ len`; per-shard tallies counting
    /// `done` cases, with the stop-reason tallies summing to it; merged
    /// tallies that fit in `u64`; and `completed` exactly when every case
    /// is folded. Every accessor is then panic-free.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != CAMPAIGN_SCHEMA {
            return Err(format!(
                "snapshot schema {} ≠ supported {}",
                self.schema, CAMPAIGN_SCHEMA
            ));
        }
        let mut next = 0;
        for (i, s) in self.shards.iter().enumerate() {
            if s.start != next || s.start > s.end {
                return Err(format!("snapshot shard {i} range is not contiguous"));
            }
            if s.done > s.len() {
                return Err(format!("snapshot shard {i} cursor past its range"));
            }
            if s.tallies.cases != s.done as u64 || s.tallies.stops() != Some(s.tallies.cases) {
                return Err(format!("snapshot shard {i} tallies do not count its cases"));
            }
            next = s.end;
        }
        if next != self.cases {
            return Err("snapshot shards do not cover its cases".into());
        }
        self.shards
            .iter()
            .try_fold(Tallies::default(), |t, s| {
                t.combine(&s.tallies, u64::checked_add)
            })
            .ok_or("snapshot tallies overflow")?;
        if self.completed != (self.done() == self.cases) {
            return Err("snapshot completion flag disagrees with its shards".into());
        }
        Ok(())
    }
}

/// The machine-readable progress/metrics report (schema
/// [`CAMPAIGN_SCHEMA`]) a campaign emits: per-phase busy time,
/// queue/steal accounting, and the bounded-memory evidence.
/// Deterministic fields (everything but the wall-clock, busy and
/// gate-wait seconds and the high-waters of a threaded run) replay
/// bit-identically on one worker — that is what
/// `serial_orchestration_counters_are_pinned` pins exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Report schema ([`CAMPAIGN_SCHEMA`]).
    pub schema: u32,
    /// Cases folded by this run (excludes resumed-over work).
    pub cases_done: u64,
    /// Wall-clock seconds — reported, never gated.
    pub wall_seconds: f64,
    /// Per-phase busy seconds (see [`PHASES`]): the time each case
    /// spent in the phase, summed over all workers. Case generation
    /// counts as detect; waiting on the claim gate is not busy time, so a
    /// phase's share of the sum is its share of the work.
    pub stage_busy_seconds: Vec<f64>,
    /// Seconds workers spent blocked on the claim gate (the in-flight
    /// window was full), summed over workers. Zero on one worker, which
    /// folds each case before claiming the next. Wall-clock: reported,
    /// never gated.
    pub gate_wait_seconds: f64,
    /// Successful claims from the sharded queues.
    pub queue_pops: u64,
    /// Claims served by a non-home shard (work-stealing).
    pub steals: u64,
    /// Shard queues examined across all claims (probe count).
    pub steal_probes: u64,
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
    /// Schedules (detection and validation) that their campaign replayed
    /// from its schedule memo instead of executing, over the cases this
    /// run folded or discarded. Deterministic per case.
    pub replayed_schedules: u64,
    /// Merged outcome totals for the folded prefix (whole campaign,
    /// including resumed-over shards — read from the snapshot).
    pub tallies: Tallies,
}

impl CampaignMetrics {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cases in {:.2}s — {:.1} cases/s | pops {} steals {} folds {} | in-flight ≤{} resident ≤{}B | replayed schedules {}",
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
            self.replayed_schedules,
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
/// workers that race past a slow case can never buffer O(cases)
/// outcomes in the collector. Workers block here
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
    /// Time claimers spent blocked, summed.
    wait_seconds: f64,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Gate {
            st: Mutex::new(GateSt {
                in_flight: 0,
                peak: 0,
                halted: false,
                wait_seconds: 0.0,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Takes one in-flight slot; `false` means the campaign halted.
    fn acquire(&self) -> bool {
        let mut st = self.st.lock().expect("gate poisoned");
        let mut blocked: Option<Instant> = None;
        loop {
            let ready = st.halted || st.in_flight < self.limit;
            if ready {
                if let Some(t0) = blocked {
                    st.wait_seconds += t0.elapsed().as_secs_f64();
                }
                if st.halted {
                    return false;
                }
                st.in_flight += 1;
                st.peak = st.peak.max(st.in_flight);
                return true;
            }
            blocked.get_or_insert_with(Instant::now);
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

    fn wait_seconds(&self) -> f64 {
        self.st.lock().expect("gate poisoned").wait_seconds
    }
}

// ── The worker pool ──────────────────────────────────────────────────

/// What every worker shares: the stream cases are drawn from, the claim
/// queues and gate, and the resident-bytes, busy-time and replay
/// accounts.
struct Pool<'a> {
    cfg: &'a CampaignConfig,
    stream: CorpusStream,
    queues: ShardQueues,
    gate: Gate,
    resident: Resident,
    busy: Mutex<[f64; 4]>,
    replayed: AtomicU64,
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

impl Pool<'_> {
    /// One worker's loop: take a gate slot, claim a case (home shard
    /// first), run it start to finish, then fold its outcome under the
    /// collector's lock and return the gate slots the fold freed. Stops
    /// when the queues drain or the campaign halts.
    fn work(&self, home: usize, collector: &Mutex<Collector>) {
        let mut busy = [0f64; 4];
        while self.gate.acquire() {
            let Some((index, shard)) = self.queues.claim(home) else {
                self.gate.release();
                break;
            };
            let outcome = self.run_case(index, &mut busy);
            let mut c = collector.lock().expect("collector poisoned");
            for _ in 0..c.accept(shard, outcome) {
                self.gate.release();
            }
            if c.halted {
                self.gate.halt();
            }
        }
        let mut total = self.busy.lock().expect("busy poisoned");
        for (t, b) in total.iter_mut().zip(busy) {
            *t += b;
        }
    }

    /// Synthesizes case `index`, runs it under its derived seed, and
    /// compacts the result; the sources drop as soon as the case is done.
    fn run_case(&self, index: usize, busy: &mut [f64; 4]) -> CaseOutcome {
        let generated = Instant::now();
        let case = self.stream.case(index);
        let bytes = CorpusStream::case_bytes(&case);
        self.resident.add(bytes);
        busy[0] += generated.elapsed().as_secs_f64();
        let mut pcfg = self.cfg.pipeline.clone();
        pcfg.seed = derive_case_seed(self.cfg.pipeline.seed, index as u64);
        let fix = self.cfg.mode == CampaignMode::Fix;
        let run = DrFix::new(pcfg, None).run_case(&case.files, &case.test, fix);
        drop(case);
        self.resident.sub(bytes);
        for (b, s) in busy.iter_mut().zip(run.phase_seconds) {
            *b += s;
        }
        let fix = run.fix.as_ref();
        let replayed = run.replayed_schedules + fix.map_or(0, |f| f.replayed_schedules);
        self.replayed.fetch_add(replayed, Ordering::Relaxed);
        CaseOutcome {
            index,
            stop: run.stop,
            raced: run.race.is_some(),
            fixed: fix.is_some_and(|f| f.fixed),
            llm_calls: fix.map_or(0, |f| f.llm_calls),
            validations: fix.map_or(0, |f| f.validations),
            rejected_static: fix.map_or(0, |f| f.rejected_static),
            detect_vm_steps: run.detect_vm_steps,
            validation_vm_steps: fix.map_or(0, |f| f.validation_vm_steps),
            peak_shadow_bytes: run.peak_shadow_bytes,
            patch_loc: fix.and_then(|f| f.patch_loc).unwrap_or(0) as u64,
            bug_fnv: run
                .race
                .as_ref()
                .map_or(0, |r| fnv1a64_fold(FNV1A_OFFSET, r.bug_hash().as_bytes())),
        }
    }
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
            snap.validate()?;
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
            Ok(snap.clone())
        }
    }
}

/// Runs a campaign. `resume` continues from a snapshot (validated
/// against the config fingerprint); `snapshot_path` receives checkpoint
/// and final snapshots. `cfg.workers` workers (at least one; one runs
/// inline on the calling thread) produce bit-identical snapshots and
/// deterministic counters at any count.
pub fn run_campaign(
    cfg: &CampaignConfig,
    resume: Option<&Snapshot>,
    snapshot_path: Option<&Path>,
) -> Result<CampaignRun, String> {
    let snap = resolve_snapshot(cfg, resume)?;
    let run = run_pool(cfg, snap, snapshot_path);
    if let Some(path) = snapshot_path {
        run.snapshot
            .save(path)
            .map_err(|e| format!("writing final snapshot: {e}"))?;
    }
    Ok(run)
}

/// The campaign executor: `cfg.workers` workers on
/// [`fleet::run_indexed`] each run [`Pool::work`], folding their own
/// outcomes into the shared collector under its lock.
fn run_pool(cfg: &CampaignConfig, snap: Snapshot, snapshot_path: Option<&Path>) -> CampaignRun {
    let start = Instant::now();
    let pool = Pool {
        cfg,
        stream: CorpusStream::new(cfg.stream),
        queues: ShardQueues::from_snapshot(&snap),
        gate: Gate::new(cfg.in_flight_limit()),
        resident: Resident::new(),
        busy: Mutex::new([0.0; 4]),
        replayed: AtomicU64::new(0),
    };
    let collector = Mutex::new(Collector::new(cfg, snap, snapshot_path));
    let workers = cfg.workers.max(1);
    fleet::run_indexed(workers, workers, |w| {
        pool.work(w % cfg.shards.max(1), &collector)
    });

    let collector = collector.into_inner().expect("collector poisoned");
    let interrupted = collector.halted;
    let (snap, cstats) = collector.finish();
    let metrics = CampaignMetrics {
        schema: CAMPAIGN_SCHEMA,
        cases_done: cstats.folds,
        wall_seconds: start.elapsed().as_secs_f64(),
        stage_busy_seconds: pool.busy.into_inner().expect("busy poisoned").to_vec(),
        gate_wait_seconds: pool.gate.wait_seconds(),
        queue_pops: pool.queues.pops.load(Ordering::Relaxed),
        steals: pool.queues.steals.load(Ordering::Relaxed),
        steal_probes: pool.queues.probes.load(Ordering::Relaxed),
        peak_in_flight: pool.gate.peak() as u64,
        peak_pending: cstats.peak_pending as u64,
        peak_resident_case_bytes: pool.resident.peak.load(Ordering::Relaxed),
        folds: cstats.folds,
        checkpoints: cstats.checkpoints,
        replayed_schedules: pool.replayed.into_inner(),
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
    fn gate_wait_is_zero_serially_and_counted_when_the_window_is_full() {
        let serial = run_campaign(&small_cfg(16, 2), None, None).unwrap();
        assert_eq!(serial.metrics.gate_wait_seconds, 0.0);
        let mut cfg = small_cfg(16, 2);
        cfg.workers = 2;
        cfg.max_in_flight = 1;
        let gated = run_campaign(&cfg, None, None).unwrap();
        assert_eq!(gated.snapshot.digest(), serial.snapshot.digest());
        assert!(
            gated.metrics.gate_wait_seconds > 0.0,
            "the second worker must block while the first holds the only slot"
        );
    }

    /// The serial executor's orchestration counters are exact functions
    /// of the configuration: the lone worker drains its home shard,
    /// then walks the other three, probing shard queues in order. The
    /// detection schedules replayed from schedule memos are too.
    #[test]
    fn serial_orchestration_counters_are_pinned() {
        let mut cfg = CampaignConfig::new(
            96,
            4,
            StreamConfig {
                family: StreamFamily::Exposure,
                seed: 0xD0F1,
            },
        );
        cfg.pipeline.seed = 0xBEEF;
        cfg.pipeline.detect_runs = 12;
        cfg.checkpoint_every = 12;
        let m = run_campaign(&cfg, None, None).unwrap().metrics;
        assert_eq!(
            (
                m.queue_pops,
                m.steals,
                m.steal_probes,
                m.folds,
                m.checkpoints,
                m.replayed_schedules
            ),
            (96, 72, 244, 96, 8, 54)
        );
        assert_eq!(m.folds, m.queue_pops);
        assert_eq!(m.queue_pops, cfg.cases as u64);
    }

    /// Snapshots are resumed only under an equal fingerprint, and it
    /// hashes `PipelineConfig`'s `Debug` rendering, so renaming or
    /// reordering a pipeline field would silently orphan every saved
    /// snapshot. Pinned to literals for a detect and a fix config.
    #[test]
    fn fingerprint_is_pinned() {
        let stream = StreamConfig {
            family: StreamFamily::Mixed,
            seed: 0xD0F1,
        };
        let detect = CampaignConfig::new(96, 4, stream);
        let mut fix = CampaignConfig::new(96, 4, stream);
        fix.mode = CampaignMode::Fix;
        fix.pipeline.tournament = Some(crate::TournamentConfig::default());
        assert_eq!(detect.fingerprint(), 0x02f3_a4ca_6ead_5df3);
        assert_eq!(fix.fingerprint(), 0x8ebc_f45e_d178_3802);
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
    fn pooled_digest_matches_serial_reference() {
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

    /// `workers: 0` means one inline worker, not none: it must fold the
    /// whole campaign, bit-identical to the one-worker run.
    #[test]
    fn zero_workers_fold_the_one_worker_snapshot() {
        let cfg = small_cfg(10, 2);
        let one = run_campaign(&cfg, None, None).unwrap();
        let mut zero = cfg.clone();
        zero.workers = 0;
        let run = run_campaign(&zero, None, None).unwrap();
        assert!(run.snapshot.completed);
        assert_eq!(run.snapshot, one.snapshot);
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
