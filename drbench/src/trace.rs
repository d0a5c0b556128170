//! The traced run: replays a campaign serially, one case at a time,
//! through the public functions of each layer, recording a span around
//! every call. Nothing inside the program is instrumented — the spans
//! time the benchmark's own calls into `corpus`, `golite`, `govm`,
//! `drfix` and `statcheck`, and the counts come from what those calls
//! return (`RunCounters` for the VM and `racedet`, `FixOutcome` and
//! `TournamentReport` for the fix arm and `synthllm`).
//!
//! Per case the replay runs: `corpus.case` (synthesize), `detect`
//! (`golite.parse` → `govm.compile` → `govm.detect_vm`),
//! `drfix.raceinfo`, then in fix mode `drfix.fix_case` (the whole fix
//! arm, which re-runs detection internally) followed by `candidates`, a
//! replay of the fix arm's static and dynamic work on every candidate
//! (`statcheck.probe`, and for each validated one `validate` =
//! `golite.parse` → `govm.compile` → `statcheck.check` →
//! `govm.validate_vm`, under the exact seed the tournament used), and
//! `drfix.recheck`, which re-validates the winning patch under an
//! independent seed.
//!
//! The replay rebuilds each case's `CaseOutcome` and folds it into the
//! campaign digest, so a digest equal to the campaign's proves the
//! replay measured the work the program did.

use corpus::stream::CorpusStream;
use drfix::campaign::{fold_outcome, partition};
use drfix::fleet::{derive_case_seed, derive_validation_seed, fnv1a64_fold, FNV1A_OFFSET};
use drfix::{CampaignConfig, CampaignMode, CandidateOutcome, CaseOutcome, DrFix, PipelineConfig};
use govm::{CompileOptions, StopReason, TestConfig, TestOutcome, VmOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Salt that separates the re-check's validation seed from every seed
/// the tournament itself uses.
const RECHECK_SALT: u64 = 0x5EC0_4D5E_ED00_0001;

/// One timed call: name, interval (seconds since the tracer started),
/// the span it ran inside, and the case index all spans of one case
/// share.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `govm.compile`.
    pub name: &'static str,
    /// Case index (the shared id of one case's spans).
    pub case: usize,
    /// Index of the enclosing span, `None` for top-level spans.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder; spans are written out only at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` for case `case`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        case: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            case,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Closes every span a panic left open (deepest first), so the
    /// recorded intervals stay nested.
    fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span");
            self.spans[id].end = self.now();
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Summed duration of the top-level spans.
    pub fn top_level(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Checks that every span lies inside its parent and that children
    /// never cover more time than their parent.
    pub fn nested(&self) -> bool {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start < ps.start || s.end > ps.end {
                    return false;
                }
                child_time[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(&child_time)
            .all(|(s, c)| *c <= s.secs() + 1e-9)
    }

    /// Writes the spans as JSON lines, after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"case\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.case, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Counts recorded at the span boundaries, summed over the replay.
#[derive(Debug, Default)]
pub struct Counts {
    /// Cases replayed.
    pub cases: u64,
    /// Cases whose replay panicked.
    pub panicked: u64,
    /// Source bytes synthesized by the stream.
    pub case_bytes: u64,
    /// Source bytes parsed (each case source and candidate patch once).
    pub parse_bytes: u64,
    /// `compile_package` calls.
    pub compile_calls: u64,
    /// VM instructions of detection campaigns.
    pub detect_steps: u64,
    /// VM instructions of replayed validation campaigns.
    pub validate_steps: u64,
    /// Schedules executed (detection plus validation).
    pub schedules: u64,
    /// Detector read/write events.
    pub det_events: u64,
    /// Events answered by the detector's same-epoch fast path.
    pub fast_hits: u64,
    /// Detector shadow-memory high-water (max over campaigns).
    pub peak_shadow_bytes: u64,
    /// Cases whose detection exposed a race.
    pub raced: u64,
    /// Cases the fix arm fixed.
    pub fixed: u64,
    /// Tournament candidates.
    pub candidates: u64,
    /// Validation campaigns the fix arm counted.
    pub validations: u64,
    /// Candidates rejected by the static gate.
    pub rejected_static: u64,
    /// Model calls.
    pub llm_calls: u64,
    /// `static_probe` calls the replay made.
    pub probes: u64,
    /// Cases whose replayed validation steps (or probe count) differ
    /// from what the fix arm reported.
    pub step_mismatches: u64,
    /// Winning patches that failed re-validation under a fresh seed.
    pub recheck_failures: u64,
}

/// What the replay of one campaign produced.
pub struct Replay {
    /// Campaign digest rebuilt from the replayed outcomes.
    pub digest: u64,
    /// Counts at the span boundaries.
    pub counts: Counts,
    /// Wall seconds of the whole replay.
    pub wall: f64,
}

fn detect_config(p: &PipelineConfig) -> TestConfig {
    TestConfig {
        runs: p.detect_runs,
        seed: p.seed,
        stop_on_race: true,
        policy: p.detect_policy.clone(),
        vm: VmOptions {
            tier: p.vm_tier,
            ..VmOptions::default()
        },
        ..TestConfig::default()
    }
}

fn validation_config(p: &PipelineConfig, seed: u64) -> TestConfig {
    TestConfig {
        runs: p.validation_runs,
        seed,
        stop_on_race: false,
        policy: p.validate_policy.clone(),
        max_total_steps: p.validation_step_budget,
        dedup_streak: p.validation_dedup_streak,
        vm: VmOptions {
            tier: p.vm_tier,
            ..VmOptions::default()
        },
        ..TestConfig::default()
    }
}

type Parsed = Vec<(String, String, golite::File)>;

fn parse_all(files: &[(String, String)], counts: &mut Counts) -> Option<Parsed> {
    counts.parse_bytes += files.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
    files
        .iter()
        .map(|(n, s)| Some((n.clone(), s.clone(), golite::parse_file(s).ok()?)))
        .collect()
}

fn tally_vm(out: &TestOutcome, counts: &mut Counts) {
    counts.schedules += u64::from(out.runs);
    counts.det_events += out.counters.det.events;
    counts.fast_hits += out.counters.det.fast_hits();
    counts.peak_shadow_bytes = counts.peak_shadow_bytes.max(out.counters.peak_shadow_bytes);
}

/// Replays one validation campaign the way `validate_patch_report`
/// runs it: parse, compile, static gate, schedules. Returns the VM
/// instructions spent (0 when the build or the gate rejects).
fn replay_validation(
    t: &mut Tracer,
    case: usize,
    files: &[(String, String)],
    test: &str,
    p: &PipelineConfig,
    seed: u64,
    counts: &mut Counts,
) -> u64 {
    let Some(parsed) = t.span("golite.parse", case, |_| parse_all(files, counts)) else {
        return 0;
    };
    counts.compile_calls += 1;
    let Ok(prog) = t.span("govm.compile", case, |_| {
        govm::compile_package(&parsed, &CompileOptions::default())
    }) else {
        return 0;
    };
    if prog.find_func(test).is_none() {
        return 0;
    }
    if p.static_gate {
        let rejected = t.span("statcheck.check", case, |_| {
            statcheck::check_sources(files)
                .map_or(true, |reports| statcheck::first_error(&reports).is_some())
        });
        if rejected {
            return 0;
        }
    }
    let vcfg = validation_config(p, seed);
    let out = t.span("govm.validate_vm", case, |_| {
        govm::run_test_many(&prog, test, &vcfg)
    });
    tally_vm(&out, counts);
    counts.validate_steps += out.steps;
    out.steps
}

/// Replays case `index` of the campaign and returns its outcome as the
/// campaign folds it.
fn replay_case(
    t: &mut Tracer,
    cfg: &CampaignConfig,
    stream: &CorpusStream,
    index: usize,
    counts: &mut Counts,
) -> CaseOutcome {
    let mut p = cfg.pipeline.clone();
    p.seed = derive_case_seed(cfg.pipeline.seed, index as u64);
    if let Some(tcfg) = &mut p.tournament {
        // Keep every candidate's patch so the replay can re-run its
        // probe and validation; it changes no outcome.
        tcfg.keep_candidates = true;
    }
    let case = t.span("corpus.case", index, |_| stream.case(index));
    counts.case_bytes += CorpusStream::case_bytes(&case);

    let detected = t.span("detect", index, |t| {
        let parsed = t.span("golite.parse", index, |_| parse_all(&case.files, counts))?;
        counts.compile_calls += 1;
        let prog = t
            .span("govm.compile", index, |_| {
                govm::compile_package(&parsed, &CompileOptions::default())
            })
            .ok()?;
        let dcfg = detect_config(&p);
        Some(t.span("govm.detect_vm", index, |_| {
            govm::run_test_many(&prog, &case.test, &dcfg)
        }))
    });
    let (stop, detect_steps, shadow, report) = match detected {
        Some(out) => {
            tally_vm(&out, counts);
            let report = out.races.first().cloned();
            (
                out.stop,
                out.counters.vm_steps,
                out.counters.peak_shadow_bytes,
                report,
            )
        }
        None => (StopReason::Completed, 0, 0, None),
    };
    counts.detect_steps += detect_steps;
    counts.raced += u64::from(report.is_some());
    if let Some(r) = &report {
        t.span("drfix.raceinfo", index, |_| drfix::extract(r, &case.files));
    }
    let mut outcome = CaseOutcome {
        index,
        stop,
        raced: report.is_some(),
        fixed: false,
        llm_calls: 0,
        validations: 0,
        rejected_static: 0,
        detect_vm_steps: detect_steps,
        validation_vm_steps: 0,
        peak_shadow_bytes: shadow,
        patch_loc: 0,
        bug_fnv: report
            .as_ref()
            .map_or(0, |r| fnv1a64_fold(FNV1A_OFFSET, r.bug_hash().as_bytes())),
    };
    if cfg.mode != CampaignMode::Fix {
        return outcome;
    }

    // `fix_case` re-runs detection first: the fix arm's own time is its
    // span minus this case's replayed detect span.
    let fix = t.span("drfix.fix_case", index, |_| {
        DrFix::new(p.clone(), None).fix_case(&case.files, &case.test)
    });
    outcome.fixed = fix.fixed;
    outcome.llm_calls = fix.llm_calls;
    outcome.validations = fix.validations;
    outcome.rejected_static = fix.rejected_static;
    outcome.validation_vm_steps = fix.validation_vm_steps;
    outcome.patch_loc = fix.patch_loc.unwrap_or(0) as u64;
    counts.fixed += u64::from(fix.fixed);
    counts.llm_calls += u64::from(fix.llm_calls);
    counts.validations += u64::from(fix.validations);
    counts.rejected_static += u64::from(fix.rejected_static);

    let (Some(tour), Some(bug_hash)) = (&fix.tournament, &fix.bug_hash) else {
        if fix.validation_vm_steps != 0 {
            counts.step_mismatches += 1;
        }
        return outcome;
    };
    counts.candidates += tour.candidates.len() as u64;
    let replayed = t.span("candidates", index, |t| {
        let mut steps = 0u64;
        for c in &tour.candidates {
            let Some(patch) = &c.patch else {
                continue;
            };
            t.span("statcheck.probe", index, |_| drfix::static_probe(patch));
            counts.probes += 1;
            let validated = matches!(
                c.outcome,
                CandidateOutcome::Won
                    | CandidateOutcome::FailedValidation { .. }
                    | CandidateOutcome::Outranked
            );
            if validated {
                let seed = derive_validation_seed(p.seed, bug_hash, c.id as u32 + 1);
                steps += t.span("validate", index, |t| {
                    replay_validation(t, index, patch, &case.test, &p, seed, counts)
                });
            } else {
                // Every candidate patch is parsed once by the replay.
                t.span("golite.parse", index, |_| parse_all(patch, counts));
            }
        }
        steps
    });
    if replayed != fix.validation_vm_steps
        || u64::from(tour.lint_probes) != tour.candidates.len() as u64
    {
        counts.step_mismatches += 1;
    }

    if let Some(patch) = &fix.patch {
        let seed = derive_validation_seed(p.seed ^ RECHECK_SALT, bug_hash, 0);
        let vcfg = validation_config(&p, seed);
        let verdict = t.span("drfix.recheck", index, |_| {
            drfix::validate_patch_report(
                patch,
                &case.test,
                bug_hash,
                &vcfg,
                &drfix::ValidationOptions {
                    static_gate: p.static_gate,
                },
            )
            .verdict
        });
        if !verdict.is_ok() {
            counts.recheck_failures += 1;
        }
    }
    outcome
}

/// Replays every case of `cfg` serially, each under `catch_unwind`.
/// `plant_panic` panics inside the replay of case 0 (self-test only).
pub fn replay(cfg: &CampaignConfig, t: &mut Tracer, plant_panic: bool) -> Replay {
    let start = Instant::now();
    let stream = CorpusStream::new(cfg.stream);
    let mut counts = Counts::default();
    let ranges = partition(cfg.cases, cfg.shards);
    let mut shard_digests = vec![FNV1A_OFFSET; ranges.len()];
    for index in 0..cfg.cases {
        counts.cases += 1;
        let depth = t.open.len();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if plant_panic && index == 0 {
                panic!("planted panic in the replay of case 0");
            }
            replay_case(t, cfg, &stream, index, &mut counts)
        }));
        t.unwind_to(depth);
        match result {
            Ok(o) => {
                let shard = ranges
                    .iter()
                    .position(|&(s, e)| (s..e).contains(&index))
                    .expect("partition covers every index");
                shard_digests[shard] = fold_outcome(shard_digests[shard], &o);
            }
            Err(_) => counts.panicked += 1,
        }
    }
    let digest = shard_digests
        .iter()
        .fold(FNV1A_OFFSET, |h, d| fnv1a64_fold(h, &d.to_le_bytes()));
    Replay {
        digest,
        counts,
        wall: start.elapsed().as_secs_f64(),
    }
}
