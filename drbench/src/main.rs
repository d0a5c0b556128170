//! `drbench` — the end-to-end benchmark of Dr.Fix fix campaigns.
//!
//! ```text
//! drbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload (see [`workload::WORKLOADS`]) is one closed-loop batch
//! campaign run through `drfix::run_campaign` — the call `campaignctl`
//! makes — with `workers = available_parallelism`.
//!
//! - `--trace 0` repeats the campaign for `--seconds` and reports the
//!   end-to-end metrics: median `cases_per_s`, `race_rate`,
//!   `peak_rss_mb` and `setup_s` (the median over fresh processes of the
//!   time from `main` entry to the first case claimed).
//! - `--trace 1` runs the campaign once pipelined and once serially, then
//!   replays it case by case through each layer's public functions
//!   ([`trace`]) and reports per-layer metrics. The spans are written to
//!   `drbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! Every run checks its outputs (folds == cases, fixed ≤ raced ≤ cases,
//! one digest across repetitions; in the traced run, serial digest ==
//! pipelined digest == replay digest, replayed VM steps == reported
//! steps, and the spans nest and add up to the traced wall clock). The
//! traced run also re-validates every winning patch under a fresh seed
//! and reports the failures as `drfix.fix_recheck_failures`. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` (`failed / attempted`
//! is the share of cases not folded); a failed check exits with code 1,
//! a refused or malformed invocation with code 2.
//!
//! Self-test knobs: `--cases N` shrinks the campaign, `--plant
//! digest|panic` plants a check failure.

mod trace;
mod workload;

use drfix::{run_campaign, CampaignConfig, CampaignRun};
use serde::Serialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// `DRFIX_*` knobs the measured library code reads. Any of them set
/// would change the program under measurement, so the run is refused.
const PINNED_ENV: [&str; 3] = ["DRFIX_TIER", "DRFIX_POLICY", "DRFIX_THREADS"];

/// Fresh processes whose set-up is timed per run for `setup_s`.
const SETUP_PROBES: usize = 51;

/// Minimum campaign repetitions per untraced run, whatever `--seconds`.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    Digest,
    Panic,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cases: usize,
    plant: Option<Plant>,
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut args = Args {
        workload: workload::WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        cases: 0,
        plant: None,
        probe_setup: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            args.probe_setup = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? != 0,
            "--cases" => args.cases = num(&value)? as usize,
            "--plant" => {
                args.plant = Some(match value.as_str() {
                    "digest" => Plant::Digest,
                    "panic" => Plant::Panic,
                    _ => return Err(format!("unknown --plant `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.cases == 0 {
        args.cases = args.workload.cases;
    }
    Ok(args)
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every `DRFIX_*` variable in the environment, sorted.
fn drfix_env() -> Vec<(String, String)> {
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DRFIX_"))
        .collect();
    env.sort();
    env
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Clone, Serialize)]
struct Value {
    value: f64,
    unit: String,
}

/// One run's result: the metrics plus the named output checks.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
    checks: Vec<(String, bool)>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_owned(),
            Value {
                value,
                unit: unit.to_owned(),
            },
        );
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints the human-readable lines, then the result as the last line.
    fn print(&self, args: &Args, env: &[(String, String)]) {
        println!(
            "drbench: workload {} | seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) \
             | {} cases | {} workers | trace {}",
            args.workload.name,
            args.seed,
            args.cases,
            workers(),
            u8::from(args.trace)
        );
        println!("env: {env:?}");
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, v) in &self.metrics {
            println!("metric {name} = {} {}", v.value, v.unit);
        }
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: BTreeMap<String, Value>,
        }
        let line = Line {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics.clone(),
        };
        println!(
            "{}",
            serde_json::to_string(&line).expect("result line serializes")
        );
    }
}

/// Runs one campaign under `catch_unwind`, timing the call. A panic or
/// an `Err` is reported as the message; `planted` panics first
/// (self-test only).
fn run_isolated(cfg: &CampaignConfig, planted: bool) -> (f64, Result<CampaignRun, String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        assert!(!planted, "planted panic");
        run_campaign(cfg, None, None)
    }));
    let wall = start.elapsed().as_secs_f64();
    let result = match result {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())),
    };
    (wall, result)
}

/// Whether one campaign's outputs hold together: every case folded,
/// and fixed ≤ raced ≤ cases.
fn outputs_hold(cfg: &CampaignConfig, run: &CampaignRun) -> bool {
    let t = run.snapshot.tallies();
    let cases = cfg.cases as u64;
    run.metrics.folds == cases
        && run.snapshot.completed
        && t.cases == cases
        && t.fixed <= t.raced
        && t.raced <= t.cases
}

/// Child-process half of `setup_s`: from `main` entry (`start`), build
/// the workload's campaign configuration, run the campaign prologue (a
/// zero-case `run_campaign`: snapshot, partition, stream, queues,
/// collector) and claim and synthesize the first case, then report the
/// elapsed seconds. The prologue runs on the serial executor: spawning
/// the pipelined worker pool is OS scheduling latency, which on a shared
/// host varies by an order of magnitude between otherwise equal runs.
fn probe_setup(args: &Args, start: Instant) -> ExitCode {
    let cfg = args.workload.config(args.seed, 0, 1);
    if run_campaign(&cfg, None, None).is_err() {
        return ExitCode::FAILURE;
    }
    let case = corpus::stream::CorpusStream::new(cfg.stream).case(0);
    std::hint::black_box(&case);
    println!("claimed {}", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Runs `SETUP_PROBES` fresh processes and collects the set-up time
/// each reports.
fn setup_samples(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--probe-setup", "--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running the setup probe: {e}"))?;
        let secs = String::from_utf8_lossy(&out.stdout)
            .strip_prefix("claimed ")
            .and_then(|s| s.trim().parse::<f64>().ok());
        match secs {
            Some(s) if out.status.success() => samples.push(s),
            _ => return Err(format!("setup probe failed ({})", out.status)),
        }
    }
    Ok(samples)
}

/// The untraced run: end-to-end metrics.
fn measure(args: &Args, report: &mut Report) {
    match setup_samples(args) {
        Ok(s) => report.metric("setup_s", median(&s), "s"),
        Err(e) => {
            eprintln!("drbench: {e}");
            report.check("setup probes", false);
        }
    }
    let cfg = args.workload.config(args.seed, args.cases, workers());
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let mut tallies = None;
    let mut held = true;
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, result) = run_isolated(&cfg, args.plant == Some(Plant::Panic) && rep == 0);
        report.attempted += cfg.cases as u64;
        match result {
            Ok(run) => {
                held &= outputs_hold(&cfg, &run);
                report.failed += (cfg.cases as u64).saturating_sub(run.metrics.folds);
                rates.push(run.metrics.folds as f64 / wall);
                let mut digest = run.snapshot.digest();
                if args.plant == Some(Plant::Digest) && rep == 1 {
                    digest ^= 1;
                }
                digests.push(digest);
                tallies.get_or_insert(run.snapshot.tallies());
            }
            Err(e) => {
                eprintln!("drbench: rep {rep} failed: {e}");
                report.failed += cfg.cases as u64;
                held = false;
            }
        }
        rep += 1;
    }
    report.check(
        "every repetition folds every case; fixed <= raced <= cases",
        held,
    );
    report.check(
        "one campaign digest across repetitions",
        !digests.is_empty() && digests.iter().all(|d| *d == digests[0]),
    );
    println!(
        "digest: {:#018x} over {rep} repetitions; cases/s per repetition: {rates:.2?}",
        digests.first().copied().unwrap_or(0)
    );
    report.metric("cases_per_s", median(&rates), "1/s");
    let t = tallies.unwrap_or_default();
    report.metric("race_rate", ratio(t.raced as f64, t.cases as f64), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced run: per-layer metrics.
fn traced(args: &Args, report: &mut Report, env: &[(String, String)]) {
    let cfg = args.workload.config(args.seed, args.cases, workers());
    let (par_wall, par) = run_isolated(&cfg, false);
    let mut serial_cfg = cfg.clone();
    serial_cfg.workers = 1;
    let (ser_wall, ser) = run_isolated(&serial_cfg, false);
    let mut tracer = trace::Tracer::new();
    let replay = trace::replay(&cfg, &mut tracer, args.plant == Some(Plant::Panic));
    let c = &replay.counts;

    report.attempted = c.cases;
    report.failed = c.panicked;
    let (par, ser) = match (par, ser) {
        (Ok(p), Ok(s)) => (p, s),
        (p, s) => {
            for e in [p.err(), s.err()].into_iter().flatten() {
                eprintln!("drbench: campaign failed: {e}");
            }
            report.check("campaigns ran", false);
            return;
        }
    };
    report.check(
        "campaigns fold every case; fixed <= raced <= cases",
        outputs_hold(&cfg, &par) && outputs_hold(&serial_cfg, &ser),
    );
    let mut replay_digest = replay.digest;
    if args.plant == Some(Plant::Digest) {
        replay_digest ^= 1;
    }
    report.check(
        "serial digest == pipelined digest",
        ser.snapshot.digest() == par.snapshot.digest(),
    );
    report.check(
        "replay digest == campaign digest",
        replay_digest == par.snapshot.digest(),
    );
    report.check("replayed cases did not panic", c.panicked == 0);
    report.check(
        "replayed VM steps match the outcomes",
        c.step_mismatches == 0,
    );
    // A re-check failure is a finding about the program's validation
    // strength, not an inconsistency in the run: it is reported, not
    // checked.
    println!(
        "recheck: {} of {} winning patches failed re-validation under a fresh seed",
        c.recheck_failures, c.fixed
    );
    let unattributed = replay.wall - tracer.top_level();
    report.check(
        "spans nest and add up to the traced wall clock",
        tracer.nested() && unattributed >= 0.0,
    );

    let secs = |name: &str| tracer.total(name);
    let fixes = args.workload.fixes();
    let fix_s = if fixes {
        secs("drfix.fix_case") - secs("detect")
    } else {
        0.0
    };
    let vm_s = secs("govm.detect_vm") + secs("govm.validate_vm");
    let cases_per_s = cfg.cases as f64 / par_wall;
    let serial_cases_per_s = cfg.cases as f64 / ser_wall;
    let m = &par.metrics;
    let rows: [(&str, f64, &str); 35] = [
        ("corpus.case_s", secs("corpus.case"), "s"),
        ("corpus.case_bytes", c.case_bytes as f64, "bytes"),
        ("golite.parse_s", secs("golite.parse"), "s"),
        ("golite.parse_bytes", c.parse_bytes as f64, "bytes"),
        ("govm.compile_s", secs("govm.compile"), "s"),
        ("govm.compile_calls", c.compile_calls as f64, "count"),
        ("govm.detect_vm_s", secs("govm.detect_vm"), "s"),
        ("govm.detect_steps", c.detect_steps as f64, "count"),
        ("govm.validate_vm_s", secs("govm.validate_vm"), "s"),
        ("govm.validate_steps", c.validate_steps as f64, "count"),
        ("govm.schedules", c.schedules as f64, "count"),
        (
            "govm.steps_per_s",
            ratio((c.detect_steps + c.validate_steps) as f64, vm_s),
            "1/s",
        ),
        ("racedet.det_events", c.det_events as f64, "count"),
        (
            "racedet.fast_hit_rate",
            ratio(c.fast_hits as f64, c.det_events as f64),
            "ratio",
        ),
        (
            "racedet.peak_shadow_bytes",
            c.peak_shadow_bytes as f64,
            "bytes",
        ),
        ("drfix.raceinfo_s", secs("drfix.raceinfo"), "s"),
        ("drfix.fix_s", fix_s, "s"),
        (
            "drfix.fix_rate",
            ratio(c.fixed as f64, c.raced as f64),
            "ratio",
        ),
        ("drfix.candidates", c.candidates as f64, "count"),
        ("drfix.validations", c.validations as f64, "count"),
        (
            "drfix.validations_per_fix",
            ratio(c.validations as f64, c.fixed as f64),
            "ratio",
        ),
        ("synthllm.calls", c.llm_calls as f64, "count"),
        (
            "drfix.fix_residual_s",
            if fixes {
                fix_s - secs("statcheck.probe") - secs("validate")
            } else {
                0.0
            },
            "s",
        ),
        (
            "drfix.fix_recheck_failures",
            c.recheck_failures as f64,
            "count",
        ),
        (
            "statcheck.check_s",
            secs("statcheck.probe") + secs("statcheck.check"),
            "s",
        ),
        ("statcheck.probes", c.probes as f64, "count"),
        (
            "statcheck.reject_ratio",
            ratio(c.rejected_static as f64, c.candidates as f64),
            "ratio",
        ),
        ("campaign.serial_cases_per_s", serial_cases_per_s, "1/s"),
        (
            "campaign.speedup",
            ratio(cases_per_s, serial_cases_per_s),
            "ratio",
        ),
        ("campaign.steals", m.steals as f64, "count"),
        ("campaign.checkpoints", m.checkpoints as f64, "count"),
        ("campaign.peak_in_flight", m.peak_in_flight as f64, "count"),
        ("trace.unattributed_s", unattributed, "s"),
        ("trace.overhead", ratio(replay.wall, ser_wall), "ratio"),
        ("trace.step_mismatches", c.step_mismatches as f64, "count"),
    ];
    for (name, value, unit) in rows {
        report.metric(name, value, unit);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"cases\":{},\"workers\":{},\"wall_s\":{},\"env\":{}}}",
        args.workload.name,
        args.seed,
        cfg.cases,
        cfg.workers,
        replay.wall,
        serde_json::to_string(&env.iter().cloned().collect::<BTreeMap<_, _>>())
            .expect("env serializes"),
    );
    match tracer.write_jsonl(&path, &header) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => {
            eprintln!("drbench: writing {}: {e}", path.display());
            report.check("trace written", false);
        }
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = drfix_env();
    if let Some((k, v)) = env.iter().find(|(k, _)| PINNED_ENV.contains(&k.as_str())) {
        eprintln!("drbench: refusing to run with {k}={v} set: it changes the measured program");
        return ExitCode::from(2);
    }
    if args.probe_setup {
        return probe_setup(&args, start);
    }
    let mut report = Report::new();
    if args.trace {
        traced(&args, &mut report, &env);
    } else {
        measure(&args, &mut report);
    }
    report.print(&args, &env);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
