//! `campaignctl` — drive sharded fix campaigns (`drfix::campaign`) from
//! the command line: start a run, resume one from its snapshot, or
//! inspect a snapshot.
//!
//! ```text
//! campaignctl run    [flags]              start a fresh campaign
//! campaignctl resume [flags]              continue from --snapshot
//! campaignctl status --snapshot <path>    inspect a snapshot
//! ```
//!
//! Shared flags (default in parentheses):
//!
//! - `--cases N` — total cases (10000)
//! - `--shards N` — queue shards (8)
//! - `--workers N` — worker threads, each running whole cases (4)
//! - `--serial` — one worker, run inline on the main thread
//! - `--seed N` — stream seed (13795095, i.e. 0xD27F17)
//! - `--family NAME` — fixable|exposure|tournament|mixed (exposure)
//! - `--mode NAME` — detect|fix (detect)
//! - `--checkpoint-every N` — folds per shard between snapshots (64)
//! - `--halt-after-checkpoints N` — deterministic kill switch: stop
//!   after the Nth checkpoint (exit code 3)
//! - `--max-in-flight N` — in-flight case bound (0 = auto)
//! - `--snapshot PATH` — snapshot file to write (run) / read (resume,
//!   status)
//! - `--report PATH` — write the metrics report as JSON (its `schema`
//!   is [`drfix::campaign::CAMPAIGN_SCHEMA`])
//! - `--assert-resident-under BYTES` — fail (exit 1) unless the
//!   resident generated-case-bytes high-water stayed under BYTES — the
//!   streamed-corpus bounded-memory assertion at any scale
//!
//! `status` extras: `--digest` prints only the campaign digest;
//! `--assert-complete` / `--assert-incomplete` exit 1 when the snapshot
//! disagrees (the CI smoke test uses these to prove the kill really
//! interrupted and the resume really finished).
//!
//! Exit codes: 0 completed, 3 halted at the kill switch (snapshot
//! written, resumable), 4 the `--snapshot` file of `resume` or `status`
//! is unreadable, truncated or corrupt, 1 any other error.

use drfix::campaign::{run_campaign, CampaignConfig, CampaignMode, Snapshot};
use drfix::campaign::{CampaignRun, Tallies};
use drfix::PipelineConfig;
use drfix::TournamentConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code of a run stopped by `--halt-after-checkpoints`.
const EXIT_HALTED: u8 = 3;

/// Exit code of `resume` or `status` when the snapshot does not load.
const EXIT_BAD_SNAPSHOT: u8 = 4;

struct Cli {
    cmd: String,
    cases: usize,
    shards: usize,
    workers: usize,
    seed: u64,
    family: String,
    mode: String,
    checkpoint_every: usize,
    halt_after: Option<u64>,
    max_in_flight: usize,
    snapshot: Option<PathBuf>,
    report: Option<PathBuf>,
    assert_resident_under: Option<u64>,
    digest_only: bool,
    assert_complete: bool,
    assert_incomplete: bool,
}

fn usage() -> &'static str {
    "usage: campaignctl <run|resume|status> [--cases N] [--shards N] [--workers N] \
     [--serial] [--seed N] [--family fixable|exposure|tournament|mixed] \
     [--mode detect|fix] [--checkpoint-every N] [--halt-after-checkpoints N] \
     [--max-in-flight N] [--snapshot PATH] [--report PATH] \
     [--assert-resident-under BYTES] [--digest] [--assert-complete] [--assert-incomplete]\n\
     defaults: --cases 10000 --shards 8 --workers 4 --seed 13795095 --family exposure \
     --mode detect --checkpoint-every 64"
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(|| usage().to_string())?;
    let mut cli = Cli {
        cmd,
        cases: 10_000,
        shards: 8,
        workers: 4,
        seed: 0xD27F17,
        family: "exposure".into(),
        mode: "detect".into(),
        checkpoint_every: 64,
        halt_after: None,
        max_in_flight: 0,
        snapshot: None,
        report: None,
        assert_resident_under: None,
        digest_only: false,
        assert_complete: false,
        assert_incomplete: false,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cases" => {
                cli.cases = need(&mut args, "--cases")?
                    .parse()
                    .map_err(bad("--cases"))?
            }
            "--shards" => {
                cli.shards = need(&mut args, "--shards")?
                    .parse()
                    .map_err(bad("--shards"))?
            }
            "--workers" => {
                cli.workers = need(&mut args, "--workers")?
                    .parse()
                    .map_err(bad("--workers"))?
            }
            "--serial" => cli.workers = 1,
            "--seed" => cli.seed = need(&mut args, "--seed")?.parse().map_err(bad("--seed"))?,
            "--family" => cli.family = need(&mut args, "--family")?,
            "--mode" => cli.mode = need(&mut args, "--mode")?,
            "--checkpoint-every" => {
                cli.checkpoint_every = need(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(bad("--checkpoint-every"))?
            }
            "--halt-after-checkpoints" => {
                cli.halt_after = Some(
                    need(&mut args, "--halt-after-checkpoints")?
                        .parse()
                        .map_err(bad("--halt-after-checkpoints"))?,
                )
            }
            "--max-in-flight" => {
                cli.max_in_flight = need(&mut args, "--max-in-flight")?
                    .parse()
                    .map_err(bad("--max-in-flight"))?
            }
            "--assert-resident-under" => {
                cli.assert_resident_under = Some(
                    need(&mut args, "--assert-resident-under")?
                        .parse()
                        .map_err(bad("--assert-resident-under"))?,
                )
            }
            "--snapshot" => cli.snapshot = Some(PathBuf::from(need(&mut args, "--snapshot")?)),
            "--report" => cli.report = Some(PathBuf::from(need(&mut args, "--report")?)),
            "--digest" => cli.digest_only = true,
            "--assert-complete" => cli.assert_complete = true,
            "--assert-incomplete" => cli.assert_incomplete = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(cli)
}

fn bad(flag: &'static str) -> impl Fn(std::num::ParseIntError) -> String {
    move |e| format!("{flag}: {e}")
}

fn build_config(cli: &Cli) -> Result<CampaignConfig, String> {
    let family = corpus::stream::StreamFamily::parse(&cli.family)
        .ok_or_else(|| format!("unknown family `{}`", cli.family))?;
    let mode =
        CampaignMode::parse(&cli.mode).ok_or_else(|| format!("unknown mode `{}`", cli.mode))?;
    let mut cfg = CampaignConfig::new(
        cli.cases,
        cli.shards,
        corpus::stream::StreamConfig {
            family,
            seed: cli.seed,
        },
    );
    cfg.workers = cli.workers.max(1);
    cfg.mode = mode;
    cfg.checkpoint_every = cli.checkpoint_every.max(1);
    cfg.halt_after_checkpoints = cli.halt_after;
    cfg.max_in_flight = cli.max_in_flight;
    // Campaign-scale pipeline: modest detection budget per case, and a
    // tournament in fix mode (the service configuration — static
    // candidate work pipelines ahead of validation).
    cfg.pipeline = PipelineConfig {
        seed: cli.seed ^ 0xD27F17,
        detect_runs: 12,
        ..PipelineConfig::default()
    };
    if mode == CampaignMode::Fix {
        cfg.pipeline.tournament = Some(TournamentConfig::default());
    }
    Ok(cfg)
}

fn print_tallies(t: &Tallies) {
    println!(
        "tallies: {} cases | {} raced | {} fixed | stops C/R/D/B {}/{}/{}/{}",
        t.cases,
        t.raced,
        t.fixed,
        t.stop_completed,
        t.stop_race_exposed,
        t.stop_dedup_saturated,
        t.stop_budget_exhausted,
    );
    println!(
        "work: {} detect VM steps | {} validation VM steps | {} llm calls | \
         {} validations | {} static rejections | peak shadow {}B",
        t.detect_vm_steps,
        t.validation_vm_steps,
        t.llm_calls,
        t.validations,
        t.rejected_static,
        t.peak_shadow_bytes,
    );
}

fn finish(cli: &Cli, run: &CampaignRun) -> ExitCode {
    println!("{}", run.metrics.summary());
    if let Some(bound) = cli.assert_resident_under {
        if run.metrics.peak_resident_case_bytes >= bound {
            eprintln!(
                "campaignctl: resident case bytes not bounded: peak {} >= {bound} \
                 (streaming invariant violated)",
                run.metrics.peak_resident_case_bytes,
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bounded-memory assertion: peak resident {}B < {bound}B over {} cases",
            run.metrics.peak_resident_case_bytes, run.snapshot.cases,
        );
    }
    print_tallies(&run.metrics.tallies);
    println!("digest: {:#018x}", run.snapshot.digest());
    if let Some(path) = &cli.report {
        match serde_json::to_string(&run.metrics) {
            Ok(json) => {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("campaignctl: writing report {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("report written to {}", path.display());
            }
            Err(e) => {
                eprintln!("campaignctl: serializing report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if run.interrupted {
        println!(
            "campaign halted at checkpoint {} ({} of {} cases folded) — resumable",
            run.metrics.checkpoints,
            run.snapshot.done(),
            run.snapshot.cases,
        );
        ExitCode::from(EXIT_HALTED)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let cfg = build_config(cli)?;
    println!(
        "campaign: {} {} cases | {} shards | {} workers{} | family {} | seed {:#x}",
        cfg.mode.name(),
        cfg.cases,
        cfg.shards,
        cfg.workers,
        if cfg.workers <= 1 { " (serial)" } else { "" },
        cfg.stream.family.name(),
        cfg.stream.seed,
    );
    let run = run_campaign(&cfg, None, cli.snapshot.as_deref())?;
    Ok(finish(cli, &run))
}

/// Reads `--snapshot` for `cmd`. A missing flag is a usage error (exit
/// 1); a snapshot that does not load exits [`EXIT_BAD_SNAPSHOT`].
fn read_snapshot(cli: &Cli, cmd: &str) -> Result<Snapshot, ExitCode> {
    let Some(path) = cli.snapshot.as_deref() else {
        eprintln!("campaignctl: {cmd} needs --snapshot <path>");
        return Err(ExitCode::FAILURE);
    };
    Snapshot::load(path).map_err(|e| {
        eprintln!("campaignctl: reading {}: {e}", path.display());
        ExitCode::from(EXIT_BAD_SNAPSHOT)
    })
}

fn cmd_resume(cli: &Cli) -> Result<ExitCode, String> {
    let snap = match read_snapshot(cli, "resume") {
        Ok(snap) => snap,
        Err(code) => return Ok(code),
    };
    let cfg = build_config(cli)?;
    println!(
        "resuming {} of {} cases (digest so far {:#018x})",
        snap.cases - snap.done(),
        snap.cases,
        snap.digest(),
    );
    let run = run_campaign(&cfg, Some(&snap), cli.snapshot.as_deref())?;
    Ok(finish(cli, &run))
}

fn cmd_status(cli: &Cli) -> Result<ExitCode, String> {
    let snap = match read_snapshot(cli, "status") {
        Ok(snap) => snap,
        Err(code) => return Ok(code),
    };
    if cli.digest_only {
        println!("{:#018x}", snap.digest());
    } else {
        println!(
            "campaign {} | family {} | schema {} | fingerprint {:#018x}",
            snap.mode, snap.family, snap.schema, snap.fingerprint,
        );
        println!(
            "progress: {}/{} cases folded across {} shards — {}",
            snap.done(),
            snap.cases,
            snap.shards.len(),
            if snap.completed {
                "completed"
            } else {
                "resumable"
            },
        );
        for (i, s) in snap.shards.iter().enumerate() {
            println!(
                "  shard {i}: [{}, {}) done {}/{} digest {:#018x}",
                s.start,
                s.end,
                s.done,
                s.len(),
                s.digest,
            );
        }
        print_tallies(&snap.tallies());
        println!("digest: {:#018x}", snap.digest());
    }
    if cli.assert_complete && !snap.completed {
        eprintln!("campaignctl: snapshot is not complete");
        return Ok(ExitCode::FAILURE);
    }
    if cli.assert_incomplete && snap.completed {
        eprintln!("campaignctl: snapshot is unexpectedly complete");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("campaignctl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cli.cmd.as_str() {
        "run" => cmd_run(&cli),
        "resume" => cmd_resume(&cli),
        "status" => cmd_status(&cli),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campaignctl: {e}");
            ExitCode::FAILURE
        }
    }
}
