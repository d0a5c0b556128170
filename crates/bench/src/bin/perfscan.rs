//! `perfscan` — the deterministic hot-path counter scan behind
//! `BENCH_hotpath.json` and the CI `perf-gate` job.
//!
//! Two modes:
//!
//! - **Baseline mode** (default): run the scan and write the report to
//!   `BENCH_hotpath.json` at the repository root. Commit the file to
//!   move the baseline (only after confirming the drift is intentional
//!   — the golden tests pin the semantic half).
//! - **Check mode** (`--check`): run the scan and diff the
//!   deterministic counters against the checked-in baseline. Any cost
//!   counter rising >10%, benefit counter falling >10%, or exact
//!   counter (races, distinct schedules) drifting at all fails with
//!   exit code 1. Wall-clock throughput is printed but never gated.
//!   `--out <path>` additionally writes the fresh report (CI uploads it
//!   as the run's artifact).
//!
//! Scale knobs: `DRFIX_PERF_CASES` (default 28), `DRFIX_PERF_RUNS`
//! (default 24), `DRFIX_PERF_REPEAT` (default 5),
//! `DRFIX_PERF_HEAP_CASES` (default 3, the LargeHeap family),
//! `DRFIX_PERF_CHURN_CASES` (default 3, the Churn family),
//! `DRFIX_PERF_GATE_CASES` (default 6, the static-gate candidate
//! workload), `DRFIX_PERF_TOURNAMENT_CASES` (default 8, the tournament
//! arm), `DRFIX_PERF_CAMPAIGN_CASES` (default 96, the campaign
//! orchestration arm). The gate refuses to compare reports produced at
//! different scales.
//! `DRFIX_PERF_NOCACHE=1` runs the identical workload with the
//! lock-aware caches off — an A/B for timing work. The *logical*
//! counters stay bit-identical, but the dedicated cache counters
//! (`*_sync_hits`, `sync_epoch_hits`, `stack_cache_hits`) drop to
//! zero, so never bake a NOCACHE run into the baseline
//! (`make perf-baseline` clears the flag). `DRFIX_PERF_NOGC=1` is the
//! analogous A/B for the shadow-state lifecycle: logical counters stay
//! bit-identical, but the lifecycle gauges (`states_collected`,
//! `clock_slots_reclaimed`, the peak gauges) collapse — equally unfit
//! for a baseline.
//! `DRFIX_TIER=reg` runs the *whole* scan on the register interpreter
//! tier — every deterministic counter stays bit-identical (that is the
//! tier contract, pinned by the report's tier section, whose own A/B
//! always measures both tiers explicitly regardless of this knob).

use bench::hotpath::{self, HotpathScale, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf()
}

fn baseline_path() -> PathBuf {
    repo_root().join("BENCH_hotpath.json")
}

fn write_report(path: &Path, report: &Report) {
    let json = serde_json::to_string(report).expect("serialize report");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("report written to {}", path.display());
}

fn main() -> ExitCode {
    let mut check_mode = false;
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check_mode = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; usage: perfscan [--check] [--out <path>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let scale = HotpathScale::from_env();
    bench::header(
        "perfscan — deterministic VM + FastTrack hot-path counters",
        "HardRace (per-access overhead budgets); DataRaceBench (tracked baselines)",
    );
    println!(
        "\nworkload: {} exposure cases x {} policies x {} schedules, {} timing reps",
        scale.cases,
        hotpath::workload_policies().len(),
        scale.runs,
        scale.repeat
    );

    let report = hotpath::run_scan(&scale);
    println!("\n{}", hotpath::render_table(&report));
    println!(
        "fast-path hit rate {:.1}% | snapshots avoided {} | clock allocs avoided {}",
        100.0 * report.total.counters.fast_hit_rate(),
        report.total.counters.snapshots_avoided,
        report.total.counters.clock_allocs_avoided,
    );
    println!(
        "lock-aware cache: owner hits {} (stack-free rate {:.1}%) | sync-epoch joins \
         skipped {} | snapshot rebuilds reused {}",
        report.total.counters.read_sync_hits + report.total.counters.write_sync_hits,
        100.0 * report.total.counters.stackfree_hit_rate(),
        report.total.counters.sync_epoch_hits,
        report.total.counters.stack_cache_hits,
    );
    if let Some(sync) = report.categories.iter().find(|c| c.category == "SyncHeavy") {
        println!(
            "sync-heavy arms: {:.2}M instr/s vs PR 4 {:.2}M instr/s -> {:.2}x",
            sync.ips / 1e6,
            report.pr4.sync_heavy_ips / 1e6,
            report.sync_heavy_speedup_vs_pr4,
        );
        if report.sync_heavy_nocache_ips > 0.0 {
            println!(
                "sync-heavy A/B (same process, caches off): {:.2}M instr/s -> {:.2}x from \
                 the lock-aware caches alone",
                report.sync_heavy_nocache_ips / 1e6,
                report.sync_heavy_cache_speedup,
            );
        }
    }
    println!(
        "shadow lifecycle: {} states collected | {} clock slots reclaimed | peak width {}",
        report.total.counters.states_collected,
        report.total.counters.clock_slots_reclaimed,
        report.total.counters.peak_clock_width,
    );
    for s in &report.sampling {
        println!(
            "sampling recall: mod {:>2} -> {}/{} racy cases exposed ({:.0}%)",
            s.sample_mod,
            s.exposed,
            s.total,
            100.0 * s.recall,
        );
    }
    let g = &report.static_gate;
    println!(
        "static gate: candidates_rejected_static {}/{} | validation_instrs_saved {} \
         ({} gated vs {} ungated VM steps, {} verdict mismatches)",
        g.candidates_rejected_static,
        g.candidates,
        g.validation_instrs_saved,
        g.validation_vm_steps_gated,
        g.validation_vm_steps_ungated,
        g.verdict_mismatches,
    );
    let t = &report.tournament;
    println!(
        "tournament: fixed {}/{} (single-path {}) | {} candidates, {} rejected static, \
         {} repair iters | {} VM steps/fix ({} static-only, must be 0)",
        t.cases_fixed,
        t.cases,
        t.cases_fixed_single_path,
        t.candidates,
        t.candidates_rejected_static,
        t.repair_iters,
        t.validation_steps_per_fix,
        t.static_only_vm_steps,
    );
    let c = &report.campaign;
    println!(
        "campaign: {} cases x {} shards | pops {} steals {} probes {} folds {} \
         checkpoints {} | digest {:#018x} ({} pipelined mismatches, must be 0)",
        c.cases,
        c.shards,
        c.queue_pops,
        c.steals,
        c.steal_probes,
        c.folds,
        c.checkpoints,
        c.digest,
        c.digest_mismatches,
    );
    println!(
        "campaign memory: serial resident {}B | pipelined resident {}B, in-flight {} | \
         wall serial {:.2}s pipelined {:.2}s (reported, never gated)",
        c.peak_resident_case_bytes,
        c.pipelined_peak_resident_case_bytes,
        c.pipelined_peak_in_flight,
        c.wall_seconds_serial,
        c.wall_seconds_pipelined,
    );
    let tr = &report.tier;
    println!(
        "tier A/B (sync-heavy, same process): stack {:.2}M instr/s vs register {:.2}M \
         instr/s -> {:.2}x | {} fused ops | {} campaign mismatches, must be 0 \
         (wall-clock: reported, never gated)",
        tr.stack_ips / 1e6,
        tr.reg_ips / 1e6,
        tr.reg_speedup,
        tr.reg_fused_ops,
        tr.tier_mismatches,
    );
    println!(
        "exposure corpus: {:.2}M instr/s vs pre-optimization {:.2}M instr/s -> {:.2}x",
        report.exposure.ips / 1e6,
        report.pre_optimization.exposure_ips / 1e6,
        report.exposure_speedup_vs_pre_optimization,
    );
    println!(
        "full workload:   {:.2}M instr/s (wall-clock: reported, never gated)",
        report.total.ips / 1e6,
    );

    if let Some(out) = &out_path {
        write_report(out, &report);
    }

    if !check_mode {
        write_report(&baseline_path(), &report);
        return ExitCode::SUCCESS;
    }

    let raw = match std::fs::read_to_string(baseline_path()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "perf-gate: no baseline at {} ({e}); run `cargo run --release -p bench \
                 --bin perfscan` and commit the file",
                baseline_path().display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline: Report = match serde_json::from_str(&raw) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf-gate: unreadable baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = hotpath::check(&baseline, &report);
    if violations.is_empty() {
        println!(
            "perf-gate OK: every deterministic counter within {:.0}% of the baseline",
            100.0 * hotpath::GATE_TOLERANCE
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf-gate FAILED: {} drifted counter(s) vs the checked-in baseline",
            violations.len()
        );
        eprint!("{}", hotpath::render_violations(&violations));
        eprintln!(
            "if the drift is intentional, regenerate the baseline with \
             `make perf-baseline` and commit BENCH_hotpath.json"
        );
        ExitCode::FAILURE
    }
}
