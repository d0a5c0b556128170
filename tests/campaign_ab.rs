//! Campaign-orchestrator acceptance (ISSUE 9): the sharded, pipelined
//! campaign must be **bit-identical** to the serial reference at any
//! shard/worker plan, agree with the monolithic `fix_case` path on
//! every case, survive a kill/resume through an on-disk snapshot, and
//! hold the streaming bounded-memory invariant at scale.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use drfix::campaign::{run_campaign, CampaignConfig, CampaignMode, Snapshot};
use drfix::fleet::derive_case_seed;
use drfix::{DrFix, PipelineConfig, TournamentConfig};

fn detect_cfg(cases: usize, shards: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(
        cases,
        shards,
        StreamConfig {
            family: StreamFamily::Exposure,
            seed: 0xD0F1,
        },
    );
    cfg.pipeline = PipelineConfig {
        seed: 0xFEED,
        detect_runs: 8,
        ..PipelineConfig::default()
    };
    cfg.checkpoint_every = 8;
    cfg
}

#[test]
fn campaign_is_bit_identical_across_shard_and_worker_plans() {
    let cases: usize = bench::knob("DRFIX_CAMPAIGN_AB_CASES").unwrap_or(36);
    let reference = run_campaign(&detect_cfg(cases, 1), None, None).unwrap();
    assert!(reference.snapshot.completed);
    assert_eq!(reference.metrics.cases_done, cases as u64);
    let ref_digest = reference.snapshot.digest();
    let ref_tallies = reference.snapshot.tallies();
    assert!(ref_tallies.raced > 0, "exposure stream exposed nothing");

    for shards in [2usize, 3] {
        for workers in [1usize, 2, 4] {
            let mut cfg = detect_cfg(cases, shards);
            cfg.workers = workers;
            let run = run_campaign(&cfg, None, None).unwrap();
            // Shard boundaries change the per-shard digests (different
            // partitions of the same outcomes), but the tallies and the
            // per-case outcome stream are plan-invariant.
            assert_eq!(
                run.snapshot.tallies(),
                ref_tallies,
                "tallies diverged at {shards} shards / {workers} workers"
            );
            assert_eq!(run.metrics.folds, cases as u64);
            // Same sharding, any worker count: the digest itself is
            // bit-identical to the serial run of that plan.
            let mut serial_plan = detect_cfg(cases, shards);
            serial_plan.workers = 1;
            let serial = run_campaign(&serial_plan, None, None).unwrap();
            assert_eq!(
                run.snapshot, serial.snapshot,
                "snapshot diverged at {shards} shards / {workers} workers"
            );
            assert_ne!(run.snapshot.digest(), 0);
        }
    }
    // And the single-shard pipelined plan reproduces the reference
    // digest itself, bit for bit.
    let mut one = detect_cfg(cases, 1);
    one.workers = 4;
    let run = run_campaign(&one, None, None).unwrap();
    assert_eq!(run.snapshot.digest(), ref_digest);
}

/// A fix-mode campaign on four workers must produce exactly what direct
/// `DrFix::fix_case` calls produce on every streamed case — same fixes,
/// same LLM-call ledger, same validation instruction counts — so the
/// pool's claiming, per-case seeding and compaction change nothing.
#[test]
fn fix_mode_campaign_agrees_with_direct_fix_case() {
    let cases = 10usize;
    let mut cfg = detect_cfg(cases, 2);
    cfg.mode = CampaignMode::Fix;
    cfg.workers = 4;
    cfg.stream.family = StreamFamily::Mixed;
    cfg.pipeline.tournament = Some(TournamentConfig::default());
    let run = run_campaign(&cfg, None, None).unwrap();
    let t = run.snapshot.tallies();

    let stream = CorpusStream::new(cfg.stream);
    let mut fixed = 0u64;
    let mut llm_calls = 0u64;
    let mut validations = 0u64;
    let mut rejected_static = 0u64;
    let mut validation_vm_steps = 0u64;
    for i in 0..cases {
        let case = stream.case(i);
        let mut pcfg = cfg.pipeline.clone();
        pcfg.seed = derive_case_seed(cfg.pipeline.seed, i as u64);
        let out = DrFix::new(pcfg, None).fix_case(&case.files, &case.test);
        fixed += u64::from(out.fixed);
        llm_calls += u64::from(out.llm_calls);
        validations += u64::from(out.validations);
        rejected_static += u64::from(out.rejected_static);
        validation_vm_steps += out.validation_vm_steps;
    }
    assert!(fixed > 0, "fix arm never landed a patch");
    assert_eq!(t.fixed, fixed, "campaign fixes diverged from fix_case");
    assert_eq!(t.llm_calls, llm_calls, "LLM-call ledger diverged");
    assert_eq!(t.validations, validations, "validation count diverged");
    assert_eq!(t.rejected_static, rejected_static, "gate ledger diverged");
    assert_eq!(
        t.validation_vm_steps, validation_vm_steps,
        "validation instruction ledger diverged"
    );
}

#[test]
fn kill_and_resume_through_the_on_disk_snapshot() {
    let cases = 24usize;
    let cfg = detect_cfg(cases, 2);
    let uninterrupted = run_campaign(&cfg, None, None).unwrap();

    let dir = std::env::temp_dir().join(format!("drfix-campaign-ab-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");

    let mut kcfg = cfg.clone();
    kcfg.workers = 4;
    // Keep the in-flight window smaller than what remains after the
    // first checkpoint, so the post-halt drain cannot finish the
    // campaign on its own.
    kcfg.max_in_flight = 4;
    kcfg.halt_after_checkpoints = Some(1);
    let killed = run_campaign(&kcfg, None, Some(&path)).unwrap();
    assert!(killed.interrupted);
    assert!(!killed.snapshot.completed);
    assert!(killed.snapshot.done() < cases);

    // Resume from what actually landed on disk, at a different worker
    // count than the killed run — the snapshot is plan-portable.
    let on_disk = Snapshot::load(&path).unwrap();
    assert_eq!(on_disk, killed.snapshot);
    let mut rcfg = cfg.clone();
    rcfg.workers = 2;
    let resumed = run_campaign(&rcfg, Some(&on_disk), Some(&path)).unwrap();
    assert!(resumed.snapshot.completed);
    assert_eq!(resumed.snapshot, uninterrupted.snapshot);
    assert_eq!(
        resumed.snapshot.digest(),
        uninterrupted.snapshot.digest(),
        "resumed digest must be bit-identical to the uninterrupted run"
    );
    // The final snapshot on disk is the completed one.
    let final_disk = Snapshot::load(&path).unwrap();
    assert!(final_disk.completed);
    assert_eq!(final_disk, resumed.snapshot);
    std::fs::remove_dir_all(&dir).ok();
}

/// The streaming invariant at scale: memory is set by the in-flight
/// window, not the campaign length. Debug-scale default is 1500 cases;
/// `make campaign-scale` drives the same assertion over 10k cases in
/// release through `campaignctl --assert-resident-under`.
#[test]
fn resident_memory_is_bounded_by_the_window_not_the_campaign() {
    let cases: usize = bench::knob("DRFIX_CAMPAIGN_AB_SCALE_CASES").unwrap_or(1500);
    let mut cfg = detect_cfg(cases, 8);
    cfg.pipeline.detect_runs = 4;
    cfg.workers = 4;
    cfg.checkpoint_every = 64;
    cfg.max_in_flight = 24;
    let run = run_campaign(&cfg, None, None).unwrap();
    assert!(run.snapshot.completed);
    assert_eq!(run.metrics.folds, cases as u64);
    assert!(
        run.metrics.peak_in_flight <= 24,
        "in-flight window violated: {}",
        run.metrics.peak_in_flight
    );
    assert!(
        run.metrics.peak_pending <= 24,
        "collector reorder buffer exceeded the window: {}",
        run.metrics.peak_pending
    );
    // O(window) resident case bytes (8 KiB is a generous per-case
    // ceiling for the stream templates) — independent of `cases`.
    let bound = 24 * 8192;
    assert!(
        run.metrics.peak_resident_case_bytes <= bound,
        "resident case bytes scale with the campaign, not the window: {} > {bound}",
        run.metrics.peak_resident_case_bytes
    );
    // Each worker holds only the case it is running.
    let per_worker = cfg.workers as u64 * 8192;
    assert!(
        run.metrics.peak_resident_case_bytes <= per_worker,
        "resident case bytes exceed one case per worker: {} > {per_worker}",
        run.metrics.peak_resident_case_bytes
    );
    assert!(run.metrics.steals > 0, "work-stealing never engaged");
}
