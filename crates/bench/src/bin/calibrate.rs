//! Calibration harness: runs the headline ablation arms over a corpus
//! slice and prints fix rates next to the paper's numbers. Used while
//! tuning the capability model; kept as a fast sanity-check binary.
//!
//! Every arm runs on `DRFIX_THREADS` workers with per-case derived
//! seeds, so its outcomes are bit-identical at any width.

use bench::{base_config, pct, run_arm, Scale};
use drfix::{LocationKind, RagMode, SchedulePolicy};
use synthllm::{ModelTier, Scope};

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    println!(
        "corpus: {} cases ({} fixable), db: {} pairs, {} validation runs, policy: {}, {} thread{}",
        cases.len(),
        cases.iter().filter(|c| c.fixable).count(),
        scale.db_pairs,
        scale.validation_runs,
        scale.policy.label(),
        scale.threads,
        if scale.threads == 1 { "" } else { "s" },
    );

    // Fig. 3 arms (GPT-4o).
    for (label, rag, paper) in [
        ("No RAG", RagMode::None, "47%"),
        ("RAG without skeleton", RagMode::Raw, "50%"),
        ("RAG with skeleton", RagMode::Skeleton, "66%"),
    ] {
        let cfg = base_config(&scale, ModelTier::Gpt4o, rag);
        let arm = run_arm(label, cfg, scale.threads, cases, Some(db));
        println!(
            "{label:24} measured {:>6}  (paper {paper})  [{}]",
            pct(arm.rate()),
            arm.throughput()
        );
    }

    // Fig. 4 arms.
    for (label, scopes, feedback, paper) in [
        ("Func only", vec![Scope::Func], false, "39%"),
        ("File only", vec![Scope::File], false, "33%"),
        ("File + feedback", vec![Scope::File], true, "39%"),
        (
            "Func+file + feedback",
            vec![Scope::Func, Scope::File],
            true,
            "66%",
        ),
    ] {
        let mut cfg = base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton);
        cfg.scopes = scopes;
        cfg.feedback = feedback;
        let arm = run_arm(label, cfg, scale.threads, cases, Some(db));
        println!(
            "{label:24} measured {:>6}  (paper {paper})  [{}]",
            pct(arm.rate()),
            arm.throughput()
        );
    }

    // LCA ablation.
    for (label, locs, paper) in [
        (
            "Without LCA",
            vec![LocationKind::Test, LocationKind::Leaf],
            "62.5%",
        ),
        ("With LCA", LocationKind::default_order(), "66.8%"),
    ] {
        let mut cfg = base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton);
        cfg.locations = locs;
        let arm = run_arm(label, cfg, scale.threads, cases, Some(db));
        println!(
            "{label:24} measured {:>6}  (paper {paper})  [{}]",
            pct(arm.rate()),
            arm.throughput()
        );
    }

    if std::env::var("DRFIX_DEBUG").is_ok() {
        let cfg = base_config(&scale, ModelTier::O1Preview, RagMode::Skeleton);
        let arm = run_arm("debug", cfg, scale.threads, cases, Some(db));
        for (case, o) in cases.iter().zip(&arm.outcomes) {
            if !o.fixed && (case.fixable || case.hard.is_some()) {
                println!(
                    "UNFIXED {} cat={:?} hard={:?} fixable={} lca={} var={:?} fail={:?} calls={}",
                    case.id,
                    case.category,
                    case.hard,
                    case.fixable,
                    case.lca_only,
                    o.racy_var,
                    o.failure,
                    o.llm_calls
                );
            }
        }
    }

    // RQ3 tiers.
    for (label, tier, paper) in [
        ("GPT-4 Turbo", ModelTier::Gpt4Turbo, "55% (deployment)"),
        ("GPT-4o", ModelTier::Gpt4o, "65.8%"),
        ("o1-preview", ModelTier::O1Preview, "73.5%"),
    ] {
        let cfg = base_config(&scale, tier, RagMode::Skeleton);
        let arm = run_arm(label, cfg, scale.threads, cases, Some(db));
        println!(
            "{label:24} measured {:>6}  (paper {paper})  [{}]",
            pct(arm.rate()),
            arm.throughput()
        );
    }

    // Scheduler policies: the skeleton arm under each exploration
    // strategy for detection and validation. Fix rates must stay in the
    // same band — the policies trade schedules-to-exposure (see the
    // `schedules_to_expose` bench), not correctness.
    for (label, policy) in [
        ("sched: random", SchedulePolicy::Random),
        ("sched: pct", SchedulePolicy::pct()),
        ("sched: sweep", SchedulePolicy::Sweep),
    ] {
        let mut cfg = base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton);
        cfg.detect_policy = policy.clone();
        cfg.validate_policy = policy;
        let arm = run_arm(label, cfg, scale.threads, cases, Some(db));
        println!(
            "{label:24} measured {:>6}  (paper 66%)  [{}]",
            pct(arm.rate()),
            arm.throughput()
        );
    }

    let (hits, misses) = db.cache_stats();
    println!(
        "\nquery-embedding cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
}
