//! Tournament-arm acceptance (ISSUE 8): on the statically-interesting
//! corpus families the tournament must fix a **strict superset** of the
//! single-path loop's cases, stay **bit-identical** across thread
//! counts and re-runs, and spend **zero** dynamic VM steps on its
//! lint-repair loop.

use bench::{run_arm, Scale};
use corpus::{generate_tournament_corpus, CorpusConfig};
use drfix::{CandidateOutcome, PipelineConfig, RagMode, TournamentConfig};
use synthllm::ModelTier;

fn base_cfg() -> PipelineConfig {
    // A mid-skill tier botches candidates often enough for the repair
    // loop and the gate to matter; RAG off keeps the arms light.
    PipelineConfig {
        tier: ModelTier::Gpt4Turbo,
        rag: RagMode::None,
        validation_runs: 8,
        detect_runs: 24,
        seed: 0xFEED,
        ..PipelineConfig::default()
    }
}

fn corpus() -> Vec<corpus::RaceCase> {
    generate_tournament_corpus(&CorpusConfig {
        eval_cases: 16,
        db_pairs: 0,
        seed: 0xD0F1,
    })
}

#[test]
fn tournament_fixes_a_strict_superset_with_zero_lint_vm_steps() {
    let cases = corpus();
    let threads = Scale::from_env().threads;
    let single = run_arm(base_cfg(), threads, &cases, None);
    let tourn = run_arm(
        PipelineConfig {
            tournament: Some(TournamentConfig::default()),
            ..base_cfg()
        },
        threads,
        &cases,
        None,
    );

    let mut single_fixed = 0usize;
    let mut tourn_fixed = 0usize;
    let mut total_repairs = 0u32;
    let mut total_rejected = 0u32;
    for ((case, s), t) in cases.iter().zip(&single.outcomes).zip(&tourn.outcomes) {
        let rep = t
            .tournament
            .as_ref()
            .unwrap_or_else(|| panic!("{}: tournament arm lost its report", case.id));
        eprintln!(
            "{}: single fixed={} ({:?}) | tourn fixed={} ({:?}) cands={} repairs={} probes={} rej={} vm={}",
            case.id,
            s.fixed,
            s.strategy,
            t.fixed,
            t.strategy,
            rep.candidates.len(),
            rep.repair_iters,
            rep.lint_probes,
            t.rejected_static,
            t.validation_vm_steps,
        );
        single_fixed += s.fixed as usize;
        tourn_fixed += t.fixed as usize;
        total_repairs += rep.repair_iters;
        total_rejected += t.rejected_static;
        // Superset: every single-path win is a tournament win.
        assert!(
            !s.fixed || t.fixed,
            "{}: single-path fixed this case but the tournament lost it",
            case.id
        );
        // The repair loop is purely static: a case whose every candidate
        // died at the gate must not have spent one VM instruction.
        if rep
            .candidates
            .iter()
            .all(|c| matches!(c.outcome, CandidateOutcome::RejectedStatic { .. }))
            && !rep.candidates.is_empty()
        {
            assert_eq!(
                t.validation_vm_steps, 0,
                "{}: lint-rejected roster still burned VM steps",
                case.id
            );
        }
        // The winner's report entry agrees with the outcome.
        if let Some(w) = rep.winner {
            assert!(t.fixed, "{}: winner without a fix", case.id);
            assert_eq!(
                rep.candidates[w].outcome,
                CandidateOutcome::Won,
                "{}",
                case.id
            );
            assert_eq!(Some(rep.candidates[w].strategy), t.strategy, "{}", case.id);
        } else {
            assert!(!t.fixed, "{}: fix without a winner", case.id);
        }
    }
    eprintln!(
        "single fixed {single_fixed}/{} | tournament fixed {tourn_fixed}/{} | repairs {total_repairs} | static rejections {total_rejected}",
        cases.len(),
        cases.len()
    );
    // Strictness: the tournament must win cases single-path loses.
    assert!(
        tourn_fixed > single_fixed,
        "tournament ({tourn_fixed}) must fix strictly more than single-path ({single_fixed})"
    );
    // The families must actually exercise the new machinery.
    assert!(
        total_repairs > 0,
        "no repair iteration ran — the corpus no longer exercises the loop"
    );
    assert!(
        total_rejected > 0,
        "no candidate was statically rejected — gate accounting untested"
    );
}

#[test]
fn tournament_outcomes_are_bit_identical_across_thread_counts_and_reruns() {
    let cases = corpus();
    let cfg = PipelineConfig {
        tournament: Some(TournamentConfig::default()),
        ..base_cfg()
    };
    let serial = run_arm(cfg.clone(), 1, &cases, None);
    for threads in [1usize, 2, 8] {
        let run = run_arm(cfg.clone(), threads, &cases, None);
        assert_eq!(
            serial.outcomes, run.outcomes,
            "outcomes diverged at {threads} threads"
        );
    }
    let rerun = run_arm(cfg, 1, &cases, None);
    assert_eq!(serial.outcomes, rerun.outcomes, "re-run diverged");
}
