//! Pipeline A/B for the `statcheck` static gate (ISSUE 7 acceptance):
//! the same corpus and seeds with the gate on vs off must produce
//! **identical fix outcomes** while the gated arm spends **strictly
//! fewer VM instructions** on dynamic validation.
//!
//! Why identity is guaranteed by construction (and pinned here against
//! regressions):
//!
//! - the gate's error tier is *sound* — it rejects only candidates
//!   whose synchronization is broken on every execution, which dynamic
//!   validation also rejects (the one documented blind spot, a
//!   goroutine self-deadlock dynamic validation cannot observe, makes
//!   the gate strictly *more* correct, and `tests/botch_matrix.rs`
//!   tracks it);
//! - the §4.4.2 feedback loop keys on the failed *strategy* and the
//!   attempt ordinal, never on the failure message text, so a static
//!   rejection steers the model exactly like the dynamic failure it
//!   preempts.
//!
//! The per-case outcomes are compared wholesale with only the two cost
//! counters (`rejected_static`, `validation_vm_steps`) scrubbed — any
//! other field diverging (fixed, patch bytes, strategy, llm_calls,
//! failure kind) fails the test.

use bench::{run_arm, Scale};
use corpus::{generate_eval_corpus, CorpusConfig};
use drfix::{FixOutcome, PipelineConfig, RagMode};
use synthllm::ModelTier;

/// Clears the fields the gate is *supposed* to change.
fn scrub(o: &FixOutcome) -> FixOutcome {
    let mut o = o.clone();
    o.rejected_static = 0;
    o.validation_vm_steps = 0;
    o.replayed_schedules = 0;
    o
}

#[test]
fn static_gate_changes_cost_not_outcomes() {
    let cases = generate_eval_corpus(&CorpusConfig {
        eval_cases: 28,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    // A mid-skill tier botches candidates often enough for the gate to
    // fire; RAG off keeps the arms free of database construction.
    let cfg = PipelineConfig {
        tier: ModelTier::Gpt4Turbo,
        rag: RagMode::None,
        validation_runs: 8,
        detect_runs: 24,
        seed: 0xFEED,
        ..PipelineConfig::default()
    };
    let threads = Scale::from_env().threads;
    let gated = run_arm(
        PipelineConfig {
            static_gate: true,
            ..cfg.clone()
        },
        threads,
        &cases,
        None,
    );
    let ungated = run_arm(
        PipelineConfig {
            static_gate: false,
            ..cfg
        },
        threads,
        &cases,
        None,
    );

    assert_eq!(gated.outcomes.len(), ungated.outcomes.len());
    for ((case, g), u) in cases.iter().zip(&gated.outcomes).zip(&ungated.outcomes) {
        assert_eq!(
            scrub(g),
            scrub(u),
            "{}: the static gate changed the pipeline's outcome",
            case.id
        );
        assert_eq!(
            u.rejected_static, 0,
            "{}: the ungated arm must never report static rejections",
            case.id
        );
    }

    let rejected: u32 = gated.outcomes.iter().map(|o| o.rejected_static).sum();
    let gated_steps: u64 = gated.outcomes.iter().map(|o| o.validation_vm_steps).sum();
    let ungated_steps: u64 = ungated.outcomes.iter().map(|o| o.validation_vm_steps).sum();
    assert!(
        rejected > 0,
        "no candidate was rejected statically — the A/B has no teeth at this scale"
    );
    assert!(
        gated_steps < ungated_steps,
        "static rejections must save dynamic validation work: \
         {gated_steps} gated vs {ungated_steps} ungated VM steps ({rejected} rejected)"
    );
}
