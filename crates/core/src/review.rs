//! Developer validation (§4.5): a seeded model of code review.
//!
//! Code-review acceptance is a human measurement; [`review_fix`] models
//! it over the strategy and patch size the pipeline produced, with the
//! paper's published marginals (86% acceptance with §5.2's rejection
//! reasons). The paper's ticket times and RQ4 survey measure people and
//! deployment wall-clock time that no run computes, so they are not
//! reproduced.

use crate::pipeline::FixOutcome;
use serde::{Deserialize, Serialize};
use synthllm::capability::draw;
use synthllm::StrategyKind;

/// Outcome of a code review.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReviewOutcome {
    /// Approved and merged as-is.
    Approved,
    /// Approved after minor idiomatic refinement (8 of 193 in §5.2).
    ApprovedWithTouchups,
    /// Rejected, with the §5.2 reason.
    Rejected(RejectReason),
}

impl ReviewOutcome {
    /// Whether the patch landed.
    pub fn accepted(&self) -> bool {
        !matches!(self, ReviewOutcome::Rejected(_))
    }
}

/// §5.2's rejection reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// "prioritizing code readability over intricate solutions".
    Readability,
    /// "opting for broader manual refactoring instead of targeted fixes".
    PrefersRefactor,
    /// "identifying certain solutions as incorrect despite passing tests".
    SuspectedIncorrect,
}

/// Reviews one produced fix. Deterministic per `(seed, case_key)`.
pub fn review_fix(seed: u64, case_key: &str, outcome: &FixOutcome) -> ReviewOutcome {
    let strategy = outcome.strategy;
    let loc = outcome.patch_loc.unwrap_or(10) as f64;
    // Idiomatic strategies sail through; blanket locks draw the
    // readability objection; very large diffs push reviewers toward
    // manual refactoring.
    let base = match strategy {
        Some(StrategyKind::BlanketMutex) => 0.45,
        Some(s) if s.idiomatic() => 0.92,
        _ => 0.85,
    };
    let p_accept = (base - (loc / 400.0)).clamp(0.2, 0.97);
    let r = draw(seed, &[case_key], "review");
    if r < p_accept {
        // A small slice of approvals need idiomatic touch-ups
        // (8/193 ≈ 4%).
        if draw(seed, &[case_key], "touchup") < 0.042 {
            ReviewOutcome::ApprovedWithTouchups
        } else {
            ReviewOutcome::Approved
        }
    } else {
        let which = draw(seed, &[case_key], "reason");
        let reason = if which < 0.4 {
            RejectReason::Readability
        } else if which < 0.75 {
            RejectReason::PrefersRefactor
        } else {
            RejectReason::SuspectedIncorrect
        };
        ReviewOutcome::Rejected(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FixOutcome;

    fn outcome(strategy: StrategyKind, loc: usize) -> FixOutcome {
        FixOutcome {
            fixed: true,
            patch: None,
            strategy: Some(strategy),
            location: None,
            scope: None,
            example_used: false,
            example_category: None,
            llm_calls: 2,
            validations: 1,
            rejected_static: 0,
            validation_vm_steps: 0,
            replayed_schedules: 0,
            patch_loc: Some(loc),
            failure: None,
            bug_hash: Some("h".into()),
            racy_var: Some("x".into()),
            tournament: None,
        }
    }

    #[test]
    fn idiomatic_fixes_mostly_accepted() {
        let mut accepted = 0;
        for i in 0..200 {
            let o = outcome(StrategyKind::RedeclareInGoroutine, 6);
            if review_fix(1, &format!("case{i}"), &o).accepted() {
                accepted += 1;
            }
        }
        assert!((160..=200).contains(&accepted), "{accepted}");
    }

    #[test]
    fn blanket_locks_rejected_far_more() {
        let mut idiomatic = 0;
        let mut blanket = 0;
        for i in 0..200 {
            if review_fix(1, &format!("a{i}"), &outcome(StrategyKind::MutexGuard, 8)).accepted() {
                idiomatic += 1;
            }
            if review_fix(1, &format!("a{i}"), &outcome(StrategyKind::BlanketMutex, 8)).accepted() {
                blanket += 1;
            }
        }
        assert!(blanket < idiomatic - 40, "{blanket} vs {idiomatic}");
    }

    #[test]
    fn review_is_deterministic() {
        let o = outcome(StrategyKind::MutexGuard, 10);
        assert_eq!(review_fix(9, "k", &o), review_fix(9, "k", &o));
    }
}
