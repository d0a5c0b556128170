//! Developer validation (§4.5) and perception (RQ4): a seeded model of
//! the human populations the paper reports on.
//!
//! Code-review acceptance, ticket resolution times, and the user survey
//! are human measurements; this module models the populations with the
//! paper's published marginals (86% acceptance with §5.2's rejection
//! reasons, 3-day vs 11-day closure, Table 6's response distribution) so
//! the benches can regenerate the corresponding tables. EXPERIMENTS.md
//! documents this substitution.

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

/// Ticket wall-clock days: Dr.Fix tickets averaged 3 days, manual fixes
/// 11 days (§5.5).
pub fn resolution_days(seed: u64, case_key: &str, via_drfix: bool) -> f64 {
    let r = draw(seed, &[case_key], "days");
    if via_drfix {
        1.5 + r * 3.0 // mean 3.0
    } else {
        6.0 + r * 10.0 // mean 11.0
    }
}

/// One survey respondent (Table 6).
///
/// Serialize-only: responses are sampled in-process and exported, never
/// parsed back (the `&'static str` buckets cannot be deserialized).
#[derive(Debug, Clone, Serialize)]
pub struct SurveyResponse {
    /// Go experience bucket.
    pub experience: &'static str,
    /// Concurrency familiarity bucket.
    pub familiarity: &'static str,
    /// Comfort fixing races.
    pub comfort: &'static str,
    /// Fix-quality rating (1–5).
    pub quality: u8,
    /// Race-complexity rating (1–5).
    pub complexity: u8,
    /// Estimated time saved bucket.
    pub time_saved: &'static str,
}

/// Samples the 21-developer survey with Table 6's marginal counts.
pub fn survey(seed: u64) -> Vec<SurveyResponse> {
    let experience: Vec<&'static str> = expand(&[
        ("Less than 1 year", 5),
        ("1 to 3 years", 9),
        ("3 to 5 years", 3),
        ("More than 5 years", 4),
    ]);
    let familiarity = expand(&[("Somewhat Familiar", 12), ("Very Familiar", 9)]);
    let comfort = expand(&[
        ("Not Comfortable at All", 1),
        ("Slightly Comfortable but Need Help", 14),
        ("Very Comfortable and Do Not Need Help", 6),
    ]);
    let time_saved = expand(&[
        ("Up to 1 day", 14),
        ("1 to 2 days", 4),
        ("2 to 4 days", 2),
        ("1 to 2 weeks", 1),
    ]);
    // Quality 3.38 ± 1.24; complexity 3.00 ± 0.89 on n=21.
    let quality_scores = [
        5, 5, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 5, 1, 4,
    ];
    let complexity_scores = [
        3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 2, 2, 2, 4, 3, 3, 2, 3, 4, 2, 3,
    ];

    (0..21)
        .map(|i| {
            let pick = |items: &Vec<&'static str>, tag: &str| -> &'static str {
                let r = draw(seed, &[&i.to_string()], tag);
                items[(r * items.len() as f64) as usize % items.len()]
            };
            SurveyResponse {
                experience: pick(&experience, "exp"),
                familiarity: pick(&familiarity, "fam"),
                comfort: pick(&comfort, "comfort"),
                quality: quality_scores[i],
                complexity: complexity_scores[i],
                time_saved: pick(&time_saved, "saved"),
            }
        })
        .collect()
}

fn expand(buckets: &[(&'static str, usize)]) -> Vec<&'static str> {
    let mut out = Vec::new();
    for (label, n) in buckets {
        for _ in 0..*n {
            out.push(*label);
        }
    }
    out
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / (xs.len().saturating_sub(1).max(1)) as f64;
    (mean, var.sqrt())
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
            duration_minutes: 8.0,
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
    fn drfix_tickets_close_much_faster() {
        let mut fast = 0.0;
        let mut slow = 0.0;
        for i in 0..100 {
            fast += resolution_days(2, &format!("c{i}"), true);
            slow += resolution_days(2, &format!("c{i}"), false);
        }
        let (fast, slow) = (fast / 100.0, slow / 100.0);
        assert!((2.0..4.5).contains(&fast), "{fast}");
        assert!((9.0..13.0).contains(&slow), "{slow}");
    }

    #[test]
    fn survey_matches_table6_marginals() {
        let s = survey(3);
        assert_eq!(s.len(), 21);
        let (q_mean, q_std) = mean_std(&s.iter().map(|r| r.quality as f64).collect::<Vec<_>>());
        let (c_mean, _) = mean_std(&s.iter().map(|r| r.complexity as f64).collect::<Vec<_>>());
        assert!((3.0..3.8).contains(&q_mean), "{q_mean}");
        assert!((0.9..1.6).contains(&q_std), "{q_std}");
        assert!((2.7..3.3).contains(&c_mean), "{c_mean}");
    }

    #[test]
    fn review_is_deterministic() {
        let o = outcome(StrategyKind::MutexGuard, 10);
        assert_eq!(review_fix(9, "k", &o), review_fix(9, "k", &o));
    }
}
