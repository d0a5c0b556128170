//! RQ1: the 18-month deployment — fixes produced, developer acceptance
//! and merged fix lines.
//!
//! Paper: 224/404 fixed (55%) with GPT-4 Turbo; 193/224 accepted (86%,
//! 8 with touch-ups); ~2.1K lines merged. The paper's fix durations and
//! ticket-resolution times measure deployment wall-clock time, which no
//! run here computes, so they are not reported.

use bench::{base_config, header, pct, run_arm, Scale};
use drfix::{review_fix, RagMode, ReviewOutcome};
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "RQ1 — deployment: fix rate, acceptance, merged lines",
        "§5.2: 55% fixed, 86% accepted, ~2.1K lines merged",
    );
    let cfg = base_config(&scale, ModelTier::Gpt4Turbo, RagMode::Skeleton);
    let arm = run_arm(cfg, scale.threads, cases, Some(db));
    println!("throughput: {}\n", arm.throughput());

    let fixed: Vec<_> = cases
        .iter()
        .zip(&arm.outcomes)
        .filter(|(_, o)| o.fixed)
        .collect();
    println!(
        "fixes produced: {}/{} ({})   paper: 224/404 (55%)",
        fixed.len(),
        cases.len(),
        pct(arm.rate())
    );

    let mut accepted = 0usize;
    let mut touchups = 0usize;
    for (case, o) in &fixed {
        match review_fix(0xDE9, &case.id, o) {
            ReviewOutcome::Approved => accepted += 1,
            ReviewOutcome::ApprovedWithTouchups => {
                accepted += 1;
                touchups += 1;
            }
            ReviewOutcome::Rejected(_) => {}
        }
    }
    println!(
        "accepted in review: {}/{} ({:.0}%), {} with minor touch-ups   paper: 193/224 (86%), 8 touch-ups",
        accepted,
        fixed.len(),
        100.0 * accepted as f64 / fixed.len().max(1) as f64,
        touchups
    );

    let loc_total: usize = fixed.iter().filter_map(|(_, o)| o.patch_loc).sum();
    println!("total fix LoC merged: {loc_total} lines   paper: ~2.1K over 193 fixes");
}
