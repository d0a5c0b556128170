//! RQ1: the 18-month deployment — fixes produced, developer acceptance,
//! fix durations, and ticket-resolution times.
//!
//! Paper: 224/404 fixed (55%) with GPT-4 Turbo; 193/224 accepted (86%,
//! 8 with touch-ups); fix durations min/avg/median/max = 6/13/14/29 min;
//! tickets closed in 3 days vs 11 days manually.

use bench::{base_config, header, pct, percentile, run_arm, Scale};
use drfix::{review_fix, RagMode, ReviewOutcome};
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "RQ1 — deployment: fix rate, acceptance, durations, resolution time",
        "§5.2/§5.5: 55% fixed, 86% accepted, 6/13/14/29 min, 3 vs 11 days",
    );
    let cfg = base_config(&scale, ModelTier::Gpt4Turbo, RagMode::Skeleton);
    let arm = run_arm("deploy", cfg, scale.threads, cases, Some(db));
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
    let mut drfix_days = Vec::new();
    let mut manual_days = Vec::new();
    for (case, o) in &fixed {
        match review_fix(0xDE9, &case.id, o) {
            ReviewOutcome::Approved => accepted += 1,
            ReviewOutcome::ApprovedWithTouchups => {
                accepted += 1;
                touchups += 1;
            }
            ReviewOutcome::Rejected(_) => {}
        }
        drfix_days.push(drfix::review::resolution_days(0xDE9, &case.id, true));
    }
    for (case, o) in cases.iter().zip(&arm.outcomes) {
        if !o.fixed {
            manual_days.push(drfix::review::resolution_days(0xDE9, &case.id, false));
        }
    }
    println!(
        "accepted in review: {}/{} ({:.0}%), {} with minor touch-ups   paper: 193/224 (86%), 8 touch-ups",
        accepted,
        fixed.len(),
        100.0 * accepted as f64 / fixed.len().max(1) as f64,
        touchups
    );

    let durations: Vec<f64> = fixed.iter().map(|(_, o)| o.duration_minutes).collect();
    let avg = durations.iter().sum::<f64>() / durations.len().max(1) as f64;
    println!(
        "fix durations (min): min {:.0} / avg {:.0} / median {:.0} / max {:.0}   paper: 6/13/14/29",
        durations.iter().cloned().fold(f64::INFINITY, f64::min),
        avg,
        percentile(&durations, 50.0),
        durations.iter().cloned().fold(0.0, f64::max),
    );
    let d_avg = drfix_days.iter().sum::<f64>() / drfix_days.len().max(1) as f64;
    let m_avg = manual_days.iter().sum::<f64>() / manual_days.len().max(1) as f64;
    println!(
        "ticket resolution: {d_avg:.1} days via Dr.Fix vs {m_avg:.1} days manual   paper: 3 vs 11"
    );
    let loc_total: usize = fixed.iter().filter_map(|(_, o)| o.patch_loc).sum();
    println!("total fix LoC merged: {loc_total} lines   paper: ~2.1K over 193 fixes");
}
