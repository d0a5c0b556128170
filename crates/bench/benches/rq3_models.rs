//! RQ3: how much do results improve with a more advanced model?
//!
//! Paper: GPT-4o 65.76% → o1-preview 73.45% (+7.7 points) on the same
//! 403 races; GPT-4 Turbo ran the 18-month deployment at 55%.

use bench::{base_config, header, pct, run_arm, Scale};
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "RQ3 — model generations",
        "§5.4: GPT-4o 65.76%, o1-preview 73.45% (+7.7 pt); Turbo deployed at 55%",
    );
    println!(
        "{:<16} {:>10} {:>10} {:>12}   fleet throughput",
        "model", "fixed", "rate", "paper"
    );
    let mut rates = Vec::new();
    for (label, tier, paper) in [
        ("GPT-4 Turbo", ModelTier::Gpt4Turbo, "55%"),
        ("GPT-4o", ModelTier::Gpt4o, "65.8%"),
        ("o1-preview", ModelTier::O1Preview, "73.5%"),
    ] {
        let cfg = base_config(&scale, tier, RagMode::Skeleton);
        let arm = run_arm(cfg, scale.threads, cases, Some(db));
        rates.push(arm.rate());
        println!(
            "{label:<16} {:>6}/{:<3} {:>10} {:>12}   {}",
            arm.fixed(),
            cases.len(),
            pct(arm.rate()),
            paper,
            arm.throughput()
        );
    }
    println!(
        "\no1-preview gains {:.1} points over GPT-4o (paper: +7.7); the gain\nconcentrates in the complex multi-edit repairs (Listing 10, deep copies).",
        (rates[2] - rates[1]) * 100.0
    );
}
