//! RQ2.5: the Lowest Common Ancestor fix location.
//!
//! Paper: 62.53% without LCA vs 66.75% with LCA (~4 points).

use bench::{base_config, header, pct, run_arm, Scale};
use drfix::{LocationKind, RagMode};
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "LCA ablation — impact of the lowest-common-ancestor location",
        "§5.3 (RQ2.5): 62.53% without vs 66.75% with LCA",
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10}   fleet throughput",
        "configuration", "fixed", "rate", "paper"
    );
    let mut rates = Vec::new();
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
        let arm = run_arm(cfg, scale.threads, cases, Some(db));
        rates.push(arm.rate());
        println!(
            "{label:<26} {:>6}/{:<3} {:>10} {:>10}   {}",
            arm.fixed(),
            cases.len(),
            pct(arm.rate()),
            paper,
            arm.throughput()
        );
    }
    println!(
        "\nLCA adds {:.1} points (paper: ~4). The gain comes from races whose\nonly repair point is the common spawn site.",
        (rates[1] - rates[0]) * 100.0
    );
}
