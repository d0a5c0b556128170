//! Figure 3 (RQ2.1/RQ2.2): how examples — and selecting them via the
//! concurrency skeleton — change the validated fix rate.
//!
//! Paper: No RAG 47%, RAG without skeleton 50%, RAG with skeleton 66%.

use bench::{base_config, header, pct, run_arm, Scale};
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Figure 3 — impact of examples (RAG) and skeleton-based selection",
        "§5.3, Fig. 3: 47% / 50% / 66% on 403 races with GPT-4o",
    );
    println!(
        "{} races, {}-pair example DB, {} validation schedules\n",
        cases.len(),
        scale.db_pairs,
        scale.validation_runs
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10}   fleet throughput",
        "configuration", "fixed", "rate", "paper"
    );
    for (label, rag, paper) in [
        ("No RAG", RagMode::None, "47%"),
        ("RAG without skeleton", RagMode::Raw, "50%"),
        ("RAG with skeleton", RagMode::Skeleton, "66%"),
    ] {
        let cfg = base_config(&scale, ModelTier::Gpt4o, rag);
        let arm = run_arm(cfg, scale.threads, cases, Some(db));
        println!(
            "{label:<26} {:>6}/{:<3} {:>10} {:>10}   {}",
            arm.fixed(),
            cases.len(),
            pct(arm.rate()),
            paper,
            arm.throughput()
        );
    }
    println!("\nshape check: No RAG < RAG-raw < RAG-skeleton, with the");
    println!("skeleton arm far ahead — the paper's key retrieval result.");
}
