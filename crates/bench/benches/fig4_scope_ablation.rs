//! Figure 4 (RQ2.3/RQ2.4): fix scope (function vs file) and validation
//! feedback.
//!
//! Paper: func-only 39%, file-only 33%, file+feedback 39%,
//! func→file+feedback 66%.

use bench::{base_config, header, pct, run_arm, shape_check, Scale};
use drfix::RagMode;
use synthllm::{ModelTier, Scope};

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Figure 4 — fixing scopes, their order, and failure feedback",
        "§5.3, Fig. 4: 39% / 33% / 39% / 66% with RAG+skeleton, GPT-4o",
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10}   fleet throughput",
        "configuration", "fixed", "rate", "paper"
    );
    let mut fixed = Vec::new();
    for (label, scopes, feedback, paper) in [
        ("Func only", vec![Scope::Func], false, "39%"),
        ("File only", vec![Scope::File], false, "33%"),
        ("File + past failures", vec![Scope::File], true, "39%"),
        (
            "Func+file + past failures",
            vec![Scope::Func, Scope::File],
            true,
            "66%",
        ),
    ] {
        let mut cfg = base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton);
        cfg.scopes = scopes;
        cfg.feedback = feedback;
        let arm = run_arm(cfg, scale.threads, cases, Some(db));
        println!(
            "{label:<26} {:>6}/{:<3} {:>10} {:>10}   {}",
            arm.fixed(),
            cases.len(),
            pct(arm.rate()),
            paper,
            arm.throughput()
        );
        fixed.push(arm.fixed());
    }
    let (func, file, file_feedback, cascade) = (fixed[0], fixed[1], fixed[2], fixed[3]);
    println!();
    shape_check("file-only < func-only", file < func);
    shape_check("file-only < file + past failures", file < file_feedback);
    shape_check(
        "the func→file cascade fixes the most",
        cascade > func.max(file_feedback),
    );
}
