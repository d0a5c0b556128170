//! Table 4: fixes where RAG played a pivotal role — races fixed with a
//! retrieved example but not without one.

use bench::{base_config, header, run_arm, Scale};
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Table 4 — fixes where RAG played a pivotal role",
        "§5.3, Table 4: recurring complex patterns unlocked by examples",
    );
    let no_rag = run_arm(
        base_config(&scale, ModelTier::Gpt4o, RagMode::None),
        scale.threads,
        cases,
        Some(db),
    );
    let with_rag = run_arm(
        base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton),
        scale.threads,
        cases,
        Some(db),
    );
    println!(
        "throughput: no-RAG arm {} | RAG arm {}\n",
        no_rag.throughput(),
        with_rag.throughput()
    );

    let mut pivotal: std::collections::BTreeMap<String, usize> = Default::default();
    let mut n = 0usize;
    for ((case, a), b) in cases.iter().zip(&no_rag.outcomes).zip(&with_rag.outcomes) {
        if b.fixed && !a.fixed {
            n += 1;
            let label = b
                .strategy
                .map(|s| s.display().to_owned())
                .unwrap_or_else(|| "?".into());
            *pivotal.entry(label).or_default() += 1;
            let _ = case;
        }
    }
    println!("races fixed only with RAG: {n}\n");
    println!(
        "{:<34} {:>6}",
        "repair idiom unlocked by the example", "count"
    );
    for (s, k) in &pivotal {
        println!("{s:<34} {k:>6}");
    }
    println!("\npaper's recurring patterns: copies of complex structures, type");
    println!("changes propagated to all references, new mutexes guarding many");
    println!("sites, channel/WaitGroup restructuring — the same families appear");
    println!("above because examples re-rank exactly those multi-edit strategies.");
}
