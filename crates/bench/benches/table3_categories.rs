//! Table 3: race categories and their frequency in the fixes Dr.Fix
//! produced and in the example database.
//!
//! Paper: capture-by-reference 41% of fixes (37.5% of VectorDB),
//! missing-sync 26% (14.7%), parallel-test 13% (11.8%), loop-var 6%
//! (2.6%), map 5% (5.2%), slice 5% (2.6%), others 4% (25.7%).

use bench::{base_config, header, run_arm, Scale};
use corpus::{generate_example_db, CorpusConfig, RaceCategory};
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Table 3 — data race categories in produced fixes and the vector DB",
        "§5.2, Table 3",
    );
    let cfg = base_config(&scale, ModelTier::Gpt4Turbo, RagMode::Skeleton);
    let arm = run_arm(cfg, scale.threads, cases, Some(db));
    println!("throughput: {}\n", arm.throughput());

    let mut fixes_by_cat = std::collections::HashMap::new();
    let mut total_fixed = 0usize;
    for (case, o) in cases.iter().zip(&arm.outcomes) {
        if o.fixed {
            *fixes_by_cat.entry(case.category).or_insert(0usize) += 1;
            total_fixed += 1;
        }
    }
    let pairs = generate_example_db(&CorpusConfig {
        eval_cases: 0,
        db_pairs: scale.db_pairs,
        seed: 0xD0F1,
    });
    let mut db_by_cat = std::collections::HashMap::new();
    for p in &pairs {
        *db_by_cat.entry(p.category).or_insert(0usize) += 1;
    }

    println!(
        "{:<42} {:>16} {:>16}",
        "Category", "Dr.Fix fixes", "VectorDB"
    );
    let paper_fix = [41.0, 26.0, 13.0, 6.0, 5.0, 5.0, 4.0];
    let paper_db = [37.5, 14.7, 11.8, 2.6, 5.2, 2.6, 25.7];
    for (i, cat) in RaceCategory::all().iter().enumerate() {
        let f = *fixes_by_cat.get(cat).unwrap_or(&0);
        let d = *db_by_cat.get(cat).unwrap_or(&0);
        println!(
            "{:<42} {:>4} ({:>4.1}%) {:>6} ({:>4.1}%)   paper: {:.0}% / {:.1}%",
            cat.display(),
            f,
            100.0 * f as f64 / total_fixed.max(1) as f64,
            d,
            100.0 * d as f64 / pairs.len().max(1) as f64,
            paper_fix[i],
            paper_db[i],
        );
    }
    println!(
        "\ntotal fixes: {total_fixed}/{} — capture-by-reference dominates, as deployed",
        cases.len()
    );
}
