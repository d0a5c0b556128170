//! Table 5: categories of data races Dr.Fix did not fix.
//!
//! Paper: >2-file changes 21%, remove-parallelism 19%, business-logic
//! 15%, isolate-test 10%, external 10%, refactoring 6%, others 6%,
//! deep-copy 5%, singleton 4%, non-trivial 4%.

use bench::{base_config, header, run_arm, Scale};
use corpus::HardCategory;
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Table 5 — categories of data races not fixed by Dr.Fix",
        "§5.3, Table 5",
    );
    let cfg = base_config(&scale, ModelTier::Gpt4o, RagMode::Skeleton);
    let arm = run_arm(cfg, scale.threads, cases, Some(db));
    println!("throughput: {}\n", arm.throughput());

    let mut unfixed_by_cat: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::new();
    let mut unfixed_total = 0usize;
    for (case, o) in cases.iter().zip(&arm.outcomes) {
        if !o.fixed {
            unfixed_total += 1;
            let label = case.hard.map(|h| h.display()).unwrap_or("Others");
            *unfixed_by_cat.entry(label).or_default() += 1;
        }
    }
    let paper = [21, 19, 15, 10, 10, 6, 6, 5, 4, 4];
    println!("{:<40} {:>14} {:>10}", "Category", "unfixed", "paper %");
    for (i, h) in HardCategory::all().iter().enumerate() {
        let n = *unfixed_by_cat.get(h.display()).unwrap_or(&0);
        println!(
            "{:<40} {:>4} ({:>4.1}%) {:>9}%",
            h.display(),
            n,
            100.0 * n as f64 / unfixed_total.max(1) as f64,
            paper[i]
        );
    }
    let residual = unfixed_by_cat
        .iter()
        .filter(|(k, _)| !HardCategory::all().iter().any(|h| h.display() == **k))
        .map(|(_, v)| v)
        .sum::<usize>();
    println!(
        "{:<40} {:>4} (capability misses on fixable races)",
        "(plain fixable, model missed)", residual
    );
    println!("\ntotal unfixed: {unfixed_total}/{}", cases.len());
}
