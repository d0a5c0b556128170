//! Table 7: lines-of-code comparison — human fixes vs Dr.Fix fixes vs
//! vector-DB examples, by percentile.
//!
//! Paper: P50 10/9, P75 15/15, P90 46/29, P95 49/41, P99 97/46,
//! P100 98/46 (human/Dr.Fix), VectorDB P100 94.

use bench::{base_config, header, percentile, run_arm, Scale};
use corpus::{diff_lines, generate_example_db, CorpusConfig};
use drfix::RagMode;
use synthllm::ModelTier;

fn main() {
    let scale = Scale::from_env();
    let cases = bench::eval_corpus(&scale);
    let db = bench::example_db(&scale);
    header(
        "Table 7 — LoC of fixes: human vs Dr.Fix vs vector-DB examples",
        "§5.5, Table 7",
    );
    let cfg = base_config(&scale, ModelTier::Gpt4Turbo, RagMode::Skeleton);
    let arm = run_arm(cfg, scale.threads, cases, Some(db));
    println!("throughput: {}\n", arm.throughput());

    let human: Vec<f64> = cases
        .iter()
        .filter_map(|c| c.human_fix_loc())
        .map(|v| v as f64)
        .collect();
    let drfix_loc: Vec<f64> = arm
        .outcomes
        .iter()
        .filter_map(|o| o.patch_loc)
        .map(|v| v as f64)
        .collect();
    let pairs = generate_example_db(&CorpusConfig {
        eval_cases: 0,
        db_pairs: scale.db_pairs,
        seed: 0xD0F1,
    });
    let vecdb_loc: Vec<f64> = pairs
        .iter()
        .map(|p| diff_lines(&p.buggy, &p.fixed) as f64)
        .collect();

    println!(
        "{:>6} {:>10} {:>10} {:>10}   (paper H/D: 10/9, 15/15, 46/29, 49/41, 97/46, 98/46)",
        "%tile", "Human(H)", "Dr.Fix(D)", "VectorDB"
    );
    for p in [50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        println!(
            "{:>5.0}  {:>10.0} {:>10.0} {:>10.0}",
            p,
            percentile(&human, p),
            percentile(&drfix_loc, p),
            percentile(&vecdb_loc, p),
        );
    }
    println!(
        "\nshape check: Dr.Fix fixes stay tighter than human fixes at the\ntail (the paper's H/D ratio grows with the percentile)."
    );
}
