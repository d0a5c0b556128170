//! Fleet triage: the industrial workflow of §2.4 in miniature — a batch
//! of incoming race reports triaged through the pipeline, with category
//! breakdowns, developer-review outcomes, and time-saved accounting.
//!
//! The batch is sharded across `DRFIX_THREADS` worker threads (outcomes
//! are bit-identical to a serial run), the way the production service
//! consumed its race-ticket queue.
//!
//! ```bash
//! cargo run --example fleet_triage            # 30 races
//! DRFIX_CASES=100 DRFIX_THREADS=4 cargo run --example fleet_triage
//! ```

use corpus::{generate_eval_corpus, generate_example_db, CorpusConfig};
use drfix::{review_fix, ExampleDb, PipelineConfig, RagMode};
use std::collections::BTreeMap;

fn main() {
    let n: usize = bench::knob("DRFIX_CASES").unwrap_or(30);
    let cfg = CorpusConfig {
        eval_cases: n,
        db_pairs: 96,
        seed: 0xF1EE7,
    };
    let threads = bench::Scale::from_env().threads;
    let cases = generate_eval_corpus(&cfg);
    let db = ExampleDb::build(&generate_example_db(&cfg));

    let pipeline_cfg = PipelineConfig {
        rag: RagMode::Skeleton,
        validation_runs: 10,
        ..PipelineConfig::default()
    };

    let mut by_category: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut accepted = 0usize;
    let mut fixed = 0usize;
    let mut drfix_days = 0.0;
    let mut manual_days = 0.0;

    println!(
        "triaging {n} incoming race tickets across {} worker thread{}…\n",
        threads,
        if threads == 1 { "" } else { "s" }
    );
    let run = bench::run_arm("triage", pipeline_cfg, threads, &cases, Some(&db));
    for (case, outcome) in cases.iter().zip(&run.outcomes) {
        let slot = by_category.entry(case.category.display()).or_default();
        slot.1 += 1;
        if outcome.fixed {
            slot.0 += 1;
            fixed += 1;
            let review = review_fix(11, &case.id, outcome);
            if review.accepted() {
                accepted += 1;
                drfix_days += drfix::review::resolution_days(11, &case.id, true);
            } else {
                manual_days += drfix::review::resolution_days(11, &case.id, false);
            }
            println!(
                "  {}  FIXED via {:?} at {:?} ({:?}) — review: {review:?}",
                case.id,
                outcome.strategy.expect("strategy"),
                outcome.location.expect("location"),
                case.category,
            );
        } else {
            manual_days += drfix::review::resolution_days(11, &case.id, false);
            println!(
                "  {}  escalated to the concurrency experts ({})",
                case.id,
                case.hard
                    .map(|h| h.display())
                    .unwrap_or("no validated patch")
            );
        }
    }

    println!("\n=== triage summary =========================================");
    println!("throughput: {}", run.throughput());
    println!(
        "fixed {fixed}/{} ({:.0}%), accepted in review {accepted}/{fixed}",
        cases.len(),
        100.0 * fixed as f64 / cases.len() as f64
    );
    println!("\nper category (fixed/total):");
    for (cat, (f, t)) in &by_category {
        println!("  {cat:45} {f:>3}/{t}");
    }
    let auto = if accepted > 0 {
        drfix_days / accepted as f64
    } else {
        0.0
    };
    let manual_n = cases.len() - accepted;
    let man = if manual_n > 0 {
        manual_days / manual_n as f64
    } else {
        0.0
    };
    println!(
        "\navg resolution: {auto:.1} days via Dr.Fix vs {man:.1} days manual (paper: 3 vs 11)"
    );
}
