//! Ablation lab: run any single pipeline configuration over a corpus
//! slice and inspect per-case outcomes — a command-line version of the
//! paper's RQ2 experiments.
//!
//! Cases are sharded across `DRFIX_THREADS` worker threads (outcomes are
//! bit-identical to a serial run).
//!
//! ```bash
//! cargo run --release --example ablation_lab -- no-rag
//! cargo run --release --example ablation_lab -- skeleton
//! cargo run --release --example ablation_lab -- raw
//! DRFIX_CASES=80 DRFIX_THREADS=4 cargo run --release --example ablation_lab -- skeleton
//! ```

use corpus::{generate_eval_corpus, generate_example_db, CorpusConfig};
use drfix::{ExampleDb, PipelineConfig, RagMode};
use std::collections::BTreeMap;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "skeleton".into());
    let rag = match mode.as_str() {
        "no-rag" => RagMode::None,
        "raw" => RagMode::Raw,
        "skeleton" => RagMode::Skeleton,
        other => {
            eprintln!("unknown mode `{other}` (use no-rag | raw | skeleton)");
            std::process::exit(2);
        }
    };
    let n: usize = bench::knob("DRFIX_CASES").unwrap_or(40);

    let cfg = CorpusConfig {
        eval_cases: n,
        db_pairs: 150,
        seed: 0xD0F1,
    };
    let threads = bench::Scale::from_env().threads;
    let cases = generate_eval_corpus(&cfg);
    let db = ExampleDb::build(&generate_example_db(&cfg));
    let pipeline_cfg = PipelineConfig {
        rag,
        validation_runs: 10,
        ..PipelineConfig::default()
    };

    let run = bench::run_arm(&mode, pipeline_cfg, threads, &cases, Some(&db));
    let mut fixed = 0usize;
    let mut by_strategy: BTreeMap<String, usize> = BTreeMap::new();
    let mut calls = 0u32;
    for o in &run.outcomes {
        calls += o.llm_calls;
        if o.fixed {
            fixed += 1;
            *by_strategy
                .entry(format!("{:?}", o.strategy.expect("strategy")))
                .or_default() += 1;
        }
    }
    println!(
        "mode={mode}  fixed {fixed}/{n} ({:.1}%)",
        100.0 * fixed as f64 / n as f64
    );
    println!(
        "total LLM calls: {calls} (avg {:.1}/case)",
        calls as f64 / n as f64
    );
    println!("throughput: {}", run.throughput());
    println!("\nwinning strategies:");
    for (s, k) in by_strategy {
        println!("  {s:28} {k}");
    }
}
