//! Parse budget: how many times a campaign parses each case's sources.
//!
//! Each campaign stage parses a source at most once and lends the AST to
//! everything in that stage, so parses per case stay close to the number
//! of distinct sources a case produces. `golite::parse_calls` counts every
//! parse in the process; this file holds a single test so that no other
//! test thread adds to the count while a campaign runs.

use corpus::stream::{StreamConfig, StreamFamily};
use drfix::campaign::{run_campaign, CampaignConfig, CampaignMode};
use drfix::{PipelineConfig, TournamentConfig};

/// A serial campaign in the benchmark's configuration at its default
/// seed (tournament on in fix mode).
fn campaign(family: StreamFamily, mode: CampaignMode, cases: usize) -> CampaignConfig {
    let stream = StreamConfig {
        family,
        seed: 0xD27F17,
    };
    let mut cfg = CampaignConfig::new(cases, 8, stream);
    cfg.mode = mode;
    cfg.pipeline = PipelineConfig {
        seed: 0,
        detect_runs: 12,
        ..PipelineConfig::default()
    };
    if mode == CampaignMode::Fix {
        cfg.pipeline.tournament = Some(TournamentConfig::default());
    }
    cfg
}

fn parses_per_case(cfg: &CampaignConfig) -> f64 {
    let before = golite::parse_calls();
    let run = run_campaign(cfg, None, None).expect("campaign runs");
    assert!(run.snapshot.completed);
    (golite::parse_calls() - before) as f64 / cfg.cases as f64
}

#[test]
fn campaigns_parse_each_source_at_most_once_per_stage() {
    // Detect and diagnose parse a case once each; the fix stage parses
    // the originals, each function-scope prompt and each distinct
    // candidate once; validation parses a candidate once for both the
    // compiler and the static gate. Before this change: 45.7 per case.
    let fix = parses_per_case(&campaign(StreamFamily::Mixed, CampaignMode::Fix, 60));
    assert!(fix <= 20.0, "fix campaign: {fix:.1} parses per case > 20");
    // One parse to detect, one to diagnose a raced case. Before: 3.5.
    let detect = parses_per_case(&campaign(StreamFamily::Exposure, CampaignMode::Detect, 600));
    assert!(
        detect <= 2.0,
        "detect campaign: {detect:.1} parses per case > 2"
    );
    println!("parses per case: fix {fix:.2}, detect {detect:.2}");
}
