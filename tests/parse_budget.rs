//! Parse budget: how many times a campaign parses each case's sources.
//!
//! A campaign worker parses a case once and lends the ASTs to detection,
//! diagnosis and the fix arm, so parses per case stay close to the number
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
fn campaigns_parse_each_case_once() {
    // The case's files parse once for detection, diagnosis and the fix
    // arm; then each function-scope prompt and each distinct candidate
    // parse once; validation parses a candidate once for both the
    // compiler and the static gate.
    let fix = parses_per_case(&campaign(StreamFamily::Mixed, CampaignMode::Fix, 60));
    assert!(fix <= 16.0, "fix campaign: {fix:.1} parses per case > 16");
    // One parse to detect; detect mode never diagnoses.
    let detect = parses_per_case(&campaign(StreamFamily::Exposure, CampaignMode::Detect, 600));
    assert!(
        detect <= 1.0,
        "detect campaign: {detect:.2} parses per case > 1"
    );
    println!("parses per case: fix {fix:.2}, detect {detect:.2}");
}
