//! Property test over random kill points (ISSUE 9 satellite): a
//! campaign halted at *any* checkpoint and resumed — possibly through a
//! chain of further halts — must reproduce the uninterrupted run
//! exactly: same per-shard digests, same [`StopReason`] tallies, same
//! completed snapshot, at any worker count on either side of the kill.
//!
//! Snapshots cross the kill in memory here (the on-disk round trip has
//! its own deterministic test in `campaign_ab.rs` and the CI
//! `campaign-smoke` drill); the property space is the *kill point*:
//! case count, shard plan, checkpoint cadence, halt position, and the
//! worker counts before and after the kill are all drawn at random.
//!
//! A second property corrupts a real halted snapshot on disk —
//! truncation, a single bit flip, or a random `u64` written over one
//! numeric field — and requires loading it to fail with `InvalidData`
//! or to yield a snapshot equal to the original, which then resumes to
//! completion; never a panic, never a different snapshot.
//!
//! [`StopReason`]: govm::StopReason

use corpus::stream::{StreamConfig, StreamFamily};
use drfix::campaign::{run_campaign, CampaignConfig, Snapshot};
use drfix::PipelineConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn cfg(cases: usize, shards: usize, checkpoint_every: usize, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(
        cases,
        shards,
        StreamConfig {
            family: StreamFamily::Exposure,
            seed,
        },
    );
    cfg.pipeline = PipelineConfig {
        seed: seed.rotate_left(17) ^ 0xFEED,
        detect_runs: 4,
        ..PipelineConfig::default()
    };
    cfg.checkpoint_every = checkpoint_every;
    cfg
}

/// Drive `base` to completion through kills: halt after `halt_after`
/// checkpoints, then keep resuming (alternating worker counts) until
/// the snapshot completes. Returns the completed snapshot and the
/// number of kills actually taken.
fn run_with_kills(base: &CampaignConfig, halt_after: u64, workers: &[usize]) -> (Snapshot, usize) {
    let mut kills = 0usize;
    let mut snap: Option<Snapshot> = None;
    for (leg, &w) in workers.iter().enumerate() {
        let mut c = base.clone();
        c.workers = w;
        // Keep killing on every leg but the last, which runs to the end.
        c.halt_after_checkpoints = (leg + 1 < workers.len()).then_some(halt_after);
        let run = run_campaign(&c, snap.as_ref(), None).unwrap();
        if run.interrupted {
            kills += 1;
        }
        let done = run.snapshot.completed;
        snap = Some(run.snapshot);
        if done {
            break;
        }
    }
    (snap.unwrap(), kills)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The core resume property: for any (cases, shards, cadence, kill
    // point, worker plan), kill-then-resume ≡ uninterrupted.
    #[test]
    fn any_kill_point_resumes_to_the_uninterrupted_digest(
        cases in 20usize..60,
        shards in 1usize..5,
        checkpoint_every in 3usize..10,
        halt_after in 1u64..6,
        kill_workers in 1usize..5,
        resume_workers in 1usize..5,
        seed in 0u64..1u64 << 32,
    ) {
        let base = cfg(cases, shards, checkpoint_every, seed);

        // Uninterrupted serial reference.
        let reference = run_campaign(&base, None, None).unwrap();
        prop_assert!(reference.snapshot.completed);
        prop_assert_eq!(reference.snapshot.done(), cases);

        // Kill at the drawn checkpoint (twice, at different worker
        // counts), then run the final leg uninterrupted.
        let plan = [kill_workers, resume_workers, kill_workers.max(2)];
        let (resumed, kills) = run_with_kills(&base, halt_after, &plan);
        prop_assert!(resumed.completed);

        // A halt that lands after the campaign already finished is a
        // no-op; when the kill point falls inside the run, at least one
        // kill must actually have been taken.
        let per_shard = cases.div_ceil(shards);
        if halt_after as usize * checkpoint_every < per_shard {
            prop_assert!(kills >= 1, "kill point inside the run never fired");
        }

        // Bit-identical: per-shard digests, cursors, and tallies.
        prop_assert_eq!(&resumed, &reference.snapshot);
        prop_assert_eq!(resumed.digest(), reference.snapshot.digest());

        // StopReason tallies agree exactly — and account for every case.
        let t = resumed.tallies();
        let r = reference.snapshot.tallies();
        prop_assert_eq!(t.stop_completed, r.stop_completed);
        prop_assert_eq!(t.stop_race_exposed, r.stop_race_exposed);
        prop_assert_eq!(t.stop_dedup_saturated, r.stop_dedup_saturated);
        prop_assert_eq!(t.stop_budget_exhausted, r.stop_budget_exhausted);
        prop_assert_eq!(
            t.stop_completed
                + t.stop_race_exposed
                + t.stop_dedup_saturated
                + t.stop_budget_exhausted,
            cases as u64,
        );
    }
}

/// The campaign the corruption property resumes, its snapshot halted at
/// the first checkpoint, and that snapshot's bytes as `Snapshot::save`
/// writes them.
fn halted_snapshot() -> &'static (CampaignConfig, Snapshot, String) {
    static HALTED: OnceLock<(CampaignConfig, Snapshot, String)> = OnceLock::new();
    HALTED.get_or_init(|| {
        let base = cfg(24, 2, 4, 0x5EED);
        let mut halting = base.clone();
        halting.halt_after_checkpoints = Some(1);
        let run = run_campaign(&halting, None, None).unwrap();
        assert!(run.interrupted && !run.snapshot.completed);
        let dir = std::env::temp_dir().join(format!("drfix-halted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        run.snapshot.save(&path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (base, run.snapshot, saved)
    })
}

/// Byte ranges of the file's decimal digit runs: every numeric field of
/// a snapshot, and the digits of its checksum.
fn number_spans(json: &str) -> Vec<(usize, usize)> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Random values plus the edges where sums overflow.
fn overwrite_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..64,
        (0u64..64).prop_map(|d| u64::MAX - d),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // `kind` 0 truncates at `at`, 1 flips bit `bit` of byte `at`, 2
    // writes `value` over the `at`-th numeric field.
    #[test]
    fn a_corrupted_snapshot_fails_cleanly_and_never_panics(
        kind in 0u8..3,
        at in 0usize..1 << 16,
        bit in 0u8..8,
        value in overwrite_value(),
    ) {
        let (base, original, json) = halted_snapshot();
        let mut bytes = json.as_bytes().to_vec();
        match kind {
            0 => bytes.truncate(at % bytes.len()),
            1 => bytes[at % json.len()] ^= 1 << bit,
            _ => {
                let spans = number_spans(json);
                let (start, end) = spans[at % spans.len()];
                bytes.splice(start..end, value.to_string().into_bytes());
            }
        }
        let dir = std::env::temp_dir().join(format!("drfix-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = Snapshot::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        match loaded {
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Ok(snap) => {
                // The checksum leaves only mutations that do not change
                // what the file says (say, a checksum digit's case).
                prop_assert_eq!(&snap, original);
                let run = run_campaign(base, Some(&snap), None).unwrap();
                prop_assert!(run.snapshot.completed);
            }
        }
    }
}
