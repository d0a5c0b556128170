//! `schedules_to_expose` — exposure efficiency of the schedule policies.
//!
//! Dr.Fix's reproduce and validate steps (§4.4.1) run each test under
//! many schedules; the number of schedules until the planted race first
//! surfaces is the cost of detection, and the instructions burnt per
//! validation campaign is the cost of confirmation. This bench measures
//! both, per Table 3 corpus category, for both policies:
//!
//! 1. **Schedules to first exposure** — over the *ordering-sensitive*
//!    exposure corpus ([`corpus::generate_exposure_corpus`]): races
//!    that only manifest when the worker goroutine is starved past a
//!    window, i.e. the schedule hard tail. (The standard Table 3
//!    corpus plants races with no happens-before edge at all, so every
//!    policy exposes those at a median of 1 schedule — a sanity row is
//!    printed for reference.)
//! 2. **Validation cost under dedup + early exit** — validate each
//!    exposure case's ground-truth human fix under a fixed schedule
//!    budget, with and without schedule-signature dedup early-exit and
//!    a campaign instruction budget, and report the savings.
//!
//! Knobs: `DRFIX_STE_CASES` (exposure corpus size, default 56),
//! `DRFIX_STE_MAX_SCHED` (schedule budget per case, default 200),
//! `DRFIX_STE_VALIDATION_RUNS` (fixed validation budget, default 256 —
//! the paper runs 1000 schedules per validation), `DRFIX_THREADS`
//! (worker threads).

use corpus::{CorpusConfig, RaceCase, RaceCategory};
use drfix::fleet;
use govm::{compile_sources, run_test_many, CompileOptions, SchedulePolicy, TestConfig};

/// Median over a slice (nearest-rank on a sorted copy).
fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

struct Exposure {
    /// Schedules until the race first surfaced (`None` = never within
    /// the budget).
    schedules: Option<u32>,
    /// Instructions executed up to (and including) the exposing run.
    steps: u64,
}

/// The seed of one exposure job: a function of the case's index in its
/// corpus and the policy's label only, so adding or removing a policy
/// re-seeds no other column.
fn exposure_seed(base: u64, case_index: usize, policy: &SchedulePolicy) -> u64 {
    let label = fleet::fnv1a64_fold(fleet::FNV1A_OFFSET, policy.label().as_bytes());
    fleet::derive_case_seed(base ^ label, case_index as u64)
}

/// Runs one case under `policy` until the planted race surfaces.
fn expose(case: &RaceCase, policy: &SchedulePolicy, max_sched: u32, seed: u64) -> Exposure {
    let Ok(prog) = compile_sources(&case.files, &CompileOptions::default()) else {
        return Exposure {
            schedules: None,
            steps: 0,
        };
    };
    let cfg = TestConfig {
        runs: max_sched,
        seed,
        stop_on_race: true,
        policy: policy.clone(),
        ..TestConfig::default()
    };
    let out = run_test_many(&prog, &case.test, &cfg);
    Exposure {
        schedules: if out.races.is_empty() {
            None
        } else {
            Some(out.runs)
        },
        steps: out.steps,
    }
}

fn main() {
    let cases_total: usize = bench::knob("DRFIX_STE_CASES").unwrap_or(56);
    let max_sched: u32 = bench::knob("DRFIX_STE_MAX_SCHED").unwrap_or(200);
    let validation_runs: u32 = bench::knob("DRFIX_STE_VALIDATION_RUNS").unwrap_or(256);
    let threads = bench::Scale::from_env().threads;

    bench::header(
        "schedules_to_expose — median schedules to first race exposure per policy",
        "§4.4.1 (reproduce/validate under many schedules); Table 3 categories",
    );

    let corpus = corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: cases_total,
        db_pairs: 0,
        seed: 0xD0F1,
    });

    let policies: Vec<SchedulePolicy> = vec![SchedulePolicy::Random, SchedulePolicy::pct()];

    // Each category's cases, by their indices in the corpus.
    let mut by_cat: Vec<(RaceCategory, Vec<usize>)> = Vec::new();
    for cat in RaceCategory::all() {
        let picked: Vec<usize> = (0..corpus.len())
            .filter(|&i| corpus[i].category == *cat)
            .collect();
        if !picked.is_empty() {
            by_cat.push((*cat, picked));
        }
    }

    println!(
        "\nexposure corpus: {} ordering-sensitive cases, budget {max_sched} schedules/case, fleet ×{}",
        corpus.len(),
        threads
    );
    println!(
        "\n{:<36} {:>16} {:>16}",
        "category (median sched to expose)",
        policies[0].label(),
        policies[1].label()
    );

    // One fleet job per `(category, corpus index, policy index)`.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, (_, cases)) in by_cat.iter().enumerate() {
        for &index in cases {
            for pi in 0..policies.len() {
                jobs.push((ci, index, pi));
            }
        }
    }
    let exposures = fleet::run_indexed(threads, jobs.len(), |i| {
        let (_, index, pi) = jobs[i];
        let policy = &policies[pi];
        let seed = exposure_seed(0x57E, index, policy);
        expose(&corpus[index], policy, max_sched, seed)
    });

    // Aggregate per (category, policy).
    let mut table: Vec<Vec<Vec<&Exposure>>> = vec![vec![Vec::new(); policies.len()]; by_cat.len()];
    for (&(ci, _, pi), exp) in jobs.iter().zip(&exposures) {
        table[ci][pi].push(exp);
    }

    let mut pct_wins = 0usize;
    let mut total_steps: Vec<u64> = vec![0; policies.len()];
    let mut category_medians: Vec<(String, Vec<u64>)> = Vec::new();
    for (ci, (cat, cases)) in by_cat.iter().enumerate() {
        let mut cells = Vec::new();
        let mut medians = Vec::new();
        for (pi, _) in policies.iter().enumerate() {
            let exps = &table[ci][pi];
            // A case that never exposed within the budget counts as
            // `max_sched` schedules — a conservative floor, flagged in
            // the cell as `>`.
            let censored = exps.iter().any(|e| e.schedules.is_none());
            let all: Vec<u64> = exps
                .iter()
                .map(|e| e.schedules.map(u64::from).unwrap_or(u64::from(max_sched)))
                .collect();
            let exposed = exps.iter().filter(|e| e.schedules.is_some()).count();
            total_steps[pi] += exps.iter().map(|e| e.steps).sum::<u64>();
            let med = median(&all);
            let marker = if censored && med >= u64::from(max_sched) {
                ">"
            } else {
                ""
            };
            cells.push(format!("{marker}{med} ({exposed}/{})", cases.len()));
            medians.push(med);
        }
        println!("{:<36} {:>16} {:>16}", cat.display(), cells[0], cells[1]);
        if medians[1] < medians[0] {
            pct_wins += 1;
        }
        category_medians.push((cat.display().to_owned(), medians));
    }
    println!("\ninstructions spent exposing (whole corpus, per policy):");
    for (pi, p) in policies.iter().enumerate() {
        println!("  {:<16} {:>12}", p.label(), total_steps[pi]);
    }
    println!(
        "\npct beats random on {pct_wins}/{} categories (median schedules to expose)",
        by_cat.len()
    );

    // Regression gate: this bench doubles as the CI exposure smoke, so
    // the exposure contract is asserted, not just printed — PCT must
    // expose every case within the budget and its per-category median
    // must never fall behind uniform-random.
    for (ci, (cat, cases)) in by_cat.iter().enumerate() {
        let pct_exposed = table[ci][1]
            .iter()
            .filter(|e| e.schedules.is_some())
            .count();
        assert_eq!(
            pct_exposed,
            cases.len(),
            "exposure regression: pct missed {}/{} {} cases within {max_sched} schedules",
            cases.len() - pct_exposed,
            cases.len(),
            cat.display()
        );
    }
    for (name, medians) in &category_medians {
        assert!(
            medians[1] <= medians[0],
            "exposure regression: pct median {} > random median {} on {name}",
            medians[1],
            medians[0]
        );
    }

    // Sanity row: the standard Table 3 corpus has no happens-before
    // edge on its planted races — every policy exposes at median 1.
    let std_corpus = corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: 40,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    let std_cases: Vec<usize> = (0..std_corpus.len())
        .filter(|&i| std_corpus[i].fixable)
        .take(12)
        .collect();
    let std_schedules = fleet::run_indexed(threads, std_cases.len() * policies.len(), |i| {
        let index = std_cases[i / policies.len()];
        let policy = &policies[i % policies.len()];
        let seed = exposure_seed(0x57D, index, policy);
        expose(&std_corpus[index], policy, max_sched, seed)
            .schedules
            .map(u64::from)
            .unwrap_or(u64::from(max_sched))
    });
    println!(
        "standard Table 3 corpus sanity: median schedules to expose = {} (all policies)",
        median(&std_schedules)
    );

    // ---- validation cost: dedup + early exit on the human fixes ------
    bench::header(
        "validation cost — schedule-signature dedup + budgeted early exit",
        "§4.4.1 (1000-schedule validation); fixed budget, instructions saved",
    );
    let fixes: Vec<(&RaceCase, &Vec<(String, String)>)> = corpus
        .iter()
        .filter_map(|c| c.human_fix.as_ref().map(|f| (c, f)))
        .collect();
    let arms: [(&str, Option<u32>, Option<u64>); 3] = [
        ("baseline (no dedup)", None, None),
        ("dedup streak 8", Some(8), None),
        ("dedup 8 + 20k instr cap", Some(8), Some(20_000)),
    ];
    println!(
        "\n{} human fixes × {validation_runs} validation schedules each:",
        fixes.len()
    );
    let mut baseline_steps = 0u64;
    for (label, streak, budget) in arms {
        let results = fleet::run_indexed(threads, fixes.len(), |i| {
            let (case, fix) = &fixes[i];
            let Ok(prog) = compile_sources(fix, &CompileOptions::default()) else {
                return (0u64, 0u32, false);
            };
            let cfg = TestConfig {
                runs: validation_runs,
                seed: fleet::derive_case_seed(0xA11D, i as u64),
                stop_on_race: false,
                dedup_streak: streak,
                max_total_steps: budget,
                ..TestConfig::default()
            };
            let out = run_test_many(&prog, &case.test, &cfg);
            (out.steps, out.runs, out.is_clean())
        });
        let steps: u64 = results.iter().map(|(s, _, _)| s).sum();
        let runs: u32 = results.iter().map(|(_, r, _)| r).sum();
        let clean = results.iter().filter(|(_, _, c)| *c).count();
        if baseline_steps == 0 {
            baseline_steps = steps;
        }
        println!(
            "  {label:<24} {steps:>12} instr  {runs:>6} schedules  {clean}/{} clean  ({:.1}% of baseline instr)",
            fixes.len(),
            100.0 * steps as f64 / baseline_steps.max(1) as f64
        );
        // Regression gate: early exits must save work, never correctness
        // — every ground-truth fix validates clean under every arm, and
        // no arm spends more instructions than the unbounded baseline.
        assert_eq!(
            clean,
            fixes.len(),
            "{label}: a human fix stopped validating clean"
        );
        assert!(
            steps <= baseline_steps,
            "{label}: dedup/early-exit arm spent more instructions than baseline"
        );
    }
}
