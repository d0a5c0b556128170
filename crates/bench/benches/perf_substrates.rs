//! Criterion micro-benchmarks for the substrates: frontend throughput,
//! skeletonization, embedding, VM+detector overhead, a
//! 1000-schedule validation campaign, and the statcheck probe the
//! tournament runs on every candidate.

use criterion::{criterion_group, criterion_main, Criterion};
use govm::{compile_sources, run_test_many, CompileOptions, TestConfig, Vm, VmOptions};
use skeleton::{skeletonize, SkeletonOptions};

const PROGRAM: &str = r#"package bench

import "sync"

func Hot() int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			mu.Lock()
			total = total + n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return total
}
"#;

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("golite_parse", |b| {
        b.iter(|| golite::parse_file(std::hint::black_box(PROGRAM)).unwrap())
    });
    let file = golite::parse_file(PROGRAM).unwrap();
    c.bench_function("golite_print", |b| {
        b.iter(|| golite::print_file(std::hint::black_box(&file)))
    });
}

fn bench_pipeline_parts(c: &mut Criterion) {
    c.bench_function("skeletonize", |b| {
        b.iter(|| {
            skeletonize(
                std::hint::black_box(PROGRAM),
                &[14],
                &SkeletonOptions::default(),
            )
            .unwrap()
        })
    });
    let sk = skeletonize(PROGRAM, &[14], &SkeletonOptions::default()).unwrap();
    c.bench_function("embed_384d", |b| {
        b.iter(|| embed::embed(std::hint::black_box(&sk.text)))
    });
}

fn bench_fleet(c: &mut Criterion) {
    use drfix::fleet::run_indexed;
    // Scheduler overhead: the job is trivial, so this measures the
    // work-queue machinery itself at different widths.
    for threads in [1usize, 4] {
        c.bench_function(&format!("fleet_schedule_256_jobs_x{threads}"), |b| {
            b.iter(|| run_indexed(threads, 256, |i| std::hint::black_box(i) * 3))
        });
    }
}

fn bench_vm(c: &mut Criterion) {
    let prog = compile_sources(
        &[("hot.go".into(), PROGRAM.into())],
        &CompileOptions::default(),
    )
    .unwrap();
    c.bench_function("compile", |b| {
        b.iter(|| {
            compile_sources(
                &[("hot.go".into(), PROGRAM.into())],
                &CompileOptions::default(),
            )
            .unwrap()
        })
    });
    c.bench_function("vm_run_with_race_detection", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut vm = Vm::new(
                &prog,
                VmOptions {
                    seed,
                    ..VmOptions::default()
                },
            );
            vm.run("Hot", vec![])
        })
    });
}

/// The per-schedule path on its own: `run_test_many` with the paper's
/// 1000 validation schedules, on the first fixable stream case
/// (`drbench`'s fix-deep-validate seed) before and after its reference
/// fix — one racy and one clean candidate. One iteration runs both
/// campaigns.
fn bench_validation(c: &mut Criterion) {
    use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
    let case = CorpusStream::new(StreamConfig {
        family: StreamFamily::Fixable,
        seed: 0xD27F17,
    })
    .case(0);
    let fixed = case.human_fix.clone().expect("fixable case has a fix");
    let progs: Vec<_> = [&case.files, &fixed]
        .into_iter()
        .map(|files| compile_sources(files, &CompileOptions::default()).expect("compiles"))
        .collect();
    let cfg = TestConfig {
        runs: 1000,
        seed: 7,
        ..TestConfig::default()
    };
    let raced = progs
        .iter()
        .map(|p| !run_test_many(p, &case.test, &cfg).races.is_empty());
    assert_eq!(
        raced.collect::<Vec<_>>(),
        [true, false],
        "one racy, one clean"
    );
    c.bench_function("validation_campaign_1000", |b| {
        b.iter(|| {
            progs
                .iter()
                .map(|p| run_test_many(p, &case.test, &cfg).steps)
                .sum::<u64>()
        })
    });
}

/// The statcheck probe on two fixed input sets, each parsed once up
/// front. One iteration probes every program of its set.
///
/// - Every tournament candidate of the first 24 mixed-stream cases
///   (`drbench`'s fix-service seeds), as the pool build probes them on
///   admission: most of their functions are filler the relevance filter
///   skips.
/// - The sync-heavy perf programs: every function there is relevant, so
///   this set times the analysis with nothing to skip.
fn bench_statcheck(c: &mut Criterion) {
    use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
    use drfix::{DrFix, PipelineConfig, TournamentConfig};
    let stream = CorpusStream::new(StreamConfig {
        family: StreamFamily::Mixed,
        seed: 0xD27F17,
    });
    let mut candidates = Vec::new();
    for i in 0..24 {
        let case = stream.case(i);
        let p = PipelineConfig {
            seed: drfix::fleet::derive_case_seed(0, i as u64),
            detect_runs: 12,
            tournament: Some(TournamentConfig {
                keep_candidates: true,
            }),
            ..PipelineConfig::default()
        };
        let fix = DrFix::new(p, None).fix_case(&case.files, &case.test);
        for cand in fix.tournament.iter().flat_map(|t| &t.candidates) {
            let patch = cand.patch.as_ref().expect("kept");
            candidates.push(golite::parse_sources(patch).expect("candidates parse"));
        }
    }
    c.bench_function(
        &format!("statcheck_probe_{}_candidates", candidates.len()),
        |b| {
            b.iter(|| {
                candidates
                    .iter()
                    .map(|parsed| statcheck::check_parsed(std::hint::black_box(parsed)).len())
                    .sum::<usize>()
            })
        },
    );
    let sync_heavy: Vec<Vec<golite::ParsedFile>> = corpus::sync_heavy_cases()
        .into_iter()
        .map(|(name, src, _test)| {
            golite::parse_sources(&[(format!("{name}.go"), src.to_owned())]).expect("parses")
        })
        .collect();
    for (_, _, file) in sync_heavy.iter().flatten() {
        let env = statcheck::cfg::FileEnv::new(file);
        let funcs = file.decls.iter().filter_map(|d| match d {
            golite::Decl::Func(f) => Some(f),
            _ => None,
        });
        for f in funcs {
            assert!(statcheck::cfg::relevant(f, &env), "`{}` is skipped", f.name);
        }
    }
    c.bench_function(
        &format!("statcheck_sync_heavy_{}_programs", sync_heavy.len()),
        |b| {
            b.iter(|| {
                sync_heavy
                    .iter()
                    .map(|parsed| statcheck::check_parsed(std::hint::black_box(parsed)).len())
                    .sum::<usize>()
            })
        },
    );
}

criterion_group!(
    benches,
    bench_frontend,
    bench_pipeline_parts,
    bench_vm,
    bench_validation,
    bench_fleet,
    bench_statcheck
);
criterion_main!(benches);
