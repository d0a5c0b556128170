//! Race detective: use the substrate directly — compile a Go-subset
//! program, explore schedules, and inspect ThreadSanitizer-style reports,
//! happens-before behaviour, and skeleton extraction.
//!
//! ```bash
//! cargo run --example race_detective
//! ```

use govm::{compile_sources, CompileOptions, SchedulePolicy, Vm, VmOptions};
use skeleton::{skeletonize, SkeletonOptions};

const PROGRAM: &str = r#"package demo

import "sync"

func Tally(orders []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total = total + order
		}()
	}
	wg.Wait()
	return total
}

func Main() {
	Tally([]int{5, 10, 15})
}
"#;

fn main() {
    let files = vec![("tally.go".to_string(), PROGRAM.to_string())];
    let prog = compile_sources(&files, &CompileOptions::default()).expect("compiles");

    // Sweep schedules: each seed is one interleaving. Two distinct races
    // hide here (the shared `total` and the captured loop variable).
    println!("schedule sweep:");
    let mut seen = std::collections::BTreeMap::new();
    for seed in 0..24 {
        let mut vm = Vm::new(
            &prog,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        let result = vm.run("Main", vec![]);
        for race in &result.races {
            let entry = seen
                .entry(race.var_name.clone())
                .or_insert_with(|| (0usize, race.clone()));
            entry.0 += 1;
        }
    }
    for (var, (count, _)) in &seen {
        println!("  race on `{var}` observed under {count}/24 seeds");
    }
    assert!(
        seen.contains_key("total"),
        "the shared-total race must appear"
    );

    // A full report, TSan style.
    let (_, report) = &seen["total"];
    println!("\nfull report for `total`:");
    print!("{}", report.render());
    println!("bug hash: {}", report.bug_hash());

    // The concurrency skeleton Dr.Fix would embed for retrieval.
    let racy_lines: Vec<u32> = report
        .accesses
        .iter()
        .filter_map(|a| a.stack.first().map(|f| f.line))
        .collect();
    let sk = skeletonize(
        PROGRAM,
        &racy_lines,
        &SkeletonOptions {
            extra_racy_vars: vec!["total".into()],
        },
    )
    .expect("skeletonizes");
    println!("\nconcurrency skeleton (what the example database indexes):");
    println!("{}", sk.text);

    // Embedding locality: the skeleton of a same-shape race lands close.
    let sibling = sk.text.replace("func1", "func9");
    let sim = embed::cosine(&embed::embed(&sk.text), &embed::embed(&sibling));
    println!("cosine to a same-shape sibling skeleton: {sim:.3}");

    // Schedule policies: the same sweep under each exploration strategy.
    // Every run also carries a schedule signature — a hash of its
    // context-switch sequence — so campaigns can spot replayed
    // interleavings (see `govm::sched`).
    println!("\npolicy comparison (24 seeds each):");
    for policy in [SchedulePolicy::Random, SchedulePolicy::pct()] {
        let mut races = 0usize;
        let mut sigs = std::collections::HashSet::new();
        for seed in 0..24 {
            let mut vm = Vm::new(
                &prog,
                VmOptions {
                    seed,
                    policy: policy.clone(),
                    ..VmOptions::default()
                },
            );
            let result = vm.run("Main", vec![]);
            races += result.races.len();
            sigs.insert(result.schedule_sig);
        }
        println!(
            "  {:<16} {races:>2} race observations, {} distinct interleavings",
            policy.label(),
            sigs.len()
        );
    }
}
