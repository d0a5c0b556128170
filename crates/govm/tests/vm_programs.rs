//! End-to-end VM tests: compile Go-subset programs, run them under
//! seeded schedules, and check both semantics and race detection.

use govm::{compile_sources, CompileOptions, TestConfig, Vm, VmOptions};

fn compile(src: &str) -> govm::Program {
    compile_sources(
        &[("main.go".to_owned(), src.to_owned())],
        &CompileOptions::default(),
    )
    .unwrap_or_else(|e| panic!("compile failed: {e}"))
}

fn run(src: &str, entry: &str) -> govm::RunResult {
    let prog = compile(src);
    let mut vm = Vm::new(&prog, VmOptions::default());
    vm.run(entry, vec![])
}

/// Runs under many seeds; returns true if any run detects a race.
fn races_somewhere(src: &str, entry: &str, runs: u64) -> bool {
    let prog = compile(src);
    for seed in 0..runs {
        let mut vm = Vm::new(
            &prog,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        let r = vm.run(entry, vec![]);
        if let Some(e) = &r.error {
            panic!("unexpected error under seed {seed}: {e}");
        }
        if !r.races.is_empty() {
            return true;
        }
    }
    false
}

fn never_races(src: &str, entry: &str, runs: u64) {
    let prog = compile(src);
    for seed in 0..runs {
        let mut vm = Vm::new(
            &prog,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        let r = vm.run(entry, vec![]);
        assert!(
            r.races.is_empty(),
            "seed {seed} raced: {}",
            r.races[0].render()
        );
        assert!(r.error.is_none(), "seed {seed} errored: {:?}", r.error);
    }
}

// ------------------------------------------------------------ semantics

#[test]
fn arithmetic_and_control_flow() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	total := 0
	for i := 1; i <= 10; i++ {
		if i%2 == 0 {
			total += i
		}
	}
	fmt.Println(total)
}
"#,
        "Main",
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.output, "30\n");
}

#[test]
fn recursion_and_multi_return() {
    let r = run(
        r#"
package main

import "fmt"

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

func divmod(a, b int) (int, int) {
	return a / b, a % b
}

func Main() {
	q, rem := divmod(17, 5)
	fmt.Println(fib(10), q, rem)
}
"#,
        "Main",
    );
    assert_eq!(r.output, "55 3 2\n");
}

#[test]
fn closures_capture_by_reference() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	x := 1
	bump := func() {
		x = x + 10
	}
	bump()
	bump()
	fmt.Println(x)
}
"#,
        "Main",
    );
    assert_eq!(r.output, "21\n");
}

#[test]
fn structs_methods_and_pointers() {
    let r = run(
        r#"
package main

import "fmt"

type Counter struct {
	n int
}

func (c *Counter) Inc(by int) {
	c.n += by
}

func (c *Counter) Get() int {
	return c.n
}

func Main() {
	c := &Counter{n: 5}
	c.Inc(3)
	c.Inc(2)
	fmt.Println(c.Get())
}
"#,
        "Main",
    );
    assert_eq!(r.output, "10\n");
}

#[test]
fn maps_slices_append_delete() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	m := map[string]int{"a": 1, "b": 2}
	m["c"] = 3
	delete(m, "a")
	xs := []int{1, 2}
	xs = append(xs, 3, 4)
	v, ok := m["c"]
	_, missing := m["a"]
	fmt.Println(len(m), len(xs), xs[3], v, ok, missing)
}
"#,
        "Main",
    );
    assert_eq!(r.output, "2 4 4 3 true false\n");
}

#[test]
fn range_over_slice_and_map() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	sum := 0
	for i, v := range []int{10, 20, 30} {
		sum += i + v
	}
	m := map[string]int{"x": 1, "y": 2}
	keys := ""
	for k := range m {
		keys = keys + k
	}
	fmt.Println(sum, keys)
}
"#,
        "Main",
    );
    // Map iteration is deterministic (sorted keys).
    assert_eq!(r.output, "63 xy\n");
}

#[test]
fn defer_runs_lifo() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	fmt.Println(work())
}

func work() int {
	x := 0
	defer bump(&x)
	x = 1
	return x
}

func bump(p *int) {
	*p = *p + 100
}
"#,
        "Main",
    );
    // Defers run before the frame pops but after the return value is
    // captured — x was 1 at return.
    assert_eq!(r.output, "1\n");
}

#[test]
fn channels_buffered_roundtrip() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	ch := make(chan int, 2)
	ch <- 1
	ch <- 2
	a := <-ch
	b := <-ch
	fmt.Println(a, b)
}
"#,
        "Main",
    );
    assert_eq!(r.output, "1 2\n");
}

#[test]
fn unbuffered_rendezvous_and_waitgroup() {
    let r = run(
        r#"
package main

import "sync"
import "fmt"

func Main() {
	ch := make(chan int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ch <- 42
	}()
	v := <-ch
	wg.Wait()
	fmt.Println(v)
}
"#,
        "Main",
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.output, "42\n");
    assert!(r.races.is_empty());
}

#[test]
fn select_with_default_and_close() {
    let r = run(
        r#"
package main

import "fmt"

func Main() {
	ch := make(chan int, 1)
	got := 0
	select {
	case v := <-ch:
		got = v
	default:
		got = -1
	}
	ch <- 7
	select {
	case v := <-ch:
		got = got + v
	default:
		got = -100
	}
	done := make(chan struct{})
	close(done)
	select {
	case <-done:
		got = got + 100
	}
	fmt.Println(got)
}
"#,
        "Main",
    );
    assert_eq!(r.output, "106\n");
}

#[test]
fn switch_statement() {
    let r = run(
        r#"
package main

import "fmt"

func classify(x int) string {
	switch x {
	case 0:
		return "zero"
	case 1, 2:
		return "small"
	default:
		return "big"
	}
}

func Main() {
	fmt.Println(classify(0), classify(2), classify(9))
}
"#,
        "Main",
    );
    assert_eq!(r.output, "zero small big\n");
}

#[test]
fn deadlock_is_reported() {
    let r = run(
        r#"
package main

func Main() {
	ch := make(chan int)
	<-ch
}
"#,
        "Main",
    );
    assert!(matches!(r.error, Some(govm::RunError::Deadlock(_))));
}

#[test]
fn panic_on_out_of_bounds() {
    let r = run(
        r#"
package main

func Main() {
	xs := []int{1}
	use(xs[3])
}

func use(x int) {}
"#,
        "Main",
    );
    assert!(matches!(r.error, Some(govm::RunError::Panic(_))));
}

// --------------------------------------------------------- race detection

const LISTING1_RACY: &str = r#"
package main

import "sync"

func SomeFunction() error {
	err := someWork()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err = task1(); err != nil {
			note()
		}
	}()
	if err = task2(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func someWork() error { return nil }
func task1() error    { return nil }
func task2() error    { return nil }
func note()           {}
"#;

const LISTING2_FIXED: &str = r#"
package main

import "sync"

func SomeFunction() error {
	err := someWork()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := task1(); err != nil {
			note()
		}
	}()
	if err = task2(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func someWork() error { return nil }
func task1() error    { return nil }
func task2() error    { return nil }
func note()           {}
"#;

#[test]
fn listing1_err_capture_races() {
    assert!(races_somewhere(LISTING1_RACY, "SomeFunction", 12));
}

#[test]
fn listing2_redeclare_fix_is_clean() {
    never_races(LISTING2_FIXED, "SomeFunction", 24);
}

#[test]
fn race_report_has_stacks_and_stable_hash() {
    let prog = compile(LISTING1_RACY);
    let mut hash = None;
    for seed in 0..16 {
        let mut vm = Vm::new(
            &prog,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        let r = vm.run("SomeFunction", vec![]);
        if let Some(race) = r.races.first() {
            assert_eq!(race.var_name, "err");
            // The closure and the parent both appear.
            let funcs: Vec<&str> = race
                .accesses
                .iter()
                .flat_map(|a| a.stack.iter().map(|f| f.function.as_str()))
                .collect();
            assert!(funcs.iter().any(|f| f.contains("SomeFunction")));
            match &hash {
                None => hash = Some(race.bug_hash()),
                Some(h) => assert_eq!(h, &race.bug_hash(), "bug hash is schedule-stable"),
            }
        }
    }
    assert!(hash.is_some(), "race observed under at least one seed");
}

#[test]
fn loop_variable_capture_races_and_privatization_fixes() {
    let racy = r#"
package main

import "sync"

func Main() {
	nums := []int{0, 1, 2, 3, 4}
	var wg sync.WaitGroup
	for _, num := range nums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(num)
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    let fixed = r#"
package main

import "sync"

func Main() {
	nums := []int{0, 1, 2, 3, 4}
	var wg sync.WaitGroup
	for _, num := range nums {
		num := num
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(num)
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

#[test]
fn go122_loopvar_semantics_option_removes_race() {
    let racy = r#"
package main

import "sync"

func Main() {
	nums := []int{0, 1, 2}
	var wg sync.WaitGroup
	for _, num := range nums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(num)
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    let prog = compile_sources(
        &[("main.go".to_owned(), racy.to_owned())],
        &CompileOptions {
            loopvar_per_iteration: true,
        },
    )
    .unwrap();
    for seed in 0..16 {
        let mut vm = Vm::new(
            &prog,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        let r = vm.run("Main", vec![]);
        assert!(r.races.is_empty(), "go 1.22 semantics should not race");
    }
}

#[test]
fn mutex_protected_counter_is_clean_and_unprotected_races() {
    let racy = r#"
package main

import "sync"

func Main() {
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter = counter + 1
		}()
	}
	wg.Wait()
	use(counter)
}

func use(x int) {}
"#;
    let fixed = r#"
package main

import "sync"

func Main() {
	counter := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			counter = counter + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	use(counter)
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

#[test]
fn wg_add_inside_goroutine_races_with_parent_map_access() {
    // Listing 6 pattern: Add after spawn lets Wait pass early.
    let racy = r#"
package main

import "sync"

func Main() {
	m := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		go func(n int) {
			wg.Add(1)
			defer wg.Done()
			mu.Lock()
			m[n] = n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for k := range m {
		use(k)
	}
}

func use(x int) {}
"#;
    let fixed = r#"
package main

import "sync"

func Main() {
	m := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			mu.Lock()
			m[n] = n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for k := range m {
		use(k)
	}
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 48));
    never_races(fixed, "Main", 24);
}

#[test]
fn concurrent_map_access_races_and_syncmap_fixes() {
    let racy = r#"
package main

import "sync"

func Main() {
	m := make(map[int]int)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			m[n] = n
		}(i)
	}
	wg.Wait()
}
"#;
    let fixed = r#"
package main

import "sync"

func Main() {
	var m sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			m.Store(n, n)
		}(i)
	}
	wg.Wait()
	total := 0
	m.Range(func(key, value interface{}) bool {
		total = total + 1
		return true
	})
	use(total)
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

#[test]
fn atomic_counter_is_clean_plain_counter_races() {
    let fixed = r#"
package main

import (
	"sync"
	"sync/atomic"
)

func Main() {
	var cnt int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddInt32(&cnt, 1)
		}()
	}
	wg.Wait()
	use(atomic.LoadInt32(&cnt))
}

func use(x int) {}
"#;
    never_races(fixed, "Main", 24);
}

#[test]
fn parallel_subtests_share_hash_race_and_per_case_fix() {
    let racy = r#"
package main

import (
	"testing"
	"crypto/md5"
)

func TestRead(t *testing.T) {
	sampleHash := md5.New()
	tests := []struct {
		name string
	}{
		{name: "one"},
		{name: "two"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			sampleHash.Write(tt.name)
		})
	}
}
"#;
    let fixed = r#"
package main

import (
	"testing"
	"crypto/md5"
)

func TestRead(t *testing.T) {
	tests := []struct {
		name string
	}{
		{name: "one"},
		{name: "two"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			h := md5.New()
			h.Write(tt.name)
		})
	}
}
"#;
    let prog = compile(racy);
    let cfg = TestConfig {
        runs: 24,
        ..TestConfig::default()
    };
    let out = govm::run_test_many(&prog, "TestRead", &cfg);
    assert!(
        !out.races.is_empty(),
        "shared hash must race across subtests"
    );

    let prog2 = compile(fixed);
    let out2 = govm::run_test_many(&prog2, "TestRead", &cfg);
    assert!(
        out2.races.is_empty(),
        "per-case hash is clean: {:?}",
        out2.races.first().map(|r| r.render())
    );
    assert!(out2.error.is_none(), "{:?}", out2.error);
}

#[test]
fn channel_result_passing_is_clean() {
    // Listing 10's fixed shape: err flows through a channel.
    let fixed = r#"
package main

import "fmt"

func Main() {
	resultChan := make(chan int, 1)
	errChan := make(chan error, 1)
	go func() {
		result, err := evaluate()
		resultChan <- result
		errChan <- err
	}()
	result := <-resultChan
	err := <-errChan
	fmt.Println(result, err)
}

func evaluate() (int, error) {
	return 7, nil
}
"#;
    never_races(fixed, "Main", 24);
}

#[test]
fn ctx_timeout_select_race_appears_across_seeds() {
    // Listing 10's racy shape: err captured by reference, parent may take
    // the ctx.Done arm while the child writes err.
    let racy = r#"
package main

import "context"
import "time"

func Main() {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	resultChan := make(chan int, 1)
	var err error
	go func() {
		var result int
		result, err = evaluate()
		resultChan <- result
	}()
	select {
	case r := <-resultChan:
		use(r)
	case <-ctx.Done():
		use(0)
	}
	if err != nil {
		use(1)
	}
	cancel()
}

func evaluate() (int, error) {
	total := 0
	for i := 0; i < 30; i++ {
		total += i
	}
	return total, nil
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 64));
}

#[test]
fn shared_rand_source_races_per_request_source_is_clean() {
    let racy = r#"
package main

import (
	"sync"
	"math/rand"
)

var source = rand.NewSource(1001)

func Main() {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			random := rand.New(source)
			use(random.Intn(10))
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    let fixed = r#"
package main

import (
	"sync"
	"math/rand"
)

func Main() {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			random := rand.New(rand.NewSource(1001))
			use(random.Intn(10))
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

#[test]
fn slice_append_vs_index_races_mutex_fixes() {
    let racy = r#"
package main

import "sync"

func Main() {
	xs := []int{1, 2, 3}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		xs = append(xs, 4)
	}()
	go func() {
		defer wg.Done()
		use(xs[0])
	}()
	wg.Wait()
}

func use(x int) {}
"#;
    let fixed = r#"
package main

import "sync"

func Main() {
	xs := []int{1, 2, 3}
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mu.Lock()
		xs = append(xs, 4)
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		mu.Lock()
		use(xs[0])
		mu.Unlock()
	}()
	wg.Wait()
}

func use(x int) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

#[test]
fn rwmutex_readers_do_not_race_with_each_other() {
    let src = r#"
package main

import "sync"

func Main() {
	data := map[string]int{"k": 1}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		mu.Lock()
		data["k"] = 2
		mu.Unlock()
	}()
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			mu.RLock()
			use(data["k"])
			mu.RUnlock()
		}()
	}
	wg.Wait()
}

func use(x int) {}
"#;
    never_races(src, "Main", 32);
}

#[test]
fn struct_copy_fix_is_clean_shared_struct_races() {
    let racy = r#"
package main

import "sync"

type Config struct {
	Limit int
}

func Main() {
	cfg := &Config{Limit: 1}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cfg.Limit = 5
		use(cfg)
	}()
	go func() {
		defer wg.Done()
		cfg.Limit = 9
		use(cfg)
	}()
	wg.Wait()
}

func use(c *Config) {}
"#;
    let fixed = r#"
package main

import "sync"

type Config struct {
	Limit int
}

func Main() {
	cfg := &Config{Limit: 1}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		local := Config{Limit: cfg.Limit}
		local.Limit = 5
		use(&local)
	}()
	go func() {
		defer wg.Done()
		local := Config{Limit: cfg.Limit}
		local.Limit = 9
		use(&local)
	}()
	wg.Wait()
}

func use(c *Config) {}
"#;
    assert!(races_somewhere(racy, "Main", 12));
    never_races(fixed, "Main", 24);
}

/// A composite literal of a library type the VM backs natively
/// (`md5.Hash{}`, `strings.Reader{}`) builds a struct without the
/// hidden state field the constructors set up. Calling a native method
/// on it must fail the run with an error, never panic the host.
#[test]
fn native_methods_on_bare_library_literals_error_instead_of_panicking() {
    let cases = [
        ("crypto/md5", "md5.Hash", "h.Write(\"x\")"),
        ("crypto/md5", "md5.Hash", "use(h.Sum(nil))"),
        ("crypto/md5", "md5.Hash", "h.Reset()"),
        (
            "strings",
            "strings.Reader",
            "buf := []int{0, 0}\n\th.Read(buf)",
        ),
    ];
    for (pkg, ty, call) in cases {
        for amp in ["", "&"] {
            let src = format!(
                "package main\n\nimport \"{pkg}\"\n\nfunc Main() {{\n\th := {amp}{ty}{{}}\n\t{call}\n}}\n\nfunc use(x string) {{}}\n"
            );
            let r = run(&src, "Main");
            assert!(
                matches!(&r.error, Some(govm::RunError::Panic(m)) if m.contains("state missing")),
                "{amp}{ty}{{}}: `{call}` must fail the run: {:?}",
                r.error
            );
        }
    }
}
