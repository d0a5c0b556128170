//! Race-case templates: one generator per Table 3 category (with
//! variants) and per Table 5 hard category.
//!
//! Every fixable template emits both the racy program and its
//! ground-truth human fix; the racy pattern is one of the shapes the
//! `govm` integration suite verifies the detector catches, and the fix
//! is one it verifies comes back clean.

use crate::noise::NameGen;
use crate::{HardCategory, RaceCase, RaceCategory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates one fixable case of `cat`, then buries it in unique
/// business-logic noise ("industrial codebases are dense with
/// domain-specific logic and terminology", §1). The noise is identical in
/// the racy and fixed renditions, never executes, and is exactly what the
/// skeleton abstraction strips — raw-text retrieval drowns in it.
pub fn fixable_case(rng: &mut StdRng, cat: RaceCategory, idx: usize) -> RaceCase {
    let mut case = fixable_case_inner(rng, cat, idx);
    let noise = business_noise(rng);
    for (_, src) in &mut case.files {
        src.push_str(&noise);
    }
    if let Some(fix) = &mut case.human_fix {
        for (_, src) in fix {
            src.push_str(&noise);
        }
    }
    case
}

/// Renders a few never-called helper functions full of unique
/// identifiers and string literals.
fn business_noise(rng: &mut StdRng) -> String {
    let mut n = NameGen::new(rng);
    let mut out = String::new();
    let funcs = n.small(4, 7);
    for _ in 0..funcs {
        let fname = n.helper();
        let lines = n.small(8, 18) as usize;
        let body = n.filler(lines, "\t");
        out.push_str(&format!("\nfunc {fname}() {{\n{body}}}\n"));
    }
    out
}

fn fixable_case_inner(rng: &mut StdRng, cat: RaceCategory, idx: usize) -> RaceCase {
    match cat {
        RaceCategory::CaptureByReference => {
            // Variant mix inside the category: redeclare-style races
            // dominate; channel-result (Listing 10) is the hard tail.
            let roll = rng.gen_range(0..100);
            if roll < 45 {
                err_capture(rng, idx)
            } else if roll < 65 {
                local_copy(rng, idx)
            } else if roll < 78 {
                pass_param(rng, idx)
            } else if roll < 90 {
                lca_capture(rng, idx)
            } else {
                channel_result(rng, idx)
            }
        }
        RaceCategory::MissingSync => {
            let roll = rng.gen_range(0..100);
            if roll < 40 {
                wg_add_inside(rng, idx)
            } else if roll < 70 {
                counter_unprotected(rng, idx)
            } else {
                partial_lock(rng, idx)
            }
        }
        RaceCategory::ParallelTest => table_test(rng, idx),
        RaceCategory::LoopVarCapture => loop_var(rng, idx),
        RaceCategory::ConcurrentMap => {
            if rng.gen_bool(0.5) {
                local_map(rng, idx)
            } else {
                field_map(rng, idx)
            }
        }
        RaceCategory::ConcurrentSlice => slice_append(rng, idx),
        RaceCategory::Other => {
            if rng.gen_bool(0.5) {
                rand_source(rng, idx)
            } else {
                struct_copy(rng, idx)
            }
        }
    }
}

/// Generates one Table 5 hard case.
pub fn hard_case(rng: &mut StdRng, hcat: HardCategory, idx: usize) -> RaceCase {
    match hcat {
        HardCategory::MoreThanTwoFiles => third_file_global(rng, idx, hcat),
        HardCategory::RemoveParallelism => alias_return_race(rng, idx, hcat),
        HardCategory::BusinessLogic => alias_return_race(rng, idx, hcat),
        HardCategory::IsolateTest => third_file_global(rng, idx, hcat),
        HardCategory::External => vendor_race(rng, idx),
        HardCategory::LargeRefactoring => third_file_global(rng, idx, hcat),
        HardCategory::Others => alias_return_race(rng, idx, hcat),
        HardCategory::DeepCopy => hard_struct_copy(rng, idx),
        HardCategory::Singleton => third_file_global(rng, idx, HardCategory::Singleton),
        HardCategory::NonTrivialExpert => hard_channel_result(rng, idx),
    }
}

/// Generates one example-database pair of `cat` (§4.1).
pub fn db_pair(rng: &mut StdRng, cat: RaceCategory, _i: usize) -> crate::DbPair {
    // Reuse the fixable templates: the DB holds single-file
    // (racy, fixed) pairs; for multi-file templates the file carrying
    // the fix is stored.
    let case = fixable_case(rng, cat, usize::MAX / 2);
    let (mut buggy, mut fixed) = (case.files[0].1.clone(), case.files[0].1.clone());
    if let Some(fix) = &case.human_fix {
        for (name, fixed_src) in fix {
            let orig = case
                .files
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
                .unwrap_or_default();
            if &orig != fixed_src {
                buggy = orig;
                fixed = fixed_src.clone();
                break;
            }
        }
    }
    let racy_var = case_racy_var(&case);
    crate::DbPair {
        buggy,
        fixed,
        racy_var,
        category: cat,
    }
}

/// Best-effort racy-variable name recovery (templates encode it in the
/// case id slot; used only for DB skeletonization).
fn case_racy_var(case: &RaceCase) -> String {
    // The templates embed the racy variable as the first `// racy:` line.
    for (_, src) in &case.files {
        for line in src.lines() {
            if let Some(rest) = line.trim().strip_prefix("// racy:") {
                return rest.trim().to_owned();
            }
        }
    }
    "x".to_owned()
}

fn case(
    idx: usize,
    cat: RaceCategory,
    files: Vec<(String, String)>,
    test: String,
    fix: Option<Vec<(String, String)>>,
) -> RaceCase {
    RaceCase {
        id: format!("race-{idx:04}"),
        category: cat,
        hard: None,
        fixable: fix.is_some(),
        lca_only: false,
        files,
        test,
        human_fix: fix,
    }
}

// ===================================================================
// Fixable templates
// ===================================================================

/// Listing 1: `err` captured by reference in a WaitGroup goroutine.
fn err_capture(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let (h1, h2, h3) = (n.helper(), n.helper(), n.helper());
    let filler_n = n.small(1, 3) as usize;
    let filler = n.filler(filler_n, "\t");
    let make = |racy: bool| {
        let inner = if racy {
            format!("\t\tif err = {h2}(); err != nil {{\n\t\t\trecordIssue()\n\t\t}}\n")
        } else {
            format!("\t\tif err := {h2}(); err != nil {{\n\t\t\trecordIssue()\n\t\t}}\n")
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: err
func {func}() error {{
	err := {h1}()
	if err != nil {{
		return err
	}}
{filler}	var wg sync.WaitGroup
	wg.Add(1)
	go func() {{
		defer wg.Done()
{inner}	}}()
	if err = {h3}(); err != nil {{
		recordIssue()
	}}
	wg.Wait()
	return err
}}

func {h1}() error {{ return nil }}
func {h2}() error {{ return nil }}
func {h3}() error {{ return nil }}
func recordIssue() {{}}

func {test}(t *testing.T) {{
	if err := {func}(); err != nil {{
		t.Errorf("unexpected: %v", err)
	}}
}}
"#
        )
    };
    let file = ("service.go".to_owned(), make(true));
    let fix = vec![("service.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::CaptureByReference,
        vec![file],
        test,
        Some(fix),
    )
}

/// Listing 5: the `limit` local-copy pattern.
fn local_copy(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = n.var();
    let iters = n.small(3, 5);
    let filler_n = n.small(1, 2) as usize;
    let filler = n.filler(filler_n, "\t");
    let make = |racy: bool| {
        let body = if racy {
            format!(
                "\t\t\tif pos%2 == 0 {{\n\t\t\t\t{var} = {var} + 5\n\t\t\t}}\n\t\t\tconsume({var})\n"
            )
        } else {
            format!(
                "\t\t\tlocal{cap} := {var}\n\t\t\tif pos%2 == 0 {{\n\t\t\t\tlocal{cap} = local{cap} + 5\n\t\t\t}}\n\t\t\tconsume(local{cap})\n",
                cap = capitalize(&var)
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() {{
	{var} := 10
{filler}	var wg sync.WaitGroup
	for i := 0; i < {iters}; i++ {{
		wg.Add(1)
		go func(pos int) {{
			defer wg.Done()
{body}		}}(i)
	}}
	wg.Wait()
}}

func consume(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("limits.go".to_owned(), make(true));
    let fix = vec![("limits.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::CaptureByReference,
        vec![file],
        test,
        Some(fix),
    )
}

/// A goroutine reads a captured variable the parent keeps writing.
fn pass_param(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = n.var();
    let filler_n = n.small(0, 2) as usize;
    let filler = n.filler(filler_n, "\t");
    let make = |racy: bool| {
        let (sig, arg) = if racy {
            ("func() {".to_owned(), "}()".to_owned())
        } else {
            (
                format!("func({var} interface{{}}) {{"),
                format!("}}({var})"),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() {{
	{var} := 1
{filler}	var wg sync.WaitGroup
	wg.Add(1)
	go {sig}
		defer wg.Done()
		consume2({var})
	{arg}
	{var} = 2
	consume2({var})
	wg.Wait()
}}

func consume2(v interface{{}}) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("params.go".to_owned(), make(true));
    let fix = vec![("params.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::CaptureByReference,
        vec![file],
        test,
        Some(fix),
    )
}

/// A three-file case where the fix is only reachable from the LCA: the
/// racy writes live in helper functions (leaf), the test merely calls
/// the parent, and only the parent (LCA) can privatise the shared object.
fn lca_capture(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let parent = n.func();
    let test = n.test();
    let (h1, h2) = (n.helper(), n.helper());
    let helpers = format!(
        r#"package app

// racy: load
func {h1}(c *{ty}) {{
	c.load = c.load + 1
}}

func {h2}(c *{ty}) {{
	c.load = c.load + 2
}}
"#
    );
    let make_parent = |racy: bool| {
        let spawn = if racy {
            format!(
                "\tgo func() {{\n\t\tdefer wg.Done()\n\t\t{h1}(c)\n\t}}()\n\tgo func() {{\n\t\tdefer wg.Done()\n\t\t{h2}(c)\n\t}}()\n"
            )
        } else {
            format!(
                "\tgo func() {{\n\t\tdefer wg.Done()\n\t\tlocalC := *c\n\t\t{h1}(&localC)\n\t}}()\n\tgo func() {{\n\t\tdefer wg.Done()\n\t\tlocalC := *c\n\t\t{h2}(&localC)\n\t}}()\n"
            )
        };
        format!(
            r#"package app

import "sync"

type {ty} struct {{
	load int
}}

func {parent}() {{
	c := &{ty}{{load: 1}}
	var wg sync.WaitGroup
	wg.Add(2)
{spawn}	wg.Wait()
}}
"#
        )
    };
    let driver = format!(
        r#"package app

import "testing"

func {test}(t *testing.T) {{
	{parent}()
}}
"#
    );
    let files = vec![
        ("workers.go".to_owned(), helpers.clone()),
        ("parent.go".to_owned(), make_parent(true)),
        ("driver_test.go".to_owned(), driver.clone()),
    ];
    let fix = vec![
        ("workers.go".to_owned(), helpers),
        ("parent.go".to_owned(), make_parent(false)),
        ("driver_test.go".to_owned(), driver),
    ];
    let mut c = case(
        idx,
        RaceCategory::CaptureByReference,
        files,
        test,
        Some(fix),
    );
    c.lca_only = true;
    c
}

/// Listing 10: err captured across a ctx.Done select.
fn channel_result(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let eval = n.helper();
    let make = |racy: bool| {
        if racy {
            format!(
                r#"package app

import (
	"context"
	"testing"
	"time"
)

// racy: err
func {func}() error {{
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	resultChan := make(chan int, 1)
	var err error
	go func() {{
		var result int
		result, err = {eval}()
		resultChan <- result
	}}()
	select {{
	case r := <-resultChan:
		consumeRisk(r)
	case <-ctx.Done():
		consumeRisk(0)
	}}
	cancel()
	return err
}}

func {eval}() (int, error) {{
	total := 0
	for i := 0; i < 25; i++ {{
		total += i
	}}
	return total, nil
}}

func consumeRisk(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
            )
        } else {
            format!(
                r#"package app

import (
	"context"
	"testing"
	"time"
)

func {func}() error {{
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	resultChan := make(chan int, 1)
	errChan := make(chan error, 1)
	var err error
	go func() {{
		result, err := {eval}()
		resultChan <- result
		errChan <- err
	}}()
	select {{
	case r := <-resultChan:
		err = <-errChan
		consumeRisk(r)
	case <-ctx.Done():
		consumeRisk(0)
	}}
	cancel()
	return err
}}

func {eval}() (int, error) {{
	total := 0
	for i := 0; i < 25; i++ {{
		total += i
	}}
	return total, nil
}}

func consumeRisk(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
            )
        }
    };
    let file = ("risk.go".to_owned(), make(true));
    let fix = vec![("risk.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::CaptureByReference,
        vec![file],
        test,
        Some(fix),
    )
}

/// Listing 6: wg.Add inside the goroutine.
fn wg_add_inside(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = n.var();
    let workers = n.small(3, 5);
    let make = |racy: bool| {
        let (before, inside) = if racy {
            ("", "\t\t\twg.Add(1)\n")
        } else {
            ("\t\twg.Add(1)\n", "")
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() int {{
	{var} := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
{before}		go func(pod int) {{
{inside}			defer wg.Done()
			mu.Lock()
			{var}[pod] = pod
			mu.Unlock()
		}}(i)
	}}
	wg.Wait()
	total := 0
	for k := range {var} {{
		total += k
	}}
	return total
}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("replicas.go".to_owned(), make(true));
    let fix = vec![("replicas.go".to_owned(), make(false))];
    case(idx, RaceCategory::MissingSync, vec![file], test, Some(fix))
}

/// An unprotected shared counter behind struct methods: the fix (an
/// atomic or a mutex field) needs the type declaration — file scope.
fn counter_unprotected(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let workers = n.small(3, 5);
    let make = |racy: bool| {
        let (fields, inc, read) = if racy {
            (
                "\ttally int".to_owned(),
                "\tc.tally = c.tally + by\n".to_owned(),
                "\treturn c.tally\n".to_owned(),
            )
        } else {
            (
                "\ttally int\n\tmuTally sync.Mutex".to_owned(),
                "\tc.muTally.Lock()\n\tc.tally = c.tally + by\n\tc.muTally.Unlock()\n".to_owned(),
                "\tc.muTally.Lock()\n\tv := c.tally\n\tc.muTally.Unlock()\n\treturn v\n".to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: tally
type {ty} struct {{
{fields}
}}

func (c *{ty}) bump(by int) {{
{inc}}}

func (c *{ty}) total() int {{
{read}}}

func {test}(t *testing.T) {{
	c := &{ty}{{}}
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func(by int) {{
			defer wg.Done()
			c.bump(by)
		}}(i)
	}}
	wg.Wait()
	if c.total() < 0 {{
		t.Errorf("impossible total")
	}}
}}
"#
        )
    };
    let file = ("counter.go".to_owned(), make(true));
    let fix = vec![("counter.go".to_owned(), make(false))];
    case(idx, RaceCategory::MissingSync, vec![file], test, Some(fix))
}

/// A struct-field gauge written by methods where one method forgot the
/// lock — the repair adds a guarding mutex field (file scope).
fn partial_lock(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let make = |racy: bool| {
        let (fields, hot) = if racy {
            (
                "\tgauge int\n\tmu sync.Mutex".to_owned(),
                "\tc.gauge = c.gauge * 2\n".to_owned(),
            )
        } else {
            (
                "\tgauge int\n\tmu sync.Mutex".to_owned(),
                "\tc.mu.Lock()\n\tc.gauge = c.gauge * 2\n\tc.mu.Unlock()\n".to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: gauge
type {ty} struct {{
{fields}
}}

func (c *{ty}) slowPath() {{
	c.mu.Lock()
	c.gauge = c.gauge + 3
	c.mu.Unlock()
}}

func (c *{ty}) hotPath() {{
{hot}}}

func {test}(t *testing.T) {{
	c := &{ty}{{}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
		c.slowPath()
	}}()
	go func() {{
		defer wg.Done()
		c.hotPath()
	}}()
	wg.Wait()
}}
"#
        )
    };
    let file = ("ledger.go".to_owned(), make(true));
    let fix = vec![("ledger.go".to_owned(), make(false))];
    case(idx, RaceCategory::MissingSync, vec![file], test, Some(fix))
}

/// Listing 7: parallel table test sharing one hash object.
fn table_test(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let test = n.test();
    let var = n.var();
    let make = |racy: bool| {
        let (decl, use1, use2) = if racy {
            (format!("\t{var} := md5.New()\n"), var.clone(), var.clone())
        } else {
            (
                String::new(),
                "md5.New()".to_owned(),
                "md5.New()".to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"crypto/md5"
	"testing"
)

// racy: {var}
func {test}(t *testing.T) {{
{decl}	tests := []struct {{
		name string
		hash interface{{}}
	}}{{
		{{name: "first", hash: {use1}}},
		{{name: "second", hash: {use2}}},
	}}
	for _, tt := range tests {{
		tt := tt
		t.Run(tt.name, func(t *testing.T) {{
			t.Parallel()
			digestCase(tt.hash, tt.name)
		}})
	}}
}}

func digestCase(h interface{{}}, name string) {{
	w := h.(interface{{}})
	_ = w
	hashWrite(h, name)
}}

func hashWrite(h interface{{}}, s string) {{
	hw := h
	_ = hw
	writeTo(h, s)
}}
"#
        ) + "\nfunc writeTo(h interface{}, s string) {\n\thh := h.(hash.Hash)\n\t_ = hh\n}\n"
    };
    // The type-assertion helper chain above is noise; the real write goes
    // through the md5 native. Simplify: direct Write call.
    let make2 = |racy: bool| {
        let (decl, use1, use2) = if racy {
            (format!("\t{var} := md5.New()\n"), var.clone(), var.clone())
        } else {
            (
                String::new(),
                "md5.New()".to_owned(),
                "md5.New()".to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"crypto/md5"
	"testing"
)

// racy: {var}
func {test}(t *testing.T) {{
{decl}	tests := []struct {{
		name string
		hash interface{{}}
	}}{{
		{{name: "first", hash: {use1}}},
		{{name: "second", hash: {use2}}},
	}}
	for _, tt := range tests {{
		tt := tt
		t.Run(tt.name, func(t *testing.T) {{
			t.Parallel()
			tt.hash.Write(tt.name)
		}})
	}}
}}
"#
        )
    };
    let _ = make;
    let file = ("upload_test.go".to_owned(), make2(true));
    let fix = vec![("upload_test.go".to_owned(), make2(false))];
    case(idx, RaceCategory::ParallelTest, vec![file], test, Some(fix))
}

/// Listing 11: the classic loop-variable capture.
fn loop_var(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = "item".to_owned();
    let count = n.small(3, 6);
    let filler_n = n.small(0, 2) as usize;
    let filler = n.filler(filler_n, "\t");
    let make = |racy: bool| {
        let rebind = if racy {
            String::new()
        } else {
            format!("\t\t{var} := {var}\n")
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() {{
	rows := make([]int, {count})
{filler}	var wg sync.WaitGroup
	for _, {var} := range rows {{
{rebind}		wg.Add(1)
		go func() {{
			defer wg.Done()
			consumeRow({var})
		}}()
	}}
	wg.Wait()
}}

func consumeRow(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("rows.go".to_owned(), make(true));
    let fix = vec![("rows.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::LoopVarCapture,
        vec![file],
        test,
        Some(fix),
    )
}

/// Concurrent writes to a local built-in map.
fn local_map(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = n.var();
    let workers = n.small(3, 4);
    let make = |racy: bool| {
        if racy {
            format!(
                r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() {{
	{var} := make(map[int]int)
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func(pod int) {{
			defer wg.Done()
			{var}[pod] = pod
		}}(i)
	}}
	wg.Wait()
}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
            )
        } else {
            format!(
                r#"package app

import (
	"sync"
	"testing"
)

func {func}() {{
	var {var} sync.Map
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func(pod int) {{
			defer wg.Done()
			{var}.Store(pod, pod)
		}}(i)
	}}
	wg.Wait()
}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
            )
        }
    };
    let file = ("shards.go".to_owned(), make(true));
    let fix = vec![("shards.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::ConcurrentMap,
        vec![file],
        test,
        Some(fix),
    )
}

/// Listing 8 shape: a struct-field map mutated by concurrent methods.
fn field_map(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let field = "lockMap".to_owned();
    let make = |racy: bool| {
        if racy {
            format!(
                r#"package app

import (
	"sync"
	"testing"
)

// racy: {field}
type {ty} struct {{
	{field} map[int]int
}}

func (t *{ty}) refresh(keys []int) {{
	for _, k := range keys {{
		t.{field}[k] = k
	}}
}}

func (t *{ty}) cleanup(keep int) {{
	for k := range t.{field} {{
		if k > keep {{
			delete(t.{field}, k)
		}}
	}}
}}

func {test}(t *testing.T) {{
	s := &{ty}{{{field}: map[int]int{{1: 1, 9: 9}}}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
		s.refresh([]int{{2, 3}})
	}}()
	go func() {{
		defer wg.Done()
		s.cleanup(5)
	}}()
	wg.Wait()
}}
"#
            )
        } else {
            format!(
                r#"package app

import (
	"sync"
	"testing"
)

type {ty} struct {{
	{field} sync.Map
}}

func (t *{ty}) refresh(keys []int) {{
	for _, k := range keys {{
		t.{field}.Store(k, k)
	}}
}}

func (t *{ty}) cleanup(keep int) {{
	t.{field}.Range(func(key, value interface{{}}) bool {{
		if key.(int) > keep {{
			t.{field}.Delete(key)
		}}
		return true
	}})
}}

func {test}(t *testing.T) {{
	s := &{ty}{{}}
	s.refresh([]int{{1, 9}})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
		s.refresh([]int{{2, 3}})
	}}()
	go func() {{
		defer wg.Done()
		s.cleanup(5)
	}}()
	wg.Wait()
}}
"#
            )
        }
    };
    let file = ("scanner.go".to_owned(), make(true));
    let fix = vec![("scanner.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::ConcurrentMap,
        vec![file],
        test,
        Some(fix),
    )
}

/// Listing 9 shape: append racing with indexing.
fn slice_append(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let var = n.var();
    let make = |racy: bool| {
        let (decl, w, r) = if racy {
            (
                String::new(),
                format!("\t\t{var} = append({var}, 4)\n"),
                format!("\t\tconsumeSlice({var}[0])\n"),
            )
        } else {
            (
                format!("\tvar mu{cap} sync.Mutex\n", cap = capitalize(&var)),
                format!(
                    "\t\tmu{cap}.Lock()\n\t\t{var} = append({var}, 4)\n\t\tmu{cap}.Unlock()\n",
                    cap = capitalize(&var)
                ),
                format!(
                    "\t\tmu{cap}.Lock()\n\t\tconsumeSlice({var}[0])\n\t\tmu{cap}.Unlock()\n",
                    cap = capitalize(&var)
                ),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: {var}
func {func}() {{
	{var} := []int{{1, 2, 3}}
{decl}	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
{w}	}}()
	go func() {{
		defer wg.Done()
{r}	}}()
	wg.Wait()
}}

func consumeSlice(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("channels.go".to_owned(), make(true));
    let fix = vec![("channels.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::ConcurrentSlice,
        vec![file],
        test,
        Some(fix),
    )
}

/// Listing 12: a shared global rand.Source.
fn rand_source(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let seed = n.small(100, 9999);
    let workers = n.small(2, 4);
    let make = |racy: bool| {
        let (global, new) = if racy {
            (
                format!("var responseSource = rand.NewSource({seed})\n\n"),
                "rand.New(responseSource)".to_owned(),
            )
        } else {
            (String::new(), format!("rand.New(rand.NewSource({seed}))"))
        };
        format!(
            r#"package app

import (
	"math/rand"
	"sync"
	"testing"
)

// racy: responseSource
{global}func {func}() {{
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func() {{
			defer wg.Done()
			random := {new}
			consumeRand(random.Intn(10))
		}}()
	}}
	wg.Wait()
}}

func consumeRand(v int) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("respond.go".to_owned(), make(true));
    let fix = vec![("respond.go".to_owned(), make(false))];
    case(idx, RaceCategory::Other, vec![file], test, Some(fix))
}

/// Listing 22/24 shape: shared config struct mutated by two goroutines.
fn struct_copy(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let func = n.func();
    let test = n.test();
    let make = |racy: bool| {
        let (b1, b2) = if racy {
            (
                "\t\tcfg.Limit = 5\n\t\tsubmitCfg(cfg)\n".to_owned(),
                "\t\tcfg.Limit = 9\n\t\tsubmitCfg(cfg)\n".to_owned(),
            )
        } else {
            (
                "\t\tlocalCfg := *cfg\n\t\tlocalCfg.Limit = 5\n\t\tsubmitCfg(&localCfg)\n"
                    .to_owned(),
                "\t\tlocalCfg := *cfg\n\t\tlocalCfg.Limit = 9\n\t\tsubmitCfg(&localCfg)\n"
                    .to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: cfg
type {ty} struct {{
	Limit int
	Name  string
}}

func {func}() {{
	cfg := &{ty}{{Limit: 1, Name: "base"}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
{b1}	}}()
	go func() {{
		defer wg.Done()
{b2}	}}()
	if cfg.Limit > 99 {{
		wg.Wait()
		return
	}}
	wg.Wait()
}}

func submitCfg(c interface{{}}) {{}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
        )
    };
    let file = ("config.go".to_owned(), make(true));
    let fix = vec![("config.go".to_owned(), make(false))];
    case(idx, RaceCategory::Other, vec![file], test, Some(fix))
}

// ===================================================================
// Ordering-sensitive (schedule hard-tail) templates
// ===================================================================

/// Generates one *ordering-sensitive* fixable case of `cat`.
///
/// Unlike the Table 3 templates — whose races carry no happens-before
/// edge at all, so any schedule exposes them — these races only
/// manifest in schedules where the worker goroutine is starved past a
/// computation window: the test body does `window` instructions of
/// local work and then takes a non-blocking `select`; only when the
/// worker has *not* yet signalled does the default branch touch the
/// shared state concurrently. Uniform-random scheduling rarely starves
/// the short worker that long, which makes these the schedule hard
/// tail that PCT-style priority exploration is built for.
pub fn ordering_sensitive_case(rng: &mut StdRng, cat: RaceCategory, idx: usize) -> RaceCase {
    let mut case = ordering_sensitive_inner(rng, cat, idx);
    let noise = business_noise(rng);
    for (_, src) in &mut case.files {
        src.push_str(&noise);
    }
    if let Some(fix) = &mut case.human_fix {
        for (_, src) in fix {
            src.push_str(&noise);
        }
    }
    case
}

fn ordering_sensitive_inner(rng: &mut StdRng, cat: RaceCategory, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let ready = n.var();
    let acc = n.var();
    let iv = n.var();
    // The starvation window, in loop iterations (~10 instructions each).
    // Short windows let uniform-random scheduling win occasionally (it
    // must starve the worker for only a few quanta); long windows push
    // its expected schedules-to-expose into the hundreds while priority
    // exploration stays flat.
    let window = n.small(1, 8);

    // Per-category flavour: declaration, worker-side op, synchronized
    // op (after the happens-before receive), racy default op, and the
    // return expression.
    let (racy_var, decl, child_op, sync_op, racy_op, ret) = match cat {
        RaceCategory::CaptureByReference => {
            let v = n.var();
            (
                v.clone(),
                format!("\t{v} := 0\n"),
                format!("\t\t{v} = {v} + 2\n"),
                format!("\t\t{v} = {v} + {acc}\n"),
                format!("\t\t{v} = {acc}\n"),
                v.clone(),
            )
        }
        RaceCategory::ConcurrentMap => {
            let v = n.var();
            (
                v.clone(),
                format!("\t{v} := make(map[int]int)\n"),
                format!("\t\t{v}[1] = 2\n"),
                format!("\t\t{v}[2] = {acc}\n"),
                format!("\t\t{v}[3] = {acc}\n"),
                format!("len({v})"),
            )
        }
        RaceCategory::ConcurrentSlice => {
            let v = n.var();
            (
                v.clone(),
                format!("\t{v} := []int{{}}\n"),
                format!("\t\t{v} = append({v}, 1)\n"),
                format!("\t\t{v} = append({v}, {acc})\n"),
                format!("\t\t{v} = append({v}, {acc})\n"),
                format!("len({v})"),
            )
        }
        _ => {
            // MissingSync, ParallelTest, LoopVarCapture and Other share
            // the plain-counter shape; LoopVarCapture additionally
            // spawns the worker from a loop (see below).
            let v = n.var();
            (
                v.clone(),
                format!("\t{v} := 0\n"),
                format!("\t\t{v} = {v} + 7\n"),
                format!("\t\t{v} = {v} + {acc}\n"),
                format!("\t\t{v} = {v} + 1\n"),
                v.clone(),
            )
        }
    };

    // LoopVarCapture keeps the spawn-in-loop shape (single iteration, so
    // the loop variable itself stays race-free — the windowed race below
    // is the one under test).
    let spawn = if cat == RaceCategory::LoopVarCapture {
        let w = n.var();
        format!(
            "\tfor {w} := 0; {w} < 1; {w}++ {{\n\t\tgo func() {{\n\t{child_op}\t\t\t{ready} <- true\n\t\t}}()\n\t}}\n"
        )
    } else {
        format!("\tgo func() {{\n{child_op}\t\t{ready} <- true\n\t}}()\n")
    };

    let make = |racy: bool| {
        let tail = if racy {
            format!("\tselect {{\n\tcase <-{ready}:\n{sync_op}\tdefault:\n{racy_op}\t}}\n")
        } else {
            // Human fix: block on the worker's signal — the receive is
            // the missing happens-before edge.
            format!("\t<-{ready}\n{sync_op}")
        };
        format!(
            r#"package app

import "testing"

// racy: {racy_var}
func {func}() int {{
{decl}	{ready} := make(chan bool, 1)
{spawn}	{acc} := 0
	for {iv} := 0; {iv} < {window}; {iv}++ {{
		{acc} = {acc} + {iv}
	}}
{tail}	return {ret}
}}

func {test}(t *testing.T) {{
	if {func}() < 0 {{
		t.Errorf("impossible result")
	}}
}}
"#
        )
    };
    let file = ("window.go".to_owned(), make(true));
    let fix = vec![("window.go".to_owned(), make(false))];
    case(idx, cat, vec![file], test, Some(fix))
}

// ===================================================================
// Tournament templates: the statically-interesting families
// ===================================================================

/// Generates one tournament-corpus case: the four families cycle by
/// index. These shapes are picked to exercise the tournament arm's
/// repair loop and gate accounting — RWMutex upgrades whose natural
/// mutex patch draws an `inconsistent-lock` warning, double-checked
/// locking whose mutex patch is a structural `double-lock` error,
/// channel-select races over a captured local, and a racy read sitting
/// in a `return` statement (the guard-hoist shape).
pub fn tournament_case(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut case = match idx % 4 {
        0 => rwmutex_upgrade(rng, idx),
        1 => double_checked(rng, idx),
        2 => channel_select(rng, idx),
        _ => return_read(rng, idx),
    };
    let noise = business_noise(rng);
    for (_, src) in &mut case.files {
        src.push_str(&noise);
    }
    if let Some(fix) = &mut case.human_fix {
        for (_, src) in fix {
            src.push_str(&noise);
        }
    }
    case
}

/// RWMutex-upgrade race: a writer takes only the *read* lock, so two
/// recorders race with each other (read locks exclude writers under
/// `Lock`, not each other). The human fix upgrades the writer to the
/// write lock.
fn rwmutex_upgrade(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let make = |racy: bool| {
        let (wl, wu) = if racy {
            ("RLock", "RUnlock")
        } else {
            ("Lock", "Unlock")
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: hits
type {ty} struct {{
	hits int
	mu   sync.RWMutex
}}

func (s *{ty}) record(wg *sync.WaitGroup) {{
	wg.Add(1)
	go func() {{
		defer wg.Done()
		s.mu.{wl}()
		s.hits = s.hits + 1
		s.mu.{wu}()
	}}()
}}

func (s *{ty}) poll(wg *sync.WaitGroup) {{
	wg.Add(1)
	go func() {{
		defer wg.Done()
		s.mu.RLock()
		v := s.hits
		_ = v
		s.mu.RUnlock()
	}}()
}}

func {test}(t *testing.T) {{
	s := &{ty}{{}}
	var wg sync.WaitGroup
	s.record(&wg)
	s.record(&wg)
	s.poll(&wg)
	wg.Wait()
	if s.hits < 0 {{
		t.Errorf("impossible count")
	}}
}}
"#
        )
    };
    let file = ("recorder.go".to_owned(), make(true));
    let fix = vec![("recorder.go".to_owned(), make(false))];
    case(idx, RaceCategory::MissingSync, vec![file], test, Some(fix))
}

/// Double-checked locking over a lazily-built map: the fast-path nil
/// check is outside the mutex, racing the guarded publication in a
/// sibling goroutine. The natural `sync.Map` conversion is statically
/// hazardous here (a botch leaves the `range` reader on the converted
/// field — an error-tier `syncmap-range`), which is exactly the shape
/// the tournament's gate accounting needs. The human fix drops the
/// unguarded fast path.
fn double_checked(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let val = n.small(2, 40);
    let make = |racy: bool| {
        let body = if racy {
            format!(
                "\t\tif b.cache == nil {{\n\t\t\tb.mu.Lock()\n\t\t\tif b.cache == nil {{\n\t\t\t\tm := make(map[int]int)\n\t\t\t\tm[0] = {val}\n\t\t\t\tb.cache = m\n\t\t\t}}\n\t\t\tb.mu.Unlock()\n\t\t}}\n"
            )
        } else {
            format!(
                "\t\tb.mu.Lock()\n\t\tif b.cache == nil {{\n\t\t\tm := make(map[int]int)\n\t\t\tm[0] = {val}\n\t\t\tb.cache = m\n\t\t}}\n\t\tb.mu.Unlock()\n"
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: cache
type {ty} struct {{
	cache map[int]int
	mu    sync.Mutex
}}

func (b *{ty}) warm(wg *sync.WaitGroup) {{
	wg.Add(1)
	go func() {{
		defer wg.Done()
{body}	}}()
}}

func (b *{ty}) sum() int {{
	total := 0
	for _, v := range b.cache {{
		total = total + v
	}}
	return total
}}

func {test}(t *testing.T) {{
	b := &{ty}{{}}
	var wg sync.WaitGroup
	b.warm(&wg)
	b.warm(&wg)
	wg.Wait()
	if b.sum() < 0 {{
		t.Errorf("impossible sum")
	}}
}}
"#
        )
    };
    let file = ("warmer.go".to_owned(), make(true));
    let fix = vec![("warmer.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::ConcurrentMap,
        vec![file],
        test,
        Some(fix),
    )
}

/// Channel-select race: a worker goroutine writes a captured local and
/// signals on one channel, but the selecting reader may wake on the
/// *other* arm and read the local with no happens-before edge. The
/// human fix waits for the writer's channel unconditionally.
fn channel_select(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let func = n.func();
    let test = n.test();
    let v = n.var();
    let k = n.small(2, 50);
    let make = |racy: bool| {
        let wait = if racy {
            "\tselect {\n\tcase <-done:\n\tcase <-tick:\n\t}\n"
        } else {
            "\t<-done\n\t<-tick\n"
        };
        format!(
            r#"package app

import "testing"

// racy: {v}
func {func}() int {{
	{v} := 0
	done := make(chan bool, 1)
	tick := make(chan bool, 1)
	go func() {{
		{v} = {k}
		done <- true
	}}()
	go func() {{
		tick <- true
	}}()
{wait}	return {v}
}}

func {test}(t *testing.T) {{
	if {func}() < 0 {{
		t.Errorf("impossible result")
	}}
}}
"#
        )
    };
    let file = ("selector.go".to_owned(), make(true));
    let fix = vec![("selector.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::CaptureByReference,
        vec![file],
        test,
        Some(fix),
    )
}

/// The racy read sits in a `return` statement: appender goroutines
/// mutate a slice field while the accessor returns its length before
/// the waitgroup settles. Only a strategy that hoists the returned
/// expression into a guarded temporary can cover the read.
fn return_read(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let test = n.test();
    let a = n.small(1, 30);
    let b = n.small(1, 30);
    let make = |racy: bool| {
        let (fields, add, last) = if racy {
            (
                "\tsamples []int".to_owned(),
                "\t\tm.samples = append(m.samples, v)\n".to_owned(),
                "\treturn len(m.samples)\n".to_owned(),
            )
        } else {
            (
                "\tsamples []int\n\tmu      sync.Mutex".to_owned(),
                "\t\tm.mu.Lock()\n\t\tm.samples = append(m.samples, v)\n\t\tm.mu.Unlock()\n"
                    .to_owned(),
                "\tm.mu.Lock()\n\tn := len(m.samples)\n\tm.mu.Unlock()\n\treturn n\n".to_owned(),
            )
        };
        format!(
            r#"package app

import (
	"sync"
	"testing"
)

// racy: samples
type {ty} struct {{
{fields}
}}

func (m *{ty}) add(v int, wg *sync.WaitGroup) {{
	wg.Add(1)
	go func() {{
		defer wg.Done()
{add}	}}()
}}

func (m *{ty}) last() int {{
{last}}}

func {test}(t *testing.T) {{
	m := &{ty}{{}}
	var wg sync.WaitGroup
	m.add({a}, &wg)
	m.add({b}, &wg)
	if m.last() < 0 {{
		t.Errorf("impossible length")
	}}
	wg.Wait()
}}
"#
        )
    };
    let file = ("sampler.go".to_owned(), make(true));
    let fix = vec![("sampler.go".to_owned(), make(false))];
    case(
        idx,
        RaceCategory::ConcurrentSlice,
        vec![file],
        test,
        Some(fix),
    )
}

// ===================================================================
// Hard (Table 5) templates
// ===================================================================

fn hard(
    idx: usize,
    cat: RaceCategory,
    hcat: HardCategory,
    fixable: bool,
    files: Vec<(String, String)>,
    test: String,
) -> RaceCase {
    RaceCase {
        id: format!("race-{idx:04}"),
        category: cat,
        hard: Some(hcat),
        fixable,
        lca_only: false,
        files,
        test,
        human_fix: None,
    }
}

/// The race lives on a global defined in a third file and written from
/// two other files; the pipeline sees at most two files, so any patch
/// leaves one access unsynchronised.
fn third_file_global(rng: &mut StdRng, idx: usize, hcat: HardCategory) -> RaceCase {
    let mut n = NameGen::new(rng);
    let test = n.test();
    let var = n.var();
    let (f1, f2) = (n.func(), n.func());
    let writer = |fname: &str, delta: i64| {
        format!("package app\n\n// racy: {var}\nfunc {fname}() {{\n\t{var} = {var} + {delta}\n}}\n")
    };
    let state = format!("package app\n\nvar {var} = 0\n");
    let driver = format!(
        r#"package app

import (
	"sync"
	"testing"
)

func {test}(t *testing.T) {{
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
		{f1}()
	}}()
	go func() {{
		defer wg.Done()
		{f2}()
	}}()
	wg.Wait()
}}
"#
    );
    hard(
        idx,
        RaceCategory::MissingSync,
        hcat,
        false,
        vec![
            ("writer_a.go".to_owned(), writer(&f1, 1)),
            ("writer_b.go".to_owned(), writer(&f2, 2)),
            ("state.go".to_owned(), state),
            ("driver_test.go".to_owned(), driver),
        ],
        test,
    )
}

/// Aliased pointers plus a racy read inside a `return` statement: no
/// strategy in the library covers it (the human fix removes the
/// parallelism or restructures the logic).
fn alias_return_race(rng: &mut StdRng, idx: usize, hcat: HardCategory) -> RaceCase {
    let mut n = NameGen::new(rng);
    let ty = n.ty();
    let func = n.func();
    let test = n.test();
    let src = format!(
        r#"package app

import (
	"sync"
	"testing"
)

// racy: n
type {ty} struct {{
	n int
}}

func {func}() int {{
	p := &{ty}{{n: 1}}
	q := p
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {{
		defer wg.Done()
		p.n = p.n + 1
	}}()
	if q.n > 50 {{
		wg.Wait()
		return q.n
	}}
	wg.Wait()
	return q.n + 1
}}

func {test}(t *testing.T) {{
	{func}()
}}
"#
    );
    hard(
        idx,
        RaceCategory::MissingSync,
        hcat,
        false,
        vec![("alias.go".to_owned(), src)],
        test,
    )
}

/// The racy write sits in a vendor file the pipeline refuses to modify.
fn vendor_race(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut n = NameGen::new(rng);
    let test = n.test();
    let var = n.var();
    let vendor = format!(
        "package app\n\n// racy: {var}\nvar {var} = 0\n\nfunc VendorTouch(delta int) {{\n\t{var} = {var} + delta\n}}\n"
    );
    let driver = format!(
        r#"package app

import (
	"sync"
	"testing"
)

func {test}(t *testing.T) {{
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {{
		defer wg.Done()
		VendorTouch(1)
	}}()
	go func() {{
		defer wg.Done()
		VendorTouch(2)
	}}()
	wg.Wait()
}}
"#
    );
    hard(
        idx,
        RaceCategory::MissingSync,
        HardCategory::External,
        false,
        vec![
            ("vendor_metrics.go".to_owned(), vendor),
            ("driver_test.go".to_owned(), driver),
        ],
        test,
    )
}

/// Hard-but-strategy-fixable: a struct copy that only strong models
/// assemble (DeepCopy row of Table 5; contributes to the o1 gap, §5.4).
fn hard_struct_copy(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut c = struct_copy(rng, idx);
    c.hard = Some(HardCategory::DeepCopy);
    // Keep fixable: the StructCopy strategy covers it, but its skill is
    // low below o1-preview.
    c
}

/// Hard-but-strategy-fixable shared-aggregate case (NonTrivialExpert
/// row): only the struct-copy idiom applies, and only strong models
/// assemble it reliably.
fn hard_channel_result(rng: &mut StdRng, idx: usize) -> RaceCase {
    let mut c = struct_copy(rng, idx);
    c.hard = Some(HardCategory::NonTrivialExpert);
    c
}

// ---------------------------------------------------------- large heap
//
// The LargeHeap family: clean (race-free) map/slice-heavy
// programs whose working sets are hundreds of tracked cells, not the
// handful the Table 3 templates touch. They stress the detector's dense
// variable-state array, read-shared promotion at scale, and per-element
// RLock/RUnlock merge-release traffic — the map/slice bottleneck the
// hot-path roadmap called out. Generated deterministically; sizes vary
// per case so campaigns don't all hash alike.

/// Generates one clean large-heap perf program. `idx` cycles the three
/// shapes: slice scan, map churn, mixed slice+map under an RWMutex.
pub fn large_heap_case(rng: &mut StdRng, idx: usize) -> crate::PerfCase {
    match idx % 3 {
        0 => heap_slice_scan(rng, idx),
        1 => heap_map_churn(rng, idx),
        _ => heap_mixed_registry(rng, idx),
    }
}

/// A slice of `n` rows built up front, then scanned in full by every
/// worker (read-shared state across hundreds of cells), with the
/// aggregate guarded by a mutex.
fn heap_slice_scan(rng: &mut StdRng, idx: usize) -> crate::PerfCase {
    let mut g = NameGen::new(rng);
    let func = g.func();
    let test = g.test();
    let rows = g.var();
    let n = 120 + (idx / 3) * 24 + g.small(0, 3) as usize * 8;
    let workers = 2 + idx % 2;
    let expected = workers * (n * (n - 1) / 2);
    let src = format!(
        r#"package perf

import (
	"sync"
	"testing"
)

func {func}() int {{
	{rows} := []int{{}}
	for i := 0; i < {n}; i++ {{
		{rows} = append({rows}, i)
	}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := 0
	for w := 0; w < {workers}; w++ {{
		wg.Add(1)
		go func() {{
			defer wg.Done()
			sum := 0
			for i := 0; i < len({rows}); i++ {{
				sum = sum + {rows}[i]
			}}
			mu.Lock()
			total = total + sum
			mu.Unlock()
		}}()
	}}
	wg.Wait()
	return total
}}

func {test}(t *testing.T) {{
	if {func}() != {expected} {{
		t.Errorf("bad scan total")
	}}
}}
"#
    );
    crate::PerfCase {
        id: format!("heap-slice-{idx:02}"),
        files: vec![("scan.go".to_owned(), src)],
        test,
    }
}

/// Workers populate disjoint key ranges of one map under a mutex, then
/// the main goroutine ranges over every entry.
fn heap_map_churn(rng: &mut StdRng, idx: usize) -> crate::PerfCase {
    let mut g = NameGen::new(rng);
    let func = g.func();
    let test = g.test();
    let shard = g.var();
    let keys = 48 + (idx / 3) * 12 + g.small(0, 2) as usize * 6;
    let workers = 2 + idx % 2;
    let expected = workers * keys;
    let src = format!(
        r#"package perf

import (
	"sync"
	"testing"
)

func {func}() int {{
	{shard} := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < {workers}; w++ {{
		wg.Add(1)
		go func(base int) {{
			defer wg.Done()
			for i := 0; i < {keys}; i++ {{
				mu.Lock()
				{shard}[base*{keys}+i] = i
				mu.Unlock()
			}}
		}}(w)
	}}
	wg.Wait()
	n := 0
	for k := range {shard} {{
		if {shard}[k] >= 0 {{
			n = n + 1
		}}
	}}
	return n
}}

func {test}(t *testing.T) {{
	if {func}() != {expected} {{
		t.Errorf("lost map entries")
	}}
}}
"#
    );
    crate::PerfCase {
        id: format!("heap-map-{idx:02}"),
        files: vec![("churn.go".to_owned(), src)],
        test,
    }
}

/// A map and a slice read element-by-element under `RLock` (per-element
/// merge-release traffic) with the aggregate under the write lock.
fn heap_mixed_registry(rng: &mut StdRng, idx: usize) -> crate::PerfCase {
    let mut g = NameGen::new(rng);
    let func = g.func();
    let test = g.test();
    let index = g.var();
    let log = g.var();
    let keys = 40 + (idx / 3) * 10 + g.small(0, 2) as usize * 5;
    let workers = 2 + idx % 2;
    let expected = workers * keys * (keys - 1);
    let src = format!(
        r#"package perf

import (
	"sync"
	"testing"
)

func {func}() int {{
	{index} := make(map[int]int)
	{log} := []int{{}}
	for i := 0; i < {keys}; i++ {{
		{index}[i] = i
		{log} = append({log}, i)
	}}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	seen := 0
	for w := 0; w < {workers}; w++ {{
		wg.Add(1)
		go func() {{
			defer wg.Done()
			local := 0
			for i := 0; i < len({log}); i++ {{
				mu.RLock()
				local = local + {log}[i] + {index}[i]
				mu.RUnlock()
			}}
			mu.Lock()
			seen = seen + local
			mu.Unlock()
		}}()
	}}
	wg.Wait()
	return seen
}}

func {test}(t *testing.T) {{
	if {func}() != {expected} {{
		t.Errorf("bad registry sweep")
	}}
}}
"#
    );
    crate::PerfCase {
        id: format!("heap-mixed-{idx:02}"),
        files: vec![("registry.go".to_owned(), src)],
        test,
    }
}

// --------------------------------------------------------------- churn
// Long-lived-program workloads for the shadow-state lifecycle: the
// LargeHeap family grows one working set and keeps it; these programs
// *churn* — goroutines and heap cells die and are replaced continuously,
// generation after generation, so a streaming detector has something
// real to collect. Every program is clean (no planted race): the point
// is bounded shadow memory, proven by the soak test, with GC-on/off
// bit-identity pinned by the golden layer.

/// Generates one clean churn perf program. `idx` alternates the two
/// shapes: wait-grouped worker generations over fresh buffers, and
/// sequential short-lived sessions over fresh private maps.
pub fn churn_case(rng: &mut StdRng, idx: usize) -> crate::PerfCase {
    match idx % 2 {
        0 => churn_generations(
            rng,
            format!("churn-gen-{idx:02}"),
            6 + (idx / 2) * 2,
            2 + idx % 2,
            8,
        ),
        _ => churn_sessions(rng, format!("churn-sess-{idx:02}"), 8 + (idx / 2) * 2, 10),
    }
}

/// The scalable generation shape behind the streaming soak test:
/// `gens` generations, each allocating a fresh `workers * seg` buffer,
/// doubling it in `workers` wait-grouped goroutines and folding the
/// checksum under a mutex. Worker exits are ordered before the next
/// spawn wave (via `wg.Wait`), so with the lifecycle on, clock slots
/// recycle and dead buffers collect; off, both grow with `gens`.
pub fn churn_soak_case(gens: usize, workers: usize, seg: usize) -> crate::PerfCase {
    let mut rng = StdRng::seed_from_u64(0xC0AC ^ gens as u64);
    churn_generations(&mut rng, format!("churn-soak-{gens}"), gens, workers, seg)
}

fn churn_generations(
    rng: &mut StdRng,
    id: String,
    gens: usize,
    workers: usize,
    seg: usize,
) -> crate::PerfCase {
    let mut g = NameGen::new(rng);
    let func = g.func();
    let test = g.test();
    let buf = g.var();
    let cells = workers * seg;
    // Each generation doubles buf[i] = g+i and sums: per-gen checksum
    // is 2*(cells*g + cells*(cells-1)/2).
    let expected: usize = (0..gens)
        .map(|gen| 2 * (cells * gen + cells * (cells - 1) / 2))
        .sum();
    let src = format!(
        r#"package perf

import (
	"sync"
	"testing"
)

func {func}() int {{
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < {gens}; g++ {{
		{buf} := []int{{}}
		for i := 0; i < {cells}; i++ {{
			{buf} = append({buf}, g+i)
		}}
		for w := 0; w < {workers}; w++ {{
			wg.Add(1)
			go func(base int) {{
				defer wg.Done()
				sum := 0
				for i := base * {seg}; i < base*{seg}+{seg}; i++ {{
					{buf}[i] = {buf}[i] * 2
					sum = sum + {buf}[i]
				}}
				mu.Lock()
				total = total + sum
				mu.Unlock()
			}}(w)
		}}
		wg.Wait()
	}}
	return total
}}

func {test}(t *testing.T) {{
	if {func}() != {expected} {{
		t.Errorf("bad churn total")
	}}
}}
"#
    );
    crate::PerfCase {
        id,
        files: vec![("churn_gen.go".to_owned(), src)],
        test,
    }
}

/// Sequential short-lived sessions: each goroutine builds a private
/// map (fresh heap cells every session), folds it, and hands the sum
/// back over a channel before exiting. The receive orders each exit
/// before the next spawn, so one clock slot serves every session.
fn churn_sessions(rng: &mut StdRng, id: String, sessions: usize, keys: usize) -> crate::PerfCase {
    let mut g = NameGen::new(rng);
    let func = g.func();
    let test = g.test();
    let out = g.var();
    let expected: usize = (0..sessions)
        .map(|s| keys * s + keys * (keys - 1) / 2)
        .sum();
    let src = format!(
        r#"package perf

import (
	"testing"
)

func {func}() int {{
	{out} := make(chan int, 1)
	total := 0
	for s := 0; s < {sessions}; s++ {{
		go func(id int) {{
			m := make(map[int]int)
			for i := 0; i < {keys}; i++ {{
				m[i] = id + i
			}}
			sum := 0
			for k := range m {{
				sum = sum + m[k]
			}}
			{out} <- sum
		}}(s)
		total = total + <-{out}
	}}
	return total
}}

func {test}(t *testing.T) {{
	if {func}() != {expected} {{
		t.Errorf("lost session results")
	}}
}}
"#
    );
    crate::PerfCase {
        id,
        files: vec![("churn_sess.go".to_owned(), src)],
        test,
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}
