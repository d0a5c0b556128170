//! Deeply nested input is rejected by the parser, not by a stack overflow.
//!
//! The printer, statcheck and the compiler recurse over the AST, so the
//! parser bounds its depth at `golite::MAX_NESTING`. For each nesting
//! shape, the deepest program the parser accepts must make it through
//! parse → print → re-parse → statcheck → compile on a 2 MiB thread (the
//! default stack of a campaign worker); one level more, and 100,000
//! levels, must come back as a spanned parse `Diag`. The AST walks are
//! linear in the tree, so `synthllm::diagnose`, which every fix prompt
//! runs, returns on the deepest function-literal nesting too.

use golite::MAX_NESTING;

/// The stack of a campaign worker thread.
const WORKER_STACK: usize = 2 << 20;

/// Runs `f` on a thread with a 2 MiB stack.
fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the chain ran to completion")
}

/// Parse, print, re-parse, statcheck and compile `src`; `Err` only for a
/// parse error. A compile error is fine: the shapes are not all typed.
fn chain(src: &str) -> Result<(), golite::Diag> {
    let ast = golite::parse_file(src)?;
    let printed = golite::print_file(&ast);
    let reparsed = golite::parse_file(&printed).expect("printed output re-parses");
    assert_eq!(golite::print_file(&reparsed), printed);
    let files = [("main.go".to_owned(), printed, reparsed)];
    let _ = statcheck::check_parsed(&files);
    let _ = govm::compile_package(&files, &govm::CompileOptions::default());
    Ok(())
}

/// One nesting shape: `(name, program nested n levels)`.
type Shape = (&'static str, fn(usize) -> String);

fn func(body: &str) -> String {
    format!("package main\n\nfunc F(x int) int {{\n{body}\n\treturn x\n}}\n")
}

fn shapes() -> Vec<Shape> {
    vec![
        ("if", |n| {
            func(&format!(
                "{}x++\n{}",
                "if x > 0 {\n".repeat(n),
                "}\n".repeat(n)
            ))
        }),
        ("block", |n| {
            func(&format!("{}x++\n{}", "{\n".repeat(n), "}\n".repeat(n)))
        }),
        ("else-if", |n| {
            func(&format!(
                "if x == 0 {{\n\tx++\n}}{} else {{\n\tx--\n}}",
                (1..=n)
                    .map(|i| format!(" else if x == {i} {{\n\tx++\n}}"))
                    .collect::<String>()
            ))
        }),
        ("func literal", |n| {
            func(&format!(
                "{}x++\n{}",
                "f := func() {\n".repeat(n),
                "}\n_ = f\n".repeat(n)
            ))
        }),
        ("paren", |n| {
            func(&format!("x = {}x{}", "(".repeat(n), ")".repeat(n)))
        }),
        ("unary", |n| {
            func(&format!("b := {}true\n_ = b", "!".repeat(n)))
        }),
        ("binary chain", |n| {
            func(&format!("x = x{}", " + 1".repeat(n)))
        }),
        ("call chain", |n| func(&format!("_ = g{}", "()".repeat(n)))),
        ("index chain", |n| {
            func(&format!("_ = x{}", "[0]".repeat(n)))
        }),
        ("selector chain", |n| {
            func(&format!("_ = x{}", ".f".repeat(n)))
        }),
        ("slice type", |n| {
            func(&format!("var v {}int\n_ = v", "[]".repeat(n)))
        }),
        ("composite literal", |n| {
            func(&format!(
                "v := {}int{}{}\n_ = v",
                "[]".repeat(n),
                "{".repeat(n),
                "}".repeat(n)
            ))
        }),
    ]
}

fn is_nesting_diag(d: &golite::Diag) -> bool {
    d.message == format!("nesting deeper than {MAX_NESTING} levels") && d.span.hi > d.span.lo
}

/// The deepest `n` at which `shape` still parses.
fn deepest(shape: fn(usize) -> String) -> usize {
    let (mut ok, mut bad) = (0, MAX_NESTING as usize + 1);
    while bad - ok > 1 {
        let mid = (ok + bad) / 2;
        if golite::parse_file(&shape(mid)).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

#[test]
fn the_deepest_accepted_program_survives_the_whole_chain() {
    for (name, shape) in shapes() {
        let n = deepest(shape);
        // Every shape gets close to the limit: each level costs it one to
        // three nesting units.
        assert!(
            n >= MAX_NESTING as usize / 3,
            "{name}: only {n} levels parse"
        );
        on_worker_stack(move || chain(&shape(n)))
            .unwrap_or_else(|d| panic!("{name} at {n} levels: {d}"));
        let err = on_worker_stack(move || chain(&shape(n + 1)))
            .expect_err("one level deeper is rejected");
        assert!(is_nesting_diag(&err), "{name} at {} levels: {err:?}", n + 1);
    }
}

#[test]
fn a_hundred_thousand_levels_is_a_parse_error_not_an_abort() {
    for (name, shape) in shapes() {
        let err = on_worker_stack(move || chain(&shape(100_000)))
            .expect_err("100,000 levels are rejected");
        assert!(is_nesting_diag(&err), "{name}: {err:?}");
    }
}

#[test]
fn diagnose_returns_on_forty_nested_function_literals() {
    let src = func(&format!(
        "{}x++\n{}",
        "f := func() {\n".repeat(40),
        "}\n_ = f\n".repeat(40)
    ));
    let file = golite::parse_file(&src).expect("40 nested literals parse");
    let diagnoses = on_worker_stack(move || synthllm::diagnose(&file, "x"));
    assert!(!diagnoses.is_empty());
}
