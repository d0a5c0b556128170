//! Golden test for the corpus `LintShapes` family: pins `statcheck`'s
//! exact rendered output on each canonical synchronization-misuse shape
//! (and the clean control). Any analyzer change that shifts a rule,
//! message, or span on these fixed sources shows up here first.

use corpus::lint_shapes;

/// Fully rendered diagnostics per shape id, pinned verbatim.
fn golden(id: &str) -> &'static [&'static str] {
    match id {
        "clean" => &[],
        "double-lock" => {
            &["double_lock.go:13:2: error[double-lock]: second Lock of `mu` deadlocks: the write lock is already held"]
        }
        "leaked-lock-early-return" => {
            &["leaked_lock.go:14:3: warning[missing-unlock]: lock `mu` is still held at this return"]
        }
        "lock-order-inversion" => {
            &["lock_order.go:12:2: warning[lock-order-cycle]: locks `muA` and `muB` are acquired in inconsistent order (potential deadlock)"]
        }
        "mutex-by-value" => {
            &["mutex_by_value.go:13:11: warning[copylocks]: parameter `c` passes `Counter` by value, copying its mutex"]
        }
        other => panic!("no golden entry for shape `{other}`"),
    }
}

#[test]
fn lint_shapes_match_golden_output() {
    for shape in lint_shapes() {
        let report = statcheck::check_file(shape.file, shape.source)
            .unwrap_or_else(|d| panic!("shape `{}` failed to parse: {d}", shape.id));
        let rendered: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.render(&report.file, shape.source))
            .collect();
        assert_eq!(
            rendered,
            golden(shape.id),
            "shape `{}` diverged from golden output",
            shape.id
        );
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(
            rules, shape.expected_rules,
            "shape `{}` expected_rules out of sync with analyzer",
            shape.id
        );
    }
}

#[test]
fn shape_ids_are_unique_and_sources_compile() {
    let shapes = lint_shapes();
    let mut ids: Vec<&str> = shapes.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), shapes.len(), "duplicate shape ids");
    for shape in &shapes {
        govm::compile_sources(
            &[(shape.file.to_string(), shape.source.to_string())],
            &govm::CompileOptions::default(),
        )
        .unwrap_or_else(|d| panic!("shape `{}` does not compile: {d}", shape.id));
    }
}

#[test]
fn clean_shape_is_diagnostic_free_and_error_shapes_split_by_tier() {
    let shapes = lint_shapes();
    let clean = shapes.iter().find(|s| s.id == "clean").unwrap();
    let report = statcheck::check_file(clean.file, clean.source).unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "clean shape must produce no diagnostics"
    );
    // double-lock is the only error-tier shape; the rest are warn-only.
    for shape in &shapes {
        let report = statcheck::check_file(shape.file, shape.source).unwrap();
        let has_error = statcheck::first_error(std::slice::from_ref(&report)).is_some();
        assert_eq!(
            has_error,
            shape.id == "double-lock",
            "severity tier drifted for shape `{}`",
            shape.id
        );
    }
}
