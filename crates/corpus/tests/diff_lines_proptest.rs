//! Property test: `diff_lines`, which skips the lines both texts share at
//! the front and the back, equals the plain multiset difference over
//! every line.

use corpus::diff_lines;
use proptest::prelude::*;
use std::collections::HashMap;

/// The untrimmed reference: symmetric difference of the line multisets.
fn reference(a: &str, b: &str) -> usize {
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for l in a.lines() {
        *counts.entry(l).or_default() += 1;
    }
    for l in b.lines() {
        *counts.entry(l).or_default() -= 1;
    }
    counts.values().map(|v| v.unsigned_abs() as usize).sum()
}

/// A line from a small alphabet, so repeats and moved lines are common.
fn line(n: u32) -> String {
    format!("\tx{} := {}", n % 7, n % 3)
}

/// Applies edit `(kind, at, n)` to `lines`: insert, delete or replace.
fn edit(lines: &mut Vec<String>, (kind, at, n): (u32, usize, u32)) {
    let at = at % (lines.len() + 1);
    match kind % 3 {
        0 => lines.insert(at, line(n)),
        1 if at < lines.len() => {
            lines.remove(at);
        }
        _ if at < lines.len() => lines[at] = line(n),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn trimmed_diff_equals_the_multiset_reference(
        base in collection::vec(0u32..40, 0..30usize),
        edits in collection::vec((0u32..3, 0usize..40, 0u32..40), 0..6usize),
        newline in (any::<bool>(), any::<bool>()),
    ) {
        let a_lines: Vec<String> = base.iter().map(|&n| line(n)).collect();
        let mut b_lines = a_lines.clone();
        for e in edits {
            edit(&mut b_lines, e);
        }
        let join = |lines: &[String], nl: bool| {
            let mut s = lines.join("\n");
            if nl && !lines.is_empty() {
                s.push('\n');
            }
            s
        };
        let (a, b) = (join(&a_lines, newline.0), join(&b_lines, newline.1));
        prop_assert_eq!(diff_lines(&a, &b), reference(&a, &b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(diff_lines(&b, &a), reference(&b, &a));
        prop_assert_eq!(diff_lines(&a, &a), 0);
    }
}

#[test]
fn edge_cases_match_the_reference() {
    let cases = [
        ("", ""),
        ("", "a\nb\n"),
        ("a\nb\n", ""),
        ("a\nb\nc", "a\nb\nc"),
        ("a\nb\nc", "a\nb\nc\n"),
        ("a\nb\nc\n", "a\nb\nd"),
        ("a\na\na\n", "a\na\n"),
        ("x\ny\nx\n", "y\nx\ny\n"),
        ("a\nb\nc\nb\na\n", "a\nb\nb\na\n"),
    ];
    for (a, b) in cases {
        assert_eq!(diff_lines(a, b), reference(a, b), "{a:?} vs {b:?}");
        assert_eq!(diff_lines(b, a), reference(b, a), "{b:?} vs {a:?}");
    }
}
