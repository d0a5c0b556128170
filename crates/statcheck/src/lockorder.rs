//! Cross-function lock-order graph and deadlock-cycle detection.
//!
//! Each context contributes direct edges (`a` held while `b` is
//! acquired) and call facts (`f()` called while `a` is held). Calls are
//! resolved through a may-acquire summary: the set of locks a function
//! can take directly or through its callees, computed as a fixpoint so
//! call chains and recursion are handled. A cycle in the resulting
//! graph means two executions can acquire the same locks in opposite
//! orders — reported as a warning (the schedule may never interleave
//! that way, so this stays on the heuristic tier).

use crate::cfg::{ContextKind, PathId, Paths};
use crate::lockset::ContextResult;
use golite::{Diagnostic, Span};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed context: its file index, owning function, kind and result.
pub type Analyzed<'a> = (usize, &'a str, ContextKind, ContextResult<'a>);

/// A lock-order edge attributed to the file it was observed in.
#[derive(Debug, Clone)]
struct Edge {
    held: PathId,
    acquired: PathId,
    file_idx: usize,
    span: Span,
}

/// May-acquire summaries: function name → locks reachable from it.
fn acquire_summaries<'a>(results: &[Analyzed<'a>]) -> BTreeMap<&'a str, BTreeSet<PathId>> {
    let mut direct: BTreeMap<&str, BTreeSet<PathId>> = BTreeMap::new();
    let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, func, kind, res) in results {
        // Only the Function context runs when the function is *called*;
        // its closures run on their own schedule.
        if *kind != ContextKind::Function {
            continue;
        }
        direct.entry(func).or_default().extend(&res.acquires);
        callees
            .entry(func)
            .or_default()
            .extend(res.calls.iter().map(|c| c.callee));
    }
    let mut summary = direct;
    loop {
        let mut changed = false;
        for (func, calls) in &callees {
            let mut add = BTreeSet::new();
            for callee in calls {
                if let Some(locks) = summary.get(callee) {
                    add.extend(locks.iter().copied());
                }
            }
            let entry = summary.entry(func).or_default();
            for l in add {
                changed |= entry.insert(l);
            }
        }
        if !changed {
            return summary;
        }
    }
}

/// Builds the global lock-order graph and reports one warning per
/// inconsistently-ordered lock pair. Returns `(file_idx, diagnostic)`
/// pairs so the caller can attach each to the right file; `paths`
/// names the lock ids, which must be in path order (see
/// [`Paths::sort`]).
pub fn lock_order_diagnostics(results: &[Analyzed], paths: &Paths) -> Vec<(usize, Diagnostic)> {
    let summaries = acquire_summaries(results);
    let mut edges: Vec<Edge> = Vec::new();
    for (file_idx, _, _, res) in results {
        for e in &res.lock_edges {
            edges.push(Edge {
                held: e.held,
                acquired: e.acquired,
                file_idx: *file_idx,
                span: e.span,
            });
        }
        for call in &res.calls {
            let Some(acquired) = summaries.get(call.callee) else {
                continue;
            };
            for &l2 in acquired {
                for &l1 in &call.held {
                    if l1 != l2 {
                        edges.push(Edge {
                            held: l1,
                            acquired: l2,
                            file_idx: *file_idx,
                            span: call.span,
                        });
                    }
                }
            }
        }
    }
    // Reachability closure over the lock graph.
    let mut succs: BTreeMap<PathId, BTreeSet<PathId>> = BTreeMap::new();
    for e in &edges {
        succs.entry(e.held).or_default().insert(e.acquired);
    }
    let reaches = |from: PathId, to: PathId| -> bool {
        let mut seen: BTreeSet<PathId> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if let Some(next) = succs.get(&n) {
                for &s in next {
                    if seen.insert(s) {
                        stack.push(s);
                    }
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    let mut reported: BTreeSet<(PathId, PathId)> = BTreeSet::new();
    for e in &edges {
        if !reaches(e.acquired, e.held) {
            continue;
        }
        let key = (e.held.min(e.acquired), e.held.max(e.acquired));
        if !reported.insert(key) {
            continue;
        }
        out.push((
            e.file_idx,
            Diagnostic::warning(
                "lock-order-cycle",
                format!(
                    "locks `{}` and `{}` are acquired in inconsistent order (potential deadlock)",
                    paths.shown(e.held),
                    paths.shown(e.acquired)
                ),
                e.span,
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::contexts;
    use crate::lockset::solve;

    fn diag_rules(src: &str) -> Vec<String> {
        let file = golite::parse_file(src).expect("test source parses");
        let (ctxs, paths) = contexts(&file);
        let analyzed: Vec<Analyzed> = ctxs
            .iter()
            .map(|c| (0usize, c.func, c.kind, solve(c, &paths)))
            .collect();
        lock_order_diagnostics(&analyzed, &paths)
            .into_iter()
            .map(|(_, d)| d.rule)
            .collect()
    }

    #[test]
    fn inverted_order_across_functions_is_flagged() {
        let rules = diag_rules(
            "package p\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc F() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n\nfunc G() {\n\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()\n}\n",
        );
        assert_eq!(rules, vec!["lock-order-cycle"]);
    }

    #[test]
    fn consistent_order_is_clean() {
        let rules = diag_rules(
            "package p\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc F() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n\nfunc G() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n",
        );
        assert!(rules.is_empty());
    }

    #[test]
    fn call_mediated_inversion_is_flagged() {
        let rules = diag_rules(
            "package p\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc takeA() {\n\ta.Lock()\n\ta.Unlock()\n}\n\nfunc F() {\n\tb.Lock()\n\ttakeA()\n\tb.Unlock()\n}\n\nfunc G() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n",
        );
        assert_eq!(rules, vec!["lock-order-cycle"]);
    }
}
