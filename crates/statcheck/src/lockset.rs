//! Lockset dataflow over one [`Context`]'s CFG.
//!
//! The abstract state per lock is the *set of possible hold counts*, a
//! pair `(write, read)` per path that reached this point. Tracking a
//! set of pairs (instead of one interval) keeps the must/may distinction
//! exact enough for the error tier: a rule fires as an error only when
//! **every** possible count satisfies its predicate, so a report on the
//! error tier means the misuse happens on all paths — the contract that
//! lets the patch gate reject without risking a sound candidate.
//!
//! Counts saturate at [`MAX_COUNT`]; a pair-set wider than `MAX_PAIRS`
//! widens to "unknown", which silences every rule for that lock.

use crate::cfg::{Context, ContextKind, LockMethod, Op, PathId, Paths};
use golite::{Diagnostic, Span};
use std::collections::BTreeSet;

/// Hold counts saturate here; 3 distinguishes 0/1/re-entry.
pub const MAX_COUNT: u8 = 3;
/// Pair-sets wider than this widen to unknown.
const MAX_PAIRS: u32 = 4;

/// A set of `(write, read)` hold counts as a bitmask: pair `(w, r)` is
/// bit `w * SIDE + r`, so bit order is the pairs' lexicographic order.
type Pairs = u16;
/// Counts per side: `0..=MAX_COUNT`.
const SIDE: u8 = MAX_COUNT + 1;
const _: () = assert!((SIDE as u32) * (SIDE as u32) <= Pairs::BITS);
/// The pair-set `{(0, 0)}`: nothing held.
const UNHELD: Pairs = 1;

/// Possible `(write, read)` hold counts of one lock; `None` = unknown.
type PairSet = Option<Pairs>;

/// The pairs of a set, in lexicographic order.
fn pairs(set: Pairs) -> impl Iterator<Item = (u8, u8)> {
    (0..SIDE * SIDE)
        .filter(move |bit| set & (1 << bit) != 0)
        .map(|bit| (bit / SIDE, bit % SIDE))
}

/// Whether every pair of `set` satisfies `pred`.
fn all(set: Pairs, pred: impl Fn(u8, u8) -> bool) -> bool {
    pairs(set).all(|(w, r)| pred(w, r))
}

fn join_pairs(a: PairSet, b: PairSet) -> PairSet {
    let u = a? | b?;
    (u.count_ones() <= MAX_PAIRS).then_some(u)
}

/// Dataflow fact at a program point. Both maps are sorted by lock id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Flow {
    /// Per-lock possible hold counts; a missing key means `{(0, 0)}`.
    locks: Vec<(PathId, PairSet)>,
    /// Per-lock `(Unlock, RUnlock)` counts registered via `defer`
    /// (must-counts: merged with `min`); a missing key means `(0, 0)`.
    deferred: Vec<(PathId, (u8, u8))>,
    /// Whether a `go` statement may have executed before this point:
    /// accesses in the sequential prefix of a function cannot race.
    spawned: bool,
}

/// The value at `key` in a map sorted by key, or `absent`.
fn lookup<V: Copy>(map: &[(PathId, V)], key: PathId, absent: V) -> V {
    map.binary_search_by_key(&key, |e| e.0)
        .map_or(absent, |i| map[i].1)
}

/// A mutable slot for `key` in a map sorted by key, inserted as `absent`.
fn slot<V>(map: &mut Vec<(PathId, V)>, key: PathId, absent: V) -> &mut V {
    let i = match map.binary_search_by_key(&key, |e| e.0) {
        Ok(i) => i,
        Err(i) => {
            map.insert(i, (key, absent));
            i
        }
    };
    &mut map[i].1
}

impl Flow {
    fn pairs(&self, lock: PathId) -> PairSet {
        lookup(&self.locks, lock, Some(UNHELD))
    }

    fn normalize(&mut self) {
        self.locks.retain(|(_, v)| *v != Some(UNHELD));
        self.deferred.retain(|(_, v)| *v != (0, 0));
    }

    /// The join of `self` and `other`.
    fn join(&self, other: &Flow) -> Flow {
        let mut locks: Vec<(PathId, PairSet)> = (self.locks.iter().chain(&other.locks))
            .map(|&(k, _)| (k, join_pairs(self.pairs(k), other.pairs(k))))
            .collect();
        locks.sort_unstable_by_key(|e| e.0);
        locks.dedup_by_key(|e| e.0);
        // Keys only in `other` merge with our implicit (0, 0): they stay 0.
        let deferred = self
            .deferred
            .iter()
            .map(|&(k, (u, r))| {
                let o = lookup(&other.deferred, k, (0, 0));
                (k, (u.min(o.0), r.min(o.1)))
            })
            .collect();
        let mut joined = Flow {
            locks,
            deferred,
            spawned: self.spawned | other.spawned,
        };
        joined.normalize();
        joined
    }

    /// Locks whose pair-set is known and satisfies `pred` on every path.
    fn must_hold(&self, pred: impl Fn(u8, u8) -> bool + Copy) -> Vec<PathId> {
        self.locks
            .iter()
            .filter_map(|&(k, v)| v.filter(|&p| all(p, pred)).map(|_| k))
            .collect()
    }

    /// Locks whose write count is ≥ 1 on every path.
    fn must_write_held(&self) -> Vec<PathId> {
        self.must_hold(|w, _| w >= 1)
    }

    /// Locks whose read count is ≥ 1 on every path.
    fn must_read_held(&self) -> Vec<PathId> {
        self.must_hold(|_, r| r >= 1)
    }

    /// Locks held in *some* mode on every path.
    fn must_held_any(&self) -> Vec<PathId> {
        self.must_hold(|w, r| w + r >= 1)
    }
}

/// One variable access with the locks that must be held around it.
#[derive(Debug, Clone)]
pub struct AccessFact {
    /// Qualified variable path.
    pub path: PathId,
    /// `true` for writes.
    pub write: bool,
    /// Source span.
    pub span: Span,
    /// Locks write-held on every path to this access, in path order.
    pub held_write: Vec<PathId>,
    /// Locks read-held on every path to this access, in path order.
    pub held_read: Vec<PathId>,
    /// Whether the accessed variable is declared inside its context.
    pub declared_local: bool,
    /// The context kind the access runs in.
    pub kind: ContextKind,
    /// Whether this access can overlap another goroutine: it runs in a
    /// spawned context, or in a function body after a `go` statement.
    /// Accesses in the sequential prefix of a function are `false`.
    pub concurrent: bool,
}

/// `held → acquired` ordering observation at a lock acquisition.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub held: PathId,
    /// The lock being acquired.
    pub acquired: PathId,
    /// Span of the acquisition.
    pub span: Span,
}

/// A direct call with the lock context it runs under.
#[derive(Debug, Clone)]
pub struct CallFact<'a> {
    /// Callee function name.
    pub callee: &'a str,
    /// Locks held (any mode, must) at the call site, in path order.
    pub held: Vec<PathId>,
    /// Span of the call.
    pub span: Span,
}

/// Everything the lockset analysis learned about one context.
#[derive(Debug, Default)]
pub struct ContextResult<'a> {
    /// Diagnostics found in this context.
    pub diags: Vec<Diagnostic>,
    /// Per-access lock facts, for the cross-context lints.
    pub accesses: Vec<AccessFact>,
    /// Lock-order observations for the deadlock graph.
    pub lock_edges: Vec<LockEdge>,
    /// Calls with held locks, for call-mediated ordering edges.
    pub calls: Vec<CallFact<'a>>,
    /// Locks this context acquires directly (non-deferred).
    pub acquires: BTreeSet<PathId>,
}

/// Applies `op` to `flow`; when `out` is given, also reports.
fn transfer<'a>(
    flow: &mut Flow,
    op: &Op<'a>,
    ctx: &Context<'a>,
    paths: &Paths,
    out: Option<&mut ContextResult<'a>>,
) {
    match *op {
        Op::Sync {
            lock,
            method,
            deferred: true,
            ..
        } => match method {
            LockMethod::Unlock => {
                let e = slot(&mut flow.deferred, lock, (0, 0));
                e.0 = (e.0 + 1).min(MAX_COUNT);
            }
            LockMethod::RUnlock => {
                let e = slot(&mut flow.deferred, lock, (0, 0));
                e.1 = (e.1 + 1).min(MAX_COUNT);
            }
            // A deferred acquire runs at an unknowable point: give up on
            // this lock rather than risk a wrong error.
            LockMethod::Lock | LockMethod::RLock => {
                *slot(&mut flow.locks, lock, None) = None;
            }
        },
        Op::Sync {
            lock,
            method,
            deferred: false,
            span,
        } => {
            let pairs_now = flow.pairs(lock);
            if let (Some(out), Some(p)) = (out, pairs_now) {
                let name = paths.shown(lock);
                match method {
                    LockMethod::Lock if all(p, |w, r| w + r >= 1) => {
                        let msg = if all(p, |w, _| w >= 1) {
                            format!(
                                "second Lock of `{name}` deadlocks: the write lock is already held"
                            )
                        } else if all(p, |_, r| r >= 1) {
                            format!("Lock of `{name}` deadlocks: the read lock is already held (no upgrade)")
                        } else {
                            format!("Lock of `{name}` deadlocks: the lock is already held")
                        };
                        out.diags.push(Diagnostic::error("double-lock", msg, span));
                    }
                    LockMethod::RLock if all(p, |w, _| w >= 1) => {
                        out.diags.push(Diagnostic::error(
                            "double-lock",
                            format!("RLock of `{name}` deadlocks: the write lock is already held"),
                            span,
                        ));
                    }
                    LockMethod::Unlock if all(p, |w, _| w == 0) => {
                        out.diags.push(Diagnostic::error(
                            "unlock-without-lock",
                            format!("Unlock of `{name}` without holding the write lock"),
                            span,
                        ));
                    }
                    LockMethod::RUnlock if all(p, |_, r| r == 0) => {
                        out.diags.push(Diagnostic::error(
                            "runlock-without-rlock",
                            format!("RUnlock of `{name}` without holding the read lock"),
                            span,
                        ));
                    }
                    _ => {}
                }
                if method.is_acquire() {
                    for held in flow.must_held_any() {
                        if held != lock {
                            out.lock_edges.push(LockEdge {
                                held,
                                acquired: lock,
                                span,
                            });
                        }
                    }
                    out.acquires.insert(lock);
                }
            }
            let next = pairs_now.map(|p| {
                pairs(p)
                    .map(|(w, r)| match method {
                        LockMethod::Lock => ((w + 1).min(MAX_COUNT), r),
                        LockMethod::RLock => (w, (r + 1).min(MAX_COUNT)),
                        LockMethod::Unlock => (w.saturating_sub(1), r),
                        LockMethod::RUnlock => (w, r.saturating_sub(1)),
                    })
                    .fold(0, |set, (w, r)| set | 1 << (w * SIDE + r))
            });
            *slot(&mut flow.locks, lock, next) = next;
        }
        Op::Access { path, write, span } => {
            if let Some(out) = out {
                let raw = paths.shown(path);
                let root = raw.split('.').next().unwrap_or(raw);
                out.accesses.push(AccessFact {
                    path,
                    write,
                    span,
                    held_write: flow.must_write_held(),
                    held_read: flow.must_read_held(),
                    declared_local: ctx.declares(root),
                    kind: ctx.kind,
                    concurrent: ctx.kind != ContextKind::Function || flow.spawned,
                });
            }
        }
        Op::Spawn => flow.spawned = true,
        Op::Call { callee, span } => {
            if let Some(out) = out {
                out.calls.push(CallFact {
                    callee,
                    held: flow.must_held_any(),
                    span,
                });
            }
        }
        Op::Exit { span } => {
            if let Some(out) = out {
                for &(lock, state) in &flow.locks {
                    let Some(held) = state else { continue };
                    let (du, dr) = lookup(&flow.deferred, lock, (0, 0));
                    let leaked = all(held, |w, r| {
                        w.saturating_sub(du) + r.saturating_sub(dr) >= 1
                    });
                    if leaked {
                        out.diags.push(Diagnostic::warning(
                            "missing-unlock",
                            format!("lock `{}` is still held at this return", paths.shown(lock)),
                            span,
                        ));
                    }
                }
            }
        }
    }
}

/// Runs the lockset analysis over one context; `paths` names its ids.
pub fn solve<'a>(ctx: &Context<'a>, paths: &Paths) -> ContextResult<'a> {
    let blocks = &ctx.cfg.blocks;
    let mut in_states: Vec<Option<Flow>> = vec![None; blocks.len()];
    in_states[0] = Some(Flow::default());
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let Some(mut flow) = in_states[b].clone() else {
            continue;
        };
        for op in &blocks[b].ops {
            transfer(&mut flow, op, ctx, paths, None);
        }
        flow.normalize();
        for &s in &blocks[b].succs {
            let changed = match &mut in_states[s] {
                Some(existing) => {
                    let joined = existing.join(&flow);
                    let changed = joined != *existing;
                    *existing = joined;
                    changed
                }
                slot @ None => {
                    *slot = Some(flow.clone());
                    true
                }
            };
            if changed {
                work.push(s);
            }
        }
    }
    // Report pass: one deterministic sweep over reachable blocks with
    // their fixpoint in-states.
    let mut out = ContextResult::default();
    for (b, state) in in_states.into_iter().enumerate() {
        let Some(mut flow) = state else { continue };
        for op in &blocks[b].ops {
            transfer(&mut flow, op, ctx, paths, Some(&mut out));
        }
    }
    out.diags
        .sort_by(|a, b| (a.span.lo, a.span.hi, &a.rule).cmp(&(b.span.lo, b.span.hi, &b.rule)));
    out.diags.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::contexts;

    fn parse(src: &str) -> golite::File {
        golite::parse_file(src).expect("test source parses")
    }

    /// The results of every context of `file`, with its paths' names.
    fn solve_file(file: &golite::File) -> (Vec<ContextResult<'_>>, Paths) {
        let (ctxs, paths) = contexts(file);
        (ctxs.iter().map(|c| solve(c, &paths)).collect(), paths)
    }

    fn rules(results: &[ContextResult]) -> Vec<String> {
        results
            .iter()
            .flat_map(|r| r.diags.iter().map(|d| d.rule.clone()))
            .collect()
    }

    #[test]
    fn balanced_lock_is_clean() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar n int\n\nfunc F() {\n\tmu.Lock()\n\tn++\n\tmu.Unlock()\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert!(rules(&r).is_empty());
    }

    #[test]
    fn defer_unlock_is_clean() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar n int\n\nfunc F() int {\n\tmu.Lock()\n\tdefer mu.Unlock()\n\tn++\n\treturn n\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert!(rules(&r).is_empty());
    }

    #[test]
    fn double_lock_fires_error() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc F() {\n\tmu.Lock()\n\tmu.Lock()\n\tmu.Unlock()\n\tmu.Unlock()\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert_eq!(rules(&r), vec!["double-lock"]);
        assert_eq!(r[0].diags[0].severity, golite::Severity::Error);
    }

    #[test]
    fn conditional_lock_pair_is_not_double_lock() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc F(c bool) {\n\tif c {\n\t\tmu.Lock()\n\t}\n\tif c {\n\t\tmu.Unlock()\n\t}\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert!(rules(&r)
            .iter()
            .all(|r| r != "double-lock" && r != "unlock-without-lock"));
    }

    #[test]
    fn unlock_without_lock_fires_error() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc F() {\n\tmu.Unlock()\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert_eq!(rules(&r), vec!["unlock-without-lock"]);
    }

    #[test]
    fn early_return_leak_warns_missing_unlock() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar n int\n\nfunc F(c bool) int {\n\tmu.Lock()\n\tif c {\n\t\treturn 0\n\t}\n\tn++\n\tmu.Unlock()\n\treturn n\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert_eq!(rules(&r), vec!["missing-unlock"]);
        assert_eq!(r[0].diags[0].severity, golite::Severity::Warning);
    }

    #[test]
    fn rlock_then_lock_is_upgrade_deadlock() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.RWMutex\n\nfunc F() {\n\tmu.RLock()\n\tmu.Lock()\n\tmu.Unlock()\n\tmu.RUnlock()\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert_eq!(rules(&r), vec!["double-lock"]);
        assert!(r[0].diags[0].message.contains("read lock"));
    }

    #[test]
    fn rlock_pairs_are_reentrant() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.RWMutex\nvar n int\n\nfunc F() int {\n\tmu.RLock()\n\tmu.RLock()\n\tm := n\n\tmu.RUnlock()\n\tmu.RUnlock()\n\treturn m\n}\n",
        );
        let (r, _) = solve_file(&file);
        assert!(rules(&r).is_empty());
    }

    #[test]
    fn lock_order_edges_are_collected() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar a sync.Mutex\nvar b sync.Mutex\n\nfunc F() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n",
        );
        let (r, paths) = solve_file(&file);
        let edges: Vec<(&str, &str)> = r[0]
            .lock_edges
            .iter()
            .map(|e| (paths.name(e.held), paths.name(e.acquired)))
            .collect();
        assert_eq!(edges, vec![("a", "b")]);
    }

    #[test]
    fn access_facts_carry_held_locks() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar n int\n\nfunc F() {\n\tgo func() {\n\t\tmu.Lock()\n\t\tn++\n\t\tmu.Unlock()\n\t}()\n}\n",
        );
        let (r, paths) = solve_file(&file);
        let goroutine = &r[1];
        let fact = goroutine
            .accesses
            .iter()
            .find(|a| paths.name(a.path) == "n")
            .expect("access to n");
        assert!(fact.write);
        assert!(fact.held_write.iter().any(|&l| paths.name(l) == "mu"));
        assert_eq!(fact.kind, ContextKind::Goroutine);
        assert!(!fact.declared_local);
    }
}
