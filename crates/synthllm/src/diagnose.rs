//! Race-pattern diagnosers: map racy code + the reported variable to
//! candidate categories and repair strategies.
//!
//! These play the role of the LLM's "understanding" of the bug: given
//! the prompt's code and the marked racy accesses, what kind of race is
//! this and which repairs are plausible? Detection is purely structural
//! (AST queries), mirroring the patterns catalogued by Chabbi &
//! Ramanathan's study and the paper's Table 3.

use crate::{RaceCategory, StrategyKind};
use golite::ast::*;
use golite::visit;
use serde::{Deserialize, Serialize};

/// Where a fix strategy must operate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// A variable local to `func`.
    Local {
        /// Enclosing function.
        func: String,
        /// Variable name.
        var: String,
    },
    /// A struct field (file-level fixes).
    Field {
        /// Declared type name.
        type_name: String,
        /// Field name.
        field: String,
    },
    /// A package-level variable.
    Global {
        /// Variable name.
        var: String,
    },
    /// A structural pattern inside `func` (no single variable target).
    Pattern {
        /// Enclosing function.
        func: String,
        /// Secondary variable of interest.
        var: String,
    },
}

impl Target {
    /// The function this target lives in, when known.
    pub fn func(&self) -> Option<&str> {
        match self {
            Target::Local { func, .. } | Target::Pattern { func, .. } => Some(func),
            _ => None,
        }
    }
}

/// One diagnosis: a candidate explanation + repair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Race category.
    pub category: RaceCategory,
    /// Proposed repair strategy.
    pub strategy: StrategyKind,
    /// Repair target.
    pub target: Target,
    /// Structural confidence in `[0, 1]`.
    pub score: f64,
}

/// Diagnoses `file` given the reported racy variable. Returns candidates
/// ordered by score (best first).
pub fn diagnose(file: &File, racy_var: &str) -> Vec<Diagnosis> {
    let mut out = Vec::new();

    for f in file.funcs() {
        let Some(body) = &f.body else { continue };

        // 1. Loop-variable capture: racy var is a range binding whose loop
        //    body launches a goroutine using it.
        if let Some(()) = range_binding_captured(body, racy_var) {
            out.push(Diagnosis {
                category: RaceCategory::LoopVarCapture,
                strategy: StrategyKind::PrivatizeLoopVar,
                target: Target::Local {
                    func: f.name.clone(),
                    var: racy_var.to_owned(),
                },
                score: 0.95,
            });
        }

        // 2. wg.Add inside a goroutine (Listing 6).
        if wg_add_inside_goroutine(body) {
            out.push(Diagnosis {
                category: RaceCategory::MissingSync,
                strategy: StrategyKind::MoveWgAddBeforeGo,
                target: Target::Pattern {
                    func: f.name.clone(),
                    var: racy_var.to_owned(),
                },
                score: 0.93,
            });
        }

        // 3. Parallel table test sharing an object (Listing 7). Race
        // reports often point inside the shared object (`state` of a
        // hash); when the reported name is not a source variable, find
        // the shared constructor-built variable ourselves.
        if f.name.starts_with("Test") && parallel_subtests(body) {
            let shared_var = if shared_ctor_decl(body, racy_var).is_some() {
                Some(racy_var.to_owned())
            } else {
                find_shared_ctor_var(body)
            };
            if let Some(var) = shared_var {
                out.push(Diagnosis {
                    category: RaceCategory::ParallelTest,
                    strategy: StrategyKind::PerCaseInstance,
                    target: Target::Local {
                        func: f.name.clone(),
                        var,
                    },
                    score: 0.92,
                });
            }
        }

        let closures = go_closures(body);
        let assigned_in_closure = closures.iter().any(|c| assigns_var(c, racy_var));
        let read_in_closure = closures.iter().any(|c| reads_var(c, racy_var));
        let declared_here = declares_var(body, racy_var) || is_param(f, racy_var);

        if declared_here {
            // 4. Concurrent map/slice on a local.
            match local_var_kind(body, racy_var) {
                Some(VarKind::Map) if !closures.is_empty() => {
                    out.push(Diagnosis {
                        category: RaceCategory::ConcurrentMap,
                        strategy: StrategyKind::MapToSyncMap,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.88,
                    });
                    out.push(Diagnosis {
                        category: RaceCategory::ConcurrentMap,
                        strategy: StrategyKind::MutexGuard,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.6,
                    });
                }
                Some(VarKind::Slice) if !closures.is_empty() => {
                    out.push(Diagnosis {
                        category: RaceCategory::ConcurrentSlice,
                        strategy: StrategyKind::MutexGuard,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.85,
                    });
                }
                Some(VarKind::Counter) if assigned_in_closure => {
                    out.push(Diagnosis {
                        category: RaceCategory::MissingSync,
                        strategy: StrategyKind::AtomicCounter,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.72,
                    });
                    out.push(Diagnosis {
                        category: RaceCategory::MissingSync,
                        strategy: StrategyKind::MutexGuard,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.68,
                    });
                }
                _ => {}
            }

            // 5. Capture-by-reference flavours.
            if assigned_in_closure {
                if has_ctx_done_select(body) {
                    out.push(Diagnosis {
                        category: RaceCategory::CaptureByReference,
                        strategy: StrategyKind::ChannelResult,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.86,
                    });
                }
                if closure_reads_after_write(&closures, racy_var) {
                    out.push(Diagnosis {
                        category: RaceCategory::CaptureByReference,
                        strategy: StrategyKind::LocalCopyInGoroutine,
                        target: Target::Local {
                            func: f.name.clone(),
                            var: racy_var.to_owned(),
                        },
                        score: 0.87,
                    });
                }
                out.push(Diagnosis {
                    category: RaceCategory::CaptureByReference,
                    strategy: StrategyKind::RedeclareInGoroutine,
                    target: Target::Local {
                        func: f.name.clone(),
                        var: racy_var.to_owned(),
                    },
                    score: if local_var_kind(body, racy_var) == Some(VarKind::Error) {
                        0.9
                    } else {
                        0.55
                    },
                });
            } else if read_in_closure && writes_var_outside_closures(body, racy_var) {
                out.push(Diagnosis {
                    category: RaceCategory::CaptureByReference,
                    strategy: StrategyKind::PassParamToGoroutine,
                    target: Target::Local {
                        func: f.name.clone(),
                        var: racy_var.to_owned(),
                    },
                    score: 0.8,
                });
                out.push(Diagnosis {
                    category: RaceCategory::CaptureByReference,
                    strategy: StrategyKind::LocalCopyInGoroutine,
                    target: Target::Local {
                        func: f.name.clone(),
                        var: racy_var.to_owned(),
                    },
                    score: 0.55,
                });
            }
        }
    }

    // 6. Racy struct field: map/slice/plain field declared in this file.
    for d in &file.decls {
        if let Decl::Type(t) = d {
            if let Type::Struct(fields) = &t.ty {
                for fl in fields {
                    if fl.names.iter().any(|n| n == racy_var) {
                        let (cat, strat, score) = match &fl.ty {
                            Type::Map { .. } => (
                                RaceCategory::ConcurrentMap,
                                StrategyKind::MapToSyncMap,
                                0.88,
                            ),
                            Type::Slice(_) => (
                                RaceCategory::ConcurrentSlice,
                                StrategyKind::MutexGuard,
                                0.85,
                            ),
                            Type::Named { path, .. }
                                if matches!(path.join(".").as_str(), "int" | "int32" | "int64") =>
                            {
                                (RaceCategory::MissingSync, StrategyKind::AtomicCounter, 0.7)
                            }
                            _ => (RaceCategory::MissingSync, StrategyKind::MutexGuard, 0.66),
                        };
                        out.push(Diagnosis {
                            category: cat,
                            strategy: strat,
                            target: Target::Field {
                                type_name: t.name.clone(),
                                field: racy_var.to_owned(),
                            },
                            score,
                        });
                        if strat != StrategyKind::MutexGuard {
                            out.push(Diagnosis {
                                category: cat,
                                strategy: StrategyKind::MutexGuard,
                                target: Target::Field {
                                    type_name: t.name.clone(),
                                    field: racy_var.to_owned(),
                                },
                                score: score - 0.25,
                            });
                        }
                    }
                }
            }
        }
    }

    // 7. Shared global rand source / config. ThreadSanitizer reports on
    // PRNG internals name the source's `state` cell, not the global.
    let prng_internal = racy_var == "state" || racy_var == "pos";
    for d in &file.decls {
        if let Decl::Var(v) = d {
            if v.names.iter().any(|n| n == racy_var) || prng_internal {
                let is_rand = v.values.iter().any(|e| {
                    let mut found = false;
                    visit::walk_expr(e, &mut |x| {
                        if let Expr::Selector { name, .. } = x {
                            if name == "NewSource" {
                                found = true;
                            }
                        }
                    });
                    found
                });
                if is_rand {
                    out.push(Diagnosis {
                        category: RaceCategory::Other,
                        strategy: StrategyKind::FreshSourcePerUse,
                        target: Target::Global {
                            var: racy_var.to_owned(),
                        },
                        score: 0.9,
                    });
                } else {
                    out.push(Diagnosis {
                        category: RaceCategory::MissingSync,
                        strategy: StrategyKind::MutexGuard,
                        target: Target::Global {
                            var: racy_var.to_owned(),
                        },
                        score: 0.5,
                    });
                }
            }
        }
    }

    // 8. Shared struct passed to goroutines → copy before modification.
    for f in file.funcs() {
        let Some(body) = &f.body else { continue };
        let closures = go_closures(body);
        if closures.len() >= 2
            && closures
                .iter()
                .all(|c| field_write_on(c, racy_var) || reads_var(c, racy_var))
            && closures.iter().any(|c| field_write_on(c, racy_var))
        {
            out.push(Diagnosis {
                category: RaceCategory::Other,
                strategy: StrategyKind::StructCopy,
                target: Target::Local {
                    func: f.name.clone(),
                    var: racy_var.to_owned(),
                },
                score: 0.78,
            });
        }
    }

    // 8c. Closures share a locally-constructed aggregate whose field is
    // racy (the LCA pattern): privatise by copying the aggregate.
    for d in &file.decls {
        let Decl::Type(t) = d else { continue };
        let Type::Struct(fields) = &t.ty else {
            continue;
        };
        if !fields.iter().any(|f| f.names.iter().any(|n| n == racy_var)) {
            continue;
        }
        for f in file.funcs() {
            let Some(body) = &f.body else { continue };
            let closures = go_closures(body);
            if closures.len() < 2 {
                continue;
            }
            // A local built from a composite literal of the type…
            let mut candidates: Vec<String> = Vec::new();
            visit::walk_stmts(body, &mut |s| {
                if let Stmt::ShortVar { names, values, .. } = s {
                    if names.len() == 1 && values.len() == 1 {
                        let lit_of_type = {
                            let mut found = false;
                            visit::walk_expr(&values[0], &mut |e| {
                                if let Expr::CompositeLit { ty: Some(ct), .. } = e {
                                    if ct.is_named(&t.name) {
                                        found = true;
                                    }
                                }
                            });
                            found
                        };
                        if lit_of_type && !candidates.contains(&names[0]) {
                            candidates.push(names[0].clone());
                        }
                    }
                }
            });
            for var in candidates {
                if closures.iter().filter(|c| reads_var(c, &var)).count() >= 2 {
                    out.push(Diagnosis {
                        category: RaceCategory::Other,
                        strategy: StrategyKind::StructCopy,
                        target: Target::Local {
                            func: f.name.clone(),
                            var,
                        },
                        score: 0.82,
                    });
                }
            }
        }
    }

    // 8b. The report names a struct *field* (`Limit`): find goroutine
    // closures writing that field through a shared local and copy it.
    for f in file.funcs() {
        let Some(body) = &f.body else { continue };
        let closures = go_closures(body);
        if closures.len() < 2 {
            continue;
        }
        let mut roots: Vec<String> = Vec::new();
        for c in &closures {
            for r in field_write_roots(c, racy_var) {
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
        }
        if roots.len() == 1 {
            out.push(Diagnosis {
                category: RaceCategory::Other,
                strategy: StrategyKind::StructCopy,
                target: Target::Local {
                    func: f.name.clone(),
                    var: roots.remove(0),
                },
                score: 0.8,
            });
        }
    }

    // 9. Fallbacks: blanket approaches, always present, always last.
    if let Some(f) = file.funcs().find(|f| {
        f.body
            .as_ref()
            .map(|b| mentions_var(b, racy_var))
            .unwrap_or(false)
    }) {
        out.push(Diagnosis {
            category: RaceCategory::MissingSync,
            strategy: StrategyKind::MutexGuard,
            target: Target::Local {
                func: f.name.clone(),
                var: racy_var.to_owned(),
            },
            score: 0.35,
        });
        out.push(Diagnosis {
            category: RaceCategory::MissingSync,
            strategy: StrategyKind::BlanketMutex,
            target: Target::Local {
                func: f.name.clone(),
                var: racy_var.to_owned(),
            },
            score: 0.3,
        });
    }

    // Dedup by (strategy, target), keep the highest score, sort.
    let mut deduped: Vec<Diagnosis> = Vec::new();
    for d in out {
        if let Some(existing) = deduped
            .iter_mut()
            .find(|e| e.strategy == d.strategy && e.target == d.target)
        {
            if d.score > existing.score {
                *existing = d;
            }
        } else {
            deduped.push(d);
        }
    }
    deduped.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    deduped
}

// ------------------------------------------------------------- structural

/// The goroutine-launch closures in a body: `go func(){}` bodies and
/// closures passed to `.Go(...)` / `t.Run(...)`.
pub fn go_closures(body: &Block) -> Vec<&Block> {
    let mut out = Vec::new();
    visit::walk_stmts(body, &mut |s| match s {
        Stmt::Go {
            call: Expr::Call { fun, .. },
            ..
        } => {
            if let Expr::FuncLit { body, .. } = fun.as_ref() {
                out.push(body);
            }
        }
        Stmt::Expr(Expr::Call { fun, args, .. }) => {
            if let Expr::Selector { name, .. } = fun.as_ref() {
                if name == "Go" || name == "Run" {
                    for a in args {
                        if let Expr::FuncLit { body, .. } = a {
                            out.push(body);
                        }
                    }
                }
            }
        }
        _ => {}
    });
    out
}

fn assigns_var(block: &Block, var: &str) -> bool {
    let mut found = false;
    visit::walk_stmts(block, &mut |s| match s {
        Stmt::Assign { lhs, .. } if lhs.iter().any(|e| e.as_ident() == Some(var)) => {
            found = true;
        }
        Stmt::IncDec { expr, .. } if expr.as_ident() == Some(var) => {
            found = true;
        }
        _ => {}
    });
    found
}

fn reads_var(block: &Block, var: &str) -> bool {
    let mut found = false;
    visit::walk_exprs(block, &mut |e| {
        if let Expr::Ident { name, .. } = e {
            if name == var {
                found = true;
            }
        }
    });
    found
}

fn mentions_var(block: &Block, var: &str) -> bool {
    reads_var(block, var) || declares_var(block, var)
}

fn declares_var(block: &Block, var: &str) -> bool {
    let mut found = false;
    visit::walk_stmts(block, &mut |s| match s {
        Stmt::ShortVar { names, .. } if names.iter().any(|n| n == var) => {
            found = true;
        }
        Stmt::Decl(v) if v.names.iter().any(|n| n == var) => {
            found = true;
        }
        _ => {}
    });
    found
}

fn is_param(f: &FuncDecl, var: &str) -> bool {
    f.sig.param_names().any(|(n, _)| n == var)
        || f.receiver.as_ref().map(|r| r.name == var).unwrap_or(false)
}

fn writes_var_outside_closures(body: &Block, var: &str) -> bool {
    body.stmts.iter().any(|s| {
        visit::any_stmt_outside_closures(s, |s| match s {
            Stmt::Assign { lhs, .. } => lhs.iter().any(|e| e.as_ident() == Some(var)),
            Stmt::IncDec { expr, .. } => expr.as_ident() == Some(var),
            _ => false,
        })
    })
}

/// Rough type classification of a local variable from its declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Map,
    Slice,
    Counter,
    Error,
    Other,
}

fn local_var_kind(body: &Block, var: &str) -> Option<VarKind> {
    let mut kind = None;
    visit::walk_stmts(body, &mut |s| {
        let (names, values, ty): (&[String], &[Expr], Option<&Type>) = match s {
            Stmt::ShortVar { names, values, .. } => (names, values, None),
            Stmt::Decl(v) => (&v.names, &v.values, v.ty.as_ref()),
            _ => return,
        };
        let Some(idx) = names.iter().position(|n| n == var) else {
            return;
        };
        if let Some(t) = ty {
            kind = Some(match t {
                Type::Map { .. } => VarKind::Map,
                Type::Slice(_) => VarKind::Slice,
                Type::Named { path, .. } => match path.join(".").as_str() {
                    "int" | "int32" | "int64" => VarKind::Counter,
                    "error" => VarKind::Error,
                    _ => VarKind::Other,
                },
                _ => VarKind::Other,
            });
            return;
        }
        let Some(v) = values.get(idx.min(values.len().saturating_sub(1))) else {
            return;
        };
        kind = Some(match v {
            Expr::Make {
                ty: Type::Map { .. },
                ..
            } => VarKind::Map,
            Expr::Make {
                ty: Type::Slice(_), ..
            } => VarKind::Slice,
            Expr::CompositeLit {
                ty: Some(Type::Map { .. }),
                ..
            } => VarKind::Map,
            Expr::CompositeLit {
                ty: Some(Type::Slice(_)),
                ..
            } => VarKind::Slice,
            Expr::IntLit { .. } => VarKind::Counter,
            Expr::Call { fun, .. } => {
                // err := f() — callee returning error by convention.
                if fun
                    .as_ident()
                    .map(|n| n.to_lowercase().contains("work") || n.to_lowercase().contains("task"))
                    .unwrap_or(false)
                    || var == "err"
                {
                    VarKind::Error
                } else {
                    VarKind::Other
                }
            }
            _ => VarKind::Other,
        });
    });
    kind
}

fn range_binding_captured(body: &Block, var: &str) -> Option<()> {
    let mut hit = None;
    visit::walk_stmts(body, &mut |s| {
        if let Stmt::Range(st) = s {
            let bound = st
                .key
                .as_ref()
                .and_then(|e| e.as_ident())
                .map(|n| n == var)
                .unwrap_or(false)
                || st
                    .value
                    .as_ref()
                    .and_then(|e| e.as_ident())
                    .map(|n| n == var)
                    .unwrap_or(false);
            if !bound {
                return;
            }
            // Rebinding (`v := v`) would shadow the loop var — then this
            // is not the classic race.
            let rebound = st.body.stmts.iter().any(|x| {
                matches!(x, Stmt::ShortVar { names, values, .. }
                    if names.len() == 1 && names[0] == var
                        && values.len() == 1 && values[0].as_ident() == Some(var))
            });
            if rebound {
                return;
            }
            for c in go_closures(&st.body) {
                if reads_var(c, var) {
                    hit = Some(());
                }
            }
        }
    });
    hit
}

fn wg_add_inside_goroutine(body: &Block) -> bool {
    let mut found = false;
    visit::walk_stmts(body, &mut |s| {
        if let Stmt::Go {
            call: Expr::Call { fun, .. },
            ..
        } = s
        {
            if let Expr::FuncLit { body: cb, .. } = fun.as_ref() {
                visit::walk_exprs(cb, &mut |e| {
                    if let Expr::Call { fun, .. } = e {
                        if let Expr::Selector { name, .. } = fun.as_ref() {
                            if name == "Add" {
                                found = true;
                            }
                        }
                    }
                });
            }
        }
    });
    found
}

fn parallel_subtests(body: &Block) -> bool {
    let mut has_run = false;
    let mut has_parallel = false;
    visit::walk_exprs(body, &mut |e| {
        if let Expr::Call { fun, .. } = e {
            if let Expr::Selector { name, .. } = fun.as_ref() {
                if name == "Run" {
                    has_run = true;
                }
                if name == "Parallel" {
                    has_parallel = true;
                }
            }
        }
    });
    has_run && has_parallel
}

/// Finds a `v := ctor(...)` declaration for the shared object in a test.
fn shared_ctor_decl(body: &Block, var: &str) -> Option<Expr> {
    let mut ctor = None;
    for s in &body.stmts {
        if let Stmt::ShortVar { names, values, .. } = s {
            if names.len() == 1
                && names[0] == var
                && values.len() == 1
                && matches!(&values[0], Expr::Call { .. })
            {
                ctor = Some(values[0].clone());
            }
        }
    }
    ctor
}

fn closure_reads_after_write(closures: &[&Block], var: &str) -> bool {
    closures.iter().any(|c| {
        let mut wrote = false;
        let mut read_after = false;
        visit::walk_stmts(c, &mut |s| match s {
            Stmt::Assign { lhs, rhs, .. } => {
                if lhs.iter().any(|e| e.as_ident() == Some(var)) {
                    wrote = true;
                }
                if wrote {
                    for e in rhs {
                        let mut f = false;
                        visit::walk_expr(e, &mut |x| {
                            if let Expr::Ident { name, .. } = x {
                                if name == var {
                                    f = true;
                                }
                            }
                        });
                        if f {
                            read_after = true;
                        }
                    }
                }
            }
            Stmt::Expr(e) if wrote => {
                visit::walk_expr(e, &mut |x| {
                    if let Expr::Ident { name, .. } = x {
                        if name == var {
                            read_after = true;
                        }
                    }
                });
            }
            _ => {}
        });
        wrote && read_after
    })
}

fn has_ctx_done_select(body: &Block) -> bool {
    let mut found = false;
    visit::walk_stmts(body, &mut |s| {
        if let Stmt::Select(st) = s {
            for c in &st.cases {
                if let golite::ast::CommClause::Recv { chan, .. } = &c.comm {
                    let mut done = false;
                    visit::walk_expr(chan, &mut |e| {
                        if let Expr::Selector { name, .. } = e {
                            if name == "Done" {
                                done = true;
                            }
                        }
                    });
                    if done {
                        found = true;
                    }
                }
            }
        }
    });
    found
}

fn field_write_on(block: &Block, var: &str) -> bool {
    let mut found = false;
    visit::walk_stmts(block, &mut |s| {
        if let Stmt::Assign { lhs, .. } = s {
            for e in lhs {
                if let Expr::Selector { expr, .. } = e {
                    if expr.as_ident() == Some(var) {
                        found = true;
                    }
                }
            }
        }
    });
    found
}

/// Finds a `v := ctor(...)` whose `v` is used at least twice afterwards —
/// the shared object of a table test.
fn find_shared_ctor_var(body: &Block) -> Option<String> {
    for s in &body.stmts {
        if let Stmt::ShortVar { names, values, .. } = s {
            if names.len() == 1 && values.len() == 1 && matches!(&values[0], Expr::Call { .. }) {
                let var = &names[0];
                let mut uses = 0;
                visit::walk_exprs(body, &mut |e| {
                    if let Expr::Ident { name, .. } = e {
                        if name == var {
                            uses += 1;
                        }
                    }
                });
                if uses >= 2 {
                    return Some(var.clone());
                }
            }
        }
    }
    None
}

/// Root identifiers `x` with a `x.field = …` write in the block.
fn field_write_roots(block: &Block, field: &str) -> Vec<String> {
    let mut out = Vec::new();
    visit::walk_stmts(block, &mut |s| {
        if let Stmt::Assign { lhs, .. } = s {
            for e in lhs {
                if let Expr::Selector { expr, name, .. } = e {
                    if name == field {
                        if let Some(root) = expr.as_ident() {
                            if !out.iter().any(|x| x == root) {
                                out.push(root.to_owned());
                            }
                        }
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(src: &str, var: &str) -> Vec<Diagnosis> {
        let file = golite::parse_file(src).unwrap();
        diagnose(&file, var)
    }

    #[test]
    fn err_capture_suggests_redeclare_first() {
        let src = r#"
package p

import "sync"

func F() error {
	err := work()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err = task(); err != nil {
			note()
		}
	}()
	if err = task2(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func work() error  { return nil }
func task() error  { return nil }
func task2() error { return nil }
func note()        {}
"#;
        let ds = diag(src, "err");
        assert_eq!(ds[0].strategy, StrategyKind::RedeclareInGoroutine);
        assert_eq!(ds[0].category, RaceCategory::CaptureByReference);
    }

    #[test]
    fn loop_var_suggests_privatize() {
        let src = r#"
package p

import "sync"

func F(nums []int) {
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
        let ds = diag(src, "num");
        assert_eq!(ds[0].strategy, StrategyKind::PrivatizeLoopVar);
        assert_eq!(ds[0].category, RaceCategory::LoopVarCapture);
    }

    #[test]
    fn rebound_loop_var_is_not_flagged() {
        let src = r#"
package p

func F(nums []int) {
	for _, num := range nums {
		num := num
		go func() {
			use(num)
		}()
	}
}

func use(x int) {}
"#;
        let ds = diag(src, "num");
        assert!(ds
            .iter()
            .all(|d| d.strategy != StrategyKind::PrivatizeLoopVar));
    }

    #[test]
    fn wg_add_in_goroutine_detected() {
        let src = r#"
package p

import "sync"

func F() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		go func(n int) {
			wg.Add(1)
			defer wg.Done()
			use(n)
		}(i)
	}
	wg.Wait()
}

func use(x int) {}
"#;
        let ds = diag(src, "m");
        assert!(ds
            .iter()
            .any(|d| d.strategy == StrategyKind::MoveWgAddBeforeGo));
    }

    #[test]
    fn local_map_suggests_syncmap() {
        let src = r#"
package p

import "sync"

func F() {
	m := make(map[int]int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m[1] = 1
	}()
	m[2] = 2
	wg.Wait()
}
"#;
        let ds = diag(src, "m");
        assert_eq!(ds[0].strategy, StrategyKind::MapToSyncMap);
    }

    #[test]
    fn field_map_targets_the_type() {
        let src = r#"
package p

type Scanner struct {
	lockMap map[string]int
}

func (t *Scanner) runShards() {
	for k := range t.lockMap {
		delete(t.lockMap, k)
	}
}
"#;
        let ds = diag(src, "lockMap");
        assert_eq!(ds[0].strategy, StrategyKind::MapToSyncMap);
        assert!(matches!(&ds[0].target, Target::Field { type_name, field }
            if type_name == "Scanner" && field == "lockMap"));
    }

    #[test]
    fn table_test_suggests_per_case_instance() {
        let src = r#"
package p

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
        let ds = diag(src, "sampleHash");
        assert_eq!(ds[0].strategy, StrategyKind::PerCaseInstance);
        assert_eq!(ds[0].category, RaceCategory::ParallelTest);
    }

    #[test]
    fn global_rand_source_detected() {
        let src = r#"
package p

import "math/rand"

var source = rand.NewSource(1001)

func handler() {
	random := rand.New(source)
	use(random.Intn(10))
}

func use(x int) {}
"#;
        let ds = diag(src, "source");
        assert_eq!(ds[0].strategy, StrategyKind::FreshSourcePerUse);
    }

    #[test]
    fn ctx_select_suggests_channel_result() {
        let src = r#"
package p

import "context"

func F(ctx context.Context) error {
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
	return err
}

func evaluate() (int, error) { return 1, nil }
func use(x int)              {}
"#;
        let ds = diag(src, "err");
        assert!(ds
            .iter()
            .take(2)
            .any(|d| d.strategy == StrategyKind::ChannelResult));
    }

    #[test]
    fn fallback_always_offers_mutex() {
        let src = "package p\n\nfunc F() {\n\tx := 1\n\tuse(x)\n}\n\nfunc use(v int) {}\n";
        let ds = diag(src, "x");
        assert!(ds
            .iter()
            .any(|d| d.strategy == StrategyKind::MutexGuard
                || d.strategy == StrategyKind::BlanketMutex));
    }

    #[test]
    fn diagnoses_are_sorted_and_deduped() {
        let src = r#"
package p

import "sync"

func F() {
	counter := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		counter = counter + 1
	}()
	counter = counter + 1
	wg.Wait()
}
"#;
        let ds = diag(src, "counter");
        for w in ds.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let mut seen = std::collections::HashSet::new();
        for d in &ds {
            assert!(seen.insert((d.strategy, format!("{:?}", d.target))));
        }
    }
}
