//! The fix-strategy library: real AST rewrites for every repair idiom the
//! paper demonstrates (Listings 2, 5–12, Appendix D).
//!
//! Each strategy can be applied *cleanly* or in a deliberately *botched*
//! mode. Botches model the realistic failure modes of LLM-generated
//! patches — guarding only the writes, moving a statement to the wrong
//! place, missing one of several sites, forgetting a function argument —
//! and each produces code the `govm` validator genuinely rejects (still
//! racy, deadlocked, or failing to build/run).

use crate::diagnose::Target;
use crate::rewrite::*;
use golite::ast::*;
use golite::span::Span;
use golite::visit::{MutVisitor, RenameIdent};
use serde::{Deserialize, Serialize};

/// The repair idioms (Table 4 / §5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// `err =` → `err :=` inside the goroutine (Listing 2).
    RedeclareInGoroutine,
    /// `num := num` before the launch (Listing 11 / Go 1.22 semantics).
    PrivatizeLoopVar,
    /// `localLimit := limit` + rename inside the closure (Listing 5).
    LocalCopyInGoroutine,
    /// Pass the captured variable as a goroutine parameter (Listing 14).
    PassParamToGoroutine,
    /// Move `wg.Add` before the `go` statement (Listing 6).
    MoveWgAddBeforeGo,
    /// Replace a built-in map with `sync.Map`, rewriting all operations
    /// (Listing 8).
    MapToSyncMap,
    /// Introduce a mutex guarding every access to the variable/field
    /// (Listing 9).
    MutexGuard,
    /// Reader/writer lock variant (Listing 30).
    RwMutexGuard,
    /// Convert a shared integer to atomic operations (Listing 20).
    AtomicCounter,
    /// Copy a shared struct before modification (Listings 22/24/26).
    StructCopy,
    /// Route the result through a channel instead of sharing (Listing 10).
    ChannelResult,
    /// Fresh instance per test case / request (Listings 7, 12).
    PerCaseInstance,
    /// Inline a fresh `rand.NewSource` per use (Listing 12).
    FreshSourcePerUse,
    /// One big lock around everything racy — the naive fix the paper
    /// warns about (§1): correct placement serialises, careless placement
    /// deadlocks or misses sites.
    BlanketMutex,
}

impl StrategyKind {
    /// All strategies.
    pub fn all() -> &'static [StrategyKind] {
        use StrategyKind::*;
        &[
            RedeclareInGoroutine,
            PrivatizeLoopVar,
            LocalCopyInGoroutine,
            PassParamToGoroutine,
            MoveWgAddBeforeGo,
            MapToSyncMap,
            MutexGuard,
            RwMutexGuard,
            AtomicCounter,
            StructCopy,
            ChannelResult,
            PerCaseInstance,
            FreshSourcePerUse,
            BlanketMutex,
        ]
    }

    /// Short display name.
    pub fn display(&self) -> &'static str {
        match self {
            StrategyKind::RedeclareInGoroutine => "variable redeclaration",
            StrategyKind::PrivatizeLoopVar => "loop-variable privatization",
            StrategyKind::LocalCopyInGoroutine => "local copy in goroutine",
            StrategyKind::PassParamToGoroutine => "parameter passing",
            StrategyKind::MoveWgAddBeforeGo => "WaitGroup Add placement",
            StrategyKind::MapToSyncMap => "map → sync.Map",
            StrategyKind::MutexGuard => "mutex guard",
            StrategyKind::RwMutexGuard => "RWMutex guard",
            StrategyKind::AtomicCounter => "atomic operations",
            StrategyKind::StructCopy => "struct copy",
            StrategyKind::ChannelResult => "channel result passing",
            StrategyKind::PerCaseInstance => "per-case instance",
            StrategyKind::FreshSourcePerUse => "fresh source per use",
            StrategyKind::BlanketMutex => "blanket mutex",
        }
    }

    /// Whether a *clean* application is idiomatic (feeds the developer
    /// review model — blanket locks get rejected in review far more
    /// often, §5.2's rejection reasons).
    pub fn idiomatic(&self) -> bool {
        !matches!(self, StrategyKind::BlanketMutex)
    }
}

/// Applies `kind` to `file` for `target`. `botch == 0` is the clean
/// application; non-zero selects a degraded variant.
///
/// # Errors
///
/// Returns a message when the strategy does not apply to this code (for
/// example a field-level fix attempted at function scope where the type
/// declaration is invisible).
pub fn apply(kind: StrategyKind, file: &File, target: &Target, botch: u8) -> Result<File, String> {
    let mut out = file.clone();
    match kind {
        StrategyKind::RedeclareInGoroutine => redeclare(&mut out, target, botch)?,
        StrategyKind::PrivatizeLoopVar => privatize_loop_var(&mut out, target, botch)?,
        StrategyKind::LocalCopyInGoroutine => local_copy(&mut out, target, botch)?,
        StrategyKind::PassParamToGoroutine => pass_param(&mut out, target, botch)?,
        StrategyKind::MoveWgAddBeforeGo => move_wg_add(&mut out, target, botch)?,
        StrategyKind::MapToSyncMap => map_to_syncmap(&mut out, target, botch)?,
        StrategyKind::MutexGuard => mutex_guard(&mut out, target, botch, false)?,
        StrategyKind::RwMutexGuard => mutex_guard(&mut out, target, botch, true)?,
        StrategyKind::AtomicCounter => atomic_counter(&mut out, target, botch)?,
        StrategyKind::StructCopy => struct_copy(&mut out, target, botch)?,
        StrategyKind::ChannelResult => channel_result(&mut out, target, botch)?,
        StrategyKind::PerCaseInstance => per_case_instance(&mut out, target, botch)?,
        StrategyKind::FreshSourcePerUse => fresh_source(&mut out, target, botch)?,
        StrategyKind::BlanketMutex => blanket_mutex(&mut out, target, botch)?,
    }
    Ok(out)
}

fn target_func<'a>(file: &'a mut File, target: &Target) -> Result<&'a mut FuncDecl, String> {
    let name = target
        .func()
        .ok_or_else(|| "strategy needs a function target".to_owned())?;
    file.find_func_mut(name)
        .ok_or_else(|| format!("function `{name}` not in scope"))
}

fn target_var(target: &Target) -> Result<&str, String> {
    match target {
        Target::Local { var, .. } | Target::Pattern { var, .. } | Target::Global { var } => Ok(var),
        Target::Field { field, .. } => Ok(field),
    }
}

// ------------------------------------------------------------- strategies

/// Listing 2: first `var = …` inside each goroutine closure → `var := …`.
fn redeclare(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let f = target_func(file, target)?;
    let mut converted = 0usize;
    let mut closure_idx = 0usize;
    if let Some(body) = &mut f.body {
        for s in &mut body.stmts {
            if let Some(cb) = go_closure_mut(s) {
                closure_idx += 1;
                // Botch 1: skip every other closure — misses a site.
                if botch == 1 && closure_idx % 2 == 0 {
                    continue;
                }
                if convert_first_assign_to_decl(cb, &var) {
                    converted += 1;
                }
            }
        }
    }
    if converted == 0 {
        return Err(format!("no assignment to `{var}` in any goroutine"));
    }
    Ok(())
}

/// Converts the first `var = …` in the block, in pre-order, to `:=`.
fn convert_first_assign_to_decl(block: &mut Block, var: &str) -> bool {
    struct FirstAssign<'a> {
        var: &'a str,
        done: bool,
    }
    impl MutVisitor for FirstAssign<'_> {
        fn visit_stmt(&mut self, s: &mut Stmt) {
            if self.done {
                return;
            }
            match s {
                Stmt::Assign {
                    lhs,
                    op: AssignOp::Assign,
                    rhs,
                    span,
                } if lhs.iter().all(|e| e.as_ident().is_some())
                    && lhs.iter().any(|e| e.as_ident() == Some(self.var)) =>
                {
                    let names = lhs
                        .iter()
                        .map(|e| e.as_ident().expect("ident lhs").to_owned())
                        .collect();
                    *s = Stmt::ShortVar {
                        names,
                        values: std::mem::take(rhs),
                        span: *span,
                    };
                    self.done = true;
                }
                // A `for` post statement cannot declare.
                Stmt::For(st) => {
                    if let Some(init) = &mut st.init {
                        self.visit_stmt(init);
                    }
                    if let Some(c) = &mut st.cond {
                        self.visit_expr(c);
                    }
                    self.visit_block(&mut st.body);
                }
                _ => self.walk_stmt(s),
            }
        }
    }
    let mut v = FirstAssign { var, done: false };
    v.visit_block(block);
    v.done
}

/// Listing 11: insert `var := var` at the top of the loop body.
fn privatize_loop_var(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let f = target_func(file, target)?;
    let mut done = false;
    map_stmt_lists(f, &mut |stmts| {
        stmts
            .into_iter()
            .map(|s| {
                if let Stmt::Range(mut st) = s {
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
                    if bound && !done {
                        done = true;
                        let copy = Stmt::short_var(var.clone(), Expr::ident(var.clone()));
                        if botch == 1 {
                            // Botch: after the launch — useless.
                            st.body.stmts.push(copy);
                        } else {
                            st.body.stmts.insert(0, copy);
                        }
                    }
                    Stmt::Range(st)
                } else {
                    s
                }
            })
            .collect()
    });
    if done {
        Ok(())
    } else {
        Err(format!("no range loop binds `{var}`"))
    }
}

/// Listing 5: add `localVar := var` at closure start and rename uses.
fn local_copy(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let local = format!("local{}", capitalize(&var));
    let f = target_func(file, target)?;
    let mut touched = 0usize;
    if let Some(body) = &mut f.body {
        rewrite_go_closures(body, |cb| {
            if !mentions(cb, &var) {
                return;
            }
            touched += 1;
            if botch != 1 {
                RenameIdent {
                    from: &var,
                    to: &local,
                }
                .visit_block(cb);
            }
            // Botch 1 inserts the copy without renaming — a dead local.
            cb.stmts
                .insert(0, Stmt::short_var(local.clone(), Expr::ident(var.clone())));
        });
    }
    if touched == 0 {
        return Err(format!("no goroutine uses `{var}`"));
    }
    Ok(())
}

/// Listing 14: `go func() {…}()` → `go func(var T) {…}(var)`.
fn pass_param(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let f = target_func(file, target)?;
    let mut touched = 0usize;
    if let Some(body) = &mut f.body {
        for s in &mut body.stmts {
            if let Stmt::Go {
                call: Expr::Call { fun, args, .. },
                ..
            } = s
            {
                if let Expr::FuncLit { sig, body: cb, .. } = fun.as_mut() {
                    if !mentions(cb, &var) {
                        continue;
                    }
                    touched += 1;
                    sig.params.push(Param {
                        names: vec![var.clone()],
                        ty: Type::Interface(Vec::new()),
                        variadic: false,
                        span: Span::DUMMY,
                    });
                    if botch != 1 {
                        args.push(Expr::ident(var.clone()));
                    }
                    // Botch 1 forgets the argument → arity error at
                    // run time ("build failure" feedback).
                }
            }
        }
    }
    if touched == 0 {
        return Err(format!("no goroutine closure captures `{var}`"));
    }
    Ok(())
}

/// Listing 6: hoist `wg.Add(n)` out of the closure, before the launch.
fn move_wg_add(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let fname = target
        .func()
        .ok_or_else(|| "needs a function target".to_owned())?
        .to_owned();
    let f = file
        .find_func_mut(&fname)
        .ok_or_else(|| format!("function `{fname}` not in scope"))?;
    let mut moved = false;
    map_stmt_lists(f, &mut |stmts| {
        let mut out = Vec::with_capacity(stmts.len());
        for mut s in stmts {
            let mut adds = Vec::new();
            if let Some(cb) = go_closure_mut(&mut s) {
                let mut kept = Vec::with_capacity(cb.stmts.len());
                for cs in cb.stmts.drain(..) {
                    if let Stmt::Expr(Expr::Call { fun, args, .. }) = &cs {
                        if let Expr::Selector { name, expr, .. } = fun.as_ref() {
                            if name == "Add" && expr.as_ident().is_some() {
                                adds.push(Stmt::Expr(Expr::Call {
                                    fun: fun.clone(),
                                    args: args.clone(),
                                    variadic: false,
                                    span: Span::DUMMY,
                                }));
                                if botch == 1 {
                                    // Botch: duplicate instead of move —
                                    // the counter over-increments and
                                    // Wait deadlocks.
                                    kept.push(cs);
                                }
                                continue;
                            }
                        }
                    }
                    kept.push(cs);
                }
                cb.stmts = kept;
            }
            if !adds.is_empty() {
                moved = true;
                out.extend(adds);
            }
            out.push(s);
        }
        out
    });
    if moved {
        Ok(())
    } else {
        Err("no wg.Add inside a goroutine closure".into())
    }
}

/// Listing 8: convert the racy map to `sync.Map` and rewrite every
/// operation (index read/write, `delete`, `range`).
fn map_to_syncmap(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    ensure_import(file, "sync");
    match target {
        Target::Field { type_name, field } => {
            let td = file
                .find_type_mut(type_name)
                .ok_or_else(|| format!("type `{type_name}` not in scope"))?;
            if let Type::Struct(fields) = &mut td.ty {
                let mut changed = false;
                for fl in fields {
                    if fl.names.iter().any(|n| n == field) {
                        fl.ty = Type::named("sync.Map");
                        changed = true;
                    }
                }
                if !changed {
                    return Err(format!("field `{field}` not found"));
                }
            } else {
                return Err(format!("`{type_name}` is not a struct"));
            }
            // Rewrite accesses in every function; drop initialisers of the
            // field in composite literals.
            let funcs: Vec<String> = file.funcs().map(|f| f.name.clone()).collect();
            for name in funcs {
                let f = file.find_func_mut(&name).expect("listed function");
                rewrite_map_ops_in_func(f, field, true, botch)?;
            }
            strip_field_initialisers(file, type_name, field);
            Ok(())
        }
        Target::Local { func, var } => {
            let func = func.clone();
            let var = var.clone();
            let f = file
                .find_func_mut(&func)
                .ok_or_else(|| format!("function `{func}` not in scope"))?;
            // Convert the declaration.
            let mut declared = false;
            map_stmt_lists(f, &mut |stmts| {
                stmts
                    .into_iter()
                    .map(|s| match &s {
                        Stmt::ShortVar { names, values, .. }
                            if names.len() == 1
                                && names[0] == var
                                && values.len() == 1
                                && matches!(
                                    values[0],
                                    Expr::Make {
                                        ty: Type::Map { .. },
                                        ..
                                    } | Expr::CompositeLit {
                                        ty: Some(Type::Map { .. }),
                                        ..
                                    }
                                ) =>
                        {
                            declared = true;
                            Stmt::Decl(VarDecl {
                                names: vec![var.clone()],
                                ty: Some(Type::named("sync.Map")),
                                values: Vec::new(),
                                span: Span::DUMMY,
                            })
                        }
                        _ => s,
                    })
                    .collect()
            });
            if !declared {
                return Err(format!("`{var}` is not declared as a map here"));
            }
            rewrite_map_ops_in_func(f, &var, false, botch)?;
            Ok(())
        }
        _ => Err("sync.Map conversion needs a map variable or field".into()),
    }
}

/// Rewrites `m[k] = v` / `delete(m, k)` / `v := m[k]` / `range m` where
/// `m` is the racy map (field access `x.field` when `is_field`).
fn rewrite_map_ops_in_func(
    f: &mut FuncDecl,
    var: &str,
    is_field: bool,
    botch: u8,
) -> Result<(), String> {
    let matches_map = |e: &Expr| -> bool {
        if is_field {
            matches!(e, Expr::Selector { name, .. } if name == var)
        } else {
            e.as_ident() == Some(var)
        }
    };
    map_stmt_lists(f, &mut |stmts| {
        stmts
            .into_iter()
            .map(|s| {
                match &s {
                    // m[k] = v  →  m.Store(k, v)
                    Stmt::Assign { lhs, op, rhs, .. }
                        if *op == AssignOp::Assign && lhs.len() == 1 && rhs.len() == 1 =>
                    {
                        if let Expr::Index { expr, index, .. } = &lhs[0] {
                            if matches_map(expr) {
                                return method_stmt(
                                    (**expr).clone(),
                                    "Store",
                                    vec![(**index).clone(), rhs[0].clone()],
                                );
                            }
                        }
                        s
                    }
                    // delete(m, k) → m.Delete(k)
                    Stmt::Expr(Expr::Call { fun, args, .. })
                        if fun.as_ident() == Some("delete")
                            && args.len() == 2
                            && matches_map(&args[0]) =>
                    {
                        method_stmt(args[0].clone(), "Delete", vec![args[1].clone()])
                    }
                    // v := m[k] / v, ok := m[k] → Load
                    Stmt::ShortVar {
                        names,
                        values,
                        span,
                    } if values.len() == 1 => {
                        if let Expr::Index { expr, index, .. } = &values[0] {
                            if matches_map(expr) {
                                let mut names = names.clone();
                                if names.len() == 1 {
                                    names.push("_".into());
                                }
                                return Stmt::ShortVar {
                                    names,
                                    values: vec![Expr::method(
                                        (**expr).clone(),
                                        "Load",
                                        vec![(**index).clone()],
                                    )],
                                    span: *span,
                                };
                            }
                        }
                        s
                    }
                    // range m → m.Range(func(key, value interface{}) bool {…})
                    Stmt::Range(st) if matches_map(&st.expr) => {
                        if botch == 1 {
                            // Botch: forgot the range rewrite — ranging
                            // over a sync.Map value fails at run time.
                            return s;
                        }
                        let key_name = st
                            .key
                            .as_ref()
                            .and_then(|e| e.as_ident())
                            .unwrap_or("_")
                            .to_owned();
                        let val_name = st
                            .value
                            .as_ref()
                            .and_then(|e| e.as_ident())
                            .unwrap_or("_")
                            .to_owned();
                        let mut body = st.body.clone();
                        retarget_loop_exits(&mut body);
                        body.stmts.push(Stmt::Return {
                            values: vec![Expr::ident("true")],
                            span: Span::DUMMY,
                        });
                        let lit = Expr::FuncLit {
                            sig: FuncSig {
                                params: vec![Param {
                                    names: vec![key_name, val_name],
                                    ty: Type::Interface(Vec::new()),
                                    variadic: false,
                                    span: Span::DUMMY,
                                }],
                                results: vec![Param {
                                    names: Vec::new(),
                                    ty: Type::named("bool"),
                                    variadic: false,
                                    span: Span::DUMMY,
                                }],
                            },
                            body,
                            span: Span::DUMMY,
                        };
                        method_stmt(st.expr.clone(), "Range", vec![lit])
                    }
                    _ => s,
                }
            })
            .collect()
    });
    Ok(())
}

/// Inside a Range callback, an unlabeled `continue` becomes `return true`
/// and an unlabeled `break` becomes `return false`. Exits that belong to
/// a nested loop or function literal stay, and so does a `break` inside
/// a `switch` or `select`. A labeled exit names a statement outside the
/// callback and stays too.
fn retarget_loop_exits(body: &mut Block) {
    struct Exits {
        in_switch: bool,
    }
    impl MutVisitor for Exits {
        fn visit_stmt(&mut self, s: &mut Stmt) {
            let result = match s {
                Stmt::Continue { label: None, .. } => "true",
                Stmt::Break { label: None, .. } if !self.in_switch => "false",
                // A nested loop owns the exits inside it.
                Stmt::For(_) | Stmt::Range(_) => return,
                Stmt::Switch(_) | Stmt::Select(_) => {
                    let outer = std::mem::replace(&mut self.in_switch, true);
                    self.walk_stmt(s);
                    self.in_switch = outer;
                    return;
                }
                _ => return self.walk_stmt(s),
            };
            *s = Stmt::Return {
                values: vec![Expr::ident(result)],
                span: Span::DUMMY,
            };
        }

        // Only a function literal holds statements below an
        // expression, and it owns its exits.
        fn visit_expr(&mut self, _: &mut Expr) {}
    }
    Exits { in_switch: false }.visit_block(body);
}

/// Removes `field: …` initialisers of the converted map field from every
/// composite literal of the type.
fn strip_field_initialisers(file: &mut File, type_name: &str, field: &str) {
    struct Strip<'a> {
        type_name: &'a str,
        field: &'a str,
    }
    impl MutVisitor for Strip<'_> {
        fn visit_expr(&mut self, e: &mut Expr) {
            if let Expr::CompositeLit {
                ty: Some(t), elems, ..
            } = e
            {
                if t.is_named(self.type_name) {
                    elems.retain(|el| {
                        el.key
                            .as_ref()
                            .and_then(|k| k.as_ident())
                            .map(|n| n != self.field)
                            .unwrap_or(true)
                    });
                }
            }
            self.walk_expr(e);
        }
    }
    let mut strip = Strip { type_name, field };
    for d in &mut file.decls {
        if let Decl::Func(f) = d {
            if let Some(b) = &mut f.body {
                strip.visit_block(b);
            }
        }
    }
}

/// Listings 9/30: introduce a mutex (or RWMutex) and guard every
/// statement touching the variable.
fn mutex_guard(file: &mut File, target: &Target, botch: u8, rw: bool) -> Result<(), String> {
    ensure_import(file, "sync");
    let mu_ty = if rw { "sync.RWMutex" } else { "sync.Mutex" };
    match target {
        Target::Field { type_name, field } => {
            let mu_name = format!("mu{}", capitalize(field));
            {
                let td = file
                    .find_type_mut(type_name)
                    .ok_or_else(|| format!("type `{type_name}` not in scope"))?;
                if let Type::Struct(fields) = &mut td.ty {
                    if !fields.iter().any(|f| f.names.iter().any(|n| n == &mu_name)) {
                        fields.push(Field {
                            names: vec![mu_name.clone()],
                            ty: Type::named(mu_ty),
                            span: Span::DUMMY,
                        });
                    }
                } else {
                    return Err(format!("`{type_name}` is not a struct"));
                }
            }
            // Guard statements in methods of the type.
            let methods: Vec<(String, String)> = file
                .funcs()
                .filter_map(|f| {
                    f.receiver.as_ref().and_then(|r| {
                        if r.ty.is_named(type_name) {
                            Some((f.name.clone(), r.name.clone()))
                        } else {
                            None
                        }
                    })
                })
                .collect();
            if methods.is_empty() {
                return Err(format!("no methods on `{type_name}` in scope"));
            }
            for (mname, recv) in methods {
                let f = file.find_func_mut(&mname).expect("listed method");
                let mu_expr = Expr::select(Expr::ident(recv), mu_name.clone());
                guard_in_func(f, field, &mu_expr, botch, rw);
            }
            Ok(())
        }
        Target::Local { func, var } => {
            let func = func.clone();
            let var = var.clone();
            let mu_name = format!("mu{}", capitalize(&var));
            let f = file
                .find_func_mut(&func)
                .ok_or_else(|| format!("function `{func}` not in scope"))?;
            // Declare the mutex right after the variable's declaration.
            let mut inserted = false;
            if let Some(body) = &mut f.body {
                let mut idx = None;
                for (i, s) in body.stmts.iter().enumerate() {
                    if stmt_declares_var(s, &var) {
                        idx = Some(i + 1);
                        break;
                    }
                }
                let at = idx.unwrap_or(0);
                body.stmts.insert(
                    at,
                    Stmt::Decl(VarDecl {
                        names: vec![mu_name.clone()],
                        ty: Some(Type::named(mu_ty)),
                        values: Vec::new(),
                        span: Span::DUMMY,
                    }),
                );
                inserted = true;
            }
            if !inserted {
                return Err("function has no body".into());
            }
            let mu_expr = Expr::ident(mu_name);
            guard_in_func(f, &var, &mu_expr, botch, rw);
            Ok(())
        }
        Target::Global { var } => {
            let var = var.clone();
            let mu_name = format!("mu{}", capitalize(&var));
            file.decls.insert(
                0,
                Decl::Var(VarDecl {
                    names: vec![mu_name.clone()],
                    ty: Some(Type::named(mu_ty)),
                    values: Vec::new(),
                    span: Span::DUMMY,
                }),
            );
            let funcs: Vec<String> = file.funcs().map(|f| f.name.clone()).collect();
            for name in funcs {
                let f = file.find_func_mut(&name).expect("listed function");
                let mu_expr = Expr::ident(mu_name.clone());
                guard_in_func(f, &var, &mu_expr, botch, rw);
            }
            Ok(())
        }
        Target::Pattern { .. } => Err("mutex guard needs a variable target".into()),
    }
}

/// Wraps every statement in `f` that directly uses `var` with
/// `mu.Lock(); S; mu.Unlock()` (RLock for read-only statements when `rw`).
/// Racy reads inside `return` expressions are hoisted into a guarded
/// temporary, since the statement itself cannot be wrapped.
fn guard_in_func(f: &mut FuncDecl, var: &str, mu: &Expr, botch: u8, rw: bool) {
    let var = var.to_owned();
    let mu = mu.clone();
    let mut hoisted = 0usize;
    map_stmt_lists(f, &mut |stmts| {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            let uses = stmt_uses_var_directly(&s, &var) || field_access_in_stmt(&s, &var);
            let declares = stmt_declares_var(&s, &var);
            let is_write = stmt_writes_var(&s, &var);
            if !uses || declares || is_go_stmt(&s) {
                out.push(s);
                continue;
            }
            // Botch 1: guard writes only — reads stay racy.
            if botch == 1 && !is_write {
                out.push(s);
                continue;
            }
            // Botch 2 (rw): RLock everywhere, including writes.
            let (lock, unlock) = if rw {
                if is_write && botch != 2 {
                    ("Lock", "Unlock")
                } else {
                    ("RLock", "RUnlock")
                }
            } else {
                ("Lock", "Unlock")
            };
            match s {
                // A `return` reading `var` cannot be wrapped (the lock
                // would never release); hoist the returned values into
                // guarded temporaries instead.
                Stmt::Return { values, span } if !values.is_empty() => {
                    let names: Vec<String> = (0..values.len())
                        .map(|k| format!("guarded{}{}", capitalize(&var), hoisted + k))
                        .collect();
                    hoisted += values.len();
                    out.push(method_stmt(mu.clone(), lock, vec![]));
                    out.push(Stmt::ShortVar {
                        names: names.clone(),
                        values,
                        span,
                    });
                    out.push(method_stmt(mu.clone(), unlock, vec![]));
                    out.push(Stmt::Return {
                        values: names.into_iter().map(Expr::ident).collect(),
                        span,
                    });
                }
                // Other return-bearing compound statements stay
                // unwrapped — a wrap would leak the lock on return, and
                // inner returns were already hoisted bottom-up.
                s if contains_return(&s) => out.push(s),
                s => {
                    out.push(method_stmt(mu.clone(), lock, vec![]));
                    out.push(s);
                    out.push(method_stmt(mu.clone(), unlock, vec![]));
                }
            }
        }
        out
    });
}

fn field_access_in_stmt(s: &Stmt, field: &str) -> bool {
    let mut found = false;
    fn scan_expr(e: &Expr, field: &str, found: &mut bool) {
        match e {
            Expr::Selector { name, expr, .. } => {
                if name == field {
                    *found = true;
                }
                scan_expr(expr, field, found);
            }
            Expr::FuncLit { .. } => {}
            Expr::Index { expr, index, .. } => {
                scan_expr(expr, field, found);
                scan_expr(index, field, found);
            }
            Expr::Call { fun, args, .. } => {
                // Method *names* are not field reads.
                if let Expr::Selector { expr, .. } = fun.as_ref() {
                    scan_expr(expr, field, found);
                } else {
                    scan_expr(fun, field, found);
                }
                for a in args {
                    scan_expr(a, field, found);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                scan_expr(lhs, field, found);
                scan_expr(rhs, field, found);
            }
            Expr::Unary { expr, .. } | Expr::Paren { expr, .. } => scan_expr(expr, field, found),
            _ => {}
        }
    }
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            for e in lhs.iter().chain(rhs) {
                scan_expr(e, field, &mut found);
            }
        }
        Stmt::Expr(e) => scan_expr(e, field, &mut found),
        Stmt::ShortVar { values, .. } | Stmt::Return { values, .. } => {
            for e in values {
                scan_expr(e, field, &mut found);
            }
        }
        Stmt::Range(st) => scan_expr(&st.expr, field, &mut found),
        Stmt::If(st) => scan_expr(&st.cond, field, &mut found),
        Stmt::IncDec { expr, .. } => scan_expr(expr, field, &mut found),
        _ => {}
    }
    found
}

fn stmt_writes_var(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::Assign { lhs, .. } => lhs.iter().any(|e| {
            e.root_ident() == Some(var)
                || matches!(e, Expr::Selector { name, .. } if name == var)
                || matches!(e, Expr::Index { expr, .. }
                    if expr.root_ident() == Some(var)
                        || matches!(expr.as_ref(), Expr::Selector { name, .. } if name == var))
        }),
        Stmt::IncDec { expr, .. } => expr.root_ident() == Some(var),
        Stmt::Expr(Expr::Call { fun, args, .. }) => {
            // delete(m, k) / append target writes.
            fun.as_ident() == Some("delete")
                && args
                    .first()
                    .map(|a| {
                        a.root_ident() == Some(var)
                            || matches!(a, Expr::Selector { name, .. } if name == var)
                    })
                    .unwrap_or(false)
        }
        _ => false,
    }
}

/// Listing 20: atomic operations on a shared integer.
fn atomic_counter(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    ensure_import(file, "sync/atomic");
    let (fnames, var, is_field): (Vec<String>, String, bool) = match target {
        Target::Local { func, var } => (vec![func.clone()], var.clone(), false),
        Target::Field { type_name, field } => {
            let methods: Vec<String> = file
                .funcs()
                .filter(|f| {
                    f.receiver
                        .as_ref()
                        .map(|r| r.ty.is_named(type_name))
                        .unwrap_or(false)
                })
                .map(|f| f.name.clone())
                .collect();
            if methods.is_empty() {
                return Err(format!("no methods on `{type_name}` in scope"));
            }
            (methods, field.clone(), true)
        }
        _ => return Err("atomic conversion needs a variable target".into()),
    };
    let mut changed = false;
    for fname in fnames {
        let f = file.find_func_mut(&fname).expect("listed function");
        changed |= atomics_in_func(f, &var, is_field, botch);
    }
    if changed {
        Ok(())
    } else {
        Err(format!("no integer accesses to `{var}` found"))
    }
}

fn atomics_in_func(f: &mut FuncDecl, var: &str, is_field: bool, botch: u8) -> bool {
    let mut changed = false;
    let is_target = |e: &Expr| -> bool {
        if is_field {
            matches!(e, Expr::Selector { name, .. } if name == var)
        } else {
            e.as_ident() == Some(var)
        }
    };
    let addr_of = |e: &Expr| -> Expr {
        Expr::Unary {
            op: UnOp::Addr,
            expr: Box::new(e.clone()),
            span: Span::DUMMY,
        }
    };
    // Pass 1: statement-level writes.
    map_stmt_lists(f, &mut |stmts| {
        stmts
            .into_iter()
            .map(|s| match &s {
                Stmt::Assign { lhs, op, rhs, .. } if lhs.len() == 1 && is_target(&lhs[0]) => {
                    changed = true;
                    match (op, &rhs[0]) {
                        // v = v + k → atomic.AddInt64(&v, k)
                        (
                            AssignOp::Assign,
                            Expr::Binary {
                                op: BinOp::Add,
                                lhs: bl,
                                rhs: br,
                                ..
                            },
                        ) if is_target(bl) => Stmt::Expr(Expr::call(
                            Expr::path("atomic.AddInt64"),
                            vec![addr_of(&lhs[0]), (**br).clone()],
                        )),
                        (AssignOp::Add, v) => Stmt::Expr(Expr::call(
                            Expr::path("atomic.AddInt64"),
                            vec![addr_of(&lhs[0]), v.clone()],
                        )),
                        (AssignOp::Sub, v) => Stmt::Expr(Expr::call(
                            Expr::path("atomic.AddInt64"),
                            vec![
                                addr_of(&lhs[0]),
                                Expr::Unary {
                                    op: UnOp::Neg,
                                    expr: Box::new(v.clone()),
                                    span: Span::DUMMY,
                                },
                            ],
                        )),
                        (_, v) => Stmt::Expr(Expr::call(
                            Expr::path("atomic.StoreInt64"),
                            vec![addr_of(&lhs[0]), v.clone()],
                        )),
                    }
                }
                Stmt::IncDec { expr, inc, .. } if is_target(expr) => {
                    changed = true;
                    Stmt::Expr(Expr::call(
                        Expr::path("atomic.AddInt64"),
                        vec![addr_of(expr), Expr::int(if *inc { 1 } else { -1 })],
                    ))
                }
                _ => s,
            })
            .collect()
    });
    // Pass 2: reads → atomic.LoadInt64 (skipped in the writes-only botch).
    if botch != 1 {
        struct Reads<'a> {
            var: &'a str,
            is_field: bool,
            changed: &'a mut bool,
        }
        impl MutVisitor for Reads<'_> {
            fn visit_expr(&mut self, e: &mut Expr) {
                // Do not rewrite under `&` (already an atomic operand).
                if let Expr::Unary { op: UnOp::Addr, .. } = e {
                    return;
                }
                let hit = if self.is_field {
                    matches!(e, Expr::Selector { name, .. } if name == self.var)
                } else {
                    e.as_ident() == Some(self.var)
                };
                if hit {
                    *self.changed = true;
                    let inner = e.clone();
                    *e = Expr::call(
                        Expr::path("atomic.LoadInt64"),
                        vec![Expr::Unary {
                            op: UnOp::Addr,
                            expr: Box::new(inner),
                            span: Span::DUMMY,
                        }],
                    );
                    return;
                }
                self.walk_expr(e);
            }

            fn visit_stmt(&mut self, s: &mut Stmt) {
                // Assignment targets stay raw (handled in pass 1).
                if let Stmt::Assign { rhs, .. } = s {
                    for e in rhs {
                        self.visit_expr(e);
                    }
                    return;
                }
                self.walk_stmt(s);
            }
        }
        if let Some(body) = &mut f.body {
            let mut r = Reads {
                var,
                is_field,
                changed: &mut changed,
            };
            r.visit_block(body);
        }
    }
    changed
}

/// Listings 22/24: copy the shared struct inside each goroutine before
/// modifying it.
fn struct_copy(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let local = format!("local{}", capitalize(&var));
    let f = target_func(file, target)?;
    let mut touched = 0usize;
    if let Some(body) = &mut f.body {
        rewrite_go_closures(body, |cb| {
            if !mentions(cb, &var) {
                return;
            }
            touched += 1;
            if botch == 1 && touched > 1 {
                return; // copy only the first closure — still racy
            }
            RenameIdent {
                from: &var,
                to: &local,
            }
            .visit_block(cb);
            // localVar := *var (the VM copies structs on explicit deref,
            // matching Go's value semantics).
            cb.stmts.insert(
                0,
                Stmt::short_var(
                    local.clone(),
                    Expr::Unary {
                        op: UnOp::Deref,
                        expr: Box::new(Expr::ident(var.clone())),
                        span: Span::DUMMY,
                    },
                ),
            );
        });
    }
    if touched == 0 {
        return Err(format!("no goroutine modifies `{var}`"));
    }
    Ok(())
}

/// Listing 10: route the captured result variable through a buffered
/// channel.
fn channel_result(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let chan = format!("{var}Chan");
    let f = target_func(file, target)?;
    let body = f.body.as_mut().ok_or("function has no body")?;

    // Find the go statement whose closure assigns the variable.
    let mut go_idx = None;
    for (i, s) in body.stmts.iter().enumerate() {
        if let Stmt::Go {
            call: Expr::Call { fun, .. },
            ..
        } = s
        {
            if let Expr::FuncLit { body: cb, .. } = fun.as_ref() {
                let mut assigns = false;
                golite::visit::walk_stmts(cb, &mut |x| {
                    if let Stmt::Assign { lhs, .. } = x {
                        if lhs.iter().any(|e| e.as_ident() == Some(var.as_str())) {
                            assigns = true;
                        }
                    }
                });
                if assigns {
                    go_idx = Some(i);
                    break;
                }
            }
        }
    }
    let go_idx = go_idx.ok_or_else(|| format!("no goroutine assigns `{var}`"))?;

    // Insert `varChan := make(chan error, 1)` before the launch.
    body.stmts.insert(
        go_idx,
        Stmt::ShortVar {
            names: vec![chan.clone()],
            values: vec![Expr::Make {
                ty: Type::Chan {
                    dir: ChanDir::Both,
                    elem: Box::new(Type::named("error")),
                },
                args: vec![Expr::int(1)],
                span: Span::DUMMY,
            }],
            span: Span::DUMMY,
        },
    );

    // Rewrite the closure: redeclare locally, send on the channel.
    if let Some(cb) = go_closure_mut(&mut body.stmts[go_idx + 1]) {
        if botch != 1 {
            convert_first_assign_to_decl(cb, &var);
        }
        // Botch 1 keeps the shared write — still racy.
        append_send_after_assign(cb, &var, &chan);
    }

    // Receive in the parent: at the top of each non-Done select case.
    let mut received = false;
    for s in body.stmts.iter_mut().skip(go_idx + 2) {
        if let Stmt::Select(st) = s {
            for c in &mut st.cases {
                if let CommClause::Recv { chan: ch, .. } = &c.comm {
                    let mut is_done = false;
                    golite::visit::walk_expr(ch, &mut |e| {
                        if let Expr::Selector { name, .. } = e {
                            if name == "Done" {
                                is_done = true;
                            }
                        }
                    });
                    if !is_done {
                        c.body.insert(
                            0,
                            Stmt::assign(
                                Expr::ident(var.clone()),
                                Expr::Unary {
                                    op: UnOp::Recv,
                                    expr: Box::new(Expr::ident(chan.clone())),
                                    span: Span::DUMMY,
                                },
                            ),
                        );
                        received = true;
                    }
                }
            }
        }
    }
    if !received {
        return Err("no select to receive the result in".into());
    }
    Ok(())
}

/// Inserts `chan <- var` after the first assignment to `var`, in
/// pre-order, in that assignment's own statement list. An assignment in
/// an `if` init is hoisted out of the `if` first, so the send can follow
/// it.
fn append_send_after_assign(block: &mut Block, var: &str, chan: &str) {
    fn assigns(s: &Stmt, var: &str) -> bool {
        match s {
            Stmt::Assign { lhs, .. } => lhs.iter().any(|e| e.as_ident() == Some(var)),
            Stmt::ShortVar { names, .. } => names.iter().any(|n| n == var),
            _ => false,
        }
    }
    struct SendAfter<'a> {
        var: &'a str,
        send: Stmt,
        done: bool,
    }
    impl MutVisitor for SendAfter<'_> {
        fn visit_list(&mut self, list: &mut Vec<Stmt>) {
            let mut i = 0;
            while !self.done && i < list.len() {
                if let Stmt::If(st) = &mut list[i] {
                    if st.init.as_deref().is_some_and(|s| assigns(s, self.var)) {
                        let init = st.init.take().expect("checked above");
                        list.insert(i, *init);
                    }
                }
                if assigns(&list[i], self.var) {
                    list.insert(i + 1, self.send.clone());
                    self.done = true;
                } else {
                    self.visit_stmt(&mut list[i]);
                }
                i += 1;
            }
        }
    }
    let send = Stmt::Send {
        chan: Expr::ident(chan.to_owned()),
        value: Expr::ident(var.to_owned()),
        span: Span::DUMMY,
    };
    let mut v = SendAfter {
        var,
        send,
        done: false,
    };
    v.visit_block(block);
    if !v.done {
        // No assignment found (already redeclared) — send at the end.
        block.stmts.push(v.send);
    }
}

/// Listing 7: independent instance per test case.
fn per_case_instance(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    let f = target_func(file, target)?;
    let body = f.body.as_mut().ok_or("function has no body")?;

    // Find and remove `var := ctor(...)`.
    let mut ctor = None;
    body.stmts.retain(|s| {
        if let Stmt::ShortVar { names, values, .. } = s {
            if names.len() == 1
                && names[0] == var
                && values.len() == 1
                && matches!(values[0], Expr::Call { .. })
            {
                ctor = Some(values[0].clone());
                return false;
            }
        }
        true
    });
    let ctor = ctor.ok_or_else(|| format!("`{var}` has no constructor declaration"))?;

    // Replace every remaining use with a fresh constructor call. Botch:
    // replace only the first use — remaining shares race (and the
    // leftover identifier no longer resolves → build error).
    let mut rep = ReplaceIdent::new(&var, &ctor, botch);
    rep.visit_block(body);
    if rep.count == 0 {
        return Err(format!("`{var}` is never used"));
    }
    Ok(())
}

/// Replaces uses of the identifier `var` with a copy of `with`; the
/// botched variant (`botch == 1`) replaces only the first.
struct ReplaceIdent<'a> {
    var: &'a str,
    with: &'a Expr,
    count: usize,
    limit: usize,
}

impl<'a> ReplaceIdent<'a> {
    fn new(var: &'a str, with: &'a Expr, botch: u8) -> Self {
        let limit = if botch == 1 { 1 } else { usize::MAX };
        ReplaceIdent {
            var,
            with,
            count: 0,
            limit,
        }
    }
}

impl MutVisitor for ReplaceIdent<'_> {
    fn visit_expr(&mut self, e: &mut Expr) {
        if e.as_ident() == Some(self.var) {
            if self.count < self.limit {
                self.count += 1;
                *e = self.with.clone();
            }
            return;
        }
        self.walk_expr(e);
    }
}

/// Listing 12: inline a fresh `rand.NewSource` at each use site.
fn fresh_source(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    let var = target_var(target)?.to_owned();
    // The global's initialiser.
    let init = file
        .decls
        .iter()
        .find_map(|d| match d {
            Decl::Var(v) if v.names.iter().any(|n| n == &var) => v.values.first().cloned(),
            _ => None,
        })
        .ok_or_else(|| format!("global `{var}` (with initialiser) not in scope"))?;

    let mut inline = ReplaceIdent::new(&var, &init, botch);
    for d in &mut file.decls {
        if let Decl::Func(f) = d {
            if let Some(b) = &mut f.body {
                inline.visit_block(b);
            }
        }
    }
    if inline.count == 0 {
        return Err(format!("`{var}` is never used"));
    }
    Ok(())
}

/// The naive fix: a package-level mutex serialising all goroutine bodies
/// and the parent's racy statements.
fn blanket_mutex(file: &mut File, target: &Target, botch: u8) -> Result<(), String> {
    ensure_import(file, "sync");
    let var = target_var(target)?.to_owned();
    let fname = target.func().unwrap_or("").to_owned();
    file.decls.insert(
        0,
        Decl::Var(VarDecl {
            names: vec!["drfixMu".into()],
            ty: Some(Type::named("sync.Mutex")),
            values: Vec::new(),
            span: Span::DUMMY,
        }),
    );
    let names: Vec<String> = if fname.is_empty() {
        file.funcs().map(|f| f.name.clone()).collect()
    } else {
        vec![fname]
    };
    for name in names {
        let Some(f) = file.find_func_mut(&name) else {
            continue;
        };
        let Some(body) = &mut f.body else { continue };
        // Lock every goroutine body wholesale.
        rewrite_go_closures(body, |cb| {
            cb.stmts
                .insert(0, method_stmt(Expr::ident("drfixMu"), "Lock", vec![]));
            cb.stmts.insert(
                1,
                Stmt::Defer {
                    call: Expr::method(Expr::ident("drfixMu"), "Unlock", vec![]),
                    span: Span::DUMMY,
                },
            );
        });
        if botch == 1 {
            continue; // parent accesses left unguarded — still racy
        }
        // Guard parent statements touching the variable. If one of them
        // is (or contains) a Wait, this deadlocks — the classic blanket
        // failure the paper warns about.
        let mu_expr = Expr::ident("drfixMu");
        guard_in_func(f, &var, &mu_expr, 0, false);
    }
    Ok(())
}

// ----------------------------------------------------------------- shared

/// Applies `tf` to the body of every `go func(){…}()` and `x.Go(func…)`
/// closure below `body`, wherever it sits. A matched closure's own body
/// is not searched for further launches.
fn rewrite_go_closures(body: &mut Block, tf: impl FnMut(&mut Block)) {
    struct Launches<F>(F);
    impl<F: FnMut(&mut Block)> MutVisitor for Launches<F> {
        fn visit_stmt(&mut self, s: &mut Stmt) {
            if let Some(cb) = go_closure_mut(s) {
                (self.0)(cb);
                return;
            }
            if let Stmt::Expr(Expr::Call { fun, args, .. }) = s {
                if matches!(fun.as_ref(), Expr::Selector { name, .. } if name == "Go") {
                    for a in args {
                        match a {
                            Expr::FuncLit { body, .. } => (self.0)(body),
                            a => self.visit_expr(a),
                        }
                    }
                    return;
                }
            }
            self.walk_stmt(s);
        }
    }
    Launches(tf).visit_block(body);
}

/// Whether `var` occurs as an identifier anywhere in `body`.
fn mentions(body: &Block, var: &str) -> bool {
    let mut found = false;
    golite::visit::walk_exprs(body, &mut |e| found |= e.as_ident() == Some(var));
    found
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;

    #[test]
    fn local_copy_handles_multibyte_variable_names() {
        // `über` starts with a two-byte char: the old local-name code
        // byte-sliced at index 1 and panicked before even checking use.
        let src = "package p\n\nfunc f() {\n\tgo func() {\n\t\twork()\n\t}()\n}\n";
        let file = golite::parse_file(src).unwrap();
        let target = Target::Local {
            func: "f".into(),
            var: "über".into(),
        };
        let res = apply(StrategyKind::LocalCopyInGoroutine, &file, &target, 0);
        assert!(res.is_err(), "unused var should decline, not panic");
    }

    #[test]
    fn local_copy_renames_multibyte_variable_uses() {
        // The lexer is ASCII-only, so build the multi-byte identifier by
        // renaming a parsed AST — race reports carry names verbatim.
        let src = "package p\n\nfunc f() {\n\tx := 1\n\tgo func() {\n\t\tuse(x)\n\t}()\n}\n";
        let mut file = golite::parse_file(src).unwrap();
        let body = file.find_func_mut("f").unwrap().body.as_mut().unwrap();
        RenameIdent {
            from: "x",
            to: "über",
        }
        .visit_block(body);
        let target = Target::Local {
            func: "f".into(),
            var: "über".into(),
        };
        let patched = apply(StrategyKind::LocalCopyInGoroutine, &file, &target, 0).unwrap();
        let printed = golite::print_file(&patched);
        assert!(printed.contains("localÜber := über"), "{printed}");
        assert!(printed.contains("use(localÜber)"), "{printed}");
    }

    /// A racing goroutine at each position the closure rewrite must
    /// reach besides plain blocks: a `switch` case, a `select` case, a
    /// labeled loop and a function literal.
    const NESTED_LAUNCHES: [(&str, &str); 4] = [
        ("switch case", "\tswitch k {\n\tcase 1:\n\t\tLAUNCH\n\t}\n"),
        ("select case", "\tselect {\n\tcase <-ch:\n\t\tLAUNCH\n\t}\n"),
        (
            "labeled for",
            "L:\n\tfor i := 0; i < 2; i++ {\n\t\tLAUNCH\n\t}\n",
        ),
        ("function literal", "\trun(func() {\n\t\tLAUNCH\n\t})\n"),
    ];

    #[test]
    fn closure_strategies_reach_nested_goroutines() {
        let launch = "go func() {\n\t\t\tx = 1\n\t\t}()";
        let target = Target::Local {
            func: "f".into(),
            var: "x".into(),
        };
        for (pos, shape) in NESTED_LAUNCHES {
            let src = format!(
                "package p\n\nfunc f(k int, ch chan int) {{\n\tx := 0\n{}\tx = 2\n}}\n",
                shape.replace("LAUNCH", launch)
            );
            let file = golite::parse_file(&src).unwrap();
            for (kind, copy) in [
                (StrategyKind::LocalCopyInGoroutine, "localX := x"),
                (StrategyKind::StructCopy, "localX := *x"),
            ] {
                let patched = apply(kind, &file, &target, 0)
                    .unwrap_or_else(|e| panic!("{kind:?} in a {pos}: {e}"));
                let printed = golite::print_file(&patched);
                for needle in [copy, "localX = 1", "x = 2"] {
                    assert!(printed.contains(needle), "{kind:?} in a {pos}:\n{printed}");
                }
                golite::parse_file(&printed).unwrap();
            }
        }
    }

    #[test]
    fn sync_map_range_retargets_only_the_loops_own_exits() {
        let src = concat!(
            "package p\n\n",
            "func f() {\n",
            "\tm := make(map[int]int)\n",
            "\tfor k, v := range m {\n",
            "\t\tswitch k {\n",
            "\t\tcase 1:\n",
            "\t\t\tcontinue\n",
            "\t\tcase 2:\n",
            "\t\t\tbreak\n",
            "\t\t}\n",
            "\t\tfor {\n",
            "\t\t\tbreak\n",
            "\t\t}\n",
            "\t\tuse(v)\n",
            "\t}\n",
            "}\n",
        );
        let file = golite::parse_file(src).unwrap();
        let target = Target::Local {
            func: "f".into(),
            var: "m".into(),
        };
        let patched = apply(StrategyKind::MapToSyncMap, &file, &target, 0).unwrap();
        let printed = golite::print_file(&patched);
        assert!(
            printed.contains("m.Range(func(k, v interface{}) bool {"),
            "{printed}"
        );
        assert!(!printed.contains("continue"), "{printed}");
        // The `continue` and the callback's closing `return true`.
        assert_eq!(printed.matches("return true").count(), 2, "{printed}");
        // Both `break`s exit a `switch` or a nested loop, not the callback.
        assert_eq!(printed.matches("break").count(), 2, "{printed}");
        assert!(!printed.contains("return false"), "{printed}");
    }

    #[test]
    fn mutex_guard_hoists_racy_return_reads() {
        let src = concat!(
            "package p\n\n",
            "func f() {\n",
            "\tn := 0\n",
            "\tgo func() {\n",
            "\t\tn = n + 1\n",
            "\t}()\n",
            "\treturn n\n",
            "}\n",
        );
        let file = golite::parse_file(src).unwrap();
        let target = Target::Local {
            func: "f".into(),
            var: "n".into(),
        };
        let patched = apply(StrategyKind::MutexGuard, &file, &target, 0).unwrap();
        let printed = golite::print_file(&patched);
        let hoist = printed
            .find("guardedN0 := n")
            .expect("return value hoisted into a temporary");
        let ret = printed.find("return guardedN0").expect("return rewritten");
        assert!(hoist < ret, "{printed}");
        // The hoist is guarded: Lock before, Unlock between hoist and return.
        let lock = printed.rfind("muN.Lock()").expect("lock inserted");
        let unlock = printed.rfind("muN.Unlock()").expect("unlock inserted");
        assert!(lock < hoist && hoist < unlock && unlock < ret, "{printed}");
    }

    #[test]
    fn mutex_guard_field_return_hoist_uses_field_scan() {
        // The racy read sits inside `return len(m.samples)` — reachable
        // only through the field-access scan of return values.
        let src = concat!(
            "package p\n\n",
            "type M struct {\n\tsamples []int\n}\n\n",
            "func (m *M) last() int {\n",
            "\treturn len(m.samples)\n",
            "}\n\n",
            "func (m *M) add(v int) {\n",
            "\tm.samples = append(m.samples, v)\n",
            "}\n",
        );
        let file = golite::parse_file(src).unwrap();
        let target = Target::Field {
            type_name: "M".into(),
            field: "samples".into(),
        };
        let patched = apply(StrategyKind::MutexGuard, &file, &target, 0).unwrap();
        let printed = golite::print_file(&patched);
        assert!(
            printed.contains("guardedSamples0 := len(m.samples)"),
            "{printed}"
        );
        assert!(printed.contains("return guardedSamples0"), "{printed}");
        golite::parse_file(&printed).unwrap();
    }

    #[test]
    fn mutex_guard_botch_writes_only_leaves_returns_racy() {
        let src = concat!(
            "package p\n\n",
            "func f() {\n",
            "\tn := 0\n",
            "\tn = n + 1\n",
            "\treturn n\n",
            "}\n",
        );
        let file = golite::parse_file(src).unwrap();
        let target = Target::Local {
            func: "f".into(),
            var: "n".into(),
        };
        let patched = apply(StrategyKind::MutexGuard, &file, &target, 1).unwrap();
        let printed = golite::print_file(&patched);
        assert!(printed.contains("return n"), "{printed}");
        assert!(!printed.contains("guardedN0"), "{printed}");
    }
}
