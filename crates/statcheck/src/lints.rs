//! AST-level lints that need no dataflow: call-arity mismatches,
//! `sync.Map` misuse, `WaitGroup` double-adds, mixed atomic/plain
//! access, and mutex-by-value copies.
//!
//! Error-tier rules here (`arity-mismatch`, `syncmap-range`,
//! `waitgroup-double-add`) flag shapes that fail on every execution;
//! the rest are heuristics and stay on the warning tier.
//!
//! All rules share one pre-order walk of the file (`Lints`); only
//! `mixed-atomic` walks again, and only in files that call `atomic.*`.

use crate::cfg::path_of;
use golite::ast::{Decl, Expr, File, FuncDecl, FuncSig, Stmt, Type, UnOp, VarDecl};
use golite::visit::Visit;
use golite::{Diagnostic, Span};
use std::collections::{BTreeMap, BTreeSet};

/// Runs every AST lint over `file`.
pub fn ast_lints(file: &File) -> Vec<Diagnostic> {
    lint_bodies(file, |_| true)
}

/// [`ast_lints`], walking only the bodies of the functions whose index in
/// `file.decls` is `relevant` (each signature is still checked, and
/// `mixed-atomic` still scans every body of a file that calls `atomic.*`). A
/// skipped body must fail [`crate::cfg::relevant`]: no call, composite
/// literal, selector, unary operator, typed `var`, `go` or package-level
/// name. It is walked anyway where a lint could still fire on it:
/// `copylocks` when a parameter passes a lock-bearing type by value.
pub(crate) fn lint_bodies(file: &File, relevant: impl Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut lints = Lints::new(file);
    for (i, d) in file.decls.iter().enumerate() {
        match d {
            Decl::Func(f) => {
                lints.sync_locals.clear();
                lints.copy_env = lints.copylocks_signature(f);
                if let Some(body) = &f.body {
                    if relevant(i) || lints.may_fire_on_plain_body() {
                        lints.walk_list(&body.stmts);
                    }
                }
                lints.copy_env = None;
            }
            Decl::Var(v) | Decl::Const(v) => {
                for e in &v.values {
                    lints.walk_expr(e);
                }
            }
            Decl::Type(_) => {}
        }
    }
    let Lints {
        mut diags,
        atomic_paths,
        ..
    } = lints;
    mixed_atomic_lint(file, &atomic_paths, &mut diags);
    diags.sort_by(|a, b| (a.span.lo, a.span.hi, &a.rule).cmp(&(b.span.lo, b.span.hi, &b.rule)));
    diags.dedup();
    diags
}

// ---- the fused walk ---------------------------------------------------------

/// The state of every lint that rides the shared walk.
struct Lints<'a> {
    diags: Vec<Diagnostic>,
    /// `syncmap-range`: package-level `sync.Map` variables, struct fields
    /// of that type, and the current function's locals declared so far
    /// (Go declares before use, so the ordered walk sees declarations
    /// ahead of their ranges).
    sync_globals: BTreeSet<&'a str>,
    sync_fields: BTreeSet<&'a str>,
    sync_locals: BTreeSet<&'a str>,
    /// `mixed-atomic`: paths updated through `atomic.*` calls.
    atomic_paths: BTreeSet<String>,
    /// `copylocks`: types whose values embed a lock.
    bearing: BTreeSet<String>,
    /// `copylocks`: the current function's shallow local type env; `None`
    /// outside function bodies, or when no type bears a lock.
    copy_env: Option<BTreeMap<String, (String, bool)>>,
}

impl<'a> Lints<'a> {
    fn new(file: &'a File) -> Self {
        let mut sync_globals = BTreeSet::new();
        let mut sync_fields = BTreeSet::new();
        for d in &file.decls {
            match d {
                Decl::Var(v) if v.ty.as_ref().is_some_and(is_sync_map) => {
                    sync_globals.extend(v.names.iter().map(String::as_str));
                }
                Decl::Type(t) => {
                    if let Type::Struct(fs) = &t.ty {
                        for f in fs.iter().filter(|f| is_sync_map(&f.ty)) {
                            sync_fields.extend(f.names.iter().map(String::as_str));
                        }
                    }
                }
                _ => {}
            }
        }
        Lints {
            diags: Vec::new(),
            sync_globals,
            sync_fields,
            sync_locals: BTreeSet::new(),
            atomic_paths: BTreeSet::new(),
            bearing: lock_bearing_types(file),
            copy_env: None,
        }
    }

    /// Whether a lint can fire on a body [`crate::cfg::relevant`] rejects:
    /// a by-value lock-bearing parameter can be copied by a plain
    /// assignment.
    fn may_fire_on_plain_body(&self) -> bool {
        self.copy_env.as_ref().is_some_and(|env| {
            env.values()
                .any(|(t, ptr)| !ptr && self.bearing.contains(t))
        })
    }
}

impl<'a> Visit<'a> for Lints<'a> {
    fn list(&mut self, list: &'a [Stmt]) -> bool {
        waitgroup_lint(list, &mut self.diags);
        true
    }

    fn stmt(&mut self, s: &'a Stmt) -> bool {
        self.syncmap_stmt(s);
        if let Some(env) = &mut self.copy_env {
            copylocks_stmt(env, &self.bearing, &mut self.diags, s);
        }
        true
    }

    fn expr(&mut self, e: &'a Expr) -> bool {
        arity_lint(e, &mut self.diags);
        if let Some(p) = atomic_target(e) {
            self.atomic_paths.insert(p);
        }
        true
    }
}

// ---- arity-mismatch (error) -------------------------------------------------

fn flat_param_count(sig: &FuncSig) -> usize {
    sig.param_names().count()
}

fn arity_lint(e: &Expr, diags: &mut Vec<Diagnostic>) {
    let Expr::Call {
        fun, args, span, ..
    } = e
    else {
        return;
    };
    let Expr::FuncLit { sig, .. } = fun.as_ref() else {
        return;
    };
    if sig.params.iter().any(|p| p.variadic) {
        return;
    }
    let want = flat_param_count(sig);
    if args.len() != want {
        diags.push(Diagnostic::error(
            "arity-mismatch",
            format!(
                "function literal takes {want} argument{} but is called with {}",
                if want == 1 { "" } else { "s" },
                args.len()
            ),
            *span,
        ));
    }
}

// ---- syncmap-range (error) --------------------------------------------------

fn is_sync_map(ty: &Type) -> bool {
    ty.is_named("sync.Map")
}

impl<'a> Lints<'a> {
    fn syncmap_stmt(&mut self, s: &'a Stmt) {
        let range = match s {
            Stmt::Decl(VarDecl {
                names, ty: Some(t), ..
            }) if is_sync_map(t) => {
                self.sync_locals.extend(names.iter().map(String::as_str));
                return;
            }
            Stmt::ShortVar { names, values, .. } => {
                if let [Expr::CompositeLit { ty: Some(t), .. }] = values.as_slice() {
                    if is_sync_map(t) {
                        self.sync_locals.extend(names.iter().map(String::as_str));
                    }
                }
                return;
            }
            Stmt::Range(r) => r,
            _ => return,
        };
        let hit = match &range.expr {
            Expr::Ident { name, .. } => {
                self.sync_globals.contains(name.as_str())
                    || self.sync_locals.contains(name.as_str())
            }
            Expr::Selector { name, .. } => self.sync_fields.contains(name.as_str()),
            _ => false,
        };
        if hit {
            let name = path_of(&range.expr).unwrap_or_else(|| "sync.Map".to_owned());
            self.diags.push(Diagnostic::error(
                "syncmap-range",
                format!("cannot range over `{name}` of type sync.Map; use its Range method"),
                range.expr.span(),
            ));
        }
    }
}

// ---- waitgroup-double-add (error) -------------------------------------------

/// Matches `p.Add(...)` and returns the receiver path.
fn add_receiver(e: &Expr) -> Option<(String, Span)> {
    let Expr::Call { fun, span, .. } = e else {
        return None;
    };
    let Expr::Selector { expr, name, .. } = fun.as_ref() else {
        return None;
    };
    if name != "Add" {
        return None;
    }
    Some((path_of(expr)?, *span))
}

/// The first `path.Add(...)` call in a statement list, nested ones included.
struct FindAdd<'p> {
    path: &'p str,
    found: Option<Span>,
}

impl Visit<'_> for FindAdd<'_> {
    fn expr(&mut self, e: &Expr) -> bool {
        if self.found.is_none() {
            if let Some((p, span)) = add_receiver(e) {
                if p == self.path {
                    self.found = Some(span);
                }
            }
        }
        self.found.is_none()
    }
}

fn waitgroup_lint(list: &[Stmt], diags: &mut Vec<Diagnostic>) {
    for w in list.windows(2) {
        let Stmt::Expr(e) = &w[0] else { continue };
        let Some((path, _)) = add_receiver(e) else {
            continue;
        };
        let Stmt::Go { call, .. } = &w[1] else {
            continue;
        };
        let Expr::Call { fun, .. } = call else {
            continue;
        };
        let Expr::FuncLit { body, .. } = fun.as_ref() else {
            continue;
        };
        let mut find = FindAdd {
            path: &path,
            found: None,
        };
        find.walk_list(&body.stmts);
        if let Some(span) = find.found {
            diags.push(Diagnostic::error(
                "waitgroup-double-add",
                format!(
                    "`{path}.Add` is called both before `go` and inside the goroutine: the counter never drains and Wait deadlocks"
                ),
                span,
            ));
        }
    }
}

// ---- mixed-atomic (warning) -------------------------------------------------

/// Matches `atomic.Op(&x, ...)` and returns the path of `x`.
fn atomic_target(e: &Expr) -> Option<String> {
    let Expr::Call { fun, args, .. } = e else {
        return None;
    };
    let Expr::Selector { expr, .. } = fun.as_ref() else {
        return None;
    };
    if expr.as_ident() != Some("atomic") {
        return None;
    }
    let first = args.first()?;
    let Expr::Unary {
        op: UnOp::Addr,
        expr: inner,
        ..
    } = first
    else {
        return None;
    };
    path_of(inner)
}

/// Reports plain accesses, inside goroutines, to the paths the shared
/// walk saw updated atomically.
fn mixed_atomic_lint(file: &File, atomic_paths: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    if atomic_paths.is_empty() {
        return;
    }
    let mut scan = PlainAccesses {
        atomics: atomic_paths,
        in_go: false,
        plain: BTreeMap::new(),
    };
    for f in file.funcs() {
        if let Some(body) = &f.body {
            scan.walk_list(&body.stmts);
        }
    }
    for (path, span) in scan.plain {
        diags.push(Diagnostic::warning(
            "mixed-atomic",
            format!(
                "`{path}` is updated atomically elsewhere but accessed with a plain operation here"
            ),
            span,
        ));
    }
}

/// The first plain access to each atomically updated path. Plain accesses
/// count only inside goroutine bodies: a plain read after `wg.Wait()` in
/// the parent is ordered and idiomatic.
struct PlainAccesses<'p> {
    atomics: &'p BTreeSet<String>,
    /// Inside the body of a `go func() { ... }()` literal.
    in_go: bool,
    plain: BTreeMap<String, Span>,
}

impl Visit<'_> for PlainAccesses<'_> {
    fn stmt(&mut self, s: &Stmt) -> bool {
        let Stmt::Go {
            call: Expr::Call { fun, args, .. },
            ..
        } = s
        else {
            return true;
        };
        let Expr::FuncLit { body, .. } = fun.as_ref() else {
            return true;
        };
        let outer = std::mem::replace(&mut self.in_go, true);
        self.walk_list(&body.stmts);
        self.in_go = outer;
        args.iter().for_each(|a| self.walk_expr(a));
        false
    }

    fn expr(&mut self, e: &Expr) -> bool {
        if atomic_target(e).is_some() {
            return false; // the atomic call itself is fine
        }
        if self.in_go {
            if let Some(p) = path_of(e).filter(|p| self.atomics.contains(p)) {
                self.plain.entry(p).or_insert_with(|| e.span());
                return false;
            }
        }
        true
    }
}

// ---- copylocks (warning) ----------------------------------------------------

/// Type names whose values embed a lock (directly or transitively).
fn lock_bearing_types(file: &File) -> BTreeSet<String> {
    let mut bearing: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for d in &file.decls {
            let Decl::Type(t) = d else { continue };
            if bearing.contains(&t.name) {
                continue;
            }
            let Type::Struct(fields) = &t.ty else {
                continue;
            };
            let has_lock = fields.iter().any(|f| {
                if let Type::Named { .. } = &f.ty {
                    let p = f.ty.as_named_path().unwrap_or_default();
                    p == "sync.Mutex" || p == "sync.RWMutex" || bearing.contains(&p)
                } else {
                    false
                }
            });
            if has_lock {
                bearing.insert(t.name.clone());
                changed = true;
            }
        }
        if !changed {
            return bearing;
        }
    }
}

/// `(type name, is pointer)` of a value-producing expression, given a
/// shallow local type environment.
fn value_type(e: &Expr, env: &BTreeMap<String, (String, bool)>) -> Option<(String, bool)> {
    match e {
        Expr::Ident { name, .. } => env.get(name).cloned(),
        Expr::CompositeLit { ty: Some(t), .. } => Some((t.as_named_path()?, false)),
        Expr::Unary {
            op: UnOp::Addr,
            expr,
            ..
        } => {
            let (t, _) = value_type(expr, env)?;
            Some((t, true))
        }
        Expr::Unary {
            op: UnOp::Deref,
            expr,
            ..
        } => {
            let (t, ptr) = value_type(expr, env)?;
            ptr.then_some((t, false))
        }
        Expr::New { ty, .. } => Some((ty.as_named_path()?, true)),
        Expr::Paren { expr, .. } => value_type(expr, env),
        _ => None,
    }
}

fn named_of(ty: &Type) -> Option<(String, bool)> {
    match ty {
        Type::Pointer(inner) => Some((inner.as_named_path()?, true)),
        other => Some((other.as_named_path()?, false)),
    }
}

fn check_copy(
    env: &mut BTreeMap<String, (String, bool)>,
    bearing: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
    names: &[impl AsRef<str>],
    values: &[Expr],
    span: Span,
) {
    for (i, name) in names.iter().enumerate() {
        let name = name.as_ref();
        if name == "_" {
            continue; // `_ = x` discards the value; nothing retains the copy
        }
        let Some(v) = values.get(i) else { continue };
        let Some((t, ptr)) = value_type(v, env) else {
            continue;
        };
        let copies = !ptr && bearing.contains(&t) && !matches!(v, Expr::CompositeLit { .. });
        if copies {
            diags.push(Diagnostic::warning(
                "copylocks",
                format!("assignment copies `{t}`, which contains a mutex"),
                span,
            ));
        }
        env.insert(name.to_owned(), (t, ptr));
    }
}

impl Lints<'_> {
    /// Checks `f`'s receiver and parameters and returns the function's
    /// initial type env; `None` when no type of the file bears a lock.
    fn copylocks_signature(&mut self, f: &FuncDecl) -> Option<BTreeMap<String, (String, bool)>> {
        if self.bearing.is_empty() {
            return None;
        }
        let (bearing, diags) = (&self.bearing, &mut self.diags);
        let mut env: BTreeMap<String, (String, bool)> = BTreeMap::new();
        if let Some(r) = &f.receiver {
            if let Some((t, ptr)) = named_of(&r.ty) {
                if !ptr && bearing.contains(&t) {
                    diags.push(Diagnostic::warning(
                        "copylocks",
                        format!(
                            "method receiver `{}` passes `{t}` by value, copying its mutex",
                            r.name
                        ),
                        r.span,
                    ));
                }
                env.insert(r.name.clone(), (t, ptr));
            }
        }
        for p in &f.sig.params {
            if let Some((t, ptr)) = named_of(&p.ty) {
                if !ptr && bearing.contains(&t) {
                    for name in &p.names {
                        diags.push(Diagnostic::warning(
                            "copylocks",
                            format!("parameter `{name}` passes `{t}` by value, copying its mutex"),
                            p.span,
                        ));
                    }
                }
                for name in &p.names {
                    env.insert(name.clone(), (t.clone(), ptr));
                }
            }
        }
        Some(env)
    }
}

/// The `copylocks` step for one statement of a function body. The walk is
/// ordered and Go declares before use, so one pass keeps the env accurate
/// enough for this shallow check.
fn copylocks_stmt(
    env: &mut BTreeMap<String, (String, bool)>,
    bearing: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
    s: &Stmt,
) {
    match s {
        Stmt::ShortVar {
            names,
            values,
            span,
            ..
        } => check_copy(env, bearing, diags, names, values, *span),
        Stmt::Decl(d) => {
            if let Some(t) = &d.ty {
                if let Some((t, ptr)) = named_of(t) {
                    for name in &d.names {
                        env.insert(name.clone(), (t.clone(), ptr));
                    }
                }
            } else {
                check_copy(env, bearing, diags, &d.names, &d.values, d.span);
            }
        }
        Stmt::Assign { lhs, rhs, span, .. } => {
            let names: Option<Vec<&str>> = lhs.iter().map(Expr::as_ident).collect();
            if let Some(names) = names {
                check_copy(env, bearing, diags, &names, rhs, *span);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        ast_lints(&golite::parse_file(src).expect("test source parses"))
    }

    fn rules(src: &str) -> Vec<String> {
        lint(src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn skipped_bodies_keep_the_lints_that_can_fire_on_them() {
        let filtered = |file: &File| {
            let env = crate::cfg::FileEnv::new(file);
            lint_bodies(file, |i| match &file.decls[i] {
                Decl::Func(f) => crate::cfg::relevant(f, &env),
                _ => true,
            })
        };
        // A plain copy of a by-value lock-bearing parameter.
        let src = "package p\n\nimport \"sync\"\n\ntype C struct {\n\tmu sync.Mutex\n}\n\nfunc use(c C) {\n\td := c\n\t_ = d\n}\n";
        let file = golite::parse_file(src).expect("test source parses");
        assert!(!filtered(&file).is_empty());
        assert_eq!(filtered(&file), ast_lints(&file));
        // A local `sync.Map` stays in its function: `B` ranges over its
        // own map parameter.
        let src = "package p\n\nimport \"sync\"\n\nfunc A() {\n\tm := sync.Map{}\n\t_ = m\n}\n\nfunc B(m map[int]int) {\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n";
        let file = golite::parse_file(src).expect("test source parses");
        assert_eq!(filtered(&file), vec![]);
        assert_eq!(ast_lints(&file), vec![]);
    }

    #[test]
    fn arity_mismatch_is_flagged() {
        let r = rules("package p\n\nfunc F() {\n\tgo func(x int) {\n\t\t_ = x\n\t}()\n}\n");
        assert_eq!(r, vec!["arity-mismatch"]);
    }

    #[test]
    fn matching_arity_is_clean() {
        let r = rules("package p\n\nfunc F() {\n\tgo func(x int) {\n\t\t_ = x\n\t}(1)\n}\n");
        assert!(r.is_empty());
    }

    #[test]
    fn range_over_sync_map_is_flagged() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\nvar m sync.Map\n\nfunc F() {\n\tfor range m {\n\t}\n}\n",
        );
        assert_eq!(r, vec!["syncmap-range"]);
    }

    #[test]
    fn range_over_plain_map_is_clean() {
        let r = rules(
            "package p\n\nfunc F(m map[string]int) {\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn waitgroup_double_add_is_flagged() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\nfunc F() {\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\tgo func() {\n\t\twg.Add(1)\n\t\tdefer wg.Done()\n\t}()\n\twg.Wait()\n}\n",
        );
        assert_eq!(r, vec!["waitgroup-double-add"]);
    }

    #[test]
    fn single_add_is_clean() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\nfunc F() {\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\tgo func() {\n\t\tdefer wg.Done()\n\t}()\n\twg.Wait()\n}\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn mixed_atomic_in_goroutine_warns() {
        let d = lint(
            "package p\n\nimport (\n\t\"sync\"\n\t\"sync/atomic\"\n)\n\nfunc F() {\n\tvar n int64\n\tvar wg sync.WaitGroup\n\twg.Add(2)\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tatomic.AddInt64(&n, 1)\n\t}()\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tn = n + 1\n\t}()\n\twg.Wait()\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "mixed-atomic");
        assert_eq!(d[0].severity, golite::Severity::Warning);
    }

    #[test]
    fn plain_read_after_wait_is_clean() {
        let r = rules(
            "package p\n\nimport (\n\t\"sync\"\n\t\"sync/atomic\"\n)\n\nfunc F() int64 {\n\tvar n int64\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\tgo func() {\n\t\tdefer wg.Done()\n\t\tatomic.AddInt64(&n, 1)\n\t}()\n\twg.Wait()\n\treturn n\n}\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn mutex_by_value_param_warns() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\ntype Counter struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc use(c Counter) int {\n\treturn c.n\n}\n",
        );
        assert_eq!(r, vec!["copylocks"]);
    }

    #[test]
    fn mutex_by_pointer_is_clean() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\ntype Counter struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc use(c *Counter) int {\n\treturn c.n\n}\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn value_copy_of_lock_bearing_struct_warns() {
        let r = rules(
            "package p\n\nimport \"sync\"\n\ntype Counter struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc F(c *Counter) {\n\tlocal := *c\n\t_ = local\n}\n",
        );
        assert_eq!(r, vec!["copylocks"]);
    }
}
