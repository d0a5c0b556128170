//! Relevance analysis: which statements carry concurrency structure or
//! touch the variables of interest.

use golite::ast::*;
use golite::span::LineMap;
use golite::visit::{self, Visit};

/// Method names treated as concurrency constructs and preserved verbatim
/// in skeletons (§4.3 lists `go`, `WaitGroup`, `sync`, `Lock`, `Unlock`,
/// `atomic`, channels; we include the full `sync`/`errgroup`/`testing`
/// vocabulary used in the corpus).
pub const CONCURRENCY_METHODS: &[&str] = &[
    "Lock",
    "Unlock",
    "RLock",
    "RUnlock",
    "TryLock",
    "Add",
    "Done",
    "Wait",
    "Load",
    "Store",
    "Delete",
    "Range",
    "LoadOrStore",
    "CompareAndSwap",
    "Go",
    "Run",
    "Parallel",
    "AddInt32",
    "LoadInt32",
    "StoreInt32",
    "CompareAndSwapInt32",
    "AddInt64",
    "LoadInt64",
    "StoreInt64",
    "CompareAndSwapInt64",
];

/// Package roots whose member calls count as concurrency constructs.
pub const CONCURRENCY_PACKAGES: &[&str] = &["sync", "atomic"];

/// Returns `true` if the called name is a concurrency construct.
pub fn is_concurrency_call(name: &str) -> bool {
    CONCURRENCY_METHODS.contains(&name)
}

/// Returns `true` if a type mentions a sync primitive or channel — type
/// declarations like Listing 8's `lockMap sync.Map` are kept in skeletons.
pub fn type_is_concurrency_relevant(ty: &Type) -> bool {
    match ty {
        Type::Named { path, .. } => {
            let joined = path.join(".");
            matches!(
                joined.as_str(),
                "sync.Mutex" | "sync.RWMutex" | "sync.WaitGroup" | "sync.Map"
            )
        }
        Type::Pointer(t) | Type::Slice(t) => type_is_concurrency_relevant(t),
        Type::Array { elem, .. } => type_is_concurrency_relevant(elem),
        Type::Map { key, value } => {
            type_is_concurrency_relevant(key) || type_is_concurrency_relevant(value)
        }
        Type::Chan { .. } => true,
        Type::Struct(fields) => fields.iter().any(|f| type_is_concurrency_relevant(&f.ty)),
        Type::Func(_) | Type::Interface(_) => false,
    }
}

/// Collects the "shared variables of interest" from the racy lines
/// (§4.3: "uses the variable names found on the lines involved in race").
///
/// The racy variable is accessed at *both* access sites, so we prefer the
/// intersection of the per-line candidates: first the intersection of
/// write targets, then the intersection of all mentioned variables, then
/// the union of targets, then everything (minus call names).
pub fn vars_on_lines(file: &File, lm: &LineMap, lines: &[u32]) -> Vec<String> {
    let mut per_line_targets: Vec<Vec<String>> = Vec::new();
    let mut per_line_all: Vec<Vec<String>> = Vec::new();
    for &line in lines {
        let Some(span) = lm.line_span(line) else {
            continue;
        };
        let mut targets = Vec::new();
        let mut all = Vec::new();
        for f in file.funcs() {
            let Some(body) = &f.body else { continue };
            visit::walk_stmts(body, &mut |s| {
                let ss = s.span();
                if ss.lo < span.lo || ss.lo >= span.hi {
                    return;
                }
                match s {
                    Stmt::ShortVar { names, .. } => {
                        for n in names {
                            push_unique(&mut targets, n);
                        }
                    }
                    Stmt::Assign { lhs, .. } => {
                        for e in lhs {
                            if let Some(n) = e.root_ident() {
                                push_unique(&mut targets, n);
                            }
                        }
                    }
                    Stmt::IncDec { expr, .. } => {
                        if let Some(n) = expr.root_ident() {
                            push_unique(&mut targets, n);
                        }
                    }
                    _ => {}
                }
            });
            visit::walk_exprs(body, &mut |e| {
                let es = e.span();
                if es.lo < span.lo || es.lo >= span.hi {
                    return;
                }
                match e {
                    Expr::Ident { name, .. } => push_unique(&mut all, name),
                    Expr::Call { fun, .. } => {
                        // The callee chain root is API plumbing, not data.
                        if let Some(root) = fun.root_ident() {
                            all.retain(|x| x != root);
                        }
                    }
                    _ => {}
                }
            });
        }
        per_line_targets.push(targets);
        per_line_all.push(all);
    }

    let inter = |sets: &[Vec<String>]| -> Vec<String> {
        let Some(first) = sets.first() else {
            return Vec::new();
        };
        first
            .iter()
            .filter(|n| sets.iter().all(|s| s.contains(n)))
            .cloned()
            .collect()
    };

    let t_inter = inter(&per_line_targets);
    if !t_inter.is_empty() {
        return t_inter;
    }
    // Mix: target on one line must be read on the others.
    let mixed: Vec<String> = per_line_targets
        .iter()
        .flatten()
        .filter(|n| {
            per_line_all
                .iter()
                .zip(&per_line_targets)
                .all(|(a, t)| a.contains(n) || t.contains(n))
        })
        .cloned()
        .collect();
    if !mixed.is_empty() {
        return dedup(mixed);
    }
    let a_inter = inter(&per_line_all);
    if !a_inter.is_empty() {
        return a_inter;
    }
    let t_union: Vec<String> = dedup(per_line_targets.into_iter().flatten().collect());
    if !t_union.is_empty() {
        return t_union;
    }
    dedup(per_line_all.into_iter().flatten().collect())
}

fn push_unique(v: &mut Vec<String>, n: &str) {
    if !is_noise_name(n) && !v.iter().any(|x| x == n) {
        v.push(n.to_owned());
    }
}

fn dedup(v: Vec<String>) -> Vec<String> {
    let mut out = Vec::new();
    for n in v {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

fn is_noise_name(n: &str) -> bool {
    matches!(n, "_" | "true" | "false" | "nil")
}

/// Returns `true` when the statement (transitively) contains a
/// concurrency construct.
pub fn stmt_has_concurrency(s: &Stmt) -> bool {
    let mut v = Concurrency(false);
    v.walk_stmt(s);
    v.0
}

/// Returns `true` when the expression is a concurrency construct
/// (channel receive, sync-method call, make(chan), goroutine launch API).
pub fn expr_has_concurrency(e: &Expr) -> bool {
    let mut v = Concurrency(false);
    v.walk_expr(e);
    v.0
}

/// Finds a concurrency statement (`go`, send, `select`, `defer`) or
/// expression; stops descending once one is found.
struct Concurrency(bool);

impl Visit<'_> for Concurrency {
    fn stmt(&mut self, s: &Stmt) -> bool {
        self.0 |= matches!(
            s,
            Stmt::Go { .. } | Stmt::Send { .. } | Stmt::Select(_) | Stmt::Defer { .. }
        );
        !self.0
    }

    fn expr(&mut self, x: &Expr) -> bool {
        self.0 |= match x {
            Expr::Unary { op: UnOp::Recv, .. } => true,
            Expr::Make {
                ty: Type::Chan { .. },
                ..
            } => true,
            Expr::Call { fun, .. } => match fun.as_ref() {
                Expr::Selector { name, expr, .. } => {
                    is_concurrency_call(name)
                        || expr
                            .as_ident()
                            .is_some_and(|root| CONCURRENCY_PACKAGES.contains(&root))
                }
                Expr::Ident { name, .. } => name == "close",
                _ => false,
            },
            _ => false,
        };
        !self.0
    }
}

/// Returns `true` when the statement references any variable of interest.
pub fn stmt_touches_vars(s: &Stmt, vars: &[String]) -> bool {
    if vars.is_empty() {
        return false;
    }
    let mut found = false;
    stmt_exprs(s, &mut |e| {
        visit::walk_expr(e, &mut |x| {
            if let Expr::Ident { name, .. } = x {
                if vars.iter().any(|v| v == name) {
                    found = true;
                }
            }
        });
    });
    if found {
        return true;
    }
    match s {
        Stmt::ShortVar { names, .. } => names.iter().any(|n| vars.contains(n)),
        Stmt::Decl(v) => v.names.iter().any(|n| vars.contains(n)),
        _ => false,
    }
}

/// Calls `f` on each of a statement's own expressions: its header and
/// operands, not the expressions of its init, post or body statements.
pub(crate) fn stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    struct Own<'s, F> {
        root: &'s Stmt,
        f: F,
    }
    impl<F: FnMut(&Expr)> Visit<'_> for Own<'_, F> {
        fn stmt(&mut self, s: &Stmt) -> bool {
            std::ptr::eq(s, self.root)
        }
        fn expr(&mut self, e: &Expr) -> bool {
            (self.f)(e);
            false
        }
    }
    Own { root: s, f }.walk_stmt(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite::parse_stmts;

    #[test]
    fn detects_go_and_channel_statements() {
        let stmts = parse_stmts("go work()\nch <- 1\nx := <-ch\ny := 1").unwrap();
        assert!(stmt_has_concurrency(&stmts[0]));
        assert!(stmt_has_concurrency(&stmts[1]));
        assert!(stmt_has_concurrency(&stmts[2]));
        assert!(!stmt_has_concurrency(&stmts[3]));
    }

    #[test]
    fn detects_sync_method_calls() {
        let stmts = parse_stmts("mu.Lock()\nwg.Wait()\nfoo.Bar()").unwrap();
        assert!(stmt_has_concurrency(&stmts[0]));
        assert!(stmt_has_concurrency(&stmts[1]));
        assert!(!stmt_has_concurrency(&stmts[2]));
    }

    #[test]
    fn touches_vars_checks_reads_and_writes() {
        let stmts = parse_stmts("x = y + 1\nz := 2\nuse(q)").unwrap();
        let vars = vec!["y".to_owned()];
        assert!(stmt_touches_vars(&stmts[0], &vars));
        assert!(!stmt_touches_vars(&stmts[1], &vars));
        let zvars = vec!["z".to_owned()];
        assert!(stmt_touches_vars(&stmts[1], &zvars));
        assert!(!stmt_touches_vars(&stmts[2], &zvars));
    }

    #[test]
    fn concurrency_types() {
        use golite::ast::Type;
        assert!(type_is_concurrency_relevant(&Type::named("sync.Mutex")));
        assert!(type_is_concurrency_relevant(&Type::Chan {
            dir: golite::ast::ChanDir::Both,
            elem: Box::new(Type::named("int")),
        }));
        assert!(!type_is_concurrency_relevant(&Type::named("string")));
    }
}
