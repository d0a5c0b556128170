//! Shared AST-rewrite utilities used by the fix strategies.

use golite::ast::*;
use golite::span::Span;
use golite::visit::{any_stmt_outside_closures, MutVisitor};

/// Ensures `import "path"` exists in the file.
pub fn ensure_import(file: &mut File, path: &str) {
    if file.imports.iter().any(|i| i.path == path) {
        return;
    }
    file.imports.push(Import {
        alias: None,
        path: path.to_owned(),
        span: Span::DUMMY,
    });
}

/// Applies `tf` to every statement list in the function body, bottom-up,
/// including `case` bodies and the bodies of nested function literals.
/// `tf` receives the list after its children were transformed and
/// returns the replacement.
pub fn map_stmt_lists(f: &mut FuncDecl, tf: &mut impl FnMut(Vec<Stmt>) -> Vec<Stmt>) {
    struct MapLists<F>(F);
    impl<F: FnMut(Vec<Stmt>) -> Vec<Stmt>> MutVisitor for MapLists<F> {
        fn visit_list(&mut self, list: &mut Vec<Stmt>) {
            self.walk_list(list);
            *list = (self.0)(std::mem::take(list));
        }
    }
    if let Some(body) = &mut f.body {
        MapLists(tf).visit_block(body);
    }
}

/// Returns `true` if the statement *directly* (not inside a nested
/// function literal) references `var`.
pub fn stmt_uses_var_directly(s: &Stmt, var: &str) -> bool {
    let mut found = false;
    shallow_stmt_exprs(s, &mut |e| {
        expr_uses_var_shallow(e, var, &mut found);
    });
    if found {
        return true;
    }
    match s {
        Stmt::ShortVar { names, .. } => names.iter().any(|n| n == var),
        Stmt::Decl(v) => v.names.iter().any(|n| n == var),
        _ => false,
    }
}

fn expr_uses_var_shallow(e: &Expr, var: &str, found: &mut bool) {
    match e {
        Expr::Ident { name, .. } if name == var => {
            *found = true;
        }
        Expr::Ident { .. } => {}
        Expr::FuncLit { .. } => {} // do not descend into closures
        Expr::Selector { expr, .. }
        | Expr::Paren { expr, .. }
        | Expr::Unary { expr, .. }
        | Expr::TypeAssert { expr, .. } => expr_uses_var_shallow(expr, var, found),
        Expr::Index { expr, index, .. } => {
            expr_uses_var_shallow(expr, var, found);
            expr_uses_var_shallow(index, var, found);
        }
        Expr::SliceExpr { expr, lo, hi, .. } => {
            expr_uses_var_shallow(expr, var, found);
            if let Some(lo) = lo {
                expr_uses_var_shallow(lo, var, found);
            }
            if let Some(hi) = hi {
                expr_uses_var_shallow(hi, var, found);
            }
        }
        Expr::Call { fun, args, .. } => {
            expr_uses_var_shallow(fun, var, found);
            for a in args {
                expr_uses_var_shallow(a, var, found);
            }
        }
        Expr::Make { args, .. } => {
            for a in args {
                expr_uses_var_shallow(a, var, found);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            expr_uses_var_shallow(lhs, var, found);
            expr_uses_var_shallow(rhs, var, found);
        }
        Expr::CompositeLit { elems, .. } => {
            for el in elems {
                expr_uses_var_shallow(&el.value, var, found);
            }
        }
        _ => {}
    }
}

fn shallow_stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Decl(v) => {
            for e in &v.values {
                f(e);
            }
        }
        Stmt::ShortVar { values, .. } | Stmt::Return { values, .. } => {
            for e in values {
                f(e);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            for e in lhs.iter().chain(rhs) {
                f(e);
            }
        }
        Stmt::IncDec { expr, .. } => f(expr),
        Stmt::Expr(e) => f(e),
        Stmt::Send { chan, value, .. } => {
            f(chan);
            f(value);
        }
        Stmt::If(st) => f(&st.cond),
        Stmt::For(st) => {
            if let Some(c) = &st.cond {
                f(c);
            }
        }
        Stmt::Range(st) => f(&st.expr),
        Stmt::Switch(st) => {
            if let Some(t) = &st.tag {
                f(t);
            }
        }
        _ => {}
    }
}

/// Returns `true` if the statement declares `var` (`:=` or `var`).
pub fn stmt_declares_var(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::ShortVar { names, .. } => names.iter().any(|n| n == var),
        Stmt::Decl(v) => v.names.iter().any(|n| n == var),
        _ => false,
    }
}

/// `expr.Method(args...)` statement.
pub fn method_stmt(recv: Expr, method: &str, args: Vec<Expr>) -> Stmt {
    Stmt::Expr(Expr::method(recv, method, args))
}

/// Whether a statement is a `go` launch (or contains one at top level).
pub fn is_go_stmt(s: &Stmt) -> bool {
    matches!(s, Stmt::Go { .. })
}

/// Rebuilds `go func(...) { body }(args)` → pulls out the closure.
pub fn go_closure_mut(s: &mut Stmt) -> Option<&mut Block> {
    if let Stmt::Go {
        call: Expr::Call { fun, .. },
        ..
    } = s
    {
        if let Expr::FuncLit { body, .. } = fun.as_mut() {
            return Some(body);
        }
    }
    None
}

/// Whether a statement contains `return` at any nesting level outside
/// closures (lock-wrapping such statements is unsafe).
pub fn contains_return(s: &Stmt) -> bool {
    any_stmt_outside_closures(s, |s| matches!(s, Stmt::Return { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite::parse_file;

    #[test]
    fn ensure_import_is_idempotent() {
        let mut f = parse_file("package p\n\nimport \"sync\"\n").unwrap();
        ensure_import(&mut f, "sync");
        ensure_import(&mut f, "sync/atomic");
        ensure_import(&mut f, "sync/atomic");
        assert_eq!(f.imports.len(), 2);
    }

    #[test]
    fn map_stmt_lists_reaches_closures() {
        let mut file =
            parse_file("package p\nfunc f() {\n\ta()\n\tgo func() {\n\t\tb()\n\t}()\n}\n").unwrap();
        let mut count = 0;
        let func = file.find_func_mut("f").unwrap();
        map_stmt_lists(func, &mut |stmts| {
            count += stmts.len();
            stmts
        });
        // Outer list (2 stmts) + closure list (1 stmt).
        assert_eq!(count, 3);
    }

    #[test]
    fn shallow_use_skips_closures() {
        let file = parse_file(
            "package p\nfunc f() {\n\tgo func() {\n\t\tx = 1\n\t}()\n\ty := x\n\tuse(y)\n}\n",
        )
        .unwrap();
        let body = &file.find_func("f").unwrap().body.as_ref().unwrap().stmts;
        assert!(
            !stmt_uses_var_directly(&body[0], "x"),
            "go stmt captures, not uses"
        );
        assert!(stmt_uses_var_directly(&body[1], "x"));
    }

    #[test]
    fn contains_return_finds_nested() {
        let file = parse_file(
            "package p\nfunc f() int {\n\tif true {\n\t\treturn 1\n\t}\n\tx := 2\n\treturn x\n}\n",
        )
        .unwrap();
        let body = &file.find_func("f").unwrap().body.as_ref().unwrap().stmts;
        assert!(contains_return(&body[0]));
        assert!(!contains_return(&body[1]));
    }
}
