//! The slicing pass: keep concurrency structure and interest variables,
//! drop everything else (§4.3: "keeping control structures like loops and
//! conditionals only if they transitively contain relevant concurrency
//! constructs or variables of interest").

use crate::relevance::{stmt_has_concurrency, stmt_touches_vars};
use golite::ast::*;

/// Slices one function, returning a copy whose body keeps only relevant
/// statements.
pub fn slice_function(f: &FuncDecl, vars: &[String]) -> FuncDecl {
    let mut out = f.clone();
    if let Some(body) = &f.body {
        out.body = Some(slice_block(body, vars));
    }
    out
}

fn slice_block(b: &Block, vars: &[String]) -> Block {
    let mut stmts = Vec::new();
    for s in &b.stmts {
        if let Some(kept) = slice_stmt(s, vars) {
            stmts.push(kept);
        }
    }
    Block {
        stmts,
        span: b.span,
    }
}

/// Returns the sliced version of a statement, or `None` when it is
/// irrelevant noise.
fn slice_stmt(s: &Stmt, vars: &[String]) -> Option<Stmt> {
    match s {
        // Control structures recurse: kept if their headers touch
        // interest variables or any nested statement survives.
        Stmt::If(st) => {
            let then = slice_block(&st.then, vars);
            let else_ = st.else_.as_ref().and_then(|e| slice_stmt(e, vars));
            let header_relevant = stmt_touches_vars(s, vars) || stmt_has_concurrency_header(s);
            if then.stmts.is_empty() && else_.is_none() && !header_relevant {
                return None;
            }
            Some(Stmt::If(IfStmt {
                init: st.init.clone(),
                cond: st.cond.clone(),
                then,
                else_: else_.map(Box::new),
                span: st.span,
            }))
        }
        Stmt::For(st) => {
            let body = slice_block(&st.body, vars);
            let header_relevant = stmt_touches_vars(s, vars);
            if body.stmts.is_empty() && !header_relevant {
                return None;
            }
            Some(Stmt::For(ForStmt {
                init: st.init.clone(),
                cond: st.cond.clone(),
                post: st.post.clone(),
                body,
                span: st.span,
            }))
        }
        Stmt::Range(st) => {
            let body = slice_block(&st.body, vars);
            let header_relevant = stmt_touches_vars(s, vars);
            if body.stmts.is_empty() && !header_relevant {
                return None;
            }
            Some(Stmt::Range(RangeStmt {
                key: st.key.clone(),
                value: st.value.clone(),
                define: st.define,
                expr: st.expr.clone(),
                body,
                span: st.span,
            }))
        }
        Stmt::Switch(st) => {
            let mut cases = Vec::new();
            let mut any = false;
            for c in &st.cases {
                let body: Vec<Stmt> = c.body.iter().filter_map(|x| slice_stmt(x, vars)).collect();
                if !body.is_empty() {
                    any = true;
                }
                cases.push(SwitchCase {
                    exprs: c.exprs.clone(),
                    body,
                    span: c.span,
                });
            }
            if !any && !stmt_touches_vars(s, vars) {
                return None;
            }
            Some(Stmt::Switch(SwitchStmt {
                init: st.init.clone(),
                tag: st.tag.clone(),
                cases,
                span: st.span,
            }))
        }
        // Select is inherently a concurrency construct: always kept, with
        // case bodies sliced.
        Stmt::Select(st) => {
            let cases = st
                .cases
                .iter()
                .map(|c| SelectCase {
                    comm: c.comm.clone(),
                    body: c.body.iter().filter_map(|x| slice_stmt(x, vars)).collect(),
                    span: c.span,
                })
                .collect();
            Some(Stmt::Select(SelectStmt {
                cases,
                span: st.span,
            }))
        }
        Stmt::Block(b) => {
            let inner = slice_block(b, vars);
            if inner.stmts.is_empty() {
                return None;
            }
            Some(Stmt::Block(inner))
        }
        Stmt::Labeled { label, stmt, span } => {
            let inner = slice_stmt(stmt, vars)?;
            Some(Stmt::Labeled {
                label: label.clone(),
                stmt: Box::new(inner),
                span: *span,
            })
        }
        // `go`/`defer` launches: always concurrency-relevant; slice the
        // closure body if the call target is a function literal.
        Stmt::Go { call, span } => Some(Stmt::Go {
            call: slice_call_closure(call, vars),
            span: *span,
        }),
        Stmt::Defer { call, span } => Some(Stmt::Defer {
            call: slice_call_closure(call, vars),
            span: *span,
        }),
        // Leaf statements: kept iff concurrency-bearing or touching
        // interest variables (closure arguments are sliced in place).
        other => {
            if stmt_has_concurrency(other) || stmt_touches_vars(other, vars) {
                Some(slice_closures_in_stmt(other, vars))
            } else {
                None
            }
        }
    }
}

fn stmt_has_concurrency_header(s: &Stmt) -> bool {
    // Conservative: `if` headers with channel receives.
    let mut found = false;
    crate::relevance::stmt_exprs(s, &mut |e| {
        if crate::relevance::expr_has_concurrency(e) {
            found = true;
        }
    });
    found
}

/// Slices the bodies of function literals appearing inside a call.
fn slice_call_closure(call: &Expr, vars: &[String]) -> Expr {
    map_expr(call, &mut |e| {
        if let Expr::FuncLit { sig, body, span } = e {
            Expr::FuncLit {
                sig: sig.clone(),
                body: slice_block(body, vars),
                span: *span,
            }
        } else {
            e.clone()
        }
    })
}

fn slice_closures_in_stmt(s: &Stmt, vars: &[String]) -> Stmt {
    match s {
        Stmt::Expr(e) => Stmt::Expr(slice_call_closure(e, vars)),
        Stmt::Assign { lhs, op, rhs, span } => Stmt::Assign {
            lhs: lhs.clone(),
            op: *op,
            rhs: rhs.iter().map(|e| slice_call_closure(e, vars)).collect(),
            span: *span,
        },
        Stmt::ShortVar {
            names,
            values,
            span,
        } => Stmt::ShortVar {
            names: names.clone(),
            values: values.iter().map(|e| slice_call_closure(e, vars)).collect(),
            span: *span,
        },
        other => other.clone(),
    }
}

/// Shallow-maps an expression tree bottom-up.
fn map_expr(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Call {
            fun,
            args,
            variadic,
            span,
        } => Expr::Call {
            fun: Box::new(map_expr(fun, f)),
            args: args.iter().map(|a| map_expr(a, f)).collect(),
            variadic: *variadic,
            span: *span,
        },
        Expr::Selector { expr, name, span } => Expr::Selector {
            expr: Box::new(map_expr(expr, f)),
            name: name.clone(),
            span: *span,
        },
        Expr::Paren { expr, span } => Expr::Paren {
            expr: Box::new(map_expr(expr, f)),
            span: *span,
        },
        other => other.clone(),
    };
    f(&rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite::parse_file;

    fn func_of(src: &str, name: &str) -> FuncDecl {
        parse_file(src).unwrap().find_func(name).unwrap().clone()
    }

    #[test]
    fn drops_pure_business_statements() {
        let f = func_of(
            "package p\nfunc f() {\n\tx := 0\n\ta := 1\n\tb := a + 2\n\tuse(b)\n\tgo func() {\n\t\tx = 1\n\t}()\n\tuse2(x)\n}\n",
            "f",
        );
        let sliced = slice_function(&f, &["x".to_owned()]);
        let body = sliced.body.unwrap();
        // x := 0, go stmt, use2(x) survive; a/b noise dropped.
        assert_eq!(body.stmts.len(), 3);
    }

    #[test]
    fn keeps_goroutine_and_slices_its_body() {
        let f = func_of(
            "package p\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tnoise()\n\t\tx = 1\n\t}()\n}\n",
            "f",
        );
        let sliced = slice_function(&f, &["x".to_owned()]);
        let printed = golite::print_func(&sliced);
        assert!(printed.contains("go func()"));
        assert!(printed.contains("x = 1"));
        assert!(!printed.contains("noise"));
    }

    #[test]
    fn keeps_select_always() {
        let f = func_of(
            "package p\nfunc f(ch chan int) {\n\tselect {\n\tcase v := <-ch:\n\t\tuse(v)\n\tdefault:\n\t\tnoise()\n\t}\n}\n",
            "f",
        );
        let sliced = slice_function(&f, &[]);
        let printed = golite::print_func(&sliced);
        assert!(printed.contains("select"));
    }

    #[test]
    fn empty_if_blocks_disappear() {
        let f = func_of(
            "package p\nfunc f() {\n\tif cond() {\n\t\tnoise()\n\t}\n\tmu.Lock()\n}\n",
            "f",
        );
        let sliced = slice_function(&f, &[]);
        let printed = golite::print_func(&sliced);
        assert!(!printed.contains("if "));
        assert!(printed.contains("mu.Lock()"));
    }
}
