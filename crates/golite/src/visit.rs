//! AST traversal: one read-only walk and one mutable walk.
//!
//! [`Visit`] is the read-only walk every analysis pass shares. Its
//! drivers ([`Visit::walk_list`], [`Visit::walk_stmt`],
//! [`Visit::walk_expr`]) reach every statement list, statement and
//! expression exactly once, pre-order and in source order: a statement's
//! init statement, then its header expressions, then its bodies, and
//! function-literal bodies where the literal occurs. Each hook's result
//! says whether to descend below the node it was given, so a pass that
//! must not look inside closures returns `false` from
//! [`Visit::expr`]. [`walk_stmts`], [`walk_exprs`] and [`walk_expr`] are
//! closure shorthands for the common "every statement" / "every
//! expression" walks.
//!
//! [`MutVisitor`] is the one in-place walk: the fix strategies rewrite
//! trees with it and the skeleton renamer renames with it. It enumerates
//! the same children in the same order as [`Visit`].

use crate::ast::*;

/// Read-only pre-order walk. Implement the hooks a pass needs; each
/// returns whether to descend below its node. Call a `walk_*` driver to
/// start the walk; the drivers are not meant to be overridden.
pub trait Visit<'a> {
    /// Called on every statement list: function and function-literal
    /// bodies, the blocks of `if`/`for`/`range`/`{}` and every `case`
    /// body.
    fn list(&mut self, _list: &'a [Stmt]) -> bool {
        true
    }

    /// Called on every statement.
    fn stmt(&mut self, _s: &'a Stmt) -> bool {
        true
    }

    /// Called on every expression.
    fn expr(&mut self, _e: &'a Expr) -> bool {
        true
    }

    /// Walks a statement list and everything below it.
    fn walk_list(&mut self, list: &'a [Stmt]) {
        if self.list(list) {
            for s in list {
                self.walk_stmt(s);
            }
        }
    }

    /// Walks a statement and everything below it.
    fn walk_stmt(&mut self, s: &'a Stmt) {
        if !self.stmt(s) {
            return;
        }
        match s {
            Stmt::Decl(v) => v.values.iter().for_each(|e| self.walk_expr(e)),
            Stmt::ShortVar { values, .. } | Stmt::Return { values, .. } => {
                values.iter().for_each(|e| self.walk_expr(e))
            }
            Stmt::Assign { lhs, rhs, .. } => lhs.iter().chain(rhs).for_each(|e| self.walk_expr(e)),
            Stmt::IncDec { expr: e, .. } | Stmt::Expr(e) => self.walk_expr(e),
            Stmt::Go { call: e, .. } | Stmt::Defer { call: e, .. } => self.walk_expr(e),
            Stmt::Send { chan, value, .. } => {
                self.walk_expr(chan);
                self.walk_expr(value);
            }
            Stmt::If(st) => {
                if let Some(init) = &st.init {
                    self.walk_stmt(init);
                }
                self.walk_expr(&st.cond);
                self.walk_list(&st.then.stmts);
                if let Some(el) = &st.else_ {
                    self.walk_stmt(el);
                }
            }
            Stmt::For(st) => {
                if let Some(init) = &st.init {
                    self.walk_stmt(init);
                }
                if let Some(c) = &st.cond {
                    self.walk_expr(c);
                }
                if let Some(post) = &st.post {
                    self.walk_stmt(post);
                }
                self.walk_list(&st.body.stmts);
            }
            Stmt::Range(st) => {
                for e in [&st.key, &st.value].into_iter().flatten() {
                    self.walk_expr(e);
                }
                self.walk_expr(&st.expr);
                self.walk_list(&st.body.stmts);
            }
            Stmt::Switch(st) => {
                if let Some(init) = &st.init {
                    self.walk_stmt(init);
                }
                if let Some(tag) = &st.tag {
                    self.walk_expr(tag);
                }
                for c in &st.cases {
                    c.exprs.iter().for_each(|e| self.walk_expr(e));
                    self.walk_list(&c.body);
                }
            }
            Stmt::Select(st) => {
                for c in &st.cases {
                    match &c.comm {
                        CommClause::Send { chan, value } => {
                            self.walk_expr(chan);
                            self.walk_expr(value);
                        }
                        CommClause::Recv { lhs, chan, .. } => {
                            lhs.iter().for_each(|e| self.walk_expr(e));
                            self.walk_expr(chan);
                        }
                        CommClause::Default => {}
                    }
                    self.walk_list(&c.body);
                }
            }
            Stmt::Block(b) => self.walk_list(&b.stmts),
            Stmt::Labeled { stmt, .. } => self.walk_stmt(stmt),
            Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Empty { .. } => {}
        }
    }

    /// Walks an expression and everything below it.
    fn walk_expr(&mut self, e: &'a Expr) {
        if !self.expr(e) {
            return;
        }
        match e {
            Expr::CompositeLit { elems, .. } => {
                for el in elems {
                    if let Some(k) = &el.key {
                        self.walk_expr(k);
                    }
                    self.walk_expr(&el.value);
                }
            }
            Expr::FuncLit { body, .. } => self.walk_list(&body.stmts),
            Expr::Selector { expr, .. }
            | Expr::Paren { expr, .. }
            | Expr::TypeAssert { expr, .. }
            | Expr::Unary { expr, .. } => self.walk_expr(expr),
            Expr::Index { expr, index, .. } => {
                self.walk_expr(expr);
                self.walk_expr(index);
            }
            Expr::SliceExpr { expr, lo, hi, .. } => {
                self.walk_expr(expr);
                for b in [lo, hi].into_iter().flatten() {
                    self.walk_expr(b);
                }
            }
            Expr::Call { fun, args, .. } => {
                self.walk_expr(fun);
                args.iter().for_each(|a| self.walk_expr(a));
            }
            Expr::Make { args, .. } => args.iter().for_each(|a| self.walk_expr(a)),
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            Expr::Ident { .. }
            | Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::StrLit { .. }
            | Expr::RuneLit { .. }
            | Expr::New { .. } => {}
        }
    }
}

/// A [`Visit`] that calls a closure on every statement.
struct OnStmt<F>(F);

impl<'a, F: FnMut(&'a Stmt)> Visit<'a> for OnStmt<F> {
    fn stmt(&mut self, s: &'a Stmt) -> bool {
        (self.0)(s);
        true
    }
}

/// A [`Visit`] that calls a closure on every expression.
struct OnExpr<F>(F);

impl<F: FnMut(&Expr)> Visit<'_> for OnExpr<F> {
    fn expr(&mut self, e: &Expr) -> bool {
        (self.0)(e);
        true
    }
}

/// Calls `f` on every expression in the block, pre-order.
pub fn walk_exprs(block: &Block, f: &mut impl FnMut(&Expr)) {
    OnExpr(f).walk_list(&block.stmts);
}

/// Calls `f` once on every statement in the block, nested ones and those
/// inside function literals included, pre-order.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    OnStmt(f).walk_list(&block.stmts);
}

/// Calls `f` on `e` and every sub-expression, pre-order.
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    OnExpr(f).walk_expr(e);
}

/// Whether `pred` holds on `s` or on a statement nested in it, without
/// looking inside function literals.
pub fn any_stmt_outside_closures(s: &Stmt, pred: impl FnMut(&Stmt) -> bool) -> bool {
    struct AnyStmt<F> {
        pred: F,
        found: bool,
    }
    impl<F: FnMut(&Stmt) -> bool> Visit<'_> for AnyStmt<F> {
        fn stmt(&mut self, s: &Stmt) -> bool {
            self.found = self.found || (self.pred)(s);
            !self.found
        }
        fn expr(&mut self, _: &Expr) -> bool {
            false
        }
    }
    let mut v = AnyStmt { pred, found: false };
    v.walk_stmt(s);
    v.found
}

/// In-place rewriting visitor. Implement the `visit_*` hooks you need;
/// the default methods recurse. Call the matching `walk_*` inside an
/// override to continue recursion below the rewritten node. The children
/// are those [`Visit`] enumerates, in the same order.
pub trait MutVisitor {
    /// Visits a statement list in place: a block's statements or a
    /// `case` body.
    fn visit_list(&mut self, list: &mut Vec<Stmt>) {
        self.walk_list(list);
    }

    /// Visits a statement in place.
    fn visit_stmt(&mut self, s: &mut Stmt) {
        self.walk_stmt(s);
    }

    /// Visits an expression in place.
    fn visit_expr(&mut self, e: &mut Expr) {
        self.walk_expr(e);
    }

    /// Visits a block's statement list.
    fn visit_block(&mut self, b: &mut Block) {
        self.visit_list(&mut b.stmts);
    }

    /// Default recursion through a statement list.
    fn walk_list(&mut self, list: &mut [Stmt]) {
        for s in list {
            self.visit_stmt(s);
        }
    }

    /// Default recursion through a statement.
    fn walk_stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Decl(v) => v.values.iter_mut().for_each(|e| self.visit_expr(e)),
            Stmt::ShortVar { values, .. } | Stmt::Return { values, .. } => {
                values.iter_mut().for_each(|e| self.visit_expr(e))
            }
            Stmt::Assign { lhs, rhs, .. } => lhs
                .iter_mut()
                .chain(rhs.iter_mut())
                .for_each(|e| self.visit_expr(e)),
            Stmt::IncDec { expr: e, .. } | Stmt::Expr(e) => self.visit_expr(e),
            Stmt::Go { call: e, .. } | Stmt::Defer { call: e, .. } => self.visit_expr(e),
            Stmt::Send { chan, value, .. } => {
                self.visit_expr(chan);
                self.visit_expr(value);
            }
            Stmt::If(st) => {
                if let Some(init) = &mut st.init {
                    self.visit_stmt(init);
                }
                self.visit_expr(&mut st.cond);
                self.visit_block(&mut st.then);
                if let Some(el) = &mut st.else_ {
                    self.visit_stmt(el);
                }
            }
            Stmt::For(st) => {
                if let Some(init) = &mut st.init {
                    self.visit_stmt(init);
                }
                if let Some(c) = &mut st.cond {
                    self.visit_expr(c);
                }
                if let Some(post) = &mut st.post {
                    self.visit_stmt(post);
                }
                self.visit_block(&mut st.body);
            }
            Stmt::Range(st) => {
                for e in [&mut st.key, &mut st.value].into_iter().flatten() {
                    self.visit_expr(e);
                }
                self.visit_expr(&mut st.expr);
                self.visit_block(&mut st.body);
            }
            Stmt::Switch(st) => {
                if let Some(init) = &mut st.init {
                    self.visit_stmt(init);
                }
                if let Some(tag) = &mut st.tag {
                    self.visit_expr(tag);
                }
                for c in &mut st.cases {
                    c.exprs.iter_mut().for_each(|e| self.visit_expr(e));
                    self.visit_list(&mut c.body);
                }
            }
            Stmt::Select(st) => {
                for c in &mut st.cases {
                    match &mut c.comm {
                        CommClause::Send { chan, value } => {
                            self.visit_expr(chan);
                            self.visit_expr(value);
                        }
                        CommClause::Recv { lhs, chan, .. } => {
                            lhs.iter_mut().for_each(|e| self.visit_expr(e));
                            self.visit_expr(chan);
                        }
                        CommClause::Default => {}
                    }
                    self.visit_list(&mut c.body);
                }
            }
            Stmt::Block(b) => self.visit_block(b),
            Stmt::Labeled { stmt, .. } => self.visit_stmt(stmt),
            Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Empty { .. } => {}
        }
    }

    /// Default recursion through an expression.
    fn walk_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::CompositeLit { elems, .. } => {
                for el in elems {
                    if let Some(k) = &mut el.key {
                        self.visit_expr(k);
                    }
                    self.visit_expr(&mut el.value);
                }
            }
            Expr::FuncLit { body, .. } => self.visit_block(body),
            Expr::Selector { expr, .. }
            | Expr::Paren { expr, .. }
            | Expr::TypeAssert { expr, .. }
            | Expr::Unary { expr, .. } => self.visit_expr(expr),
            Expr::Index { expr, index, .. } => {
                self.visit_expr(expr);
                self.visit_expr(index);
            }
            Expr::SliceExpr { expr, lo, hi, .. } => {
                self.visit_expr(expr);
                for b in [lo, hi].into_iter().flatten() {
                    self.visit_expr(b);
                }
            }
            Expr::Call { fun, args, .. } => {
                self.visit_expr(fun);
                args.iter_mut().for_each(|a| self.visit_expr(a));
            }
            Expr::Make { args, .. } => args.iter_mut().for_each(|a| self.visit_expr(a)),
            Expr::Binary { lhs, rhs, .. } => {
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
            Expr::Ident { .. }
            | Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::StrLit { .. }
            | Expr::RuneLit { .. }
            | Expr::New { .. } => {}
        }
    }
}

/// Renames every occurrence of identifier `from` to `to` within a block
/// (a syntactic rename; shadowing is the caller's concern).
pub struct RenameIdent<'a> {
    /// Name to replace.
    pub from: &'a str,
    /// Replacement name.
    pub to: &'a str,
}

impl MutVisitor for RenameIdent<'_> {
    fn visit_expr(&mut self, e: &mut Expr) {
        if let Expr::Ident { name, .. } = e {
            if name == self.from {
                *name = self.to.to_owned();
            }
        }
        self.walk_expr(e);
    }

    fn visit_stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::ShortVar { names, .. } => {
                for n in names {
                    if n == self.from {
                        *n = self.to.to_owned();
                    }
                }
            }
            Stmt::Decl(v) => {
                for n in &mut v.names {
                    if n == self.from {
                        *n = self.to.to_owned();
                    }
                }
            }
            _ => {}
        }
        self.walk_stmt(s);
    }
}

/// Renames a package qualifier: selector bases (`from.X` → `to.X`) and
/// named-type prefixes (`from.T` → `to.T`), including types buried in
/// `make`/`new`/composite literals/type assertions/function signatures.
/// Used when merging two files whose imports bind the same import path
/// under different local names.
pub struct RenamePkg<'a> {
    /// Package qualifier to replace.
    pub from: &'a str,
    /// Replacement qualifier.
    pub to: &'a str,
}

impl RenamePkg<'_> {
    fn rename_type(&self, ty: &mut Type) {
        match ty {
            Type::Named { path, args } => {
                if path.len() > 1 && path[0] == self.from {
                    path[0] = self.to.to_owned();
                }
                for a in args {
                    self.rename_type(a);
                }
            }
            Type::Pointer(t) | Type::Slice(t) => self.rename_type(t),
            Type::Array { elem, .. } => self.rename_type(elem),
            Type::Map { key, value } => {
                self.rename_type(key);
                self.rename_type(value);
            }
            Type::Chan { elem, .. } => self.rename_type(elem),
            Type::Func(sig) => self.rename_sig(sig),
            Type::Struct(fields) => {
                for f in fields {
                    self.rename_type(&mut f.ty);
                }
            }
            Type::Interface(_) => {}
        }
    }

    fn rename_sig(&self, sig: &mut FuncSig) {
        for p in sig.params.iter_mut().chain(sig.results.iter_mut()) {
            self.rename_type(&mut p.ty);
        }
    }

    /// Rewrites qualifiers throughout one top-level declaration.
    pub fn rename_decl(&mut self, d: &mut Decl) {
        match d {
            Decl::Func(f) => {
                if let Some(recv) = &mut f.receiver {
                    self.rename_type(&mut recv.ty);
                }
                self.rename_sig(&mut f.sig);
                if let Some(body) = &mut f.body {
                    self.visit_block(body);
                }
            }
            Decl::Type(t) => self.rename_type(&mut t.ty),
            Decl::Var(v) | Decl::Const(v) => {
                if let Some(ty) = &mut v.ty {
                    self.rename_type(ty);
                }
                for e in &mut v.values {
                    self.visit_expr(e);
                }
            }
        }
    }
}

impl MutVisitor for RenamePkg<'_> {
    fn visit_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Selector { expr, .. } => {
                if let Expr::Ident { name, .. } = expr.as_mut() {
                    if name == self.from {
                        *name = self.to.to_owned();
                    }
                }
            }
            Expr::Make { ty, .. } | Expr::New { ty, .. } | Expr::TypeAssert { ty, .. } => {
                self.rename_type(ty)
            }
            Expr::CompositeLit { ty: Some(ty), .. } => self.rename_type(ty),
            Expr::FuncLit { sig, .. } => self.rename_sig(sig),
            _ => {}
        }
        self.walk_expr(e);
    }

    fn visit_stmt(&mut self, s: &mut Stmt) {
        if let Stmt::Decl(v) = s {
            if let Some(ty) = &mut v.ty {
                self.rename_type(ty);
            }
        }
        self.walk_stmt(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::printer::print_file;

    #[test]
    fn walk_exprs_counts_idents() {
        let f = parse_file("package p\nfunc f() {\n\tx := a + b\n\tuse(x)\n}\n").unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        let mut idents = 0;
        walk_exprs(body, &mut |e| {
            if matches!(e, Expr::Ident { .. }) {
                idents += 1;
            }
        });
        // a, b, use, x
        assert_eq!(idents, 4);
    }

    #[test]
    fn walk_stmts_visits_goroutine_bodies() {
        let src = "package p\nfunc f() {\n\tgo func() {\n\t\tinner()\n\t}()\n}\n";
        let f = parse_file(src).unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        let mut exprs = Vec::new();
        walk_stmts(body, &mut |s| {
            if let Stmt::Expr(Expr::Call { fun, .. }) = s {
                if let Some(name) = fun.as_ident() {
                    exprs.push(name.to_owned());
                }
            }
        });
        assert_eq!(exprs, vec!["inner"]);
    }

    #[test]
    fn rename_pkg_rewrites_selectors_and_types() {
        let src = concat!(
            "package p\n\n",
            "var mu sync.Mutex\n\n",
            "func f(w *sync.WaitGroup) sync.Locker {\n",
            "\tvar local sync.RWMutex\n",
            "\tch := make(chan sync.Mutex, 1)\n",
            "\t_ = ch\n",
            "\tg := sync.Mutex{}\n",
            "\t_ = g\n",
            "\t_ = local\n",
            "\tsync.OnceFunc(func() {})\n",
            "\treturn &mu\n",
            "}\n",
        );
        let mut f = parse_file(src).unwrap();
        let mut r = RenamePkg {
            from: "sync",
            to: "sy",
        };
        for d in &mut f.decls {
            r.rename_decl(d);
        }
        let printed = print_file(&f);
        assert!(!printed.contains("sync."), "qualifier survived:\n{printed}");
        for needle in [
            "var mu sy.Mutex",
            "w *sy.WaitGroup",
            ") sy.Locker",
            "var local sy.RWMutex",
            "make(chan sy.Mutex, 1)",
            "sy.Mutex{}",
            "sy.OnceFunc(",
        ] {
            assert!(printed.contains(needle), "missing `{needle}`:\n{printed}");
        }
    }

    #[test]
    fn rename_ident_rewrites_everywhere() {
        let src = "package p\nfunc f() {\n\tlimit := 1\n\tgo func() {\n\t\tlimit = 2\n\t\tuse(limit)\n\t}()\n}\n";
        let mut f = parse_file(src).unwrap();
        let func = f.find_func_mut("f").unwrap();
        let body = func.body.as_mut().unwrap();
        let mut r = RenameIdent {
            from: "limit",
            to: "localLimit",
        };
        r.visit_block(body);
        let printed = print_file(&f);
        assert!(!printed.contains("\tlimit"));
        assert!(printed.contains("localLimit := 1"));
        assert!(printed.contains("use(localLimit)"));
    }
}
