//! Pretty-printer: renders an AST back to Go source.
//!
//! The output re-parses to a structurally identical AST (modulo spans),
//! which the round-trip property tests in this crate rely on. Formatting
//! follows `gofmt` conventions: tab indentation, `} else {` on one line,
//! one statement per line.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole file to source text.
pub fn print_file(file: &File) -> String {
    let imports: Vec<&Import> = file.imports.iter().collect();
    print_file_parts(&file.package, &imports, &file.decls)
}

/// Renders the file a [`File`] holding these parts would be, exactly as
/// [`print_file`] renders it: the package clause, the imports and the
/// declarations, in print order. Lets a caller print an edited file from
/// borrowed parts instead of cloning the AST it edits.
pub fn print_file_parts<'a>(
    package: &str,
    imports: &[&Import],
    decls: impl IntoIterator<Item = &'a Decl>,
) -> String {
    let mut p = Printer::new();
    p.file(package, imports, decls);
    p.out
}

/// Renders a single function declaration.
pub fn print_func(func: &FuncDecl) -> String {
    let mut p = Printer::new();
    p.func_decl(func);
    p.out
}

/// Renders an expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(expr);
    p.out
}

/// Renders a type declaration.
pub fn print_type_decl(decl: &TypeDecl) -> String {
    let mut p = Printer::new();
    p.type_decl(decl);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push('\t');
        }
    }

    fn file<'a>(
        &mut self,
        package: &str,
        imports: &[&Import],
        decls: impl IntoIterator<Item = &'a Decl>,
    ) {
        let _ = write!(self.out, "package {package}");
        self.out.push('\n');
        if !imports.is_empty() {
            self.out.push('\n');
            if imports.len() == 1 {
                let imp = imports[0];
                self.out.push_str("import ");
                if let Some(a) = &imp.alias {
                    let _ = write!(self.out, "{a} ");
                }
                let _ = write!(self.out, "\"{}\"", imp.path);
                self.out.push('\n');
            } else {
                self.out.push_str("import (");
                self.indent += 1;
                for imp in imports {
                    self.nl();
                    if let Some(a) = &imp.alias {
                        let _ = write!(self.out, "{a} ");
                    }
                    let _ = write!(self.out, "\"{}\"", imp.path);
                }
                self.indent -= 1;
                self.nl();
                self.out.push_str(")\n");
            }
        }
        for d in decls {
            self.out.push('\n');
            self.decl(d);
            self.out.push('\n');
        }
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Func(f) => self.func_decl(f),
            Decl::Type(t) => self.type_decl(t),
            Decl::Var(v) => {
                self.out.push_str("var ");
                self.var_spec(v);
            }
            Decl::Const(v) => {
                self.out.push_str("const ");
                self.var_spec(v);
            }
        }
    }

    fn type_decl(&mut self, t: &TypeDecl) {
        let _ = write!(self.out, "type {}", t.name);
        self.type_params(&t.type_params);
        self.out.push(' ');
        self.ty(&t.ty);
    }

    fn type_params(&mut self, tps: &[TypeParam]) {
        if tps.is_empty() {
            return;
        }
        self.out.push('[');
        for (i, tp) in tps.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{} {}", tp.name, tp.constraint);
        }
        self.out.push(']');
    }

    fn var_spec(&mut self, v: &VarDecl) {
        self.out.push_str(&v.names.join(", "));
        if let Some(ty) = &v.ty {
            self.out.push(' ');
            self.ty(ty);
        }
        if !v.values.is_empty() {
            self.out.push_str(" = ");
            self.expr_list(&v.values);
        }
    }

    fn func_decl(&mut self, f: &FuncDecl) {
        self.out.push_str("func ");
        if let Some(r) = &f.receiver {
            let _ = write!(self.out, "({} ", r.name);
            self.ty(&r.ty);
            self.out.push_str(") ");
        }
        self.out.push_str(&f.name);
        self.type_params(&f.type_params);
        self.signature(&f.sig);
        if let Some(body) = &f.body {
            self.out.push(' ');
            self.block(body);
        }
    }

    fn signature(&mut self, sig: &FuncSig) {
        self.out.push('(');
        self.params(&sig.params);
        self.out.push(')');
        if sig.results.len() == 1 && sig.results[0].names.is_empty() {
            self.out.push(' ');
            self.ty(&sig.results[0].ty);
        } else if !sig.results.is_empty() {
            self.out.push_str(" (");
            self.params(&sig.results);
            self.out.push(')');
        }
    }

    fn params(&mut self, params: &[Param]) {
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            if !p.names.is_empty() {
                self.out.push_str(&p.names.join(", "));
                self.out.push(' ');
            }
            if p.variadic {
                self.out.push_str("...");
            }
            self.ty(&p.ty);
        }
    }

    fn ty(&mut self, ty: &Type) {
        match ty {
            Type::Named { path, args } => {
                self.out.push_str(&path.join("."));
                if !args.is_empty() {
                    self.out.push('[');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.ty(a);
                    }
                    self.out.push(']');
                }
            }
            Type::Pointer(inner) => {
                self.out.push('*');
                self.ty(inner);
            }
            Type::Slice(inner) => {
                self.out.push_str("[]");
                self.ty(inner);
            }
            Type::Array { len, elem } => {
                self.out.push('[');
                self.expr(len);
                self.out.push(']');
                self.ty(elem);
            }
            Type::Map { key, value } => {
                self.out.push_str("map[");
                self.ty(key);
                self.out.push(']');
                self.ty(value);
            }
            Type::Chan { dir, elem } => {
                match dir {
                    ChanDir::Both => self.out.push_str("chan "),
                    ChanDir::Send => self.out.push_str("chan<- "),
                    ChanDir::Recv => self.out.push_str("<-chan "),
                }
                self.ty(elem);
            }
            Type::Func(sig) => {
                self.out.push_str("func");
                self.signature(sig);
            }
            Type::Struct(fields) => {
                if fields.is_empty() {
                    self.out.push_str("struct{}");
                    return;
                }
                self.out.push_str("struct {");
                self.indent += 1;
                for f in fields {
                    self.nl();
                    if !f.names.is_empty() {
                        self.out.push_str(&f.names.join(", "));
                        self.out.push(' ');
                    }
                    self.ty(&f.ty);
                }
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            Type::Interface(methods) => {
                if methods.is_empty() {
                    self.out.push_str("interface{}");
                } else {
                    self.out.push_str("interface {");
                    self.indent += 1;
                    for m in methods {
                        self.nl();
                        let _ = write!(self.out, "{m}()");
                    }
                    self.indent -= 1;
                    self.nl();
                    self.out.push('}');
                }
            }
        }
    }

    fn block(&mut self, b: &Block) {
        if b.stmts.is_empty() {
            self.out.push_str("{\n");
            for _ in 0..self.indent {
                self.out.push('\t');
            }
            self.out.push('}');
            return;
        }
        self.out.push('{');
        self.indent += 1;
        for s in &b.stmts {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(v) => {
                self.out.push_str("var ");
                self.var_spec(v);
            }
            Stmt::ShortVar { names, values, .. } => {
                self.out.push_str(&names.join(", "));
                self.out.push_str(" := ");
                self.expr_list(values);
            }
            Stmt::Assign { lhs, op, rhs, .. } => {
                self.expr_list(lhs);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr_list(rhs);
            }
            Stmt::IncDec { expr, inc, .. } => {
                self.expr(expr);
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::Send { chan, value, .. } => {
                self.expr(chan);
                self.out.push_str(" <- ");
                self.expr(value);
            }
            Stmt::Go { call, .. } => {
                self.out.push_str("go ");
                self.expr(call);
            }
            Stmt::Defer { call, .. } => {
                self.out.push_str("defer ");
                self.expr(call);
            }
            Stmt::Return { values, .. } => {
                self.out.push_str("return");
                if !values.is_empty() {
                    self.out.push(' ');
                    self.expr_list(values);
                }
            }
            Stmt::If(st) => self.if_stmt(st),
            Stmt::For(st) => {
                self.out.push_str("for ");
                match (&st.init, &st.cond, &st.post) {
                    (None, None, None) => {}
                    (None, Some(c), None) => {
                        self.expr(c);
                        self.out.push(' ');
                    }
                    _ => {
                        if let Some(init) = &st.init {
                            self.stmt(init);
                        }
                        self.out.push_str("; ");
                        if let Some(c) = &st.cond {
                            self.expr(c);
                        }
                        self.out.push_str("; ");
                        if let Some(post) = &st.post {
                            self.stmt(post);
                            self.out.push(' ');
                        }
                    }
                }
                self.block(&st.body);
            }
            Stmt::Range(st) => {
                self.out.push_str("for ");
                if let Some(k) = &st.key {
                    self.expr(k);
                    if let Some(v) = &st.value {
                        self.out.push_str(", ");
                        self.expr(v);
                    }
                    self.out
                        .push_str(if st.define { " := range " } else { " = range " });
                } else {
                    self.out.push_str("range ");
                }
                self.expr(&st.expr);
                self.out.push(' ');
                self.block(&st.body);
            }
            Stmt::Switch(st) => {
                self.out.push_str("switch ");
                if let Some(init) = &st.init {
                    self.stmt(init);
                    self.out.push_str("; ");
                }
                if let Some(tag) = &st.tag {
                    self.expr(tag);
                    self.out.push(' ');
                }
                self.out.push('{');
                for c in &st.cases {
                    self.nl();
                    if c.exprs.is_empty() {
                        self.out.push_str("default:");
                    } else {
                        self.out.push_str("case ");
                        self.expr_list(&c.exprs);
                        self.out.push(':');
                    }
                    self.indent += 1;
                    for s in &c.body {
                        self.nl();
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.nl();
                self.out.push('}');
            }
            Stmt::Select(st) => {
                self.out.push_str("select {");
                for c in &st.cases {
                    self.nl();
                    match &c.comm {
                        CommClause::Send { chan, value } => {
                            self.out.push_str("case ");
                            self.expr(chan);
                            self.out.push_str(" <- ");
                            self.expr(value);
                            self.out.push(':');
                        }
                        CommClause::Recv { lhs, define, chan } => {
                            self.out.push_str("case ");
                            if !lhs.is_empty() {
                                self.expr_list(lhs);
                                self.out.push_str(if *define { " := " } else { " = " });
                            }
                            self.out.push_str("<-");
                            self.expr(chan);
                            self.out.push(':');
                        }
                        CommClause::Default => self.out.push_str("default:"),
                    }
                    self.indent += 1;
                    for s in &c.body {
                        self.nl();
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.nl();
                self.out.push('}');
            }
            Stmt::Block(b) => self.block(b),
            Stmt::Break { label, .. } => {
                self.out.push_str("break");
                if let Some(l) = label {
                    let _ = write!(self.out, " {l}");
                }
            }
            Stmt::Continue { label, .. } => {
                self.out.push_str("continue");
                if let Some(l) = label {
                    let _ = write!(self.out, " {l}");
                }
            }
            Stmt::Labeled { label, stmt, .. } => {
                let _ = write!(self.out, "{label}:");
                self.nl();
                self.stmt(stmt);
            }
            Stmt::Empty { .. } => {}
        }
    }

    fn if_stmt(&mut self, st: &IfStmt) {
        self.out.push_str("if ");
        if let Some(init) = &st.init {
            self.stmt(init);
            self.out.push_str("; ");
        }
        self.expr(&st.cond);
        self.out.push(' ');
        self.block(&st.then);
        if let Some(el) = &st.else_ {
            self.out.push_str(" else ");
            match el.as_ref() {
                Stmt::If(nested) => self.if_stmt(nested),
                Stmt::Block(b) => self.block(b),
                other => self.stmt(other),
            }
        }
    }

    fn expr_list(&mut self, exprs: &[Expr]) {
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(e);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident { name, .. } => self.out.push_str(name),
            Expr::IntLit { value, .. } => {
                let _ = write!(self.out, "{value}");
            }
            Expr::FloatLit { value, .. } => {
                if value.fract() == 0.0 && value.is_finite() && value.abs() < 1e15 {
                    let _ = write!(self.out, "{value:.1}");
                } else {
                    let _ = write!(self.out, "{value}");
                }
            }
            Expr::StrLit { value, .. } => {
                self.out.push('"');
                for c in value.chars() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\r' => self.out.push_str("\\r"),
                        '"' => self.out.push_str("\\\""),
                        '\\' => self.out.push_str("\\\\"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            Expr::RuneLit { value, .. } => {
                self.out.push('\'');
                match value {
                    '\n' => self.out.push_str("\\n"),
                    '\t' => self.out.push_str("\\t"),
                    '\'' => self.out.push_str("\\'"),
                    '\\' => self.out.push_str("\\\\"),
                    c => self.out.push(*c),
                }
                self.out.push('\'');
            }
            Expr::CompositeLit { ty, elems, .. } => {
                if let Some(t) = ty {
                    self.ty(t);
                }
                self.out.push('{');
                let multiline = elems.len() > 2
                    || elems.iter().any(|el| {
                        matches!(el.value, Expr::CompositeLit { .. } | Expr::FuncLit { .. })
                    });
                if multiline {
                    self.indent += 1;
                    for el in elems {
                        self.nl();
                        if let Some(k) = &el.key {
                            self.expr(k);
                            self.out.push_str(": ");
                        }
                        self.expr(&el.value);
                        self.out.push(',');
                    }
                    self.indent -= 1;
                    self.nl();
                } else {
                    for (i, el) in elems.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        if let Some(k) = &el.key {
                            self.expr(k);
                            self.out.push_str(": ");
                        }
                        self.expr(&el.value);
                    }
                }
                self.out.push('}');
            }
            Expr::FuncLit { sig, body, .. } => {
                self.out.push_str("func");
                self.signature(sig);
                self.out.push(' ');
                self.block(body);
            }
            Expr::Selector { expr, name, .. } => {
                self.expr(expr);
                let _ = write!(self.out, ".{name}");
            }
            Expr::Index { expr, index, .. } => {
                self.expr(expr);
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            Expr::SliceExpr { expr, lo, hi, .. } => {
                self.expr(expr);
                self.out.push('[');
                if let Some(lo) = lo {
                    self.expr(lo);
                }
                self.out.push(':');
                if let Some(hi) = hi {
                    self.expr(hi);
                }
                self.out.push(']');
            }
            Expr::Call {
                fun,
                args,
                variadic,
                ..
            } => {
                self.expr(fun);
                self.out.push('(');
                self.expr_list(args);
                if *variadic {
                    self.out.push_str("...");
                }
                self.out.push(')');
            }
            Expr::Make { ty, args, .. } => {
                self.out.push_str("make(");
                self.ty(ty);
                for a in args {
                    self.out.push_str(", ");
                    self.expr(a);
                }
                self.out.push(')');
            }
            Expr::New { ty, .. } => {
                self.out.push_str("new(");
                self.ty(ty);
                self.out.push(')');
            }
            Expr::Unary { op, expr, .. } => {
                self.out.push_str(op.symbol());
                // Avoid `--x` ambiguity.
                if matches!(op, UnOp::Neg)
                    && matches!(expr.as_ref(), Expr::Unary { op: UnOp::Neg, .. })
                {
                    self.out.push(' ');
                }
                self.expr(expr);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.binary_operand(lhs, *op, false);
                let _ = write!(self.out, " {} ", op.symbol());
                self.binary_operand(rhs, *op, true);
            }
            Expr::Paren { expr, .. } => {
                self.out.push('(');
                self.expr(expr);
                self.out.push(')');
            }
            Expr::TypeAssert { expr, ty, .. } => {
                self.expr(expr);
                self.out.push_str(".(");
                self.ty(ty);
                self.out.push(')');
            }
        }
    }

    /// Prints a binary operand, inserting parentheses when the child binds
    /// looser than the parent operator (so the round-trip preserves shape).
    fn binary_operand(&mut self, child: &Expr, parent: BinOp, is_rhs: bool) {
        let needs_parens = match child {
            Expr::Binary { op, .. } => {
                op.precedence() < parent.precedence()
                    || (is_rhs && op.precedence() == parent.precedence())
            }
            _ => false,
        };
        if needs_parens {
            self.out.push('(');
            self.expr(child);
            self.out.push(')');
        } else {
            self.expr(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_file};

    fn roundtrip_file(src: &str) {
        let f1 = parse_file(src).unwrap();
        let printed = print_file(&f1);
        let f2 =
            parse_file(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        assert_eq!(strip_file(&f1), strip_file(&f2), "printed:\n{printed}");
    }

    // Structural comparison that ignores spans: print both and compare.
    fn strip_file(f: &File) -> String {
        print_file(f)
    }

    #[test]
    fn roundtrips_waitgroup_program() {
        roundtrip_file(
            r#"
package main

import "sync"

func SomeFunction() error {
	err := someWork()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err = Task1(); err != nil {
			handle()
		}
	}()
	if err = Task2(); err != nil {
		handle()
	}
	wg.Wait()
	return err
}
"#,
        );
    }

    #[test]
    fn roundtrips_select_and_channels() {
        roundtrip_file(
            r#"
package p

func f(ch chan int, done chan struct{}) int {
	select {
	case v := <-ch:
		return v
	case ch <- 2:
		return 0
	case <-done:
		return -1
	default:
		return 1
	}
}
"#,
        );
    }

    #[test]
    fn roundtrips_structs_maps_slices() {
        roundtrip_file(
            r#"
package p

type Manager struct {
	items map[Key]Item
	mu    sync.Mutex
	xs    []int
}

func (m *Manager) Get(k Key) (Item, bool) {
	v, ok := m.items[k]
	return v, ok
}
"#,
        );
    }

    #[test]
    fn roundtrips_table_test() {
        roundtrip_file(
            r#"
package p

func TestRead(t *testing.T) {
	sampleHash := md5.New()
	tests := []struct {
		name string
		hash hash.Hash
	}{
		{name: "one", hash: sampleHash},
		{name: "two", hash: sampleHash},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			use(tt.hash)
		})
	}
}
"#,
        );
    }

    #[test]
    fn parens_preserved_by_precedence() {
        let e = parse_expr("(a + b) * c").unwrap();
        let printed = print_expr(&e);
        let e2 = parse_expr(&printed).unwrap();
        assert_eq!(print_expr(&e2), printed);
        assert!(printed.contains('('));
    }

    #[test]
    fn prints_make_and_new() {
        let e = parse_expr("make(chan struct{}, 1)").unwrap();
        assert_eq!(print_expr(&e), "make(chan struct{}, 1)");
        let e = parse_expr("new(Buffer)").unwrap();
        assert_eq!(print_expr(&e), "new(Buffer)");
    }

    #[test]
    fn prints_labeled_loop() {
        roundtrip_file(
            r#"
package p

func f(stop chan struct{}) {
Loop:
	for {
		select {
		case <-stop:
			break Loop
		default:
			work()
		}
	}
}
"#,
        );
    }

    #[test]
    fn roundtrips_switch() {
        roundtrip_file(
            r#"
package p

func f(x int) int {
	switch x {
	case 0:
		return 10
	case 1, 2:
		return 20
	default:
		return 30
	}
}
"#,
        );
    }

    #[test]
    fn roundtrips_generics_and_range_api() {
        roundtrip_file(
            r#"
package p

type Scanner[ROW any] struct {
	lockMap sync.Map
}

func (t *Scanner[ROW]) runShards(newShards map[ShardKey]bool) {
	t.lockMap.Range(func(key, value interface{}) bool {
		shardKey := key.(ShardKey)
		if _, ok := newShards[shardKey]; !ok {
			t.lockMap.Delete(shardKey)
		}
		return true
	})
}
"#,
        );
    }

    #[test]
    fn roundtrips_atomic_ops() {
        roundtrip_file(
            r#"
package p

import "sync/atomic"

func f() {
	var cnt int32
	atomic.AddInt32(&cnt, 1)
	if atomic.LoadInt32(&cnt) > 0 {
		use(cnt)
	}
}
"#,
        );
    }
}
