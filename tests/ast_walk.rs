//! `golite::visit`'s walks: the read-only walk reaches each statement
//! once however deep function literals nest, and the read-only
//! (`Visit`) and mutable (`MutVisitor`) walks enumerate the same nodes in
//! the same order on generated cases.

use corpus::stream::{CorpusStream, StreamConfig, StreamFamily};
use golite::ast::{Decl, Expr, File, Stmt};
use golite::visit::{walk_stmts, MutVisitor, Visit};
use golite::Span;
use std::collections::BTreeMap;

#[test]
fn walk_stmts_visits_each_statement_once_in_nested_literals() {
    let src = concat!(
        "package p\n\n",
        "func f(x int) {\n",
        "\ta := func() {\n",
        "\t\tb := func() {\n",
        "\t\t\tc := func() {\n",
        "\t\t\t\tx++\n",
        "\t\t\t}\n",
        "\t\t\t_ = c\n",
        "\t\t}\n",
        "\t\t_ = b\n",
        "\t}\n",
        "\t_ = a\n",
        "}\n",
    );
    let file = golite::parse_file(src).expect("parses");
    let body = file.find_func("f").unwrap().body.as_ref().unwrap();
    let mut visits: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    walk_stmts(body, &mut |s| {
        *visits.entry((s.span().lo, s.span().hi)).or_default() += 1;
    });
    assert_eq!(visits.len(), 7, "{visits:?}");
    assert!(visits.values().all(|&n| n == 1), "{visits:?}");
}

/// One node as a walk met it.
#[derive(Debug, PartialEq)]
enum Node {
    List(usize),
    Stmt(Span),
    Expr(Span),
}

#[derive(Default)]
struct ReadOnly(Vec<Node>);

impl Visit<'_> for ReadOnly {
    fn list(&mut self, list: &[Stmt]) -> bool {
        self.0.push(Node::List(list.len()));
        true
    }
    fn stmt(&mut self, s: &Stmt) -> bool {
        self.0.push(Node::Stmt(s.span()));
        true
    }
    fn expr(&mut self, e: &Expr) -> bool {
        self.0.push(Node::Expr(e.span()));
        true
    }
}

#[derive(Default)]
struct Mutable(Vec<Node>);

impl MutVisitor for Mutable {
    fn visit_list(&mut self, list: &mut Vec<Stmt>) {
        self.0.push(Node::List(list.len()));
        self.walk_list(list);
    }
    fn visit_stmt(&mut self, s: &mut Stmt) {
        self.0.push(Node::Stmt(s.span()));
        self.walk_stmt(s);
    }
    fn visit_expr(&mut self, e: &mut Expr) {
        self.0.push(Node::Expr(e.span()));
        self.walk_expr(e);
    }
}

fn read_only(file: &File) -> Vec<Node> {
    let mut v = ReadOnly::default();
    for d in &file.decls {
        match d {
            Decl::Func(f) => {
                if let Some(body) = &f.body {
                    v.walk_list(&body.stmts);
                }
            }
            Decl::Var(vd) | Decl::Const(vd) => vd.values.iter().for_each(|e| v.walk_expr(e)),
            Decl::Type(_) => {}
        }
    }
    v.0
}

fn mutable(mut file: File) -> Vec<Node> {
    let mut v = Mutable::default();
    for d in &mut file.decls {
        match d {
            Decl::Func(f) => {
                if let Some(body) = &mut f.body {
                    v.visit_block(body);
                }
            }
            Decl::Var(vd) | Decl::Const(vd) => vd.values.iter_mut().for_each(|e| v.visit_expr(e)),
            Decl::Type(_) => {}
        }
    }
    v.0
}

#[test]
fn read_only_and_mutable_walks_meet_the_same_nodes() {
    let mut files = 0;
    for &family in StreamFamily::all() {
        let stream = CorpusStream::new(StreamConfig {
            family,
            seed: 0xD27F17,
        });
        for i in 0..60 {
            for (name, src) in stream.case(i).files {
                let file = golite::parse_file(&src).expect("generated cases parse");
                let seen = read_only(&file);
                let stmts = seen.iter().filter(|n| matches!(n, Node::Stmt(_))).count();
                let exprs = seen.iter().filter(|n| matches!(n, Node::Expr(_))).count();
                assert!(stmts > 0 && exprs > 0, "{family:?} case {i} {name}");
                assert_eq!(
                    seen,
                    mutable(file),
                    "{family:?} case {i} {name}: the walks diverged"
                );
                files += 1;
            }
        }
    }
    assert!(files >= 180, "{files} files walked");
}
