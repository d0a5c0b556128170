//! Per-function control-flow graphs over `golite` ASTs.
//!
//! Every function body — and every function literal inside one — becomes
//! its own [`Context`] with a small basic-block CFG. Statements are
//! lowered to the flat [`Op`] alphabet the lockset analysis consumes:
//! lock operations (with `defer` tracked at registration point),
//! variable accesses, direct calls, and function exits.
//!
//! Closure bodies are *not* inlined into their parent's CFG: a `go`
//! literal runs on another goroutine and an escaping closure runs at an
//! unknown time, so each gets an independent context whose entry lockset
//! is empty.
//!
//! Lock and variable paths are recorded per check as [`PathId`]s into one
//! text buffer (see [`Paths`]); names, callees and declared variables
//! borrow the AST.

use golite::ast::{
    Block, CommClause, Decl, Expr, File, FuncDecl, FuncSig, Stmt, Type, UnOp, VarDecl,
};
use golite::visit::Visit;
use golite::Span;
use std::collections::HashMap;

/// Sentinel for "control flow diverged" (after `return`/`break`/…).
const NO_BLOCK: usize = usize::MAX;

/// The four mutex methods the lockset tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMethod {
    /// `mu.Lock()`.
    Lock,
    /// `mu.Unlock()`.
    Unlock,
    /// `mu.RLock()`.
    RLock,
    /// `mu.RUnlock()`.
    RUnlock,
}

impl LockMethod {
    /// Maps a method name to a lock method.
    pub fn from_name(name: &str) -> Option<LockMethod> {
        match name {
            "Lock" => Some(LockMethod::Lock),
            "Unlock" => Some(LockMethod::Unlock),
            "RLock" => Some(LockMethod::RLock),
            "RUnlock" => Some(LockMethod::RUnlock),
            _ => None,
        }
    }

    /// `true` for `Lock`/`RLock`.
    pub fn is_acquire(self) -> bool {
        matches!(self, LockMethod::Lock | LockMethod::RLock)
    }
}

/// A qualified lock or variable path of one check (see [`Paths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

/// The qualified lock and variable paths of one check. While contexts are
/// built, every path occurrence gets an id of its own and its text is
/// appended to one shared buffer, so recording a path allocates nothing.
/// [`Paths::sort`] then gives equal paths one id, numbered in the paths'
/// byte order: from then on ids compare exactly as the path texts do, and
/// a set or map keyed by [`PathId`] iterates as one keyed by text.
#[derive(Debug, Default)]
pub struct Paths {
    text: String,
    /// Each id's text as offsets into `text`.
    spans: Vec<PathSpan>,
}

/// Where one path's text lies in [`Paths`]' buffer: `start..end`, of
/// which `shown..end` is the part messages show (the path without its
/// `owner::` qualifier).
#[derive(Debug, Clone, Copy)]
struct PathSpan {
    start: u32,
    shown: u32,
    end: u32,
}

impl Paths {
    /// The buffer's length: where the next path's text starts.
    fn mark(&self) -> u32 {
        u32::try_from(self.text.len()).expect("paths fit in 4 GiB")
    }

    /// Records the path appended to the buffer since `start`, shown from
    /// `shown` on (both values of [`Paths::mark`]).
    fn finish(&mut self, start: u32, shown: u32) -> PathId {
        let end = self.mark();
        let id = PathId(u32::try_from(self.spans.len()).expect("fewer than 2^32 paths"));
        self.spans.push(PathSpan { start, shown, end });
        id
    }

    fn slice(&self, from: u32, to: u32) -> &str {
        &self.text[from as usize..to as usize]
    }

    /// The path an id stands for.
    pub fn name(&self, id: PathId) -> &str {
        let s = self.spans[id.0 as usize];
        self.slice(s.start, s.end)
    }

    /// The path without its `owner::` qualifier.
    pub fn shown(&self, id: PathId) -> &str {
        let s = self.spans[id.0 as usize];
        self.slice(s.shown, s.end)
    }

    /// Gives equal paths one id, numbered in path order, and rewrites
    /// every op of `contexts` — all the contexts built against these
    /// paths — to match.
    pub fn sort<'c, 'a: 'c>(&mut self, contexts: impl IntoIterator<Item = &'c mut Context<'a>>) {
        let mut order: Vec<(&str, u32)> = (0..self.spans.len() as u32)
            .map(|id| (self.name(PathId(id)), id))
            .collect();
        order.sort_unstable();
        let mut rank = vec![PathId(0); order.len()];
        let mut distinct: Vec<PathSpan> = Vec::new();
        for (i, &(name, id)) in order.iter().enumerate() {
            if i == 0 || name != order[i - 1].0 {
                distinct.push(self.spans[id as usize]);
            }
            rank[id as usize] = PathId(distinct.len() as u32 - 1);
        }
        self.spans = distinct;
        for ctx in contexts {
            for op in ctx.cfg.blocks.iter_mut().flat_map(|b| &mut b.ops) {
                if let Op::Sync { lock: id, .. } | Op::Access { path: id, .. } = op {
                    *id = rank[id.0 as usize];
                }
            }
        }
    }
}

/// One lowered operation.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    /// A lock operation on the lock named `lock` (qualified id).
    Sync {
        /// Qualified lock id: package-level locks keep their bare path,
        /// method-receiver locks rewrite to `Type.path`, and locals are
        /// scoped as `func::path`.
        lock: PathId,
        /// Which mutex method.
        method: LockMethod,
        /// `true` when registered via `defer` (runs at function exit).
        deferred: bool,
        /// Source span of the call.
        span: Span,
    },
    /// A read or write of a variable path.
    Access {
        /// Qualified variable path.
        path: PathId,
        /// `true` for writes (assignment targets, `++`/`--`).
        write: bool,
        /// Source span.
        span: Span,
    },
    /// A direct call to a file-local function or method.
    Call {
        /// Callee name (receiver-type-agnostic for methods).
        callee: &'a str,
        /// Source span.
        span: Span,
    },
    /// A function exit point (`return` or fall-off-the-end).
    Exit {
        /// Source span of the exit.
        span: Span,
    },
    /// A `go` statement: from here on, a spawned goroutine may run
    /// concurrently with this context.
    Spawn,
}

/// A basic block: straight-line ops plus successor edges.
#[derive(Debug, Default)]
pub struct BasicBlock<'a> {
    /// Ops in execution order.
    pub ops: Vec<Op<'a>>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// A control-flow graph; block 0 is the entry.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// Basic blocks.
    pub blocks: Vec<BasicBlock<'a>>,
    /// The synthetic exit block (no ops, no successors).
    pub exit: usize,
}

/// What kind of execution context a CFG models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextKind {
    /// A top-level function or method body.
    Function,
    /// A function literal spawned with `go` (its own goroutine).
    Goroutine,
    /// Any other function literal (callback, deferred closure, …).
    Closure,
}

/// One analyzed execution context: a function body or closure body.
#[derive(Debug)]
pub struct Context<'a> {
    /// Name of the owning top-level function (closures inherit it).
    pub func: &'a str,
    /// Context kind.
    pub kind: ContextKind,
    /// Control-flow graph.
    pub cfg: Cfg<'a>,
    /// Names declared inside this context (params, `:=`, `var`, range
    /// bindings), sorted and deduplicated — accesses to these are
    /// context-private.
    pub declared: Vec<&'a str>,
    /// Span of the context's body.
    pub span: Span,
}

impl Context<'_> {
    /// Whether `name` is declared inside this context.
    pub fn declares(&self, name: &str) -> bool {
        self.declared.binary_search(&name).is_ok()
    }
}

/// What a top-level name denotes, as a set of [`FileEnv`] kind bits: a
/// name can be, say, both a function and a package.
type Kinds = u8;
/// An imported package name (alias resolved).
const PACKAGE: Kinds = 1;
/// A top-level function or method name.
const FUNC: Kinds = 2;
/// A declared type name.
const TYPE: Kinds = 4;
/// A package-level variable or constant name.
const GLOBAL: Kinds = 8;

/// File-level naming facts shared by every context of one file: what
/// each top-level name denotes, found with one lookup per name.
#[derive(Debug, Default)]
pub struct FileEnv<'a> {
    kinds: HashMap<&'a str, Kinds>,
}

impl<'a> FileEnv<'a> {
    /// Collects the naming facts of `file`.
    pub fn new(file: &'a File) -> FileEnv<'a> {
        FileEnv::for_program(std::iter::once(file))
    }

    /// Collects naming facts across every file of a program, so that a
    /// package-level variable declared in one file qualifies the same
    /// way when used from another.
    pub fn for_program(files: impl IntoIterator<Item = &'a File>) -> FileEnv<'a> {
        let mut env = FileEnv::default();
        for file in files {
            env.add_file(file);
        }
        env
    }

    fn add_file(&mut self, file: &'a File) {
        let mut add = |name: &'a str, kind: Kinds| *self.kinds.entry(name).or_default() |= kind;
        for imp in &file.imports {
            let name = match &imp.alias {
                Some(alias) => alias.as_str(),
                None => imp.path.rsplit('/').next().unwrap_or(&imp.path),
            };
            add(name, PACKAGE);
        }
        for d in &file.decls {
            match d {
                Decl::Func(f) => add(&f.name, FUNC),
                Decl::Type(t) => add(&t.name, TYPE),
                Decl::Var(v) | Decl::Const(v) => {
                    for name in &v.names {
                        add(name, GLOBAL);
                    }
                }
            }
        }
    }

    /// Whether `name` denotes any of `kinds`.
    fn is(&self, name: &str, kinds: Kinds) -> bool {
        self.kinds.get(name).is_some_and(|k| k & kinds != 0)
    }
}

/// Names that are never variable accesses.
fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "_" | "true"
            | "false"
            | "nil"
            | "iota"
            | "len"
            | "cap"
            | "append"
            | "copy"
            | "delete"
            | "close"
            | "panic"
            | "print"
            | "println"
            | "recover"
            | "min"
            | "max"
            | "int"
            | "int8"
            | "int16"
            | "int32"
            | "int64"
            | "uint"
            | "uint8"
            | "uint16"
            | "uint32"
            | "uint64"
            | "float32"
            | "float64"
            | "complex64"
            | "complex128"
            | "bool"
            | "string"
            | "byte"
            | "rune"
            | "error"
            | "any"
            | "uintptr"
    )
}

/// Renders a pure lvalue chain (`a`, `a.b`, `a.b[i].c`, `(*p).f`) as a
/// dotted path, dropping index expressions: `m[k]` renders as `m`.
pub fn path_of(e: &Expr) -> Option<String> {
    let mut path = String::new();
    push_path(e, &mut path).then_some(path)
}

/// Appends [`path_of`]`(e)` to `buf`; `false` (with `buf` holding a
/// partial path) when `e` is not a pure lvalue chain.
fn push_path(e: &Expr, buf: &mut String) -> bool {
    match e {
        Expr::Ident { name, .. } => {
            buf.push_str(name);
            true
        }
        Expr::Selector { expr, name, .. } => {
            let ok = push_path(expr, buf);
            buf.push('.');
            buf.push_str(name);
            ok
        }
        Expr::Index { expr, .. } | Expr::SliceExpr { expr, .. } => push_path(expr, buf),
        Expr::Paren { expr, .. } | Expr::TypeAssert { expr, .. } => push_path(expr, buf),
        Expr::Unary {
            op: UnOp::Deref | UnOp::Addr,
            expr,
            ..
        } => push_path(expr, buf),
        _ => false,
    }
}

/// The builder turning one body into a [`Cfg`].
struct Builder<'a, 'e> {
    blocks: Vec<BasicBlock<'a>>,
    exit: usize,
    /// `(break_target, continue_target)` stack; `continue_target` is
    /// `NO_BLOCK` for switch/select scopes.
    scopes: Vec<(usize, usize)>,
    declared: Vec<&'a str>,
    env: &'e FileEnv<'a>,
    paths: &'e mut Paths,
    /// Substitution applied to path roots: method receivers rewrite to
    /// their type name so `s.mu` means the same lock in every method.
    recv: Option<(&'a str, &'e str)>,
    /// Scratch for the raw path under lowering.
    raw: String,
}

impl<'a, 'e> Builder<'a, 'e> {
    fn new(env: &'e FileEnv<'a>, paths: &'e mut Paths, recv: Option<(&'a str, &'e str)>) -> Self {
        Builder {
            blocks: vec![BasicBlock::default()],
            exit: 0,
            scopes: Vec::new(),
            declared: Vec::new(),
            env,
            paths,
            recv,
            raw: String::new(),
        }
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if from != NO_BLOCK && !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn push(&mut self, block: usize, op: Op<'a>) {
        if block != NO_BLOCK {
            self.blocks[block].ops.push(op);
        }
    }

    /// Renders `e`'s lvalue path into the raw-path scratch; `false` when
    /// `e` is not a pure lvalue chain.
    fn render(&mut self, e: &Expr) -> bool {
        self.raw.clear();
        push_path(e, &mut self.raw)
    }

    /// Qualifies the raw path into a stable id: package-level names stay
    /// bare, method-receiver roots rewrite to the receiver type, and
    /// everything else is scoped to the owning function.
    fn qualify(&mut self, owner: &str) -> PathId {
        let raw = self.raw.as_str();
        let root = raw.split('.').next().unwrap_or(raw);
        self.qualify_root(root.len(), self.env.is(root, GLOBAL), owner)
    }

    /// [`Builder::qualify`] given the length of the raw path's root and
    /// whether that root names a package-level variable.
    fn qualify_root(&mut self, root_len: usize, global: bool, owner: &str) -> PathId {
        let raw = self.raw.as_str();
        let root = &raw[..root_len];
        let paths = &mut *self.paths;
        let start = paths.mark();
        let shown = match self.recv {
            Some((recv_name, type_name)) if root == recv_name => {
                paths.text.push_str(type_name);
                paths.text.push_str(&raw[root_len..]);
                start
            }
            _ if global => {
                paths.text.push_str(raw);
                start
            }
            _ => {
                paths.text.push_str(owner);
                paths.text.push_str("::");
                let shown = paths.mark();
                paths.text.push_str(raw);
                shown
            }
        };
        paths.finish(start, shown)
    }

    // ---- expression lowering -------------------------------------------------

    /// Emits read accesses (and nested sync/call ops) for `e`.
    fn reads(&mut self, block: usize, e: &'a Expr, owner: &str) {
        if self.render(e) {
            self.access(block, false, e.span(), owner);
            // Index expressions inside the chain still execute.
            self.index_reads(block, e, owner);
            return;
        }
        match e {
            Expr::Call { .. } => self.call(block, e, owner),
            Expr::FuncLit { .. } => {} // separate context
            Expr::CompositeLit { elems, .. } => {
                for el in elems {
                    if let Some(k) = &el.key {
                        if k.as_ident().is_none() {
                            self.reads(block, k, owner);
                        }
                    }
                    self.reads(block, &el.value, owner);
                }
            }
            Expr::Make { args, .. } => {
                for a in args {
                    self.reads(block, a, owner);
                }
            }
            Expr::New { .. } => {}
            Expr::Unary { expr, .. } | Expr::Paren { expr, .. } => self.reads(block, expr, owner),
            Expr::Binary { lhs, rhs, .. } => {
                self.reads(block, lhs, owner);
                self.reads(block, rhs, owner);
            }
            Expr::Selector { expr, .. }
            | Expr::Index { expr, .. }
            | Expr::SliceExpr { expr, .. }
            | Expr::TypeAssert { expr, .. } => {
                self.reads(block, expr, owner);
                self.index_reads(block, e, owner);
            }
            _ => {}
        }
    }

    /// Emits reads for index/slice-bound expressions nested in a chain.
    fn index_reads(&mut self, block: usize, e: &'a Expr, owner: &str) {
        match e {
            Expr::Index { expr, index, .. } => {
                self.index_reads(block, expr, owner);
                self.reads(block, index, owner);
            }
            Expr::SliceExpr { expr, lo, hi, .. } => {
                self.index_reads(block, expr, owner);
                if let Some(lo) = lo {
                    self.reads(block, lo, owner);
                }
                if let Some(hi) = hi {
                    self.reads(block, hi, owner);
                }
            }
            Expr::Selector { expr, .. }
            | Expr::Paren { expr, .. }
            | Expr::TypeAssert { expr, .. }
            | Expr::Unary { expr, .. } => self.index_reads(block, expr, owner),
            _ => {}
        }
    }

    /// Emits an access op for the raw path unless it names a non-variable.
    fn access(&mut self, block: usize, write: bool, span: Span, owner: &str) {
        let raw = self.raw.as_str();
        let root = raw.split('.').next().unwrap_or(raw);
        if is_builtin(root) {
            return;
        }
        let kinds = self.env.kinds.get(root).copied().unwrap_or(0);
        if kinds & (PACKAGE | TYPE) != 0 || (kinds & FUNC != 0 && raw == root) {
            return;
        }
        let path = self.qualify_root(root.len(), kinds & GLOBAL != 0, owner);
        self.push(block, Op::Access { path, write, span });
    }

    /// Lowers a call expression: sync ops for mutex methods, call ops
    /// for file-local callees, plus argument reads.
    fn call(&mut self, block: usize, e: &'a Expr, owner: &str) {
        let Expr::Call {
            fun, args, span, ..
        } = e
        else {
            return;
        };
        match fun.as_ref() {
            Expr::Selector {
                expr: recv, name, ..
            } => {
                let is_path = self.render(recv);
                let is_pkg = recv
                    .as_ident()
                    .map(|r| self.env.is(r, PACKAGE))
                    .unwrap_or(false);
                if !is_pkg {
                    if let (Some(m), true, true) =
                        (LockMethod::from_name(name), is_path, args.is_empty())
                    {
                        let lock = self.qualify(owner);
                        self.push(
                            block,
                            Op::Sync {
                                lock,
                                method: m,
                                deferred: false,
                                span: *span,
                            },
                        );
                        return;
                    }
                    if is_path {
                        self.access(block, false, recv.span(), owner);
                        if self.env.is(name, FUNC) {
                            self.push(
                                block,
                                Op::Call {
                                    callee: name,
                                    span: *span,
                                },
                            );
                        }
                    } else {
                        self.reads(block, recv, owner);
                    }
                }
            }
            Expr::Ident { name, .. } => {
                if self.env.is(name, FUNC) {
                    self.push(
                        block,
                        Op::Call {
                            callee: name,
                            span: *span,
                        },
                    );
                } else if !is_builtin(name) {
                    // Calling through a function-typed variable.
                    self.raw.clear();
                    self.raw.push_str(name);
                    self.access(block, false, fun.span(), owner);
                }
            }
            Expr::FuncLit { .. } => {} // IIFE body is its own context
            other => self.reads(block, other, owner),
        }
        for a in args {
            self.reads(block, a, owner);
        }
    }

    /// Emits a write access for an assignment target.
    fn write_target(&mut self, block: usize, e: &'a Expr, owner: &str) {
        if self.render(e) {
            self.access(block, true, e.span(), owner);
            self.index_reads(block, e, owner);
        } else {
            self.reads(block, e, owner);
        }
    }

    // ---- statement lowering --------------------------------------------------

    fn stmts(&mut self, mut cur: usize, list: &'a [Stmt], owner: &str) -> usize {
        for s in list {
            if cur == NO_BLOCK {
                break; // unreachable code after return/break/continue
            }
            cur = self.stmt(cur, s, owner);
        }
        cur
    }

    fn var_decl(&mut self, cur: usize, d: &'a VarDecl, owner: &str) {
        self.declared.extend(d.names.iter().map(String::as_str));
        for v in &d.values {
            self.reads(cur, v, owner);
        }
    }

    fn stmt(&mut self, cur: usize, s: &'a Stmt, owner: &str) -> usize {
        match s {
            Stmt::Decl(d) => {
                self.var_decl(cur, d, owner);
                cur
            }
            Stmt::ShortVar { names, values, .. } => {
                for v in values {
                    self.reads(cur, v, owner);
                }
                self.declared.extend(names.iter().map(String::as_str));
                cur
            }
            Stmt::Assign { lhs, rhs, .. } => {
                for v in rhs {
                    self.reads(cur, v, owner);
                }
                for t in lhs {
                    self.write_target(cur, t, owner);
                }
                cur
            }
            Stmt::IncDec { expr, .. } => {
                self.write_target(cur, expr, owner);
                cur
            }
            Stmt::Expr(e) => {
                self.reads(cur, e, owner);
                cur
            }
            Stmt::Send { chan, value, .. } => {
                self.reads(cur, chan, owner);
                self.reads(cur, value, owner);
                cur
            }
            Stmt::Go { call, .. } => {
                // Arguments are evaluated on the spawning goroutine; the
                // callee body (if a literal) is a separate context.
                if let Expr::Call { args, fun, .. } = call {
                    if !matches!(fun.as_ref(), Expr::FuncLit { .. }) && self.render(fun) {
                        self.access(cur, false, fun.span(), owner);
                    }
                    for a in args {
                        self.reads(cur, a, owner);
                    }
                }
                self.push(cur, Op::Spawn);
                cur
            }
            Stmt::Defer { call, span } => {
                self.defer_call(cur, call, *span, owner);
                cur
            }
            Stmt::Return { values, span } => {
                for v in values {
                    self.reads(cur, v, owner);
                }
                self.push(cur, Op::Exit { span: *span });
                self.edge(cur, self.exit);
                NO_BLOCK
            }
            Stmt::If(ifs) => {
                let mut cur = cur;
                if let Some(init) = &ifs.init {
                    cur = self.stmt(cur, init, owner);
                }
                self.reads(cur, &ifs.cond, owner);
                let then_b = self.new_block();
                self.edge(cur, then_b);
                let t_end = self.stmts(then_b, &ifs.then.stmts, owner);
                let join = self.new_block();
                let mut reachable = false;
                if t_end != NO_BLOCK {
                    self.edge(t_end, join);
                    reachable = true;
                }
                match &ifs.else_ {
                    Some(e) => {
                        let else_b = self.new_block();
                        self.edge(cur, else_b);
                        let e_end = match e.as_ref() {
                            Stmt::Block(b) => self.stmts(else_b, &b.stmts, owner),
                            other => self.stmt(else_b, other, owner),
                        };
                        if e_end != NO_BLOCK {
                            self.edge(e_end, join);
                            reachable = true;
                        }
                    }
                    None => {
                        self.edge(cur, join);
                        reachable = true;
                    }
                }
                if reachable {
                    join
                } else {
                    NO_BLOCK
                }
            }
            Stmt::For(f) => {
                let mut cur = cur;
                if let Some(init) = &f.init {
                    cur = self.stmt(cur, init, owner);
                }
                let head = self.new_block();
                self.edge(cur, head);
                if let Some(c) = &f.cond {
                    self.reads(head, c, owner);
                }
                let body_b = self.new_block();
                let exit_b = self.new_block();
                self.edge(head, body_b);
                if f.cond.is_some() {
                    self.edge(head, exit_b);
                }
                // `continue` runs the post statement before re-testing.
                let post_b = if f.post.is_some() {
                    self.new_block()
                } else {
                    head
                };
                self.scopes.push((exit_b, post_b));
                let b_end = self.stmts(body_b, &f.body.stmts, owner);
                self.scopes.pop();
                if b_end != NO_BLOCK {
                    self.edge(b_end, post_b);
                }
                if let Some(post) = &f.post {
                    let p_end = self.stmt(post_b, post, owner);
                    if p_end != NO_BLOCK {
                        self.edge(p_end, head);
                    }
                }
                exit_b
            }
            Stmt::Range(r) => {
                self.reads(cur, &r.expr, owner);
                let head = self.new_block();
                self.edge(cur, head);
                let body_b = self.new_block();
                let exit_b = self.new_block();
                self.edge(head, body_b);
                self.edge(head, exit_b);
                for bind in [&r.key, &r.value].into_iter().flatten() {
                    if r.define {
                        if let Some(n) = bind.as_ident() {
                            self.declared.push(n);
                        }
                    } else {
                        self.write_target(body_b, bind, owner);
                    }
                }
                self.scopes.push((exit_b, head));
                let b_end = self.stmts(body_b, &r.body.stmts, owner);
                self.scopes.pop();
                if b_end != NO_BLOCK {
                    self.edge(b_end, head);
                }
                exit_b
            }
            Stmt::Switch(sw) => {
                let mut cur = cur;
                if let Some(init) = &sw.init {
                    cur = self.stmt(cur, init, owner);
                }
                if let Some(tag) = &sw.tag {
                    self.reads(cur, tag, owner);
                }
                let join = self.new_block();
                let mut has_default = false;
                for case in &sw.cases {
                    has_default |= case.exprs.is_empty();
                    let cb = self.new_block();
                    self.edge(cur, cb);
                    for e in &case.exprs {
                        self.reads(cb, e, owner);
                    }
                    self.scopes.push((join, NO_BLOCK));
                    let end = self.stmts(cb, &case.body, owner);
                    self.scopes.pop();
                    if end != NO_BLOCK {
                        self.edge(end, join);
                    }
                }
                if !has_default {
                    self.edge(cur, join);
                }
                join
            }
            Stmt::Select(sel) => {
                let join = self.new_block();
                for case in &sel.cases {
                    let cb = self.new_block();
                    self.edge(cur, cb);
                    match &case.comm {
                        CommClause::Send { chan, value } => {
                            self.reads(cb, chan, owner);
                            self.reads(cb, value, owner);
                        }
                        CommClause::Recv { lhs, define, chan } => {
                            self.reads(cb, chan, owner);
                            for t in lhs {
                                if *define {
                                    if let Some(n) = t.as_ident() {
                                        self.declared.push(n);
                                    }
                                } else {
                                    self.write_target(cb, t, owner);
                                }
                            }
                        }
                        CommClause::Default => {}
                    }
                    self.scopes.push((join, NO_BLOCK));
                    let end = self.stmts(cb, &case.body, owner);
                    self.scopes.pop();
                    if end != NO_BLOCK {
                        self.edge(end, join);
                    }
                }
                if sel.cases.is_empty() {
                    self.edge(cur, join);
                }
                join
            }
            Stmt::Block(b) => self.stmts(cur, &b.stmts, owner),
            Stmt::Break { .. } => {
                if let Some(&(target, _)) = self.scopes.last() {
                    self.edge(cur, target);
                }
                NO_BLOCK
            }
            Stmt::Continue { .. } => {
                // Innermost scope with a continue target (loops only).
                if let Some(&(_, target)) = self.scopes.iter().rev().find(|(_, c)| *c != NO_BLOCK) {
                    self.edge(cur, target);
                }
                NO_BLOCK
            }
            Stmt::Labeled { stmt, .. } => self.stmt(cur, stmt, owner),
            Stmt::Empty { .. } => cur,
        }
    }

    /// Lowers `defer call`: deferred lock ops are recorded at the
    /// registration point; a deferred closure is scanned (shallowly) for
    /// the lock calls it will run.
    fn defer_call(&mut self, cur: usize, call: &'a Expr, span: Span, owner: &str) {
        if let Expr::Call { fun, args, .. } = call {
            if let Expr::Selector {
                expr: recv, name, ..
            } = fun.as_ref()
            {
                if let (Some(m), true, true) = (
                    LockMethod::from_name(name),
                    self.render(recv),
                    args.is_empty(),
                ) {
                    let lock = self.qualify(owner);
                    self.push(
                        cur,
                        Op::Sync {
                            lock,
                            method: m,
                            deferred: true,
                            span,
                        },
                    );
                    return;
                }
            }
            if let Expr::FuncLit { body, .. } = fun.as_ref() {
                for s in &body.stmts {
                    if let Stmt::Expr(Expr::Call {
                        fun, args, span, ..
                    }) = s
                    {
                        if let Expr::Selector {
                            expr: recv, name, ..
                        } = fun.as_ref()
                        {
                            if let (Some(m), true, true) = (
                                LockMethod::from_name(name),
                                self.render(recv),
                                args.is_empty(),
                            ) {
                                let lock = self.qualify(owner);
                                self.push(
                                    cur,
                                    Op::Sync {
                                        lock,
                                        method: m,
                                        deferred: true,
                                        span: *span,
                                    },
                                );
                            }
                        }
                    }
                }
                for a in args {
                    self.reads(cur, a, owner);
                }
                return;
            }
            // Other deferred calls: arguments evaluate now; the receiver
            // is an ordinary access.
            self.reads(cur, call, owner);
        }
    }
}

/// Builds the CFG for one body, with its sorted declared names.
fn build_cfg<'a>(
    env: &FileEnv<'a>,
    paths: &mut Paths,
    recv: Option<(&'a str, &str)>,
    params: &'a FuncSig,
    extra_declared: Option<&'a str>,
    body: &'a Block,
    owner: &str,
) -> (Cfg<'a>, Vec<&'a str>) {
    let mut b = Builder::new(env, paths, recv);
    b.exit = b.new_block();
    b.declared
        .extend(params.param_names().map(|(name, _)| name));
    b.declared.extend(extra_declared);
    let end = b.stmts(0, &body.stmts, owner);
    if end != NO_BLOCK {
        let span = Span::new(body.span.hi.saturating_sub(1), body.span.hi);
        b.push(end, Op::Exit { span });
        let exit = b.exit;
        b.edge(end, exit);
    }
    let exit = b.exit;
    let mut declared = b.declared;
    declared.sort_unstable();
    declared.dedup();
    (
        Cfg {
            blocks: b.blocks,
            exit,
        },
        declared,
    )
}

/// Whether `f` can contribute a fact to the analysis: `false` only for a
/// function with a body and no receiver whose body holds no call, `go`,
/// `defer`, function literal, send, receive or `select`, composite
/// literal, `make`/`new`, selector, unary operator, typed `var` or label,
/// and no identifier `env` knows as a package, function, type or
/// package-level variable. Such a body lowers to one context of
/// `func::`-private accesses and exits: no lock op, call, spawn or
/// closure, and no access another goroutine can share, so solving it
/// yields no diagnostic, lock-order edge or access fact a lint reads.
pub fn relevant(f: &FuncDecl, env: &FileEnv) -> bool {
    let Some(body) = &f.body else { return false };
    if f.receiver.is_some() {
        return true;
    }
    let mut facts = Facts { env, found: false };
    facts.walk_list(&body.stmts);
    facts.found
}

/// [`relevant`]'s search: stops at the first node that can contribute a
/// fact.
struct Facts<'e, 'a> {
    env: &'e FileEnv<'a>,
    found: bool,
}

impl<'a> Visit<'a> for Facts<'_, '_> {
    fn list(&mut self, _: &'a [Stmt]) -> bool {
        !self.found
    }

    fn stmt(&mut self, s: &'a Stmt) -> bool {
        self.found = self.found
            || match s {
                Stmt::Decl(d) => d.ty.is_some(),
                Stmt::Send { .. }
                | Stmt::Go { .. }
                | Stmt::Defer { .. }
                | Stmt::Select(_)
                | Stmt::Labeled { .. } => true,
                _ => false,
            };
        !self.found
    }

    fn expr(&mut self, e: &'a Expr) -> bool {
        self.found = self.found
            || match e {
                Expr::Ident { name, .. } => self.env.is(name, PACKAGE | FUNC | TYPE | GLOBAL),
                Expr::CompositeLit { .. }
                | Expr::FuncLit { .. }
                | Expr::Selector { .. }
                | Expr::Call { .. }
                | Expr::Make { .. }
                | Expr::New { .. }
                | Expr::Unary { .. } => true,
                _ => false,
            };
        !self.found
    }
}

/// Every function literal in a body, pre-order, with its kind: a literal
/// launched by `go` is a goroutine, any other a closure. A deferred
/// literal's lock calls are modelled by the parent context (as deferred
/// ops); a context of its own would double-report them, so only the
/// literals nested inside it are collected.
#[derive(Default)]
struct Lits<'a>(Vec<(&'a FuncSig, &'a Block, Span, ContextKind)>);

impl<'a> Visit<'a> for Lits<'a> {
    fn stmt(&mut self, s: &'a Stmt) -> bool {
        let (Stmt::Go {
            call: Expr::Call { fun, args, .. },
            ..
        }
        | Stmt::Defer {
            call: Expr::Call { fun, args, .. },
            ..
        }) = s
        else {
            return true;
        };
        let Expr::FuncLit {
            sig, body, span, ..
        } = fun.as_ref()
        else {
            return true;
        };
        if matches!(s, Stmt::Go { .. }) {
            self.0.push((sig, body, *span, ContextKind::Goroutine));
        }
        self.walk_list(&body.stmts);
        args.iter().for_each(|a| self.walk_expr(a));
        false
    }

    fn expr(&mut self, e: &'a Expr) -> bool {
        if let Expr::FuncLit {
            sig, body, span, ..
        } = e
        {
            self.0.push((sig, body, *span, ContextKind::Closure));
        }
        true
    }
}

/// The receiver qualification for a method: `(binding name, type name)`.
fn receiver_of(f: &FuncDecl) -> Option<(&str, String)> {
    let r = f.receiver.as_ref()?;
    let ty = match &r.ty {
        Type::Pointer(inner) => inner.as_named_path(),
        other => other.as_named_path(),
    }?;
    Some((&r.name, ty))
}

/// Builds every analysis context of `file` (single-file program), with
/// path ids in path order.
pub fn contexts(file: &File) -> (Vec<Context<'_>>, Paths) {
    let mut paths = Paths::default();
    let mut ctxs = contexts_with(file, &FileEnv::new(file), &mut paths);
    paths.sort(&mut ctxs);
    (ctxs, paths)
}

/// Builds every analysis context of `file` against a (possibly
/// program-wide) naming environment, interning paths into `paths`.
pub fn contexts_with<'a>(file: &'a File, env: &FileEnv<'a>, paths: &mut Paths) -> Vec<Context<'a>> {
    contexts_where(file, env, paths, |_| true)
}

/// [`contexts_with`] for the functions whose index in `file.decls` is
/// kept by `keep`.
pub(crate) fn contexts_where<'a>(
    file: &'a File,
    env: &FileEnv<'a>,
    paths: &mut Paths,
    keep: impl Fn(usize) -> bool,
) -> Vec<Context<'a>> {
    let mut out = Vec::new();
    for (i, d) in file.decls.iter().enumerate() {
        let Decl::Func(f) = d else { continue };
        let Some(body) = &f.body else { continue };
        if !keep(i) {
            continue;
        }
        let recv = receiver_of(f);
        let recv = recv.as_ref().map(|(n, t)| (*n, t.as_str()));
        let extra = recv.map(|(n, _)| n);
        let (cfg, declared) = build_cfg(env, paths, recv, &f.sig, extra, body, &f.name);
        out.push(Context {
            func: &f.name,
            kind: ContextKind::Function,
            cfg,
            declared,
            span: body.span,
        });
        let mut lits = Lits::default();
        lits.walk_list(&body.stmts);
        for (sig, lb, span, kind) in lits.0 {
            let (cfg, declared) = build_cfg(env, paths, recv, sig, None, lb, &f.name);
            out.push(Context {
                func: &f.name,
                kind,
                cfg,
                declared,
                span,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> File {
        golite::parse_file(src).expect("test source parses")
    }

    #[test]
    fn builds_contexts_for_funcs_and_goroutines() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nfunc F() {\n\tvar mu sync.Mutex\n\tgo func() {\n\t\tmu.Lock()\n\t\tmu.Unlock()\n\t}()\n\tf2 := func() {}\n\tf2()\n}\n",
        );
        let (ctxs, _) = contexts(&file);
        assert_eq!(ctxs.len(), 3);
        assert_eq!(ctxs[0].kind, ContextKind::Function);
        assert!(ctxs
            .iter()
            .any(|c| c.kind == ContextKind::Goroutine && c.func == "F"));
        assert!(ctxs.iter().any(|c| c.kind == ContextKind::Closure));
    }

    #[test]
    fn literal_contexts_follow_source_order() {
        let src = "package p\n\ntype T struct {\n\tf func()\n}\n\nfunc F() {\n\tdefer func() {\n\t\tdeferred()\n\t\tgo func() {\n\t\t\tinDefer()\n\t\t}()\n\t}()\n\tgo run(func() {\n\t\targ()\n\t})\n}\n\nfunc G() {\n\tx := T{f: func() {\n\t\tvalue()\n\t}}\n\t_ = x\n\tgo func() {\n\t\touter()\n\t\th := func() {\n\t\t\tinner()\n\t\t}\n\t\th()\n\t}()\n}\n";
        let file = parse(src);
        let (ctxs, _) = contexts(&file);
        // Each context is named by the first word of its body.
        let roster: Vec<(&str, ContextKind, &str)> = ctxs
            .iter()
            .map(|c| {
                let text = &src[c.span.lo as usize..c.span.hi as usize];
                let body = text[text.find('{').unwrap() + 1..].trim_start();
                let end = body.find(|ch: char| !ch.is_alphanumeric()).unwrap();
                (c.func, c.kind, &body[..end])
            })
            .collect();
        use ContextKind::*;
        assert_eq!(
            roster,
            [
                ("F", Function, "defer"),
                ("F", Goroutine, "inDefer"),
                ("F", Closure, "arg"),
                ("G", Function, "x"),
                ("G", Closure, "value"),
                ("G", Goroutine, "outer"),
                ("G", Closure, "inner"),
            ]
        );
    }

    #[test]
    fn lock_ops_are_qualified_per_function() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar g sync.Mutex\n\nfunc F() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tg.Lock()\n\tg.Unlock()\n\tmu.Unlock()\n}\n",
        );
        let (ctxs, paths) = contexts(&file);
        let locks: Vec<&str> = ctxs[0]
            .cfg
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Op::Sync { lock, .. } => Some(paths.name(*lock)),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec!["F::mu", "g", "g", "F::mu"]);
    }

    #[test]
    fn receiver_locks_unify_across_methods() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\ntype S struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc (s *S) A() {\n\ts.mu.Lock()\n\ts.mu.Unlock()\n}\n\nfunc (t *S) B() {\n\tt.mu.Lock()\n\tt.mu.Unlock()\n}\n",
        );
        let (ctxs, paths) = contexts(&file);
        let lock_of = |i: usize| {
            ctxs[i]
                .cfg
                .blocks
                .iter()
                .flat_map(|b| &b.ops)
                .find_map(|op| match op {
                    Op::Sync { lock, .. } => Some(paths.name(*lock)),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(lock_of(0), "S.mu");
        assert_eq!(lock_of(0), lock_of(1));
    }

    #[test]
    fn sorted_path_ids_compare_as_their_paths() {
        let file = parse(
            "package p\n\nimport \"sync\"\n\nvar zeta sync.Mutex\nvar alpha int\n\nfunc F() {\n\tzeta.Lock()\n\talpha++\n\tb := alpha\n\tzeta.Unlock()\n\tgo func() {\n\t\tzeta.Lock()\n\t\talpha = b\n\t\tzeta.Unlock()\n\t}()\n}\n",
        );
        let (ctxs, paths) = contexts(&file);
        let ids: Vec<PathId> = ctxs
            .iter()
            .flat_map(|c| c.cfg.blocks.iter().flat_map(|b| &b.ops))
            .filter_map(|op| match op {
                Op::Sync { lock: id, .. } | Op::Access { path: id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert!(ids.len() > 6, "{ids:?}");
        for &x in &ids {
            for &y in &ids {
                assert_eq!(x.cmp(&y), paths.name(x).cmp(paths.name(y)));
            }
        }
        assert_eq!(paths.shown(ids[0]), "zeta");
        assert!(ids.iter().any(|&id| paths.name(id) == "F::b"));
        assert!(ids.iter().any(|&id| paths.shown(id) == "b"));
    }

    #[test]
    fn relevance_rejects_only_plain_private_bodies() {
        let relevant_funcs = |src: &str| -> Vec<String> {
            let file = parse(src);
            let env = FileEnv::new(&file);
            file.decls
                .iter()
                .filter_map(|d| match d {
                    Decl::Func(f) if relevant(f, &env) => Some(f.name.clone()),
                    _ => None,
                })
                .collect()
        };
        let plain = "func P(n int) int {\n\tx := n * 2\n\tfor i := 0; i < 3; i++ {\n\t\tif x > i {\n\t\t\tx -= i\n\t\t}\n\t}\n\tswitch x % 2 {\n\tcase 0:\n\t\tx = 1\n\t}\n\tvar s = \"a\"\n\t_ = s\n\treturn x\n}\n";
        assert!(relevant_funcs(&format!("package p\n\n{plain}")).is_empty());
        // Each body below has one feature the lowering or a lint can see.
        for body in [
            "g()",
            "go func() {}()",
            "defer func() {}()",
            "ch := 0\n\t_ = <-ch",
            "x := T{}\n\t_ = x",
            "x := make([]int, 1)\n\t_ = x",
            "x := 0\n\t_ = &x",
            "x := 0\n\t_ = x.f",
            "var x int\n\t_ = x",
            "L:\n\tfor {\n\t\tbreak L\n\t}",
            "n := 0\n\tselect {}\n\t_ = n",
            "glob = 1",
            "x := sync\n\t_ = x",
            "f := g\n\t_ = f",
            "var x = T(0)\n\t_ = x",
        ] {
            let src = format!(
                "package p\n\nimport \"sync\"\n\ntype T int\n\nvar glob int\n\nfunc g() {{}}\n\nfunc F() {{\n\t{body}\n}}\n"
            );
            assert_eq!(relevant_funcs(&src), ["F"], "{body}");
        }
        let method = "package p\n\ntype T int\n\nfunc (t T) M() {}\n";
        assert_eq!(relevant_funcs(method), ["M"]);
    }

    #[test]
    fn branch_and_loop_edges_exist() {
        let file = parse(
            "package p\n\nfunc F(xs []int) int {\n\tn := 0\n\tfor _, x := range xs {\n\t\tif x > 0 {\n\t\t\tn = n + x\n\t\t\tcontinue\n\t\t}\n\t\tbreak\n\t}\n\treturn n\n}\n",
        );
        let (ctxs, _) = contexts(&file);
        let cfg = &ctxs[0].cfg;
        assert!(cfg.blocks.len() >= 5);
        let exits = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| matches!(op, Op::Exit { .. }))
            .count();
        assert_eq!(exits, 1);
        // Every non-exit block eventually reaches the exit block.
        assert!(cfg.blocks[cfg.exit].succs.is_empty());
    }
}
