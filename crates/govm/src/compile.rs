//! Compiles `golite` ASTs to bytecode.
//!
//! One call to [`compile_package`] lowers all files of a package into a
//! single [`Program`]. Every local variable becomes a heap cell bound to
//! a frame slot; closures capture cells (Go capture-by-reference).
//! `for … range` bindings follow pre-Go-1.22 semantics: one cell per
//! loop, not per iteration, which the loop-variable race category
//! depends on.

use crate::bytecode::*;
use crate::natives;
use golite::ast::{self, AssignOp, BinOp, CommClause, Expr, Stmt, UnOp};
use golite::diag::{Diag, Result};
use golite::span::{LineMap, Span};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Compiler options. None is settable; the type stays so that callers
/// which pass `CompileOptions::default()` keep compiling.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {}

/// Compiles a package from `(file name, source)` pairs.
///
/// # Errors
///
/// Returns the first parse or lowering [`Diag`].
pub fn compile_sources(sources: &[(String, String)], opts: &CompileOptions) -> Result<Program> {
    let files = golite::parse_sources(sources)
        .map_err(|(i, d)| Diag::new(format!("{}: {}", sources[i].0, d.message), d.span))?;
    compile_package(&files, opts)
}

/// Compiles a package from parsed files (`(file name, source, ast)`). The
/// ASTs may be owned or borrowed, so one parse can serve the compiler and
/// other consumers alike.
///
/// # Errors
///
/// Returns a [`Diag`] on unsupported constructs or unresolved names.
pub fn compile_package<F: Borrow<ast::File>>(
    files: &[(String, String, F)],
    _opts: &CompileOptions,
) -> Result<Program> {
    let files: Vec<(&str, &str, &ast::File)> = files
        .iter()
        .map(|(name, src, file)| (name.as_str(), src.as_str(), file.borrow()))
        .collect();
    let mut c = Compiler::new();
    c.run(&files)?;
    Ok(c.prog)
}

#[derive(Debug, Clone, Copy)]
enum Resolved {
    Local(u16),
    Upval(u16),
    Global(u16),
    Func(u32),
}

struct LoopCtx {
    label: Option<String>,
    is_loop: bool,
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
}

struct FnState {
    func: CompiledFunc,
    scopes: Vec<Vec<(String, u16)>>,
    captures: Vec<(String, UpvalSrc)>,
    loops: Vec<LoopCtx>,
    cur_line: u32,
    closure_count: u32,
}

impl FnState {
    fn new(name: String, file: u32) -> Self {
        FnState {
            func: CompiledFunc {
                name,
                file,
                params: 0,
                param_names: Vec::new(),
                n_slots: 0,
                results: 0,
                code: Vec::new(),
                lines: Vec::new(),
            },
            scopes: vec![Vec::new()],
            captures: Vec::new(),
            loops: Vec::new(),
            cur_line: 1,
            closure_count: 0,
        }
    }

    fn new_slot(&mut self) -> u16 {
        let s = self.func.n_slots;
        self.func.n_slots += 1;
        s
    }

    fn bind(&mut self, name: &str) -> u16 {
        let slot = self.new_slot();
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .push((name.to_owned(), slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<u16> {
        for scope in self.scopes.iter().rev() {
            for (n, s) in scope.iter().rev() {
                if n == name {
                    return Some(*s);
                }
            }
        }
        None
    }

    fn lookup_innermost(&self, name: &str) -> Option<u16> {
        self.scopes
            .last()?
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }
}

struct Compiler {
    prog: Program,
    pool_map: HashMap<String, u32>,
    hint_map: HashMap<TypeHint, u32>,
    globals_map: HashMap<String, u16>,
    func_ids: HashMap<String, u32>,
    struct_ast: HashMap<String, Vec<(String, ast::Type)>>,
    typedef_ast: HashMap<String, ast::Type>,
    aliases: HashSet<String>,
    fns: Vec<FnState>,
    line_maps: Vec<LineMap>,
    cur_file: u32,
    anon_types: u32,
    /// Names the backing cells of the composite literal currently being
    /// compiled (set from the declared variable or struct field), so race
    /// reports say `lockMap` rather than a generic `entry`.
    name_hint: Option<u32>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            prog: Program::default(),
            pool_map: HashMap::new(),
            hint_map: HashMap::new(),
            globals_map: HashMap::new(),
            func_ids: HashMap::new(),
            struct_ast: HashMap::new(),
            typedef_ast: HashMap::new(),
            aliases: HashSet::new(),
            fns: Vec::new(),
            line_maps: Vec::new(),
            cur_file: 0,
            anon_types: 0,
            name_hint: None,
        }
    }

    fn pool(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.pool_map.get(s) {
            return id;
        }
        let id = self.prog.pool.len() as u32;
        self.prog.pool.push(s.to_owned());
        self.pool_map.insert(s.to_owned(), id);
        id
    }

    fn hint_id(&mut self, h: TypeHint) -> u32 {
        if let Some(&id) = self.hint_map.get(&h) {
            return id;
        }
        let id = self.prog.hints.len() as u32;
        self.prog.hints.push(h);
        self.hint_map.insert(h, id);
        id
    }

    // ------------------------------------------------------------- driver

    fn run(&mut self, files: &[(&str, &str, &ast::File)]) -> Result<()> {
        for (name, src, _) in files {
            self.prog.files.push((*name).to_owned());
            self.line_maps.push(LineMap::new(src));
        }

        // Collect import aliases across all files.
        for (_, _, file) in files {
            for imp in &file.imports {
                let alias = imp
                    .alias
                    .clone()
                    .unwrap_or_else(|| imp.path.rsplit('/').next().unwrap_or("").to_owned());
                self.aliases.insert(alias);
            }
        }

        // Pass 1a: register type names (so hints can reference them).
        for (_, _, file) in files {
            for d in &file.decls {
                if let ast::Decl::Type(t) = d {
                    match &t.ty {
                        ast::Type::Struct(_) => {
                            let name_id = self.pool(&t.name);
                            self.prog.types.push(StructTypeDef {
                                name: name_id,
                                fields: Vec::new(),
                            });
                            self.struct_ast.insert(t.name.clone(), Vec::new());
                        }
                        other => {
                            self.typedef_ast.insert(t.name.clone(), other.clone());
                        }
                    }
                }
            }
        }

        // Pass 1b: fill struct fields.
        for (_, _, file) in files {
            for d in &file.decls {
                if let ast::Decl::Type(t) = d {
                    if let ast::Type::Struct(fields) = &t.ty {
                        let mut ast_fields = Vec::new();
                        let mut defs = Vec::new();
                        for f in fields {
                            if f.names.is_empty() {
                                // Embedded field: named after the type's
                                // last path segment.
                                let fname = match &f.ty {
                                    ast::Type::Named { path, .. } => {
                                        path.last().cloned().unwrap_or_default()
                                    }
                                    ast::Type::Pointer(inner) => match inner.as_ref() {
                                        ast::Type::Named { path, .. } => {
                                            path.last().cloned().unwrap_or_default()
                                        }
                                        _ => String::new(),
                                    },
                                    _ => String::new(),
                                };
                                if fname.is_empty() {
                                    return Err(Diag::new("unsupported embedded field", f.span));
                                }
                                ast_fields.push((fname, f.ty.clone()));
                            } else {
                                for n in &f.names {
                                    ast_fields.push((n.clone(), f.ty.clone()));
                                }
                            }
                        }
                        for (fname, fty) in &ast_fields {
                            let h = self.hint_of(fty);
                            let hid = self.hint_id(h);
                            let fid = self.pool(fname);
                            defs.push((fid, hid));
                        }
                        let name_id = self.pool(&t.name);
                        if let Some(def) = self.prog.types.iter_mut().find(|d| d.name == name_id) {
                            def.fields = defs;
                        }
                        self.struct_ast.insert(t.name.clone(), ast_fields);
                    }
                }
            }
        }

        // Pass 1c: register globals and function ids.
        for (fi, (_, _, file)) in files.iter().enumerate() {
            for d in &file.decls {
                match d {
                    ast::Decl::Var(v) | ast::Decl::Const(v) => {
                        for n in &v.names {
                            let hint =
                                v.ty.as_ref()
                                    .map(|t| self.hint_of(t))
                                    .unwrap_or(TypeHint::Unknown);
                            let hid = self.hint_id(hint);
                            let nid = self.pool(n);
                            let idx = self.prog.globals.len() as u16;
                            self.prog.globals.push(GlobalDef {
                                name: nid,
                                hint: hid,
                            });
                            self.globals_map.insert(n.clone(), idx);
                        }
                    }
                    ast::Decl::Func(f) => {
                        let full = match &f.receiver {
                            Some(r) => {
                                format!("{}.{}", base_type_name(&r.ty), f.name)
                            }
                            None => f.name.clone(),
                        };
                        let id = self.prog.funcs.len() as u32;
                        self.prog.funcs.push(CompiledFunc {
                            name: full.clone(),
                            file: fi as u32,
                            params: 0,
                            param_names: Vec::new(),
                            n_slots: 0,
                            results: 0,
                            code: Vec::new(),
                            lines: Vec::new(),
                        });
                        self.func_ids.insert(full.clone(), id);
                        if let Some(r) = &f.receiver {
                            let tname = self.pool(&base_type_name(&r.ty));
                            let mname = self.pool(&f.name);
                            self.prog.methods.push((tname, mname, id));
                        }
                    }
                    ast::Decl::Type(_) => {}
                }
            }
        }

        // Pass 2: global initialiser.
        let mut has_init = false;
        {
            let mut st = FnState::new("init".into(), 0);
            self.fns.push(st.take_placeholder());
            for (fi, (_, _, file)) in files.iter().enumerate() {
                self.cur_file = fi as u32;
                for d in &file.decls {
                    if let ast::Decl::Var(v) | ast::Decl::Const(v) = d {
                        if v.values.is_empty() {
                            continue;
                        }
                        has_init = true;
                        self.set_line(v.span);
                        if v.values.len() == v.names.len() {
                            for (n, val) in v.names.iter().zip(&v.values) {
                                let expected = v.ty.clone();
                                self.expr_with(val, expected.as_ref())?;
                                let g = self.globals_map[n];
                                self.emit(Op::StoreGlobal(g));
                            }
                        } else if v.values.len() == 1 {
                            self.expr(&v.values[0])?;
                            self.emit(Op::Expand {
                                n: v.names.len() as u8,
                            });
                            for n in v.names.iter().rev() {
                                let g = self.globals_map[n];
                                self.emit(Op::StoreGlobal(g));
                            }
                        } else {
                            return Err(Diag::new("mismatched global initialiser arity", v.span));
                        }
                    }
                }
            }
            self.emit(Op::ConstNil);
            self.emit(Op::Return { n: 1 });
            let st2 = self.fns.pop().expect("fn state");
            st.restore(st2);
            if has_init {
                let id = self.prog.funcs.len() as u32;
                self.prog.funcs.push(st.func);
                self.prog.init_func = Some(id);
            }
        }

        // Pass 3: function bodies.
        for (fi, (_, _, file)) in files.iter().enumerate() {
            self.cur_file = fi as u32;
            for d in &file.decls {
                if let ast::Decl::Func(f) = d {
                    self.compile_func_decl(f, fi as u32)?;
                }
            }
        }
        Ok(())
    }

    fn compile_func_decl(&mut self, f: &ast::FuncDecl, file: u32) -> Result<()> {
        let full = match &f.receiver {
            Some(r) => format!("{}.{}", base_type_name(&r.ty), f.name),
            None => f.name.clone(),
        };
        let id = self.func_ids[&full];
        let body = match &f.body {
            Some(b) => b,
            None => return Ok(()),
        };
        let mut st = FnState::new(full, file);
        st.cur_line = self.line(f.span);

        // Bind receiver + parameters to the leading slots.
        if let Some(r) = &f.receiver {
            st.bind(&r.name);
            st.func.params += 1;
            let nid = self.pool(&r.name);
            st.func.param_names.push(nid);
        }
        for p in &f.sig.params {
            if p.names.is_empty() {
                // Unnamed parameter still consumes a slot.
                st.bind("_");
                st.func.params += 1;
                let nid = self.pool("_");
                st.func.param_names.push(nid);
            } else {
                for n in &p.names {
                    st.bind(n);
                    st.func.params += 1;
                    let nid = self.pool(n);
                    st.func.param_names.push(nid);
                }
            }
        }
        st.func.results = f
            .sig
            .results
            .iter()
            .map(|p| p.names.len().max(1))
            .sum::<usize>() as u8;

        self.fns.push(st);

        // Named results become zero-initialised locals.
        let named_results: Vec<(String, ast::Type)> = f
            .sig
            .results
            .iter()
            .flat_map(|p| p.names.iter().map(|n| (n.clone(), p.ty.clone())))
            .collect();
        for (n, ty) in &named_results {
            let h = self.hint_of(ty);
            let hid = self.hint_id(h);
            self.emit(Op::MakeZero(hid));
            let nid = self.pool(n);
            let slot = self.cur().bind(n);
            self.emit(Op::AllocLocal { slot, name: nid });
        }

        self.block(body)?;

        // Fallthrough return.
        self.set_line(Span::new(body.span.hi.saturating_sub(1), body.span.hi));
        if !named_results.is_empty() {
            for (n, _) in &named_results {
                self.load_ident(n, body.span)?;
            }
            self.emit(Op::Return {
                n: named_results.len() as u8,
            });
        } else {
            self.emit(Op::ConstNil);
            self.emit(Op::Return { n: 1 });
        }

        let st = self.fns.pop().expect("fn state");
        if !st.captures.is_empty() {
            return Err(Diag::new(
                "top-level function cannot capture variables",
                f.span,
            ));
        }
        self.prog.funcs[id as usize] = st.func;
        Ok(())
    }

    // ------------------------------------------------------------ helpers

    fn cur(&mut self) -> &mut FnState {
        self.fns.last_mut().expect("inside a function")
    }

    fn emit(&mut self, op: Op) {
        let line = self.cur().cur_line;
        let st = self.cur();
        st.func.code.push(op);
        st.func.lines.push(line);
    }

    fn here(&mut self) -> usize {
        self.cur().func.code.len()
    }

    fn line(&self, span: Span) -> u32 {
        self.line_maps[self.cur_file as usize].line(span.lo)
    }

    fn set_line(&mut self, span: Span) {
        if !span.is_dummy() {
            let l = self.line(span);
            self.cur().cur_line = l;
        }
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here() as i32;
        self.patch_jump_to(at, target);
    }

    fn patch_jump_to(&mut self, at: usize, target: i32) {
        let st = self.cur();
        match &mut st.func.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) | Op::IterNext(t) => {
                *t = target;
            }
            other => panic!("patching non-jump {other:?}"),
        }
    }

    /// Resolves a name, adding upvalue captures through enclosing
    /// functions as needed (Lua-style).
    fn resolve(&mut self, name: &str) -> Option<Resolved> {
        fn resolve_at(fns: &mut [FnState], idx: usize, name: &str) -> Option<Resolved> {
            if let Some(slot) = fns[idx].lookup(name) {
                return Some(Resolved::Local(slot));
            }
            // Already captured?
            if let Some(pos) = fns[idx].captures.iter().position(|(n, _)| n == name) {
                return Some(Resolved::Upval(pos as u16));
            }
            if idx == 0 {
                return None;
            }
            match resolve_at(fns, idx - 1, name)? {
                Resolved::Local(slot) => {
                    fns[idx]
                        .captures
                        .push((name.to_owned(), UpvalSrc::Local(slot)));
                    Some(Resolved::Upval((fns[idx].captures.len() - 1) as u16))
                }
                Resolved::Upval(u) => {
                    fns[idx]
                        .captures
                        .push((name.to_owned(), UpvalSrc::Upval(u)));
                    Some(Resolved::Upval((fns[idx].captures.len() - 1) as u16))
                }
                other => Some(other),
            }
        }
        let top = self.fns.len() - 1;
        if let Some(r) = resolve_at(&mut self.fns, top, name) {
            return Some(r);
        }
        if let Some(&g) = self.globals_map.get(name) {
            return Some(Resolved::Global(g));
        }
        if let Some(&f) = self.func_ids.get(name) {
            return Some(Resolved::Func(f));
        }
        None
    }

    fn load_ident(&mut self, name: &str, span: Span) -> Result<()> {
        match name {
            "true" => {
                self.emit(Op::ConstBool(true));
                return Ok(());
            }
            "false" => {
                self.emit(Op::ConstBool(false));
                return Ok(());
            }
            "nil" => {
                self.emit(Op::ConstNil);
                return Ok(());
            }
            _ => {}
        }
        match self.resolve(name) {
            Some(Resolved::Local(s)) => self.emit(Op::LoadLocal(s)),
            Some(Resolved::Upval(u)) => self.emit(Op::LoadUpval(u)),
            Some(Resolved::Global(g)) => self.emit(Op::LoadGlobal(g)),
            Some(Resolved::Func(f)) => self.emit(Op::ConstFunc(f)),
            None => {
                return Err(Diag::new(format!("undefined identifier `{name}`"), span));
            }
        }
        Ok(())
    }

    fn store_ident(&mut self, name: &str, span: Span) -> Result<()> {
        if name == "_" {
            self.emit(Op::Pop);
            return Ok(());
        }
        match self.resolve(name) {
            Some(Resolved::Local(s)) => self.emit(Op::StoreLocal(s)),
            Some(Resolved::Upval(u)) => self.emit(Op::StoreUpval(u)),
            Some(Resolved::Global(g)) => self.emit(Op::StoreGlobal(g)),
            _ => return Err(Diag::new(format!("cannot assign to `{name}`"), span)),
        }
        Ok(())
    }

    fn ref_ident(&mut self, name: &str, span: Span) -> Result<()> {
        match self.resolve(name) {
            Some(Resolved::Local(s)) => self.emit(Op::RefLocal(s)),
            Some(Resolved::Upval(u)) => self.emit(Op::RefUpval(u)),
            Some(Resolved::Global(g)) => self.emit(Op::RefGlobal(g)),
            _ => return Err(Diag::new(format!("cannot take address of `{name}`"), span)),
        }
        Ok(())
    }

    /// True when `name` refers to an imported package namespace (and is
    /// not shadowed by a variable).
    fn is_package(&mut self, name: &str) -> bool {
        if !self.aliases.contains(name) {
            return false;
        }
        // A local/global/function with the same name shadows the package.
        let top = self.fns.len() - 1;
        let shadowed = self.fns[top].lookup(name).is_some()
            || self.globals_map.contains_key(name)
            || self.func_ids.contains_key(name);
        !shadowed
    }

    // --------------------------------------------------------------- types

    fn hint_of(&mut self, ty: &ast::Type) -> TypeHint {
        match ty {
            ast::Type::Named { path, .. } => {
                let joined = path.join(".");
                match joined.as_str() {
                    "int" | "int8" | "int16" | "int32" | "int64" | "uint" | "uint8" | "uint16"
                    | "uint32" | "uint64" | "byte" | "rune" | "uintptr" => TypeHint::Int,
                    "float32" | "float64" => TypeHint::Float,
                    "bool" => TypeHint::Bool,
                    "string" => TypeHint::Str,
                    "error" => TypeHint::Error,
                    "any" => TypeHint::Unknown,
                    "sync.Mutex" => TypeHint::Mutex,
                    "sync.RWMutex" => TypeHint::RwMutex,
                    "sync.WaitGroup" => TypeHint::WaitGroup,
                    "sync.Map" => TypeHint::SyncMap,
                    "time.Duration" => TypeHint::Int,
                    _ => {
                        if self.struct_ast.contains_key(&joined) {
                            let id = self.pool(&joined);
                            TypeHint::Struct(id)
                        } else if let Some(under) = self.typedef_ast.get(&joined).cloned() {
                            self.hint_of(&under)
                        } else {
                            TypeHint::Unknown
                        }
                    }
                }
            }
            ast::Type::Pointer(_) => TypeHint::Ptr,
            ast::Type::Slice(_) | ast::Type::Array { .. } => TypeHint::Slice,
            ast::Type::Map { .. } => TypeHint::Map,
            ast::Type::Chan { .. } => TypeHint::Chan,
            ast::Type::Func(_) => TypeHint::Func,
            ast::Type::Struct(fields) => {
                let name = self.register_anon_struct(fields);
                let id = self.pool(&name);
                TypeHint::Struct(id)
            }
            ast::Type::Interface(_) => TypeHint::Unknown,
        }
    }

    fn register_anon_struct(&mut self, fields: &[ast::Field]) -> String {
        // Structural dedup: same field names/types reuse a registration.
        let mut ast_fields = Vec::new();
        for f in fields {
            for n in &f.names {
                ast_fields.push((n.clone(), f.ty.clone()));
            }
        }
        for (name, existing) in &self.struct_ast {
            if name.starts_with("$anon") && *existing == ast_fields {
                return name.clone();
            }
        }
        let name = format!("$anon{}", self.anon_types);
        self.anon_types += 1;
        let name_id = self.pool(&name);
        let mut defs = Vec::new();
        for (fname, fty) in &ast_fields {
            let h = self.hint_of(fty);
            let hid = self.hint_id(h);
            let fid = self.pool(fname);
            defs.push((fid, hid));
        }
        self.prog.types.push(StructTypeDef {
            name: name_id,
            fields: defs,
        });
        self.struct_ast.insert(name.clone(), ast_fields);
        name
    }

    // ---------------------------------------------------------- statements

    fn block(&mut self, b: &ast::Block) -> Result<()> {
        self.cur().scopes.push(Vec::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.cur().scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        self.set_line(s.span());
        match s {
            Stmt::Decl(v) => self.local_decl(v),
            Stmt::ShortVar {
                names,
                values,
                span,
            } => self.short_var(names, values, *span),
            Stmt::Assign { lhs, op, rhs, span } => self.assign(lhs, *op, rhs, *span),
            Stmt::IncDec { expr, inc, span } => {
                let one = Expr::int(1);
                let op = if *inc { AssignOp::Add } else { AssignOp::Sub };
                self.assign(
                    std::slice::from_ref(expr),
                    op,
                    std::slice::from_ref(&one),
                    *span,
                )
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Op::Pop);
                Ok(())
            }
            Stmt::Send { chan, value, .. } => {
                self.expr(chan)?;
                self.expr(value)?;
                self.emit(Op::Send);
                Ok(())
            }
            Stmt::Go { call, span } => self.go_or_defer(call, *span, true),
            Stmt::Defer { call, span } => self.go_or_defer(call, *span, false),
            Stmt::Return { values, span } => {
                let expected = self.cur().func.results;
                if values.is_empty() && expected > 0 {
                    // Bare return with named results: reload them.
                    // (Compiled earlier as locals in declaration order —
                    // their names live in the outermost scope.)
                    let params = self.cur().func.params as usize;
                    let names: Vec<String> = self.cur().scopes[0]
                        .iter()
                        .skip(params)
                        .take(expected as usize)
                        .map(|(n, _)| n.clone())
                        .collect();
                    if names.len() != expected as usize {
                        return Err(Diag::new("bare return requires named results", *span));
                    }
                    for n in &names {
                        self.load_ident(n, *span)?;
                    }
                    self.emit(Op::Return { n: expected });
                    return Ok(());
                }
                for v in values {
                    self.expr(v)?;
                }
                self.emit(Op::Return {
                    n: values.len() as u8,
                });
                Ok(())
            }
            Stmt::If(st) => self.if_stmt(st),
            Stmt::For(st) => self.for_stmt(st, None),
            Stmt::Range(st) => self.range_stmt(st, None),
            Stmt::Switch(st) => self.switch_stmt(st),
            Stmt::Select(st) => self.select_stmt(st),
            Stmt::Block(b) => self.block(b),
            Stmt::Break { label, span } => {
                let at = self.here();
                self.emit(Op::Jump(0));
                let st = self.cur();
                let target = match label {
                    Some(l) => st
                        .loops
                        .iter_mut()
                        .rev()
                        .find(|lc| lc.label.as_deref() == Some(l)),
                    None => st.loops.last_mut(),
                };
                match target {
                    Some(lc) => lc.break_jumps.push(at),
                    None => return Err(Diag::new("break outside loop", *span)),
                }
                Ok(())
            }
            Stmt::Continue { label, span } => {
                let at = self.here();
                self.emit(Op::Jump(0));
                let st = self.cur();
                let target = match label {
                    Some(l) => st
                        .loops
                        .iter_mut()
                        .rev()
                        .filter(|lc| lc.is_loop)
                        .find(|lc| lc.label.as_deref() == Some(l)),
                    None => st.loops.iter_mut().rev().find(|lc| lc.is_loop),
                };
                match target {
                    Some(lc) => lc.continue_jumps.push(at),
                    None => return Err(Diag::new("continue outside loop", *span)),
                }
                Ok(())
            }
            Stmt::Labeled { label, stmt, .. } => match stmt.as_ref() {
                Stmt::For(st) => self.for_stmt(st, Some(label.clone())),
                Stmt::Range(st) => self.range_stmt(st, Some(label.clone())),
                other => self.stmt(other),
            },
            Stmt::Empty { .. } => Ok(()),
        }
    }

    fn local_decl(&mut self, v: &ast::VarDecl) -> Result<()> {
        if v.values.is_empty() {
            for n in &v.names {
                let hint =
                    v.ty.as_ref()
                        .map(|t| self.hint_of(t))
                        .unwrap_or(TypeHint::Unknown);
                let hid = self.hint_id(hint);
                self.emit(Op::MakeZero(hid));
                self.alloc_named(n);
            }
            return Ok(());
        }
        if v.values.len() == v.names.len() {
            for (n, val) in v.names.iter().zip(&v.values) {
                let hint = self.pool(n);
                let saved = self.name_hint.replace(hint);
                self.expr_with(val, v.ty.as_ref())?;
                self.name_hint = saved;
                self.alloc_named(n);
            }
            return Ok(());
        }
        if v.values.len() == 1 {
            self.expr(&v.values[0])?;
            self.emit(Op::Expand {
                n: v.names.len() as u8,
            });
            // Values on stack in order; allocate in reverse.
            let names: Vec<String> = v.names.clone();
            for n in names.iter().rev() {
                self.alloc_named(n);
            }
            return Ok(());
        }
        Err(Diag::new("mismatched declaration arity", v.span))
    }

    fn alloc_named(&mut self, n: &str) {
        if n == "_" {
            self.emit(Op::Pop);
            return;
        }
        let nid = self.pool(n);
        let slot = self.cur().bind(n);
        self.emit(Op::AllocLocal { slot, name: nid });
    }

    fn short_var(&mut self, names: &[String], values: &[Expr], span: Span) -> Result<()> {
        // comma-ok special forms.
        if names.len() == 2 && values.len() == 1 {
            match &values[0] {
                Expr::Index { expr, index, .. } => {
                    self.expr(expr)?;
                    self.expr(index)?;
                    self.emit(Op::Index { comma_ok: true });
                    self.short_var_targets(names, span)?;
                    return Ok(());
                }
                Expr::Unary {
                    op: UnOp::Recv,
                    expr,
                    ..
                } => {
                    self.expr(expr)?;
                    self.emit(Op::Recv { comma_ok: true });
                    self.short_var_targets(names, span)?;
                    return Ok(());
                }
                Expr::TypeAssert { expr, .. } => {
                    self.expr(expr)?;
                    self.emit(Op::ConstBool(true));
                    self.short_var_targets(names, span)?;
                    return Ok(());
                }
                _ => {}
            }
        }
        if values.len() == names.len() {
            for (n, v) in names.iter().zip(values) {
                let hint = self.pool(n);
                let saved = self.name_hint.replace(hint);
                self.expr(v)?;
                self.name_hint = saved;
            }
            self.short_var_targets(names, span)?;
            return Ok(());
        }
        if values.len() == 1 {
            self.expr(&values[0])?;
            self.emit(Op::Expand {
                n: names.len() as u8,
            });
            self.short_var_targets(names, span)?;
            return Ok(());
        }
        Err(Diag::new("mismatched `:=` arity", span))
    }

    /// Pops stacked values (in reverse) into `:=` targets: redeclares in
    /// the current scope unless the name is already declared *in that
    /// scope* (Go's redeclaration rule).
    fn short_var_targets(&mut self, names: &[String], _span: Span) -> Result<()> {
        for n in names.iter().rev() {
            if n == "_" {
                self.emit(Op::Pop);
            } else if let Some(slot) = self.cur().lookup_innermost(n) {
                self.emit(Op::StoreLocal(slot));
            } else {
                self.alloc_named(n);
            }
        }
        Ok(())
    }

    fn assign(&mut self, lhs: &[Expr], op: AssignOp, rhs: &[Expr], span: Span) -> Result<()> {
        if op != AssignOp::Assign {
            // Compound assignment: single target only.
            if lhs.len() != 1 || rhs.len() != 1 {
                return Err(Diag::new("compound assignment needs single target", span));
            }
            return self.compound_assign(&lhs[0], op, &rhs[0], span);
        }
        if lhs.len() == 1 && rhs.len() == 1 {
            return self.assign_single(&lhs[0], &rhs[0], span);
        }
        // comma-ok forms.
        if lhs.len() == 2 && rhs.len() == 1 {
            match &rhs[0] {
                Expr::Index { expr, index, .. } => {
                    self.expr(expr)?;
                    self.expr(index)?;
                    self.emit(Op::Index { comma_ok: true });
                    self.store_multi(lhs, span)?;
                    return Ok(());
                }
                Expr::Unary {
                    op: UnOp::Recv,
                    expr,
                    ..
                } => {
                    self.expr(expr)?;
                    self.emit(Op::Recv { comma_ok: true });
                    self.store_multi(lhs, span)?;
                    return Ok(());
                }
                _ => {}
            }
        }
        if rhs.len() == 1 && lhs.len() > 1 {
            // Multi-assign from a call: refs, value, expand, store.
            for l in lhs {
                self.ref_lvalue(l, span)?;
            }
            self.expr(&rhs[0])?;
            self.emit(Op::Expand { n: lhs.len() as u8 });
            self.emit(Op::StoreMulti(lhs.len() as u8));
            return Ok(());
        }
        if rhs.len() == lhs.len() {
            for l in lhs {
                self.ref_lvalue(l, span)?;
            }
            for r in rhs {
                self.expr(r)?;
            }
            self.emit(Op::StoreMulti(lhs.len() as u8));
            return Ok(());
        }
        Err(Diag::new("mismatched assignment arity", span))
    }

    /// Stores two stacked values into two lvalues (idents only).
    fn store_multi(&mut self, lhs: &[Expr], span: Span) -> Result<()> {
        for l in lhs.iter().rev() {
            match l.as_ident() {
                Some(n) => self.store_ident(n, span)?,
                None => return Err(Diag::new("comma-ok target must be an identifier", l.span())),
            }
        }
        Ok(())
    }

    fn assign_single(&mut self, lhs: &Expr, rhs: &Expr, span: Span) -> Result<()> {
        match lhs {
            Expr::Ident { name, .. } => {
                self.expr(rhs)?;
                self.store_ident(name, span)
            }
            Expr::Selector { expr, name, .. } => {
                self.expr(expr)?;
                self.expr(rhs)?;
                let nid = self.pool(name);
                self.emit(Op::SetField(nid));
                Ok(())
            }
            Expr::Index { expr, index, .. } => {
                self.expr(expr)?;
                self.expr(index)?;
                self.expr(rhs)?;
                self.emit(Op::SetIndex);
                Ok(())
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
                ..
            } => {
                self.expr(expr)?;
                self.expr(rhs)?;
                self.emit(Op::StorePtr);
                Ok(())
            }
            Expr::Paren { expr, .. } => self.assign_single(expr, rhs, span),
            other => Err(Diag::new("unsupported assignment target", other.span())),
        }
    }

    fn compound_assign(&mut self, lhs: &Expr, op: AssignOp, rhs: &Expr, span: Span) -> Result<()> {
        let bin = match op {
            AssignOp::Add => Op::Add,
            AssignOp::Sub => Op::Sub,
            AssignOp::Mul => Op::Mul,
            AssignOp::Div => Op::Div,
            AssignOp::Rem => Op::Rem,
            AssignOp::And => Op::BitAnd,
            AssignOp::Or => Op::BitOr,
            AssignOp::Assign => unreachable!("handled by caller"),
        };
        match lhs {
            Expr::Ident { name, .. } => {
                self.load_ident(name, span)?;
                self.expr(rhs)?;
                self.emit(bin);
                self.store_ident(name, span)
            }
            Expr::Selector { expr, name, .. } => {
                self.expr(expr)?;
                self.emit(Op::Dup);
                let nid = self.pool(name);
                self.emit(Op::GetField(nid));
                self.expr(rhs)?;
                self.emit(bin);
                self.emit(Op::SetField(nid));
                Ok(())
            }
            Expr::Index { expr, index, .. } => {
                self.expr(expr)?;
                self.expr(index)?;
                self.emit(Op::Dup2);
                self.emit(Op::Index { comma_ok: false });
                self.expr(rhs)?;
                self.emit(bin);
                self.emit(Op::SetIndex);
                Ok(())
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
                ..
            } => {
                self.expr(expr)?;
                self.emit(Op::Dup);
                self.emit(Op::LoadPtr);
                self.expr(rhs)?;
                self.emit(bin);
                self.emit(Op::StorePtr);
                Ok(())
            }
            other => Err(Diag::new(
                "unsupported compound assignment target",
                other.span(),
            )),
        }
    }

    fn ref_lvalue(&mut self, e: &Expr, span: Span) -> Result<()> {
        match e {
            Expr::Ident { name, .. } => self.ref_ident(name, span),
            Expr::Selector { expr, name, .. } => {
                self.expr(expr)?;
                let nid = self.pool(name);
                self.emit(Op::RefField(nid));
                Ok(())
            }
            Expr::Index { expr, index, .. } => {
                self.expr(expr)?;
                self.expr(index)?;
                self.emit(Op::RefIndex);
                Ok(())
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
                ..
            } => self.expr(expr),
            Expr::Paren { expr, .. } => self.ref_lvalue(expr, span),
            other => Err(Diag::new("unsupported assignment target", other.span())),
        }
    }

    fn go_or_defer(&mut self, call: &Expr, span: Span, is_go: bool) -> Result<()> {
        let (fun, args) = match call {
            Expr::Call { fun, args, .. } => (fun.as_ref(), args.as_slice()),
            other => {
                return Err(Diag::new(
                    if is_go {
                        "go requires a function call"
                    } else {
                        "defer requires a function call"
                    },
                    other.span(),
                ))
            }
        };
        self.callee(fun, span)?;
        for a in args {
            self.expr(a)?;
        }
        let argc = args.len() as u8;
        self.emit(if is_go {
            Op::Go { argc }
        } else {
            Op::DeferCall { argc }
        });
        Ok(())
    }

    /// Compiles a callee expression (handles method binding and builtins).
    fn callee(&mut self, fun: &Expr, span: Span) -> Result<()> {
        match fun {
            Expr::Selector { expr, name, .. } => {
                if let Some(root) = expr.as_ident() {
                    let root = root.to_owned();
                    if self.is_package(&root) {
                        let q = format!("{root}.{name}");
                        if let Some(b) = natives::builtin_id(&q) {
                            self.emit(Op::ConstBuiltin(b));
                            return Ok(());
                        }
                        return Err(Diag::new(format!("unknown builtin `{q}`"), span));
                    }
                }
                self.expr(expr)?;
                let nid = self.pool(name);
                self.emit(Op::BindMethod(nid));
                Ok(())
            }
            other => self.expr(other),
        }
    }

    fn if_stmt(&mut self, st: &ast::IfStmt) -> Result<()> {
        self.cur().scopes.push(Vec::new());
        if let Some(init) = &st.init {
            self.stmt(init)?;
        }
        self.expr(&st.cond)?;
        let jf = self.here();
        self.emit(Op::JumpIfFalse(0));
        self.block(&st.then)?;
        if let Some(el) = &st.else_ {
            let jend = self.here();
            self.emit(Op::Jump(0));
            self.patch_jump(jf);
            self.stmt(el)?;
            self.patch_jump(jend);
        } else {
            self.patch_jump(jf);
        }
        self.cur().scopes.pop();
        Ok(())
    }

    fn for_stmt(&mut self, st: &ast::ForStmt, label: Option<String>) -> Result<()> {
        self.cur().scopes.push(Vec::new());
        if let Some(init) = &st.init {
            self.stmt(init)?;
        }
        let loop_start = self.here();
        let mut exit_jump = None;
        if let Some(c) = &st.cond {
            self.expr(c)?;
            let jf = self.here();
            self.emit(Op::JumpIfFalse(0));
            exit_jump = Some(jf);
        }
        self.cur().loops.push(LoopCtx {
            label,
            is_loop: true,
            break_jumps: Vec::new(),
            continue_jumps: Vec::new(),
        });
        self.block(&st.body)?;
        let continue_target = self.here() as i32;
        if let Some(post) = &st.post {
            self.stmt(post)?;
        }
        self.emit(Op::Jump(loop_start as i32));
        let end = self.here() as i32;
        if let Some(jf) = exit_jump {
            self.patch_jump_to(jf, end);
        }
        let lc = self.cur().loops.pop().expect("loop ctx");
        for b in lc.break_jumps {
            self.patch_jump_to(b, end);
        }
        for c in lc.continue_jumps {
            self.patch_jump_to(c, continue_target);
        }
        self.cur().scopes.pop();
        Ok(())
    }

    fn range_stmt(&mut self, st: &ast::RangeStmt, label: Option<String>) -> Result<()> {
        self.cur().scopes.push(Vec::new());
        self.expr(&st.expr)?;
        self.emit(Op::IterInit);
        let it_nid = self.pool("$range");
        let it_slot = self.cur().bind("$range");
        self.emit(Op::AllocLocal {
            slot: it_slot,
            name: it_nid,
        });

        let key_name = st
            .key
            .as_ref()
            .and_then(|e| e.as_ident())
            .map(str::to_owned);
        let val_name = st
            .value
            .as_ref()
            .and_then(|e| e.as_ident())
            .map(str::to_owned);

        // Pre-Go-1.22: bindings are allocated once, before the loop.
        let mut key_slot = None;
        let mut val_slot = None;
        if st.define {
            if let Some(k) = &key_name {
                if k != "_" {
                    self.emit(Op::ConstNil);
                    let nid = self.pool(k);
                    let slot = self.cur().bind(k);
                    self.emit(Op::AllocLocal { slot, name: nid });
                    key_slot = Some(slot);
                }
            }
            if let Some(v) = &val_name {
                if v != "_" {
                    self.emit(Op::ConstNil);
                    let nid = self.pool(v);
                    let slot = self.cur().bind(v);
                    self.emit(Op::AllocLocal { slot, name: nid });
                    val_slot = Some(slot);
                }
            }
        }

        let loop_start = self.here();
        self.emit(Op::LoadLocal(it_slot));
        let iter_next = self.here();
        self.emit(Op::IterNext(0));
        // Stack now: key, value (value on top).
        if st.define {
            match val_slot {
                Some(slot) => self.emit(Op::StoreLocal(slot)),
                None => self.emit(Op::Pop),
            }
            match key_slot {
                Some(slot) => self.emit(Op::StoreLocal(slot)),
                None => self.emit(Op::Pop),
            }
        } else {
            // Assignment form: store into existing lvalues.
            match &st.value {
                Some(v) => {
                    let n = v
                        .as_ident()
                        .ok_or_else(|| Diag::new("range target must be identifier", v.span()))?
                        .to_owned();
                    self.store_ident(&n, st.span)?;
                }
                None => self.emit(Op::Pop),
            }
            match &st.key {
                Some(k) => {
                    let n = k
                        .as_ident()
                        .ok_or_else(|| Diag::new("range target must be identifier", k.span()))?
                        .to_owned();
                    self.store_ident(&n, st.span)?;
                }
                None => self.emit(Op::Pop),
            }
        }

        self.cur().loops.push(LoopCtx {
            label,
            is_loop: true,
            break_jumps: Vec::new(),
            continue_jumps: Vec::new(),
        });
        self.block(&st.body)?;
        let continue_target = loop_start as i32;
        self.emit(Op::Jump(loop_start as i32));
        let end = self.here() as i32;
        self.patch_jump_to(iter_next, end);
        let lc = self.cur().loops.pop().expect("loop ctx");
        for b in lc.break_jumps {
            self.patch_jump_to(b, end);
        }
        for c in lc.continue_jumps {
            self.patch_jump_to(c, continue_target);
        }
        self.cur().scopes.pop();
        Ok(())
    }

    fn switch_stmt(&mut self, st: &ast::SwitchStmt) -> Result<()> {
        self.cur().scopes.push(Vec::new());
        if let Some(init) = &st.init {
            self.stmt(init)?;
        }
        // Evaluate the tag into a hidden slot.
        let tag_slot = if let Some(tag) = &st.tag {
            self.expr(tag)?;
            let nid = self.pool("$switch");
            let slot = self.cur().bind("$switch");
            self.emit(Op::AllocLocal { slot, name: nid });
            Some(slot)
        } else {
            None
        };

        // Dispatch: for each case expr, compare and jump.
        let mut case_jumps: Vec<Vec<usize>> = Vec::new();
        let mut default_idx = None;
        for (i, case) in st.cases.iter().enumerate() {
            let mut jumps = Vec::new();
            if case.exprs.is_empty() {
                default_idx = Some(i);
            }
            for e in &case.exprs {
                match tag_slot {
                    Some(slot) => {
                        self.emit(Op::LoadLocal(slot));
                        self.expr(e)?;
                        self.emit(Op::Eq);
                    }
                    None => {
                        self.expr(e)?;
                    }
                }
                let j = self.here();
                self.emit(Op::JumpIfTrue(0));
                jumps.push(j);
            }
            case_jumps.push(jumps);
        }
        let to_default = self.here();
        self.emit(Op::Jump(0));

        self.cur().loops.push(LoopCtx {
            label: None,
            is_loop: false,
            break_jumps: Vec::new(),
            continue_jumps: Vec::new(),
        });

        let mut end_jumps = Vec::new();
        let mut body_starts = Vec::new();
        for case in &st.cases {
            body_starts.push(self.here());
            self.cur().scopes.push(Vec::new());
            for s in &case.body {
                self.stmt(s)?;
            }
            self.cur().scopes.pop();
            let j = self.here();
            self.emit(Op::Jump(0));
            end_jumps.push(j);
        }
        let end = self.here() as i32;
        for (i, jumps) in case_jumps.iter().enumerate() {
            for &j in jumps {
                self.patch_jump_to(j, body_starts[i] as i32);
            }
        }
        match default_idx {
            Some(i) => self.patch_jump_to(to_default, body_starts[i] as i32),
            None => self.patch_jump_to(to_default, end),
        }
        for j in end_jumps {
            self.patch_jump_to(j, end);
        }
        let lc = self.cur().loops.pop().expect("switch ctx");
        for b in lc.break_jumps {
            self.patch_jump_to(b, end);
        }
        self.cur().scopes.pop();
        Ok(())
    }

    fn select_stmt(&mut self, st: &ast::SelectStmt) -> Result<()> {
        // Evaluate channels (and send values) in case order.
        for case in &st.cases {
            match &case.comm {
                CommClause::Send { chan, value } => {
                    self.expr(chan)?;
                    self.expr(value)?;
                }
                CommClause::Recv { chan, .. } => {
                    self.expr(chan)?;
                }
                CommClause::Default => {}
            }
        }
        let spec_id = self.prog.selects.len() as u32;
        self.prog.selects.push(SelectSpec { cases: Vec::new() });
        let select_at = self.here();
        self.emit(Op::Select(spec_id));

        self.cur().loops.push(LoopCtx {
            label: None,
            is_loop: false,
            break_jumps: Vec::new(),
            continue_jumps: Vec::new(),
        });

        let mut specs = Vec::new();
        let mut end_jumps = Vec::new();
        for case in &st.cases {
            let body = self.here() as u32;
            self.cur().scopes.push(Vec::new());
            match &case.comm {
                CommClause::Send { .. } => {
                    specs.push(SelectCaseSpec::Send { body });
                }
                CommClause::Recv { lhs, define, chan } => {
                    let _ = chan;
                    let push_value = !lhs.is_empty();
                    let push_ok = lhs.len() == 2;
                    specs.push(SelectCaseSpec::Recv {
                        body,
                        push_value,
                        push_ok,
                    });
                    // Prologue: stack carries [value, ok?] (ok on top).
                    if push_value {
                        if *define {
                            for e in lhs.iter().rev() {
                                let n = e
                                    .as_ident()
                                    .ok_or_else(|| {
                                        Diag::new("select binding must be identifier", e.span())
                                    })?
                                    .to_owned();
                                self.alloc_named(&n);
                            }
                        } else {
                            for e in lhs.iter().rev() {
                                let n = e
                                    .as_ident()
                                    .ok_or_else(|| {
                                        Diag::new("select target must be identifier", e.span())
                                    })?
                                    .to_owned();
                                self.store_ident(&n, case.span)?;
                            }
                        }
                    }
                }
                CommClause::Default => {
                    specs.push(SelectCaseSpec::Default { body });
                }
            }
            for s in &case.body {
                self.stmt(s)?;
            }
            self.cur().scopes.pop();
            let j = self.here();
            self.emit(Op::Jump(0));
            end_jumps.push(j);
        }
        let end = self.here() as i32;
        for j in end_jumps {
            self.patch_jump_to(j, end);
        }
        let lc = self.cur().loops.pop().expect("select ctx");
        for b in lc.break_jumps {
            self.patch_jump_to(b, end);
        }
        self.prog.selects[spec_id as usize].cases = specs;
        let _ = select_at;
        Ok(())
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self, e: &Expr) -> Result<()> {
        self.expr_with(e, None)
    }

    fn expr_with(&mut self, e: &Expr, expected: Option<&ast::Type>) -> Result<()> {
        self.set_line(e.span());
        match e {
            Expr::Ident { name, span } => self.load_ident(name, *span),
            Expr::IntLit { value, .. } => {
                self.emit(Op::ConstInt(*value));
                Ok(())
            }
            Expr::FloatLit { value, .. } => {
                self.emit(Op::ConstFloat(*value));
                Ok(())
            }
            Expr::StrLit { value, .. } => {
                let id = self.pool(value);
                self.emit(Op::ConstStr(id));
                Ok(())
            }
            Expr::RuneLit { value, .. } => {
                self.emit(Op::ConstInt(*value as i64));
                Ok(())
            }
            Expr::CompositeLit { ty, elems, span } => {
                self.composite(ty.as_ref(), elems, expected, *span)
            }
            Expr::FuncLit { sig, body, span } => self.func_lit(sig, body, *span),
            Expr::Selector { expr, name, span } => {
                if let Some(root) = expr.as_ident() {
                    let root = root.to_owned();
                    if self.is_package(&root) {
                        let q = format!("{root}.{name}");
                        if let Some(v) = natives::const_value(&q) {
                            self.emit(Op::ConstInt(v));
                            return Ok(());
                        }
                        if let Some(b) = natives::builtin_id(&q) {
                            self.emit(Op::ConstBuiltin(b));
                            return Ok(());
                        }
                        return Err(Diag::new(format!("unknown builtin `{q}`"), *span));
                    }
                }
                self.expr(expr)?;
                let nid = self.pool(name);
                self.emit(Op::GetField(nid));
                Ok(())
            }
            Expr::Index { expr, index, .. } => {
                self.expr(expr)?;
                self.expr(index)?;
                self.emit(Op::Index { comma_ok: false });
                Ok(())
            }
            Expr::SliceExpr { expr, lo, hi, .. } => {
                self.expr(expr)?;
                if let Some(lo) = lo {
                    self.expr(lo)?;
                }
                if let Some(hi) = hi {
                    self.expr(hi)?;
                }
                self.emit(Op::SliceOp {
                    has_lo: lo.is_some(),
                    has_hi: hi.is_some(),
                });
                Ok(())
            }
            Expr::Call {
                fun,
                args,
                variadic,
                span,
            } => self.call(fun, args, *variadic, *span),
            Expr::Make { ty, args, span } => self.make(ty, args, *span),
            Expr::New { ty, .. } => {
                let h = self.hint_of(ty);
                let hid = self.hint_id(h);
                self.emit(Op::NewPtr(hid));
                Ok(())
            }
            Expr::Unary { op, expr, span } => match op {
                UnOp::Neg => {
                    self.expr(expr)?;
                    self.emit(Op::Neg);
                    Ok(())
                }
                UnOp::Not => {
                    self.expr(expr)?;
                    self.emit(Op::Not);
                    Ok(())
                }
                UnOp::BitNot => {
                    self.expr(expr)?;
                    self.emit(Op::BitNot);
                    Ok(())
                }
                UnOp::Recv => {
                    self.expr(expr)?;
                    self.emit(Op::Recv { comma_ok: false });
                    Ok(())
                }
                UnOp::Deref => {
                    self.expr(expr)?;
                    self.emit(Op::LoadPtr);
                    Ok(())
                }
                UnOp::Addr => match expr.as_ref() {
                    // &T{...} — structs are references already.
                    Expr::CompositeLit { ty, elems, span } => {
                        self.composite(ty.as_ref(), elems, expected, *span)
                    }
                    Expr::Ident { name, span } => self.ref_ident(name, *span),
                    Expr::Selector { expr, name, .. } => {
                        self.expr(expr)?;
                        let nid = self.pool(name);
                        self.emit(Op::RefField(nid));
                        Ok(())
                    }
                    Expr::Index { expr, index, .. } => {
                        self.expr(expr)?;
                        self.expr(index)?;
                        self.emit(Op::RefIndex);
                        Ok(())
                    }
                    other => Err(Diag::new("cannot take address", other.span())),
                },
            }
            .map_err(|d: Diag| Diag {
                message: d.message,
                span: if d.span.is_dummy() { *span } else { d.span },
            }),
            Expr::Binary { op, lhs, rhs, .. } => self.binary(*op, lhs, rhs),
            Expr::Paren { expr, .. } => self.expr_with(expr, expected),
            Expr::TypeAssert { expr, .. } => {
                // Dynamic typing makes assertions pass-through.
                self.expr(expr)
            }
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<()> {
        match op {
            // [lhs] Dup JumpIfFalse(end) Pop [rhs] end:
            // Short-circuit leaves the duplicated lhs (false) as result;
            // otherwise the dup is popped and rhs is the result.
            BinOp::AndAnd => {
                self.expr(lhs)?;
                self.emit(Op::Dup);
                let j = self.here();
                self.emit(Op::JumpIfFalse(0));
                self.emit(Op::Pop);
                self.expr(rhs)?;
                let end = self.here() as i32;
                self.patch_jump_to(j, end);
                Ok(())
            }
            BinOp::OrOr => {
                self.expr(lhs)?;
                self.emit(Op::Dup);
                let j = self.here();
                self.emit(Op::JumpIfTrue(0));
                self.emit(Op::Pop);
                self.expr(rhs)?;
                let end = self.here() as i32;
                self.patch_jump_to(j, end);
                Ok(())
            }
            other => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                self.emit(match other {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Rem => Op::Rem,
                    BinOp::Eq => Op::Eq,
                    BinOp::NotEq => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::LtEq => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::GtEq => Op::Ge,
                    BinOp::BitAnd => Op::BitAnd,
                    BinOp::BitOr => Op::BitOr,
                    BinOp::BitXor => Op::BitXor,
                    BinOp::Shl => Op::Shl,
                    BinOp::Shr => Op::Shr,
                    BinOp::AndAnd | BinOp::OrOr => unreachable!("handled above"),
                });
                Ok(())
            }
        }
    }

    fn call(&mut self, fun: &Expr, args: &[Expr], variadic: bool, span: Span) -> Result<()> {
        // Core builtins by bare name (unless shadowed).
        if let Some(name) = fun.as_ident() {
            let shadowed = {
                let top = self.fns.len() - 1;
                self.fns[top].lookup(name).is_some() || self.globals_map.contains_key(name)
            };
            if !shadowed {
                match name {
                    "len" => {
                        self.expr(&args[0])?;
                        self.emit(Op::Len);
                        return Ok(());
                    }
                    "cap" => {
                        self.expr(&args[0])?;
                        self.emit(Op::Cap);
                        return Ok(());
                    }
                    "append" => {
                        self.expr(&args[0])?;
                        if variadic {
                            if args.len() != 2 {
                                return Err(Diag::new(
                                    "append with spread takes two arguments",
                                    span,
                                ));
                            }
                            self.expr(&args[1])?;
                            self.emit(Op::AppendSlice);
                        } else {
                            for a in &args[1..] {
                                self.expr(a)?;
                            }
                            self.emit(Op::Append {
                                n: (args.len() - 1) as u16,
                            });
                        }
                        return Ok(());
                    }
                    "delete" => {
                        self.expr(&args[0])?;
                        self.expr(&args[1])?;
                        self.emit(Op::DeleteKey);
                        self.emit(Op::ConstNil); // expression statements Pop
                        return Ok(());
                    }
                    "close" => {
                        self.expr(&args[0])?;
                        self.emit(Op::CloseChan);
                        self.emit(Op::ConstNil);
                        return Ok(());
                    }
                    "panic" => {
                        self.expr(&args[0])?;
                        self.emit(Op::Panic);
                        return Ok(());
                    }
                    "copy" => {
                        let b = natives::builtin_id("copy").expect("copy builtin");
                        self.emit(Op::ConstBuiltin(b));
                        for a in args {
                            self.expr(a)?;
                        }
                        self.emit(Op::Call {
                            argc: args.len() as u8,
                        });
                        return Ok(());
                    }
                    n if natives::INT_CONVERSIONS.contains(&n) => {
                        let b = natives::builtin_id("conv.int").expect("conv builtin");
                        self.emit(Op::ConstBuiltin(b));
                        self.expr(&args[0])?;
                        self.emit(Op::Call { argc: 1 });
                        return Ok(());
                    }
                    "float64" | "float32" => {
                        let b = natives::builtin_id("conv.float").expect("conv builtin");
                        self.emit(Op::ConstBuiltin(b));
                        self.expr(&args[0])?;
                        self.emit(Op::Call { argc: 1 });
                        return Ok(());
                    }
                    "string" => {
                        let b = natives::builtin_id("conv.string").expect("conv builtin");
                        self.emit(Op::ConstBuiltin(b));
                        self.expr(&args[0])?;
                        self.emit(Op::Call { argc: 1 });
                        return Ok(());
                    }
                    _ => {}
                }
            }
        }
        // `time.Duration(x)` style conversions.
        if let Expr::Selector { expr, name, .. } = fun {
            if let Some(root) = expr.as_ident() {
                let root = root.to_owned();
                if self.is_package(&root) && name == "Duration" && root == "time" {
                    let b = natives::builtin_id("conv.duration").expect("conv builtin");
                    self.emit(Op::ConstBuiltin(b));
                    self.expr(&args[0])?;
                    self.emit(Op::Call { argc: 1 });
                    return Ok(());
                }
            }
        }
        self.callee(fun, span)?;
        for a in args {
            self.expr(a)?;
        }
        self.emit(Op::Call {
            argc: args.len() as u8,
        });
        Ok(())
    }

    fn make(&mut self, ty: &ast::Type, args: &[Expr], span: Span) -> Result<()> {
        match ty {
            ast::Type::Chan { .. } => {
                let has_cap = !args.is_empty();
                if has_cap {
                    self.expr(&args[0])?;
                }
                self.emit(Op::MakeChan { has_cap });
                Ok(())
            }
            ast::Type::Map { .. } => {
                let name = self.name_hint.unwrap_or_else(|| self.pool("map"));
                self.emit(Op::MakeMapLit { n: 0, name });
                Ok(())
            }
            ast::Type::Slice(elem) => {
                if args.is_empty() {
                    self.emit(Op::ConstInt(0));
                } else {
                    self.expr(&args[0])?;
                }
                let h = self.hint_of(elem);
                let hid = self.hint_id(h);
                // MakeSliceN names cells "elem" in the VM; pre-name via a
                // literal when a hint exists by emitting the hinted op.
                self.emit(Op::MakeSliceN(hid));
                Ok(())
            }
            ast::Type::Named { path, .. } => {
                // Typedef of map/slice/chan.
                let joined = path.join(".");
                if let Some(under) = self.typedef_ast.get(&joined).cloned() {
                    return self.make(&under, args, span);
                }
                Err(Diag::new("make of unsupported type", span))
            }
            _ => Err(Diag::new("make of unsupported type", span)),
        }
    }

    fn func_lit(&mut self, sig: &ast::FuncSig, body: &ast::Block, span: Span) -> Result<()> {
        let parent_name = self.cur().func.name.clone();
        self.cur().closure_count += 1;
        let n = self.cur().closure_count;
        let name = format!("{parent_name}.func{n}");
        let file = self.cur_file;

        let mut st = FnState::new(name, file);
        st.cur_line = self.line(span);
        for p in &sig.params {
            if p.names.is_empty() {
                st.bind("_");
                st.func.params += 1;
                let nid = self.pool("_");
                st.func.param_names.push(nid);
            } else {
                for pn in &p.names {
                    st.bind(pn);
                    st.func.params += 1;
                    let nid = self.pool(pn);
                    st.func.param_names.push(nid);
                }
            }
        }
        st.func.results = sig
            .results
            .iter()
            .map(|p| p.names.len().max(1))
            .sum::<usize>() as u8;

        self.fns.push(st);
        let named_results: Vec<(String, ast::Type)> = sig
            .results
            .iter()
            .flat_map(|p| p.names.iter().map(|n| (n.clone(), p.ty.clone())))
            .collect();
        for (n, ty) in &named_results {
            let h = self.hint_of(ty);
            let hid = self.hint_id(h);
            self.emit(Op::MakeZero(hid));
            let nid = self.pool(n);
            let slot = self.cur().bind(n);
            self.emit(Op::AllocLocal { slot, name: nid });
        }
        self.block(body)?;
        if !named_results.is_empty() {
            for (n, _) in &named_results {
                self.load_ident(n, body.span)?;
            }
            self.emit(Op::Return {
                n: named_results.len() as u8,
            });
        } else {
            self.emit(Op::ConstNil);
            self.emit(Op::Return { n: 1 });
        }
        let st = self.fns.pop().expect("closure state");
        let func_id = self.prog.funcs.len() as u32;
        let captures: Vec<UpvalSrc> = st.captures.iter().map(|(_, src)| *src).collect();
        self.prog.funcs.push(st.func);
        let spec_id = self.prog.closures.len() as u32;
        self.prog.closures.push(ClosureSpec {
            func: func_id,
            captures,
        });
        self.emit(Op::MakeClosure(spec_id));
        Ok(())
    }

    fn composite(
        &mut self,
        ty: Option<&ast::Type>,
        elems: &[ast::CompositeElem],
        expected: Option<&ast::Type>,
        span: Span,
    ) -> Result<()> {
        let ty = match (ty, expected) {
            (Some(t), _) => t.clone(),
            (None, Some(t)) => t.clone(),
            (None, None) => return Err(Diag::new("cannot infer composite literal type", span)),
        };
        // Resolve typedefs and pointers.
        let ty = match &ty {
            ast::Type::Named { path, .. } => {
                let joined = path.join(".");
                if self.struct_ast.contains_key(&joined) {
                    ty.clone()
                } else if let Some(under) = self.typedef_ast.get(&joined).cloned() {
                    under
                } else {
                    ty.clone()
                }
            }
            ast::Type::Pointer(inner) => inner.as_ref().clone(),
            _ => ty.clone(),
        };
        match &ty {
            ast::Type::Slice(elem) | ast::Type::Array { elem, .. } => {
                for el in elems {
                    if el.key.is_some() {
                        return Err(Diag::new("keyed slice literals unsupported", span));
                    }
                    self.expr_with(&el.value, Some(elem))?;
                }
                let name = self.name_hint.unwrap_or_else(|| self.pool("elem"));
                self.emit(Op::MakeSliceLit {
                    n: elems.len() as u16,
                    name,
                });
                Ok(())
            }
            ast::Type::Map { key, value } => {
                for el in elems {
                    let k = el
                        .key
                        .as_ref()
                        .ok_or_else(|| Diag::new("map literal requires keys", span))?;
                    self.expr_with(k, Some(key))?;
                    self.expr_with(&el.value, Some(value))?;
                }
                let name = self.name_hint.unwrap_or_else(|| self.pool("entry"));
                self.emit(Op::MakeMapLit {
                    n: elems.len() as u16,
                    name,
                });
                Ok(())
            }
            ast::Type::Struct(fields) => {
                let name = self.register_anon_struct(fields);
                self.struct_lit(&name, elems, span)
            }
            ast::Type::Named { path, .. } => {
                let joined = path.join(".");
                self.struct_lit(&joined, elems, span)
            }
            _ => Err(Diag::new("unsupported composite literal type", span)),
        }
    }

    fn struct_lit(
        &mut self,
        type_name: &str,
        elems: &[ast::CompositeElem],
        span: Span,
    ) -> Result<()> {
        let declared = self.struct_ast.get(type_name).cloned();
        match declared {
            Some(decl_fields) => {
                // Registered type: emit every declared field (given value
                // or zero), in declaration order.
                let mut given: HashMap<String, &Expr> = HashMap::new();
                let keyed = elems.iter().all(|e| e.key.is_some());
                if keyed {
                    for el in elems {
                        let k =
                            el.key.as_ref().and_then(|k| k.as_ident()).ok_or_else(|| {
                                Diag::new("struct keys must be field names", span)
                            })?;
                        given.insert(k.to_owned(), &el.value);
                    }
                } else {
                    if elems.len() > decl_fields.len() {
                        return Err(Diag::new("too many positional fields", span));
                    }
                    for (el, (fname, _)) in elems.iter().zip(&decl_fields) {
                        if el.key.is_some() {
                            return Err(Diag::new("mixed positional and keyed fields", span));
                        }
                        given.insert(fname.clone(), &el.value);
                    }
                }
                let mut spec_fields = Vec::new();
                for (fname, fty) in &decl_fields {
                    let fid = self.pool(fname);
                    match given.get(fname) {
                        Some(e) => {
                            let saved = self.name_hint.replace(fid);
                            self.expr_with(e, Some(fty))?;
                            self.name_hint = saved;
                        }
                        None => {
                            let h = self.hint_of(fty);
                            let hid = self.hint_id(h);
                            self.emit(Op::MakeZero(hid));
                        }
                    }
                    spec_fields.push(fid);
                }
                let tid = self.pool(type_name);
                let spec_id = self.prog.struct_lits.len() as u32;
                self.prog.struct_lits.push(StructLitSpec {
                    type_name: tid,
                    fields: spec_fields,
                });
                self.emit(Op::MakeStructLit(spec_id));
                Ok(())
            }
            None => {
                // Unregistered (external) type: keyed fields only.
                let mut spec_fields = Vec::new();
                for el in elems {
                    let k = el
                        .key
                        .as_ref()
                        .and_then(|k| k.as_ident())
                        .ok_or_else(|| {
                            Diag::new(
                                format!("literal of unknown type `{type_name}` must use keys"),
                                span,
                            )
                        })?
                        .to_owned();
                    self.expr(&el.value)?;
                    let fid = self.pool(&k);
                    spec_fields.push(fid);
                }
                let tid = self.pool(type_name);
                let spec_id = self.prog.struct_lits.len() as u32;
                self.prog.struct_lits.push(StructLitSpec {
                    type_name: tid,
                    fields: spec_fields,
                });
                self.emit(Op::MakeStructLit(spec_id));
                Ok(())
            }
        }
    }
}

/// Extracts the base type name of a receiver type (`*Scanner[ROW]` →
/// `Scanner`).
fn base_type_name(ty: &ast::Type) -> String {
    match ty {
        ast::Type::Named { path, .. } => path.join("."),
        ast::Type::Pointer(inner) => base_type_name(inner),
        _ => String::new(),
    }
}

// FnState helpers used by the init-function dance.
impl FnState {
    fn take_placeholder(&mut self) -> FnState {
        std::mem::replace(self, FnState::new(String::new(), 0))
    }

    fn restore(&mut self, other: FnState) {
        *self = other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_one(src: &str) -> Program {
        compile_sources(
            &[("main.go".to_owned(), src.to_owned())],
            &CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("compile failed: {e}"))
    }

    #[test]
    fn compiles_hello() {
        let p = compile_one(
            "package main\n\nimport \"fmt\"\n\nfunc main() {\n\tfmt.Println(\"hi\")\n}\n",
        );
        assert!(p.find_func("main").is_some());
        let f = &p.funcs[p.find_func("main").unwrap() as usize];
        assert!(f.code.iter().any(|op| matches!(op, Op::ConstBuiltin(_))));
    }

    #[test]
    fn closure_captures_by_reference() {
        let p = compile_one(
            r#"
package main

func f() int {
	x := 1
	g := func() {
		x = 2
	}
	g()
	return x
}
"#,
        );
        // The closure must reference x via an upvalue store.
        let clo = p
            .funcs
            .iter()
            .find(|f| f.name == "f.func1")
            .expect("closure compiled");
        assert!(clo.code.iter().any(|op| matches!(op, Op::StoreUpval(0))));
        assert_eq!(p.closures.len(), 1);
        assert_eq!(p.closures[0].captures.len(), 1);
    }

    #[test]
    fn nested_closures_chain_upvalues() {
        let p = compile_one(
            r#"
package main

func f() {
	x := 1
	outer := func() {
		inner := func() {
			x = 3
		}
		inner()
	}
	outer()
}
"#,
        );
        // Inner closure captures through the outer one.
        assert_eq!(p.closures.len(), 2);
        let inner_spec = p
            .closures
            .iter()
            .find(|c| p.funcs[c.func as usize].name.contains("func1.func1"))
            .expect("inner closure spec");
        assert!(matches!(inner_spec.captures[0], UpvalSrc::Upval(0)));
    }

    #[test]
    fn short_var_shadows_in_inner_scope() {
        let p = compile_one(
            r#"
package main

func f() {
	err := work()
	if true {
		err := work()
		use(err)
	}
	use(err)
}

func work() int { return 1 }
func use(x int) {}
"#,
        );
        let f = &p.funcs[p.find_func("f").unwrap() as usize];
        // Two distinct AllocLocal ops for err (different slots).
        let allocs: Vec<u16> = f
            .code
            .iter()
            .filter_map(|op| match op {
                Op::AllocLocal { slot, name } if p.str(*name) == "err" => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(allocs.len(), 2);
        assert_ne!(allocs[0], allocs[1]);
    }

    #[test]
    fn methods_are_registered() {
        let p = compile_one(
            r#"
package main

type Counter struct {
	n int
}

func (c *Counter) Inc() {
	c.n = c.n + 1
}
"#,
        );
        let tid = p.pool.iter().position(|s| s == "Counter").unwrap() as u32;
        let mid = p.pool.iter().position(|s| s == "Inc").unwrap() as u32;
        assert!(p.method_of(tid, mid).is_some());
    }

    #[test]
    fn range_loop_binds_once_by_default() {
        let p = compile_one(
            r#"
package main

func f(nums []int) {
	for _, num := range nums {
		use(num)
	}
}

func use(x int) {}
"#,
        );
        let f = &p.funcs[p.find_func("f").unwrap() as usize];
        let allocs = f
            .code
            .iter()
            .filter(|op| matches!(op, Op::AllocLocal { name, .. } if p.str(*name) == "num"))
            .count();
        assert_eq!(allocs, 1, "per-loop binding allocates once");
    }

    #[test]
    fn select_compiles_case_specs() {
        let p = compile_one(
            r#"
package main

func f(ch chan int, done chan int) int {
	select {
	case v := <-ch:
		return v
	case done <- 1:
		return 0
	default:
		return -1
	}
}
"#,
        );
        assert_eq!(p.selects.len(), 1);
        let spec = &p.selects[0];
        assert_eq!(spec.cases.len(), 3);
        assert!(matches!(
            spec.cases[0],
            SelectCaseSpec::Recv {
                push_value: true,
                push_ok: false,
                ..
            }
        ));
        assert!(matches!(spec.cases[1], SelectCaseSpec::Send { .. }));
        assert!(matches!(spec.cases[2], SelectCaseSpec::Default { .. }));
    }

    #[test]
    fn global_vars_get_init_function() {
        let p = compile_one(
            "package main\n\nvar counter = 10\n\nfunc main() {\n\tcounter = counter + 1\n}\n",
        );
        assert!(p.init_func.is_some());
        assert_eq!(p.globals.len(), 1);
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let r = compile_sources(
            &[(
                "main.go".to_owned(),
                "package main\n\nfunc f() {\n\tuse(mystery)\n}\n".to_owned(),
            )],
            &CompileOptions::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn struct_literal_fills_zero_fields() {
        let p = compile_one(
            r#"
package main

type Req struct {
	Limit int
	Name  string
	Tags  []string
}

func f() Req {
	return Req{Limit: 5}
}
"#,
        );
        let f = &p.funcs[p.find_func("f").unwrap() as usize];
        let zeros = f
            .code
            .iter()
            .filter(|op| matches!(op, Op::MakeZero(_)))
            .count();
        assert_eq!(zeros, 2, "Name and Tags zero-filled");
    }

    #[test]
    fn table_test_compiles() {
        compile_one(
            r#"
package main

import (
	"testing"
	"crypto/md5"
)

func TestRead(t *testing.T) {
	sampleHash := md5.New()
	tests := []struct {
		name string
		hash int
	}{
		{name: "one", hash: 1},
		{name: "two", hash: 2},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			use(sampleHash, tt.hash)
		})
	}
}

func use(a interface{}, b int) {}
"#,
        );
    }

    #[test]
    fn waitgroup_program_compiles() {
        compile_one(
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
		if err = task1(); err != nil {
			note()
		}
	}()
	if err = task2(); err != nil {
		note()
	}
	wg.Wait()
	return err
}

func someWork() error { return nil }
func task1() error    { return nil }
func task2() error    { return nil }
func note()           {}
"#,
        );
    }
}
