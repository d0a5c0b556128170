//! Consistent renaming: racy variables become `racyVarN`, other
//! identifiers `vN`, called functions `funcN`, and types `typeN`, while
//! concurrency API names are preserved (§4.3).

use crate::relevance::is_concurrency_call;
use golite::ast::*;
use golite::visit::MutVisitor;
use std::collections::HashMap;

/// Names never renamed: keywords-adjacent builtins and the concurrency
/// vocabulary.
const PRESERVED: &[&str] = &[
    "nil",
    "true",
    "false",
    "_",
    "make",
    "new",
    "len",
    "cap",
    "append",
    "delete",
    "close",
    "panic",
    "copy",
    "int",
    "int32",
    "int64",
    "string",
    "bool",
    "float64",
    "error",
    "byte",
    "any",
    "sync",
    "atomic",
    "context",
    "testing",
    "chan",
    "struct",
    "interface",
];

/// The renamer: shared across the functions of one skeleton so that the
/// same original name always maps to the same fresh name.
#[derive(Debug, Default)]
pub struct Renamer {
    vars: HashMap<String, String>,
    funcs: HashMap<String, String>,
    types: HashMap<String, String>,
    racy: Vec<String>,
    racy_set: Vec<String>,
    var_count: u32,
    func_count: u32,
    type_count: u32,
}

impl Renamer {
    /// Creates a renamer with the given racy-variable set.
    pub fn new(racy_vars: &[String]) -> Self {
        Renamer {
            racy_set: racy_vars.to_vec(),
            ..Renamer::default()
        }
    }

    /// Racy variables in the order their `racyVarN` names were assigned.
    pub fn racy_in_order(&self) -> Vec<String> {
        self.racy.clone()
    }

    fn var(&mut self, name: &str) -> String {
        if PRESERVED.contains(&name) {
            return name.to_owned();
        }
        if let Some(n) = self.vars.get(name) {
            return n.clone();
        }
        let fresh = if self.racy_set.iter().any(|r| r == name) {
            self.racy.push(name.to_owned());
            format!("racyVar{}", self.racy.len())
        } else {
            self.var_count += 1;
            format!("v{}", self.var_count)
        };
        self.vars.insert(name.to_owned(), fresh.clone());
        fresh
    }

    fn func(&mut self, name: &str) -> String {
        if PRESERVED.contains(&name) || is_concurrency_call(name) {
            return name.to_owned();
        }
        if let Some(n) = self.funcs.get(name) {
            return n.clone();
        }
        self.func_count += 1;
        let fresh = format!("func{}", self.func_count);
        self.funcs.insert(name.to_owned(), fresh.clone());
        fresh
    }

    fn type_name(&mut self, name: &str) -> String {
        if PRESERVED.contains(&name) {
            return name.to_owned();
        }
        if let Some(n) = self.types.get(name) {
            return n.clone();
        }
        self.type_count += 1;
        let fresh = format!("type{}", self.type_count);
        self.types.insert(name.to_owned(), fresh.clone());
        fresh
    }

    /// Renames declared names (variables, parameters, fields) in the
    /// variable namespace.
    fn names(&mut self, names: &mut [String]) {
        for n in names {
            *n = self.var(n);
        }
    }

    /// Renames a whole function declaration, reusing the owned value.
    pub fn rename_func(&mut self, mut f: FuncDecl) -> FuncDecl {
        if let Some(r) = &mut f.receiver {
            r.name = self.var(&r.name);
            self.ty(&mut r.ty);
        }
        f.name = self.func(&f.name);
        self.sig(&mut f.sig);
        if let Some(body) = &mut f.body {
            self.visit_block(body);
        }
        f
    }

    /// Renames a type declaration.
    pub fn rename_typedecl(&mut self, t: &TypeDecl) -> TypeDecl {
        let mut t = t.clone();
        t.name = self.type_name(&t.name);
        self.ty(&mut t.ty);
        t
    }

    fn sig(&mut self, s: &mut FuncSig) {
        for p in s.params.iter_mut().chain(&mut s.results) {
            self.names(&mut p.names);
            self.ty(&mut p.ty);
        }
    }

    fn ty(&mut self, t: &mut Type) {
        match t {
            Type::Named { path, args } => {
                let joined = path.join(".");
                // sync.* / atomic.* / primitive types preserved.
                if joined.starts_with("sync.")
                    || joined.starts_with("atomic.")
                    || joined.starts_with("testing.")
                    || joined.starts_with("context.")
                    || PRESERVED.contains(&joined.as_str())
                {
                    return;
                }
                *path = vec![self.type_name(&joined)];
                args.iter_mut().for_each(|a| self.ty(a));
            }
            Type::Pointer(elem) | Type::Slice(elem) | Type::Chan { elem, .. } => self.ty(elem),
            Type::Array { len, elem } => {
                self.visit_expr(len);
                self.ty(elem);
            }
            Type::Map { key, value } => {
                self.ty(key);
                self.ty(value);
            }
            Type::Func(sig) => self.sig(sig),
            Type::Struct(fields) => {
                for f in fields {
                    self.names(&mut f.names);
                    self.ty(&mut f.ty);
                }
            }
            Type::Interface(_) => {}
        }
    }
}

/// Renames in the order the names were first seen by a left-to-right
/// rebuild of the tree: a selector's name before its operand, a type
/// assertion's operand before its type, and a `var` statement's names,
/// then its type, then its values.
impl MutVisitor for Renamer {
    fn visit_stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Decl(v) => {
                self.names(&mut v.names);
                if let Some(t) = &mut v.ty {
                    self.ty(t);
                }
            }
            Stmt::ShortVar { names, .. } => self.names(names),
            _ => {}
        }
        self.walk_stmt(s);
    }

    fn visit_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Ident { name, .. } => *name = self.var(name),
            // Literal payloads are business noise.
            Expr::StrLit { value, .. } => value.clear(),
            // Field/method selection: treat as function-ish name space so
            // `s.Validate` → `v1.func2`.
            Expr::Selector { name, .. } if !is_concurrency_call(name) => *name = self.func(name),
            Expr::Call { fun, args, .. } => {
                // Direct calls rename in the func namespace.
                if let Expr::Ident { name, .. } = fun.as_mut() {
                    *name = self.func(name);
                    args.iter_mut().for_each(|a| self.visit_expr(a));
                    return;
                }
            }
            Expr::CompositeLit { ty: Some(ty), .. }
            | Expr::Make { ty, .. }
            | Expr::New { ty, .. } => self.ty(ty),
            Expr::FuncLit { sig, .. } => self.sig(sig),
            Expr::TypeAssert { expr, ty, .. } => {
                self.visit_expr(expr);
                self.ty(ty);
                return;
            }
            _ => {}
        }
        self.walk_expr(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite::parse_file;

    #[test]
    fn racy_vars_get_racy_names() {
        let f = parse_file("package p\nfunc f() {\n\terr := g()\n\tuse(err)\n}\n")
            .unwrap()
            .find_func("f")
            .unwrap()
            .clone();
        let mut r = Renamer::new(&["err".to_owned()]);
        let out = r.rename_func(f);
        let printed = golite::print_func(&out);
        assert!(printed.contains("racyVar1 := func2()"), "{printed}");
        assert!(printed.contains("func3(racyVar1)"), "{printed}");
        assert_eq!(r.racy_in_order(), vec!["err".to_owned()]);
    }

    #[test]
    fn concurrency_names_survive() {
        let f = parse_file(
            "package p\nfunc f() {\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\twg.Done()\n\twg.Wait()\n\tmu.Lock()\n}\n",
        )
        .unwrap()
        .find_func("f")
        .unwrap()
        .clone();
        let mut r = Renamer::new(&[]);
        let printed = golite::print_func(&r.rename_func(f));
        for kept in [".Add(1)", ".Done()", ".Wait()", ".Lock()", "sync.WaitGroup"] {
            assert!(printed.contains(kept), "missing {kept} in {printed}");
        }
        assert!(!printed.contains("wg"), "{printed}");
    }

    #[test]
    fn renaming_is_consistent_across_functions() {
        let file = parse_file(
            "package p\nfunc a() {\n\tshared = 1\n}\nfunc b() {\n\tuse(shared)\n}\nvar shared int\nfunc use(x int) {}\n",
        )
        .unwrap();
        let mut r = Renamer::new(&["shared".to_owned()]);
        let fa = golite::print_func(&r.rename_func(file.find_func("a").unwrap().clone()));
        let fb = golite::print_func(&r.rename_func(file.find_func("b").unwrap().clone()));
        assert!(fa.contains("racyVar1 = 1"));
        assert!(fb.contains("(racyVar1)"));
    }
}
