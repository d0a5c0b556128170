//! Recursive-descent parser for the Go subset.
//!
//! The grammar follows the Go specification restricted to the constructs
//! needed by Dr.Fix's corpus: functions and methods, structs, closures,
//! goroutines, channels, `select`, the `sync`/`atomic` vocabulary, maps,
//! slices, and table-driven tests. The composite-literal/block ambiguity
//! in `if`/`for`/`switch` headers is resolved with the same
//! expression-level rule as the reference Go parser.

use crate::ast::*;
use crate::diag::{Diag, Result};
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// The deepest nesting the parser accepts, counted over statements,
/// expressions and types: each nested statement, operand, type, else-if
/// arm and untyped composite literal is one level, and so is each node a
/// binary-operator or postfix (selector, call, index) chain wraps around
/// the ones before it. Deeper input is rejected with a [`Diag`]: the
/// printer, the analyzers and the compiler all recurse over the tree, and
/// a stack overflow aborts the process where an error can be handled.
/// The limit is sized for a 2 MiB thread (a campaign worker's stack).
/// Running parse, print, statcheck and compile there, nested `if`s (one
/// level each) overflow it at about 600 optimised and 158 unoptimised,
/// and nested function literals (two levels each) at about 740 and 72.
/// Corpus programs nest at most 13 levels deep.
pub const MAX_NESTING: u32 = 100;

/// [`parse_file`] calls made by this process.
static PARSE_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many times [`parse_file`] has run in this process, on any thread.
/// The pipeline's parse budget is measured with it.
pub fn parse_calls() -> u64 {
    PARSE_CALLS.load(Ordering::Relaxed)
}

/// Parses a whole source file.
///
/// # Errors
///
/// Returns the first lexical or syntactic [`Diag`] encountered.
pub fn parse_file(src: &str) -> Result<File> {
    PARSE_CALLS.fetch_add(1, Ordering::Relaxed);
    let tokens = Lexer::tokenize(src)?;
    let mut p = Parser::new(src, tokens);
    p.parse_file()
}

/// One parsed source file: `(name, source, ast)`, the shape
/// `govm::compile_package` and `statcheck::check_parsed` take.
pub type ParsedFile = (String, String, File);

/// Parses every `(name, source)` pair into a [`ParsedFile`].
///
/// # Errors
///
/// Stops at the first file that does not parse and returns its index
/// with the [`Diag`].
pub fn parse_sources(
    files: &[(String, String)],
) -> std::result::Result<Vec<ParsedFile>, (usize, Diag)> {
    files
        .iter()
        .enumerate()
        .map(|(i, (name, src))| {
            parse_file(src)
                .map(|ast| (name.clone(), src.clone(), ast))
                .map_err(|d| (i, d))
        })
        .collect()
}

/// Parses a single expression (useful in tests and strategy code).
///
/// # Errors
///
/// Returns a [`Diag`] if `src` is not a single well-formed expression.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = Lexer::tokenize(src)?;
    let mut p = Parser::new(src, tokens);
    let e = p.expr()?;
    p.eat(TokenKind::Semi);
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// Parses a sequence of statements (as if inside a function body).
///
/// # Errors
///
/// Returns a [`Diag`] on malformed statements.
pub fn parse_stmts(src: &str) -> Result<Vec<Stmt>> {
    let tokens = Lexer::tokenize(src)?;
    let mut p = Parser::new(src, tokens);
    let mut stmts = Vec::new();
    loop {
        while p.eat(TokenKind::Semi) {}
        if p.at(TokenKind::Eof) {
            return Ok(stmts);
        }
        stmts.push(p.stmt()?);
    }
}

struct Parser<'src> {
    src: &'src str,
    tokens: Vec<Token>,
    pos: usize,
    /// When `false`, a `{` after a bare named type does not start a
    /// composite literal (i.e. we are in an `if`/`for`/`switch` header).
    composite_ok: bool,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: u32,
}

impl<'src> Parser<'src> {
    fn new(src: &'src str, tokens: Vec<Token>) -> Self {
        Parser {
            src,
            tokens,
            pos: 0,
            composite_ok: true,
            depth: 0,
        }
    }

    /// Enters one more nesting level; fails past [`MAX_NESTING`]. A
    /// failed parse is abandoned, so only [`Parser::nested`] and the
    /// chain loops restore the depth.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn too_deep(&self) -> Diag {
        Diag::new(
            format!("nesting deeper than {MAX_NESTING} levels"),
            self.peek().span,
        )
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let depth = self.depth;
        self.descend()?;
        let r = f(self);
        self.depth = depth;
        r
    }

    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn peek2_kind(&self) -> TokenKind {
        self.tokens
            .get(self.pos + 1)
            .map(|t| t.kind)
            .unwrap_or(TokenKind::Eof)
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(Diag::new(
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
                t.span,
            ))
        }
    }

    fn text(&self, span: Span) -> &'src str {
        &self.src[span.lo as usize..span.hi as usize]
    }

    fn ident(&mut self) -> Result<(String, Span)> {
        let t = self.expect(TokenKind::Ident)?;
        Ok((self.text(t.span).to_owned(), t.span))
    }

    /// Runs `f` with composite literals permitted (inside parens/brackets).
    fn with_composites<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let save = self.composite_ok;
        self.composite_ok = true;
        let r = f(self);
        self.composite_ok = save;
        r
    }

    /// Runs `f` with bare-type composite literals forbidden (control headers).
    fn without_composites<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let save = self.composite_ok;
        self.composite_ok = false;
        let r = f(self);
        self.composite_ok = save;
        r
    }

    // ---------------------------------------------------------------- file

    fn parse_file(&mut self) -> Result<File> {
        let start = self.peek().span;
        self.expect(TokenKind::Package)?;
        let (package, _) = self.ident()?;
        self.expect(TokenKind::Semi)?;

        let mut imports = Vec::new();
        while self.at(TokenKind::Import) {
            let kw = self.bump();
            if self.eat(TokenKind::LParen) {
                while !self.at(TokenKind::RParen) {
                    while self.eat(TokenKind::Semi) {}
                    if self.at(TokenKind::RParen) {
                        break;
                    }
                    imports.push(self.import_spec(kw.span)?);
                    while self.eat(TokenKind::Semi) {}
                }
                self.expect(TokenKind::RParen)?;
            } else {
                imports.push(self.import_spec(kw.span)?);
            }
            self.eat(TokenKind::Semi);
        }

        let mut decls = Vec::new();
        loop {
            while self.eat(TokenKind::Semi) {}
            if self.at(TokenKind::Eof) {
                break;
            }
            decls.push(self.decl()?);
        }
        let end = self.peek().span;
        Ok(File {
            package,
            imports,
            decls,
            span: start.to(end),
        })
    }

    fn import_spec(&mut self, kw: Span) -> Result<Import> {
        let alias = if self.at(TokenKind::Ident) {
            Some(self.ident()?.0)
        } else {
            None
        };
        let t = self.expect(TokenKind::Str)?;
        let raw = self.text(t.span);
        let path = raw.trim_matches(|c| c == '"' || c == '`').to_owned();
        Ok(Import {
            alias,
            path,
            span: kw.to(t.span),
        })
    }

    fn decl(&mut self) -> Result<Decl> {
        match self.peek_kind() {
            TokenKind::Func => Ok(Decl::Func(self.func_decl()?)),
            TokenKind::Type => Ok(Decl::Type(self.type_decl()?)),
            TokenKind::Var => Ok(Decl::Var(self.var_decl(false)?)),
            TokenKind::Const => Ok(Decl::Const(self.var_decl(true)?)),
            _ => {
                let t = self.peek();
                Err(Diag::new(
                    format!("expected declaration, found {}", t.kind.describe()),
                    t.span,
                ))
            }
        }
    }

    fn func_decl(&mut self) -> Result<FuncDecl> {
        let kw = self.expect(TokenKind::Func)?;
        let receiver = if self.at(TokenKind::LParen) {
            let lp = self.bump();
            let (name, _) = self.ident()?;
            let ty = self.parse_type()?;
            let rp = self.expect(TokenKind::RParen)?;
            Some(Receiver {
                name,
                ty,
                span: lp.span.to(rp.span),
            })
        } else {
            None
        };
        let (name, _) = self.ident()?;
        let type_params = self.opt_type_params()?;
        let sig = self.signature()?;
        let body = if self.at(TokenKind::LBrace) {
            Some(self.block()?)
        } else {
            None
        };
        let end = body.as_ref().map(|b| b.span).unwrap_or(kw.span);
        Ok(FuncDecl {
            receiver,
            name,
            type_params,
            sig,
            body,
            span: kw.span.to(end),
        })
    }

    fn opt_type_params(&mut self) -> Result<Vec<TypeParam>> {
        let mut out = Vec::new();
        if self.at(TokenKind::LBracket) {
            self.bump();
            loop {
                let (name, _) = self.ident()?;
                let (constraint, _) = if self.at(TokenKind::Ident) {
                    self.ident()?
                } else if self.at(TokenKind::Interface) {
                    self.bump();
                    self.expect(TokenKind::LBrace)?;
                    self.expect(TokenKind::RBrace)?;
                    ("any".to_owned(), Span::DUMMY)
                } else {
                    ("any".to_owned(), Span::DUMMY)
                };
                out.push(TypeParam { name, constraint });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        Ok(out)
    }

    fn type_decl(&mut self) -> Result<TypeDecl> {
        let kw = self.expect(TokenKind::Type)?;
        let (name, _) = self.ident()?;
        let type_params = self.opt_type_params()?;
        self.eat(TokenKind::Assign); // tolerate alias syntax
        let ty = self.parse_type()?;
        let end = self.peek().span;
        Ok(TypeDecl {
            name,
            type_params,
            ty,
            span: kw.span.to(end),
        })
    }

    fn var_decl(&mut self, is_const: bool) -> Result<VarDecl> {
        let kw = self.bump(); // var/const
        let _ = is_const;
        if self.eat(TokenKind::LParen) {
            // Grouped form: keep only the first spec for simplicity of the
            // subset; the corpus uses single-spec groups.
            while self.eat(TokenKind::Semi) {}
            let spec = self.var_spec(kw.span)?;
            while self.eat(TokenKind::Semi) {}
            self.expect(TokenKind::RParen)?;
            return Ok(spec);
        }
        self.var_spec(kw.span)
    }

    fn var_spec(&mut self, kw: Span) -> Result<VarDecl> {
        let mut names = Vec::new();
        loop {
            let (n, _) = self.ident()?;
            names.push(n);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let ty = if !self.at(TokenKind::Assign) && !self.at(TokenKind::Semi) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let mut values = Vec::new();
        if self.eat(TokenKind::Assign) {
            values = self.expr_list()?;
        }
        let end = self.peek().span;
        Ok(VarDecl {
            names,
            ty,
            values,
            span: kw.to(end),
        })
    }

    // --------------------------------------------------------------- types

    fn starts_type(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Ident
                | TokenKind::Star
                | TokenKind::LBracket
                | TokenKind::Map
                | TokenKind::Chan
                | TokenKind::Func
                | TokenKind::Interface
                | TokenKind::Struct
                | TokenKind::Arrow
                | TokenKind::LParen
        )
    }

    fn parse_type(&mut self) -> Result<Type> {
        self.nested(Self::type_inner)
    }

    fn type_inner(&mut self) -> Result<Type> {
        match self.peek_kind() {
            TokenKind::Star => {
                self.bump();
                Ok(Type::Pointer(Box::new(self.parse_type()?)))
            }
            TokenKind::LBracket => {
                self.bump();
                if self.eat(TokenKind::RBracket) {
                    Ok(Type::Slice(Box::new(self.parse_type()?)))
                } else {
                    let len = self.with_composites(|p| p.expr())?;
                    self.expect(TokenKind::RBracket)?;
                    Ok(Type::Array {
                        len: Box::new(len),
                        elem: Box::new(self.parse_type()?),
                    })
                }
            }
            TokenKind::Map => {
                self.bump();
                self.expect(TokenKind::LBracket)?;
                let key = self.parse_type()?;
                self.expect(TokenKind::RBracket)?;
                let value = self.parse_type()?;
                Ok(Type::Map {
                    key: Box::new(key),
                    value: Box::new(value),
                })
            }
            TokenKind::Chan => {
                self.bump();
                let dir = if self.eat(TokenKind::Arrow) {
                    ChanDir::Send
                } else {
                    ChanDir::Both
                };
                Ok(Type::Chan {
                    dir,
                    elem: Box::new(self.parse_type()?),
                })
            }
            TokenKind::Arrow => {
                self.bump();
                self.expect(TokenKind::Chan)?;
                Ok(Type::Chan {
                    dir: ChanDir::Recv,
                    elem: Box::new(self.parse_type()?),
                })
            }
            TokenKind::Func => {
                self.bump();
                let sig = self.signature()?;
                Ok(Type::Func(Box::new(sig)))
            }
            TokenKind::Struct => {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let mut fields = Vec::new();
                loop {
                    while self.eat(TokenKind::Semi) {}
                    if self.at(TokenKind::RBrace) {
                        break;
                    }
                    fields.push(self.struct_field()?);
                }
                self.expect(TokenKind::RBrace)?;
                Ok(Type::Struct(fields))
            }
            TokenKind::Interface => {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let mut methods = Vec::new();
                loop {
                    while self.eat(TokenKind::Semi) {}
                    if self.at(TokenKind::RBrace) {
                        break;
                    }
                    let (name, _) = self.ident()?;
                    if self.at(TokenKind::LParen) {
                        let _ = self.signature()?;
                    }
                    methods.push(name);
                }
                self.expect(TokenKind::RBrace)?;
                Ok(Type::Interface(methods))
            }
            TokenKind::LParen => {
                self.bump();
                let t = self.parse_type()?;
                self.expect(TokenKind::RParen)?;
                Ok(t)
            }
            TokenKind::Ident => {
                let mut path = vec![self.ident()?.0];
                while self.at(TokenKind::Dot) {
                    self.bump();
                    path.push(self.ident()?.0);
                }
                let mut args = Vec::new();
                if self.at(TokenKind::LBracket) {
                    self.bump();
                    loop {
                        args.push(self.parse_type()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBracket)?;
                }
                Ok(Type::Named { path, args })
            }
            _ => {
                let t = self.peek();
                Err(Diag::new(
                    format!("expected type, found {}", t.kind.describe()),
                    t.span,
                ))
            }
        }
    }

    fn struct_field(&mut self) -> Result<Field> {
        let start = self.peek().span;
        // Either `names... Type` or an embedded bare type.
        if self.at(TokenKind::Ident)
            && matches!(
                self.peek2_kind(),
                TokenKind::Semi | TokenKind::RBrace | TokenKind::Str | TokenKind::Dot
            )
        {
            // Embedded field (possibly qualified).
            let ty = self.parse_type()?;
            if self.at(TokenKind::Str) {
                self.bump(); // tag, ignored
            }
            let end = self.peek().span;
            return Ok(Field {
                names: Vec::new(),
                ty,
                span: start.to(end),
            });
        }
        let mut names = Vec::new();
        loop {
            let (n, _) = self.ident()?;
            names.push(n);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let ty = self.parse_type()?;
        if self.at(TokenKind::Str) {
            self.bump(); // tag, ignored
        }
        let end = self.peek().span;
        Ok(Field {
            names,
            ty,
            span: start.to(end),
        })
    }

    fn signature(&mut self) -> Result<FuncSig> {
        self.expect(TokenKind::LParen)?;
        let params = self.param_list()?;
        self.expect(TokenKind::RParen)?;
        let mut results = Vec::new();
        if self.at(TokenKind::LParen) {
            self.bump();
            results = self.param_list()?;
            self.expect(TokenKind::RParen)?;
        } else if self.starts_type() && !self.at(TokenKind::LParen) {
            let ty = self.parse_type()?;
            results.push(Param {
                names: Vec::new(),
                ty,
                variadic: false,
                span: Span::DUMMY,
            });
        }
        Ok(FuncSig { params, results })
    }

    /// Parses a parameter list up to (not including) the closing `)`.
    ///
    /// Resolves the name-vs-type ambiguity: entries that are bare
    /// identifiers stay "undecided" until either a named group closes them
    /// (they were names) or the list ends (they were unnamed types).
    fn param_list(&mut self) -> Result<Vec<Param>> {
        let mut groups: Vec<Param> = Vec::new();
        let mut undecided: Vec<(String, Span)> = Vec::new();

        loop {
            if self.at(TokenKind::RParen) {
                break;
            }
            if self.at(TokenKind::Ellipsis) {
                // `...T` — variadic, names are the undecided idents (or none).
                let e = self.bump();
                let ty = self.parse_type()?;
                let names: Vec<String> = undecided.drain(..).map(|(n, _)| n).collect();
                groups.push(Param {
                    names,
                    ty,
                    variadic: true,
                    span: e.span,
                });
            } else if self.at(TokenKind::Ident)
                && matches!(self.peek2_kind(), TokenKind::Comma | TokenKind::RParen)
            {
                // Bare identifier: could be a name or an unnamed type.
                let (n, sp) = self.ident()?;
                undecided.push((n, sp));
            } else if self.at(TokenKind::Ident)
                && self.peek2_kind() != TokenKind::Dot
                && self.peek2_kind() != TokenKind::LBracket
            {
                // `name Type` — the undecided idents before it share the type.
                let (n, sp) = self.ident()?;
                undecided.push((n, sp));
                let variadic = self.eat(TokenKind::Ellipsis);
                let ty = self.parse_type()?;
                let span = undecided[0].1;
                let names: Vec<String> = undecided.drain(..).map(|(n, _)| n).collect();
                groups.push(Param {
                    names,
                    ty,
                    variadic,
                    span,
                });
            } else if self.at(TokenKind::Ident) && self.peek2_kind() == TokenKind::LBracket {
                // `name []T` / `name [N]T` (array/slice after a name).
                let (n, sp) = self.ident()?;
                undecided.push((n, sp));
                let ty = self.parse_type()?;
                let span = undecided[0].1;
                let names: Vec<String> = undecided.drain(..).map(|(n, _)| n).collect();
                groups.push(Param {
                    names,
                    ty,
                    variadic: false,
                    span,
                });
            } else {
                // An unnamed non-ident type — but if there are undecided
                // idents they are names for this type.
                let ty = self.parse_type()?;
                if undecided.is_empty() {
                    groups.push(Param {
                        names: Vec::new(),
                        ty,
                        variadic: false,
                        span: Span::DUMMY,
                    });
                } else {
                    let span = undecided[0].1;
                    let names: Vec<String> = undecided.drain(..).map(|(n, _)| n).collect();
                    groups.push(Param {
                        names,
                        ty,
                        variadic: false,
                        span,
                    });
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        // Remaining undecided idents are unnamed named-types.
        for (n, sp) in undecided {
            groups.push(Param {
                names: Vec::new(),
                ty: Type::Named {
                    path: vec![n],
                    args: Vec::new(),
                },
                variadic: false,
                span: sp,
            });
        }
        Ok(groups)
    }

    // ---------------------------------------------------------- statements

    fn block(&mut self) -> Result<Block> {
        let lb = self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            while self.eat(TokenKind::Semi) {}
            if self.at(TokenKind::RBrace) || self.at(TokenKind::Eof) {
                break;
            }
            stmts.push(self.stmt()?);
        }
        // Statement and expression lists are trimmed to their length: most
        // hold one to three nodes, and a growing `Vec` keeps room for four
        // (a `Stmt` is over 300 bytes). Trimming cuts an AST's heap by
        // about 30%.
        stmts.shrink_to_fit();
        let rb = self.expect(TokenKind::RBrace)?;
        Ok(Block {
            stmts,
            span: lb.span.to(rb.span),
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt> {
        match self.peek_kind() {
            TokenKind::Var | TokenKind::Const => {
                let d = self.var_decl(self.at(TokenKind::Const))?;
                Ok(Stmt::Decl(d))
            }
            TokenKind::If => self.if_stmt().map(Stmt::If),
            TokenKind::For => self.for_stmt(),
            TokenKind::Switch => self.switch_stmt().map(Stmt::Switch),
            TokenKind::Select => self.select_stmt().map(Stmt::Select),
            TokenKind::Go => {
                let kw = self.bump();
                let call = self.with_composites(|p| p.expr())?;
                let span = kw.span.to(call.span());
                Ok(Stmt::Go { call, span })
            }
            TokenKind::Defer => {
                let kw = self.bump();
                let call = self.with_composites(|p| p.expr())?;
                let span = kw.span.to(call.span());
                Ok(Stmt::Defer { call, span })
            }
            TokenKind::Return => {
                let kw = self.bump();
                let values = if self.at(TokenKind::Semi)
                    || self.at(TokenKind::RBrace)
                    || self.at(TokenKind::Case)
                    || self.at(TokenKind::Default)
                {
                    Vec::new()
                } else {
                    self.with_composites(|p| p.expr_list())?
                };
                let end = values.last().map(|e| e.span()).unwrap_or(kw.span);
                Ok(Stmt::Return {
                    values,
                    span: kw.span.to(end),
                })
            }
            TokenKind::Break => {
                let kw = self.bump();
                let label = if self.at(TokenKind::Ident) {
                    Some(self.ident()?.0)
                } else {
                    None
                };
                Ok(Stmt::Break {
                    label,
                    span: kw.span,
                })
            }
            TokenKind::Continue => {
                let kw = self.bump();
                let label = if self.at(TokenKind::Ident) {
                    Some(self.ident()?.0)
                } else {
                    None
                };
                Ok(Stmt::Continue {
                    label,
                    span: kw.span,
                })
            }
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                let t = self.bump();
                Ok(Stmt::Empty { span: t.span })
            }
            TokenKind::Ident if self.peek2_kind() == TokenKind::Colon => {
                let (label, sp) = self.ident()?;
                self.expect(TokenKind::Colon)?;
                while self.eat(TokenKind::Semi) {}
                let inner = self.stmt()?;
                let span = sp.to(inner.span());
                Ok(Stmt::Labeled {
                    label,
                    stmt: Box::new(inner),
                    span,
                })
            }
            _ => self.simple_stmt(),
        }
    }

    /// Parses a "simple statement": expression, send, inc/dec, assignment,
    /// or short variable declaration.
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        let exprs = self.expr_list()?;
        match self.peek_kind() {
            TokenKind::Define => {
                self.bump();
                let names = idents_of(&exprs)?;
                let values = self.expr_list()?;
                let end = values.last().map(|e| e.span()).unwrap_or(start);
                Ok(Stmt::ShortVar {
                    names,
                    values,
                    span: start.to(end),
                })
            }
            TokenKind::Assign
            | TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign
            | TokenKind::PercentAssign
            | TokenKind::AmpAssign
            | TokenKind::PipeAssign => {
                let op = match self.bump().kind {
                    TokenKind::Assign => AssignOp::Assign,
                    TokenKind::PlusAssign => AssignOp::Add,
                    TokenKind::MinusAssign => AssignOp::Sub,
                    TokenKind::StarAssign => AssignOp::Mul,
                    TokenKind::SlashAssign => AssignOp::Div,
                    TokenKind::PercentAssign => AssignOp::Rem,
                    TokenKind::AmpAssign => AssignOp::And,
                    _ => AssignOp::Or,
                };
                let rhs = self.expr_list()?;
                let end = rhs.last().map(|e| e.span()).unwrap_or(start);
                Ok(Stmt::Assign {
                    lhs: exprs,
                    op,
                    rhs,
                    span: start.to(end),
                })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = self.bump().kind == TokenKind::PlusPlus;
                let expr = single(exprs)?;
                let span = start.to(expr.span());
                Ok(Stmt::IncDec { expr, inc, span })
            }
            TokenKind::Arrow => {
                self.bump();
                let chan = single(exprs)?;
                let value = self.expr()?;
                let span = start.to(value.span());
                Ok(Stmt::Send { chan, value, span })
            }
            _ => {
                let expr = single(exprs)?;
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn if_stmt(&mut self) -> Result<IfStmt> {
        let kw = self.expect(TokenKind::If)?;
        let (init, cond) = self.without_composites(|p| {
            let first = p.simple_stmt()?;
            if p.eat(TokenKind::Semi) {
                let cond_stmt = p.simple_stmt()?;
                let cond = expr_of(cond_stmt)?;
                Ok((Some(Box::new(first)), cond))
            } else {
                Ok((None, expr_of(first)?))
            }
        })?;
        let then = self.block()?;
        let else_ = if self.eat(TokenKind::Else) {
            if self.at(TokenKind::If) {
                Some(Box::new(Stmt::If(self.nested(Self::if_stmt)?)))
            } else {
                Some(Box::new(Stmt::Block(self.block()?)))
            }
        } else {
            None
        };
        let end = else_.as_ref().map(|s| s.span()).unwrap_or(then.span);
        Ok(IfStmt {
            init,
            cond,
            then,
            else_,
            span: kw.span.to(end),
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let kw = self.expect(TokenKind::For)?;

        // `for { ... }`
        if self.at(TokenKind::LBrace) {
            let body = self.block()?;
            let span = kw.span.to(body.span);
            return Ok(Stmt::For(ForStmt {
                init: None,
                cond: None,
                post: None,
                body,
                span,
            }));
        }

        // `for range x { ... }`
        if self.at(TokenKind::Range) {
            self.bump();
            let expr = self.without_composites(|p| p.expr())?;
            let body = self.block()?;
            let span = kw.span.to(body.span);
            return Ok(Stmt::Range(RangeStmt {
                key: None,
                value: None,
                define: false,
                expr,
                body,
                span,
            }));
        }

        // `for ; cond ; post { ... }`
        if self.at(TokenKind::Semi) {
            return self.three_clause_for(kw.span, None);
        }

        // Parse the leading expression list without composite literals.
        let exprs = self.without_composites(|p| p.expr_list())?;

        // `for k, v := range x` / `for k, v = range x`.
        if (self.at(TokenKind::Define) || self.at(TokenKind::Assign))
            && self.peek2_kind() == TokenKind::Range
        {
            let define = self.bump().kind == TokenKind::Define;
            self.expect(TokenKind::Range)?;
            let expr = self.without_composites(|p| p.expr())?;
            let body = self.block()?;
            let mut it = exprs.into_iter();
            let key = it.next();
            let value = it.next();
            let span = kw.span.to(body.span);
            return Ok(Stmt::Range(RangeStmt {
                key,
                value,
                define,
                expr,
                body,
                span,
            }));
        }

        // Otherwise finish a simple statement from the expression list.
        let first = self.without_composites(|p| p.finish_simple_stmt(exprs))?;

        if self.at(TokenKind::Semi) {
            return self.three_clause_for(kw.span, Some(Box::new(first)));
        }

        // `for cond { ... }`.
        let cond = expr_of(first)?;
        let body = self.block()?;
        let span = kw.span.to(body.span);
        Ok(Stmt::For(ForStmt {
            init: None,
            cond: Some(cond),
            post: None,
            body,
            span,
        }))
    }

    fn three_clause_for(&mut self, kw: Span, init: Option<Box<Stmt>>) -> Result<Stmt> {
        self.expect(TokenKind::Semi)?;
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.without_composites(|p| p.expr())?)
        };
        self.expect(TokenKind::Semi)?;
        let post = if self.at(TokenKind::LBrace) {
            None
        } else {
            Some(Box::new(self.without_composites(|p| p.simple_stmt())?))
        };
        let body = self.block()?;
        let span = kw.to(body.span);
        Ok(Stmt::For(ForStmt {
            init,
            cond,
            post,
            body,
            span,
        }))
    }

    /// Completes a simple statement whose leading expression list is given.
    fn finish_simple_stmt(&mut self, exprs: Vec<Expr>) -> Result<Stmt> {
        let start = exprs
            .first()
            .map(|e| e.span())
            .unwrap_or_else(|| self.peek().span);
        match self.peek_kind() {
            TokenKind::Define => {
                self.bump();
                let names = idents_of(&exprs)?;
                let values = self.expr_list()?;
                let end = values.last().map(|e| e.span()).unwrap_or(start);
                Ok(Stmt::ShortVar {
                    names,
                    values,
                    span: start.to(end),
                })
            }
            TokenKind::Assign
            | TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign
            | TokenKind::PercentAssign
            | TokenKind::AmpAssign
            | TokenKind::PipeAssign => {
                let op = match self.bump().kind {
                    TokenKind::Assign => AssignOp::Assign,
                    TokenKind::PlusAssign => AssignOp::Add,
                    TokenKind::MinusAssign => AssignOp::Sub,
                    TokenKind::StarAssign => AssignOp::Mul,
                    TokenKind::SlashAssign => AssignOp::Div,
                    TokenKind::PercentAssign => AssignOp::Rem,
                    TokenKind::AmpAssign => AssignOp::And,
                    _ => AssignOp::Or,
                };
                let rhs = self.expr_list()?;
                let end = rhs.last().map(|e| e.span()).unwrap_or(start);
                Ok(Stmt::Assign {
                    lhs: exprs,
                    op,
                    rhs,
                    span: start.to(end),
                })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = self.bump().kind == TokenKind::PlusPlus;
                let expr = single(exprs)?;
                let span = start.to(expr.span());
                Ok(Stmt::IncDec { expr, inc, span })
            }
            TokenKind::Arrow => {
                self.bump();
                let chan = single(exprs)?;
                let value = self.expr()?;
                let span = start.to(value.span());
                Ok(Stmt::Send { chan, value, span })
            }
            _ => Ok(Stmt::Expr(single(exprs)?)),
        }
    }

    fn switch_stmt(&mut self) -> Result<SwitchStmt> {
        let kw = self.expect(TokenKind::Switch)?;
        let mut init = None;
        let mut tag = None;
        if !self.at(TokenKind::LBrace) {
            self.without_composites(|p| {
                let first = p.simple_stmt()?;
                if p.eat(TokenKind::Semi) {
                    init = Some(Box::new(first));
                    if !p.at(TokenKind::LBrace) {
                        tag = Some(expr_of(p.simple_stmt()?)?);
                    }
                } else {
                    tag = Some(expr_of(first)?);
                }
                Ok(())
            })?;
        }
        self.expect(TokenKind::LBrace)?;
        let mut cases = Vec::new();
        loop {
            while self.eat(TokenKind::Semi) {}
            if self.at(TokenKind::RBrace) {
                break;
            }
            let case_start = self.peek().span;
            let exprs = if self.eat(TokenKind::Case) {
                self.with_composites(|p| p.expr_list())?
            } else {
                self.expect(TokenKind::Default)?;
                Vec::new()
            };
            self.expect(TokenKind::Colon)?;
            let body = self.case_body()?;
            let end = body.last().map(|s| s.span()).unwrap_or(case_start);
            cases.push(SwitchCase {
                exprs,
                body,
                span: case_start.to(end),
            });
        }
        let rb = self.expect(TokenKind::RBrace)?;
        Ok(SwitchStmt {
            init,
            tag,
            cases,
            span: kw.span.to(rb.span),
        })
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let kw = self.expect(TokenKind::Select)?;
        self.expect(TokenKind::LBrace)?;
        let mut cases = Vec::new();
        loop {
            while self.eat(TokenKind::Semi) {}
            if self.at(TokenKind::RBrace) {
                break;
            }
            let case_start = self.peek().span;
            let comm = if self.eat(TokenKind::Default) {
                CommClause::Default
            } else {
                self.expect(TokenKind::Case)?;
                let exprs = self.with_composites(|p| p.expr_list())?;
                match self.peek_kind() {
                    TokenKind::Arrow => {
                        self.bump();
                        let chan = single(exprs)?;
                        let value = self.with_composites(|p| p.expr())?;
                        CommClause::Send { chan, value }
                    }
                    TokenKind::Define | TokenKind::Assign => {
                        let define = self.bump().kind == TokenKind::Define;
                        let rhs = self.with_composites(|p| p.expr())?;
                        let chan = match rhs {
                            Expr::Unary {
                                op: UnOp::Recv,
                                expr,
                                ..
                            } => *expr,
                            other => {
                                return Err(Diag::new(
                                    "expected `<-ch` on right side of select receive",
                                    other.span(),
                                ))
                            }
                        };
                        CommClause::Recv {
                            lhs: exprs,
                            define,
                            chan,
                        }
                    }
                    _ => {
                        let e = single(exprs)?;
                        match e {
                            Expr::Unary {
                                op: UnOp::Recv,
                                expr,
                                ..
                            } => CommClause::Recv {
                                lhs: Vec::new(),
                                define: false,
                                chan: *expr,
                            },
                            other => {
                                return Err(Diag::new(
                                    "select case must be a send or receive",
                                    other.span(),
                                ))
                            }
                        }
                    }
                }
            };
            self.expect(TokenKind::Colon)?;
            let body = self.case_body()?;
            let end = body.last().map(|s| s.span()).unwrap_or(case_start);
            cases.push(SelectCase {
                comm,
                body,
                span: case_start.to(end),
            });
        }
        let rb = self.expect(TokenKind::RBrace)?;
        Ok(SelectStmt {
            cases,
            span: kw.span.to(rb.span),
        })
    }

    fn case_body(&mut self) -> Result<Vec<Stmt>> {
        let mut body = Vec::new();
        loop {
            while self.eat(TokenKind::Semi) {}
            if self.at(TokenKind::Case)
                || self.at(TokenKind::Default)
                || self.at(TokenKind::RBrace)
                || self.at(TokenKind::Eof)
            {
                body.shrink_to_fit();
                return Ok(body);
            }
            body.push(self.stmt()?);
        }
    }

    // --------------------------------------------------------- expressions

    fn expr_list(&mut self) -> Result<Vec<Expr>> {
        let mut out = vec![self.expr()?];
        while self.eat(TokenKind::Comma) {
            out.push(self.expr()?);
        }
        out.shrink_to_fit();
        Ok(out)
    }

    fn expr(&mut self) -> Result<Expr> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::OrOr => BinOp::OrOr,
                TokenKind::AndAnd => BinOp::AndAnd,
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::NotEq,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::LtEq => BinOp::LtEq,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::GtEq => BinOp::GtEq,
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Pipe => BinOp::BitOr,
                TokenKind::Caret => BinOp::BitXor,
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                TokenKind::Amp => BinOp::BitAnd,
                TokenKind::Shl => BinOp::Shl,
                TokenKind::Shr => BinOp::Shr,
                _ => break,
            };
            let prec = op.precedence();
            if prec <= min_prec {
                break;
            }
            self.bump();
            self.descend()?;
            let rhs = self.binary_expr(prec)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        self.nested(Self::unary_inner)
    }

    fn unary_inner(&mut self) -> Result<Expr> {
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::Amp => Some(UnOp::Addr),
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Caret => Some(UnOp::BitNot),
            TokenKind::Arrow => Some(UnOp::Recv),
            _ => None,
        };
        if let Some(op) = op {
            let t = self.bump();
            let expr = self.unary_expr()?;
            let span = t.span.to(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut e = self.operand()?;
        loop {
            // Each postfix wraps `e` one level deeper.
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.descend()?;
                    self.bump();
                    if self.at(TokenKind::LParen) {
                        self.bump();
                        let ty = self.parse_type()?;
                        let rp = self.expect(TokenKind::RParen)?;
                        let span = e.span().to(rp.span);
                        e = Expr::TypeAssert {
                            expr: Box::new(e),
                            ty,
                            span,
                        };
                    } else {
                        let (name, sp) = self.ident()?;
                        let span = e.span().to(sp);
                        e = Expr::Selector {
                            expr: Box::new(e),
                            name,
                            span,
                        };
                    }
                }
                TokenKind::LParen => {
                    // Call — `make`/`new` get special type-argument parsing.
                    self.descend()?;
                    self.bump();
                    if let Some(builtin) = e.as_ident().map(str::to_owned) {
                        if builtin == "make" || builtin == "new" {
                            let result = self.with_composites(|p| {
                                let ty = p.parse_type()?;
                                let mut args = Vec::new();
                                while p.eat(TokenKind::Comma) {
                                    if p.at(TokenKind::RParen) {
                                        break;
                                    }
                                    args.push(p.expr()?);
                                }
                                Ok((ty, args))
                            })?;
                            let rp = self.expect(TokenKind::RParen)?;
                            let span = e.span().to(rp.span);
                            e = if builtin == "make" {
                                Expr::Make {
                                    ty: result.0,
                                    args: result.1,
                                    span,
                                }
                            } else {
                                Expr::New { ty: result.0, span }
                            };
                            continue;
                        }
                    }
                    let (args, variadic) = self.with_composites(|p| {
                        let mut args = Vec::new();
                        let mut variadic = false;
                        while !p.at(TokenKind::RParen) {
                            args.push(p.expr()?);
                            if p.eat(TokenKind::Ellipsis) {
                                variadic = true;
                            }
                            if !p.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                        args.shrink_to_fit();
                        Ok((args, variadic))
                    })?;
                    let rp = self.expect(TokenKind::RParen)?;
                    let span = e.span().to(rp.span);
                    e = Expr::Call {
                        fun: Box::new(e),
                        args,
                        variadic,
                        span,
                    };
                }
                TokenKind::LBracket => {
                    self.descend()?;
                    self.bump();
                    let (lo, hi, is_slice) = self.with_composites(|p| {
                        if p.at(TokenKind::Colon) {
                            p.bump();
                            let hi = if p.at(TokenKind::RBracket) {
                                None
                            } else {
                                Some(Box::new(p.expr()?))
                            };
                            Ok((None, hi, true))
                        } else {
                            let first = p.expr()?;
                            if p.eat(TokenKind::Colon) {
                                let hi = if p.at(TokenKind::RBracket) {
                                    None
                                } else {
                                    Some(Box::new(p.expr()?))
                                };
                                Ok((Some(Box::new(first)), hi, true))
                            } else {
                                Ok((Some(Box::new(first)), None, false))
                            }
                        }
                    })?;
                    let rb = self.expect(TokenKind::RBracket)?;
                    let span = e.span().to(rb.span);
                    if is_slice {
                        e = Expr::SliceExpr {
                            expr: Box::new(e),
                            lo,
                            hi,
                            span,
                        };
                    } else {
                        e = Expr::Index {
                            expr: Box::new(e),
                            index: lo.expect("index expression"),
                            span,
                        };
                    }
                }
                TokenKind::LBrace if self.composite_ok && is_type_like(&e) => {
                    self.descend()?;
                    let (elems, rb) = self.composite_body()?;
                    let span = e.span().to(rb);
                    let ty = expr_to_type(&e);
                    e = Expr::CompositeLit { ty, elems, span };
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn operand(&mut self) -> Result<Expr> {
        let t = self.peek();
        match t.kind {
            TokenKind::Ident => {
                let (name, span) = self.ident()?;
                Ok(Expr::Ident { name, span })
            }
            TokenKind::Int => {
                self.bump();
                let text = self.text(t.span).replace('_', "");
                let value = if let Some(hex) =
                    text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
                {
                    i64::from_str_radix(hex, 16)
                        .map_err(|_| Diag::new("integer literal out of range", t.span))?
                } else {
                    text.parse::<i64>()
                        .map_err(|_| Diag::new("integer literal out of range", t.span))?
                };
                Ok(Expr::IntLit {
                    value,
                    span: t.span,
                })
            }
            TokenKind::Float => {
                self.bump();
                let text = self.text(t.span).replace('_', "");
                let value = text
                    .parse::<f64>()
                    .map_err(|_| Diag::new("invalid float literal", t.span))?;
                Ok(Expr::FloatLit {
                    value,
                    span: t.span,
                })
            }
            TokenKind::Str => {
                self.bump();
                let raw = self.text(t.span);
                let value = unescape(raw);
                Ok(Expr::StrLit {
                    value,
                    span: t.span,
                })
            }
            TokenKind::Rune => {
                self.bump();
                let raw = self.text(t.span);
                let inner = &raw[1..raw.len() - 1];
                let value = unescape_rune(inner);
                Ok(Expr::RuneLit {
                    value,
                    span: t.span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.with_composites(|p| p.expr())?;
                let rp = self.expect(TokenKind::RParen)?;
                Ok(Expr::Paren {
                    expr: Box::new(inner),
                    span: t.span.to(rp.span),
                })
            }
            TokenKind::Func => {
                self.bump();
                let sig = self.signature()?;
                if self.at(TokenKind::LBrace) {
                    let body = self.with_composites(|p| p.block())?;
                    let span = t.span.to(body.span);
                    Ok(Expr::FuncLit { sig, body, span })
                } else {
                    Err(Diag::new(
                        "function literal requires a body in expression position",
                        t.span,
                    ))
                }
            }
            // Composite literals of non-ident types: []T{...}, map[K]V{...},
            // [N]T{...}, struct{...}{...}.
            TokenKind::LBracket | TokenKind::Map | TokenKind::Struct => {
                let ty = self.parse_type()?;
                let (elems, rb) = self.composite_body()?;
                Ok(Expr::CompositeLit {
                    ty: Some(ty),
                    elems,
                    span: t.span.to(rb),
                })
            }
            _ => Err(Diag::new(
                format!("expected expression, found {}", t.kind.describe()),
                t.span,
            )),
        }
    }

    /// Parses `{ elem, elem, ... }` of a composite literal; returns the
    /// elements and the span of the closing brace.
    fn composite_body(&mut self) -> Result<(Vec<CompositeElem>, Span)> {
        self.nested(Self::composite_inner)
    }

    fn composite_inner(&mut self) -> Result<(Vec<CompositeElem>, Span)> {
        self.expect(TokenKind::LBrace)?;
        let mut elems = Vec::new();
        self.with_composites(|p| {
            loop {
                while p.eat(TokenKind::Semi) {}
                if p.at(TokenKind::RBrace) {
                    break;
                }
                let first = if p.at(TokenKind::LBrace) {
                    // Untyped nested literal.
                    let lb = p.peek().span;
                    let (nested, rb) = p.composite_body()?;
                    Expr::CompositeLit {
                        ty: None,
                        elems: nested,
                        span: lb.to(rb),
                    }
                } else {
                    p.expr()?
                };
                if p.eat(TokenKind::Colon) {
                    let value = if p.at(TokenKind::LBrace) {
                        let lb = p.peek().span;
                        let (nested, rb) = p.composite_body()?;
                        Expr::CompositeLit {
                            ty: None,
                            elems: nested,
                            span: lb.to(rb),
                        }
                    } else {
                        p.expr()?
                    };
                    elems.push(CompositeElem {
                        key: Some(first),
                        value,
                    });
                } else {
                    elems.push(CompositeElem {
                        key: None,
                        value: first,
                    });
                }
                if !p.eat(TokenKind::Comma) {
                    while p.eat(TokenKind::Semi) {}
                    break;
                }
            }
            Ok(())
        })?;
        while self.eat(TokenKind::Semi) {}
        let rb = self.expect(TokenKind::RBrace)?;
        Ok((elems, rb.span))
    }
}

/// Returns `true` when an expression could denote a type in a composite
/// literal head (identifier or selector chain).
fn is_type_like(e: &Expr) -> bool {
    match e {
        Expr::Ident { .. } => true,
        Expr::Selector { expr, .. } => is_type_like(expr),
        _ => false,
    }
}

/// Converts a type-like expression into a [`Type`] for composite literals.
fn expr_to_type(e: &Expr) -> Option<Type> {
    fn path_of(e: &Expr, out: &mut Vec<String>) -> bool {
        match e {
            Expr::Ident { name, .. } => {
                out.push(name.clone());
                true
            }
            Expr::Selector { expr, name, .. } => {
                if !path_of(expr, out) {
                    return false;
                }
                out.push(name.clone());
                true
            }
            _ => false,
        }
    }
    let mut path = Vec::new();
    if path_of(e, &mut path) {
        Some(Type::Named {
            path,
            args: Vec::new(),
        })
    } else {
        None
    }
}

fn single(mut exprs: Vec<Expr>) -> Result<Expr> {
    if exprs.len() == 1 {
        Ok(exprs.pop().expect("one expression"))
    } else {
        let span = exprs.first().map(|e| e.span()).unwrap_or(Span::DUMMY);
        Err(Diag::new("expected a single expression", span))
    }
}

fn idents_of(exprs: &[Expr]) -> Result<Vec<String>> {
    exprs
        .iter()
        .map(|e| {
            e.as_ident()
                .map(str::to_owned)
                .ok_or_else(|| Diag::new("left side of `:=` must be identifiers", e.span()))
        })
        .collect()
}

fn expr_of(stmt: Stmt) -> Result<Expr> {
    match stmt {
        Stmt::Expr(e) => Ok(e),
        other => Err(Diag::new("expected a condition expression", other.span())),
    }
}

fn unescape(raw: &str) -> String {
    if raw.starts_with('`') {
        return raw.trim_matches('`').to_owned();
    }
    let inner = &raw[1..raw.len().saturating_sub(1)];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('\'') => out.push('\''),
                Some('0') => out.push('\0'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn unescape_rune(inner: &str) -> char {
    let s = unescape(&format!("\"{inner}\""));
    s.chars().next().unwrap_or('\0')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_and_imports() {
        let f =
            parse_file("package main\nimport \"sync\"\nimport (\n\tfoo \"bar/foo\"\n)\n").unwrap();
        assert_eq!(f.package, "main");
        assert_eq!(f.imports.len(), 2);
        assert_eq!(f.imports[0].path, "sync");
        assert_eq!(f.imports[1].alias.as_deref(), Some("foo"));
    }

    #[test]
    fn parses_waitgroup_goroutine_program() {
        let src = r#"
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
			doSomething()
		}
	}()
	if err = Task2(); err != nil {
		doOther()
	}
	wg.Wait()
	return err
}
"#;
        let f = parse_file(src).unwrap();
        let func = f.find_func("SomeFunction").unwrap();
        let body = func.body.as_ref().unwrap();
        assert!(body.stmts.len() >= 6);
        assert!(matches!(body.stmts[4], Stmt::Go { .. }));
    }

    #[test]
    fn parses_method_with_receiver() {
        let f = parse_file(
            "package p\nfunc (s *storeObject) Process(ctx *Context, req *Request) error { return nil }\n",
        )
        .unwrap();
        let func = f.funcs().next().unwrap();
        assert_eq!(func.name, "Process");
        let recv = func.receiver.as_ref().unwrap();
        assert_eq!(recv.name, "s");
        assert!(recv.ty.is_named("storeObject"));
        assert_eq!(func.sig.params.len(), 2);
    }

    #[test]
    fn parses_generic_type_and_method() {
        let src = "package p\ntype Scanner[ROW any] struct {\n\tlockMap sync.Map\n}\nfunc (t *Scanner[ROW]) runShards() {\n}\n";
        let f = parse_file(src).unwrap();
        let td = f.find_type("Scanner").unwrap();
        assert_eq!(td.type_params.len(), 1);
        assert!(matches!(td.ty, Type::Struct(_)));
    }

    #[test]
    fn parses_if_with_init_and_composite_ambiguity() {
        let src = "package p\nfunc f() {\n\tif err := g(); err != nil {\n\t\th()\n\t}\n\tif x == limits {\n\t\th()\n\t}\n}\n";
        let f = parse_file(src).unwrap();
        let func = f.find_func("f").unwrap();
        assert_eq!(func.body.as_ref().unwrap().stmts.len(), 2);
    }

    #[test]
    fn composite_literal_in_call_args_still_works() {
        let src = "package p\nfunc f() {\n\tg(Point{x: 1, y: 2})\n\treq := Request{Limit: limit}\n\tuse(req)\n}\n";
        let f = parse_file(src).unwrap();
        assert!(f.find_func("f").is_some());
    }

    #[test]
    fn parses_for_range_and_three_clause() {
        let src = r#"
package p

func f(nums []int) {
	for _, num := range nums {
		use(num)
	}
	for i := 0; i < 100; i++ {
		use(i)
	}
	for {
		break
	}
	for cond() {
		continue
	}
	for k := range m {
		use(k)
	}
}
"#;
        let f = parse_file(src).unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 5);
        assert!(matches!(body.stmts[0], Stmt::Range(_)));
        assert!(matches!(body.stmts[1], Stmt::For(_)));
        assert!(matches!(body.stmts[4], Stmt::Range(_)));
    }

    #[test]
    fn parses_select_with_all_comm_kinds() {
        let src = r#"
package p

func f(ch chan int, done chan struct{}) {
	select {
	case v := <-ch:
		use(v)
	case ch <- 1:
		noop()
	case <-done:
		return
	default:
		noop()
	}
}
"#;
        let f = parse_file(src).unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Select(s) => {
                assert_eq!(s.cases.len(), 4);
                assert!(matches!(
                    s.cases[0].comm,
                    CommClause::Recv { define: true, .. }
                ));
                assert!(matches!(s.cases[1].comm, CommClause::Send { .. }));
                assert!(matches!(
                    s.cases[2].comm,
                    CommClause::Recv { define: false, .. }
                ));
                assert!(matches!(s.cases[3].comm, CommClause::Default));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_switch_with_tag_and_default() {
        let src = "package p\nfunc f(x int) {\n\tswitch x {\n\tcase 0:\n\t\ta()\n\tcase 1, 2:\n\t\tb()\n\tdefault:\n\t\tc()\n\t}\n}\n";
        let f = parse_file(src).unwrap();
        match &f.find_func("f").unwrap().body.as_ref().unwrap().stmts[0] {
            Stmt::Switch(s) => {
                assert_eq!(s.cases.len(), 3);
                assert_eq!(s.cases[1].exprs.len(), 2);
                assert!(s.cases[2].exprs.is_empty());
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_channel_ops_and_make() {
        let src = r#"
package p

func f() {
	ch := make(chan struct{}, 1)
	m := make(map[string]int)
	s := make([]int, 0, 8)
	ch <- struct{}{}
	<-ch
	v, ok := m["k"]
	use(s, v, ok)
}
"#;
        let f = parse_file(src).unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        assert!(matches!(body.stmts[0], Stmt::ShortVar { .. }));
        assert!(matches!(body.stmts[3], Stmt::Send { .. }));
    }

    #[test]
    fn parses_func_literal_iife_with_result_type() {
        // Listing 9 pattern: case <-func() chan struct{} { ... }():
        let src = r#"
package p

func f() {
	select {
	case <-func() chan struct{} {
		lk.Lock()
		defer lk.Unlock()
		return chans[idx]
	}():
		return
	}
}
"#;
        parse_file(src).unwrap();
    }

    #[test]
    fn parses_type_assert_and_range_api() {
        let src = r#"
package p

func f(m sync.Map) {
	m.Range(func(key, value interface{}) bool {
		k := key.(ShardKey)
		use(k)
		return true
	})
}
"#;
        parse_file(src).unwrap();
    }

    #[test]
    fn parses_labeled_break() {
        let src = r#"
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
"#;
        let f = parse_file(src).unwrap();
        let body = f.find_func("f").unwrap().body.as_ref().unwrap();
        assert!(matches!(body.stmts[0], Stmt::Labeled { .. }));
    }

    #[test]
    fn parses_multi_assign_and_incdec() {
        let stmts = parse_stmts("a, b = b, a\ni++\nj--\nx += 2").unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(matches!(&stmts[0], Stmt::Assign { lhs, .. } if lhs.len() == 2));
        assert!(matches!(stmts[1], Stmt::IncDec { inc: true, .. }));
        assert!(matches!(
            stmts[3],
            Stmt::Assign {
                op: AssignOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn parses_slice_expr() {
        let e = parse_expr("xs[1:3]").unwrap();
        assert!(matches!(e, Expr::SliceExpr { .. }));
        let e = parse_expr("xs[:n]").unwrap();
        assert!(matches!(e, Expr::SliceExpr { lo: None, .. }));
    }

    #[test]
    fn parses_table_driven_test() {
        let src = r#"
package p

func TestUploadReaderRead(t *testing.T) {
	sampleHash := md5.New()
	tests := []struct {
		name string
		hash hash.Hash
	}{
		{name: "Success - 1", hash: sampleHash},
		{name: "Success - 2", hash: sampleHash},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			use(tt.hash)
		})
	}
}
"#;
        let f = parse_file(src).unwrap();
        assert!(f.find_func("TestUploadReaderRead").is_some());
    }

    #[test]
    fn parses_variadic_params_and_spread() {
        let src = "package p\nfunc f(prefix string, xs ...int) {\n\tg(xs...)\n}\n";
        let f = parse_file(src).unwrap();
        let func = f.find_func("f").unwrap();
        assert!(func.sig.params[1].variadic);
    }

    #[test]
    fn parses_unnamed_result_tuple() {
        let src = "package p\nfunc f() (*Response, error) { return nil, nil }\n";
        let f = parse_file(src).unwrap();
        let func = f.find_func("f").unwrap();
        assert_eq!(func.sig.results.len(), 2);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_file("package p\nfunc f() { if }").is_err());
        assert!(parse_file("func f() {}").is_err());
        assert!(parse_expr("1 +").is_err());
    }

    #[test]
    fn precedence_shapes_tree() {
        let e = parse_expr("1 + 2*3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected add at root, got {other:?}"),
        }
        let e = parse_expr("a == b && c != d").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::AndAnd,
                ..
            }
        ));
    }

    #[test]
    fn parses_struct_with_embedded_and_tagged_fields() {
        let src = "package p\ntype T struct {\n\tsync.Mutex\n\tName string `json:\"name\"`\n\ta, b int\n}\n";
        let f = parse_file(src).unwrap();
        match &f.find_type("T").unwrap().ty {
            Type::Struct(fields) => {
                assert_eq!(fields.len(), 3);
                assert!(fields[0].names.is_empty());
                assert_eq!(fields[2].names, vec!["a", "b"]);
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parses_atomic_and_pointer_ops() {
        let src = "package p\nfunc f(n *int32) {\n\tatomic.StoreInt32(n, 0)\n\tv := atomic.LoadInt32(n)\n\tuse(v)\n\t*n = 5\n\tp := &v\n\tuse(p)\n}\n";
        parse_file(src).unwrap();
    }
}
