//! `golite` — a from-scratch frontend for a substantial Go subset.
//!
//! This crate is the language substrate of the Dr.Fix reproduction
//! (PLDI 2025). It provides:
//!
//! - a [`lexer`] with Go-style automatic semicolon insertion,
//! - a recursive-descent [`parser`] covering goroutines, closures,
//!   channels, `select`, `sync`/`atomic` vocabulary, maps, slices,
//!   structs/methods, `defer`, and table-driven tests,
//! - a gofmt-flavoured [`printer`] whose output re-parses to the same
//!   tree (round-trip tested), and
//! - [`visit`]: the one read-only and the one in-place AST walk that
//!   the analysis passes and fix strategies share.
//!
//! # Example
//!
//! ```
//! use golite::parse_file;
//!
//! let file = parse_file(
//!     "package main\n\nfunc main() {\n\tgo work()\n}\n",
//! )?;
//! assert_eq!(file.package, "main");
//! assert!(file.find_func("main").is_some());
//! # Ok::<(), golite::Diag>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{Block, Decl, Expr, File, FuncDecl, Stmt, Type};
pub use diag::{Diag, Diagnostic, Result, Severity};
pub use parser::{
    parse_calls, parse_expr, parse_file, parse_sources, parse_stmts, ParsedFile, MAX_NESTING,
};
pub use printer::{print_expr, print_file, print_file_parts, print_func};
pub use span::{LineCol, LineMap, Span};
