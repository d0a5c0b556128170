//! `skeleton` — concurrency-aware program slicing (Dr.Fix §4.3).
//!
//! Given a Go source file and the line numbers involved in a data race,
//! this crate produces the *concurrency skeleton*: a distilled version of
//! the enclosing functions that keeps only concurrency constructs and the
//! race-relevant variables, with every identifier consistently renamed
//! (`racyVar1…`, `v1…`, `type1…`, `func1…`). Skeletons denoise
//! embedding-based retrieval: two races with the same concurrency
//! structure but different business logic map to nearly identical
//! skeletons (the paper's key retrieval insight, evaluated in Fig. 3).
//!
//! # Example
//!
//! ```
//! use skeleton::{skeletonize, SkeletonOptions};
//!
//! let src = "package p\n\nfunc f() {\n\tshared := 0\n\tgo func() {\n\t\tshared = 1\n\t}()\n\tshared = 2\n}\n";
//! let sk = skeletonize(src, &[6, 8], &SkeletonOptions::default())?;
//! assert!(sk.text.contains("racyVar1"));
//! assert!(sk.text.contains("go func()"));
//! # Ok::<(), golite::Diag>(())
//! ```

#![warn(missing_docs)]

mod relevance;
mod rename;
mod slice;

pub use relevance::{is_concurrency_call, vars_on_lines};
pub use rename::Renamer;
pub use slice::slice_function;

use golite::ast::{Decl, File};
use golite::diag::{Diag, Result};
use golite::span::LineMap;

/// Options controlling skeletonization. Slicing itself is not optional:
/// every skeleton keeps only concurrency constructs and the statements
/// that touch a racy variable.
#[derive(Debug, Clone, Default)]
pub struct SkeletonOptions {
    /// Additional variable names to treat as racy (beyond those found on
    /// the racy lines).
    pub extra_racy_vars: Vec<String>,
}

/// A produced skeleton.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// The rendered skeleton source.
    pub text: String,
    /// Original names of the racy variables, in `racyVarN` order.
    pub racy_vars: Vec<String>,
    /// Names of the functions that were skeletonized.
    pub functions: Vec<String>,
}

/// Skeletonizes the functions of `src` that cover `racy_lines`.
///
/// Variables named on the racy lines become the variables of interest;
/// statements without concurrency constructs or interest variables are
/// elided; identifiers are consistently renamed.
///
/// # Errors
///
/// Returns a [`Diag`] when the source does not parse.
pub fn skeletonize(src: &str, racy_lines: &[u32], opts: &SkeletonOptions) -> Result<Skeleton> {
    let file = golite::parse_file(src)?;
    skeletonize_file(&file, src, racy_lines, opts)
}

/// Skeletonizes an already-parsed file.
///
/// # Errors
///
/// Returns a [`Diag`] when the file contains no functions.
pub fn skeletonize_file(
    file: &File,
    src: &str,
    racy_lines: &[u32],
    opts: &SkeletonOptions,
) -> Result<Skeleton> {
    let lm = LineMap::new(src);
    let mut racy_vars = vars_on_lines(file, &lm, racy_lines);
    for v in &opts.extra_racy_vars {
        if !racy_vars.contains(v) {
            racy_vars.push(v.clone());
        }
    }

    // Functions covering racy lines; fall back to functions mentioning a
    // racy variable, then to all functions.
    let mut selected: Vec<&golite::ast::FuncDecl> = file
        .funcs()
        .filter(|f| {
            let span = f.span;
            racy_lines.iter().any(|&l| {
                lm.line_span(l)
                    .map(|ls| ls.lo >= span.lo && ls.lo < span.hi)
                    .unwrap_or(false)
            })
        })
        .collect();
    if selected.is_empty() && !racy_vars.is_empty() {
        selected = file
            .funcs()
            .filter(|f| {
                f.body
                    .as_ref()
                    .map(|b| {
                        let mut found = false;
                        golite::visit::walk_exprs(b, &mut |e| {
                            if let golite::ast::Expr::Ident { name, .. } = e {
                                if racy_vars.contains(name) {
                                    found = true;
                                }
                            }
                        });
                        found
                    })
                    .unwrap_or(false)
            })
            .collect();
    }
    if selected.is_empty() {
        selected = file.funcs().collect();
    }
    if selected.is_empty() {
        return Err(Diag::new(
            "no functions to skeletonize",
            golite::Span::DUMMY,
        ));
    }

    let mut renamer = Renamer::new(&racy_vars);
    let mut pieces = Vec::new();
    let mut functions = Vec::new();

    // Type declarations with concurrency-relevant fields come first, like
    // Listing 8's `lockMap sync.Map` struct.
    for d in &file.decls {
        if let Decl::Type(t) = d {
            if relevance::type_is_concurrency_relevant(&t.ty) {
                let renamed = renamer.rename_typedecl(t);
                pieces.push(golite::printer::print_type_decl(&renamed));
            }
        }
    }

    for f in &selected {
        functions.push(f.name.clone());
        let renamed = renamer.rename_func(slice_function(f, &racy_vars));
        pieces.push(golite::print_func(&renamed));
    }

    Ok(Skeleton {
        text: pieces.join("\n\n"),
        racy_vars: renamer.racy_in_order(),
        functions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 3 → Listing 4 of the paper: the golden skeleton test.
    #[test]
    fn listing3_skeleton_matches_paper_shape() {
        let src = r#"
package store

func (s *storeObject) ProcessStoreData(ctx *Context, req *Request) error {
	err := s.Validate(req)
	if err != nil {
		return err
	}
	var bazaarStores BazaarStores
	var uuidDefectRateMap UUIDMap
	group.Go(func() error {
		docs := s.GetNecessaryDocs()
		if flipr.GetBool(xpAdditionalDocs) {
			otherDocs := s.GetAdditionalDocs()
			docs = append(docs, otherDocs)
		}
		bazaarStores, err = s.LoadStores(ctx, req, docs)
		return err
	})
	group.Go(func() error {
		uuidDefectRateMap, err = s.LoadOAData(ctx, s.DocstoreClient, req)
		return err
	})
	err = group.Wait()
	return err
}
"#;
        // Race on `err` at the two closure assignment lines.
        let sk = skeletonize(src, &[17, 21], &SkeletonOptions::default()).unwrap();
        // err became racyVar1 everywhere (only the `error` type keeps the
        // substring).
        assert!(sk.text.contains("racyVar1"), "{}", sk.text);
        assert!(!sk.text.contains("err "), "{}", sk.text);
        assert!(!sk.text.contains("err,"), "{}", sk.text);
        assert!(!sk.text.contains("err ="), "{}", sk.text);
        // Concurrency constructs retained.
        assert_eq!(sk.text.matches(".Go(func()").count(), 2, "{}", sk.text);
        assert!(sk.text.contains(".Wait()"), "{}", sk.text);
        // Business logic elided: the flipr block disappears.
        assert!(!sk.text.contains("GetBool"), "{}", sk.text);
        assert!(!sk.text.contains("append"), "{}", sk.text);
        // Business identifiers renamed away.
        assert!(!sk.text.contains("bazaarStores"), "{}", sk.text);
        assert!(!sk.text.contains("LoadStores"), "{}", sk.text);
        assert_eq!(sk.racy_vars, vec!["err".to_owned()]);
    }

    #[test]
    fn same_structure_different_business_logic_same_skeleton() {
        let a = r#"
package p

func ProcessOrders() {
	total := 0
	go func() {
		total = computeOrderTotal()
	}()
	total = fallbackOrderTotal()
	use(total)
}
"#;
        let b = r#"
package p

func RefreshInventory() {
	stockLevel := 0
	go func() {
		stockLevel = fetchWarehouseCount()
	}()
	stockLevel = cachedWarehouseCount()
	use(stockLevel)
}
"#;
        let sa = skeletonize(a, &[7, 9], &SkeletonOptions::default()).unwrap();
        let sb = skeletonize(b, &[7, 9], &SkeletonOptions::default()).unwrap();
        assert_eq!(
            sa.text, sb.text,
            "\n--- a:\n{}\n--- b:\n{}",
            sa.text, sb.text
        );
    }

    #[test]
    fn keeps_control_structures_that_touch_racy_vars() {
        let src = r#"
package p

func f() {
	shared := 0
	noise := 1
	if noise > 0 {
		noise = noise + 1
	}
	go func() {
		if shared > 0 {
			shared = 2
		}
	}()
	shared = 3
}
"#;
        let sk = skeletonize(src, &[10, 15], &SkeletonOptions::default()).unwrap();
        // The noise-only if block disappears; the shared one stays.
        assert_eq!(sk.text.matches("if").count(), 1, "{}", sk.text);
        assert!(sk.text.contains("racyVar1 = 3"), "{}", sk.text);
    }

    #[test]
    fn retains_sync_calls_and_channels() {
        let src = r#"
package p

import "sync"

func f(ch chan int) {
	var mu sync.Mutex
	x := 0
	businessPrep()
	mu.Lock()
	x = x + 1
	mu.Unlock()
	ch <- x
	<-ch
}

func businessPrep() {}
"#;
        let sk = skeletonize(src, &[11], &SkeletonOptions::default()).unwrap();
        assert!(sk.text.contains(".Lock()"), "{}", sk.text);
        assert!(sk.text.contains(".Unlock()"), "{}", sk.text);
        assert!(sk.text.contains("<-"), "{}", sk.text);
        assert!(!sk.text.contains("businessPrep"), "{}", sk.text);
    }

    #[test]
    fn struct_types_with_sync_fields_are_included() {
        let src = r#"
package p

type Scanner struct {
	lockMap sync.Map
	label   string
}

func (t *Scanner) runShards() {
	t.lockMap.Range(func(key, value interface{}) bool {
		t.lockMap.Delete(key)
		return true
	})
}
"#;
        let sk = skeletonize(src, &[11], &SkeletonOptions::default()).unwrap();
        assert!(sk.text.contains("sync.Map"), "{}", sk.text);
        assert!(sk.text.contains(".Range(func"), "{}", sk.text);
        assert!(sk.text.contains(".Delete("), "{}", sk.text);
        assert!(!sk.text.contains("lockMap"), "{}", sk.text);
    }

    #[test]
    fn skeleton_is_deterministic() {
        let src =
            "package p\n\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n\tx = 2\n}\n";
        let a = skeletonize(src, &[6, 8], &SkeletonOptions::default()).unwrap();
        let b = skeletonize(src, &[6, 8], &SkeletonOptions::default()).unwrap();
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn string_literals_are_blanked() {
        let src = r#"
package p

func f() {
	msg := "super secret business text"
	go func() {
		msg = "other text"
	}()
	use(msg)
}
"#;
        let sk = skeletonize(src, &[7, 9], &SkeletonOptions::default()).unwrap();
        assert!(!sk.text.contains("secret"), "{}", sk.text);
    }
}
