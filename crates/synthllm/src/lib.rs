//! `synthllm` — the LLM substitute of the Dr.Fix reproduction.
//!
//! The paper's model `M` (GPT-4 Turbo / GPT-4o / o1-preview, Table 2)
//! turns a prompt — racy code, an optional retrieved example, optional
//! failure feedback — into a complete revised source file. This crate
//! reproduces that interface with three cooperating parts:
//!
//! - [`mod@diagnose`]: AST pattern detectors mapping racy code to candidate
//!   race categories and repair strategies;
//! - [`strategy`]: *real* AST-rewrite fix strategies (variable
//!   redeclaration, loop-variable privatization, `sync.Map` conversion,
//!   mutex insertion, atomics, channel-based result passing, …) — every
//!   produced patch is ordinary Go-subset code that the `govm` validator
//!   re-runs under the race detector;
//! - [`capability`]: the tier model. What an LLM would or would not
//!   manage is expressed as per-strategy skill levels, guidance gains
//!   from retrieved examples, and context-length attention noise — the
//!   knobs correspond one-to-one to the paper's ablation axes (Fig. 3,
//!   Fig. 4, RQ3). Everything is deterministic given the seed.
//!
//! # Example
//!
//! ```
//! use synthllm::{FixRequest, ModelTier, Prompt, Scope, SynthLlm};
//!
//! let code = "package p\n\nimport \"sync\"\n\nfunc F() {\n\terr := work()\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\tgo func() {\n\t\tdefer wg.Done()\n\t\terr = work()\n\t\tuse(err)\n\t}()\n\terr = work()\n\twg.Wait()\n\tuse(err)\n}\n\nfunc work() error { return nil }\nfunc use(e error) {}\n";
//! let llm = SynthLlm::new(ModelTier::Gpt4o, 7);
//! let req = FixRequest {
//!     code: code.to_owned(),
//!     scope: Scope::File,
//!     racy_var: "err".into(),
//!     racy_lines: vec![11, 14],
//!     example: None,
//!     feedback: vec![],
//!     context_funcs: 3,
//!     focus_func: None,
//!     case_key: "demo".into(),
//! };
//! let prompt = Prompt::new(std::borrow::Cow::Owned(golite::parse_file(&req.code).unwrap()));
//! let fix = llm.enumerate(&req, &prompt, 4).next().expect("the model answers");
//! assert!(fix.code.contains("err :="));
//! ```

#![warn(missing_docs)]

pub mod capability;
pub mod diagnose;
pub mod model;
pub mod prompt;
pub mod rewrite;
pub mod strategy;

pub use capability::{CapabilityModel, ModelTier};
pub use diagnose::{diagnose, Diagnosis};
pub use model::{Candidate, SynthLlm};
pub use prompt::Prompt;
pub use strategy::StrategyKind;

use serde::{Deserialize, Serialize};

/// The race-pattern categories of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RaceCategory {
    /// Capture-by-reference in goroutines (41% of Dr.Fix fixes).
    CaptureByReference,
    /// Missing or incorrect synchronization (26%).
    MissingSync,
    /// Parallel (table-driven) test suites (13%).
    ParallelTest,
    /// Capture of a loop variable (6%).
    LoopVarCapture,
    /// Concurrent map access (5%).
    ConcurrentMap,
    /// Concurrent slice access (5%).
    ConcurrentSlice,
    /// Everything else — shared `rand.Source`, shared config structs… (4%).
    Other,
}

impl RaceCategory {
    /// Display name matching Table 3.
    pub fn display(&self) -> &'static str {
        match self {
            RaceCategory::CaptureByReference => "Capture-by-reference in goroutines",
            RaceCategory::MissingSync => "Missing/incorrect synchronization",
            RaceCategory::ParallelTest => "Parallel test suite",
            RaceCategory::LoopVarCapture => "Capture of loop variable",
            RaceCategory::ConcurrentMap => "Concurrent map access",
            RaceCategory::ConcurrentSlice => "Concurrent slice access",
            RaceCategory::Other => "Others",
        }
    }

    /// All categories in Table 3 order.
    pub fn all() -> &'static [RaceCategory] {
        &[
            RaceCategory::CaptureByReference,
            RaceCategory::MissingSync,
            RaceCategory::ParallelTest,
            RaceCategory::LoopVarCapture,
            RaceCategory::ConcurrentMap,
            RaceCategory::ConcurrentSlice,
            RaceCategory::Other,
        ]
    }
}

/// Fix scope (§4.2): the model sees one function or a whole file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Function-only context (succinct but limited).
    Func,
    /// Whole-file context (comprehensive but noisy).
    File,
}

/// A retrieved example: the paper's `(b*, f*)` pair (§3.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Example {
    /// The past racy code.
    pub buggy: String,
    /// Its accepted fix.
    pub fixed: String,
}

/// Structured feedback from a failed validation attempt (§4.4.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Feedback {
    /// The strategy the prior attempt applied, when known.
    pub strategy: Option<StrategyKind>,
    /// The validator's failure message.
    pub message: String,
}

/// One fix-generation request — the prompt (Appendix E).
#[derive(Debug, Clone)]
pub struct FixRequest {
    /// The code to fix (always a parseable file; function scope wraps the
    /// function in a stub package).
    pub code: String,
    /// Whether `code` is a lone function or a whole file.
    pub scope: Scope,
    /// The racy variable named by the race report.
    pub racy_var: String,
    /// Racy line numbers within `code`.
    pub racy_lines: Vec<u32>,
    /// Retrieved example, if any (`None` = the "empty example").
    pub example: Option<Example>,
    /// Feedback from earlier failed attempts.
    pub feedback: Vec<Feedback>,
    /// Number of functions in the *original* file (context-length noise
    /// model input; meaningful at file scope).
    pub context_funcs: usize,
    /// The function the prompt points the model at (the fix *location* of
    /// §4.2: leaf, test, or LCA). Diagnoses outside this function (other
    /// than type/global-level ones) are not considered — this is what
    /// makes the choice of location matter (RQ2.5).
    pub focus_func: Option<String>,
    /// A stable identifier of the underlying race (the bug hash). The
    /// capability dice are keyed on it, so retrying the *same* strategy
    /// on the *same* race reproduces the same mistake — feedback helps by
    /// redirecting to a different strategy, not by brute-force rerolls.
    pub case_key: String,
}
