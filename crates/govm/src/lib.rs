//! `govm` — a bytecode compiler and deterministic concurrent VM for the
//! `golite` Go subset, with FastTrack race-detector hooks.
//!
//! This crate is the `go test -race` substitute of the Dr.Fix
//! reproduction (PLDI 2025): it compiles a package, runs its tests under
//! seeded schedules, and reports data races in ThreadSanitizer shape.
//!
//! # Example
//!
//! ```
//! use govm::{compile_sources, CompileOptions, Vm, VmOptions};
//!
//! let prog = compile_sources(
//!     &[("main.go".into(),
//!        "package main\n\nfunc Compute() int {\n\treturn 40 + 2\n}\n".into())],
//!     &CompileOptions::default(),
//! )?;
//! let mut vm = Vm::new(&prog, VmOptions::default());
//! let result = vm.run("Compute", vec![]);
//! assert!(result.is_clean());
//! # Ok::<(), golite::Diag>(())
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod compile;
pub mod natives;
mod ops;
pub mod sched;
pub mod testrun;
pub mod value;
pub mod vm;

pub use bytecode::{Op, Program, TypeHint};
pub use compile::{compile_package, compile_sources, CompileOptions};
pub use sched::{derive_seed, SchedulePolicy};
pub use testrun::{
    run_test, run_test_many, run_test_with, StopReason, TestConfig, TestOutcome, TestVm,
};
pub use value::Value;
pub use vm::{RunCounters, RunError, RunResult, Tier, Vm, VmOptions};
