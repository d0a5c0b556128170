//! Umbrella crate for the Dr.Fix reproduction workspace.
//!
//! Re-exports every subsystem crate so examples and integration tests
//! can depend on a single package:
//!
//! - [`golite`] / [`govm`] / [`racedet`] — the Go-subset substrate:
//!   frontend, schedule-fuzzing VM, and FastTrack race detector;
//! - [`skeleton`] / [`embed`] — the retrieval stack: concurrency
//!   slicing and embeddings (the example database that retrieves by
//!   cosine similarity is `drfix::database`);
//! - [`synthllm`] — the deterministic model substitute;
//! - [`corpus`] — the synthetic racy-Go workload generator;
//! - [`statcheck`] — the lockset/lock-order static analyzer gating
//!   candidate patches before dynamic validation;
//! - [`drfix`] — the paper's pipeline tying it all together.
//!
//! See the workspace `README.md` (repository root) for the
//! architecture overview and `DESIGN.md` for the per-experiment index
//! mapping each bench target in `crates/bench/benches/` to the paper
//! section it reproduces.

pub use corpus;
pub use drfix;
pub use embed;
pub use golite;
pub use govm;
pub use racedet;
pub use skeleton;
pub use statcheck;
pub use synthllm;
