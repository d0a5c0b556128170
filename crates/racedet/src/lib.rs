//! `racedet` — a FastTrack-style dynamic data-race detector.
//!
//! This crate is the ThreadSanitizer substitute of the Dr.Fix
//! reproduction (PLDI 2025): the `govm` runtime feeds it memory accesses
//! and happens-before edges, and it produces race reports in the shape
//! Dr.Fix's Race Info Extractor consumes (two access stacks plus
//! goroutine creation stacks, a stable bug hash).
//!
//! # Example
//!
//! ```
//! use racedet::{Detector, AccessKind};
//!
//! let mut d = Detector::new();
//! let child = d.fork(0);
//! d.write(0, 0x10, 1, &[100]);
//! d.write(child, 0x10, 1, &[200]);
//! assert_eq!(d.races().len(), 1);
//! assert_eq!(d.races()[0].cur.kind, AccessKind::Write);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod fasttrack;
pub mod report;

pub use clock::{Epoch, ThreadId, VectorClock};
pub use fasttrack::{
    Addr, DetStats, Detector, DetectorOptions, FastBuildHasher, FastHasher, FastPath, FrameId,
    NameId, RawAccess, RawRace, ShadowStats, StackGen, DENSE_LIMIT, PAGE_SIZE,
};
pub use report::{bug_hash_of, Access, AccessKind, Frame, GoroutineInfo, RaceReport};
