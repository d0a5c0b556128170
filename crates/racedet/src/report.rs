//! Race reports in the shape the Go race detector (ThreadSanitizer)
//! produces: two unordered access stacks plus the creation stacks of the
//! involved goroutines, limited to two ancestry levels (§5.6 of the
//! paper notes this TSan limitation, which Dr.Fix operates within).

use crate::clock::ThreadId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One stack frame: function name plus source coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// Function (or method) name.
    pub function: String,
    /// Source file name.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
}

impl Frame {
    /// Creates a frame.
    pub fn new(function: impl Into<String>, file: impl Into<String>, line: u32) -> Self {
        Frame {
            function: function.into(),
            file: file.into(),
            line,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{}", self.function, self.file, self.line)
    }
}

/// Whether an access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Memory read.
    Read,
    /// Memory write.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("Read"),
            AccessKind::Write => f.write_str("Write"),
        }
    }
}

/// The goroutine context of an access: its id and the stacks at which its
/// ancestors spawned it (innermost first, at most two levels).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GoroutineInfo {
    /// Goroutine id within the run.
    pub id: ThreadId,
    /// Creation stacks: `creation[0]` is the parent's stack at the `go`
    /// statement, `creation[1]` the grandparent's (TSan keeps two levels).
    pub creation: Vec<Vec<Frame>>,
}

/// One side of a data race.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Read or write.
    pub kind: AccessKind,
    /// Call stack at the access, innermost frame first.
    pub stack: Vec<Frame>,
    /// Goroutine context.
    pub goroutine: GoroutineInfo,
}

impl Access {
    /// Innermost (leaf) frame of the access, if any.
    pub fn leaf(&self) -> Option<&Frame> {
        self.stack.first()
    }

    /// Outermost (root) frame of the access, if any.
    pub fn root(&self) -> Option<&Frame> {
        self.stack.last()
    }
}

/// A full data-race report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport {
    /// The two unordered accesses; by convention `accesses[0]` is the
    /// access observed second (the one that triggered detection).
    pub accesses: [Access; 2],
    /// Best-effort name of the racy variable (heap cell label).
    pub var_name: String,
    /// Abstract address of the racy cell.
    pub addr: u64,
}

impl RaceReport {
    /// A stable identity for the race, derived from the function names in
    /// both stacks (§4.2: "function names from a bug stack trace form a
    /// stable hash, later used to check if a fix eliminated the race").
    ///
    /// The hash is symmetric in the two accesses and independent of line
    /// numbers, so it survives fixes that move code within functions.
    pub fn bug_hash(&self) -> String {
        let mut names: Vec<&str> = self
            .accesses
            .iter()
            .flat_map(|a| a.stack.iter().map(|f| f.function.as_str()))
            .collect();
        format!("{:016x}", bug_hash_of(&self.var_name, &mut names))
    }

    /// Renders the report in the familiar `WARNING: DATA RACE` format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("==================\nWARNING: DATA RACE\n");
        for a in &self.accesses {
            let _ = writeln!(
                out,
                "{} at {} by goroutine {}:",
                a.kind, self.var_name, a.goroutine.id
            );
            for fr in &a.stack {
                let _ = writeln!(out, "  {fr}");
            }
            for (lvl, stack) in a.goroutine.creation.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "Goroutine {} (ancestry level {}) created at:",
                    a.goroutine.id, lvl
                );
                for fr in stack {
                    let _ = writeln!(out, "  {fr}");
                }
            }
        }
        out.push_str("==================\n");
        out
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The number behind [`RaceReport::bug_hash`] (which formats it as 16
/// hex digits), computed from the hash's inputs alone: the variable name
/// and the function names of both access stacks, which this sorts in
/// place. Hosts holding races in interned form hash them with this
/// without building a report.
pub fn bug_hash_of(var_name: &str, functions: &mut [&str]) -> u64 {
    functions.sort_unstable();
    let mut h = Fnv1a::new();
    h.write(var_name.as_bytes());
    for n in functions.iter() {
        h.write(b"|");
        h.write(n.as_bytes());
    }
    h.finish()
}

/// Minimal FNV-1a used for stable, dependency-free hashing.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(kind: AccessKind, funcs: &[&str], gid: ThreadId) -> Access {
        Access {
            kind,
            stack: funcs
                .iter()
                .enumerate()
                .map(|(i, f)| Frame::new(*f, "main.go", 10 + i as u32))
                .collect(),
            goroutine: GoroutineInfo {
                id: gid,
                creation: vec![vec![Frame::new("SomeFunction", "main.go", 8)]],
            },
        }
    }

    fn report() -> RaceReport {
        RaceReport {
            accesses: [
                access(AccessKind::Write, &["closure1", "SomeFunction"], 1),
                access(AccessKind::Write, &["SomeFunction"], 0),
            ],
            var_name: "err".into(),
            addr: 42,
        }
    }

    #[test]
    fn bug_hash_is_symmetric_in_access_order() {
        let r1 = report();
        let mut r2 = r1.clone();
        r2.accesses.swap(0, 1);
        assert_eq!(r1.bug_hash(), r2.bug_hash());
    }

    #[test]
    fn bug_hash_ignores_line_numbers() {
        let r1 = report();
        let mut r2 = r1.clone();
        for a in &mut r2.accesses {
            for fr in &mut a.stack {
                fr.line += 100;
            }
        }
        assert_eq!(r1.bug_hash(), r2.bug_hash());
    }

    #[test]
    fn bug_hash_distinguishes_vars_and_functions() {
        let r1 = report();
        let mut r2 = r1.clone();
        r2.var_name = "limit".into();
        assert_ne!(r1.bug_hash(), r2.bug_hash());
        let mut r3 = r1.clone();
        r3.accesses[0].stack[0].function = "otherClosure".into();
        assert_ne!(r1.bug_hash(), r3.bug_hash());
    }

    #[test]
    fn render_mentions_both_accesses() {
        let text = report().render();
        assert!(text.contains("WARNING: DATA RACE"));
        assert!(text.contains("Write at err by goroutine 1"));
        assert!(text.contains("Write at err by goroutine 0"));
        assert!(text.contains("created at"));
    }

    #[test]
    fn leaf_and_root_frames() {
        let a = access(AccessKind::Read, &["leafFn", "midFn", "rootFn"], 0);
        assert_eq!(a.leaf().unwrap().function, "leafFn");
        assert_eq!(a.root().unwrap().function, "rootFn");
    }
}
