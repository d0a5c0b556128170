//! Vector clocks and epochs, the core of the FastTrack detector.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a logical thread (goroutine) inside one program run.
pub type ThreadId = usize;

/// A vector clock: for each thread, the last-known logical time.
///
/// Missing entries are implicitly zero, so clocks grow lazily as higher
/// thread ids appear.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u32>,
}

impl VectorClock {
    /// Creates an empty (all-zero) clock.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Returns the component for thread `t` (zero if absent).
    pub fn get(&self, t: ThreadId) -> u32 {
        self.entries.get(t).copied().unwrap_or(0)
    }

    /// Sets the component for thread `t`.
    pub fn set(&mut self, t: ThreadId, value: u32) {
        if self.entries.len() <= t {
            self.entries.resize(t + 1, 0);
        }
        self.entries[t] = value;
    }

    /// Increments the component for thread `t` and returns the new value.
    pub fn tick(&mut self, t: ThreadId) -> u32 {
        let v = self.get(t) + 1;
        self.set(t, v);
        v
    }

    /// Overwrites `self` with `other`'s contents, reusing `self`'s
    /// buffer. The reuse is what lets sync objects be re-released on
    /// every lock handoff without a fresh clock allocation.
    pub fn copy_from(&mut self, other: &VectorClock) {
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }

    /// Components the buffer holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Resets every component to zero, keeping the buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Joins `other` into `self` (pointwise maximum).
    pub fn join(&mut self, other: &VectorClock) {
        if self.entries.len() < other.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (i, &v) in other.entries.iter().enumerate() {
            if v > self.entries[i] {
                self.entries[i] = v;
            }
        }
    }

    /// Meets `other` into `self` (pointwise minimum). Components absent
    /// on either side are implicitly zero, so the result never grows:
    /// trailing entries beyond `other`'s width drop to zero. This is
    /// the retirement-frontier combinator — the meet of every live
    /// thread's clock is the largest clock guaranteed to happen-before
    /// every future event.
    pub fn meet(&mut self, other: &VectorClock) {
        for (i, v) in self.entries.iter_mut().enumerate() {
            let o = other.get(i);
            if o < *v {
                *v = o;
            }
        }
    }

    /// Returns `true` if `self` happens-before-or-equals `other`
    /// (pointwise `<=`).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.get(i))
    }

    /// Number of explicit components (highest thread id seen + 1).
    pub fn width(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(thread, value)` pairs with non-zero values.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u32)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(i, &v)| (i, v))
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (t, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}@{t}")?;
        }
        write!(f, "⟩")
    }
}

/// An epoch `c@t`: a scalar clock value attributed to one thread.
///
/// FastTrack's key optimisation: most variables are accessed by one
/// thread at a time, so a full vector clock is unnecessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epoch {
    /// Owning thread.
    pub tid: ThreadId,
    /// Clock value.
    pub clock: u32,
}

impl Epoch {
    /// The zero epoch (never conflicts).
    pub const ZERO: Epoch = Epoch { tid: 0, clock: 0 };

    /// Creates `clock@tid`.
    pub fn new(tid: ThreadId, clock: u32) -> Self {
        Epoch { tid, clock }
    }

    /// Returns `true` if this epoch happens-before-or-equals clock `c`.
    pub fn le(&self, c: &VectorClock) -> bool {
        self.clock <= c.get(self.tid)
    }

    /// Returns `true` if this is the zero epoch.
    pub fn is_zero(&self) -> bool {
        self.clock == 0
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(0, 1);
        b.set(1, 5);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn le_is_partial_order() {
        let mut a = VectorClock::new();
        a.set(0, 1);
        let mut b = VectorClock::new();
        b.set(0, 2);
        b.set(1, 1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        // Incomparable pair.
        let mut c = VectorClock::new();
        c.set(1, 9);
        assert!(!c.le(&b));
        assert!(!b.le(&c));
    }

    #[test]
    fn meet_is_pointwise_min_and_never_grows() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 5);
        let mut b = VectorClock::new();
        b.set(0, 1);
        b.set(1, 9);
        a.meet(&b);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(1), 0, "absent on one side means zero");
        assert_eq!(a.get(2), 0);
        assert!(a.width() <= 3, "meet must not grow the clock");
        // The meet happens-before both operands.
        let mut c = VectorClock::new();
        c.set(0, 1);
        assert!(a.le(&c));
        assert!(a.le(&b));
    }

    #[test]
    fn tick_increments_own_component() {
        let mut a = VectorClock::new();
        assert_eq!(a.tick(3), 1);
        assert_eq!(a.tick(3), 2);
        assert_eq!(a.get(3), 2);
        assert_eq!(a.get(0), 0);
    }

    #[test]
    fn epoch_le_checks_only_own_component() {
        let e = Epoch::new(1, 4);
        let mut c = VectorClock::new();
        c.set(1, 4);
        assert!(e.le(&c));
        c.set(1, 3);
        assert!(!e.le(&c));
        assert!(Epoch::ZERO.le(&VectorClock::new()));
    }

    #[test]
    fn display_formats() {
        let mut c = VectorClock::new();
        c.set(0, 2);
        c.set(2, 7);
        assert_eq!(c.to_string(), "⟨2@0, 7@2⟩");
        assert_eq!(Epoch::new(1, 3).to_string(), "3@1");
    }
}
