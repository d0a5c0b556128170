//! Differential property tests for the shadow-state lifecycle.
//!
//! Random access/fork/join/exit traces are replayed twice: once
//! through a detector that retires exited threads (`thread_exit`) and
//! collects dead shadow state at arbitrary points (`collect` with the
//! live frontier), and once through a never-collecting reference that
//! receives only the plain event stream. Race reports and every
//! *logical* `DetStats` counter must be bit-identical — the lifecycle
//! is physical, full stop.
//!
//! The trace generator is shrinkable by construction: thread and lock
//! picks are indices reduced modulo the live set at interpretation
//! time, so any sub-vector of steps is itself a valid trace.

use proptest::prelude::*;
use racedet::{Detector, ThreadId, DENSE_LIMIT};

/// One step of a random multi-threaded trace.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Spawn a child of the picked live thread.
    Fork {
        pick: u8,
    },
    /// Join a non-main live thread into main, then retire it — the
    /// exit is ordered before everything later, so its clock slot is
    /// eligible for reuse.
    ExitJoined {
        pick: u8,
    },
    /// Retire a non-main live thread with no join — its last accesses
    /// stay unordered and must still race with later conflicting ones.
    ExitDetached {
        pick: u8,
    },
    Read {
        pick: u8,
        addr: u64,
    },
    Write {
        pick: u8,
        addr: u64,
    },
    /// acquire+release of one of three locks (ticks the thread's
    /// clock, which is what pushes old states below the frontier).
    Sync {
        pick: u8,
        lock: u8,
    },
    /// GC side only: collect at the current live frontier.
    Collect,
}

/// Addresses cluster on a few dense cells (so collected state is
/// routinely re-accessed — the hard case for transparency) plus a few
/// sparse cells past the dense/sparse crossover.
fn addr_strategy() -> impl Strategy<Value = u64> {
    (0u64..15).prop_map(|a| {
        if a < 12 {
            a
        } else {
            DENSE_LIMIT as u64 + (a - 12)
        }
    })
}

/// Weighted step mix, encoded as a mapped tuple so the trace stays a
/// flat, shrinkable vector of independently drawn steps.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..23, any::<u8>(), addr_strategy(), 0u8..3).prop_map(
        |(kind, pick, addr, lock)| match kind {
            0 | 1 => Step::Fork { pick },
            2 | 3 => Step::ExitJoined { pick },
            4 => Step::ExitDetached { pick },
            5..=10 => Step::Read { pick, addr },
            11..=16 => Step::Write { pick, addr },
            17..=19 => Step::Sync { pick, lock },
            _ => Step::Collect,
        },
    )
}

/// Replays `steps` through a lifecycle-managed detector and a plain
/// reference. Both see the identical fork/join/access/sync stream;
/// only the GC side gets `thread_exit` and `collect` calls.
fn diff_replay(steps: &[Step]) -> (Detector, Detector) {
    let mut gc = Detector::new();
    let mut refd = Detector::new();
    let mut live: Vec<ThreadId> = vec![0];
    for s in steps {
        match *s {
            Step::Fork { pick } => {
                if live.len() >= 6 {
                    continue;
                }
                let p = live[pick as usize % live.len()];
                let a = gc.fork(p);
                let b = refd.fork(p);
                assert_eq!(a, b, "external thread ids must stay in lock-step");
                live.push(a);
            }
            Step::ExitJoined { pick } => {
                if live.len() < 2 {
                    continue;
                }
                let t = live.remove(1 + pick as usize % (live.len() - 1));
                gc.join_thread(0, t);
                refd.join_thread(0, t);
                gc.thread_exit(t);
            }
            Step::ExitDetached { pick } => {
                if live.len() < 2 {
                    continue;
                }
                let t = live.remove(1 + pick as usize % (live.len() - 1));
                gc.thread_exit(t);
            }
            Step::Read { pick, addr } => {
                let t = live[pick as usize % live.len()];
                let frame = pick as u32;
                gc.read(t, addr, 0, &[frame]);
                refd.read(t, addr, 0, &[frame]);
            }
            Step::Write { pick, addr } => {
                let t = live[pick as usize % live.len()];
                let frame = pick as u32;
                gc.write(t, addr, 0, &[frame]);
                refd.write(t, addr, 0, &[frame]);
            }
            Step::Sync { pick, lock } => {
                let t = live[pick as usize % live.len()];
                let m = 900 + u64::from(lock);
                gc.acquire(t, m);
                gc.release(t, m);
                refd.acquire(t, m);
                refd.release(t, m);
            }
            Step::Collect => {
                if let Some(f) = gc.live_frontier() {
                    gc.collect(&f);
                }
            }
        }
    }
    (gc, refd)
}

proptest! {
    // The tentpole differential: GC + clock reclamation change
    // nothing observable on any trace the generator can produce.
    #[test]
    fn lifecycle_is_differentially_transparent(
        steps in proptest::collection::vec(step_strategy(), 1..140)
    ) {
        let (gc, refd) = diff_replay(&steps);
        prop_assert_eq!(gc.races(), refd.races(), "race reports diverged");
        prop_assert_eq!(gc.stats(), refd.stats(), "logical counters diverged");
        // Reclamation is one-sided by construction: the reference
        // never exits, so its width only ever grows.
        prop_assert!(gc.clock_width() <= refd.clock_width());
    }

    // Collected shadow memory never exceeds the uncollected
    // reference's, and a full-trace collect after every thread joined
    // leaves no live state behind.
    #[test]
    fn collect_is_monotone_on_memory(
        steps in proptest::collection::vec(step_strategy(), 1..100)
    ) {
        let (mut gc, refd) = diff_replay(&steps);
        prop_assert!(gc.live_states() <= refd.live_states());
        // Quiesce: tick main past everything it saw, then collect at
        // main's own frontier. Only states unordered w.r.t. main (the
        // detached-exit leftovers and concurrent live threads) survive.
        if let Some(f) = gc.live_frontier() {
            gc.collect(&f);
            prop_assert!(gc.live_states() <= refd.live_states());
        }
    }
}
