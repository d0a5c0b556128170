//! The per-campaign schedule memo: runs whose interleaving an earlier
//! run of the same campaign already executed are replayed from a record
//! instead of re-executed.
//!
//! The VM is deterministic: two runs of one program that switch to the
//! same goroutines at the same instruction counts execute identically —
//! the same steps, races, output and counters — except for how many
//! scheduling decisions they made (`sched_points`), because the quantum
//! boundaries between switches differ. So the memo keys on *context
//! switches*, not on individual picks:
//!
//! - a [`Node`] is a context switch `(step, gid)` under its parent;
//! - it records the stretch that follows: every goroutine status change
//!   with its step, how far the stretch is known, and whether it ended
//!   (its goroutine parked or exited, or the run failed);
//! - a node where a recorded run ended keeps that run's steps, schedule
//!   signature and counters.
//!
//! Before run `i` executes, [`Memo::replay`] walks the memo with run `i`'s own
//! scheduler and rng through the same [`run_phases`]/`drive` loop the
//! VM uses; only the stretch executor differs. The walk consumes the rng
//! exactly as the run would, so it makes the run's decisions. If it
//! reaches a recorded run end, the run's result is known without
//! executing it. On any miss — an unrecorded switch, a stretch recorded
//! only part of the way — the run executes on the VM and is recorded.
//!
//! Program-visible randomness (`select` order, `time.After` and
//! `context.WithTimeout` jitter) draws from the run rng, whose state
//! depends on every pick, not only on the switches; timers and sleepers
//! fire at decision points, which depend on quantum boundaries. A
//! stretch that draws or arms one is *opaque* from that step on: the
//! record stops there, and every walk that needs to pass it executes.

use crate::sched::RunSched;
use crate::value::Gid;
use crate::vm::{run_phases, Exec, RunCounters, RunError, RunResult, Status, VmOptions};
use racedet::FastBuildHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The null index of the memo's arenas.
const NONE: u32 = u32::MAX;

/// The most switches one campaign's memo records. Memos that outgrow it
/// hold campaigns whose runs are nearly all distinct, which replay
/// almost nothing; the cap keeps a memo near a third of a megabyte
/// (see DESIGN.md).
const MAX_NODES: usize = 1 << 11;

/// One context switch and the stretch that follows it.
struct Node {
    /// Steps below this are recorded: every status change the stretch
    /// makes before it is in the event list. A stretch that ended has
    /// ended at `upto - 1`.
    upto: u32,
    /// The stretch's status changes, in order (a list in
    /// [`Memo::events`]).
    first: u32,
    last: u32,
    /// The recorded run that ended in this stretch ([`Memo::ends`]).
    end: u32,
    /// The stretch ended at `upto - 1`: its goroutine parked or exited,
    /// or the run failed.
    stop: bool,
    /// The stretch ended by failing the run.
    fatal: bool,
    /// The stretch drew from the run rng or armed a timer at step
    /// `upto`: nothing from there on is recorded or can be.
    opaque: bool,
}

impl Node {
    fn new(step: u32) -> Self {
        Node {
            upto: step,
            first: NONE,
            last: NONE,
            end: NONE,
            stop: false,
            fatal: false,
            opaque: false,
        }
    }
}

/// A status change: goroutine `gid` took `status` at `step` (a `gid`
/// one past the goroutines so far is a spawn).
struct Event {
    step: u32,
    gid: u32,
    next: u32,
    status: Status,
}

/// What a recorded run produced that a replay reports.
struct RunEnd {
    steps: u64,
    sig: u64,
    counters: RunCounters,
}

/// The record of one campaign's runs: index-linked arenas of switch
/// nodes, status changes and run ends. Node 0 is the root: the run
/// before its first switch.
struct Tree {
    nodes: Vec<Node>,
    /// `(parent, step, gid)` → the node of that switch.
    children: HashMap<(u32, u32, u32), u32, FastBuildHasher>,
    events: Vec<Event>,
    ends: Vec<RunEnd>,
}

/// The schedule memo of one campaign (one program, test and set of VM
/// options; only the seed varies), owned by the campaign's VM and
/// dropped with it.
pub(crate) struct Memo {
    tree: Tree,
    /// Walk scratch: the walked run's scheduling state (built on the
    /// first walk) and goroutine statuses.
    sched: Option<RunSched>,
    status: Vec<Status>,
    /// The nodes of the switches the last walk entered, in order: a run
    /// that executes after a miss makes the same switches up to the
    /// miss, so its record follows these without a lookup.
    trail: Vec<u32>,
    /// The node of the recorded run's current stretch (`NONE` when the
    /// run is not recorded, or no longer: it reached an opaque step).
    at: u32,
    /// Switches the recorded run has made.
    depth: usize,
    /// Inside a stretch of the recorded run: status changes are noted.
    live: bool,
    /// Status changes of `at` before this step are already recorded.
    from: u32,
}

impl Memo {
    /// An empty memo that records nothing.
    pub(crate) fn new() -> Self {
        Memo {
            tree: Tree {
                nodes: Vec::new(),
                children: HashMap::default(),
                events: Vec::new(),
                ends: Vec::new(),
            },
            sched: None,
            status: Vec::new(),
            trail: Vec::new(),
            at: NONE,
            depth: 0,
            live: false,
            from: 0,
        }
    }

    /// Records the run about to execute.
    pub(crate) fn record(&mut self) {
        if self.tree.nodes.is_empty() {
            self.tree.nodes.push(Node::new(0));
        }
        self.at = 0;
        self.depth = 0;
        self.live = false;
    }

    /// The VM starts a stretch of `gid` at `step`; `switched` marks a
    /// context switch, which moves the record to that switch's node.
    #[inline]
    pub(crate) fn begin(&mut self, step: u64, gid: Gid, switched: bool) {
        if self.at == NONE {
            return;
        }
        if switched {
            let node = match self.trail.get(self.depth) {
                Some(&n) => {
                    debug_assert_eq!(
                        self.tree.children.get(&(self.at, step as u32, gid as u32)),
                        Some(&n),
                        "the run left its walk's trail"
                    );
                    n
                }
                None => match self.child(step, gid) {
                    Some(n) => n,
                    None => {
                        self.at = NONE;
                        return;
                    }
                },
            };
            self.depth += 1;
            let node_ref = &self.tree.nodes[node as usize];
            if node_ref.opaque {
                self.at = NONE;
                return;
            }
            self.at = node;
            self.from = node_ref.upto;
        }
        self.live = true;
    }

    /// The child of `at` for a switch to `gid` at `step`, added if new;
    /// `None` when the memo is full or the step is out of range.
    fn child(&mut self, step: u64, gid: Gid) -> Option<u32> {
        let (Ok(step), Ok(gid)) = (u32::try_from(step), u32::try_from(gid)) else {
            return None;
        };
        let tree = &mut self.tree;
        let next = tree.nodes.len();
        match tree.children.entry((self.at, step, gid)) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(_) if next >= MAX_NODES => None,
            Entry::Vacant(e) => {
                e.insert(next as u32);
                tree.nodes.push(Node::new(step));
                Some(next as u32)
            }
        }
    }

    /// Goroutine `gid` took `status` at `step`.
    #[inline]
    pub(crate) fn note(&mut self, step: u64, gid: Gid, status: Status) {
        if !self.live || step < u64::from(self.from) {
            return;
        }
        let Ok(step) = u32::try_from(step) else {
            return self.opaque(step);
        };
        let events = &mut self.tree.events;
        let e = events.len() as u32;
        events.push(Event {
            step,
            gid: gid as u32,
            next: NONE,
            status,
        });
        let node = &mut self.tree.nodes[self.at as usize];
        match node.last {
            NONE => node.first = e,
            last => events[last as usize].next = e,
        }
        node.last = e;
    }

    /// The stretch's call returned at `step`; `stopped` when its
    /// goroutine can run no further (or the run failed, `fatal`).
    #[inline]
    pub(crate) fn end(&mut self, step: u64, stopped: bool, fatal: bool) {
        if !self.live {
            return;
        }
        // A step past the arenas' range ends the record like an opaque
        // one: no later run may extend this stretch either.
        let Ok(upto) = u32::try_from(step + 1) else {
            return self.opaque(step);
        };
        self.live = false;
        let node = &mut self.tree.nodes[self.at as usize];
        node.upto = node.upto.max(upto);
        if stopped {
            node.stop = true;
            node.fatal = fatal;
        }
    }

    /// The recorded stretch drew from the run rng or armed a timer or
    /// sleeper at `step`: the record ends before it, and the run is
    /// recorded no further.
    pub(crate) fn opaque(&mut self, step: u64) {
        if !self.live {
            return;
        }
        let node = &mut self.tree.nodes[self.at as usize];
        node.opaque = true;
        node.stop = false;
        node.upto = node.upto.min(u32::try_from(step).unwrap_or(u32::MAX));
        self.live = false;
        self.at = NONE;
    }

    /// The recorded run ended with `r`: its node keeps the result.
    pub(crate) fn finish(&mut self, r: &RunResult) {
        if self.at == NONE {
            return;
        }
        let tree = &mut self.tree;
        let node = &mut tree.nodes[self.at as usize];
        if node.end == NONE {
            node.end = tree.ends.len() as u32;
            tree.ends.push(RunEnd {
                steps: r.steps,
                sig: r.schedule_sig,
                counters: r.counters,
            });
        }
        self.at = NONE;
    }

    /// Replays the run `opts` describes, if an earlier run of the
    /// campaign executed its interleaving: the result that run would
    /// give, without its races, error, failures and output (the run
    /// that recorded it reported those already). `None` when the run
    /// must execute.
    pub(crate) fn replay(&mut self, opts: &VmOptions, has_init: bool) -> Option<RunResult> {
        self.trail.clear();
        if self.tree.nodes.is_empty() {
            return None;
        }
        let sched = match &mut self.sched {
            Some(s) => {
                s.reset(&opts.policy, opts.seed);
                s
            }
            None => self.sched.insert(RunSched::new(&opts.policy, opts.seed)),
        };
        self.status.clear();
        let tree = &self.tree;
        let mut walk = Walk {
            tree,
            sched,
            status: &mut self.status,
            trail: &mut self.trail,
            steps: 0,
            limits: (opts.max_steps, opts.drain_steps),
            has_init,
            fatal: false,
            missed: false,
            node: 0,
            event: NONE,
        };
        run_phases(&mut walk, |w| Some(w.spawn()));
        let end = tree.ends.get(tree.nodes[walk.node as usize].end as usize)?;
        if walk.missed || end.steps != walk.steps {
            return None;
        }
        debug_assert_eq!(end.sig, walk.sched.sig, "replayed signature");
        let points = walk.sched.points;
        Some(RunResult {
            races: Vec::new(),
            error: None,
            steps: end.steps,
            output: String::new(),
            test_failures: Vec::new(),
            schedule_sig: end.sig,
            sched_points: points,
            counters: RunCounters {
                sched_points: points,
                ..end.counters
            },
        })
    }
}

/// A run replayed through `drive` from the memo's record.
struct Walk<'a> {
    tree: &'a Tree,
    sched: &'a mut RunSched,
    status: &'a mut Vec<Status>,
    trail: &'a mut Vec<u32>,
    steps: u64,
    limits: (u64, u64),
    has_init: bool,
    fatal: bool,
    /// The walk needed something the memo has not recorded.
    missed: bool,
    /// The node of the current stretch and its next unapplied event.
    node: u32,
    event: u32,
}

impl Walk<'_> {
    fn miss(&mut self) {
        self.missed = true;
        self.fatal = true;
    }

    fn spawn(&mut self) -> Gid {
        self.status.push(Status::Runnable);
        self.status.len() - 1
    }
}

impl Exec for Walk<'_> {
    fn sched(&mut self) -> &mut RunSched {
        self.sched
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn limits(&self) -> (u64, u64) {
        self.limits
    }

    fn goroutines(&self) -> usize {
        self.status.len()
    }

    fn status(&self, g: Gid) -> Status {
        self.status[g]
    }

    fn fatal(&self) -> bool {
        self.fatal
    }

    fn set_fatal(&mut self, _: RunError) {
        self.fatal = true;
    }

    fn deadlock(&mut self) {
        self.fatal = true;
    }

    fn spawn_init(&mut self) -> Option<Gid> {
        self.has_init.then(|| self.spawn())
    }

    fn stretch(&mut self, gid: Gid, quantum: u64, budget: u64, switched: bool) {
        let tree = self.tree;
        if switched {
            let (Ok(step), Ok(gid)) = (u32::try_from(self.steps), u32::try_from(gid)) else {
                return self.miss();
            };
            match tree.children.get(&(self.node, step, gid)) {
                Some(&n) => {
                    self.node = n;
                    self.event = tree.nodes[n as usize].first;
                    self.trail.push(n);
                }
                None => return self.miss(),
            }
        }
        let node = &tree.nodes[self.node as usize];
        let upto = u64::from(node.upto);
        let target = self.steps + quantum.min(budget - self.steps);
        // The call returns at the stretch's recorded end if it comes
        // first, else after its quantum — if the record reaches that far.
        let stop = node.stop && upto <= target + 1;
        let at = if stop { upto - 1 } else { target };
        if at < self.steps || (!stop && at >= upto) {
            return self.miss();
        }
        while let Some(e) = tree.events.get(self.event as usize) {
            if u64::from(e.step) > at {
                break;
            }
            match self.status.get_mut(e.gid as usize) {
                Some(s) => *s = e.status,
                None => self.status.push(e.status),
            }
            self.event = e.next;
        }
        self.steps = at;
        self.fatal = stop && node.fatal;
    }
}
