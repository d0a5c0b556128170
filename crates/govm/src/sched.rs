//! Schedule-exploration policies (§4.4.1).
//!
//! Dr.Fix's reproduce and validate steps run each test under many
//! schedules; a race the scheduler never exposes is a false "fixed".
//! This module makes the exploration strategy a first-class component
//! of the VM, with two policies:
//!
//! - [`SchedulePolicy::Random`] — the original uniform-random scheduler:
//!   at every scheduling point, pick a runnable goroutine uniformly and
//!   run it for a uniform quantum. Bit-compatible with the pre-refactor
//!   VM for identical seeds.
//! - [`SchedulePolicy::Pct`] — a PCT-style priority scheduler
//!   (Burckhardt et al., ASPLOS 2010): each goroutine gets a random
//!   priority, the highest-priority runnable goroutine always runs, and
//!   `depth` priority-change points (drawn uniformly over an instruction
//!   `budget`) demote the running goroutine, forcing the rare
//!   interleavings uniform sampling takes many schedules to reach.
//!
//! Random stays as the oracle's policy next to PCT, the explorer: PCT
//! exposes every race of the `schedules_to_expose` corpus at a median of
//! one schedule, where uniform sampling needs 3–26.
//!
//! Every run also folds its scheduling decisions into a **schedule
//! signature** (a hash of its context-switch sequence, exposed as
//! [`crate::RunResult::schedule_sig`]). Two runs with the same signature
//! switched goroutines at the same instruction counts; they executed
//! the same interleaving unless the program drew from the run rng
//! (`select` order, timer jitter), which the signature does not see. So
//! [`crate::run_test_many`]'s early exit on repeated signatures is a
//! saturation heuristic, and its per-campaign schedule memo keys on
//! the switches themselves and stops wherever the program draws.

use crate::value::Gid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64: the standard 64-bit finalizing mixer (Steele et al.).
///
/// Used both to derive statistically independent per-run seeds from one
/// base seed (see [`derive_seed`]) and to seed the policies' own
/// priority streams.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The VM seed for run `i` of a campaign with base seed `base`:
/// `splitmix64(base ⊕ splitmix64(i))`. Per-run seeds are statistically
/// independent, and campaigns with nearby base seeds share no
/// schedules.
pub fn derive_seed(base: u64, i: u64) -> u64 {
    splitmix64(base ^ splitmix64(i))
}

/// One scheduling decision: which goroutine runs next, and for how many
/// instructions before the scheduler is consulted again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// The goroutine to run.
    pub gid: Gid,
    /// Its quantum (clamped to at least 1 by the VM).
    pub quantum: u64,
}

/// Declarative policy configuration, carried by [`crate::VmOptions`],
/// [`crate::TestConfig`] and the pipeline configs. The VM turns it
/// into a per-run scheduling engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Uniform-random goroutine and quantum — the pre-refactor default.
    #[default]
    Random,
    /// PCT-style priority scheduling with `depth` priority-change points
    /// drawn uniformly over the first `budget` instructions of the run.
    Pct {
        /// Number of priority-change points per run (the paper's *d*).
        depth: u32,
        /// Instruction window the change points are drawn from.
        budget: u64,
    },
}

/// Default number of priority-change points for [`SchedulePolicy::pct`].
pub const PCT_DEFAULT_DEPTH: u32 = 3;

/// Default change-point window for [`SchedulePolicy::pct`] — generous
/// for the corpus programs (tens to a few thousand instructions).
pub const PCT_DEFAULT_BUDGET: u64 = 2048;

impl SchedulePolicy {
    /// The PCT policy with default depth and budget.
    pub fn pct() -> Self {
        SchedulePolicy::Pct {
            depth: PCT_DEFAULT_DEPTH,
            budget: PCT_DEFAULT_BUDGET,
        }
    }

    /// Parses a policy spec: `random`, `pct`, `pct:<depth>` or
    /// `pct:<depth>:<budget>` (case-insensitive). Returns `None` for
    /// anything else.
    pub fn parse(spec: &str) -> Option<Self> {
        let s = spec.trim().to_ascii_lowercase();
        if s == "random" || s == "uniform" {
            return Some(SchedulePolicy::Random);
        }
        let mut parts = s.split(':');
        if parts.next()? != "pct" {
            return None;
        }
        let depth = match parts.next() {
            None => PCT_DEFAULT_DEPTH,
            Some(d) => d.parse().ok()?,
        };
        let budget = match parts.next() {
            None => PCT_DEFAULT_BUDGET,
            Some(b) => b.parse().ok()?,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(SchedulePolicy::Pct { depth, budget })
    }

    /// Short label, e.g. `pct(d=3,b=2048)`.
    pub fn label(&self) -> String {
        match self {
            SchedulePolicy::Random => "random".to_owned(),
            SchedulePolicy::Pct { depth, budget } => format!("pct(d={depth},b={budget})"),
        }
    }
}

// ------------------------------------------------------------- engines

/// Maximum preemption quantum of [`SchedulePolicy::Random`]
/// (instructions between forced yields).
const PREEMPT_MAX: u64 = 24;

/// A run's scheduling engine, built from its policy and seed.
enum Engine {
    /// Uniform goroutine, uniform quantum in `1..=PREEMPT_MAX`, drawn
    /// from the run rng: the pick, then the quantum, the pre-refactor
    /// draw order that keeps old seeds bit-compatible.
    Random,
    /// PCT with its own seed-derived rng, so its bookkeeping never
    /// perturbs the program-visible random stream.
    Pct(PctScheduler),
}

/// PCT-style priority scheduler.
///
/// Priorities live in two disjoint bands: initial priorities are drawn
/// in a high band, demotions assign strictly decreasing values from a
/// low band, so a demoted goroutine ranks below every goroutine that has
/// not been demoted, and earlier demotions rank above later ones — the
/// PCT priority order. The engine keeps its own seed-derived rng so its
/// draws never perturb the program-visible random stream.
struct PctScheduler {
    /// Change points (absolute instruction counts), ascending.
    change_points: Vec<u64>,
    next_cp: usize,
    /// Lazily assigned priority per goroutine id.
    priorities: Vec<Option<u64>>,
    /// Next demotion value (strictly decreasing).
    next_low: u64,
    /// The goroutine chosen at the previous scheduling point — the one a
    /// crossed change point demotes.
    last: Option<Gid>,
    prio_rng: StdRng,
}

/// High band floor for initial PCT priorities.
const PCT_HIGH_BAND: u64 = 1 << 32;

impl PctScheduler {
    fn new(seed: u64, depth: u32, budget: u64) -> Self {
        let mut prio_rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x9C7_5EED));
        let budget = budget.max(1);
        let mut change_points: Vec<u64> =
            (0..depth).map(|_| prio_rng.gen_range(1..=budget)).collect();
        change_points.sort_unstable();
        PctScheduler {
            change_points,
            next_cp: 0,
            priorities: Vec::new(),
            next_low: PCT_HIGH_BAND - 1,
            last: None,
            prio_rng,
        }
    }

    fn priority(&mut self, gid: Gid) -> u64 {
        if gid >= self.priorities.len() {
            self.priorities.resize(gid + 1, None);
        }
        *self.priorities[gid]
            .get_or_insert_with(|| PCT_HIGH_BAND + self.prio_rng.gen_range(0..PCT_HIGH_BAND))
    }

    /// Chooses the next goroutine and quantum at instruction count
    /// `steps` from the runnable set (non-empty, ascending by id).
    fn pick(&mut self, runnable: &[Gid], steps: u64) -> Decision {
        // Crossed change points demote whoever was running across them.
        while self.next_cp < self.change_points.len() && steps >= self.change_points[self.next_cp] {
            if let Some(last) = self.last {
                if last >= self.priorities.len() {
                    self.priorities.resize(last + 1, None);
                }
                self.priorities[last] = Some(self.next_low);
                self.next_low = self.next_low.saturating_sub(1);
            }
            self.next_cp += 1;
        }
        // Highest priority wins; ties (impossible in practice) break
        // towards the lower gid for determinism.
        let gid = *runnable
            .iter()
            .max_by_key(|&&g| (self.priority(g), std::cmp::Reverse(g)))
            .expect("runnable set is non-empty");
        self.last = Some(gid);
        // Run until the next change point (or a long stretch when none
        // remain) — the chosen goroutine yields earlier if it blocks.
        let quantum = match self.change_points.get(self.next_cp) {
            Some(&cp) if cp > steps => (cp - steps).min(4096),
            _ => 4096,
        };
        Decision { gid, quantum }
    }
}

/// One run's scheduling state: the policy's engine, the run's seeded
/// rng, the signature fold, the decision count and the runnable-set
/// buffer. The VM and the schedule-memo walk each drive a run through
/// one of these, so both make the same decisions from the same seed.
pub(crate) struct RunSched {
    engine: Engine,
    /// The run's seeded rng: drawn by the random engine and,
    /// on the VM, by the program (`select` order, timer jitter).
    pub(crate) rng: StdRng,
    /// Running schedule-signature fold.
    pub(crate) sig: u64,
    /// Scheduling decisions made so far.
    pub(crate) points: u64,
    /// The goroutine the previous decision ran (for switch detection).
    last: Option<Gid>,
    /// The runnable set at the current decision, ascending.
    pub(crate) runnable: Vec<Gid>,
}

impl RunSched {
    /// The state at the start of a run with seed `seed`.
    pub(crate) fn new(policy: &SchedulePolicy, seed: u64) -> Self {
        RunSched {
            engine: match *policy {
                SchedulePolicy::Random => Engine::Random,
                SchedulePolicy::Pct { depth, budget } => {
                    Engine::Pct(PctScheduler::new(seed, depth, budget))
                }
            },
            rng: StdRng::seed_from_u64(seed),
            sig: SIGNATURE_SEED,
            points: 0,
            last: None,
            runnable: Vec::new(),
        }
    }

    /// Starts a new run, keeping the runnable-set buffer.
    pub(crate) fn reset(&mut self, policy: &SchedulePolicy, seed: u64) {
        let runnable = std::mem::take(&mut self.runnable);
        *self = RunSched {
            runnable,
            ..RunSched::new(policy, seed)
        };
    }

    /// Picks the next goroutine from [`RunSched::runnable`] at
    /// instruction count `steps`. Returns the decision and whether it is
    /// a context switch.
    pub(crate) fn decide(&mut self, steps: u64) -> (Decision, bool) {
        let decision = match &mut self.engine {
            Engine::Random => {
                let gid = self.runnable[self.rng.gen_range(0..self.runnable.len())];
                let quantum = self.rng.gen_range(1..=PREEMPT_MAX);
                Decision { gid, quantum }
            }
            Engine::Pct(pct) => pct.pick(&self.runnable, steps),
        };
        debug_assert!(
            self.runnable.contains(&decision.gid),
            "scheduler picked a non-runnable goroutine"
        );
        // The signature records *context switches* only: re-picking the
        // goroutine that is already running — whatever the quantum
        // boundaries — leaves the interleaving unchanged, so folding
        // those decisions would make identical interleavings hash
        // differently and defeat campaign dedup.
        let switched = self.last != Some(decision.gid);
        if switched {
            self.sig = fold_signature(self.sig, decision.gid, steps);
            self.last = Some(decision.gid);
        }
        self.points += 1;
        (decision, switched)
    }
}

/// Folds one scheduling decision into a running schedule signature.
///
/// The signature is an FNV-1a-style fold over the `(goroutine, step)`
/// context-switch sequence: two runs with equal signatures (barring a
/// hash collision) switched to the same goroutines at the same
/// instruction counts. They can still differ where the program draws
/// from the run rng, which the signature does not record.
pub fn fold_signature(sig: u64, gid: Gid, steps: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = sig ^ (gid as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_mul(PRIME);
    h ^= steps;
    h.wrapping_mul(PRIME)
}

/// Starting value for [`fold_signature`] chains.
pub const SIGNATURE_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            SchedulePolicy::parse("random"),
            Some(SchedulePolicy::Random)
        );
        assert_eq!(SchedulePolicy::parse("sweep"), None);
        assert_eq!(
            SchedulePolicy::parse("pct"),
            Some(SchedulePolicy::Pct {
                depth: PCT_DEFAULT_DEPTH,
                budget: PCT_DEFAULT_BUDGET
            })
        );
        assert_eq!(
            SchedulePolicy::parse("pct:7:512"),
            Some(SchedulePolicy::Pct {
                depth: 7,
                budget: 512
            })
        );
        assert_eq!(SchedulePolicy::parse("pct:seven"), None);
        assert_eq!(SchedulePolicy::parse("fifo"), None);
        assert_eq!(SchedulePolicy::parse("pct:1:2:3"), None);
    }

    #[test]
    fn pct_runs_highest_priority_and_demotes_at_change_points() {
        let mut eng = PctScheduler::new(42, 2, 100);
        let first = eng.pick(&[0, 1, 2], 0);
        // Before any change point the same goroutine keeps winning.
        let again = eng.pick(&[0, 1, 2], 1);
        assert_eq!(first.gid, again.gid);
        // After the whole budget every change point has fired; the
        // original winner has been demoted below the others.
        let later = eng.pick(&[0, 1, 2], 200);
        assert_ne!(later.gid, first.gid, "change points must demote");
    }

    #[test]
    fn random_draws_the_pick_then_the_quantum_from_the_run_rng() {
        let mut sched = RunSched::new(&SchedulePolicy::Random, 7);
        let runnable: Vec<Gid> = vec![0, 3, 5];
        sched.runnable = runnable.clone();
        let mut rng = StdRng::seed_from_u64(7);
        for steps in 0..32 {
            let gid = runnable[rng.gen_range(0..runnable.len())];
            let quantum = rng.gen_range(1..=PREEMPT_MAX);
            assert_eq!(sched.decide(steps).0, Decision { gid, quantum });
        }
        // Nothing else drew: the program's next draw is unchanged.
        assert_eq!(sched.rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn signature_fold_distinguishes_order() {
        let a = fold_signature(fold_signature(SIGNATURE_SEED, 0, 5), 1, 9);
        let b = fold_signature(fold_signature(SIGNATURE_SEED, 1, 5), 0, 9);
        assert_ne!(a, b);
        assert_eq!(
            a,
            fold_signature(fold_signature(SIGNATURE_SEED, 0, 5), 1, 9)
        );
    }
}
