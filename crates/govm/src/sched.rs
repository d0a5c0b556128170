//! Pluggable schedule-exploration policies (§4.4.1).
//!
//! Dr.Fix's reproduce and validate steps run each test under many
//! schedules; a race the scheduler never exposes is a false "fixed".
//! This module makes the exploration strategy a first-class, pluggable
//! component of the VM:
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
//! - [`SchedulePolicy::Sweep`] — a quantum sweep: each run fixes one
//!   preemption quantum from a ladder (chosen by the run seed), so a
//!   campaign covers both fine-grained interleavings (quantum 1) and
//!   long uninterrupted stretches in few runs.
//!
//! Every run also folds its scheduling decisions into a **schedule
//! signature** (a hash of the preemption-point sequence, exposed as
//! [`crate::RunResult::schedule_sig`]). Two runs with the same signature
//! executed the same interleaving, so
//! [`crate::run_test_many`] can stop a campaign early once the schedule
//! space saturates instead of burning instructions on replays.
//!
//! The built-in policies cover the paper's validation loop and the
//! `schedules_to_expose` bench.

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

/// A per-run scheduling engine.
///
/// The VM calls [`Scheduler::pick`] at every scheduling point with the
/// runnable set (non-empty, ascending by goroutine id) and the current
/// instruction count. Engines may draw from the VM's seeded `rng` (the
/// random and sweep policies do — exactly matching the pre-refactor
/// draw sequence) or keep their own derived streams (PCT does, so its
/// bookkeeping never perturbs program-visible randomness).
pub(crate) trait Scheduler {
    /// Chooses the next goroutine and quantum.
    fn pick(&mut self, rng: &mut StdRng, runnable: &[Gid], steps: u64) -> Decision;
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
    /// Per-run fixed preemption quantum from [`SWEEP_QUANTA`].
    Sweep,
}

/// The quantum ladder [`SchedulePolicy::Sweep`] cycles through, one rung
/// per run seed: from instruction-level interleaving to long stretches.
pub const SWEEP_QUANTA: [u64; 8] = [1, 2, 3, 5, 8, 16, 32, 64];

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

    /// Instantiates the per-run engine for a run with seed `seed` and
    /// the VM's maximum preemption quantum `preempt_max`.
    pub(crate) fn build(&self, seed: u64, preempt_max: u32) -> Box<dyn Scheduler> {
        match *self {
            SchedulePolicy::Random => Box::new(RandomScheduler { preempt_max }),
            SchedulePolicy::Pct { depth, budget } => {
                Box::new(PctScheduler::new(seed, depth, budget))
            }
            SchedulePolicy::Sweep => {
                let quantum = SWEEP_QUANTA[(splitmix64(seed) % SWEEP_QUANTA.len() as u64) as usize];
                Box::new(SweepScheduler { quantum })
            }
        }
    }

    /// Parses a policy spec: `random`, `sweep`, `pct`, `pct:<depth>` or
    /// `pct:<depth>:<budget>` (case-insensitive). Returns `None` for
    /// anything else.
    pub fn parse(spec: &str) -> Option<Self> {
        let s = spec.trim().to_ascii_lowercase();
        if s == "random" || s == "uniform" {
            return Some(SchedulePolicy::Random);
        }
        if s == "sweep" {
            return Some(SchedulePolicy::Sweep);
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

    /// Reads the `DRFIX_POLICY` environment variable, defaulting to
    /// [`SchedulePolicy::Random`] when unset or unparseable.
    pub fn from_env() -> Self {
        std::env::var("DRFIX_POLICY")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Short label, e.g. `pct(d=3,b=2048)`.
    pub fn label(&self) -> String {
        match self {
            SchedulePolicy::Random => "random".to_owned(),
            SchedulePolicy::Pct { depth, budget } => format!("pct(d={depth},b={budget})"),
            SchedulePolicy::Sweep => "sweep".to_owned(),
        }
    }
}

// ------------------------------------------------------------- engines

/// The pre-refactor scheduler: uniform goroutine, uniform quantum.
///
/// The two `gen_range` draws (pick, then quantum) happen in exactly the
/// pre-refactor order against the shared VM rng, which is what keeps
/// old seeds bit-compatible.
struct RandomScheduler {
    preempt_max: u32,
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, rng: &mut StdRng, runnable: &[Gid], _steps: u64) -> Decision {
        let gid = runnable[rng.gen_range(0..runnable.len())];
        let quantum = rng.gen_range(1..=self.preempt_max as u64);
        Decision { gid, quantum }
    }
}

/// Uniform goroutine pick with a per-run fixed quantum.
struct SweepScheduler {
    quantum: u64,
}

impl Scheduler for SweepScheduler {
    fn pick(&mut self, rng: &mut StdRng, runnable: &[Gid], _steps: u64) -> Decision {
        let gid = runnable[rng.gen_range(0..runnable.len())];
        Decision {
            gid,
            quantum: self.quantum,
        }
    }
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
}

impl Scheduler for PctScheduler {
    fn pick(&mut self, _rng: &mut StdRng, runnable: &[Gid], steps: u64) -> Decision {
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

/// Folds one scheduling decision into a running schedule signature.
///
/// The signature is an FNV-1a-style fold over the `(goroutine, step)`
/// preemption-point sequence: two runs with equal signatures made the
/// same decisions at the same instruction counts, i.e. executed the same
/// interleaving of the same program.
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

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            SchedulePolicy::parse("random"),
            Some(SchedulePolicy::Random)
        );
        assert_eq!(SchedulePolicy::parse("SWEEP"), Some(SchedulePolicy::Sweep));
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
        let mut rng = StdRng::seed_from_u64(0);
        let policy = SchedulePolicy::Pct {
            depth: 2,
            budget: 100,
        };
        let mut eng = policy.build(42, 24);
        let first = eng.pick(&mut rng, &[0, 1, 2], 0);
        // Before any change point the same goroutine keeps winning.
        let again = eng.pick(&mut rng, &[0, 1, 2], 1);
        assert_eq!(first.gid, again.gid);
        // After the whole budget every change point has fired; the
        // original winner has been demoted below the others.
        let later = eng.pick(&mut rng, &[0, 1, 2], 200);
        assert_ne!(later.gid, first.gid, "change points must demote");
    }

    #[test]
    fn sweep_quantum_is_fixed_per_run_and_varies_across_runs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut quanta = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let mut eng = SchedulePolicy::Sweep.build(seed, 24);
            let d1 = eng.pick(&mut rng, &[0, 1], 0);
            let d2 = eng.pick(&mut rng, &[0, 1], 10);
            assert_eq!(d1.quantum, d2.quantum, "quantum fixed within a run");
            assert!(SWEEP_QUANTA.contains(&d1.quantum));
            quanta.insert(d1.quantum);
        }
        assert!(quanta.len() >= 4, "seeds must cover the ladder: {quanta:?}");
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
