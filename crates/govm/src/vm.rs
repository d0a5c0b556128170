//! The virtual machine: a deterministic, seeded, preemptive green-thread
//! interpreter with race-detector hooks on every cell access.
//!
//! One OS thread runs everything. Goroutines are interleaved by a seeded
//! scheduler that preempts after a random quantum, so each seed explores
//! a different schedule — re-running a test under many seeds reproduces
//! `go test -race -count=N` (§4.4.1 of the paper).

use crate::bytecode::{Program, TypeHint};
use crate::memo::Memo;
use crate::natives::{self, NativeMethod};
use crate::sched::{RunSched, SchedulePolicy};
use crate::value::*;
use racedet::{
    DetStats, Detector, FastPath, Frame as RFrame, GoroutineInfo, RaceReport, RawRace, StackGen,
    VectorClock,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::rc::Rc;

/// Which exec loop interprets the program — now only the stack loop.
///
/// A residue of the retired register tier: the frozen end-to-end
/// harness names [`VmOptions::tier`] and `PipelineConfig::vm_tier` in
/// struct literals, so the type keeps its single variant until the next
/// benchmark change deletes both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The stack-machine loop ([`Vm::run`]'s only exec loop).
    #[default]
    Stack,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Scheduler seed — each seed explores one interleaving.
    pub seed: u64,
    /// Hard instruction budget (a run exceeding it reports `StepLimit`).
    pub max_steps: u64,
    /// Extra budget to drain leftover goroutines after the root finishes.
    pub drain_steps: u64,
    /// Schedule-exploration policy (see [`crate::sched`]).
    pub policy: SchedulePolicy,
    /// Lock-aware detector caching + batched stack interning (on by
    /// default). Turning it off never changes observable behaviour —
    /// races, schedule signatures and the logical counters are
    /// bit-identical either way (pinned by tests); it exists for
    /// differential testing.
    pub sync_epoch_cache: bool,
    /// Shadow-state lifecycle management (on by default): exited
    /// goroutines retire their detector clock slot, and every few
    /// exits the VM sweeps dead shadow state at the live frontier.
    /// Purely physical, exactly like `sync_epoch_cache` — races, bug
    /// hashes, schedule signatures and logical counters are
    /// bit-identical with it off (pinned by tests); only memory and
    /// the `ShadowStats` bookkeeping move.
    pub shadow_gc: bool,
    /// Always [`Tier::Stack`]. Kept only because the frozen end-to-end
    /// harness sets it in a struct literal; the next benchmark change
    /// deletes it.
    pub tier: Tier,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            seed: 0,
            max_steps: 2_000_000,
            drain_steps: 100_000,
            policy: SchedulePolicy::Random,
            sync_epoch_cache: true,
            shadow_gc: true,
            tier: Tier::Stack,
        }
    }
}

/// Why a run ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A goroutine panicked.
    Panic(String),
    /// All goroutines blocked.
    Deadlock(String),
    /// The instruction budget was exhausted.
    StepLimit,
    /// An internal interpreter error.
    Internal(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic(m) => write!(f, "panic: {m}"),
            RunError::Deadlock(m) => {
                write!(
                    f,
                    "fatal error: all goroutines are asleep - deadlock! ({m})"
                )
            }
            RunError::StepLimit => write!(f, "step limit exceeded (possible livelock)"),
            RunError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// Deterministic hot-path cost counters for one run.
///
/// Every field is an exact function of the executed schedule — nothing
/// here depends on wall-clock, addresses or hashing seeds — so a seed
/// replays to bit-identical counters on any machine. The tier-1 goldens
/// (`tests/hotpath_golden.rs`, `tests/lockregime_golden.rs`,
/// `tests/shadowgc_golden.rs`) pin every field exactly per campaign,
/// which is what makes hot-path regressions detectable without flaky
/// wall-clock thresholds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCounters {
    /// Instructions executed.
    pub vm_steps: u64,
    /// Scheduling decisions made.
    pub sched_points: u64,
    /// Stack identities the detector slow path (or goroutine creation)
    /// required. This is a *logical* count — one per slow event whether
    /// the snapshot was freshly built, served from the per-goroutine
    /// cache, or absorbed entirely by the detector's lock-aware owner
    /// cache — so it is independent of the caches and baselines never
    /// drift when caching improves. Physical rebuilds are
    /// `stack_snapshots - stack_cache_hits - det.sync_hits()`.
    pub stack_snapshots: u64,
    /// Memory accesses answered without a stack snapshot by the
    /// detector's same-epoch fast path (lock-aware cache hits are
    /// counted in `det.read_sync_hits`/`det.write_sync_hits` instead).
    pub snapshots_avoided: u64,
    /// Snapshot rebuilds avoided by the per-goroutine `(frame
    /// generation, pc)` interning cache on actual slow-path calls.
    pub stack_cache_hits: u64,
    /// Shadow states retired by the lifecycle GC (physical; zero with
    /// `shadow_gc` off).
    pub states_collected: u64,
    /// Detector clock slots handed from exited goroutines to later
    /// spawns (physical; zero with `shadow_gc` off).
    pub clock_slots_reclaimed: u64,
    /// High-water mark of the detector's estimated resident shadow
    /// bytes, sampled at every lifecycle checkpoint (goroutine exits
    /// and end of run). Campaign aggregation takes the max, not the
    /// sum — it is a gauge, not a counter.
    pub peak_shadow_bytes: u64,
    /// Vector-clock width at end of run (clock slots allocated; the
    /// width never shrinks, so end-of-run *is* the peak). With
    /// `shadow_gc` on this tracks peak *live* goroutines; off, total
    /// spawned. A gauge: campaigns aggregate by max.
    pub peak_clock_width: u64,
    /// Detector-side counters (events, fast hits, clock joins/allocs).
    pub det: DetStats,
}

impl RunCounters {
    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn accumulate(&mut self, other: &RunCounters) {
        self.vm_steps += other.vm_steps;
        self.sched_points += other.sched_points;
        self.stack_snapshots += other.stack_snapshots;
        self.snapshots_avoided += other.snapshots_avoided;
        self.stack_cache_hits += other.stack_cache_hits;
        self.states_collected += other.states_collected;
        self.clock_slots_reclaimed += other.clock_slots_reclaimed;
        self.peak_shadow_bytes = self.peak_shadow_bytes.max(other.peak_shadow_bytes);
        self.peak_clock_width = self.peak_clock_width.max(other.peak_clock_width);
        self.det.accumulate(&other.det);
    }
}

/// The result of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Data races detected, in report form.
    pub races: Vec<RaceReport>,
    /// Abnormal termination, if any.
    pub error: Option<RunError>,
    /// Instructions executed.
    pub steps: u64,
    /// Captured `fmt` output.
    pub output: String,
    /// Recorded test failures (`t.Errorf`, failed asserts).
    pub test_failures: Vec<String>,
    /// Hash of the preemption-point sequence this run executed: two runs
    /// of the same program with equal signatures took the same
    /// interleaving (see [`crate::sched::fold_signature`]).
    pub schedule_sig: u64,
    /// Scheduling decisions made during the run.
    pub sched_points: u64,
    /// Deterministic hot-path cost counters (see [`RunCounters`]).
    pub counters: RunCounters,
}

impl RunResult {
    /// `true` when the run saw no races, no errors and no test failures.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.error.is_none() && self.test_failures.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked,
    Done,
}

/// What to do when a parked goroutine's blocking operation is completed
/// by another goroutine.
#[derive(Debug)]
pub(crate) struct WakeAction {
    /// Values to pop from the goroutine's stack first.
    pub pops: usize,
    /// Values to push afterwards.
    pub push: Vec<Value>,
    /// Clock to acquire.
    pub acquire: Option<VectorClock>,
    /// Absolute pc to jump to (`None` = advance past the current op).
    pub jump_to: Option<usize>,
}

/// A parked `select`: the evaluated case data, kept until a case is ready.
#[derive(Debug)]
pub(crate) struct ParkedSelect {
    /// Cases in source order.
    pub cases: Vec<ParkedCase>,
}

/// One evaluated select case.
#[derive(Debug)]
pub(crate) enum ParkedCase {
    /// A pending send.
    Send {
        /// Channel (usize::MAX = nil).
        chan: ObjRef,
        /// Value to send.
        value: Value,
        /// Body pc.
        body: usize,
    },
    /// A pending receive.
    Recv {
        /// Channel (usize::MAX = nil).
        chan: ObjRef,
        /// Body pc.
        body: usize,
        /// Push the received value at the body.
        push_value: bool,
        /// Also push the `ok` flag.
        push_ok: bool,
    },
}

pub(crate) struct CallFrame {
    pub func: u32,
    pub pc: usize,
    pub locals: Vec<Addr>,
    pub upvals: Vec<Addr>,
    pub defers: Vec<(Value, Vec<Value>)>,
    /// Stack height at frame entry (restored on return).
    pub stack_base: usize,
    /// Set when the frame is unwinding through its defers.
    pub returning: Option<Value>,
}

pub(crate) struct Goroutine {
    pub frames: Vec<CallFrame>,
    pub stack: Vec<Value>,
    pub status: Status,
    /// Creation stacks (up to two ancestry levels), innermost first.
    pub creation: Vec<Vec<u32>>,
    pub wake: Option<WakeAction>,
    pub select: Option<ParkedSelect>,
    /// Step at which a `time.Sleep` expires.
    pub sleep_until: Option<u64>,
    /// Channel a plain send/receive is parked on.
    pub parked_on: Option<ObjRef>,
    /// Whether the parked receive wants the `ok` flag.
    pub parked_recv_comma_ok: bool,
    /// What the goroutine is blocked on (for deadlock messages).
    pub block_reason: &'static str,
    /// Callback target when this goroutine finishes (subtests).
    pub on_exit: Option<natives::OnExit>,
    /// Frame push/pop generation: bumped on every call, return and
    /// unwind, so `(depth_gen, top pc)` uniquely identifies this
    /// goroutine's exact call stack — the [`StackGen`] handed to the
    /// detector and the key of the interned snapshots below.
    pub depth_gen: u32,
    /// Interned snapshot: the materialised stack (frame ids, innermost
    /// first) of the most recent slow-path access. Within one
    /// `depth_gen` only element 0 (the top frame) can differ between
    /// stack generations, so a loop body that touches many source
    /// lines still reuses the whole outer stack and patches one id.
    pub snap: Vec<u32>,
    /// Exact generation `snap` is current for ([`StackGen::NONE`] =
    /// invalid).
    pub snap_gen: StackGen,
    /// `depth_gen` the outer part of `snap` was built at — top-patching
    /// is valid while this matches (u32::MAX = never built).
    pub snap_depth_gen: u32,
}

impl Goroutine {
    /// A runnable goroutine with no frames. Pre-sized: a fresh goroutine
    /// pushes a frame and operands within its first instructions, and
    /// the early `Vec` growth steps showed up in sync-heavy profiles.
    fn new() -> Self {
        Self::with_buffers(
            Vec::with_capacity(4),
            Vec::with_capacity(16),
            Vec::new(),
            Vec::new(),
        )
    }

    /// A runnable goroutine with no frames, built around empty buffers.
    fn with_buffers(
        frames: Vec<CallFrame>,
        stack: Vec<Value>,
        creation: Vec<Vec<u32>>,
        snap: Vec<u32>,
    ) -> Self {
        Goroutine {
            frames,
            stack,
            status: Status::Runnable,
            creation,
            wake: None,
            select: None,
            sleep_until: None,
            parked_on: None,
            parked_recv_comma_ok: false,
            block_reason: "",
            on_exit: None,
            depth_gen: 0,
            snap,
            snap_gen: StackGen::NONE,
            snap_depth_gen: u32::MAX,
        }
    }

    /// A new runnable goroutine built around this one's buffers,
    /// emptied (frames and creation stacks salvaged into `spare`).
    fn recycle(mut self, spare: &mut Spare) -> Self {
        for f in self.frames.drain(..) {
            spare.put_frame(f);
        }
        for c in self.creation.drain(..) {
            spare.put_ids(c);
        }
        self.stack.clear();
        self.snap.clear();
        Self::with_buffers(self.frames, self.stack, self.creation, self.snap)
    }
}

/// Buffers that retired goroutines and returned frames leave behind,
/// handed out again before anything is allocated. [`Vm::reset`] fills
/// it with the whole goroutine table, so a reused VM allocates only
/// where a run outgrows every earlier one. Purely physical.
#[derive(Default)]
struct Spare {
    goroutines: Vec<Goroutine>,
    /// `locals` / `upvals` buffers.
    addrs: Vec<Vec<Addr>>,
    /// Creation-stack buffers.
    ids: Vec<Vec<u32>>,
    /// Call-argument buffers.
    args: Vec<Vec<Value>>,
    /// Deferred-call lists.
    defers: Vec<Vec<(Value, Vec<Value>)>>,
}

impl Spare {
    fn put_frame(&mut self, mut f: CallFrame) {
        self.put_addrs(f.locals);
        self.put_addrs(f.upvals);
        if f.defers.capacity() > 0 {
            f.defers.clear();
            self.defers.push(f.defers);
        }
    }

    fn put_addrs(&mut self, mut v: Vec<Addr>) {
        if v.capacity() > 0 {
            v.clear();
            self.addrs.push(v);
        }
    }

    fn put_ids(&mut self, mut v: Vec<u32>) {
        if v.capacity() > 0 {
            v.clear();
            self.ids.push(v);
        }
    }

    fn put_args(&mut self, mut v: Vec<Value>) {
        if v.capacity() > 0 {
            v.clear();
            self.args.push(v);
        }
    }
}

const UNBOUND: Addr = Addr::MAX;

/// Immutable per-program runtime tables: the interned string pool and
/// its reverse map, frame tables and native method ids.
///
/// Built once per [`Vm`]; a campaign keeps one VM for all of its runs
/// ([`Vm::reset`]), so the tables are built once per campaign.
/// Runtime-interned names layer on top per run, with ids continuing
/// past the pool.
#[derive(Debug)]
struct ProgContext {
    names: Vec<Rc<str>>,
    name_map: HashMap<Rc<str>, u32>,
    /// Interned stack frames: id → `(func, line)`. Frame identity is a
    /// static property of the program (every `(func, line)` pair is
    /// known from the line tables), so the whole table is built once
    /// per program and shared read-only by every run — snapshot
    /// resolution and [`StackGen`] derivation are pure array loads.
    frame_table: Vec<(u32, u32)>,
    /// Per-function `pc → frame id` tables.
    func_frames: Vec<Vec<u32>>,
    /// Pool name id → native method, the table behind id-indexed native
    /// dispatch: every method name the program can utter is resolved to
    /// a dense [`NativeMethod`] once, at context build, instead of by
    /// `&str` match on every call.
    pool_natives: Vec<Option<NativeMethod>>,
}

impl ProgContext {
    /// Interns `prog`'s string pool and stack-frame tables.
    fn new(prog: &Program) -> Self {
        let names: Vec<Rc<str>> = prog.pool.iter().map(|s| Rc::from(s.as_str())).collect();
        let name_map = names
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        // Enumerate every function's line table in pc order, interning
        // each distinct `(func, line)` pair on first encounter — the
        // same first-touch discipline the per-VM map used, made static.
        let mut frame_table: Vec<(u32, u32)> = Vec::new();
        let mut frame_map: HashMap<(u32, u32), u32, racedet::FastBuildHasher> = HashMap::default();
        let mut func_frames: Vec<Vec<u32>> = Vec::with_capacity(prog.funcs.len());
        for (fid, func) in prog.funcs.iter().enumerate() {
            let mut intern = |line: u32| -> u32 {
                *frame_map.entry((fid as u32, line)).or_insert_with(|| {
                    let id = frame_table.len() as u32;
                    frame_table.push((fid as u32, line));
                    id
                })
            };
            let mut tbl = Vec::with_capacity(func.lines.len().max(1));
            for &line in &func.lines {
                tbl.push(intern(line));
            }
            if tbl.is_empty() {
                // Line-table-less function: one synthetic line-0 frame.
                tbl.push(intern(0));
            }
            func_frames.push(tbl);
        }
        let pool_natives = prog
            .pool
            .iter()
            .map(|s| NativeMethod::from_name(s))
            .collect();
        ProgContext {
            names,
            name_map,
            frame_table,
            func_frames,
            pool_natives,
        }
    }

    /// Interned frame id for `(fid, pc)` (pc clamped into the line
    /// table, matching snapshot semantics).
    #[inline]
    fn frame_id_at(&self, fid: u32, pc: usize) -> u32 {
        let tbl = &self.func_frames[fid as usize];
        tbl[pc.min(tbl.len() - 1)]
    }
}

/// The virtual machine.
pub struct Vm<'p> {
    pub(crate) prog: &'p Program,
    pub(crate) heap: Heap,
    pub(crate) det: Detector,
    pub(crate) gos: Vec<Goroutine>,
    pub(crate) steps: u64,
    pub(crate) opts: VmOptions,
    pub(crate) globals: Vec<Addr>,
    /// Per-program tables (interned pool names, frame tables).
    ctx: ProgContext,
    /// Names interned at runtime, ids continuing past `ctx.names`.
    extra_names: Vec<Rc<str>>,
    extra_name_map: HashMap<Rc<str>, u32>,
    /// How many of `extra_names` survive [`Vm::reset`] (see
    /// [`Vm::keep_names`]).
    kept_names: usize,
    /// Buffers kept for reuse across goroutines, frames and runs.
    spare: Spare,
    /// Recycled method-value receiver boxes (see `Op::BindMethod`).
    /// The boxes themselves are the point: `Value::Method` stores its
    /// receiver boxed, and the pool exists to reuse those heap cells.
    #[allow(clippy::vec_box)]
    pub(crate) method_box_pool: Vec<Box<Value>>,
    /// Stack identities required so far (logical; see
    /// [`RunCounters::stack_snapshots`]).
    snapshots_taken: u64,
    /// Snapshot rebuilds avoided by the per-goroutine interning cache.
    stack_cache_hits: u64,
    /// Goroutine exits delivered to the detector (drives the periodic
    /// shadow-GC trigger; physical bookkeeping only).
    exits_seen: u64,
    /// High-water mark of the detector's estimated shadow bytes,
    /// sampled at lifecycle checkpoints.
    peak_shadow_bytes: u64,
    pub(crate) output: String,
    pub(crate) test_failures: Vec<String>,
    /// `(fire step, channel)` timers (context deadlines, `time.After`).
    pub(crate) timers: Vec<(u64, ObjRef)>,
    /// Goroutines currently carrying a `sleep_until` deadline. Purely
    /// an upper bound (a goroutine killed mid-sleep is never
    /// decremented) — it exists so the per-decision timer sweep can
    /// skip the all-goroutine scan in the common no-timers case.
    pub(crate) sleepers: u64,
    /// Lazily allocated never-ready channel for background `ctx.Done()`.
    pub(crate) never_chan: Option<ObjRef>,
    /// Lazily allocated global rand source.
    pub(crate) global_rand: Option<Value>,
    pub(crate) fatal: Option<RunError>,
    /// The run's scheduling state: the pluggable engine (see
    /// [`crate::sched`]), the seeded rng and the signature fold.
    pub(crate) sched: RunSched,
    /// The campaign's schedule memo, recording this run when its
    /// campaign asks (see [`crate::memo`]). Survives [`Vm::reset`].
    pub(crate) memo: Memo,
}

/// Internal control-flow signal from one instruction.
pub(crate) enum Flow {
    /// Continue with the next instruction.
    Next,
    /// Jump to absolute pc.
    Jump(usize),
    /// Frame stack changed (call pushed); leave pc management alone.
    Stay,
    /// Re-run this instruction later (goroutine parked).
    Park(&'static str),
    /// The current frame returned.
    Returned(Value),
    /// A panic started unwinding.
    Panic(String),
}

impl<'p> Vm<'p> {
    /// Creates a VM for `prog`, with the scheduling engine built from
    /// `opts.policy`.
    pub fn new(prog: &'p Program, opts: VmOptions) -> Self {
        let sched = RunSched::new(&opts.policy, opts.seed);
        let mut det = Detector::new();
        det.set_sync_cache(opts.sync_epoch_cache);
        let mut vm = Vm {
            prog,
            heap: Heap::new(),
            det,
            gos: Vec::new(),
            steps: 0,
            opts,
            globals: Vec::new(),
            ctx: ProgContext::new(prog),
            extra_names: Vec::new(),
            extra_name_map: HashMap::new(),
            kept_names: 0,
            spare: Spare::default(),
            method_box_pool: Vec::new(),
            snapshots_taken: 0,
            stack_cache_hits: 0,
            exits_seen: 0,
            peak_shadow_bytes: 0,
            output: String::new(),
            test_failures: Vec::new(),
            timers: Vec::new(),
            sleepers: 0,
            never_chan: None,
            global_rand: None,
            fatal: None,
            sched,
            memo: Memo::new(),
        };
        vm.alloc_globals();
        vm
    }

    fn alloc_globals(&mut self) {
        let prog = self.prog;
        for g in &prog.globals {
            let zero = self.zero_value(prog.hints[g.hint as usize]);
            let a = self.heap.alloc_cell(zero, g.name);
            self.globals.push(a);
        }
    }

    /// Makes every name interned so far survive [`Vm::reset`]. A
    /// campaign interns its per-run constants once, before its first
    /// run, then calls this; a fresh VM that interned the same names
    /// first assigns them the same ids, so keeping them is invisible.
    pub(crate) fn keep_names(&mut self) {
        self.kept_names = self.extra_names.len();
    }

    /// Returns the VM to the state [`Vm::new`] builds under `opts`, so
    /// one VM serves a whole schedule campaign. Every per-run field is
    /// re-initialised; buffers are kept: heap arenas, the goroutine
    /// table, retired goroutines' frame, operand-stack and snapshot
    /// buffers, locals, and the detector's clocks, shadow pages and
    /// record stacks ([`Detector::reset`]). Retained capacity is bounded
    /// by the largest run since the VM was built. A run after a reset is
    /// bit-identical to the same run on a new VM.
    pub(crate) fn reset(&mut self, opts: VmOptions) {
        // Destructured without `..`, so a new field cannot be forgotten.
        let Vm {
            prog: _,
            heap,
            det,
            gos,
            steps,
            opts: vm_opts,
            globals,
            ctx: _,
            extra_names,
            extra_name_map,
            kept_names,
            spare,
            method_box_pool: _,
            snapshots_taken,
            stack_cache_hits,
            exits_seen,
            peak_shadow_bytes,
            output,
            test_failures,
            timers,
            sleepers,
            never_chan,
            global_rand,
            fatal,
            sched,
            memo: _,
        } = self;
        for c in heap.closures.drain(..) {
            spare.put_addrs(c.upvals);
        }
        heap.clear();
        det.reset();
        det.set_sync_cache(opts.sync_epoch_cache);
        for g in gos.drain(..) {
            let g = g.recycle(spare);
            spare.goroutines.push(g);
        }
        *steps = 0;
        globals.clear();
        for name in extra_names.drain(*kept_names..) {
            extra_name_map.remove(&name);
        }
        *snapshots_taken = 0;
        *stack_cache_hits = 0;
        *exits_seen = 0;
        *peak_shadow_bytes = 0;
        output.clear();
        test_failures.clear();
        timers.clear();
        *sleepers = 0;
        *never_chan = None;
        *global_rand = None;
        *fatal = None;
        sched.reset(&opts.policy, opts.seed);
        *vm_opts = opts;
        self.alloc_globals();
    }

    /// An empty call-argument buffer (recycled by the frame push that
    /// consumes it).
    pub(crate) fn arg_buf(&mut self) -> Vec<Value> {
        self.spare.args.pop().unwrap_or_default()
    }

    /// Defers `callee(args)` on `gid`'s current frame.
    pub(crate) fn push_defer(&mut self, gid: Gid, callee: Value, args: Vec<Value>) {
        let frame = self.gos[gid].frames.last_mut().expect("live frame");
        if frame.defers.capacity() == 0 {
            frame.defers = self.spare.defers.pop().unwrap_or_default();
        }
        frame.defers.push((callee, args));
    }

    /// Keeps an emptied method-value receiver box for the next bind.
    pub(crate) fn recycle_method_box(&mut self, b: Box<Value>) {
        if self.method_box_pool.len() < 16 {
            self.method_box_pool.push(b);
        }
    }

    /// A closure-capture buffer (recycled with the frame or closure that
    /// ends up owning it).
    pub(crate) fn addr_buf(&mut self) -> Vec<Addr> {
        self.spare.addrs.pop().unwrap_or_default()
    }

    /// Returns a call-argument buffer for reuse.
    pub(crate) fn recycle_args(&mut self, args: Vec<Value>) {
        self.spare.put_args(args);
    }

    /// Interns a runtime string into the name table.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.lookup_name(s) {
            return id;
        }
        let id = (self.ctx.names.len() + self.extra_names.len()) as u32;
        let rc: Rc<str> = Rc::from(s);
        self.extra_names.push(rc.clone());
        self.extra_name_map.insert(rc, id);
        id
    }

    /// Resolves an interned name id (pool names first, then runtime
    /// interns).
    pub(crate) fn name(&self, id: u32) -> &Rc<str> {
        self.name_opt(id).expect("dangling name id")
    }

    /// [`Vm::name`], tolerating out-of-range ids.
    pub(crate) fn name_opt(&self, id: u32) -> Option<&Rc<str>> {
        let id = id as usize;
        let base = self.ctx.names.len();
        if id < base {
            self.ctx.names.get(id)
        } else {
            self.extra_names.get(id - base)
        }
    }

    /// Looks up an interned id by name (pool first, then runtime).
    pub(crate) fn lookup_name(&self, s: &str) -> Option<u32> {
        self.ctx
            .name_map
            .get(s)
            .copied()
            .or_else(|| self.extra_name_map.get(s).copied())
    }

    /// The interned `Rc<str>` for string-pool id `id` — a refcount bump,
    /// no allocation.
    pub(crate) fn const_str(&mut self, id: u32) -> Rc<str> {
        self.ctx.names[id as usize].clone()
    }

    /// Native method for name id `id`: a table load for pool names (the
    /// common case — every statically-written method name), a one-time
    /// string match for runtime-interned ones.
    #[inline]
    pub(crate) fn native_of(&self, id: u32) -> Option<NativeMethod> {
        match self.ctx.pool_natives.get(id as usize) {
            Some(m) => *m,
            None => self.name_opt(id).and_then(|s| NativeMethod::from_name(s)),
        }
    }

    pub(crate) fn zero_value(&mut self, hint: TypeHint) -> Value {
        match hint {
            TypeHint::Int => Value::Int(0),
            TypeHint::Float => Value::Float(0.0),
            TypeHint::Bool => Value::Bool(false),
            TypeHint::Str => Value::str(""),
            TypeHint::Error
            | TypeHint::Slice
            | TypeHint::Map
            | TypeHint::Chan
            | TypeHint::Ptr
            | TypeHint::Func
            | TypeHint::Unknown => Value::Nil,
            TypeHint::Mutex => self.heap.alloc_mutex(),
            TypeHint::RwMutex => self.heap.alloc_rwmutex(),
            TypeHint::WaitGroup => self.heap.alloc_waitgroup(),
            TypeHint::SyncMap => self.heap.alloc_syncmap(),
            TypeHint::Struct(name) => {
                let prog = self.prog;
                match prog.struct_type(name) {
                    Some(def) => {
                        let mut vals = self.arg_buf();
                        for &(_, fhint) in &def.fields {
                            let v = self.zero_value(prog.hints[fhint as usize]);
                            vals.push(v);
                        }
                        let fields = def.fields.iter().map(|&(f, _)| f);
                        let v = self.alloc_struct_lit(name, fields.zip(vals.drain(..)));
                        self.spare.put_args(vals);
                        v
                    }
                    None => Value::Nil,
                }
            }
        }
    }

    /// Allocates a struct of pool-named type `type_name` from
    /// `(pool field-name id, value)` pairs.
    pub(crate) fn alloc_struct_lit(
        &mut self,
        type_name: u32,
        fields: impl Iterator<Item = (u32, Value)>,
    ) -> Value {
        let names = &self.ctx.names;
        self.heap.alloc_struct_named(
            names[type_name as usize].clone(),
            fields.map(|(f, v)| (names[f as usize].clone(), v, f)),
        )
    }

    // -------------------------------------------------------------- stacks

    /// The current [`StackGen`] of `gid`: `(frame push/pop generation,
    /// interned top-frame id)`, the token under which stack snapshots
    /// are interned and the detector's owner cache is validated. Keyed
    /// on the top frame's *line* (via its frame id), not its pc, so
    /// every instruction of one source statement shares a token — a
    /// `n = n + 1` reads and writes under the same generation. Returns
    /// [`StackGen::NONE`] with no frames or with the cache disabled.
    #[inline]
    fn stack_gen(&self, gid: Gid) -> StackGen {
        Self::derive_stack_gen(&self.gos, &self.ctx, &self.opts, gid)
    }

    /// [`Vm::stack_gen`] over disjoint field borrows, so the detector's
    /// lazy-token fast path can derive it while the detector itself is
    /// mutably borrowed.
    #[inline]
    fn derive_stack_gen(
        gos: &[Goroutine],
        ctx: &ProgContext,
        opts: &VmOptions,
        gid: Gid,
    ) -> StackGen {
        if !opts.sync_epoch_cache {
            return StackGen::NONE;
        }
        let g = &gos[gid];
        let (fid, pc, depth_gen) = match g.frames.last() {
            Some(f) => (f.func, f.pc, g.depth_gen),
            None => return StackGen::NONE,
        };
        StackGen::from_parts(depth_gen, ctx.frame_id_at(fid, pc))
    }

    /// Ensures `gid`'s interned snapshot (`snap`) is current for `gen`.
    /// Three tiers: exact generation match (free), same `depth_gen`
    /// with a moved pc (patch the top frame id — one interning lookup),
    /// or a full rebuild after a call/return changed the stack shape.
    /// Counts one logical snapshot either way; full rebuilds avoided
    /// land in `stack_cache_hits`.
    fn refresh_snapshot(&mut self, gid: Gid, gen: StackGen) {
        self.snapshots_taken += 1;
        let g = &self.gos[gid];
        if gen.is_some() {
            if g.snap_gen == gen {
                self.stack_cache_hits += 1;
                return;
            }
            if g.snap_depth_gen == g.depth_gen && !g.snap.is_empty() {
                // Same call stack, different source line: everything
                // below the top frame is unchanged.
                let f = g.frames.last().expect("depth_gen matched a live stack");
                let id = self.ctx.frame_id_at(f.func, f.pc);
                let g = &mut self.gos[gid];
                g.snap[0] = id;
                g.snap_gen = gen;
                self.stack_cache_hits += 1;
                return;
            }
        }
        let mut buf = std::mem::take(&mut self.gos[gid].snap);
        self.fill_stack_snapshot(gid, &mut buf);
        let g = &mut self.gos[gid];
        g.snap = buf;
        g.snap_gen = gen;
        g.snap_depth_gen = if gen.is_some() { g.depth_gen } else { u32::MAX };
    }

    /// Fills `out` with `gid`'s stack as interned frame ids, innermost
    /// first. Single pass, no intermediate allocation; `out` is cleared
    /// first so a scratch buffer can be reused across calls.
    pub(crate) fn fill_stack_snapshot(&mut self, gid: Gid, out: &mut Vec<u32>) {
        out.clear();
        for f in self.gos[gid].frames.iter().rev() {
            out.push(self.ctx.frame_id_at(f.func, f.pc));
        }
    }

    fn resolve_frame(&self, id: u32) -> RFrame {
        let (func, line) = self.ctx.frame_table[id as usize];
        let f = &self.prog.funcs[func as usize];
        RFrame::new(
            f.name.clone(),
            self.prog.files[f.file as usize].clone(),
            line,
        )
    }

    // ------------------------------------------------------- tracked cells
    //
    // Every access first asks the detector's same-epoch fast path, then
    // its lock-aware owner cache (both stack-free); only a full miss
    // materialises a stack snapshot — served from the goroutine's
    // interned `(depth_gen, pc)` snapshot when the stack is unchanged,
    // which is every repeat of the same source line — and runs the full
    // FastTrack transfer function. On the loop-heavy exposure corpus
    // the same-epoch path answers the large majority of accesses; on
    // sync-heavy programs (every release advances the epoch) the owner
    // cache and the interned snapshots carry the load — see DESIGN.md
    // "Hot-path architecture".

    /// Detector slow path for a read: resolve the (possibly interned)
    /// stack, run the full transfer function.
    #[cold]
    fn det_read_slow(&mut self, gid: Gid, addr: Addr, gen: StackGen) {
        self.refresh_snapshot(gid, gen);
        let name = self.heap.cell_name(addr);
        let buf = std::mem::take(&mut self.gos[gid].snap);
        self.det.read_slow(gid, addr, name, &buf, gen);
        self.gos[gid].snap = buf;
    }

    /// Detector slow path for a write.
    #[cold]
    fn det_write_slow(&mut self, gid: Gid, addr: Addr, gen: StackGen) {
        self.refresh_snapshot(gid, gen);
        let name = self.heap.cell_name(addr);
        let buf = std::mem::take(&mut self.gos[gid].snap);
        self.det.write_slow(gid, addr, name, &buf, gen);
        self.gos[gid].snap = buf;
    }

    /// Race-tracks a read of `addr` without touching the value. The
    /// stack token is derived lazily — the dominant same-epoch case
    /// never pays for it (disjoint-field borrows let the detector call
    /// back into the goroutine/frame tables mid-check).
    pub(crate) fn track_read(&mut self, gid: Gid, addr: Addr) {
        let Vm {
            det,
            gos,
            ctx,
            opts,
            ..
        } = self;
        let (hit, gen) =
            det.read_fast_with(gid, addr, || Self::derive_stack_gen(gos, ctx, opts, gid));
        match hit {
            FastPath::EpochHit => {}
            // The absorbed transfer still *needed* a stack identity;
            // counted logically so counter baselines are cache-blind.
            FastPath::CacheHit => self.snapshots_taken += 1,
            FastPath::Miss => self.det_read_slow(gid, addr, gen),
        }
    }

    /// Race-tracks a write to `addr` without touching the value
    /// (structural mutations: slice/map headers, cell initialisation).
    pub(crate) fn track_write(&mut self, gid: Gid, addr: Addr) {
        let Vm {
            det,
            gos,
            ctx,
            opts,
            ..
        } = self;
        let (hit, gen) =
            det.write_fast_with(gid, addr, || Self::derive_stack_gen(gos, ctx, opts, gid));
        match hit {
            FastPath::EpochHit => {}
            FastPath::CacheHit => self.snapshots_taken += 1,
            FastPath::Miss => self.det_write_slow(gid, addr, gen),
        }
    }

    /// Race-tracked cell read by `gid`.
    pub(crate) fn read_cell(&mut self, gid: Gid, addr: Addr) -> Value {
        self.track_read(gid, addr);
        self.heap.cells[addr as usize].clone()
    }

    /// Race-tracked cell write by `gid`.
    pub(crate) fn write_cell(&mut self, gid: Gid, addr: Addr, v: Value) {
        self.track_write(gid, addr);
        self.heap.cells[addr as usize] = v;
    }

    // ----------------------------------------------------------- spawning

    /// Spawns a goroutine calling `callee` with `args`.
    pub(crate) fn spawn(
        &mut self,
        parent: Option<Gid>,
        callee: Value,
        args: Vec<Value>,
    ) -> Result<Gid, String> {
        let gid = match parent {
            Some(p) => self.det.fork(p),
            None if self.gos.is_empty() => 0,
            None => self.det.fork(0),
        };
        let mut g = self.spare.goroutines.pop().unwrap_or_else(Goroutine::new);
        if let Some(p) = parent {
            // Creation stacks: the parent's current stack, then the
            // parent's own creation stack (two ancestry levels).
            let gen = self.stack_gen(p);
            self.refresh_snapshot(p, gen);
            let parent = &self.gos[p];
            for src in std::iter::once(&parent.snap).chain(parent.creation.first()) {
                let mut ids = self.spare.ids.pop().unwrap_or_default();
                ids.extend_from_slice(src);
                g.creation.push(ids);
            }
        }
        debug_assert_eq!(gid, self.gos.len(), "goroutine ids stay dense");
        self.gos.push(g);
        self.memo.note(self.steps, gid, Status::Runnable);
        self.push_call(gid, callee, args)
            .map_err(|e| format!("go: {e}"))?;
        Ok(gid)
    }

    /// Pushes a call frame for `callee` onto `gid`.
    pub(crate) fn push_call(
        &mut self,
        gid: Gid,
        callee: Value,
        mut args: Vec<Value>,
    ) -> Result<(), String> {
        match callee {
            Value::Func(fid) => self.push_frame(gid, fid, Vec::new(), args),
            Value::Closure(c) => {
                let clo = &self.heap.closures[c];
                let mut upvals = self.spare.addrs.pop().unwrap_or_default();
                upvals.extend_from_slice(&clo.upvals);
                self.push_frame(gid, clo.func, upvals, args)
            }
            Value::Method { mut recv, name } => {
                args.insert(0, std::mem::replace(&mut *recv, Value::Nil));
                self.recycle_method_box(recv);
                if let Some(fid) = self.method_func(&args[0], name) {
                    self.push_frame(gid, fid, Vec::new(), args)
                } else {
                    Err(format!(
                        "unknown method `{}` on {}",
                        self.name(name),
                        args[0].type_name()
                    ))
                }
            }
            other => Err(format!("cannot call {}", other.type_name())),
        }
    }

    /// Resolves a declared (non-native) method for a receiver value.
    pub(crate) fn method_func(&self, recv: &Value, name: u32) -> Option<u32> {
        let tname: &str = match recv {
            Value::Struct(r) => &self.heap.structs[*r].type_name,
            Value::Ptr(a) => match &self.heap.cells[*a as usize] {
                Value::Struct(r) => &self.heap.structs[*r].type_name,
                _ => return None,
            },
            _ => return None,
        };
        let tid = self.lookup_name(tname)?;
        self.prog.method_of(tid, name)
    }

    fn push_frame(
        &mut self,
        gid: Gid,
        fid: u32,
        upvals: Vec<Addr>,
        mut args: Vec<Value>,
    ) -> Result<(), String> {
        let prog: &'p Program = self.prog;
        let func = &prog.funcs[fid as usize];
        if args.len() != func.params as usize {
            self.spare.put_addrs(upvals);
            return Err(format!(
                "{} takes {} arguments, got {}",
                func.name,
                func.params,
                args.len()
            ));
        }
        let mut locals = self.spare.addrs.pop().unwrap_or_default();
        locals.resize(func.n_slots as usize, UNBOUND);
        for (i, v) in args.drain(..).enumerate() {
            let name = func.param_names.get(i).copied().unwrap_or(0);
            locals[i] = self.heap.alloc_cell(v, name);
        }
        self.spare.put_args(args);
        let stack_base = self.gos[gid].stack.len();
        self.gos[gid].frames.push(CallFrame {
            func: fid,
            pc: 0,
            locals,
            upvals,
            defers: Vec::new(),
            stack_base,
            returning: None,
        });
        // The call stack changed shape: retire this goroutine's stack
        // generation so interned snapshots and owner-cache records from
        // the previous shape can never be mistaken for the new one.
        self.gos[gid].depth_gen = self.gos[gid].depth_gen.wrapping_add(1);
        Ok(())
    }

    // ---------------------------------------------------------- scheduler

    /// Runs `entry(args)` to completion (plus drain), returning the result.
    pub fn run(&mut self, entry: &str, args: Vec<Value>) -> RunResult {
        let error = self.execute(entry, args);
        self.finish_reporting_all(error)
    }

    /// [`Vm::finish`] with every recorded race resolved to a report.
    pub(crate) fn finish_reporting_all(&mut self, error: Option<RunError>) -> RunResult {
        let races = self
            .det
            .races()
            .iter()
            .map(|raw| self.race_report(raw))
            .collect();
        self.finish(error, races)
    }

    /// Runs `entry(args)` to completion (plus drain), leaving the races
    /// in the detector; returns the abnormal termination, if any.
    pub(crate) fn execute(&mut self, entry: &str, args: Vec<Value>) -> Option<RunError> {
        run_phases(self, |vm| vm.spawn_entry(entry, args));
        self.fatal.take()
    }

    /// Spawns the root goroutine running `entry(args)`; a failure is the
    /// run's fatal error.
    fn spawn_entry(&mut self, entry: &str, args: Vec<Value>) -> Option<Gid> {
        let Some(entry_id) = self.prog.find_func(entry) else {
            self.fatal = Some(RunError::Internal(format!("no function `{entry}`")));
            return None;
        };
        let parent = if self.gos.is_empty() { None } else { Some(0) };
        match self.spawn(parent, Value::Func(entry_id), args) {
            Ok(g) => Some(g),
            Err(e) => {
                self.fatal = Some(RunError::Internal(e));
                None
            }
        }
    }

    /// Resolves a recorded race into report form: frames, goroutine
    /// creation stacks and the variable name.
    pub(crate) fn race_report(&self, raw: &RawRace) -> RaceReport {
        let access = |acc: &racedet::RawAccess| racedet::Access {
            kind: acc.kind,
            stack: acc.stack.iter().map(|&f| self.resolve_frame(f)).collect(),
            goroutine: GoroutineInfo {
                id: acc.tid,
                creation: self
                    .gos
                    .get(acc.tid)
                    .map(|g| {
                        g.creation
                            .iter()
                            .map(|st| st.iter().map(|&f| self.resolve_frame(f)).collect())
                            .collect()
                    })
                    .unwrap_or_default(),
            },
        };
        RaceReport {
            accesses: [access(&raw.cur), access(&raw.prev)],
            var_name: self
                .name_opt(raw.var)
                .map(|n| n.to_string())
                .unwrap_or_default(),
            addr: raw.addr,
        }
    }

    /// The [`RaceReport::bug_hash`] of `raw`'s report, computed from the
    /// interned race without building the report. `names` is scratch.
    pub(crate) fn race_hash(&self, raw: &RawRace, names: &mut Vec<&'p str>) -> u64 {
        let prog: &'p Program = self.prog;
        names.clear();
        for &f in raw.cur.stack.iter().chain(&raw.prev.stack) {
            let (func, _) = self.ctx.frame_table[f as usize];
            names.push(&prog.funcs[func as usize].name);
        }
        let var = self.name_opt(raw.var).map_or("", |n| n);
        racedet::bug_hash_of(var, names)
    }

    /// Packages the finished run: `races` plus the run's output, test
    /// failures, schedule signature and counters.
    pub(crate) fn finish(&mut self, error: Option<RunError>, races: Vec<RaceReport>) -> RunResult {
        let det = *self.det.stats();
        // End-of-run lifecycle checkpoint: the gauge must cover runs
        // that never hit an exit checkpoint (or none at all).
        self.peak_shadow_bytes = self.peak_shadow_bytes.max(self.det.shadow_bytes());
        let shadow = *self.det.shadow_stats();
        RunResult {
            races,
            error,
            steps: self.steps,
            output: std::mem::take(&mut self.output),
            test_failures: std::mem::take(&mut self.test_failures),
            schedule_sig: self.sched.sig,
            sched_points: self.sched.points,
            counters: RunCounters {
                vm_steps: self.steps,
                sched_points: self.sched.points,
                stack_snapshots: self.snapshots_taken,
                snapshots_avoided: det.fast_hits(),
                stack_cache_hits: self.stack_cache_hits,
                states_collected: shadow.states_collected,
                clock_slots_reclaimed: shadow.clock_slots_reclaimed,
                peak_shadow_bytes: self.peak_shadow_bytes,
                peak_clock_width: self.det.clock_width() as u64,
                det,
            },
        }
    }

    fn run_goroutine(&mut self, gid: Gid, quantum: u64, budget: u64) {
        // Apply a pending completed-op wake action.
        if let Some(w) = self.gos[gid].wake.take() {
            for _ in 0..w.pops {
                self.gos[gid].stack.pop();
            }
            for v in w.push {
                self.gos[gid].stack.push(v);
            }
            if let Some(c) = w.acquire {
                self.det.acquire_clock(gid, &c);
                self.det.recycle_clock(c);
            }
            if let Some(f) = self.gos[gid].frames.last_mut() {
                match w.jump_to {
                    Some(pc) => f.pc = pc,
                    None => f.pc += 1,
                }
            }
        }
        // Retry a parked select.
        if self.gos[gid].select.is_some() && self.gos[gid].status == Status::Runnable {
            let sel = self.gos[gid].select.take().expect("parked select");
            match crate::ops::try_select(self, gid, &sel.cases) {
                Some(Flow::Jump(t)) => {
                    if let Some(f) = self.gos[gid].frames.last_mut() {
                        f.pc = t;
                    }
                }
                Some(Flow::Panic(m)) => {
                    self.do_panic(gid, m);
                    return;
                }
                Some(_) => unreachable!("select resolves to jump or panic"),
                None => {
                    crate::ops::repark_select(self, gid, sel);
                    self.set_status(gid, Status::Blocked);
                    self.gos[gid].block_reason = "select";
                    return;
                }
            }
        }
        // The quantum loop runs with the per-step budget and runnable
        // checks hoisted out: the step allowance is clamped to the
        // remaining budget up front, and `status` can only change on
        // paths that return (park, panic) or that re-check explicitly
        // below (frame returns, which may finish or panic the goroutine
        // through deferred natives). `fatal` is checked per step: a
        // mid-quantum operand-stack underflow must stop execution
        // before the corrupted stack is interpreted further.
        let allowance = quantum.min(budget.saturating_sub(self.steps));
        for _ in 0..allowance {
            if self.fatal.is_some() {
                return;
            }
            self.steps += 1;

            // One bounds-checked frame access per step: fetch the
            // function, pc and unwinding flag together.
            let Some((fid, pc, returning)) = self.gos[gid]
                .frames
                .last()
                .map(|f| (f.func, f.pc, f.returning.is_some()))
            else {
                self.set_status(gid, Status::Done);
                return;
            };
            // Unwinding frames (defers) take priority over fetch.
            if returning {
                self.proceed_return(gid);
                if self.fatal.is_some() || self.gos[gid].status != Status::Runnable {
                    return;
                }
                continue;
            }
            // `prog` outlives the `&mut self` borrow below, so the
            // fetched instruction is executed by reference — no
            // per-instruction `Op` clone.
            let code: &'p [crate::bytecode::Op] = &self.prog.funcs[fid as usize].code;
            if pc >= code.len() {
                // Fallthrough: return nil (compiler normally emits an
                // explicit return, so this is a safety net).
                self.start_return(gid, Value::Nil);
                if self.fatal.is_some() || self.gos[gid].status != Status::Runnable {
                    return;
                }
                continue;
            }
            match crate::ops::exec(self, gid, &code[pc]) {
                Flow::Next => {
                    if let Some(f) = self.gos[gid].frames.last_mut() {
                        f.pc += 1;
                    }
                }
                Flow::Jump(t) => {
                    if let Some(f) = self.gos[gid].frames.last_mut() {
                        f.pc = t;
                    }
                }
                Flow::Stay => {}
                Flow::Park(reason) => {
                    self.set_status(gid, Status::Blocked);
                    self.gos[gid].block_reason = reason;
                    return;
                }
                Flow::Returned(v) => {
                    self.start_return(gid, v);
                    if self.fatal.is_some() || self.gos[gid].status != Status::Runnable {
                        return;
                    }
                }
                Flow::Panic(msg) => {
                    self.do_panic(gid, msg);
                    return;
                }
            }
        }
    }

    /// Sets `g`'s status. Every status write goes through here, so the
    /// campaign's schedule memo sees each one a recorded run makes.
    pub(crate) fn set_status(&mut self, g: Gid, status: Status) {
        self.gos[g].status = status;
        self.memo.note(self.steps, g, status);
    }

    /// Marks the current frame as returning `v`; defers run first.
    pub(crate) fn start_return(&mut self, gid: Gid, v: Value) {
        if let Some(f) = self.gos[gid].frames.last_mut() {
            f.returning = Some(v);
        }
        self.proceed_return(gid);
    }

    /// Runs the next deferred call of the returning frame, or finishes
    /// the return if none remain.
    pub(crate) fn proceed_return(&mut self, gid: Gid) {
        let Some(frame) = self.gos[gid].frames.last_mut() else {
            self.set_status(gid, Status::Done);
            return;
        };
        let Some(v) = frame.returning.clone() else {
            return;
        };
        if let Some((callee, args)) = frame.defers.pop() {
            match callee {
                Value::Method { mut recv, name } if self.method_func(&recv, name).is_none() => {
                    // Native defers (wg.Done, mu.Unlock) run eagerly,
                    // dispatching on the boxed receiver by reference.
                    let outcome = match self.native_of(name) {
                        Some(m) => natives::dispatch_method(self, gid, &recv, m, &args),
                        None => natives::MethodOutcome::NotNative,
                    };
                    self.spare.put_args(args);
                    *recv = Value::Nil;
                    self.recycle_method_box(recv);
                    match outcome {
                        natives::MethodOutcome::Done(_) => {}
                        natives::MethodOutcome::Error(e) => {
                            self.do_panic(gid, e);
                        }
                        _ => {
                            let method = self.name(name).clone();
                            self.do_panic(gid, format!("deferred native `{method}` would block"));
                        }
                    }
                }
                callee => {
                    if let Err(e) = self.push_call(gid, callee, args) {
                        self.do_panic(gid, e);
                    }
                }
            }
            return;
        }
        // No defers left: actually pop the frame.
        let frame = self.gos[gid].frames.pop().expect("returning frame");
        self.gos[gid].depth_gen = self.gos[gid].depth_gen.wrapping_add(1);
        self.gos[gid].stack.truncate(frame.stack_base);
        self.spare.put_frame(frame);
        if self.gos[gid].frames.is_empty() {
            self.set_status(gid, Status::Done);
            natives::on_goroutine_exit(self, gid);
            self.lifecycle_exit(gid);
        } else {
            self.gos[gid].stack.push(v);
            if let Some(f) = self.gos[gid].frames.last_mut() {
                if f.returning.is_none() {
                    f.pc += 1;
                }
            }
        }
    }

    fn do_panic(&mut self, gid: Gid, msg: String) {
        // Release held synchronisation via native defers, then abort.
        let mut frames = std::mem::take(&mut self.gos[gid].frames);
        self.gos[gid].depth_gen = self.gos[gid].depth_gen.wrapping_add(1);
        for mut frame in frames.drain(..).rev() {
            for (callee, args) in frame.defers.drain(..).rev() {
                if let Value::Method { recv, name } = &callee {
                    if self.method_func(recv, *name).is_none() {
                        if let Some(m) = self.native_of(*name) {
                            let _ = natives::dispatch_method(self, gid, recv, m, &args);
                        }
                    }
                }
            }
            self.spare.put_frame(frame);
        }
        if self.gos[gid].frames.is_empty() {
            self.gos[gid].frames = frames;
        }
        self.set_status(gid, Status::Done);
        self.gos[gid].stack.clear();
        natives::on_goroutine_exit(self, gid);
        self.lifecycle_exit(gid);
        self.fatal = Some(RunError::Panic(msg));
    }

    /// Lifecycle checkpoint at a goroutine exit: retires the exiting
    /// goroutine's detector clock slot and, every few exits, sweeps
    /// dead shadow state at the live frontier. Must run *after*
    /// [`natives::on_goroutine_exit`] so the exit's own happens-before
    /// publications (subtest parent signalling) are already recorded.
    /// The root goroutine is never retired — the VM attributes
    /// post-run bookkeeping (channel closes at teardown) to it.
    fn lifecycle_exit(&mut self, gid: Gid) {
        if !self.opts.shadow_gc || gid == 0 {
            return;
        }
        self.det.thread_exit(gid);
        self.exits_seen += 1;
        // Deterministic GC cadence: a sweep every 16 exits keeps churny
        // programs bounded without rescanning the shadow per exit.
        if self.exits_seen % 16 == 0 {
            if let Some(f) = self.det.live_frontier() {
                self.det.collect(&f);
            }
        }
        self.peak_shadow_bytes = self.peak_shadow_bytes.max(self.det.shadow_bytes());
    }

    // ------------------------------------------------------------ channels

    pub(crate) fn close_chan_internal(&mut self, ch: ObjRef) {
        if !self.heap.chans[ch].closed {
            let clock = self.det.release_snapshot(0);
            self.heap.chans[ch].closed = true;
            self.heap.chans[ch].close_clock = Some(clock);
        }
        self.wake_chan_waiters(ch);
    }

    /// Wakes every goroutine parked on `ch`; they re-check their
    /// conditions when scheduled.
    pub(crate) fn wake_chan_waiters(&mut self, ch: ObjRef) {
        // Waiter buffers are handed back cleared-but-allocated: parked
        // channel peers cycle through these lists constantly, and
        // re-growing a fresh `Vec` on every park costs an allocation
        // per handoff.
        let mut recv: Vec<Gid> = std::mem::take(&mut self.heap.chans[ch].recv_waiters);
        let mut send: Vec<Gid> = std::mem::take(&mut self.heap.chans[ch].send_waiters);
        for &g in recv.iter().chain(send.iter()) {
            if self.gos[g].status == Status::Blocked && self.gos[g].sleep_until.is_none() {
                self.set_status(g, Status::Runnable);
            }
        }
        recv.clear();
        send.clear();
        self.heap.chans[ch].recv_waiters = recv;
        self.heap.chans[ch].send_waiters = send;
    }

    /// Commits a buffered send (capacity known to be available).
    pub(crate) fn chan_send_commit(&mut self, gid: Gid, ch: ObjRef, v: Value) {
        let clock = self.det.release_snapshot(gid);
        let acquire = {
            let c = &mut self.heap.chans[ch];
            c.sends += 1;
            let acq = if c.cap > 0 && c.sends > c.cap {
                c.slot_clocks.pop_front()
            } else {
                None
            };
            c.queue.push_back(ChanMsg { value: v, clock });
            acq
        };
        if let Some(a) = acquire {
            self.det.acquire_clock(gid, &a);
            self.det.recycle_clock(a);
        }
        self.wake_chan_waiters(ch);
    }

    /// Tries to receive a queued message or a closed-channel zero value.
    pub(crate) fn chan_try_recv(&mut self, gid: Gid, ch: ObjRef) -> Option<(Value, bool)> {
        let msg = self.heap.chans[ch].queue.pop_front();
        if let Some(m) = msg {
            self.det.acquire_clock(gid, &m.clock);
            self.det.recycle_clock(m.clock);
            let snap = self.det.release_snapshot(gid);
            self.heap.chans[ch].slot_clocks.push_back(snap);
            self.wake_chan_waiters(ch);
            return Some((m.value, true));
        }
        if self.heap.chans[ch].closed {
            let cc = self.heap.chans[ch].close_clock.clone();
            if let Some(c) = cc {
                self.det.acquire_clock(gid, &c);
            }
            return Some((Value::Nil, false));
        }
        None
    }
}

// ------------------------------------------------------------ scheduling

/// One run as [`drive`] schedules it: the interpreter ([`Vm`]), or a
/// walk over a campaign's schedule memo ([`crate::memo`]) that replays
/// each stretch from an earlier run's record. [`run_phases`] and
/// [`drive`] are the only scheduling code, so budgets, the init, root and
/// drain phases and the signature fold cannot differ between the two.
pub(crate) trait Exec {
    /// The run's scheduling state.
    fn sched(&mut self) -> &mut RunSched;
    /// Instructions executed so far.
    fn steps(&self) -> u64;
    /// `(max_steps, drain_steps)` of the run's options.
    fn limits(&self) -> (u64, u64);
    /// Goroutines spawned so far (ids are dense).
    fn goroutines(&self) -> usize;
    /// Goroutine `g`'s status.
    fn status(&self, g: Gid) -> Status;
    /// Whether the run has failed.
    fn fatal(&self) -> bool;
    /// Fails the run with `e`.
    fn set_fatal(&mut self, e: RunError);
    /// Fails the run with a deadlock: every goroutine left is blocked
    /// and no timer is pending.
    fn deadlock(&mut self);
    /// Fires due timers and wakes due sleepers. A memo walk never has
    /// any: it stops before the stretch that arms one.
    fn fire_timers(&mut self) {}
    /// Jumps the step counter to the next timer or sleeper deadline;
    /// `false` when none is armed.
    fn advance_time(&mut self) -> bool {
        false
    }
    /// Spawns the package-init goroutine, if the program has one.
    fn spawn_init(&mut self) -> Option<Gid>;
    /// Runs `gid` for up to `quantum` instructions within `budget`, or
    /// until it parks, exits or fails the run. `switched` marks a
    /// context switch to `gid`.
    fn stretch(&mut self, gid: Gid, quantum: u64, budget: u64, switched: bool);
}

/// Runs the phases of one run: package init (if any), the root
/// goroutine `spawn_entry` starts, then a bounded drain of the
/// goroutines left over.
pub(crate) fn run_phases<X: Exec>(x: &mut X, spawn_entry: impl FnOnce(&mut X) -> Option<Gid>) {
    let (max_steps, drain_steps) = x.limits();
    if let Some(g0) = x.spawn_init() {
        drive(x, Some(g0), max_steps);
    }
    if x.fatal() {
        return;
    }
    let Some(root) = spawn_entry(x) else {
        return;
    };
    drive(x, Some(root), max_steps);
    if !x.fatal() {
        let budget = x
            .steps()
            .saturating_add(drain_steps)
            .min(max_steps.saturating_mul(2));
        drive(x, None, budget);
    }
}

/// The scheduling loop: until `root` finishes (or, without a root, until
/// nothing can run), pick a runnable goroutine and run its stretch.
fn drive<X: Exec>(x: &mut X, root: Option<Gid>, budget: u64) {
    loop {
        if x.fatal() {
            return;
        }
        if let Some(r) = root {
            if x.status(r) == Status::Done {
                return;
            }
        }
        let steps = x.steps();
        if steps >= budget {
            if root.is_some() && steps >= x.limits().0 {
                x.set_fatal(RunError::StepLimit);
            }
            return;
        }
        x.fire_timers();
        let mut runnable = std::mem::take(&mut x.sched().runnable);
        runnable.clear();
        runnable.extend((0..x.goroutines()).filter(|&g| x.status(g) == Status::Runnable));
        let idle = runnable.is_empty();
        x.sched().runnable = runnable;
        if idle {
            if !(0..x.goroutines()).any(|g| x.status(g) == Status::Blocked) {
                return;
            }
            if x.advance_time() {
                continue;
            }
            if root.is_some() {
                x.deadlock();
            }
            return;
        }
        let (decision, switched) = x.sched().decide(steps);
        x.stretch(decision.gid, decision.quantum.max(1), budget, switched);
    }
}

impl Exec for Vm<'_> {
    fn sched(&mut self) -> &mut RunSched {
        &mut self.sched
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn limits(&self) -> (u64, u64) {
        (self.opts.max_steps, self.opts.drain_steps)
    }

    fn goroutines(&self) -> usize {
        self.gos.len()
    }

    fn status(&self, g: Gid) -> Status {
        self.gos[g].status
    }

    fn fatal(&self) -> bool {
        self.fatal.is_some()
    }

    fn set_fatal(&mut self, e: RunError) {
        self.fatal = Some(e);
    }

    fn deadlock(&mut self) {
        let reasons: Vec<&str> = self
            .gos
            .iter()
            .filter(|g| g.status == Status::Blocked)
            .map(|g| g.block_reason)
            .collect();
        self.fatal = Some(RunError::Deadlock(reasons.join(", ")));
    }

    fn fire_timers(&mut self) {
        // Called on every scheduling decision; with no timers armed and
        // no sleeping goroutines there is provably nothing to fire.
        if self.timers.is_empty() && self.sleepers == 0 {
            return;
        }
        let now = self.steps;
        let mut fired = Vec::new();
        self.timers.retain(|&(at, ch)| {
            if at <= now {
                fired.push(ch);
                false
            } else {
                true
            }
        });
        for ch in fired {
            self.close_chan_internal(ch);
        }
        for g in 0..self.gos.len() {
            if let Some(t) = self.gos[g].sleep_until {
                if t <= now && self.gos[g].status == Status::Blocked {
                    self.gos[g].sleep_until = None;
                    self.sleepers = self.sleepers.saturating_sub(1);
                    self.set_status(g, Status::Runnable);
                }
            }
        }
    }

    fn advance_time(&mut self) -> bool {
        let mut next = u64::MAX;
        for &(at, _) in &self.timers {
            next = next.min(at);
        }
        for g in &self.gos {
            if let Some(t) = g.sleep_until {
                next = next.min(t);
            }
        }
        if next == u64::MAX {
            return false;
        }
        if next > self.steps {
            self.steps = next;
        }
        self.fire_timers();
        true
    }

    fn spawn_init(&mut self) -> Option<Gid> {
        let init = self.prog.init_func?;
        match self.spawn(None, Value::Func(init), Vec::new()) {
            Ok(g0) => Some(g0),
            Err(e) => {
                self.fatal = Some(RunError::Internal(e));
                None
            }
        }
    }

    fn stretch(&mut self, gid: Gid, quantum: u64, budget: u64, switched: bool) {
        self.memo.begin(self.steps, gid, switched);
        self.run_goroutine(gid, quantum, budget);
        let stopped = self.fatal.is_some() || self.gos[gid].status != Status::Runnable;
        self.memo.end(self.steps, stopped, self.fatal.is_some());
    }
}
