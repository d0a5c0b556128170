//! Builtin functions, native methods, and package constants.
//!
//! The compiler resolves qualified names (`fmt.Println`, `atomic.AddInt32`)
//! and conversion builtins to indices into [`BUILTIN_NAMES`]; the VM
//! dispatches on those indices at call time (see `vm.rs`). Native
//! *methods* (`mu.Lock`, `t.Run`, `r.Intn`) are dispatched by receiver
//! kind and method name inside the VM, because most need scheduler access.

/// Names of all builtin functions, in dispatch order.
pub const BUILTIN_NAMES: &[&str] = &[
    // 0..: fmt
    "fmt.Println",
    "fmt.Printf",
    "fmt.Sprintf",
    "fmt.Sprint",
    "fmt.Errorf",
    // errors
    "errors.New",
    "errors.Is",
    // time
    "time.Sleep",
    "time.Now",
    "time.Since",
    "time.After",
    // context
    "context.Background",
    "context.TODO",
    "context.WithTimeout",
    "context.WithCancel",
    // math/rand
    "rand.NewSource",
    "rand.New",
    "rand.Intn",
    "rand.Int63",
    "rand.Float64",
    // crypto/md5
    "md5.New",
    // strings
    "strings.NewReader",
    "strings.Repeat",
    "strings.Contains",
    "strings.ToUpper",
    "strings.Join",
    // io
    "io.Copy",
    "io.CopyN",
    // strconv
    "strconv.Itoa",
    "strconv.Atoi",
    // testify assert
    "assert.Equal",
    "assert.True",
    "assert.False",
    "assert.NoError",
    "assert.Error",
    "assert.Nil",
    "assert.NotNil",
    "assert.Fail",
    "assert.Len",
    // sync/atomic
    "atomic.AddInt32",
    "atomic.LoadInt32",
    "atomic.StoreInt32",
    "atomic.CompareAndSwapInt32",
    "atomic.AddInt64",
    "atomic.LoadInt64",
    "atomic.StoreInt64",
    "atomic.CompareAndSwapInt64",
    // runtime
    "runtime.Gosched",
    // core builtins lowered to calls
    "copy",
    // conversions
    "conv.int",
    "conv.float",
    "conv.string",
    "conv.duration",
];

/// Identifiers treated as numeric conversions when called.
pub const INT_CONVERSIONS: &[&str] = &[
    "int", "int8", "int16", "int32", "int64", "uint", "uint8", "uint16", "uint32", "uint64",
    "byte", "rune", "uintptr",
];

/// Returns the builtin id for a qualified name.
pub fn builtin_id(name: &str) -> Option<u16> {
    BUILTIN_NAMES
        .iter()
        .position(|n| *n == name)
        .map(|i| i as u16)
}

/// Returns the name of a builtin id.
pub fn builtin_name(id: u16) -> &'static str {
    BUILTIN_NAMES[id as usize]
}

/// Package-level integer constants the compiler folds.
///
/// Durations are measured in *scheduler steps*: one millisecond maps to
/// one step, so `3 * time.Minute` style deadlines stay meaningful
/// relative to the step budget of a run.
pub const INT_CONSTS: &[(&str, i64)] = &[
    ("time.Nanosecond", 1),
    ("time.Microsecond", 1),
    ("time.Millisecond", 1),
    ("time.Second", 10),
    ("time.Minute", 60),
    ("time.Hour", 600),
    ("http.StatusOK", 200),
    ("http.StatusInternalServerError", 500),
    ("math.MaxInt32", i32::MAX as i64),
    ("math.MaxInt64", i64::MAX),
];

/// Returns a folded constant for a qualified name.
pub fn const_value(name: &str) -> Option<i64> {
    INT_CONSTS.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Import paths the compiler recognises; the last path segment (or the
/// explicit alias) becomes the builtin namespace.
pub const KNOWN_PACKAGES: &[&str] = &[
    "sync",
    "sync/atomic",
    "fmt",
    "errors",
    "time",
    "context",
    "math",
    "math/rand",
    "crypto/md5",
    "strings",
    "strconv",
    "io",
    "net/http",
    "runtime",
    "testing",
    "hash",
    "github.com/stretchr/testify/assert",
];

// ===========================================================================
// Implementations
// ===========================================================================

use crate::value::{Gid, MapKey, ObjRef, Value};
use crate::vm::{Status, Vm, WakeAction};
use rand::Rng;

/// Sync-object id namespaces for the detector.
const SYNC_MUTEX: u64 = 1 << 40;
const SYNC_RW_W: u64 = 2 << 40;
const SYNC_RW_R: u64 = 3 << 40;
const SYNC_WG: u64 = 4 << 40;
const SYNC_ATOMIC: u64 = 5 << 40;
const SYNC_SYNCMAP: u64 = 6 << 40;

/// Result of a builtin function call.
pub(crate) enum BuiltinOutcome {
    /// Completed with a value.
    Value(Value),
    /// Park until the given step, then resume pushing the value.
    Sleep(u64, Value),
    /// Runtime error (panics the goroutine).
    Error(String),
}

/// Every native method name, interned to a dense id.
///
/// Variants are keyed by *name*, not `(receiver, name)` — the receiver
/// kind disambiguates at dispatch (`Done` serves both `wg.Done()` and
/// `ctx.Done()`; `Lock` serves `Mutex` and `RWMutex`), exactly as the
/// old string match did. Each [`crate::Vm`] resolves every
/// string-pool name to `Option<NativeMethod>` once at build, so
/// call-time dispatch is a table load plus an integer match — no `&str`
/// comparison on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants *are* the Go method names
pub enum NativeMethod {
    Lock,
    TryLock,
    Unlock,
    RLock,
    RUnlock,
    Add,
    Done,
    Wait,
    Load,
    Store,
    Delete,
    LoadOrStore,
    Range,
    /// The synthetic `$cancel` method of context cancel funcs.
    Cancel,
    Err,
    Value,
    Intn,
    Int63,
    Float64,
    Write,
    Sum,
    Reset,
    Read,
    Len,
    Run,
    Parallel,
    Name,
    Errorf,
    Error,
    Fatalf,
    Fatal,
    Fail,
    FailNow,
    Logf,
    Log,
    Helper,
    Cleanup,
    Skip,
    SkipNow,
    Skipf,
    Setenv,
}

impl NativeMethod {
    /// Resolves a method-name string to its interned id.
    pub fn from_name(name: &str) -> Option<Self> {
        use NativeMethod as N;
        Some(match name {
            "Lock" => N::Lock,
            "TryLock" => N::TryLock,
            "Unlock" => N::Unlock,
            "RLock" => N::RLock,
            "RUnlock" => N::RUnlock,
            "Add" => N::Add,
            "Done" => N::Done,
            "Wait" => N::Wait,
            "Load" => N::Load,
            "Store" => N::Store,
            "Delete" => N::Delete,
            "LoadOrStore" => N::LoadOrStore,
            "Range" => N::Range,
            "$cancel" => N::Cancel,
            "Err" => N::Err,
            "Value" => N::Value,
            "Intn" => N::Intn,
            "Int63" => N::Int63,
            "Float64" => N::Float64,
            "Write" => N::Write,
            "Sum" => N::Sum,
            "Reset" => N::Reset,
            "Read" => N::Read,
            "Len" => N::Len,
            "Run" => N::Run,
            "Parallel" => N::Parallel,
            "Name" => N::Name,
            "Errorf" => N::Errorf,
            "Error" => N::Error,
            "Fatalf" => N::Fatalf,
            "Fatal" => N::Fatal,
            "Fail" => N::Fail,
            "FailNow" => N::FailNow,
            "Logf" => N::Logf,
            "Log" => N::Log,
            "Helper" => N::Helper,
            "Cleanup" => N::Cleanup,
            "Skip" => N::Skip,
            "SkipNow" => N::SkipNow,
            "Skipf" => N::Skipf,
            "Setenv" => N::Setenv,
            _ => return None,
        })
    }

    /// The exact Go-visible method name (error messages, `t.Errorf`
    /// failure prefixes).
    pub fn as_str(self) -> &'static str {
        use NativeMethod as N;
        match self {
            N::Lock => "Lock",
            N::TryLock => "TryLock",
            N::Unlock => "Unlock",
            N::RLock => "RLock",
            N::RUnlock => "RUnlock",
            N::Add => "Add",
            N::Done => "Done",
            N::Wait => "Wait",
            N::Load => "Load",
            N::Store => "Store",
            N::Delete => "Delete",
            N::LoadOrStore => "LoadOrStore",
            N::Range => "Range",
            N::Cancel => "$cancel",
            N::Err => "Err",
            N::Value => "Value",
            N::Intn => "Intn",
            N::Int63 => "Int63",
            N::Float64 => "Float64",
            N::Write => "Write",
            N::Sum => "Sum",
            N::Reset => "Reset",
            N::Read => "Read",
            N::Len => "Len",
            N::Run => "Run",
            N::Parallel => "Parallel",
            N::Name => "Name",
            N::Errorf => "Errorf",
            N::Error => "Error",
            N::Fatalf => "Fatalf",
            N::Fatal => "Fatal",
            N::Fail => "Fail",
            N::FailNow => "FailNow",
            N::Logf => "Logf",
            N::Log => "Log",
            N::Helper => "Helper",
            N::Cleanup => "Cleanup",
            N::Skip => "Skip",
            N::SkipNow => "SkipNow",
            N::Skipf => "Skipf",
            N::Setenv => "Setenv",
        }
    }
}

/// Result of a native method dispatch.
pub(crate) enum MethodOutcome {
    /// Completed with a value (the VM pops operands and pushes it).
    Done(Value),
    /// Park retry-style (operands stay on the stack).
    Park(&'static str),
    /// Park with a pre-armed wake action (operands cleaned by the action).
    ParkArmed(&'static str),
    /// Receiver has no native method with this name.
    NotNative,
    /// Runtime error.
    Error(String),
}

/// Action to run when a goroutine finishes (subtest bookkeeping).
#[derive(Debug)]
pub enum OnExit {
    /// Signal the parent of a subtest if `t.Parallel` did not already.
    Subtest {
        /// The subtest's `testing.T` value.
        tvalue: Value,
    },
}

// ------------------------------------------------------------ small helpers

fn struct_ref(v: &Value) -> Option<ObjRef> {
    match v {
        Value::Struct(r) => Some(*r),
        _ => None,
    }
}

fn sfield(vm: &Vm, s: ObjRef, name: &str) -> Option<Value> {
    vm.heap.structs[s]
        .field(name)
        .map(|a| vm.heap.load_silent(a).clone())
}

fn sfield_set(vm: &mut Vm, s: ObjRef, name: &str, v: Value) {
    if let Some(a) = vm.heap.structs[s].field(name) {
        vm.heap.store_silent(a, v);
    }
}

fn struct_type<'a>(vm: &'a Vm, v: &Value) -> Option<&'a str> {
    struct_ref(v).map(|r| &*vm.heap.structs[r].type_name)
}

fn make_struct(vm: &mut Vm, ty: &str, fields: Vec<(&str, Value)>) -> Value {
    let fields: Vec<_> = fields
        .into_iter()
        .map(|(n, v)| {
            let id = vm.intern(n);
            (vm.name(id).clone(), v, id)
        })
        .collect();
    vm.heap.alloc_struct_named(ty.into(), fields)
}

fn render_all(vm: &Vm, args: &[Value], sep: &str) -> String {
    args.iter()
        .map(|a| a.render(&vm.heap))
        .collect::<Vec<_>>()
        .join(sep)
}

/// Minimal printf-style formatting (`%v %s %d %q %w %%`).
fn format_go(vm: &Vm, fmt: &str, args: &[Value]) -> String {
    let mut out = String::new();
    let mut ai = 0;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('v') | Some('s') | Some('d') | Some('q') | Some('w') | Some('t') | Some('f')
            | Some('x') => {
                if let Some(a) = args.get(ai) {
                    out.push_str(&a.render(&vm.heap));
                    ai += 1;
                }
            }
            Some(other) => {
                out.push('%');
                out.push(other);
            }
            None => out.push('%'),
        }
    }
    out
}

/// Steps a linear-congruential PRNG state cell (race-tracked — this is
/// what makes shared `rand.Source` use a real data race, matching the
/// paper's "Others" category).
fn step_source(vm: &mut Vm, gid: Gid, state_addr: u64) -> i64 {
    let cur = vm.read_cell(gid, state_addr).as_int().unwrap_or(1);
    let next = cur
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    vm.write_cell(gid, state_addr, Value::Int(next));
    (next >> 11).abs()
}

fn rand_state_addr(vm: &Vm, recv: &Value) -> Option<u64> {
    let r = struct_ref(recv)?;
    match &*vm.heap.structs[r].type_name {
        "rand.Source" => vm.heap.structs[r].field("state"),
        "rand.Rand" => {
            let src = sfield(vm, r, "src")?;
            let sr = struct_ref(&src)?;
            vm.heap.structs[sr].field("state")
        }
        _ => None,
    }
}

// ----------------------------------------------------------------- builtins

pub(crate) fn call_builtin(vm: &mut Vm, gid: Gid, id: u16, args: Vec<Value>) -> BuiltinOutcome {
    use BuiltinOutcome as O;
    let name = builtin_name(id);
    match name {
        "fmt.Println" => {
            let line = render_all(vm, &args, " ");
            vm.output.push_str(&line);
            vm.output.push('\n');
            O::Value(Value::Nil)
        }
        "fmt.Printf" => {
            let fmt = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let line = format_go(vm, &fmt, &args[1..]);
            vm.output.push_str(&line);
            O::Value(Value::Nil)
        }
        "fmt.Sprintf" => {
            let fmt = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            O::Value(Value::str(format_go(vm, &fmt, &args[1..])))
        }
        "fmt.Sprint" => O::Value(Value::str(render_all(vm, &args, ""))),
        "fmt.Errorf" => {
            let fmt = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            O::Value(Value::error(format_go(vm, &fmt, &args[1..])))
        }
        "errors.New" => O::Value(Value::error(
            args.first().map(|v| v.render(&vm.heap)).unwrap_or_default(),
        )),
        "errors.Is" => O::Value(Value::Bool(args.len() == 2 && args[0].go_eq(&args[1]))),
        "time.Sleep" => {
            let d = args.first().and_then(|v| v.as_int()).unwrap_or(0).max(0) as u64;
            O::Sleep(vm.steps + d.max(1), Value::Nil)
        }
        "time.Now" => O::Value(Value::Int(vm.steps as i64)),
        "time.Since" => {
            let t = args.first().and_then(|v| v.as_int()).unwrap_or(0);
            O::Value(Value::Int(vm.steps as i64 - t))
        }
        "time.After" => {
            let d = args.first().and_then(|v| v.as_int()).unwrap_or(1).max(1) as u64;
            let ch = vm.heap.alloc_chan(1);
            if let Value::Chan(r) = ch {
                vm.memo.opaque(vm.steps);
                let jitter = vm.sched.rng.gen_range(1..=d.max(1));
                vm.timers.push((vm.steps + jitter, r));
            }
            O::Value(ch)
        }
        "context.Background" | "context.TODO" => O::Value(make_struct(
            vm,
            "context.Context",
            vec![("done", Value::Nil)],
        )),
        "context.WithTimeout" => {
            let ch = vm.heap.alloc_chan(1);
            if let Value::Chan(r) = ch {
                // Deadline jitter models wall-clock nondeterminism: the
                // deadline may fire before or after dependent work.
                let d = args.get(1).and_then(|v| v.as_int()).unwrap_or(60).max(2) as u64;
                vm.memo.opaque(vm.steps);
                let fire = vm.sched.rng.gen_range(2..=d.clamp(2, 240));
                vm.timers.push((vm.steps + fire, r));
            }
            let ctx = make_struct(vm, "context.Context", vec![("done", ch.clone())]);
            let cancel_name = vm.intern("$cancel");
            let cancel = Value::Method {
                recv: Box::new(ch),
                name: cancel_name,
            };
            O::Value(Value::Tuple(std::rc::Rc::new(vec![ctx, cancel])))
        }
        "context.WithCancel" => {
            let ch = vm.heap.alloc_chan(1);
            let ctx = make_struct(vm, "context.Context", vec![("done", ch.clone())]);
            let cancel_name = vm.intern("$cancel");
            let cancel = Value::Method {
                recv: Box::new(ch),
                name: cancel_name,
            };
            O::Value(Value::Tuple(std::rc::Rc::new(vec![ctx, cancel])))
        }
        "rand.NewSource" => {
            let seed = args.first().and_then(|v| v.as_int()).unwrap_or(1);
            O::Value(make_struct(
                vm,
                "rand.Source",
                vec![("state", Value::Int(seed))],
            ))
        }
        "rand.New" => {
            let src = args.into_iter().next().unwrap_or(Value::Nil);
            O::Value(make_struct(vm, "rand.Rand", vec![("src", src)]))
        }
        "rand.Intn" | "rand.Int63" | "rand.Float64" => {
            if vm.global_rand.is_none() {
                let s = make_struct(vm, "rand.Source", vec![("state", Value::Int(99))]);
                vm.global_rand = Some(s);
            }
            let g = vm.global_rand.clone().expect("global rand");
            let addr = rand_state_addr(vm, &g).expect("rand state");
            let raw = step_source(vm, gid, addr);
            match name {
                "rand.Intn" => {
                    let n = args.first().and_then(|v| v.as_int()).unwrap_or(1).max(1);
                    O::Value(Value::Int(raw % n))
                }
                "rand.Float64" => O::Value(Value::Float((raw % 1_000_000) as f64 / 1_000_000.0)),
                _ => O::Value(Value::Int(raw)),
            }
        }
        "md5.New" => O::Value(make_struct(vm, "md5.Hash", vec![("state", Value::Int(0))])),
        "strings.NewReader" => {
            let s = args.into_iter().next().unwrap_or(Value::str(""));
            O::Value(make_struct(
                vm,
                "strings.Reader",
                vec![("data", s), ("pos", Value::Int(0))],
            ))
        }
        "strings.Repeat" => {
            let s = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let n = args.get(1).and_then(|v| v.as_int()).unwrap_or(0).max(0) as usize;
            O::Value(Value::str(s.repeat(n)))
        }
        "strings.Contains" => {
            let s = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let sub = args.get(1).map(|v| v.render(&vm.heap)).unwrap_or_default();
            O::Value(Value::Bool(s.contains(&sub)))
        }
        "strings.ToUpper" => {
            let s = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            O::Value(Value::str(s.to_uppercase()))
        }
        "strings.Join" => {
            let sep = args.get(1).map(|v| v.render(&vm.heap)).unwrap_or_default();
            match args.first() {
                Some(Value::Slice(r)) => {
                    let addrs = vm.heap.slices[*r].elems.clone();
                    let parts: Vec<String> = addrs
                        .into_iter()
                        .map(|a| vm.read_cell(gid, a).render(&vm.heap))
                        .collect();
                    O::Value(Value::str(parts.join(&sep)))
                }
                _ => O::Value(Value::str("")),
            }
        }
        "io.Copy" | "io.CopyN" => {
            let n = if name == "io.CopyN" {
                args.get(2).and_then(|v| v.as_int()).unwrap_or(1)
            } else {
                1
            };
            // Touch the reader's mutable state (race-tracked).
            if let Some(src) = args.get(1) {
                if let Some(addr) = rand_state_addr(vm, src) {
                    step_source(vm, gid, addr);
                } else if let Some(r) = struct_ref(src) {
                    if let Some(pos_addr) = vm.heap.structs[r].field("pos") {
                        let cur = vm.read_cell(gid, pos_addr).as_int().unwrap_or(0);
                        vm.write_cell(gid, pos_addr, Value::Int(cur + n));
                    }
                }
            }
            // Feed the writer if it is a hash.
            if let Some(dst) = args.first() {
                if struct_type(vm, dst) == Some("md5.Hash") {
                    if let Some(r) = struct_ref(dst) {
                        if let Some(a) = vm.heap.structs[r].field("state") {
                            let cur = vm.read_cell(gid, a).as_int().unwrap_or(0);
                            vm.write_cell(gid, a, Value::Int(cur.wrapping_mul(31).wrapping_add(n)));
                        }
                    }
                }
            }
            O::Value(Value::Tuple(std::rc::Rc::new(vec![
                Value::Int(n),
                Value::Nil,
            ])))
        }
        "strconv.Itoa" => {
            let n = args.first().and_then(|v| v.as_int()).unwrap_or(0);
            O::Value(Value::str(n.to_string()))
        }
        "strconv.Atoi" => {
            let s = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            match s.trim().parse::<i64>() {
                Ok(n) => O::Value(Value::Tuple(std::rc::Rc::new(vec![
                    Value::Int(n),
                    Value::Nil,
                ]))),
                Err(_) => O::Value(Value::Tuple(std::rc::Rc::new(vec![
                    Value::Int(0),
                    Value::error("invalid syntax"),
                ]))),
            }
        }
        "assert.Equal" => {
            if args.len() >= 3 && !args[1].go_eq(&args[2]) {
                let msg = format!(
                    "assert.Equal failed: expected {} got {}",
                    args[1].render(&vm.heap),
                    args[2].render(&vm.heap)
                );
                vm.test_failures.push(msg);
            }
            O::Value(Value::Bool(true))
        }
        "assert.True" => {
            if args.get(1).and_then(|v| v.as_bool()) != Some(true) {
                vm.test_failures.push("assert.True failed".into());
            }
            O::Value(Value::Bool(true))
        }
        "assert.False" => {
            if args.get(1).and_then(|v| v.as_bool()) != Some(false) {
                vm.test_failures.push("assert.False failed".into());
            }
            O::Value(Value::Bool(true))
        }
        "assert.NoError" => {
            if args.get(1).map(|v| !v.is_nil()).unwrap_or(false) {
                vm.test_failures.push(format!(
                    "assert.NoError failed: {}",
                    args[1].render(&vm.heap)
                ));
            }
            O::Value(Value::Bool(true))
        }
        "assert.Error" => {
            if args.get(1).map(|v| v.is_nil()).unwrap_or(true) {
                vm.test_failures.push("assert.Error failed".into());
            }
            O::Value(Value::Bool(true))
        }
        "assert.Nil" => {
            if args.get(1).map(|v| !v.is_nil()).unwrap_or(false) {
                vm.test_failures.push("assert.Nil failed".into());
            }
            O::Value(Value::Bool(true))
        }
        "assert.NotNil" => {
            if args.get(1).map(|v| v.is_nil()).unwrap_or(true) {
                vm.test_failures.push("assert.NotNil failed".into());
            }
            O::Value(Value::Bool(true))
        }
        "assert.Fail" => {
            let msg = args.get(1).map(|v| v.render(&vm.heap)).unwrap_or_default();
            vm.test_failures.push(format!("assert.Fail: {msg}"));
            O::Value(Value::Bool(true))
        }
        "assert.Len" => O::Value(Value::Bool(true)),
        "atomic.AddInt32" | "atomic.AddInt64" => match args.first() {
            Some(Value::Ptr(a)) => {
                vm.det.atomic_op(gid, SYNC_ATOMIC | *a);
                let delta = args.get(1).and_then(|v| v.as_int()).unwrap_or(0);
                let cur = vm.heap.load_silent(*a).as_int().unwrap_or(0);
                let next = cur.wrapping_add(delta);
                vm.heap.store_silent(*a, Value::Int(next));
                O::Value(Value::Int(next))
            }
            _ => O::Error("atomic add of non-pointer".into()),
        },
        "atomic.LoadInt32" | "atomic.LoadInt64" => match args.first() {
            Some(Value::Ptr(a)) => {
                vm.det.atomic_op(gid, SYNC_ATOMIC | *a);
                O::Value(vm.heap.load_silent(*a).clone())
            }
            _ => O::Error("atomic load of non-pointer".into()),
        },
        "atomic.StoreInt32" | "atomic.StoreInt64" => match args.first() {
            Some(Value::Ptr(a)) => {
                vm.det.atomic_op(gid, SYNC_ATOMIC | *a);
                let v = args.get(1).cloned().unwrap_or(Value::Int(0));
                vm.heap.store_silent(*a, v);
                O::Value(Value::Nil)
            }
            _ => O::Error("atomic store of non-pointer".into()),
        },
        "atomic.CompareAndSwapInt32" | "atomic.CompareAndSwapInt64" => match args.first() {
            Some(Value::Ptr(a)) => {
                vm.det.atomic_op(gid, SYNC_ATOMIC | *a);
                let old = args.get(1).and_then(|v| v.as_int()).unwrap_or(0);
                let new = args.get(2).and_then(|v| v.as_int()).unwrap_or(0);
                let cur = vm.heap.load_silent(*a).as_int().unwrap_or(0);
                if cur == old {
                    vm.heap.store_silent(*a, Value::Int(new));
                    O::Value(Value::Bool(true))
                } else {
                    O::Value(Value::Bool(false))
                }
            }
            _ => O::Error("atomic CAS of non-pointer".into()),
        },
        "runtime.Gosched" => O::Sleep(vm.steps + 1, Value::Nil),
        "copy" => {
            let (dst, src) = (args.first().cloned(), args.get(1).cloned());
            match (dst, src) {
                (Some(Value::Slice(d)), Some(Value::Slice(s))) => {
                    let n = vm.heap.slices[d]
                        .elems
                        .len()
                        .min(vm.heap.slices[s].elems.len());
                    for i in 0..n {
                        let sa = vm.heap.slices[s].elems[i];
                        let da = vm.heap.slices[d].elems[i];
                        let v = vm.read_cell(gid, sa);
                        vm.write_cell(gid, da, v);
                    }
                    O::Value(Value::Int(n as i64))
                }
                _ => O::Value(Value::Int(0)),
            }
        }
        "conv.int" => match args.into_iter().next() {
            Some(Value::Int(i)) => O::Value(Value::Int(i)),
            Some(Value::Float(f)) => O::Value(Value::Int(f as i64)),
            Some(Value::Bool(b)) => O::Value(Value::Int(b as i64)),
            Some(other) => O::Error(format!("cannot convert {} to int", other.type_name())),
            None => O::Value(Value::Int(0)),
        },
        "conv.float" => match args.into_iter().next() {
            Some(Value::Int(i)) => O::Value(Value::Float(i as f64)),
            Some(Value::Float(f)) => O::Value(Value::Float(f)),
            Some(other) => O::Error(format!("cannot convert {} to float", other.type_name())),
            None => O::Value(Value::Float(0.0)),
        },
        "conv.string" => match args.into_iter().next() {
            Some(Value::Str(s)) => O::Value(Value::Str(s)),
            Some(Value::Error(e)) => O::Value(Value::Str(e)),
            Some(Value::Int(i)) => O::Value(Value::str(
                char::from_u32(i as u32).unwrap_or('\u{fffd}').to_string(),
            )),
            Some(other) => O::Value(Value::str(other.type_name())),
            None => O::Value(Value::str("")),
        },
        "conv.duration" => match args.into_iter().next() {
            Some(Value::Int(i)) => O::Value(Value::Int(i)),
            _ => O::Value(Value::Int(0)),
        },
        other => O::Error(format!("builtin `{other}` not implemented")),
    }
}

// ----------------------------------------------------------- native methods

pub(crate) fn dispatch_method(
    vm: &mut Vm,
    gid: Gid,
    recv: &Value,
    method: NativeMethod,
    args: &[Value],
) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    match recv {
        Value::Mutex(r) => mutex_method(vm, gid, *r, method),
        Value::RwMutex(r) => rwmutex_method(vm, gid, *r, method),
        Value::WaitGroup(r) => waitgroup_method(vm, gid, *r, method, args),
        Value::SyncMap(r) => syncmap_method(vm, gid, *r, method, args),
        Value::Chan(r) => {
            if method == N::Cancel {
                vm.close_chan_internal(*r);
                M::Done(Value::Nil)
            } else {
                M::NotNative
            }
        }
        Value::Ptr(a) => {
            // Auto-deref pointer receivers for native methods. The one
            // clone on this path: the inner value is lifted out of the
            // heap so the recursion can borrow it while the VM is
            // mutably borrowed — cheap for the sync primitives this
            // exists for (they are object refs).
            let inner = vm.heap.load_silent(*a).clone();
            if matches!(
                inner,
                Value::Struct(_)
                    | Value::Mutex(_)
                    | Value::RwMutex(_)
                    | Value::WaitGroup(_)
                    | Value::SyncMap(_)
            ) {
                dispatch_method(vm, gid, &inner, method, args)
            } else {
                M::NotNative
            }
        }
        Value::Struct(r) => {
            let ty = vm.heap.structs[*r].type_name.clone();
            match (&*ty, method) {
                ("testing.T", _) => testing_method(vm, gid, *r, method, args),
                ("context.Context", N::Done) => {
                    let done = sfield(vm, *r, "done").unwrap_or(Value::Nil);
                    match done {
                        Value::Chan(_) => M::Done(done),
                        _ => {
                            if vm.never_chan.is_none() {
                                if let Value::Chan(c) = vm.heap.alloc_chan(0) {
                                    vm.never_chan = Some(c);
                                }
                            }
                            M::Done(Value::Chan(vm.never_chan.expect("never chan")))
                        }
                    }
                }
                ("context.Context", N::Err) => M::Done(Value::Nil),
                ("context.Context", N::Value) => M::Done(Value::Nil),
                ("rand.Rand", N::Intn) | ("rand.Source", N::Intn) => {
                    match rand_state_addr(vm, recv) {
                        Some(addr) => {
                            let raw = step_source(vm, gid, addr);
                            let n = args.first().and_then(|v| v.as_int()).unwrap_or(1).max(1);
                            M::Done(Value::Int(raw % n))
                        }
                        None => M::Error("rand state missing".into()),
                    }
                }
                ("rand.Rand", N::Int63) | ("rand.Source", N::Int63) => {
                    match rand_state_addr(vm, recv) {
                        Some(addr) => M::Done(Value::Int(step_source(vm, gid, addr))),
                        None => M::Error("rand state missing".into()),
                    }
                }
                ("rand.Rand", N::Float64) => match rand_state_addr(vm, recv) {
                    Some(addr) => {
                        let raw = step_source(vm, gid, addr);
                        M::Done(Value::Float((raw % 1_000_000) as f64 / 1_000_000.0))
                    }
                    None => M::Error("rand state missing".into()),
                },
                ("md5.Hash", N::Write) => {
                    let Some(a) = vm.heap.structs[*r].field("state") else {
                        return M::Error("hash state missing".into());
                    };
                    let add = match args.first() {
                        Some(Value::Str(s)) => s.len() as i64 + 7,
                        Some(Value::Slice(sl)) => vm.heap.slices[*sl].elems.len() as i64 + 3,
                        _ => 1,
                    };
                    let cur = vm.read_cell(gid, a).as_int().unwrap_or(0);
                    vm.write_cell(gid, a, Value::Int(cur.wrapping_mul(31).wrapping_add(add)));
                    M::Done(Value::Tuple(std::rc::Rc::new(vec![
                        Value::Int(add),
                        Value::Nil,
                    ])))
                }
                ("md5.Hash", N::Sum) => {
                    let Some(a) = vm.heap.structs[*r].field("state") else {
                        return M::Error("hash state missing".into());
                    };
                    let cur = vm.read_cell(gid, a).as_int().unwrap_or(0);
                    M::Done(Value::str(format!("{cur:016x}")))
                }
                ("md5.Hash", N::Reset) => {
                    let Some(a) = vm.heap.structs[*r].field("state") else {
                        return M::Error("hash state missing".into());
                    };
                    vm.write_cell(gid, a, Value::Int(0));
                    M::Done(Value::Nil)
                }
                ("strings.Reader", N::Read) => {
                    let Some(pos) = vm.heap.structs[*r].field("pos") else {
                        return M::Error("reader state missing".into());
                    };
                    let data = sfield(vm, *r, "data")
                        .map(|v| v.render(&vm.heap))
                        .unwrap_or_default();
                    let cur = vm.read_cell(gid, pos).as_int().unwrap_or(0);
                    if cur as usize >= data.len() {
                        M::Done(Value::Tuple(std::rc::Rc::new(vec![
                            Value::Int(0),
                            Value::error("EOF"),
                        ])))
                    } else {
                        let n = (data.len() as i64 - cur).min(8);
                        vm.write_cell(gid, pos, Value::Int(cur + n));
                        M::Done(Value::Tuple(std::rc::Rc::new(vec![
                            Value::Int(n),
                            Value::Nil,
                        ])))
                    }
                }
                ("strings.Reader", N::Len) => {
                    let data = sfield(vm, *r, "data")
                        .map(|v| v.render(&vm.heap))
                        .unwrap_or_default();
                    M::Done(Value::Int(data.len() as i64))
                }
                _ => {
                    // Embedded sync-primitive promotion: `c.Lock()` where
                    // the struct embeds sync.Mutex.
                    promote_embedded(vm, gid, *r, method)
                }
            }
        }
        _ => M::NotNative,
    }
}

/// Promotes `Lock`/`Unlock`/… through embedded sync primitives.
fn promote_embedded(vm: &mut Vm, gid: Gid, s: ObjRef, method: NativeMethod) -> MethodOutcome {
    use NativeMethod as N;
    let fields = vm.heap.structs[s].fields.clone();
    for (_, addr) in fields {
        let v = vm.heap.load_silent(addr).clone();
        match (&v, method) {
            (Value::Mutex(r), N::Lock | N::Unlock | N::TryLock) => {
                return mutex_method(vm, gid, *r, method)
            }
            (Value::RwMutex(r), N::Lock | N::Unlock | N::RLock | N::RUnlock) => {
                return rwmutex_method(vm, gid, *r, method)
            }
            (Value::WaitGroup(r), N::Add | N::Done | N::Wait) => {
                return waitgroup_method(vm, gid, *r, method, &[])
            }
            _ => {}
        }
    }
    MethodOutcome::NotNative
}

fn mutex_method(vm: &mut Vm, gid: Gid, r: ObjRef, method: NativeMethod) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    let sid = SYNC_MUTEX | r as u64;
    match method {
        N::Lock => {
            if vm.heap.mutexes[r].locked {
                if !vm.heap.mutexes[r].waiters.contains(&gid) {
                    vm.heap.mutexes[r].waiters.push(gid);
                }
                M::Park("mutex lock")
            } else {
                vm.heap.mutexes[r].locked = true;
                vm.det.acquire(gid, sid);
                M::Done(Value::Nil)
            }
        }
        N::TryLock => {
            if vm.heap.mutexes[r].locked {
                M::Done(Value::Bool(false))
            } else {
                vm.heap.mutexes[r].locked = true;
                vm.det.acquire(gid, sid);
                M::Done(Value::Bool(true))
            }
        }
        N::Unlock => {
            if !vm.heap.mutexes[r].locked {
                return M::Error("sync: unlock of unlocked mutex".into());
            }
            vm.det.release(gid, sid);
            vm.heap.mutexes[r].locked = false;
            let waiters = std::mem::take(&mut vm.heap.mutexes[r].waiters);
            vm.heap.mutexes[r].waiters = wake_all(vm, waiters);
            M::Done(Value::Nil)
        }
        _ => M::NotNative,
    }
}

fn rwmutex_method(vm: &mut Vm, gid: Gid, r: ObjRef, method: NativeMethod) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    let wid = SYNC_RW_W | r as u64;
    let rid = SYNC_RW_R | r as u64;
    match method {
        N::Lock => {
            let m = &vm.heap.rwmutexes[r];
            if m.write_locked || m.readers > 0 {
                if !vm.heap.rwmutexes[r].write_waiters.contains(&gid) {
                    vm.heap.rwmutexes[r].write_waiters.push(gid);
                }
                M::Park("rwmutex lock")
            } else {
                vm.heap.rwmutexes[r].write_locked = true;
                vm.det.acquire(gid, wid);
                vm.det.acquire(gid, rid);
                M::Done(Value::Nil)
            }
        }
        N::Unlock => {
            if !vm.heap.rwmutexes[r].write_locked {
                return M::Error("sync: unlock of unlocked RWMutex".into());
            }
            vm.det.release(gid, wid);
            vm.heap.rwmutexes[r].write_locked = false;
            let ws = std::mem::take(&mut vm.heap.rwmutexes[r].write_waiters);
            let rs = std::mem::take(&mut vm.heap.rwmutexes[r].read_waiters);
            vm.heap.rwmutexes[r].write_waiters = wake_all(vm, ws);
            vm.heap.rwmutexes[r].read_waiters = wake_all(vm, rs);
            M::Done(Value::Nil)
        }
        N::RLock => {
            if vm.heap.rwmutexes[r].write_locked {
                if !vm.heap.rwmutexes[r].read_waiters.contains(&gid) {
                    vm.heap.rwmutexes[r].read_waiters.push(gid);
                }
                M::Park("rwmutex rlock")
            } else {
                vm.heap.rwmutexes[r].readers += 1;
                vm.det.acquire(gid, wid);
                M::Done(Value::Nil)
            }
        }
        N::RUnlock => {
            if vm.heap.rwmutexes[r].readers == 0 {
                return M::Error("sync: RUnlock of unlocked RWMutex".into());
            }
            vm.det.release_merge(gid, rid);
            vm.heap.rwmutexes[r].readers -= 1;
            if vm.heap.rwmutexes[r].readers == 0 {
                let ws = std::mem::take(&mut vm.heap.rwmutexes[r].write_waiters);
                vm.heap.rwmutexes[r].write_waiters = wake_all(vm, ws);
            }
            M::Done(Value::Nil)
        }
        _ => M::NotNative,
    }
}

fn waitgroup_method(
    vm: &mut Vm,
    gid: Gid,
    r: ObjRef,
    method: NativeMethod,
    args: &[Value],
) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    let sid = SYNC_WG | r as u64;
    match method {
        N::Add => {
            let n = args.first().and_then(|v| v.as_int()).unwrap_or(1);
            vm.heap.waitgroups[r].counter += n;
            if vm.heap.waitgroups[r].counter < 0 {
                return M::Error("sync: negative WaitGroup counter".into());
            }
            if vm.heap.waitgroups[r].counter == 0 {
                wake_wg_waiters(vm, r);
            }
            M::Done(Value::Nil)
        }
        N::Done => {
            vm.det.release_merge(gid, sid);
            vm.heap.waitgroups[r].counter -= 1;
            if vm.heap.waitgroups[r].counter < 0 {
                return M::Error("sync: negative WaitGroup counter".into());
            }
            if vm.heap.waitgroups[r].counter == 0 {
                wake_wg_waiters(vm, r);
            }
            M::Done(Value::Nil)
        }
        N::Wait => {
            if vm.heap.waitgroups[r].counter != 0 {
                if !vm.heap.waitgroups[r].waiters.contains(&gid) {
                    vm.heap.waitgroups[r].waiters.push(gid);
                }
                M::Park("waitgroup wait")
            } else {
                vm.det.acquire(gid, sid);
                M::Done(Value::Nil)
            }
        }
        _ => M::NotNative,
    }
}

fn wake_wg_waiters(vm: &mut Vm, r: ObjRef) {
    let waiters = std::mem::take(&mut vm.heap.waitgroups[r].waiters);
    vm.heap.waitgroups[r].waiters = wake_all(vm, waiters);
}

/// Wakes every blocked goroutine in `waiters` and hands the vector back
/// *cleared but with its capacity intact* — waiter lists cycle through
/// take/park constantly on contended locks, and re-allocating the
/// buffer on every park showed up in sync-heavy profiles.
fn wake_all(vm: &mut Vm, mut waiters: Vec<Gid>) -> Vec<Gid> {
    for &w in &waiters {
        if vm.gos[w].status == Status::Blocked {
            vm.set_status(w, Status::Runnable);
        }
    }
    waiters.clear();
    waiters
}

fn syncmap_method(
    vm: &mut Vm,
    gid: Gid,
    r: ObjRef,
    method: NativeMethod,
    args: &[Value],
) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    let sid = SYNC_SYNCMAP | r as u64;
    vm.det.atomic_op(gid, sid);
    match method {
        N::Load => {
            let Some(key) = args.first().and_then(MapKey::from_value) else {
                return M::Error("invalid sync.Map key".into());
            };
            match vm.heap.syncmaps[r].entries.get(&key) {
                Some(v) => M::Done(Value::Tuple(std::rc::Rc::new(vec![
                    v.clone(),
                    Value::Bool(true),
                ]))),
                None => M::Done(Value::Tuple(std::rc::Rc::new(vec![
                    Value::Nil,
                    Value::Bool(false),
                ]))),
            }
        }
        N::Store => {
            let Some(key) = args.first().and_then(MapKey::from_value) else {
                return M::Error("invalid sync.Map key".into());
            };
            let v = args.get(1).cloned().unwrap_or(Value::Nil);
            vm.heap.syncmaps[r].entries.insert(key, v);
            M::Done(Value::Nil)
        }
        N::Delete => {
            let Some(key) = args.first().and_then(MapKey::from_value) else {
                return M::Error("invalid sync.Map key".into());
            };
            vm.heap.syncmaps[r].entries.remove(&key);
            M::Done(Value::Nil)
        }
        N::LoadOrStore => {
            let Some(key) = args.first().and_then(MapKey::from_value) else {
                return M::Error("invalid sync.Map key".into());
            };
            let v = args.get(1).cloned().unwrap_or(Value::Nil);
            match vm.heap.syncmaps[r].entries.get(&key) {
                Some(existing) => M::Done(Value::Tuple(std::rc::Rc::new(vec![
                    existing.clone(),
                    Value::Bool(true),
                ]))),
                None => {
                    vm.heap.syncmaps[r].entries.insert(key, v.clone());
                    M::Done(Value::Tuple(std::rc::Rc::new(vec![v, Value::Bool(false)])))
                }
            }
        }
        N::Range => {
            let f = args.first().cloned().unwrap_or(Value::Nil);
            let entries: Vec<(MapKey, Value)> = vm.heap.syncmaps[r]
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            for (k, v) in entries {
                let mut call_args = vm.arg_buf();
                call_args.push(k.to_value());
                call_args.push(v);
                match run_nested_call(vm, gid, f.clone(), call_args) {
                    Ok(Value::Bool(false)) => break,
                    Ok(_) => {}
                    Err(e) => return M::Error(e),
                }
            }
            M::Done(Value::Nil)
        }
        _ => M::NotNative,
    }
}

fn testing_method(
    vm: &mut Vm,
    gid: Gid,
    t: ObjRef,
    method: NativeMethod,
    args: &[Value],
) -> MethodOutcome {
    use MethodOutcome as M;
    use NativeMethod as N;
    match method {
        N::Run => {
            let name = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let f = args.get(1).cloned().unwrap_or(Value::Nil);
            let parent_name = sfield(vm, t, "name")
                .map(|v| v.render(&vm.heap))
                .unwrap_or_default();
            let child_t = make_struct(
                vm,
                "testing.T",
                vec![
                    ("name", Value::str(format!("{parent_name}/{name}"))),
                    ("$parent", Value::Int(gid as i64)),
                    ("$signaled", Value::Bool(false)),
                ],
            );
            let mut call_args = vm.arg_buf();
            call_args.push(child_t.clone());
            match vm.spawn(Some(gid), f, call_args) {
                Ok(child) => {
                    vm.gos[child].on_exit = Some(OnExit::Subtest { tvalue: child_t });
                    // t.Run(name, f): argc 2 + callee = 3 operands.
                    vm.gos[gid].wake = Some(WakeAction {
                        pops: 3,
                        push: vec![Value::Bool(true)],
                        acquire: None,
                        jump_to: None,
                    });
                    M::ParkArmed("t.Run")
                }
                Err(e) => M::Error(e),
            }
        }
        N::Parallel => {
            signal_parent(vm, gid, t);
            M::Done(Value::Nil)
        }
        N::Name => M::Done(sfield(vm, t, "name").unwrap_or(Value::str(""))),
        N::Errorf | N::Error | N::Fatalf | N::Fatal | N::Fail | N::FailNow => {
            let fmt = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let msg = format_go(vm, &fmt, args.get(1..).unwrap_or(&[]));
            vm.test_failures.push(format!("{}: {msg}", method.as_str()));
            M::Done(Value::Nil)
        }
        N::Logf | N::Log => {
            let fmt = args.first().map(|v| v.render(&vm.heap)).unwrap_or_default();
            let msg = format_go(vm, &fmt, args.get(1..).unwrap_or(&[]));
            vm.output.push_str(&msg);
            vm.output.push('\n');
            M::Done(Value::Nil)
        }
        N::Helper | N::Cleanup | N::Skip | N::SkipNow | N::Skipf | N::Setenv => M::Done(Value::Nil),
        _ => M::NotNative,
    }
}

/// Wakes the parent blocked in `t.Run` (used by `t.Parallel` and subtest
/// exit), with a happens-before edge from the child.
fn signal_parent(vm: &mut Vm, child_gid: Gid, t: ObjRef) {
    let parent = sfield(vm, t, "$parent")
        .and_then(|v| v.as_int())
        .unwrap_or(-1);
    let signaled = sfield(vm, t, "$signaled")
        .and_then(|v| v.as_bool())
        .unwrap_or(true);
    if parent < 0 || signaled {
        return;
    }
    sfield_set(vm, t, "$signaled", Value::Bool(true));
    let p = parent as usize;
    let clock = vm.det.release_snapshot(child_gid);
    if let Some(w) = &mut vm.gos[p].wake {
        w.acquire = Some(clock);
    }
    if vm.gos[p].status == Status::Blocked {
        vm.set_status(p, Status::Runnable);
    }
}

/// Called by the VM whenever a goroutine finishes.
pub(crate) fn on_goroutine_exit(vm: &mut Vm, gid: Gid) {
    if let Some(OnExit::Subtest { tvalue }) = vm.gos[gid].on_exit.take() {
        if let Some(t) = struct_ref(&tvalue) {
            signal_parent(vm, gid, t);
        }
    }
}

/// Runs a callback synchronously inside a native (used by
/// `sync.Map.Range`). The callback must not block.
pub(crate) fn run_nested_call(
    vm: &mut Vm,
    gid: Gid,
    callee: Value,
    args: Vec<Value>,
) -> Result<Value, String> {
    let base = vm.gos[gid].frames.len();
    // The caller frame sits mid-instruction; frame pops below will bump
    // its pc, so save and restore it around the nested execution.
    let saved_pc = vm.gos[gid].frames.last().map(|f| f.pc);
    vm.push_call(gid, callee, args)?;
    let mut guard = 0u64;
    loop {
        guard += 1;
        if guard > 1_000_000 {
            return Err("nested call ran too long".into());
        }
        if vm.gos[gid].frames.len() == base {
            if let (Some(pc), Some(f)) = (saved_pc, vm.gos[gid].frames.last_mut()) {
                f.pc = pc;
            }
            return Ok(vm.gos[gid].stack.pop().unwrap_or(Value::Nil));
        }
        if vm.gos[gid]
            .frames
            .last()
            .map(|f| f.returning.is_some())
            .unwrap_or(false)
        {
            vm.proceed_return_public(gid);
            continue;
        }
        let Some((fid, pc)) = vm.gos[gid].frames.last().map(|f| (f.func, f.pc)) else {
            return Err("nested call lost its frame".into());
        };
        let prog = vm.prog;
        let code = &prog.funcs[fid as usize].code;
        if pc >= code.len() {
            vm.start_return_public(gid, Value::Nil);
            continue;
        }
        match crate::ops::exec(vm, gid, &code[pc]) {
            crate::vm::Flow::Next => {
                if let Some(f) = vm.gos[gid].frames.last_mut() {
                    f.pc += 1;
                }
            }
            crate::vm::Flow::Jump(t) => {
                if let Some(f) = vm.gos[gid].frames.last_mut() {
                    f.pc = t;
                }
            }
            crate::vm::Flow::Stay => {}
            crate::vm::Flow::Park(r) => {
                return Err(format!("callback blocked on {r} inside sync.Map.Range"))
            }
            crate::vm::Flow::Returned(v) => {
                vm.start_return_public(gid, v);
            }
            crate::vm::Flow::Panic(m) => return Err(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, name) in BUILTIN_NAMES.iter().enumerate() {
            assert!(seen.insert(*name), "duplicate builtin {name}");
            assert_eq!(builtin_id(name), Some(i as u16));
            assert_eq!(builtin_name(i as u16), *name);
        }
        assert_eq!(builtin_id("no.such"), None);
    }

    #[test]
    fn duration_constants_fold() {
        assert_eq!(const_value("time.Minute"), Some(60));
        assert_eq!(const_value("time.Fortnight"), None);
    }

    #[test]
    fn native_method_names_round_trip() {
        use NativeMethod as N;
        for m in [
            N::Lock,
            N::TryLock,
            N::Unlock,
            N::RLock,
            N::RUnlock,
            N::Add,
            N::Done,
            N::Wait,
            N::Load,
            N::Store,
            N::Delete,
            N::LoadOrStore,
            N::Range,
            N::Cancel,
            N::Err,
            N::Value,
            N::Intn,
            N::Int63,
            N::Float64,
            N::Write,
            N::Sum,
            N::Reset,
            N::Read,
            N::Len,
            N::Run,
            N::Parallel,
            N::Name,
            N::Errorf,
            N::Error,
            N::Fatalf,
            N::Fatal,
            N::Fail,
            N::FailNow,
            N::Logf,
            N::Log,
            N::Helper,
            N::Cleanup,
            N::Skip,
            N::SkipNow,
            N::Skipf,
            N::Setenv,
        ] {
            assert_eq!(NativeMethod::from_name(m.as_str()), Some(m));
        }
        assert_eq!(NativeMethod::from_name("NoSuchMethod"), None);
        assert_eq!(NativeMethod::from_name(""), None);
    }
}
