//! Runtime values and the heap.
//!
//! Every mutable storage location (local variable, struct field, slice
//! element, map entry, package-level variable) is a *cell* in a central
//! heap, identified by a dense `Addr`. Closures capture cells by
//! reference — exactly Go's capture-by-reference semantics — and the race
//! detector tracks happens-before per cell. Aggregate objects (slices,
//! maps, structs, channels, sync primitives) live in side arenas and are
//! referenced by index, so `Value` stays cheap to clone.

use racedet::VectorClock;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::rc::Rc;

/// Address of a heap cell.
pub type Addr = u64;

/// Index into one of the heap's object arenas.
pub type ObjRef = usize;

/// Goroutine id (alias of the detector's thread id).
pub type Gid = usize;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `nil`.
    Nil,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (models all Go integer types).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable string.
    Str(Rc<str>),
    /// An error value (created by `errors.New` / `fmt.Errorf`).
    Error(Rc<str>),
    /// Pointer to a heap cell.
    Ptr(Addr),
    /// Slice object reference.
    Slice(ObjRef),
    /// Map object reference.
    Map(ObjRef),
    /// Struct object reference.
    Struct(ObjRef),
    /// Channel object reference.
    Chan(ObjRef),
    /// Closure object reference.
    Closure(ObjRef),
    /// A named top-level function.
    Func(u32),
    /// `sync.Mutex` reference.
    Mutex(ObjRef),
    /// `sync.RWMutex` reference.
    RwMutex(ObjRef),
    /// `sync.WaitGroup` reference.
    WaitGroup(ObjRef),
    /// `sync.Map` reference.
    SyncMap(ObjRef),
    /// A multi-value bundle (function results).
    Tuple(Rc<Vec<Value>>),
    /// A builtin function.
    Builtin(u16),
    /// A method value: receiver bound, dispatched at call time.
    Method {
        /// The bound receiver.
        recv: Box<Value>,
        /// Method name (string-pool id).
        name: u32,
    },
    /// A live range iterator.
    Iter(ObjRef),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Creates an error value.
    pub fn error(s: impl AsRef<str>) -> Value {
        Value::Error(Rc::from(s.as_ref()))
    }

    /// Go truthiness for conditions (must be a bool).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns `true` for `nil` (including typed nil comparisons).
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Equality per Go `==` (nil compares equal to nil only).
    pub fn go_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Nil, _) | (_, Value::Nil) => false,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Error(a), Value::Error(b)) => a == b,
            (Value::Ptr(a), Value::Ptr(b)) => a == b,
            (Value::Slice(a), Value::Slice(b)) => a == b,
            (Value::Map(a), Value::Map(b)) => a == b,
            (Value::Struct(a), Value::Struct(b)) => a == b,
            (Value::Chan(a), Value::Chan(b)) => a == b,
            (Value::Closure(a), Value::Closure(b)) => a == b,
            (Value::Func(a), Value::Func(b)) => a == b,
            (Value::Mutex(a), Value::Mutex(b)) => a == b,
            (Value::RwMutex(a), Value::RwMutex(b)) => a == b,
            (Value::WaitGroup(a), Value::WaitGroup(b)) => a == b,
            (Value::SyncMap(a), Value::SyncMap(b)) => a == b,
            _ => false,
        }
    }

    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float64",
            Value::Str(_) => "string",
            Value::Error(_) => "error",
            Value::Ptr(_) => "pointer",
            Value::Slice(_) => "slice",
            Value::Map(_) => "map",
            Value::Struct(_) => "struct",
            Value::Chan(_) => "chan",
            Value::Closure(_) | Value::Func(_) => "func",
            Value::Mutex(_) => "sync.Mutex",
            Value::RwMutex(_) => "sync.RWMutex",
            Value::WaitGroup(_) => "sync.WaitGroup",
            Value::SyncMap(_) => "sync.Map",
            Value::Tuple(_) => "tuple",
            Value::Builtin(_) => "builtin",
            Value::Method { .. } => "method",
            Value::Iter(_) => "iterator",
        }
    }

    /// Renders the value for `fmt`-style printing.
    pub fn render(&self, heap: &Heap) -> String {
        match self {
            Value::Nil => "<nil>".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => s.to_string(),
            Value::Error(e) => e.to_string(),
            Value::Ptr(a) => format!("&{}", heap.load_silent(*a).render(heap)),
            Value::Slice(r) => {
                let obj = &heap.slices[*r];
                let parts: Vec<String> = obj
                    .elems
                    .iter()
                    .map(|a| heap.load_silent(*a).render(heap))
                    .collect();
                format!("[{}]", parts.join(" "))
            }
            Value::Map(r) => {
                let obj = &heap.maps[*r];
                let parts: Vec<String> = obj
                    .entries
                    .iter()
                    .map(|(k, a)| format!("{}:{}", k.render(), heap.load_silent(*a).render(heap)))
                    .collect();
                format!("map[{}]", parts.join(" "))
            }
            Value::Struct(r) => {
                let obj = &heap.structs[*r];
                let parts: Vec<String> = obj
                    .fields
                    .iter()
                    .map(|(n, a)| format!("{n}:{}", heap.load_silent(*a).render(heap)))
                    .collect();
                format!("{}{{{}}}", obj.type_name, parts.join(" "))
            }
            Value::Chan(_) => "<chan>".into(),
            Value::Closure(_) | Value::Func(_) => "<func>".into(),
            Value::Mutex(_) => "<sync.Mutex>".into(),
            Value::RwMutex(_) => "<sync.RWMutex>".into(),
            Value::WaitGroup(_) => "<sync.WaitGroup>".into(),
            Value::SyncMap(_) => "<sync.Map>".into(),
            Value::Tuple(vs) => {
                let parts: Vec<String> = vs.iter().map(|v| v.render(heap)).collect();
                format!("({})", parts.join(", "))
            }
            Value::Builtin(_) | Value::Method { .. } => "<func>".into(),
            Value::Iter(_) => "<iter>".into(),
        }
    }
}

/// A key in a Go map (comparable values only).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MapKey {
    /// Integer key.
    Int(i64),
    /// String key.
    Str(String),
    /// Bool key.
    Bool(bool),
}

impl MapKey {
    /// Converts a value to a map key, if comparable.
    pub fn from_value(v: &Value) -> Option<MapKey> {
        match v {
            Value::Int(i) => Some(MapKey::Int(*i)),
            Value::Str(s) => Some(MapKey::Str(s.to_string())),
            Value::Bool(b) => Some(MapKey::Bool(*b)),
            // Struct keys: identity by reference (sufficient for the corpus).
            Value::Struct(r) => Some(MapKey::Int(*r as i64)),
            Value::Ptr(a) => Some(MapKey::Int(*a as i64)),
            _ => None,
        }
    }

    /// Converts the key back to a value.
    pub fn to_value(&self) -> Value {
        match self {
            MapKey::Int(i) => Value::Int(*i),
            MapKey::Str(s) => Value::str(s),
            MapKey::Bool(b) => Value::Bool(*b),
        }
    }

    fn render(&self) -> String {
        match self {
            MapKey::Int(i) => i.to_string(),
            MapKey::Str(s) => s.clone(),
            MapKey::Bool(b) => b.to_string(),
        }
    }
}

/// A slice: a header (length/capacity, tracked as one racy cell) plus
/// element cells.
#[derive(Debug, Clone)]
pub struct SliceObj {
    /// Header cell address; reads of `len`/indices read it, `append`
    /// writes it. This models Go's slice-header races.
    pub header: Addr,
    /// Element cell addresses.
    pub elems: Vec<Addr>,
}

/// A map: a header cell (structural reads/writes race on it) plus an
/// entry cell per key, in deterministic key order.
#[derive(Debug, Clone)]
pub struct MapObj {
    /// Header cell address.
    pub header: Addr,
    /// Entries keyed in sorted order (deterministic iteration).
    pub entries: BTreeMap<MapKey, Addr>,
}

/// A struct instance: named type plus field cells in declaration order.
#[derive(Debug, Clone)]
pub struct StructObj {
    /// Declared type name (used for method dispatch).
    pub type_name: Rc<str>,
    /// `(field name, cell)` pairs in declaration order.
    pub fields: Vec<(Rc<str>, Addr)>,
}

impl StructObj {
    /// Looks up a field cell by name.
    pub fn field(&self, name: &str) -> Option<Addr> {
        self.fields
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, a)| *a)
    }
}

/// A message travelling through a channel: the value plus the sender's
/// clock snapshot (release half of the happens-before edge).
#[derive(Debug, Clone)]
pub struct ChanMsg {
    /// The sent value.
    pub value: Value,
    /// Sender's vector clock at the send.
    pub clock: VectorClock,
}

/// A channel object.
#[derive(Debug, Default)]
pub struct ChanObj {
    /// Buffer capacity (0 = unbuffered).
    pub cap: usize,
    /// Buffered messages.
    pub queue: VecDeque<ChanMsg>,
    /// Whether `close` was called.
    pub closed: bool,
    /// Clock of the closing goroutine (close happens-before zero receive).
    pub close_clock: Option<VectorClock>,
    /// Receiver clocks for the "k-th receive happens-before (k+C)-th send
    /// completes" rule.
    pub slot_clocks: VecDeque<VectorClock>,
    /// Total sends started (for the slot rule).
    pub sends: usize,
    /// Goroutines blocked receiving (plain or select-parked).
    pub recv_waiters: Vec<Gid>,
    /// Goroutines blocked sending (plain or select-parked; the pending
    /// value stays on the sender's stack or in its parked select state).
    pub send_waiters: Vec<Gid>,
    /// If set, the scheduler closes this channel at the given step
    /// (models `time.After` / context deadlines).
    pub timer_fire_at: Option<u64>,
}

/// A closure: compiled function plus captured cells.
#[derive(Debug, Clone)]
pub struct ClosureObj {
    /// Compiled function id.
    pub func: u32,
    /// Captured cell addresses, in the function's upvalue order.
    pub upvals: Vec<Addr>,
}

/// `sync.Mutex` state.
#[derive(Debug, Default)]
pub struct MutexObj {
    /// Whether the mutex is held.
    pub locked: bool,
    /// Goroutines blocked in `Lock`.
    pub waiters: Vec<Gid>,
}

/// `sync.RWMutex` state.
#[derive(Debug, Default)]
pub struct RwMutexObj {
    /// Whether a writer holds the lock.
    pub write_locked: bool,
    /// Number of readers holding the lock.
    pub readers: usize,
    /// Goroutines blocked in `Lock`.
    pub write_waiters: Vec<Gid>,
    /// Goroutines blocked in `RLock`.
    pub read_waiters: Vec<Gid>,
}

/// `sync.WaitGroup` state.
#[derive(Debug, Default)]
pub struct WaitGroupObj {
    /// Current counter.
    pub counter: i64,
    /// Goroutines blocked in `Wait`.
    pub waiters: Vec<Gid>,
}

/// `sync.Map` state: thread-safe map (entries are not race-tracked; every
/// operation is a sequentially-consistent sync event on the map).
#[derive(Debug, Default)]
pub struct SyncMapObj {
    /// Entries in deterministic order.
    pub entries: BTreeMap<MapKey, Value>,
}

/// Range-iteration state.
#[derive(Debug, Clone)]
pub enum IterObj {
    /// Iterating a slice: object ref, snapshot length, next index.
    Slice {
        /// Slice object.
        obj: ObjRef,
        /// Length snapshot at loop entry.
        len: usize,
        /// Next index.
        idx: usize,
    },
    /// Iterating a map: object ref plus a key snapshot.
    Map {
        /// Map object.
        obj: ObjRef,
        /// Keys snapshot at loop entry (deterministic order).
        keys: Vec<MapKey>,
        /// Next key index.
        idx: usize,
    },
}

/// The heap: cells plus object arenas.
#[derive(Debug, Default)]
pub struct Heap {
    /// Cell values.
    pub cells: Vec<Value>,
    /// Per-cell variable-name id (for race reports).
    pub cell_names: Vec<u32>,
    /// Slice arena.
    pub slices: Vec<SliceObj>,
    /// Map arena.
    pub maps: Vec<MapObj>,
    /// Struct arena.
    pub structs: Vec<StructObj>,
    /// Channel arena.
    pub chans: Vec<ChanObj>,
    /// Closure arena.
    pub closures: Vec<ClosureObj>,
    /// Mutex arena.
    pub mutexes: Vec<MutexObj>,
    /// RWMutex arena.
    pub rwmutexes: Vec<RwMutexObj>,
    /// WaitGroup arena.
    pub waitgroups: Vec<WaitGroupObj>,
    /// sync.Map arena.
    pub syncmaps: Vec<SyncMapObj>,
    /// Iterator arena.
    pub iters: Vec<IterObj>,
    /// Field lists of cleared structs, reused by later allocations.
    spare_fields: Vec<Vec<(Rc<str>, Addr)>>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Empties every arena, keeping its capacity and the structs' field
    /// lists (a VM reused across runs refills the same buffers).
    pub fn clear(&mut self) {
        // Destructured without `..`, so a new arena cannot be forgotten.
        let Heap {
            cells,
            cell_names,
            slices,
            maps,
            structs,
            chans,
            closures,
            mutexes,
            rwmutexes,
            waitgroups,
            syncmaps,
            iters,
            spare_fields,
        } = self;
        cells.clear();
        cell_names.clear();
        slices.clear();
        maps.clear();
        for mut s in structs.drain(..) {
            s.fields.clear();
            spare_fields.push(s.fields);
        }
        chans.clear();
        closures.clear();
        mutexes.clear();
        rwmutexes.clear();
        waitgroups.clear();
        syncmaps.clear();
        iters.clear();
    }

    /// Allocates a fresh cell named `name` holding `v`.
    pub fn alloc_cell(&mut self, v: Value, name: u32) -> Addr {
        let a = self.cells.len() as Addr;
        self.cells.push(v);
        self.cell_names.push(name);
        a
    }

    /// Reads a cell without any race bookkeeping (renderer/debug only).
    pub fn load_silent(&self, a: Addr) -> &Value {
        &self.cells[a as usize]
    }

    /// Writes a cell without race bookkeeping (initialisation only).
    pub fn store_silent(&mut self, a: Addr, v: Value) {
        self.cells[a as usize] = v;
    }

    /// Name id of a cell.
    pub fn cell_name(&self, a: Addr) -> u32 {
        self.cell_names[a as usize]
    }

    /// Allocates a slice of `n` zero cells.
    pub fn alloc_slice(&mut self, elems: Vec<Value>, name: u32) -> Value {
        let header = self.alloc_cell(Value::Int(elems.len() as i64), name);
        let elems = elems
            .into_iter()
            .map(|v| self.alloc_cell(v, name))
            .collect();
        self.slices.push(SliceObj { header, elems });
        Value::Slice(self.slices.len() - 1)
    }

    /// Allocates an empty map.
    pub fn alloc_map(&mut self, name: u32) -> Value {
        let header = self.alloc_cell(Value::Int(0), name);
        self.maps.push(MapObj {
            header,
            entries: BTreeMap::new(),
        });
        Value::Map(self.maps.len() - 1)
    }

    /// Allocates a struct whose field cells carry per-field name ids, so
    /// race reports name the field (`Limit`, `lockMap`) rather than the
    /// struct type. Names are shared (`Rc`), so a struct of interned
    /// names allocates only its field list.
    pub fn alloc_struct_named(
        &mut self,
        type_name: Rc<str>,
        fields: impl IntoIterator<Item = (Rc<str>, Value, u32)>,
    ) -> Value {
        let mut list = self.spare_fields.pop().unwrap_or_default();
        for (n, v, id) in fields {
            list.push((n, self.alloc_cell(v, id)));
        }
        self.structs.push(StructObj {
            type_name,
            fields: list,
        });
        Value::Struct(self.structs.len() - 1)
    }

    /// Allocates a channel of capacity `cap`.
    pub fn alloc_chan(&mut self, cap: usize) -> Value {
        self.chans.push(ChanObj {
            cap,
            ..ChanObj::default()
        });
        Value::Chan(self.chans.len() - 1)
    }

    /// Allocates a mutex.
    pub fn alloc_mutex(&mut self) -> Value {
        self.mutexes.push(MutexObj::default());
        Value::Mutex(self.mutexes.len() - 1)
    }

    /// Allocates an RWMutex.
    pub fn alloc_rwmutex(&mut self) -> Value {
        self.rwmutexes.push(RwMutexObj::default());
        Value::RwMutex(self.rwmutexes.len() - 1)
    }

    /// Allocates a wait group.
    pub fn alloc_waitgroup(&mut self) -> Value {
        self.waitgroups.push(WaitGroupObj::default());
        Value::WaitGroup(self.waitgroups.len() - 1)
    }

    /// Allocates a sync.Map.
    pub fn alloc_syncmap(&mut self) -> Value {
        self.syncmaps.push(SyncMapObj::default());
        Value::SyncMap(self.syncmaps.len() - 1)
    }

    /// Allocates a closure.
    pub fn alloc_closure(&mut self, func: u32, upvals: Vec<Addr>) -> Value {
        self.closures.push(ClosureObj { func, upvals });
        Value::Closure(self.closures.len() - 1)
    }

    /// Allocates an iterator.
    pub fn alloc_iter(&mut self, it: IterObj) -> Value {
        self.iters.push(it);
        Value::Iter(self.iters.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_dense_and_named() {
        let mut h = Heap::new();
        let a = h.alloc_cell(Value::Int(1), 7);
        let b = h.alloc_cell(Value::str("x"), 8);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(h.cell_name(a), 7);
        assert_eq!(h.load_silent(b), &Value::str("x"));
    }

    #[test]
    fn go_eq_semantics() {
        assert!(Value::Nil.go_eq(&Value::Nil));
        assert!(!Value::Int(0).go_eq(&Value::Nil));
        assert!(Value::Int(3).go_eq(&Value::Int(3)));
        assert!(Value::str("a").go_eq(&Value::str("a")));
        assert!(!Value::str("a").go_eq(&Value::str("b")));
        assert!(Value::Int(2).go_eq(&Value::Float(2.0)));
        assert!(!Value::Bool(true).go_eq(&Value::Int(1)));
    }

    #[test]
    fn map_keys_are_ordered_deterministically() {
        let mut m = BTreeMap::new();
        m.insert(MapKey::Str("b".into()), 1);
        m.insert(MapKey::Str("a".into()), 2);
        let keys: Vec<_> = m.keys().cloned().collect();
        assert_eq!(keys, vec![MapKey::Str("a".into()), MapKey::Str("b".into())]);
    }

    #[test]
    fn struct_field_lookup() {
        let mut h = Heap::new();
        let v = h.alloc_struct_named(
            "Point".into(),
            [
                ("x".into(), Value::Int(1), 0),
                ("y".into(), Value::Int(2), 1),
            ],
        );
        match v {
            Value::Struct(r) => {
                let s = &h.structs[r];
                assert!(s.field("x").is_some());
                assert!(s.field("z").is_none());
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn render_is_total() {
        let mut h = Heap::new();
        let s = h.alloc_slice(vec![Value::Int(1), Value::Int(2)], 0);
        assert_eq!(s.render(&h), "[1 2]");
        let m = h.alloc_map(0);
        assert_eq!(m.render(&h), "map[]");
        assert_eq!(Value::Nil.render(&h), "<nil>");
    }

    #[test]
    fn map_key_conversion_roundtrip() {
        for v in [Value::Int(5), Value::str("k"), Value::Bool(true)] {
            let k = MapKey::from_value(&v).unwrap();
            assert!(k.to_value().go_eq(&v));
        }
        assert!(MapKey::from_value(&Value::Nil).is_none());
    }
}
