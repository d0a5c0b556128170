//! Instruction execution: one big `exec` over [`Op`].
//!
//! Blocking operations follow one of two protocols:
//!
//! - **retry**: the operation peeks its operands without popping, parks
//!   the goroutine, and is re-executed when woken (channel send/receive,
//!   mutex lock, wait-group wait);
//! - **completed-on-wake**: the operation's effect is performed by the
//!   *waking* goroutine, which installs a [`WakeAction`] (pops, pushes,
//!   clock acquisition, optional jump) on the parked one (rendezvous
//!   hand-offs, `select`, subtests).

use crate::bytecode::{Op, SelectCaseSpec};
use crate::natives;
use crate::value::*;
use crate::vm::{Flow, ParkedCase, ParkedSelect, RunError, Status, Vm, WakeAction};
use rand::Rng;
use std::rc::Rc;

pub(crate) fn exec(vm: &mut Vm, gid: Gid, op: &Op) -> Flow {
    match op {
        Op::ConstInt(v) => {
            push(vm, gid, Value::Int(*v));
            Flow::Next
        }
        Op::ConstFloat(v) => {
            push(vm, gid, Value::Float(*v));
            Flow::Next
        }
        Op::ConstStr(id) => {
            let s = vm.const_str(*id);
            push(vm, gid, Value::Str(s));
            Flow::Next
        }
        Op::ConstBool(b) => {
            push(vm, gid, Value::Bool(*b));
            Flow::Next
        }
        Op::ConstNil => {
            push(vm, gid, Value::Nil);
            Flow::Next
        }
        Op::ConstFunc(f) => {
            push(vm, gid, Value::Func(*f));
            Flow::Next
        }
        Op::ConstBuiltin(b) => {
            push(vm, gid, Value::Builtin(*b));
            Flow::Next
        }
        Op::Pop => {
            pop(vm, gid);
            Flow::Next
        }
        Op::Dup => {
            let v = peek(vm, gid, 0).clone();
            push(vm, gid, v);
            Flow::Next
        }
        Op::Dup2 => {
            let b = peek(vm, gid, 0).clone();
            let a = peek(vm, gid, 1).clone();
            push(vm, gid, a);
            push(vm, gid, b);
            Flow::Next
        }

        Op::AllocLocal { slot, name } => {
            let v = pop(vm, gid);
            let addr = vm.heap.alloc_cell(v, *name);
            // The initialisation counts as a write by the allocator.
            vm.track_write(gid, addr);
            frame_mut(vm, gid).locals[*slot as usize] = addr;
            Flow::Next
        }
        Op::LoadLocal(slot) => match local_addr(vm, gid, *slot) {
            Some(a) => {
                let v = vm.read_cell(gid, a);
                push(vm, gid, v);
                Flow::Next
            }
            None => Flow::Panic("use of unbound local".into()),
        },
        Op::StoreLocal(slot) => match local_addr(vm, gid, *slot) {
            Some(a) => {
                let v = pop(vm, gid);
                vm.write_cell(gid, a, v);
                Flow::Next
            }
            None => Flow::Panic("store to unbound local".into()),
        },
        Op::RefLocal(slot) => match local_addr(vm, gid, *slot) {
            Some(a) => {
                push(vm, gid, Value::Ptr(a));
                Flow::Next
            }
            None => Flow::Panic("address of unbound local".into()),
        },
        Op::LoadUpval(i) => {
            let a = frame_mut(vm, gid).upvals[*i as usize];
            let v = vm.read_cell(gid, a);
            push(vm, gid, v);
            Flow::Next
        }
        Op::StoreUpval(i) => {
            let a = frame_mut(vm, gid).upvals[*i as usize];
            let v = pop(vm, gid);
            vm.write_cell(gid, a, v);
            Flow::Next
        }
        Op::RefUpval(i) => {
            let a = frame_mut(vm, gid).upvals[*i as usize];
            push(vm, gid, Value::Ptr(a));
            Flow::Next
        }
        Op::LoadGlobal(i) => {
            let a = vm.globals[*i as usize];
            let v = vm.read_cell(gid, a);
            push(vm, gid, v);
            Flow::Next
        }
        Op::StoreGlobal(i) => {
            let a = vm.globals[*i as usize];
            let v = pop(vm, gid);
            vm.write_cell(gid, a, v);
            Flow::Next
        }
        Op::RefGlobal(i) => {
            let a = vm.globals[*i as usize];
            push(vm, gid, Value::Ptr(a));
            Flow::Next
        }
        Op::LoadPtr => match pop(vm, gid) {
            Value::Ptr(a) => {
                let v = vm.read_cell(gid, a);
                // Go structs are value types: explicit `*p` produces a
                // shallow copy (`newConfig := *config` — the struct-copy
                // fix pattern relies on this).
                let v = shallow_copy_struct(vm, gid, v);
                push(vm, gid, v);
                Flow::Next
            }
            Value::Nil => Flow::Panic("nil pointer dereference".into()),
            // Dereferencing a bare struct reference copies it too.
            other @ Value::Struct(_) => {
                let v = shallow_copy_struct(vm, gid, other);
                push(vm, gid, v);
                Flow::Next
            }
            other @ (Value::Map(_) | Value::Slice(_)) => {
                push(vm, gid, other);
                Flow::Next
            }
            other => Flow::Panic(format!("cannot dereference {}", other.type_name())),
        },
        Op::StorePtr => {
            let v = pop(vm, gid);
            match pop(vm, gid) {
                Value::Ptr(a) => {
                    vm.write_cell(gid, a, v);
                    Flow::Next
                }
                Value::Nil => Flow::Panic("nil pointer dereference".into()),
                other => Flow::Panic(format!("cannot store through {}", other.type_name())),
            }
        }

        Op::MakeSliceLit { n, name } => {
            let mut elems = Vec::with_capacity(*n as usize);
            for _ in 0..*n {
                elems.push(pop(vm, gid));
            }
            elems.reverse();
            let v = vm.heap.alloc_slice(elems, *name);
            push(vm, gid, v);
            Flow::Next
        }
        Op::MakeMapLit { n, name } => {
            let name = *name;
            let mut pairs = Vec::with_capacity(*n as usize);
            for _ in 0..*n {
                let v = pop(vm, gid);
                let k = pop(vm, gid);
                pairs.push((k, v));
            }
            pairs.reverse();
            let mv = vm.heap.alloc_map(name);
            if let Value::Map(r) = mv {
                for (k, v) in pairs {
                    let Some(key) = MapKey::from_value(&k) else {
                        return Flow::Panic(format!("invalid map key {}", k.type_name()));
                    };
                    let cell = vm.heap.alloc_cell(v, name);
                    vm.heap.maps[r].entries.insert(key, cell);
                }
            }
            push(vm, gid, mv);
            Flow::Next
        }
        Op::MakeStructLit(spec) => {
            let prog = vm.prog;
            let spec = &prog.struct_lits[*spec as usize];
            let mut values = vm.arg_buf();
            for _ in 0..spec.fields.len() {
                values.push(pop(vm, gid));
            }
            values.reverse();
            let v = vm.alloc_struct_lit(
                spec.type_name,
                spec.fields.iter().copied().zip(values.drain(..)),
            );
            vm.recycle_args(values);
            push(vm, gid, v);
            Flow::Next
        }
        Op::MakeZero(h) => {
            let hint = vm.prog.hints[*h as usize];
            let v = vm.zero_value(hint);
            push(vm, gid, v);
            Flow::Next
        }
        Op::MakeSliceN(h) => {
            let n = match pop(vm, gid) {
                Value::Int(n) if n >= 0 => n as usize,
                _ => return Flow::Panic("make: invalid length".into()),
            };
            let hint = vm.prog.hints[*h as usize];
            let mut elems = Vec::with_capacity(n);
            for _ in 0..n {
                let z = vm.zero_value(hint);
                elems.push(z);
            }
            let name = vm.intern("elem");
            let v = vm.heap.alloc_slice(elems, name);
            push(vm, gid, v);
            Flow::Next
        }
        Op::NewPtr(h) => {
            let hint = vm.prog.hints[*h as usize];
            let zero = vm.zero_value(hint);
            let name = vm.intern("new");
            let a = vm.heap.alloc_cell(zero, name);
            push(vm, gid, Value::Ptr(a));
            Flow::Next
        }
        Op::MakeChan { has_cap } => {
            let cap = if *has_cap {
                match pop(vm, gid) {
                    Value::Int(c) if c >= 0 => c as usize,
                    _ => return Flow::Panic("make: invalid channel capacity".into()),
                }
            } else {
                0
            };
            let v = vm.heap.alloc_chan(cap);
            push(vm, gid, v);
            Flow::Next
        }
        Op::MakeClosure(spec) => {
            let prog = vm.prog;
            let spec = &prog.closures[*spec as usize];
            let mut upvals = vm.addr_buf();
            let frame = frame_mut(vm, gid);
            upvals.extend(spec.captures.iter().map(|c| match c {
                crate::bytecode::UpvalSrc::Local(s) => frame.locals[*s as usize],
                crate::bytecode::UpvalSrc::Upval(u) => frame.upvals[*u as usize],
            }));
            let v = vm.heap.alloc_closure(spec.func, upvals);
            push(vm, gid, v);
            Flow::Next
        }

        Op::GetField(name) => {
            let obj = pop(vm, gid);
            match field_addr(vm, gid, &obj, *name, false) {
                Ok(a) => {
                    let v = vm.read_cell(gid, a);
                    push(vm, gid, v);
                    Flow::Next
                }
                Err(f) => f,
            }
        }
        Op::SetField(name) => {
            let v = pop(vm, gid);
            let obj = pop(vm, gid);
            match field_addr(vm, gid, &obj, *name, true) {
                Ok(a) => {
                    vm.write_cell(gid, a, v);
                    Flow::Next
                }
                Err(f) => f,
            }
        }
        Op::RefField(name) => {
            let obj = pop(vm, gid);
            match field_addr(vm, gid, &obj, *name, true) {
                Ok(a) => {
                    push(vm, gid, Value::Ptr(a));
                    Flow::Next
                }
                Err(f) => f,
            }
        }
        Op::BindMethod(name) => {
            let recv = pop(vm, gid);
            // Reuse a recycled receiver box when one is available: a
            // lock-heavy loop binds (and immediately consumes) two
            // method values per iteration, and the malloc/free pair per
            // bind showed up in sync-heavy profiles.
            let boxed = match vm.method_box_pool.pop() {
                Some(mut b) => {
                    *b = recv;
                    b
                }
                None => Box::new(recv),
            };
            push(
                vm,
                gid,
                Value::Method {
                    recv: boxed,
                    name: *name,
                },
            );
            Flow::Next
        }

        Op::Index { comma_ok } => {
            let idx = pop(vm, gid);
            let cont = pop(vm, gid);
            index_get(vm, gid, cont, idx, *comma_ok)
        }
        Op::SetIndex => {
            let v = pop(vm, gid);
            let idx = pop(vm, gid);
            let cont = pop(vm, gid);
            index_set(vm, gid, cont, idx, v)
        }
        Op::RefIndex => {
            let idx = pop(vm, gid);
            let cont = pop(vm, gid);
            match elem_addr(vm, gid, &cont, &idx, true) {
                Ok(a) => {
                    push(vm, gid, Value::Ptr(a));
                    Flow::Next
                }
                Err(f) => f,
            }
        }
        Op::SliceOp { has_lo, has_hi } => {
            let hi = if *has_hi { Some(pop(vm, gid)) } else { None };
            let lo = if *has_lo { Some(pop(vm, gid)) } else { None };
            let cont = pop(vm, gid);
            match cont {
                Value::Slice(r) => {
                    let header = vm.heap.slices[r].header;
                    let _ = vm.read_cell(gid, header);
                    let len = vm.heap.slices[r].elems.len();
                    let lo = lo.and_then(|v| v.as_int()).unwrap_or(0).max(0) as usize;
                    let hi = hi
                        .and_then(|v| v.as_int())
                        .map(|h| h.max(0) as usize)
                        .unwrap_or(len);
                    if lo > hi || hi > len {
                        return Flow::Panic("slice bounds out of range".into());
                    }
                    let sub: Vec<Addr> = vm.heap.slices[r].elems[lo..hi].to_vec();
                    let name = vm.heap.cell_name(header);
                    let new_header = vm.heap.alloc_cell(Value::Int((hi - lo) as i64), name);
                    vm.heap.slices.push(SliceObj {
                        header: new_header,
                        elems: sub,
                    });
                    push(vm, gid, Value::Slice(vm.heap.slices.len() - 1));
                    Flow::Next
                }
                Value::Str(s) => {
                    let lo = lo.and_then(|v| v.as_int()).unwrap_or(0).max(0) as usize;
                    let hi = hi
                        .and_then(|v| v.as_int())
                        .map(|h| h.max(0) as usize)
                        .unwrap_or(s.len());
                    if lo > hi || hi > s.len() {
                        return Flow::Panic("string slice out of range".into());
                    }
                    push(vm, gid, Value::str(&s[lo..hi]));
                    Flow::Next
                }
                other => Flow::Panic(format!("cannot slice {}", other.type_name())),
            }
        }
        Op::Append { n } => {
            let mut vals = Vec::with_capacity(*n as usize);
            for _ in 0..*n {
                vals.push(pop(vm, gid));
            }
            vals.reverse();
            let slice = pop(vm, gid);
            append_values(vm, gid, slice, vals)
        }
        Op::AppendSlice => {
            let src = pop(vm, gid);
            let dst = pop(vm, gid);
            let vals = match src {
                Value::Slice(r) => {
                    let header = vm.heap.slices[r].header;
                    let _ = vm.read_cell(gid, header);
                    let addrs = vm.heap.slices[r].elems.clone();
                    addrs.into_iter().map(|a| vm.read_cell(gid, a)).collect()
                }
                Value::Nil => Vec::new(),
                other => return Flow::Panic(format!("append spread of {}", other.type_name())),
            };
            append_values(vm, gid, dst, vals)
        }
        Op::StoreMulti(n) => {
            let n = *n as usize;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(pop(vm, gid));
            }
            vals.reverse();
            let mut ptrs = Vec::with_capacity(n);
            for _ in 0..n {
                ptrs.push(pop(vm, gid));
            }
            ptrs.reverse();
            for (p, v) in ptrs.into_iter().zip(vals) {
                match p {
                    Value::Ptr(a) => vm.write_cell(gid, a, v),
                    other => {
                        return Flow::Panic(format!("cannot assign through {}", other.type_name()))
                    }
                }
            }
            Flow::Next
        }
        Op::Len => {
            let cont = pop(vm, gid);
            let n = match cont {
                Value::Slice(r) => {
                    let header = vm.heap.slices[r].header;
                    let _ = vm.read_cell(gid, header);
                    vm.heap.slices[r].elems.len() as i64
                }
                Value::Map(r) => {
                    let header = vm.heap.maps[r].header;
                    let _ = vm.read_cell(gid, header);
                    vm.heap.maps[r].entries.len() as i64
                }
                Value::Str(s) => s.len() as i64,
                Value::Chan(r) => vm.heap.chans[r].queue.len() as i64,
                Value::Nil => 0,
                other => return Flow::Panic(format!("len of {}", other.type_name())),
            };
            push(vm, gid, Value::Int(n));
            Flow::Next
        }
        Op::Cap => {
            let cont = pop(vm, gid);
            let n = match cont {
                Value::Slice(r) => vm.heap.slices[r].elems.len() as i64,
                Value::Chan(r) => vm.heap.chans[r].cap as i64,
                Value::Nil => 0,
                other => return Flow::Panic(format!("cap of {}", other.type_name())),
            };
            push(vm, gid, Value::Int(n));
            Flow::Next
        }
        Op::DeleteKey => {
            let k = pop(vm, gid);
            let m = pop(vm, gid);
            match m {
                Value::Map(r) => {
                    let header = vm.heap.maps[r].header;
                    // Structural mutation: a write on the header.
                    vm.track_write(gid, header);
                    if let Some(key) = MapKey::from_value(&k) {
                        vm.heap.maps[r].entries.remove(&key);
                    }
                    Flow::Next
                }
                Value::Nil => Flow::Next,
                other => Flow::Panic(format!("delete on {}", other.type_name())),
            }
        }

        Op::Send => exec_send(vm, gid),
        Op::Recv { comma_ok } => exec_recv(vm, gid, *comma_ok),
        Op::CloseChan => {
            let c = pop(vm, gid);
            match c {
                Value::Chan(r) => {
                    if vm.heap.chans[r].closed {
                        return Flow::Panic("close of closed channel".into());
                    }
                    let clock = vm.det.release_snapshot(gid);
                    vm.heap.chans[r].closed = true;
                    vm.heap.chans[r].close_clock = Some(clock);
                    vm.wake_chan_waiters(r);
                    Flow::Next
                }
                Value::Nil => Flow::Panic("close of nil channel".into()),
                other => Flow::Panic(format!("close of {}", other.type_name())),
            }
        }

        Op::Call { argc } => exec_call(vm, gid, *argc),
        Op::Go { argc } => {
            let mut args = vm.arg_buf();
            for _ in 0..*argc {
                args.push(pop(vm, gid));
            }
            args.reverse();
            let callee = pop(vm, gid);
            match vm.spawn(Some(gid), callee, args) {
                Ok(_) => Flow::Next,
                Err(e) => Flow::Panic(e),
            }
        }
        Op::DeferCall { argc } => {
            let mut args = vm.arg_buf();
            for _ in 0..*argc {
                args.push(pop(vm, gid));
            }
            args.reverse();
            let callee = pop(vm, gid);
            vm.push_defer(gid, callee, args);
            Flow::Next
        }
        Op::Return { n } => {
            let v = match *n {
                0 => Value::Nil,
                1 => pop(vm, gid),
                n => {
                    let mut vals = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        vals.push(pop(vm, gid));
                    }
                    vals.reverse();
                    Value::Tuple(Rc::new(vals))
                }
            };
            Flow::Returned(v)
        }
        Op::Expand { n } => {
            let n = *n;
            let v = pop(vm, gid);
            if n == 1 {
                push(vm, gid, v);
                return Flow::Next;
            }
            match v {
                Value::Tuple(vs) if vs.len() == n as usize => {
                    for v in vs.iter() {
                        push(vm, gid, v.clone());
                    }
                    Flow::Next
                }
                other => Flow::Panic(format!("expected {} values, got {}", n, other.type_name())),
            }
        }

        Op::Jump(t) => Flow::Jump(*t as usize),
        Op::JumpIfFalse(t) => match pop(vm, gid) {
            Value::Bool(false) => Flow::Jump(*t as usize),
            Value::Bool(true) => Flow::Next,
            other => Flow::Panic(format!("non-bool condition: {}", other.type_name())),
        },
        Op::JumpIfTrue(t) => match pop(vm, gid) {
            Value::Bool(true) => Flow::Jump(*t as usize),
            Value::Bool(false) => Flow::Next,
            other => Flow::Panic(format!("non-bool condition: {}", other.type_name())),
        },

        Op::Neg => {
            let v = pop(vm, gid);
            match v {
                Value::Int(i) => {
                    push(vm, gid, Value::Int(-i));
                    Flow::Next
                }
                Value::Float(f) => {
                    push(vm, gid, Value::Float(-f));
                    Flow::Next
                }
                other => Flow::Panic(format!("cannot negate {}", other.type_name())),
            }
        }
        Op::Not => match pop(vm, gid) {
            Value::Bool(b) => {
                push(vm, gid, Value::Bool(!b));
                Flow::Next
            }
            other => Flow::Panic(format!("cannot negate {}", other.type_name())),
        },
        Op::BitNot => match pop(vm, gid) {
            Value::Int(i) => {
                push(vm, gid, Value::Int(!i));
                Flow::Next
            }
            other => Flow::Panic(format!("cannot complement {}", other.type_name())),
        },
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::BitAnd
        | Op::BitOr
        | Op::BitXor
        | Op::Shl
        | Op::Shr => {
            let b = pop(vm, gid);
            let a = pop(vm, gid);
            match arith(op, a, b) {
                Ok(v) => {
                    push(vm, gid, v);
                    Flow::Next
                }
                Err(m) => Flow::Panic(m),
            }
        }
        Op::Eq | Op::Ne => {
            let b = pop(vm, gid);
            let a = pop(vm, gid);
            let eq = a.go_eq(&b);
            push(
                vm,
                gid,
                Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }),
            );
            Flow::Next
        }
        Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            let b = pop(vm, gid);
            let a = pop(vm, gid);
            match compare(&a, &b) {
                Some(ord) => {
                    let r = match op {
                        Op::Lt => ord.is_lt(),
                        Op::Le => ord.is_le(),
                        Op::Gt => ord.is_gt(),
                        _ => ord.is_ge(),
                    };
                    push(vm, gid, Value::Bool(r));
                    Flow::Next
                }
                None => Flow::Panic(format!(
                    "cannot compare {} and {}",
                    a.type_name(),
                    b.type_name()
                )),
            }
        }

        Op::IterInit => {
            let cont = pop(vm, gid);
            let it = match cont {
                Value::Slice(r) => {
                    let header = vm.heap.slices[r].header;
                    let _ = vm.read_cell(gid, header);
                    IterObj::Slice {
                        obj: r,
                        len: vm.heap.slices[r].elems.len(),
                        idx: 0,
                    }
                }
                Value::Map(r) => {
                    let header = vm.heap.maps[r].header;
                    let _ = vm.read_cell(gid, header);
                    IterObj::Map {
                        obj: r,
                        keys: vm.heap.maps[r].entries.keys().cloned().collect(),
                        idx: 0,
                    }
                }
                Value::Nil => IterObj::Slice {
                    obj: usize::MAX,
                    len: 0,
                    idx: 0,
                },
                other => return Flow::Panic(format!("cannot range over {}", other.type_name())),
            };
            let v = vm.heap.alloc_iter(it);
            push(vm, gid, v);
            Flow::Next
        }
        Op::IterNext(done) => {
            let done = *done;
            let itv = pop(vm, gid);
            let Value::Iter(ir) = itv else {
                return Flow::Panic("range over non-iterator".into());
            };
            let state = vm.heap.iters[ir].clone();
            match state {
                IterObj::Slice { obj, len, idx } => {
                    if idx >= len || obj == usize::MAX {
                        return Flow::Jump(done as usize);
                    }
                    if idx >= vm.heap.slices[obj].elems.len() {
                        return Flow::Jump(done as usize);
                    }
                    let a = vm.heap.slices[obj].elems[idx];
                    let v = vm.read_cell(gid, a);
                    vm.heap.iters[ir] = IterObj::Slice {
                        obj,
                        len,
                        idx: idx + 1,
                    };
                    push(vm, gid, Value::Int(idx as i64));
                    push(vm, gid, v);
                    Flow::Next
                }
                IterObj::Map { obj, keys, mut idx } => {
                    // Skip keys deleted since the snapshot.
                    while idx < keys.len() {
                        if vm.heap.maps[obj].entries.contains_key(&keys[idx]) {
                            break;
                        }
                        idx += 1;
                    }
                    if idx >= keys.len() {
                        return Flow::Jump(done as usize);
                    }
                    let key = keys[idx].clone();
                    let a = vm.heap.maps[obj].entries[&key];
                    let v = vm.read_cell(gid, a);
                    vm.heap.iters[ir] = IterObj::Map {
                        obj,
                        keys,
                        idx: idx + 1,
                    };
                    push(vm, gid, key.to_value());
                    push(vm, gid, v);
                    Flow::Next
                }
            }
        }

        Op::Select(spec) => exec_select(vm, gid, *spec),

        Op::Panic => {
            let msg = pop(vm, gid);
            let rendered = msg.render(&vm.heap);
            Flow::Panic(rendered)
        }
        Op::Nop => Flow::Next,
    }
}

// ------------------------------------------------------------------ helpers

pub(crate) fn push(vm: &mut Vm, gid: Gid, v: Value) {
    vm.gos[gid].stack.push(v);
}

pub(crate) fn pop(vm: &mut Vm, gid: Gid) -> Value {
    match vm.gos[gid].stack.pop() {
        Some(v) => v,
        None => underflow(vm, gid),
    }
}

/// Operand-stack underflow is a compiler or VM bug, never a program
/// bug: flag it as a fatal [`RunError::Internal`] instead of silently
/// masking it as `Nil`. The quantum loops check `vm.fatal` per step, so
/// execution stops before the corrupted stack is interpreted further.
#[cold]
fn underflow(vm: &mut Vm, gid: Gid) -> Value {
    if vm.fatal.is_none() {
        vm.fatal = Some(RunError::Internal(format!(
            "operand stack underflow on goroutine {gid}"
        )));
    }
    Value::Nil
}

pub(crate) fn peek<'a>(vm: &'a Vm<'_>, gid: Gid, depth: usize) -> &'a Value {
    let s = &vm.gos[gid].stack;
    &s[s.len() - 1 - depth]
}

fn frame_mut<'a>(vm: &'a mut Vm, gid: Gid) -> &'a mut crate::vm::CallFrame {
    vm.gos[gid].frames.last_mut().expect("live frame")
}

fn local_addr(vm: &mut Vm, gid: Gid, slot: u16) -> Option<Addr> {
    let a = vm.gos[gid].frames.last()?.locals[slot as usize];
    if a == Addr::MAX {
        None
    } else {
        Some(a)
    }
}

/// Resolves a field cell on a struct (or pointer to struct); `create`
/// adds missing fields (used by `RefField` on loosely-typed externals).
fn field_addr(vm: &mut Vm, gid: Gid, obj: &Value, name: u32, create: bool) -> Result<Addr, Flow> {
    let sref = match obj {
        Value::Struct(r) => *r,
        Value::Ptr(a) => match &vm.heap.cells[*a as usize] {
            Value::Struct(r) => *r,
            Value::Nil => return Err(Flow::Panic("nil pointer dereference".into())),
            other => {
                return Err(Flow::Panic(format!(
                    "field access on {}",
                    other.type_name()
                )))
            }
        },
        Value::Nil => return Err(Flow::Panic("nil pointer dereference".into())),
        other => {
            return Err(Flow::Panic(format!(
                "field access on {}",
                other.type_name()
            )))
        }
    };
    let fname = vm.name(name).clone();
    if let Some(a) = vm.heap.structs[sref].field(&fname) {
        return Ok(a);
    }
    if create {
        let a = vm.heap.alloc_cell(Value::Nil, name);
        vm.heap.structs[sref].fields.push((fname, a));
        let _ = gid;
        return Ok(a);
    }
    Err(Flow::Panic(format!(
        "struct {} has no field {}",
        vm.heap.structs[sref].type_name, fname
    )))
}

fn elem_addr(vm: &mut Vm, gid: Gid, cont: &Value, idx: &Value, create: bool) -> Result<Addr, Flow> {
    match cont {
        Value::Slice(r) => {
            let header = vm.heap.slices[r.to_owned()].header;
            let _ = vm.read_cell(gid, header);
            let i = idx
                .as_int()
                .ok_or_else(|| Flow::Panic("non-integer slice index".into()))?;
            let elems = &vm.heap.slices[*r].elems;
            if i < 0 || i as usize >= elems.len() {
                return Err(Flow::Panic(format!(
                    "index out of range [{i}] with length {}",
                    elems.len()
                )));
            }
            Ok(elems[i as usize])
        }
        Value::Map(r) => {
            let header = vm.heap.maps[*r].header;
            let key = MapKey::from_value(idx)
                .ok_or_else(|| Flow::Panic(format!("invalid map key {}", idx.type_name())))?;
            if let Some(&a) = vm.heap.maps[*r].entries.get(&key) {
                let _ = vm.read_cell(gid, header);
                return Ok(a);
            }
            if create {
                let name = vm.heap.cell_name(header);
                vm.track_write(gid, header);
                let a = vm.heap.alloc_cell(Value::Nil, name);
                vm.heap.maps[*r].entries.insert(key, a);
                return Ok(a);
            }
            Err(Flow::Panic("missing map key".into()))
        }
        Value::Nil => Err(Flow::Panic("index of nil container".into())),
        other => Err(Flow::Panic(format!("cannot index {}", other.type_name()))),
    }
}

fn index_get(vm: &mut Vm, gid: Gid, cont: Value, idx: Value, comma_ok: bool) -> Flow {
    match &cont {
        Value::Slice(_) => match elem_addr(vm, gid, &cont, &idx, false) {
            Ok(a) => {
                let v = vm.read_cell(gid, a);
                push(vm, gid, v);
                if comma_ok {
                    push(vm, gid, Value::Bool(true));
                }
                Flow::Next
            }
            Err(f) => f,
        },
        Value::Map(r) => {
            let header = vm.heap.maps[*r].header;
            let _ = vm.read_cell(gid, header);
            let Some(key) = MapKey::from_value(&idx) else {
                return Flow::Panic(format!("invalid map key {}", idx.type_name()));
            };
            match vm.heap.maps[*r].entries.get(&key).copied() {
                Some(a) => {
                    let v = vm.read_cell(gid, a);
                    push(vm, gid, v);
                    if comma_ok {
                        push(vm, gid, Value::Bool(true));
                    }
                }
                None => {
                    push(vm, gid, Value::Nil);
                    if comma_ok {
                        push(vm, gid, Value::Bool(false));
                    }
                }
            }
            Flow::Next
        }
        Value::Str(s) => {
            let Some(i) = idx.as_int() else {
                return Flow::Panic("non-integer string index".into());
            };
            if i < 0 || i as usize >= s.len() {
                return Flow::Panic("string index out of range".into());
            }
            push(vm, gid, Value::Int(s.as_bytes()[i as usize] as i64));
            if comma_ok {
                push(vm, gid, Value::Bool(true));
            }
            Flow::Next
        }
        Value::Nil => {
            // Reading a nil map yields the zero value.
            push(vm, gid, Value::Nil);
            if comma_ok {
                push(vm, gid, Value::Bool(false));
            }
            Flow::Next
        }
        other => Flow::Panic(format!("cannot index {}", other.type_name())),
    }
}

fn index_set(vm: &mut Vm, gid: Gid, cont: Value, idx: Value, v: Value) -> Flow {
    match &cont {
        Value::Slice(_) => match elem_addr(vm, gid, &cont, &idx, false) {
            Ok(a) => {
                vm.write_cell(gid, a, v);
                Flow::Next
            }
            Err(f) => f,
        },
        Value::Map(_) => match elem_addr(vm, gid, &cont, &idx, true) {
            Ok(a) => {
                vm.write_cell(gid, a, v);
                Flow::Next
            }
            Err(f) => f,
        },
        Value::Nil => Flow::Panic("assignment to entry in nil map".into()),
        other => Flow::Panic(format!("cannot index-assign {}", other.type_name())),
    }
}

fn append_values(vm: &mut Vm, gid: Gid, slice: Value, vals: Vec<Value>) -> Flow {
    let r = match slice {
        Value::Slice(r) => r,
        Value::Nil => {
            let name = vm.intern("elem");
            match vm.heap.alloc_slice(Vec::new(), name) {
                Value::Slice(r) => r,
                _ => unreachable!("alloc_slice returns a slice"),
            }
        }
        other => return Flow::Panic(format!("append to {}", other.type_name())),
    };
    // Growth mutates the slice header.
    let header = vm.heap.slices[r].header;
    let name = vm.heap.cell_name(header);
    vm.track_write(gid, header);
    let new_len = vm.heap.slices[r].elems.len() + vals.len();
    vm.heap.cells[header as usize] = Value::Int(new_len as i64);
    for v in vals {
        let a = vm.heap.alloc_cell(v, name);
        vm.heap.slices[r].elems.push(a);
    }
    push(vm, gid, Value::Slice(r));
    Flow::Next
}

/// Shallow-copies a struct value (fresh field cells, race-tracked reads
/// of the source fields). Non-struct values pass through.
fn shallow_copy_struct(vm: &mut Vm, gid: Gid, v: Value) -> Value {
    let Value::Struct(r) = v else { return v };
    let (tname, fields) = {
        let s = &vm.heap.structs[r];
        (s.type_name.clone(), s.fields.clone())
    };
    let copied: Vec<(Rc<str>, Value, u32)> = fields
        .into_iter()
        .map(|(n, a)| {
            let v = vm.read_cell(gid, a);
            let id = vm.intern(&n);
            (n, v, id)
        })
        .collect();
    vm.heap.alloc_struct_named(tname, copied)
}

fn arith(op: &Op, a: Value, b: Value) -> Result<Value, String> {
    use Value::*;
    match (op, a, b) {
        (Op::Add, Int(a), Int(b)) => Ok(Int(a.wrapping_add(b))),
        (Op::Sub, Int(a), Int(b)) => Ok(Int(a.wrapping_sub(b))),
        (Op::Mul, Int(a), Int(b)) => Ok(Int(a.wrapping_mul(b))),
        (Op::Div, Int(_), Int(0)) => Err("integer divide by zero".into()),
        (Op::Div, Int(a), Int(b)) => Ok(Int(a.wrapping_div(b))),
        (Op::Rem, Int(_), Int(0)) => Err("integer divide by zero".into()),
        (Op::Rem, Int(a), Int(b)) => Ok(Int(a.wrapping_rem(b))),
        (Op::BitAnd, Int(a), Int(b)) => Ok(Int(a & b)),
        (Op::BitOr, Int(a), Int(b)) => Ok(Int(a | b)),
        (Op::BitXor, Int(a), Int(b)) => Ok(Int(a ^ b)),
        (Op::Shl, Int(a), Int(b)) => Ok(Int(a.wrapping_shl(b as u32))),
        (Op::Shr, Int(a), Int(b)) => Ok(Int(a.wrapping_shr(b as u32))),
        (Op::Add, Float(a), Float(b)) => Ok(Float(a + b)),
        (Op::Sub, Float(a), Float(b)) => Ok(Float(a - b)),
        (Op::Mul, Float(a), Float(b)) => Ok(Float(a * b)),
        (Op::Div, Float(a), Float(b)) => Ok(Float(a / b)),
        (Op::Add, Float(a), Int(b)) => Ok(Float(a + b as f64)),
        (Op::Add, Int(a), Float(b)) => Ok(Float(a as f64 + b)),
        (Op::Sub, Float(a), Int(b)) => Ok(Float(a - b as f64)),
        (Op::Sub, Int(a), Float(b)) => Ok(Float(a as f64 - b)),
        (Op::Mul, Float(a), Int(b)) => Ok(Float(a * b as f64)),
        (Op::Mul, Int(a), Float(b)) => Ok(Float(a as f64 * b)),
        (Op::Div, Float(a), Int(b)) => Ok(Float(a / b as f64)),
        (Op::Div, Int(a), Float(b)) => Ok(Float(a as f64 / b)),
        (Op::Add, Str(a), Str(b)) => Ok(Value::str(format!("{a}{b}"))),
        (op, a, b) => Err(format!(
            "invalid operation {:?} on {} and {}",
            op,
            a.type_name(),
            b.type_name()
        )),
    }
}

fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(a), Int(b)) => a.partial_cmp(b),
        (Float(a), Float(b)) => a.partial_cmp(b),
        (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
        (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
        (Str(a), Str(b)) => a.partial_cmp(b),
        _ => None,
    }
}

// ------------------------------------------------------------------- calls

/// The call shapes `exec_call` dispatches on, extracted from a
/// *borrowed* peek of the callee: cloning the callee value outright
/// would box-clone the receiver of every native method call (two heap
/// round-trips per `mu.Lock()`/`mu.Unlock()` pair in a lock-heavy
/// loop).
enum CallShape {
    Builtin(u16),
    /// Method name only — the receiver stays in its stacked box and is
    /// *taken* (not cloned) out of the callee slot at dispatch time.
    Method(u32),
    /// Plain function or closure value (cheap to copy).
    Callable(Value),
    Nil,
    Other(&'static str),
}

fn exec_call(vm: &mut Vm, gid: Gid, argc: u8) -> Flow {
    let shape = match peek(vm, gid, argc as usize) {
        Value::Builtin(b) => CallShape::Builtin(*b),
        Value::Method { name, .. } => CallShape::Method(*name),
        Value::Func(f) => CallShape::Callable(Value::Func(*f)),
        Value::Closure(c) => CallShape::Callable(Value::Closure(*c)),
        Value::Nil => CallShape::Nil,
        other => CallShape::Other(other.type_name()),
    };
    match shape {
        CallShape::Builtin(b) => {
            let mut args = Vec::with_capacity(argc as usize);
            for _ in 0..argc {
                args.push(pop(vm, gid));
            }
            args.reverse();
            pop(vm, gid); // callee
            match natives::call_builtin(vm, gid, b, args) {
                natives::BuiltinOutcome::Value(v) => {
                    push(vm, gid, v);
                    Flow::Next
                }
                natives::BuiltinOutcome::Sleep(until, v) => {
                    vm.memo.opaque(vm.steps);
                    vm.gos[gid].sleep_until = Some(until);
                    vm.sleepers += 1;
                    vm.gos[gid].wake = Some(WakeAction {
                        pops: 0,
                        push: vec![v],
                        acquire: None,
                        jump_to: None,
                    });
                    Flow::Park("sleep")
                }
                natives::BuiltinOutcome::Error(e) => Flow::Panic(e),
            }
        }
        CallShape::Method(name) => {
            // Take the receiver box out of the stacked callee slot (the
            // slot temporarily holds `Nil`) so dispatch borrows `&Value`
            // without cloning the receiver. The box is restored on park
            // (the retry protocol re-executes this Call) and recycled on
            // completion.
            let slot = vm.gos[gid].stack.len() - 1 - argc as usize;
            let recv = match std::mem::replace(&mut vm.gos[gid].stack[slot], Value::Nil) {
                Value::Method { recv, .. } => recv,
                _ => unreachable!("peeked callee is a method"),
            };
            // User-declared methods first.
            if vm.method_func(&recv, name).is_some() {
                let mut args = vm.arg_buf();
                for _ in 0..argc {
                    args.push(pop(vm, gid));
                }
                args.reverse();
                pop(vm, gid); // callee placeholder
                match vm.push_call(gid, Value::Method { recv, name }, args) {
                    Ok(()) => Flow::Stay,
                    Err(e) => Flow::Panic(e),
                }
            } else {
                // Native method: peek args (retry protocol — only pop on
                // completion).
                let mut args = vm.arg_buf();
                for i in 0..argc as usize {
                    args.push(peek(vm, gid, argc as usize - 1 - i).clone());
                }
                let outcome = match vm.native_of(name) {
                    Some(m) => natives::dispatch_method(vm, gid, &recv, m, &args),
                    None => natives::MethodOutcome::NotNative,
                };
                vm.recycle_args(args);
                match outcome {
                    natives::MethodOutcome::Done(v) => {
                        for _ in 0..argc {
                            pop(vm, gid);
                        }
                        pop(vm, gid); // callee placeholder
                        let mut recv = recv;
                        *recv = Value::Nil;
                        vm.recycle_method_box(recv);
                        push(vm, gid, v);
                        Flow::Next
                    }
                    natives::MethodOutcome::Park(reason) => {
                        vm.gos[gid].stack[slot] = Value::Method { recv, name };
                        Flow::Park(reason)
                    }
                    natives::MethodOutcome::ParkArmed(reason) => {
                        // Wake action pre-installed by the native; its
                        // pops are relative to the unchanged layout, so
                        // restore the callee slot too.
                        vm.gos[gid].stack[slot] = Value::Method { recv, name };
                        Flow::Park(reason)
                    }
                    natives::MethodOutcome::NotNative => {
                        let msg =
                            format!("unknown method `{}` on {}", vm.name(name), recv.type_name());
                        vm.gos[gid].stack[slot] = Value::Method { recv, name };
                        Flow::Panic(msg)
                    }
                    natives::MethodOutcome::Error(e) => {
                        vm.gos[gid].stack[slot] = Value::Method { recv, name };
                        Flow::Panic(e)
                    }
                }
            }
        }
        CallShape::Callable(callee) => {
            let mut args = vm.arg_buf();
            for _ in 0..argc {
                args.push(pop(vm, gid));
            }
            args.reverse();
            pop(vm, gid); // callee (already extracted from the peek)
            match vm.push_call(gid, callee, args) {
                Ok(()) => Flow::Stay,
                Err(e) => Flow::Panic(e),
            }
        }
        CallShape::Nil => Flow::Panic(
            "invalid memory address or nil pointer dereference (nil function call)".into(),
        ),
        CallShape::Other(ty) => Flow::Panic(format!("cannot call {ty}")),
    }
}

// ---------------------------------------------------------------- channels

fn exec_send(vm: &mut Vm, gid: Gid) -> Flow {
    let chan = peek(vm, gid, 1).clone();
    let r = match chan {
        Value::Chan(r) => r,
        Value::Nil => return Flow::Park("send on nil channel"),
        other => return Flow::Panic(format!("send on {}", other.type_name())),
    };
    if vm.heap.chans[r].closed {
        return Flow::Panic("send on closed channel".into());
    }
    let cap = vm.heap.chans[r].cap;
    let qlen = vm.heap.chans[r].queue.len();
    if cap > 0 && qlen < cap {
        let v = pop(vm, gid);
        pop(vm, gid); // chan
        vm.chan_send_commit(gid, r, v);
        return Flow::Next;
    }
    // Rendezvous (or full buffer): try direct hand-off to a receiver.
    if let Some(rgid) = take_recv_waiter(vm, r) {
        let v = pop(vm, gid);
        pop(vm, gid); // chan
        deliver_to_receiver(vm, gid, rgid, r, v);
        return Flow::Next;
    }
    // Park: register and wait.
    if !vm.heap.chans[r].send_waiters.contains(&gid) {
        vm.heap.chans[r].send_waiters.push(gid);
    }
    vm.gos[gid].parked_on = Some(r);
    Flow::Park("chan send")
}

fn exec_recv(vm: &mut Vm, gid: Gid, comma_ok: bool) -> Flow {
    let chan = peek(vm, gid, 0).clone();
    let r = match chan {
        Value::Chan(r) => r,
        Value::Nil => return Flow::Park("receive on nil channel"),
        other => return Flow::Panic(format!("receive from {}", other.type_name())),
    };
    if let Some((v, ok)) = vm.chan_try_recv(gid, r) {
        pop(vm, gid); // chan
        push(vm, gid, v);
        if comma_ok {
            push(vm, gid, Value::Bool(ok));
        }
        return Flow::Next;
    }
    // Unbuffered hand-off from a parked sender.
    if let Some((sgid, v)) = take_send_waiter(vm, r) {
        pop(vm, gid); // chan
                      // Sender's release edge → receiver.
        let sclock = vm.det.release_snapshot(sgid);
        vm.det.acquire_clock(gid, &sclock);
        vm.det.recycle_clock(sclock);
        // Receiver's release edge → sender ("receive happens before the
        // send completes").
        let rclock = vm.det.release_snapshot(gid);
        complete_sender(vm, sgid, rclock);
        push(vm, gid, v);
        if comma_ok {
            push(vm, gid, Value::Bool(true));
        }
        return Flow::Next;
    }
    if !vm.heap.chans[r].recv_waiters.contains(&gid) {
        vm.heap.chans[r].recv_waiters.push(gid);
    }
    vm.gos[gid].parked_on = Some(r);
    vm.gos[gid].parked_recv_comma_ok = comma_ok;
    Flow::Park("chan receive")
}

/// Pops a valid parked receiver from the channel's waiter list.
fn take_recv_waiter(vm: &mut Vm, ch: ObjRef) -> Option<Gid> {
    loop {
        let g = {
            let list = &mut vm.heap.chans[ch].recv_waiters;
            if list.is_empty() {
                return None;
            }
            list.remove(0)
        };
        let go = &vm.gos[g];
        let valid = go.status == Status::Blocked
            && (go.parked_on == Some(ch)
                || go
                    .select
                    .as_ref()
                    .map(|s| {
                        s.cases
                            .iter()
                            .any(|c| matches!(c, ParkedCase::Recv { chan, .. } if *chan == ch))
                    })
                    .unwrap_or(false));
        if valid {
            return Some(g);
        }
    }
}

/// Pops a valid parked sender; returns its value (taken from its parked
/// state or its stack).
fn take_send_waiter(vm: &mut Vm, ch: ObjRef) -> Option<(Gid, Value)> {
    loop {
        let g = {
            let list = &mut vm.heap.chans[ch].send_waiters;
            if list.is_empty() {
                return None;
            }
            list.remove(0)
        };
        if vm.gos[g].status != Status::Blocked {
            continue;
        }
        // Select-parked sender?
        if vm.gos[g].select.is_some() {
            let found = vm.gos[g].select.as_ref().and_then(|s| {
                s.cases.iter().enumerate().find_map(|(i, c)| match c {
                    ParkedCase::Send { chan, value, body } if *chan == ch => {
                        Some((i, value.clone(), *body))
                    }
                    _ => None,
                })
            });
            if let Some((_, value, body)) = found {
                // Complete the select: jump to the send body.
                vm.gos[g].select = None;
                vm.set_status(g, Status::Runnable);
                vm.gos[g].wake = Some(WakeAction {
                    pops: 0,
                    push: Vec::new(),
                    acquire: None,
                    jump_to: Some(body),
                });
                return Some((g, value));
            }
            continue;
        }
        if vm.gos[g].parked_on == Some(ch) {
            // Plain sender: stack top is the value (chan below it).
            let v = vm.gos[g].stack.last().cloned().unwrap_or(Value::Nil);
            vm.set_status(g, Status::Runnable);
            vm.gos[g].parked_on = None;
            vm.gos[g].wake = Some(WakeAction {
                pops: 2,
                push: Vec::new(),
                acquire: None,
                jump_to: None,
            });
            return Some((g, v));
        }
    }
}

/// Finishes a sender whose value was taken by a receiver: installs the
/// receiver's clock into its pending wake action.
fn complete_sender(vm: &mut Vm, sgid: Gid, rclock: racedet::VectorClock) {
    if let Some(w) = &mut vm.gos[sgid].wake {
        w.acquire = Some(rclock);
    }
}

/// Delivers `v` from a sender directly to a parked receiver.
fn deliver_to_receiver(vm: &mut Vm, sgid: Gid, rgid: Gid, ch: ObjRef, v: Value) {
    // HB edges both ways (unbuffered rendezvous).
    let sclock = vm.det.release_snapshot(sgid);
    let rclock = vm.det.release_snapshot(rgid);
    vm.det.acquire_clock(sgid, &rclock);
    vm.det.recycle_clock(rclock);

    if vm.gos[rgid].select.is_some() {
        let found = vm.gos[rgid].select.as_ref().and_then(|s| {
            s.cases.iter().find_map(|c| match c {
                ParkedCase::Recv {
                    chan,
                    body,
                    push_value,
                    push_ok,
                } if *chan == ch => Some((*body, *push_value, *push_ok)),
                _ => None,
            })
        });
        if let Some((body, push_value, push_ok)) = found {
            let mut pushes = Vec::new();
            if push_value {
                pushes.push(v);
                if push_ok {
                    pushes.push(Value::Bool(true));
                }
            }
            vm.gos[rgid].select = None;
            vm.set_status(rgid, Status::Runnable);
            vm.gos[rgid].wake = Some(WakeAction {
                pops: 0,
                push: pushes,
                acquire: Some(sclock),
                jump_to: Some(body),
            });
        }
        return;
    }
    // Plain receiver parked at a Recv op (its chan operand still stacked).
    let comma_ok = vm.gos[rgid].parked_recv_comma_ok;
    let mut pushes = vec![v];
    if comma_ok {
        pushes.push(Value::Bool(true));
    }
    vm.set_status(rgid, Status::Runnable);
    vm.gos[rgid].parked_on = None;
    vm.gos[rgid].wake = Some(WakeAction {
        pops: 1,
        push: pushes,
        acquire: Some(sclock),
        jump_to: None,
    });
}

// ------------------------------------------------------------------ select

fn exec_select(vm: &mut Vm, gid: Gid, spec_id: u32) -> Flow {
    let spec = vm.prog.selects[spec_id as usize].clone();
    // Pop case operands (pushed in case order → pop in reverse).
    let mut cases: Vec<ParkedCase> = Vec::with_capacity(spec.cases.len());
    let mut default_body = None;
    for case in spec.cases.iter().rev() {
        match case {
            SelectCaseSpec::Send { body } => {
                let value = pop(vm, gid);
                let chan = pop(vm, gid);
                let r = match chan {
                    Value::Chan(r) => r,
                    Value::Nil => usize::MAX,
                    other => return Flow::Panic(format!("select send on {}", other.type_name())),
                };
                cases.push(ParkedCase::Send {
                    chan: r,
                    value,
                    body: *body as usize,
                });
            }
            SelectCaseSpec::Recv {
                body,
                push_value,
                push_ok,
            } => {
                let chan = pop(vm, gid);
                let r = match chan {
                    Value::Chan(r) => r,
                    Value::Nil => usize::MAX,
                    other => {
                        return Flow::Panic(format!("select receive on {}", other.type_name()))
                    }
                };
                cases.push(ParkedCase::Recv {
                    chan: r,
                    body: *body as usize,
                    push_value: *push_value,
                    push_ok: *push_ok,
                });
            }
            SelectCaseSpec::Default { body } => {
                default_body = Some(*body as usize);
            }
        }
    }
    cases.reverse();

    match try_select(vm, gid, &cases) {
        Some(flow) => flow,
        None => match default_body {
            Some(b) => Flow::Jump(b),
            None => {
                park_select(vm, gid, cases);
                Flow::Park("select")
            }
        },
    }
}

/// Attempts each ready case (in seeded random order). Returns `None`
/// when nothing is ready.
pub(crate) fn try_select(vm: &mut Vm, gid: Gid, cases: &[ParkedCase]) -> Option<Flow> {
    let mut order: Vec<usize> = (0..cases.len()).collect();
    if order.len() > 1 {
        vm.memo.opaque(vm.steps);
    }
    // Fisher–Yates with the VM's seeded RNG.
    for i in (1..order.len()).rev() {
        let j = vm.sched.rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for &i in &order {
        match &cases[i] {
            ParkedCase::Recv {
                chan,
                body,
                push_value,
                push_ok,
            } => {
                if *chan == usize::MAX {
                    continue; // nil channel: never ready
                }
                if let Some((v, ok)) = vm.chan_try_recv(gid, *chan) {
                    if *push_value {
                        push(vm, gid, v);
                        if *push_ok {
                            push(vm, gid, Value::Bool(ok));
                        }
                    }
                    return Some(Flow::Jump(*body));
                }
                if let Some((sgid, v)) = take_send_waiter(vm, *chan) {
                    let sclock = vm.det.release_snapshot(sgid);
                    vm.det.acquire_clock(gid, &sclock);
                    vm.det.recycle_clock(sclock);
                    let rclock = vm.det.release_snapshot(gid);
                    complete_sender(vm, sgid, rclock);
                    if *push_value {
                        push(vm, gid, v);
                        if *push_ok {
                            push(vm, gid, Value::Bool(true));
                        }
                    }
                    return Some(Flow::Jump(*body));
                }
            }
            ParkedCase::Send { chan, value, body } => {
                if *chan == usize::MAX {
                    continue;
                }
                if vm.heap.chans[*chan].closed {
                    return Some(Flow::Panic("send on closed channel".into()));
                }
                let cap = vm.heap.chans[*chan].cap;
                let qlen = vm.heap.chans[*chan].queue.len();
                if cap > 0 && qlen < cap {
                    vm.chan_send_commit(gid, *chan, value.clone());
                    return Some(Flow::Jump(*body));
                }
                if let Some(rgid) = take_recv_waiter(vm, *chan) {
                    deliver_to_receiver(vm, gid, rgid, *chan, value.clone());
                    return Some(Flow::Jump(*body));
                }
            }
        }
    }
    None
}

fn park_select(vm: &mut Vm, gid: Gid, cases: Vec<ParkedCase>) {
    for c in &cases {
        match c {
            ParkedCase::Recv { chan, .. }
                if *chan != usize::MAX && !vm.heap.chans[*chan].recv_waiters.contains(&gid) =>
            {
                vm.heap.chans[*chan].recv_waiters.push(gid);
            }
            ParkedCase::Send { chan, .. }
                if *chan != usize::MAX && !vm.heap.chans[*chan].send_waiters.contains(&gid) =>
            {
                vm.heap.chans[*chan].send_waiters.push(gid);
            }
            _ => {}
        }
    }
    vm.gos[gid].select = Some(ParkedSelect { cases });
}

/// Re-parks a select after an unsuccessful retry (re-registers waiters).
pub(crate) fn repark_select(vm: &mut Vm, gid: Gid, sel: ParkedSelect) {
    park_select(vm, gid, sel.cases);
}
