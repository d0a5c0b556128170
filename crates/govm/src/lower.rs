//! Lowering pass: fused superinstructions for the register tier.
//!
//! The stack `Op` tier stays the golden reference; this pass runs after
//! `govm::compile` (once per [`crate::Vm`], when it builds its
//! per-program tables) and produces, per function, a pc-indexed table
//! of *fused superinstructions* — the hottest four-op stack sequences
//! measured by `BENCH_hotpath.json` (statement-level native calls like
//! `mu.Lock()`, counter updates like `n = n + 1`, and loop-condition
//! compare-and-branch) collapsed into one dispatch each. The pc space is
//! unchanged: a fused entry at `p` covers `code[p..p+4]`, and the
//! register exec loop falls back to single-op execution at any pc
//! without an entry (including mid-window jump targets), so lowering can
//! never change program behaviour.
//!
//! Bit-identity with the stack tier is structural, not best-effort: a
//! fused handler charges `vm.steps` before each covered sub-op exactly
//! like the quantum loop does, updates the frame pc before every
//! detector-visible sub-op (so stack generations, interned snapshots and
//! race reports see the same `(func, pc)` the stack tier would), and is
//! only entered when the whole window fits in the remaining quantum
//! allowance (so preemption points are unchanged). Everything that stays
//! in Rust locals — the loaded operands, the arithmetic, the branch
//! decision — is precisely the operand-stack traffic the tier removes.

use crate::bytecode::{CompiledFunc, Op};

/// Width (in stack-tier ops) of every fused window.
pub const FUSED_WIDTH: usize = 4;

/// Operand source/destination of a fused superinstruction: the three
/// addressable cell kinds a `Load*`/`Store*` op can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Frame-local slot (`Op::LoadLocal` / `Op::StoreLocal`).
    Local(u16),
    /// Captured upvalue (`Op::LoadUpval` / `Op::StoreUpval`).
    Upval(u16),
    /// Package-level global (`Op::LoadGlobal` / `Op::StoreGlobal`).
    Global(u16),
}

/// Comparison selector for the fused compare-and-branch forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A fused superinstruction covering `code[pc..pc + FUSED_WIDTH]`.
///
/// Jump targets keep the stack tier's `i32` operand form (cast to
/// `usize` at execution, exactly like `Op::JumpIfFalse`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fused {
    /// `recv.name()` as a statement:
    /// `[Load recv, BindMethod name, Call{argc:0}, Pop]`.
    /// The sync-heavy hot path (`mu.Lock()`, `mu.Unlock()`, `wg.Done()`).
    NativeCallStmt {
        /// Receiver cell.
        recv: Src,
        /// Method name (string-pool id).
        name: u32,
    },
    /// `dst = a + k`: `[Load a, ConstInt k, Add, Store dst]`
    /// (counter bumps, loop increments).
    AddConstStore {
        /// Left operand cell.
        a: Src,
        /// Immediate addend.
        k: i64,
        /// Destination cell.
        dst: Src,
    },
    /// `dst = a + b`: `[Load a, Load b, Add, Store dst]`.
    AddStore {
        /// Left operand cell.
        a: Src,
        /// Right operand cell.
        b: Src,
        /// Destination cell.
        dst: Src,
    },
    /// `if !(a <op> k) goto target`:
    /// `[Load a, ConstInt k, cmp, JumpIfFalse target]` (loop conditions).
    CmpConstJump {
        /// Left operand cell.
        a: Src,
        /// Immediate right operand.
        k: i64,
        /// Comparison.
        op: CmpOp,
        /// `JumpIfFalse` target.
        target: i32,
    },
    /// `if !(a <op> b) goto target`:
    /// `[Load a, Load b, cmp, JumpIfFalse target]`.
    CmpJump {
        /// Left operand cell.
        a: Src,
        /// Right operand cell.
        b: Src,
        /// Comparison.
        op: CmpOp,
        /// `JumpIfFalse` target.
        target: i32,
    },
}

fn load_src(op: &Op) -> Option<Src> {
    match op {
        Op::LoadLocal(s) => Some(Src::Local(*s)),
        Op::LoadUpval(i) => Some(Src::Upval(*i)),
        Op::LoadGlobal(i) => Some(Src::Global(*i)),
        _ => None,
    }
}

fn store_dst(op: &Op) -> Option<Src> {
    match op {
        Op::StoreLocal(s) => Some(Src::Local(*s)),
        Op::StoreUpval(i) => Some(Src::Upval(*i)),
        Op::StoreGlobal(i) => Some(Src::Global(*i)),
        _ => None,
    }
}

fn cmp_op(op: &Op) -> Option<CmpOp> {
    match op {
        Op::Lt => Some(CmpOp::Lt),
        Op::Le => Some(CmpOp::Le),
        Op::Gt => Some(CmpOp::Gt),
        Op::Ge => Some(CmpOp::Ge),
        Op::Eq => Some(CmpOp::Eq),
        Op::Ne => Some(CmpOp::Ne),
        _ => None,
    }
}

fn match_window(w: &[Op]) -> Option<Fused> {
    let a = load_src(&w[0])?;
    if let (Op::BindMethod(name), Op::Call { argc: 0 }, Op::Pop) = (&w[1], &w[2], &w[3]) {
        return Some(Fused::NativeCallStmt {
            recv: a,
            name: *name,
        });
    }
    if let (Op::ConstInt(k), Op::Add) = (&w[1], &w[2]) {
        if let Some(dst) = store_dst(&w[3]) {
            return Some(Fused::AddConstStore { a, k: *k, dst });
        }
    }
    if let Op::Add = &w[2] {
        if let (Some(b), Some(dst)) = (load_src(&w[1]), store_dst(&w[3])) {
            return Some(Fused::AddStore { a, b, dst });
        }
    }
    if let (Op::ConstInt(k), Op::JumpIfFalse(t)) = (&w[1], &w[3]) {
        if let Some(op) = cmp_op(&w[2]) {
            return Some(Fused::CmpConstJump {
                a,
                k: *k,
                op,
                target: *t,
            });
        }
    }
    if let Op::JumpIfFalse(t) = &w[3] {
        if let (Some(b), Some(op)) = (load_src(&w[1]), cmp_op(&w[2])) {
            return Some(Fused::CmpJump {
                a,
                b,
                op,
                target: *t,
            });
        }
    }
    None
}

/// Lowers one compiled function to its fused table: `out[pc]` holds the
/// superinstruction starting at `pc`, if the window matches a pattern.
/// Windows may overlap — the register loop consults the table at its
/// current pc, whatever that is, so overlapping entries are all valid.
pub fn lower_func(f: &CompiledFunc) -> Vec<Option<Fused>> {
    let code = &f.code;
    let mut out = vec![None; code.len()];
    if code.len() < FUSED_WIDTH {
        return out;
    }
    for p in 0..=code.len() - FUSED_WIDTH {
        out[p] = match_window(&code[p..p + FUSED_WIDTH]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(code: Vec<Op>) -> CompiledFunc {
        let lines = vec![1; code.len()];
        CompiledFunc {
            name: "f".into(),
            file: 0,
            params: 0,
            param_names: vec![],
            n_slots: 4,
            results: 0,
            code,
            lines,
        }
    }

    #[test]
    fn fuses_native_call_statement() {
        let f = func(vec![
            Op::LoadLocal(0),
            Op::BindMethod(7),
            Op::Call { argc: 0 },
            Op::Pop,
        ]);
        let t = lower_func(&f);
        assert_eq!(
            t[0],
            Some(Fused::NativeCallStmt {
                recv: Src::Local(0),
                name: 7
            })
        );
        assert!(t[1..].iter().all(|e| e.is_none()));
    }

    #[test]
    fn fuses_counter_bump_and_loop_condition() {
        let f = func(vec![
            Op::LoadUpval(1),
            Op::ConstInt(1),
            Op::Add,
            Op::StoreUpval(1),
            Op::LoadLocal(0),
            Op::ConstInt(100),
            Op::Lt,
            Op::JumpIfFalse(42),
        ]);
        let t = lower_func(&f);
        assert_eq!(
            t[0],
            Some(Fused::AddConstStore {
                a: Src::Upval(1),
                k: 1,
                dst: Src::Upval(1)
            })
        );
        assert_eq!(
            t[4],
            Some(Fused::CmpConstJump {
                a: Src::Local(0),
                k: 100,
                op: CmpOp::Lt,
                target: 42
            })
        );
    }

    #[test]
    fn fuses_two_operand_forms() {
        let f = func(vec![
            Op::LoadLocal(0),
            Op::LoadGlobal(2),
            Op::Add,
            Op::StoreLocal(3),
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Ge,
            Op::JumpIfFalse(9),
        ]);
        let t = lower_func(&f);
        assert_eq!(
            t[0],
            Some(Fused::AddStore {
                a: Src::Local(0),
                b: Src::Global(2),
                dst: Src::Local(3)
            })
        );
        assert_eq!(
            t[4],
            Some(Fused::CmpJump {
                a: Src::Local(0),
                b: Src::Local(1),
                op: CmpOp::Ge,
                target: 9
            })
        );
    }

    #[test]
    fn non_statement_calls_and_argful_calls_stay_single() {
        // Call result consumed (no Pop) — not a statement, not fused.
        let f = func(vec![
            Op::LoadLocal(0),
            Op::BindMethod(1),
            Op::Call { argc: 0 },
            Op::StoreLocal(2),
        ]);
        assert!(lower_func(&f)[0].is_none());
        // Call with arguments — not fused.
        let g = func(vec![
            Op::LoadLocal(0),
            Op::BindMethod(1),
            Op::Call { argc: 1 },
            Op::Pop,
        ]);
        assert!(lower_func(&g)[0].is_none());
    }

    #[test]
    fn short_functions_lower_to_empty_tables() {
        let f = func(vec![Op::ConstNil, Op::Return { n: 1 }]);
        assert_eq!(lower_func(&f), vec![None, None]);
    }
}
