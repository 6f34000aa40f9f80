//! The compiled-code evaluator ("native" execution of JIT output).
//!
//! Executes optimized IR against the live VM: registers live in
//! `Vm::reg_frames` so the garbage collector can see them as roots.
//! Exceptions dispatch through the translated handler table (walking the
//! inline-frame chain); uncommon traps rebuild the interpreter's locals
//! from the anchor registers and hand control back to the VM for
//! de-optimization.

use cse_bytecode::{CmpOp, ExcKind};

use super::ir::*;
use crate::events::DeoptReason;
use crate::exec::{CrashInfo, CrashKind, CrashPhase};
use crate::faults::BugId;
use crate::value::Value;
use crate::{Exit, Vm};

/// How a compiled-code execution ended (normal exits only; exceptions and
/// crashes propagate as the VM's internal exit type).
#[derive(Debug)]
pub enum IrOutcome {
    Return(Option<Value>),
    /// An uncommon trap fired: de-optimize and resume interpretation at
    /// `bc_pc` with the given locals.
    Deopt {
        bc_pc: u32,
        locals: Vec<Value>,
        reason: DeoptReason,
    },
    /// Profiled lower-tier code observed its back-edge counters crossing
    /// the next tier's threshold (C1-profiling-feeds-C2): hand control
    /// back at the loop header so the VM can re-enter through a hotter
    /// compilation. Not a de-optimization — no cool-down.
    TierUp {
        bc_pc: u32,
        locals: Vec<Value>,
    },
}

/// Runs a compiled function. `entry_locals` seeds the outermost frame's
/// anchor registers (method arguments, or the full interpreter locals for
/// OSR entries).
pub(crate) fn run_ir(
    vm: &mut Vm<'_>,
    func: &IrFunc,
    entry_locals: Vec<Value>,
) -> Result<IrOutcome, Exit> {
    debug_assert_eq!(func.frames[0].local_base, 0, "outer frame locals start at register 0");
    let mut regs = vec![Value::I(0); func.num_regs as usize];
    let num_locals0 = func.frames[0].num_locals as usize;
    for (i, v) in entry_locals.into_iter().take(num_locals0).enumerate() {
        regs[i] = v;
    }
    // Injected OSR local-transfer bug (ART): with two or more long locals,
    // the first long local arrives corrupted.
    if func.osr_entry.is_some() && vm.fault_fired(BugId::ArtOsrLongTransfer) {
        let longs: Vec<usize> =
            (0..num_locals0).filter(|&i| matches!(regs[i], Value::L(_))).collect();
        if longs.len() >= 2 {
            if let Value::L(v) = &mut regs[longs[0]] {
                *v ^= 1;
            }
        }
    }
    vm.depth += 1;
    vm.reg_frames.push(regs);
    let frame_idx = vm.reg_frames.len() - 1;
    let result = exec_loop(vm, func, frame_idx);
    vm.reg_frames.pop();
    vm.depth -= 1;
    result
}

/// Locates the handler for an exception raised at (`frame`, `bc_pc`),
/// walking outward through inline frames.
fn find_handler(func: &IrFunc, mut frame: u16, mut bc_pc: u32) -> Option<usize> {
    loop {
        if let Some(idx) = func
            .handlers
            .iter()
            .position(|h| h.frame == frame && bc_pc >= h.start_bc && bc_pc < h.end_bc)
        {
            return Some(idx);
        }
        match func.frames[frame as usize].parent {
            Some((parent, call_pc)) => {
                frame = parent;
                bc_pc = call_pc;
            }
            None => return None,
        }
    }
}

#[allow(clippy::too_many_lines)]
fn exec_loop(vm: &mut Vm<'_>, func: &IrFunc, frame_idx: usize) -> Result<IrOutcome, Exit> {
    // Interned literal pool (shared with the interpreter): `ConstS` below
    // is a refcount bump, never a per-execution allocation.
    let decoded = vm.decoded();
    let mut block: BlockId = 0;
    let mut inst_idx: usize = 0;
    // Lower-tier compiled code keeps profiling: back-jumps feed the
    // bytecode back-edge counters so hot loops can promote to the next
    // tier (the C1-profiled-code model). Top-tier code does not profile.
    let top = vm.config.tiers.len() as u8;
    let profiled = func.tier.0 < top;
    let mut back_jumps: u64 = 0;
    // Tier-up may only hand control back when execution is *at* the OSR
    // header (locals then exactly describe the interpreter state there);
    // the header's block is what the prologue jumps to.
    let osr_header_block: Option<BlockId> = match (&func.osr_entry, &func.blocks[0].term) {
        (Some(_), Term::Jump(b)) => Some(*b),
        _ => None,
    };
    // Which bytecode back-edge counter the profiled bumps feed: the OSR
    // header's own counter, or the method's first loop for entry bodies.
    let bump_idx: Option<usize> = if profiled {
        let headers = &vm.program.method(func.method).loop_headers;
        match func.osr_entry {
            Some(h) => headers.binary_search(&h).ok(),
            None => (!headers.is_empty()).then_some(0),
        }
    } else {
        None
    };
    macro_rules! reg {
        ($r:expr) => {
            vm.reg_frames[frame_idx][$r as usize]
        };
    }
    'dispatch: loop {
        let b = &func.blocks[block as usize];
        while inst_idx < b.insts.len() {
            let inst = &b.insts[inst_idx];
            vm.burn(1)?;
            vm.stats.jit_ops += 1;
            // Exception plumbing: ops that raise go through `raise` below.
            let mut exception: Option<(ExcKind, i32)> = None;
            let mut result: Option<Value> = None;
            match &inst.op {
                Op::ConstI(v) => result = Some(Value::I(*v)),
                Op::ConstL(v) => result = Some(Value::L(*v)),
                Op::ConstS(s) => {
                    result = Some(Value::S(decoded.string(*s).clone()));
                }
                Op::ConstNull => result = Some(Value::Null),
                Op::Copy(r) => result = Some(reg!(*r).clone()),
                Op::BinI(kind, a, b2) => {
                    let x = reg!(*a).as_i();
                    let y = reg!(*b2).as_i();
                    match eval_bin_i(*kind, x, y) {
                        Ok(v) => result = Some(Value::I(v)),
                        Err(e) => exception = Some(e),
                    }
                }
                Op::BinL(kind, a, b2) => {
                    let x = reg!(*a).as_l();
                    match kind {
                        BinKind::Shl | BinKind::Shr | BinKind::Ushr => {
                            let y = reg!(*b2).as_i();
                            let v = match kind {
                                BinKind::Shl => x.wrapping_shl(y as u32),
                                BinKind::Shr => x.wrapping_shr(y as u32),
                                _ => ((x as u64).wrapping_shr(y as u32)) as i64,
                            };
                            result = Some(Value::L(v));
                        }
                        _ => {
                            let y = reg!(*b2).as_l();
                            match eval_bin_l(*kind, x, y) {
                                Ok(v) => result = Some(Value::L(v)),
                                Err(e) => exception = Some(e),
                            }
                        }
                    }
                }
                Op::NegI(r) => result = Some(Value::I(reg!(*r).as_i().wrapping_neg())),
                Op::NegL(r) => result = Some(Value::L(reg!(*r).as_l().wrapping_neg())),
                Op::I2L(r) => result = Some(Value::L(i64::from(reg!(*r).as_i()))),
                Op::L2I(r) => result = Some(Value::I(reg!(*r).as_l() as i32)),
                Op::I2B(r) => result = Some(Value::I(i32::from(reg!(*r).as_i() as i8))),
                Op::I2S(r) => result = Some(Value::str(reg!(*r).as_i().to_string())),
                Op::L2S(r) => result = Some(Value::str(reg!(*r).as_l().to_string())),
                Op::Bool2S(r) => {
                    result = Some(Value::str(if reg!(*r).as_bool() { "true" } else { "false" }));
                }
                Op::Concat(a, b2) => {
                    let va = reg!(*a).clone();
                    let vb = reg!(*b2).clone();
                    result = Some(vm.concat(&va, &vb));
                }
                Op::CmpI(op, a, b2) => {
                    result = Some(Value::I(i32::from(op.eval(reg!(*a).as_i(), reg!(*b2).as_i()))));
                }
                Op::CmpL(op, a, b2) => {
                    result = Some(Value::I(i32::from(op.eval(reg!(*a).as_l(), reg!(*b2).as_l()))));
                }
                Op::RefCmp { eq, a, b: b2 } => {
                    let same = reg!(*a).ref_eq(&reg!(*b2));
                    result = Some(Value::I(i32::from(same == *eq)));
                }
                Op::GetStatic { class, field } => {
                    result = Some(vm.statics[class.0 as usize][*field as usize].clone());
                }
                Op::PutStatic { class, field, val } => {
                    let v = reg!(*val).clone();
                    vm.statics[class.0 as usize][*field as usize] = v;
                }
                Op::GetField { obj, field } => {
                    let o = reg!(*obj).clone();
                    match vm.field_get(&o, *field) {
                        Ok(v) => result = Some(v),
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::PutField { obj, field, val } => {
                    let o = reg!(*obj).clone();
                    let v = reg!(*val).clone();
                    match vm.field_put(&o, *field, v) {
                        Ok(()) => {}
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::NewObject(class) => match vm.alloc_object(*class) {
                    Ok(v) => result = Some(v),
                    Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                    Err(e) => return finish(vm, frame_idx, Err(e)),
                },
                Op::NewArray { kind, len } => {
                    let n = reg!(*len).as_i();
                    match vm.alloc_array(*kind, n) {
                        Ok(v) => result = Some(v),
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::NewMultiArray { kind, dims } => {
                    let lens: Vec<i32> = dims.iter().map(|r| reg!(*r).as_i()).collect();
                    match vm.alloc_multi(*kind, &lens) {
                        Ok(v) => result = Some(v),
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::ArrLoad { arr, idx, .. } => {
                    let a = reg!(*arr).clone();
                    let i = reg!(*idx).as_i();
                    match vm.arr_load(&a, i) {
                        Ok(v) => result = Some(v),
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::ArrStore { arr, idx, val, .. } => {
                    let a = reg!(*arr).clone();
                    let i = reg!(*idx).as_i();
                    let v = reg!(*val).clone();
                    match vm.arr_store(&a, i, v) {
                        Ok(()) => {}
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::ArrLen(r) => {
                    let a = reg!(*r).clone();
                    match vm.arr_len(&a) {
                        Ok(n) => result = Some(Value::I(n)),
                        Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                        Err(e) => return finish(vm, frame_idx, Err(e)),
                    }
                }
                Op::Call { method, args } => {
                    let callee = vm.program.method(*method);
                    let argv: Vec<Value> = args.iter().map(|r| reg!(*r).clone()).collect();
                    if !callee.is_static && argv[0].is_null() {
                        exception = Some((ExcKind::NullPointer, 0));
                    } else {
                        match vm.call_method(*method, argv) {
                            Ok(v) => result = v,
                            Err(Exit::Exception { kind, code }) => exception = Some((kind, code)),
                            Err(e) => return finish(vm, frame_idx, Err(e)),
                        }
                    }
                }
                Op::Println { kind, val } => {
                    let v = reg!(*val).clone();
                    vm.print_value(*kind, &v);
                }
                Op::Mute => vm.mute_depth += 1,
                Op::Unmute => vm.mute_depth = vm.mute_depth.saturating_sub(1),
                Op::ThrowUser(r) => exception = Some((ExcKind::User, reg!(*r).as_i())),
                Op::Rethrow(r) => {
                    let (kind, code) = ExcKind::unpack(reg!(*r).as_l());
                    exception = Some((kind, code));
                }
                Op::CorruptHeap { bug } => {
                    vm.heap.corrupt_for_fault_injection();
                    vm.pending_gc_bug = Some(*bug);
                }
                Op::CrashOnExec { bug } => {
                    return finish(
                        vm,
                        frame_idx,
                        Err(Exit::Crash(CrashInfo {
                            bug: *bug,
                            component: bug.component(),
                            kind: CrashKind::Sigsegv,
                            phase: CrashPhase::Executing,
                            detail: format!(
                                "compiled code of {} dereferenced a wild pointer",
                                vm.program.qualified_name(func.method)
                            ),
                        })),
                    );
                }
                Op::BurnFuel { factor } => {
                    vm.stats.jit_ops += u64::from(*factor);
                    if let Err(e) = vm.burn(u64::from(*factor)) {
                        return finish(vm, frame_idx, Err(e));
                    }
                }
            }
            if let Some((kind, code)) = exception {
                match find_handler(func, inst.frame, inst.bc_pc) {
                    Some(h) => {
                        let handler = &func.handlers[h];
                        if let Some(save) = handler.save_reg {
                            reg!(save) = Value::L(kind.pack(code));
                        }
                        block = handler.target;
                        inst_idx = 0;
                        continue 'dispatch;
                    }
                    None => return finish(vm, frame_idx, Err(Exit::Exception { kind, code })),
                }
            }
            if let Some(v) = result {
                if let Some(dst) = inst.dst {
                    reg!(dst) = v;
                }
            }
            inst_idx += 1;
        }
        // Terminator back-jump profiling (blocks are created in bytecode
        // order, so a jump to a lower id approximates a loop back-edge).
        if profiled {
            let target = match &func.blocks[block as usize].term {
                Term::Jump(t) => Some(*t),
                Term::Branch { if_true, .. } => Some(*if_true),
                _ => None,
            };
            if let Some(t) = target {
                if t <= block {
                    back_jumps += 1;
                    let prof = &mut vm.profiles[func.method.0 as usize];
                    if let Some(idx) = bump_idx {
                        prof.backedges[idx] += 1;
                    }
                    // Periodically check for tier promotion — but only on
                    // the back-jump that re-enters the OSR header itself,
                    // where the anchor registers exactly describe the
                    // interpreter state (a jump back into an *inner* loop
                    // must keep running: bailing there would skip the rest
                    // of the current iteration).
                    if Some(t) == osr_header_block && back_jumps & 7 == 0 && !prof.compile_banned {
                        let next = vm.config.tiers[func.tier.0 as usize].backedge;
                        if prof.backedges.iter().any(|&c| c >= next) {
                            let n = func.frames[0].num_locals as usize;
                            let locals = vm.reg_frames[frame_idx][..n].to_vec();
                            return Ok(IrOutcome::TierUp {
                                bc_pc: func.osr_entry.expect("checked above"),
                                locals,
                            });
                        }
                    }
                }
            }
        }
        match &func.blocks[block as usize].term {
            Term::Jump(b2) => {
                block = *b2;
                inst_idx = 0;
            }
            Term::Branch { cond, if_true, if_false } => {
                let c = reg!(*cond).as_bool();
                block = if c { *if_true } else { *if_false };
                inst_idx = 0;
            }
            Term::Switch { scrut, cases, default } => {
                let v = reg!(*scrut).as_i();
                block = cases
                    .iter()
                    .find(|(label, _)| *label == v)
                    .map(|(_, b2)| *b2)
                    .unwrap_or(*default);
                inst_idx = 0;
            }
            Term::Return(value) => {
                let v = value.map(|r| reg!(r).clone());
                return finish(vm, frame_idx, Ok(IrOutcome::Return(v)));
            }
            Term::Trap { bc_pc, reason } => {
                let n = func.frames[0].num_locals as usize;
                let mut locals: Vec<Value> = vm.reg_frames[frame_idx][..n].to_vec();
                // Injected de-optimization bug (OpenJ9): the rebuilt frame
                // restores the first non-argument local stale (arguments
                // live in registers the deopt stub handles correctly).
                if vm.fault_fired(BugId::J9DeoptStaleLocal) && n >= 8 {
                    let first_var = vm.program.method(func.method).arg_slots();
                    if let Some(v) = locals.get_mut(first_var) {
                        match v {
                            Value::I(v) => *v ^= 1,
                            Value::L(v) => *v ^= 1,
                            _ => {}
                        }
                    }
                }
                return finish(
                    vm,
                    frame_idx,
                    Ok(IrOutcome::Deopt { bc_pc: *bc_pc, locals, reason: *reason }),
                );
            }
        }
    }
}

/// Ensures balanced reg-frame bookkeeping on every exit path.
fn finish(
    _vm: &mut Vm<'_>,
    _frame_idx: usize,
    result: Result<IrOutcome, Exit>,
) -> Result<IrOutcome, Exit> {
    // The reg frame is popped by `run_ir`; this helper exists to funnel all
    // exits through one point (and to keep the loop body tidy).
    result
}

fn eval_bin_i(kind: BinKind, a: i32, b: i32) -> Result<i32, (ExcKind, i32)> {
    Ok(match kind {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => {
            if b == 0 {
                return Err((ExcKind::Arithmetic, 0));
            }
            a.wrapping_div(b)
        }
        BinKind::Rem => {
            if b == 0 {
                return Err((ExcKind::Arithmetic, 0));
            }
            a.wrapping_rem(b)
        }
        BinKind::Shl => a.wrapping_shl(b as u32),
        BinKind::Shr => a.wrapping_shr(b as u32),
        BinKind::Ushr => ((a as u32).wrapping_shr(b as u32)) as i32,
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
    })
}

fn eval_bin_l(kind: BinKind, a: i64, b: i64) -> Result<i64, (ExcKind, i32)> {
    Ok(match kind {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => {
            if b == 0 {
                return Err((ExcKind::Arithmetic, 0));
            }
            a.wrapping_div(b)
        }
        BinKind::Rem => {
            if b == 0 {
                return Err((ExcKind::Arithmetic, 0));
            }
            a.wrapping_rem(b)
        }
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Shl | BinKind::Shr | BinKind::Ushr => unreachable!("long shifts take int rhs"),
    })
}

/// `CmpOp::eval` is generic; re-exported here for evaluator readability.
trait CmpEval {
    fn eval<T: PartialOrd>(&self, a: T, b: T) -> bool;
}

impl CmpEval for CmpOp {
    fn eval<T: PartialOrd>(&self, a: T, b: T) -> bool {
        CmpOp::eval(*self, a, b)
    }
}
