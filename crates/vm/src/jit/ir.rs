//! The JIT's register-based intermediate representation.
//!
//! Design notes, because they carry correctness weight:
//!
//! * **Fixed anchor registers.** Every inline frame's locals occupy a fixed
//!   register range; register `local_base + i` always holds local `i` of
//!   that frame. This makes de-optimization trivial (the interpreter frame
//!   is rebuilt by copying the anchor range) and makes exception-handler
//!   entry sound (bytecode handlers start with an empty operand stack, so
//!   all live state is in locals). Optimization passes must not eliminate,
//!   reorder across throwing instructions, or relocate writes to anchor
//!   registers.
//! * **Fixed stack registers.** During IR construction, operand-stack slot
//!   `d` of a frame maps to register `stack_base + d`, so control-flow
//!   merges need no phis. The resulting IR is copy-heavy by construction —
//!   which is precisely what the copy-propagation and value-numbering
//!   passes exist to clean up, as in a real compiler.
//! * **Provenance.** Every instruction carries its originating inline
//!   frame and bytecode pc, which exception dispatch and uncommon traps
//!   use to find handlers and rebuild interpreter state.

use cse_bytecode::{ArrKind, ClassId, CmpOp, MethodId, PrintKind, StrId};

use super::cfg::BitSet;
use crate::config::Tier;
use crate::events::DeoptReason;
use crate::faults::BugId;

/// A virtual register.
pub type Reg = u32;

/// A basic-block id.
pub type BlockId = u32;

/// Integer binary operators (operands already promoted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    /// Throws `ArithmeticException` on a zero divisor.
    Div,
    /// Throws `ArithmeticException` on a zero divisor.
    Rem,
    Shl,
    Shr,
    Ushr,
    And,
    Or,
    Xor,
}

impl BinKind {
    /// Whether the operator can raise an exception.
    pub fn can_throw(self) -> bool {
        matches!(self, BinKind::Div | BinKind::Rem)
    }

    /// Whether the operator is commutative (used by value numbering).
    pub fn commutative(self) -> bool {
        matches!(self, BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor)
    }
}

/// An IR operation. `dst` lives on [`Inst`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    ConstI(i32),
    ConstL(i64),
    ConstS(StrId),
    ConstNull,
    Copy(Reg),
    BinI(BinKind, Reg, Reg),
    BinL(BinKind, Reg, Reg),
    NegI(Reg),
    NegL(Reg),
    I2L(Reg),
    L2I(Reg),
    I2B(Reg),
    I2S(Reg),
    L2S(Reg),
    Bool2S(Reg),
    Concat(Reg, Reg),
    CmpI(CmpOp, Reg, Reg),
    CmpL(CmpOp, Reg, Reg),
    /// `eq` selects `==` vs `!=`.
    RefCmp {
        eq: bool,
        a: Reg,
        b: Reg,
    },
    GetStatic {
        class: ClassId,
        field: u32,
    },
    PutStatic {
        class: ClassId,
        field: u32,
        val: Reg,
    },
    GetField {
        obj: Reg,
        field: u32,
    },
    PutField {
        obj: Reg,
        field: u32,
        val: Reg,
    },
    NewObject(ClassId),
    NewArray {
        kind: ArrKind,
        len: Reg,
    },
    NewMultiArray {
        kind: ArrKind,
        dims: Vec<Reg>,
    },
    ArrLoad {
        kind: ArrKind,
        arr: Reg,
        idx: Reg,
    },
    ArrStore {
        kind: ArrKind,
        arr: Reg,
        idx: Reg,
        val: Reg,
    },
    ArrLen(Reg),
    /// A non-inlined call back into the VM's dispatch.
    Call {
        method: MethodId,
        args: Vec<Reg>,
    },
    Println {
        kind: PrintKind,
        val: Reg,
    },
    Mute,
    Unmute,
    /// Raises a user exception with the code in the register.
    ThrowUser(Reg),
    /// Re-raises the packed exception stored in the register (finally).
    Rethrow(Reg),
    /// Fault-injection marker: executing this corrupts the heap (models a
    /// JIT bug writing past an object; detected by the next GC).
    CorruptHeap {
        bug: BugId,
    },
    /// Fault-injection marker: executing this crashes the process (models
    /// wild compiled code).
    CrashOnExec {
        bug: BugId,
    },
    /// Fault-injection marker: burns `factor` units of fuel (models
    /// pathologically slow compiled code — the performance-bug class).
    BurnFuel {
        factor: u32,
    },
}

impl Op {
    /// Whether executing this op can raise a MiniJava exception.
    pub fn can_throw(&self) -> bool {
        match self {
            Op::BinI(kind, ..) | Op::BinL(kind, ..) => kind.can_throw(),
            Op::GetField { .. }
            | Op::PutField { .. }
            | Op::NewArray { .. }
            | Op::NewMultiArray { .. }
            | Op::ArrLoad { .. }
            | Op::ArrStore { .. }
            | Op::ArrLen(_)
            | Op::Call { .. }
            | Op::ThrowUser(_)
            | Op::Rethrow(_)
            | Op::NewObject(_) => true,
            _ => false,
        }
    }

    /// Whether the op is pure: no side effects, no exceptions, and its
    /// result depends only on its operands (eligible for CSE/LICM).
    pub fn is_pure(&self) -> bool {
        match self {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::Copy(_)
            | Op::NegI(_)
            | Op::NegL(_)
            | Op::I2L(_)
            | Op::L2I(_)
            | Op::I2B(_)
            | Op::I2S(_)
            | Op::L2S(_)
            | Op::Bool2S(_)
            | Op::Concat(..)
            | Op::CmpI(..)
            | Op::CmpL(..)
            | Op::RefCmp { .. } => true,
            Op::BinI(kind, ..) | Op::BinL(kind, ..) => !kind.can_throw(),
            _ => false,
        }
    }

    /// Source registers read by this op.
    pub fn sources(&self) -> Vec<Reg> {
        match self {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::Mute
            | Op::Unmute
            | Op::GetStatic { .. }
            | Op::NewObject(_)
            | Op::CorruptHeap { .. }
            | Op::CrashOnExec { .. }
            | Op::BurnFuel { .. } => vec![],
            Op::Copy(r)
            | Op::NegI(r)
            | Op::NegL(r)
            | Op::I2L(r)
            | Op::L2I(r)
            | Op::I2B(r)
            | Op::I2S(r)
            | Op::L2S(r)
            | Op::Bool2S(r)
            | Op::ArrLen(r)
            | Op::ThrowUser(r)
            | Op::Rethrow(r) => vec![*r],
            Op::BinI(_, a, b)
            | Op::BinL(_, a, b)
            | Op::Concat(a, b)
            | Op::CmpI(_, a, b)
            | Op::CmpL(_, a, b) => vec![*a, *b],
            Op::RefCmp { a, b, .. } => vec![*a, *b],
            Op::PutStatic { val, .. } => vec![*val],
            Op::GetField { obj, .. } => vec![*obj],
            Op::PutField { obj, val, .. } => vec![*obj, *val],
            Op::NewArray { len, .. } => vec![*len],
            Op::NewMultiArray { dims, .. } => dims.clone(),
            Op::ArrLoad { arr, idx, .. } => vec![*arr, *idx],
            Op::ArrStore { arr, idx, val, .. } => vec![*arr, *idx, *val],
            Op::Call { args, .. } => args.clone(),
            Op::Println { val, .. } => vec![*val],
        }
    }

    /// Rewrites source registers through `f`.
    pub fn map_sources(&mut self, f: impl Fn(Reg) -> Reg) {
        match self {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::Mute
            | Op::Unmute
            | Op::GetStatic { .. }
            | Op::NewObject(_)
            | Op::CorruptHeap { .. }
            | Op::CrashOnExec { .. }
            | Op::BurnFuel { .. } => {}
            Op::Copy(r)
            | Op::NegI(r)
            | Op::NegL(r)
            | Op::I2L(r)
            | Op::L2I(r)
            | Op::I2B(r)
            | Op::I2S(r)
            | Op::L2S(r)
            | Op::Bool2S(r)
            | Op::ArrLen(r)
            | Op::ThrowUser(r)
            | Op::Rethrow(r) => *r = f(*r),
            Op::BinI(_, a, b)
            | Op::BinL(_, a, b)
            | Op::Concat(a, b)
            | Op::CmpI(_, a, b)
            | Op::CmpL(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::RefCmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::PutStatic { val, .. } => *val = f(*val),
            Op::GetField { obj, .. } => *obj = f(*obj),
            Op::PutField { obj, val, .. } => {
                *obj = f(*obj);
                *val = f(*val);
            }
            Op::NewArray { len, .. } => *len = f(*len),
            Op::NewMultiArray { dims, .. } => {
                for d in dims {
                    *d = f(*d);
                }
            }
            Op::ArrLoad { arr, idx, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
            }
            Op::ArrStore { arr, idx, val, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *val = f(*val);
            }
            Op::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::Println { val, .. } => *val = f(*val),
        }
    }

    /// Whether the op writes memory or performs I/O (a barrier for code
    /// motion of memory reads).
    pub fn is_memory_write(&self) -> bool {
        matches!(
            self,
            Op::PutStatic { .. }
                | Op::PutField { .. }
                | Op::ArrStore { .. }
                | Op::Call { .. }
                | Op::Println { .. }
                | Op::Mute
                | Op::Unmute
                | Op::CorruptHeap { .. }
        )
    }
}

impl std::fmt::Display for Op {
    /// One-line disassembly, used by [`IrFunc::pretty`] and by
    /// [`crate::jit::verify::IrVerifyError`] reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::ConstI(v) => write!(f, "const.i {v}"),
            Op::ConstL(v) => write!(f, "const.l {v}"),
            Op::ConstS(s) => write!(f, "const.s str{}", s.0),
            Op::ConstNull => write!(f, "const.null"),
            Op::Copy(r) => write!(f, "copy r{r}"),
            Op::BinI(kind, a, b) => write!(f, "{}.i r{a}, r{b}", bin_mnemonic(*kind)),
            Op::BinL(kind, a, b) => write!(f, "{}.l r{a}, r{b}", bin_mnemonic(*kind)),
            Op::NegI(r) => write!(f, "neg.i r{r}"),
            Op::NegL(r) => write!(f, "neg.l r{r}"),
            Op::I2L(r) => write!(f, "i2l r{r}"),
            Op::L2I(r) => write!(f, "l2i r{r}"),
            Op::I2B(r) => write!(f, "i2b r{r}"),
            Op::I2S(r) => write!(f, "i2s r{r}"),
            Op::L2S(r) => write!(f, "l2s r{r}"),
            Op::Bool2S(r) => write!(f, "bool2s r{r}"),
            Op::Concat(a, b) => write!(f, "concat r{a}, r{b}"),
            Op::CmpI(op, a, b) => write!(f, "cmp.i.{op:?} r{a}, r{b}"),
            Op::CmpL(op, a, b) => write!(f, "cmp.l.{op:?} r{a}, r{b}"),
            Op::RefCmp { eq, a, b } => {
                write!(f, "refcmp.{} r{a}, r{b}", if *eq { "eq" } else { "ne" })
            }
            Op::GetStatic { class, field } => write!(f, "getstatic c{}.{field}", class.0),
            Op::PutStatic { class, field, val } => {
                write!(f, "putstatic c{}.{field}, r{val}", class.0)
            }
            Op::GetField { obj, field } => write!(f, "getfield r{obj}.{field}"),
            Op::PutField { obj, field, val } => write!(f, "putfield r{obj}.{field}, r{val}"),
            Op::NewObject(class) => write!(f, "new c{}", class.0),
            Op::NewArray { kind, len } => write!(f, "newarray {kind:?}, r{len}"),
            Op::NewMultiArray { kind, dims } => {
                write!(f, "newmultiarray {kind:?}")?;
                for d in dims {
                    write!(f, ", r{d}")?;
                }
                Ok(())
            }
            Op::ArrLoad { kind, arr, idx } => write!(f, "arrload {kind:?}, r{arr}[r{idx}]"),
            Op::ArrStore { kind, arr, idx, val } => {
                write!(f, "arrstore {kind:?}, r{arr}[r{idx}], r{val}")
            }
            Op::ArrLen(r) => write!(f, "arrlen r{r}"),
            Op::Call { method, args } => {
                write!(f, "call m{}(", method.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "r{a}")?;
                }
                write!(f, ")")
            }
            Op::Println { kind, val } => write!(f, "println.{kind:?} r{val}"),
            Op::Mute => write!(f, "mute"),
            Op::Unmute => write!(f, "unmute"),
            Op::ThrowUser(r) => write!(f, "throw r{r}"),
            Op::Rethrow(r) => write!(f, "rethrow r{r}"),
            Op::CorruptHeap { bug } => write!(f, "corrupt-heap {bug:?}"),
            Op::CrashOnExec { bug } => write!(f, "crash-on-exec {bug:?}"),
            Op::BurnFuel { factor } => write!(f, "burn-fuel {factor}"),
        }
    }
}

fn bin_mnemonic(kind: BinKind) -> &'static str {
    match kind {
        BinKind::Add => "add",
        BinKind::Sub => "sub",
        BinKind::Mul => "mul",
        BinKind::Div => "div",
        BinKind::Rem => "rem",
        BinKind::Shl => "shl",
        BinKind::Shr => "shr",
        BinKind::Ushr => "ushr",
        BinKind::And => "and",
        BinKind::Or => "or",
        BinKind::Xor => "xor",
    }
}

/// An IR instruction with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Destination register, when the op produces a value.
    pub dst: Option<Reg>,
    pub op: Op,
    /// The inline frame this instruction originates from (0 = outermost).
    pub frame: u16,
    /// The bytecode pc (within that frame's method) it lowers.
    pub bc_pc: u32,
}

impl std::fmt::Display for Inst {
    /// `r5 = add.i r1, r2  @f0:pc12` (destination omitted when absent).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(dst) = self.dst {
            write!(f, "r{dst} = ")?;
        }
        write!(f, "{}  @f{}:pc{}", self.op, self.frame, self.bc_pc)
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Jump(BlockId),
    Branch {
        cond: Reg,
        if_true: BlockId,
        if_false: BlockId,
    },
    Switch {
        scrut: Reg,
        cases: Vec<(i32, BlockId)>,
        default: BlockId,
    },
    /// Return from the compiled function (outermost frame only).
    Return(Option<Reg>),
    /// Uncommon trap: de-optimize and resume interpretation at `bc_pc`
    /// of the outermost method, rebuilding locals from anchor registers.
    Trap {
        bc_pc: u32,
        reason: DeoptReason,
    },
}

impl Term {
    /// Successor block ids (empty for `Return`/`Trap`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jump(b) => vec![*b],
            Term::Branch { if_true, if_false, .. } => vec![*if_true, *if_false],
            Term::Switch { cases, default, .. } => {
                let mut out: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                out.push(*default);
                out
            }
            Term::Return(_) | Term::Trap { .. } => vec![],
        }
    }

    /// Source registers read by the terminator.
    pub fn sources(&self) -> Vec<Reg> {
        match self {
            Term::Branch { cond, .. } => vec![*cond],
            Term::Switch { scrut, .. } => vec![*scrut],
            Term::Return(Some(r)) => vec![*r],
            _ => vec![],
        }
    }

    /// Rewrites source registers through `f`.
    pub fn map_sources(&mut self, f: impl Fn(Reg) -> Reg) {
        match self {
            Term::Branch { cond, .. } => *cond = f(*cond),
            Term::Switch { scrut, .. } => *scrut = f(*scrut),
            Term::Return(Some(r)) => *r = f(*r),
            _ => {}
        }
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Jump(b) => write!(f, "jump b{b}"),
            Term::Branch { cond, if_true, if_false } => {
                write!(f, "branch r{cond} ? b{if_true} : b{if_false}")
            }
            Term::Switch { scrut, cases, default } => {
                write!(f, "switch r{scrut} [")?;
                for (i, (v, b)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} => b{b}")?;
                }
                write!(f, "] else b{default}")
            }
            Term::Return(Some(r)) => write!(f, "return r{r}"),
            Term::Return(None) => write!(f, "return"),
            Term::Trap { bc_pc, reason } => write!(f, "trap @pc{bc_pc} ({reason:?})"),
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Term,
}

/// One inline frame of the compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineFrame {
    pub method: MethodId,
    /// First register of this frame's locals.
    pub local_base: Reg,
    pub num_locals: u32,
    /// Parent frame index and the call-site bytecode pc within the parent,
    /// for exception unwinding across inlined calls. `None` for frame 0.
    pub parent: Option<(u16, u32)>,
}

/// An exception-handler entry of the compiled function, in the bytecode
/// coordinates of one inline frame.
#[derive(Debug, Clone, PartialEq)]
pub struct IrHandler {
    pub frame: u16,
    pub start_bc: u32,
    pub end_bc: u32,
    pub target: BlockId,
    /// Anchor register to park the packed exception in, when the source
    /// handler had a save slot.
    pub save_reg: Option<Reg>,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    pub method: MethodId,
    pub tier: Tier,
    /// Entry is block 0.
    pub blocks: Vec<Block>,
    pub num_regs: u32,
    pub frames: Vec<InlineFrame>,
    pub handlers: Vec<IrHandler>,
    /// For OSR variants: the loop-header bytecode pc this function enters
    /// at. Entry still is block 0 (a prologue that jumps to the header).
    pub osr_entry: Option<u32>,
    /// Registers that are anchors (some frame's locals); passes must treat
    /// writes to these conservatively.
    pub anchor_limit_per_frame: Vec<(Reg, Reg)>,
}

impl IrFunc {
    /// Whether `reg` is an anchor register of any inline frame.
    pub fn is_anchor(&self, reg: Reg) -> bool {
        self.anchor_limit_per_frame.iter().any(|&(lo, hi)| reg >= lo && reg < hi)
    }

    /// Total instruction count (for size heuristics and tests).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Predecessor lists per block, including exceptional edges: a handler
    /// target is a successor of every block holding a throwing instruction
    /// in the handler's frame and bytecode range.
    ///
    /// **Order contract.** `preds[b]` lists, first, every terminator edge
    /// into `b` in source-block order (a block appears once per edge, so a
    /// branch with both arms to `b` appears twice); then, handler by
    /// handler in `handlers` order, each covering block in id order that
    /// is not already listed. The order is load-bearing: the natural-loop
    /// walk in [`super::cfg::LoopForest::compute`] follows it, so it fixes
    /// loop-body order, which fixes the order LICM hoists instructions in,
    /// the emitted IR, the operations compiled code executes, and so the
    /// campaign digests.
    ///
    /// Each throwing instruction looks up only the handlers covering it, so
    /// the cost is the instruction count times the try-nesting depth, not
    /// times the handler count: every CFG analysis recomputes
    /// predecessors, so this sits on the JIT's compile-time critical path.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let n = self.blocks.len();
        let mut preds = vec![Vec::new(); n];
        for (id, block) in self.blocks.iter().enumerate() {
            for succ in block.term.successors() {
                preds[succ as usize].push(id as BlockId);
            }
        }
        if self.handlers.is_empty() {
            return preds;
        }
        // Blocks (ascending, deduplicated) with a covered throwing
        // instruction, per handler.
        let ranges = HandlerRanges::new(&self.handlers);
        let mut covering: Vec<Vec<BlockId>> = vec![Vec::new(); self.handlers.len()];
        for (id, block) in self.blocks.iter().enumerate() {
            let id = id as BlockId;
            for inst in block.insts.iter().filter(|inst| inst.op.can_throw()) {
                for &h in ranges.covering(inst.frame, inst.bc_pc) {
                    if covering[h].last() != Some(&id) {
                        covering[h].push(id);
                    }
                }
            }
        }
        // Append the handler edges target by target; within one target,
        // handler order then block order, skipping blocks already listed.
        let mut by_target: Vec<usize> = (0..self.handlers.len()).collect();
        by_target.sort_by_key(|&h| self.handlers[h].target);
        let mut listed = BitSet::new(n);
        for group in by_target.chunk_by(|&a, &b| self.handlers[a].target == self.handlers[b].target)
        {
            let target = &mut preds[self.handlers[group[0]].target as usize];
            for &p in target.iter() {
                listed.insert(p);
            }
            for &h in group {
                for &b in &covering[h] {
                    if listed.insert(b) {
                        target.push(b);
                    }
                }
            }
            for &p in target.iter() {
                listed.remove(p);
            }
        }
        preds
    }

    /// Full-function disassembly (used in verifier incident payloads).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn m{} {} regs={} osr={:?}",
            self.method.0, self.tier, self.num_regs, self.osr_entry
        );
        for (i, frame) in self.frames.iter().enumerate() {
            let _ = writeln!(
                out,
                "  frame f{i}: m{} locals r{}..r{} parent={:?}",
                frame.method.0,
                frame.local_base,
                frame.local_base + frame.num_locals,
                frame.parent
            );
        }
        for h in &self.handlers {
            let _ = writeln!(
                out,
                "  handler f{} pc[{}, {}) -> b{} save={:?}",
                h.frame, h.start_bc, h.end_bc, h.target, h.save_reg
            );
        }
        for (id, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "b{id}:");
            for inst in &block.insts {
                let _ = writeln!(out, "    {inst}");
            }
            let _ = writeln!(out, "    {}", block.term);
        }
        out
    }
}

/// Handler ranges indexed for point queries: per inline frame, the range
/// boundaries cut the bytecode pcs into segments, and each segment lists
/// the handlers covering it, in `handlers` order.
struct HandlerRanges {
    /// Per frame: the sorted distinct boundaries `cuts`, and the covering
    /// handlers of each segment `[cuts[i], cuts[i + 1])`.
    frames: Vec<(Vec<u32>, Vec<Vec<usize>>)>,
}

impl HandlerRanges {
    fn new(handlers: &[IrHandler]) -> HandlerRanges {
        let num_frames = handlers.iter().map(|h| h.frame as usize + 1).max().unwrap_or(0);
        let mut frames: Vec<(Vec<u32>, Vec<Vec<usize>>)> = vec![Default::default(); num_frames];
        for h in handlers {
            frames[h.frame as usize].0.extend([h.start_bc, h.end_bc]);
        }
        for (cuts, segments) in &mut frames {
            cuts.sort_unstable();
            cuts.dedup();
            *segments = vec![Vec::new(); cuts.len().saturating_sub(1)];
        }
        for (i, h) in handlers.iter().enumerate() {
            let (cuts, segments) = &mut frames[h.frame as usize];
            let first = cuts.partition_point(|&c| c < h.start_bc);
            let end = cuts.partition_point(|&c| c < h.end_bc);
            for segment in segments.iter_mut().take(end).skip(first) {
                segment.push(i);
            }
        }
        HandlerRanges { frames }
    }

    /// Indices of the handlers of `frame` whose range contains `pc`.
    fn covering(&self, frame: u16, pc: u32) -> &[usize] {
        let Some((cuts, segments)) = self.frames.get(frame as usize) else {
            return &[];
        };
        // `cuts[i - 1] <= pc < cuts[i]` selects segment `i - 1`.
        match cuts.partition_point(|&c| c <= pc) {
            0 => &[],
            i => segments.get(i - 1).map_or(&[], Vec::as_slice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::BinI(BinKind::Div, 0, 1).can_throw());
        assert!(!Op::BinI(BinKind::Add, 0, 1).can_throw());
        assert!(Op::BinI(BinKind::Add, 0, 1).is_pure());
        assert!(!Op::BinI(BinKind::Rem, 0, 1).is_pure());
        assert!(Op::PutField { obj: 0, field: 0, val: 1 }.is_memory_write());
        assert!(!Op::GetField { obj: 0, field: 0 }.is_memory_write());
        assert!(Op::GetField { obj: 0, field: 0 }.can_throw());
    }

    #[test]
    fn sources_and_mapping() {
        let mut op = Op::ArrStore { kind: ArrKind::I32, arr: 1, idx: 2, val: 3 };
        assert_eq!(op.sources(), vec![1, 2, 3]);
        op.map_sources(|r| r + 10);
        assert_eq!(op.sources(), vec![11, 12, 13]);
    }

    /// The order contract of [`IrFunc::predecessors`]: terminator edges in
    /// block order (duplicates kept), then handler edges handler by
    /// handler, each in block order, skipping blocks already listed.
    #[test]
    fn predecessor_order_contract() {
        let call = |bc_pc| Inst {
            dst: None,
            op: Op::Call { method: MethodId(0), args: vec![] },
            frame: 0,
            bc_pc,
        };
        let block = |insts, term| Block { insts, term };
        let handler = |frame, start_bc, end_bc, target| IrHandler {
            frame,
            start_bc,
            end_bc,
            target,
            save_reg: None,
        };
        let func = IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![
                block(vec![], Term::Jump(1)),
                block(vec![call(1)], Term::Jump(2)),
                block(vec![call(5)], Term::Branch { cond: 0, if_true: 3, if_false: 3 }),
                block(vec![call(9)], Term::Jump(4)),
                block(vec![], Term::Return(None)),
                block(vec![], Term::Return(None)),
            ],
            num_regs: 1,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 1,
                parent: None,
            }],
            handlers: vec![
                handler(0, 4, 10, 5),  // covers b2, b3
                handler(0, 0, 2, 5),   // covers b1: listed after h0's blocks
                handler(0, 0, 6, 3),   // covers b1, b2; b2 is already a pred
                handler(1, 0, 100, 4), // no frame-1 instruction: no edge
            ],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 1)],
        };
        assert_eq!(
            func.predecessors(),
            vec![vec![], vec![0], vec![1], vec![2, 2, 1], vec![3], vec![2, 3, 1]]
        );
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch { scrut: 0, cases: vec![(1, 4), (2, 5)], default: 6 };
        assert_eq!(t.successors(), vec![4, 5, 6]);
        assert!(Term::Return(None).successors().is_empty());
    }

    #[test]
    fn bin_kind_commutativity() {
        assert!(BinKind::Add.commutative());
        assert!(BinKind::Xor.commutative());
        assert!(!BinKind::Sub.commutative());
        assert!(!BinKind::Shl.commutative());
    }
}
