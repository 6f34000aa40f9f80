//! Register allocation (pressure analysis).
//!
//! The evaluator executes virtual registers directly, so "allocation" here
//! is the liveness/pressure analysis a linear-scan allocator would run —
//! plus the pressure-triggered injected assertions
//! ([`BugId::HsRegAllocPressure`], [`BugId::J9RegAllocLongPressure`]).

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::BitSet;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Location assignment: the IR may only be renamed, never
/// restructured.
pub const TV_CONTRACT: TvContract = TvContract::LayoutOnly;

/// Computes maximum register pressure and fires pressure assertions.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let pressure = max_pressure(func);
    if ctx.active(BugId::HsRegAllocPressure) && pressure > 40 {
        return Err(ctx.crash(
            BugId::HsRegAllocPressure,
            format!("register allocator: live range budget exceeded ({pressure})"),
        ));
    }
    if ctx.active(BugId::J9RegAllocLongPressure) && pressure > 34 {
        let has_long =
            func.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i.op, Op::BinL(..)));
        if has_long {
            return Err(ctx.crash(
                BugId::J9RegAllocLongPressure,
                format!("register allocator: GPR pair pressure {pressure}"),
            ));
        }
    }
    Ok(())
}

/// Backward liveness analysis; returns the maximum live-set size observed
/// at any program point.
///
/// Live sets are dense bit sets over the registers. Each block's effect is
/// summarised once as `live_in = (live_out - defs) | uses`, where `uses`
/// is the block's walk (terminator, then instructions in reverse) started
/// from the empty set; this equals walking the block from `live_out`. Blocks
/// are swept in reverse id order until no set changes.
pub fn max_pressure(func: &IrFunc) -> usize {
    let n = func.blocks.len();
    let num_regs = func.num_regs as usize;
    let mut uses: Vec<BitSet> = Vec::with_capacity(n);
    let mut defs: Vec<BitSet> = Vec::with_capacity(n);
    for block in &func.blocks {
        let mut used = BitSet::new(num_regs);
        let mut defined = BitSet::new(num_regs);
        for src in block.term.sources() {
            used.insert(src);
        }
        for inst in block.insts.iter().rev() {
            if let Some(dst) = inst.dst {
                used.remove(dst);
                defined.insert(dst);
            }
            for src in inst.op.sources() {
                used.insert(src);
            }
        }
        uses.push(used);
        defs.push(defined);
    }
    let mut live_out: Vec<BitSet> = vec![BitSet::new(num_regs); n];
    let mut live_in: Vec<BitSet> = vec![BitSet::new(num_regs); n];
    let mut out = BitSet::new(num_regs);
    let mut live = BitSet::new(num_regs);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            out.clear();
            for succ in func.blocks[b].term.successors() {
                out.union_with(&live_in[succ as usize]);
            }
            live.clone_from(&out);
            live.difference_with(&defs[b]);
            live.union_with(&uses[b]);
            if live != live_in[b] || out != live_out[b] {
                std::mem::swap(&mut live_in[b], &mut live);
                std::mem::swap(&mut live_out[b], &mut out);
                changed = true;
            }
        }
    }
    // Pressure: walk each block once more, tracking the running live set.
    let mut max = 0usize;
    for (b, out) in live_out.iter().enumerate() {
        live.clone_from(out);
        let mut size = live.len();
        max = max.max(size);
        for inst in func.blocks[b].insts.iter().rev() {
            if let Some(dst) = inst.dst {
                size -= usize::from(live.remove(dst));
            }
            for src in inst.op.sources() {
                size += usize::from(live.insert(src));
            }
            max = max.max(size);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Tier;
    use cse_bytecode::MethodId;

    #[test]
    fn pressure_counts_simultaneously_live_values() {
        // r4..r9 defined then all summed: pressure peaks at 6.
        let mut insts: Vec<Inst> = (4..10)
            .map(|r| Inst { dst: Some(r), op: Op::ConstI(r as i32), frame: 0, bc_pc: 0 })
            .collect();
        let mut acc = 4u32;
        for r in 5..10u32 {
            insts.push(Inst {
                dst: Some(10 + r),
                op: Op::BinI(BinKind::Add, acc, r),
                frame: 0,
                bc_pc: 0,
            });
            acc = 10 + r;
        }
        let func = IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![Block { insts, term: Term::Return(Some(acc)) }],
            num_regs: 32,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 1,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 1)],
        };
        assert_eq!(max_pressure(&func), 6);
    }

    #[test]
    fn terminator_uses_are_live_across_blocks() {
        // r1 is defined in b0 and only read by b1's branch, so it is live
        // out of b0.
        let block = |insts, term| Block { insts, term };
        let func = IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![
                block(
                    vec![Inst { dst: Some(1), op: Op::ConstI(1), frame: 0, bc_pc: 0 }],
                    Term::Jump(1),
                ),
                block(vec![], Term::Branch { cond: 1, if_true: 2, if_false: 2 }),
                block(vec![], Term::Return(None)),
            ],
            num_regs: 2,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 1,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 1)],
        };
        assert_eq!(max_pressure(&func), 1);
    }
}
