//! The JIT's CFG analyses against reference implementations.
//!
//! `IrFunc::predecessors`, `LoopForest::compute`, the LICM loop and the
//! register-pressure liveness run in linear time over dense bit sets. The
//! `reference` module below keeps the straightforward quadratic versions
//! they replaced, and this test asserts the two agree exactly — list
//! orders included, because predecessor order fixes loop-body order,
//! which fixes LICM's hoist order and so the emitted IR — on every
//! function the HotSpot-like JIT builds for a corpus of JoNM mutants
//! (see `cse_bench::jit_corpus`), on the built IR and on the pipeline's
//! output.

use std::collections::{HashMap, HashSet};

use artemis_cse::vm::jit::cfg::{Dominators, Loop, LoopForest};
use artemis_cse::vm::jit::ir::{Block, BlockId, Inst, IrFunc, Op, Reg, Term};
use artemis_cse::vm::jit::passes::{self, regalloc};
use artemis_cse::vm::jit::{build, CompileCtx, CompileFail};
use artemis_cse::vm::{BugId, FaultInjector};
use cse_bench::jit_corpus::{self, KIND, TIERS};

/// The implementations the linear-time analyses must reproduce.
mod reference {
    use super::*;

    /// Successor edges in block order, then handler edges handler by
    /// handler, deduplicated by a scan of the target's list.
    pub fn predecessors(func: &IrFunc) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); func.blocks.len()];
        for (id, block) in func.blocks.iter().enumerate() {
            for succ in block.term.successors() {
                preds[succ as usize].push(id as BlockId);
            }
        }
        for handler in &func.handlers {
            for (id, block) in func.blocks.iter().enumerate() {
                let throws_in_range = block.insts.iter().any(|inst| {
                    inst.frame == handler.frame
                        && inst.op.can_throw()
                        && inst.bc_pc >= handler.start_bc
                        && inst.bc_pc < handler.end_bc
                });
                if throws_in_range && !preds[handler.target as usize].contains(&(id as BlockId)) {
                    preds[handler.target as usize].push(id as BlockId);
                }
            }
        }
        preds
    }

    /// Natural loops with `Vec::contains` membership: a fresh body per
    /// back-edge, merged into its header's loop.
    pub fn loop_forest(func: &IrFunc) -> LoopForest {
        let preds = predecessors(func);
        let doms = Dominators::compute_with(func, &preds);
        let n = func.blocks.len();
        let mut header_blocks: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for (u, block) in func.blocks.iter().enumerate() {
            for v in block.term.successors() {
                if doms.dominates(v, u as BlockId) {
                    let mut body = vec![v];
                    let mut stack = vec![u as BlockId];
                    while let Some(x) = stack.pop() {
                        if body.contains(&x) {
                            continue;
                        }
                        body.push(x);
                        for &p in &preds[x as usize] {
                            stack.push(p);
                        }
                    }
                    match header_blocks.iter_mut().find(|(h, _)| *h == v) {
                        Some((_, existing)) => {
                            for b in body {
                                if !existing.contains(&b) {
                                    existing.push(b);
                                }
                            }
                        }
                        None => header_blocks.push((v, body)),
                    }
                }
            }
        }
        header_blocks.sort_by_key(|(_, body)| std::cmp::Reverse(body.len()));
        let mut forest = LoopForest { loops: Vec::new(), innermost: vec![usize::MAX; n] };
        for (header, blocks) in header_blocks {
            let parent = forest
                .loops
                .iter()
                .enumerate()
                .filter(|(_, l)| l.blocks.contains(&header))
                .min_by_key(|(_, l)| l.blocks.len())
                .map(|(i, _)| i);
            let depth = parent.map(|p| forest.loops[p].depth + 1).unwrap_or(1);
            forest.loops.push(Loop { header, blocks, parent, depth });
        }
        for (i, l) in forest.loops.iter().enumerate() {
            for &b in &l.blocks {
                let cur = forest.innermost[b as usize];
                if cur == usize::MAX || forest.loops[cur].depth < l.depth {
                    forest.innermost[b as usize] = i;
                }
            }
        }
        forest
    }

    /// The LICM loop that rediscovers the forest after every loop and
    /// recounts definitions per loop.
    pub fn licm(ctx: &CompileCtx<'_>, func: &mut IrFunc) {
        let mut processed: HashSet<BlockId> = HashSet::new();
        loop {
            let forest = loop_forest(func);
            let next = forest
                .loops
                .iter()
                .filter(|l| !processed.contains(&l.header))
                .max_by_key(|l| l.depth)
                .map(|l| (l.header, l.blocks.clone()));
            let Some((header, blocks)) = next else {
                return;
            };
            processed.insert(header);
            if func.handlers.iter().any(|h| h.target == header) {
                continue;
            }
            hoist_loop(ctx, func, &blocks, header);
        }
    }

    fn hoist_loop(
        ctx: &CompileCtx<'_>,
        func: &mut IrFunc,
        loop_blocks: &[BlockId],
        header: BlockId,
    ) {
        let mut written: HashSet<Reg> = HashSet::new();
        let mut loop_has_call = false;
        let mut field_store_plain: HashSet<u32> = HashSet::new();
        let mut field_store_in_try: HashSet<u32> = HashSet::new();
        for &b in loop_blocks {
            for inst in &func.blocks[b as usize].insts {
                if let Some(dst) = inst.dst {
                    written.insert(dst);
                }
                match &inst.op {
                    Op::Call { .. } => loop_has_call = true,
                    Op::PutField { field, .. } => {
                        let covered = func.handlers.iter().any(|h| {
                            h.frame == inst.frame
                                && inst.bc_pc >= h.start_bc
                                && inst.bc_pc < h.end_bc
                        });
                        if covered {
                            field_store_in_try.insert(*field);
                        } else {
                            field_store_plain.insert(*field);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut def_count: HashMap<Reg, u32> = HashMap::new();
        for block in &func.blocks {
            for inst in &block.insts {
                if let Some(dst) = inst.dst {
                    *def_count.entry(dst).or_default() += 1;
                }
            }
        }
        let is_anchor =
            |r: Reg, anchors: &[(Reg, Reg)]| anchors.iter().any(|&(lo, hi)| r >= lo && r < hi);
        let alias_bug = ctx.faults.active(BugId::HsLicmAliasedLoad) && ctx.optimizing();
        let anchors = func.anchor_limit_per_frame.clone();
        let mut hoisted: Vec<Inst> = Vec::new();
        for &b in loop_blocks {
            let block = &mut func.blocks[b as usize];
            let mut kept: Vec<Inst> = Vec::with_capacity(block.insts.len());
            for inst in block.insts.drain(..) {
                let hoistable = match inst.dst {
                    Some(dst) => {
                        let single = def_count.get(&dst).copied().unwrap_or(0) == 1;
                        let invariant = inst.op.sources().iter().all(|s| !written.contains(s));
                        let movable = if inst.op.is_pure() {
                            true
                        } else if let Op::GetField { field, .. } = &inst.op {
                            alias_bug
                                && !loop_has_call
                                && field_store_in_try.contains(field)
                                && !field_store_plain.contains(field)
                        } else {
                            false
                        };
                        single && invariant && movable && !is_anchor(dst, &anchors)
                    }
                    None => false,
                };
                if hoistable {
                    hoisted.push(inst);
                } else {
                    kept.push(inst);
                }
            }
            block.insts = kept;
        }
        if hoisted.is_empty() {
            return;
        }
        let pre = func.blocks.len() as BlockId;
        func.blocks.push(Block { insts: hoisted, term: Term::Jump(header) });
        for b in 0..(func.blocks.len() - 1) as u32 {
            if loop_blocks.contains(&b) {
                continue;
            }
            match &mut func.blocks[b as usize].term {
                Term::Jump(t) if *t == header => *t = pre,
                Term::Branch { if_true, if_false, .. } => {
                    if *if_true == header {
                        *if_true = pre;
                    }
                    if *if_false == header {
                        *if_false = pre;
                    }
                }
                Term::Switch { cases, default, .. } => {
                    for (_, t) in cases.iter_mut() {
                        if *t == header {
                            *t = pre;
                        }
                    }
                    if *default == header {
                        *default = pre;
                    }
                }
                _ => {}
            }
        }
    }

    /// Backward liveness over `HashSet<Reg>` live sets, same sweep order.
    pub fn max_pressure(func: &IrFunc) -> usize {
        let n = func.blocks.len();
        let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let mut out: HashSet<Reg> = HashSet::new();
                for succ in func.blocks[b].term.successors() {
                    out.extend(live_in[succ as usize].iter().copied());
                }
                let mut live = out.clone();
                for src in func.blocks[b].term.sources() {
                    live.insert(src);
                }
                for inst in func.blocks[b].insts.iter().rev() {
                    if let Some(dst) = inst.dst {
                        live.remove(&dst);
                    }
                    for src in inst.op.sources() {
                        live.insert(src);
                    }
                }
                if live != live_in[b] || out != live_out[b] {
                    live_in[b] = live;
                    live_out[b] = out;
                    changed = true;
                }
            }
        }
        let mut max = 0usize;
        for (b, out) in live_out.iter().enumerate() {
            let mut live = out.clone();
            max = max.max(live.len());
            for inst in func.blocks[b].insts.iter().rev() {
                if let Some(dst) = inst.dst {
                    live.remove(&dst);
                }
                for src in inst.op.sources() {
                    live.insert(src);
                }
                max = max.max(live.len());
            }
        }
        max
    }
}

/// A forest as comparable plain data: per loop (header, body, parent,
/// depth), then the innermost loop per block.
type ForestShape = (Vec<(BlockId, Vec<BlockId>, Option<usize>, usize)>, Vec<usize>);

fn shape(forest: &LoopForest) -> ForestShape {
    let loops = forest.loops.iter().map(|l| (l.header, l.blocks.clone(), l.parent, l.depth));
    (loops.collect(), forest.innermost.clone())
}

/// Asserts every analysis agrees with its reference on `func`.
fn assert_analyses_match(func: &IrFunc, at: &str) {
    assert_eq!(func.predecessors(), reference::predecessors(func), "predecessors {at}");
    assert_eq!(
        shape(&LoopForest::compute(func)),
        shape(&reference::loop_forest(func)),
        "loop forest {at}"
    );
    assert_eq!(regalloc::max_pressure(func), reference::max_pressure(func), "pressure {at}");
}

/// Checks every function built for the corpus under `faults`, at both
/// tiers, normal and OSR entries: the analyses agree with the reference
/// on the built IR and on the pipeline's output, the production
/// pipeline's output equals a pipeline driven by the reference LICM, and
/// the corpus reaches the large handler- and loop-heavy functions the
/// fast paths exist for.
fn assert_corpus_matches(faults: &FaultInjector) {
    let programs = jit_corpus::jonm_mutants(12, 1);
    let mut functions = 0usize;
    let mut large = 0usize;
    for (p, program) in programs.iter().enumerate() {
        let profiles = jit_corpus::cold_profiles(program);
        for tier in TIERS {
            let ctx = jit_corpus::context(program, &profiles, faults, tier);
            for (method, osr) in jit_corpus::entries(program) {
                let built = match build::build(&ctx, method, osr) {
                    Ok(func) => func,
                    Err(CompileFail::OsrUnsupported | CompileFail::Crash(_)) => continue,
                };
                functions += 1;
                let at = format!("(program {p}, m{}, {tier}, osr {osr:?})", method.0);
                assert_analyses_match(&built, &format!("after build {at}"));
                if built.handlers.len() >= 20 && LoopForest::compute(&built).loops.len() >= 10 {
                    large += 1;
                }

                let mut produced = built.clone();
                let produced_status =
                    passes::run_pipeline(&ctx, &mut produced, &mut Vec::new(), &mut Vec::new());
                let mut expected = built;
                let mut expected_status = Ok(());
                for (name, pass) in passes::pipeline(KIND, ctx.optimizing()) {
                    if *name == "licm" {
                        reference::licm(&ctx, &mut expected);
                    } else {
                        expected_status = pass(&ctx, &mut expected);
                        if expected_status.is_err() {
                            break;
                        }
                    }
                }
                assert_eq!(
                    format!("{produced_status:?}"),
                    format!("{expected_status:?}"),
                    "pipeline status {at}"
                );
                assert_eq!(produced, expected, "pipeline output {at}");
                assert_analyses_match(&produced, &format!("after the pipeline {at}"));
            }
        }
    }
    assert!(functions >= 1000, "corpus too small: {functions} functions");
    assert!(large > 0, "the corpus must contain a function with >= 20 handlers and >= 10 loops");
}

#[test]
fn cfg_analyses_match_the_reference_on_a_bug_free_jit() {
    assert_corpus_matches(&FaultInjector::none());
}

/// The profile's seeded bugs change what compiles: the LICM alias bug
/// hoists field loads, and pass crashes cut pipelines short.
#[test]
fn cfg_analyses_match_the_reference_on_a_seeded_jit() {
    assert_corpus_matches(&FaultInjector::with(BugId::default_set(KIND)));
}
