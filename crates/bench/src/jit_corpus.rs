//! A JIT compile corpus: every function the HotSpot-like JIT builds for
//! JoNM mutants of fuzzed seeds, at tier 1 and at the top tier, for the
//! normal entry and every OSR-capable loop header. The `jit_compile`
//! microbench times compiles over it, and the CFG-analysis equivalence
//! test checks the JIT's analyses against reference implementations on
//! it.
//!
//! Compiles run with empty profiles and `speculate = false`, like the
//! `count=0` compilations forced plans trigger.

use std::cell::Cell;

use cse_bytecode::{BProgram, MethodId};
use cse_core::mutate::Artemis;
use cse_core::synth::SynthParams;
use cse_core::validate::try_compile_checked;
use cse_vm::jit::CompileCtx;
use cse_vm::profile::MethodProfile;
use cse_vm::{FaultInjector, Tier, TvMode, VerifyMode, VmKind};

/// The VM profile the corpus is compiled for.
pub const KIND: VmKind = VmKind::HotSpotLike;

/// The tiers every unit is compiled at: C1-like and C2-like.
pub const TIERS: [Tier; 2] = [Tier::T1, Tier::T2];

/// JoNM mutants of seeds `0..seeds`, `per_seed` attempts each; attempts
/// that apply no mutation or fail the front end are skipped.
pub fn jonm_mutants(seeds: u64, per_seed: u64) -> Vec<BProgram> {
    let fuzz = cse_fuzz::FuzzConfig::default();
    let mut out = Vec::new();
    for seed in 0..seeds {
        let program = cse_fuzz::generate(seed, &fuzz);
        for attempt in 0..per_seed {
            let mut artemis = Artemis::new(seed * per_seed + attempt, SynthParams::for_kind(KIND));
            let (mutant, applied) = artemis.jonm(&program);
            if applied.is_empty() {
                continue;
            }
            if let Ok(bytecode) = try_compile_checked(&mutant) {
                out.push(bytecode);
            }
        }
    }
    out
}

/// Every (method, OSR entry) pair of `program`: the normal entry of each
/// method, then each of its loop headers. Headers where OSR is
/// impossible are rejected by `jit::build::build`, so callers skip those
/// units.
pub fn entries(program: &BProgram) -> Vec<(MethodId, Option<u32>)> {
    let mut out = Vec::new();
    for (i, method) in program.methods.iter().enumerate() {
        let id = MethodId(i as u32);
        out.push((id, None));
        out.extend(method.loop_headers.iter().map(|&h| (id, Some(h))));
    }
    out
}

/// Empty per-method profiles for `program`.
pub fn cold_profiles(program: &BProgram) -> Vec<MethodProfile> {
    vec![MethodProfile::default(); program.methods.len()]
}

/// A non-speculating, oracle-free compile context for `tier`.
pub fn context<'a>(
    program: &'a BProgram,
    profiles: &'a [MethodProfile],
    faults: &'a FaultInjector,
    tier: Tier,
) -> CompileCtx<'a> {
    CompileCtx {
        program,
        profiles,
        faults,
        kind: KIND,
        tier,
        speculate: false,
        inline_limit: 48,
        has_osr_code: false,
        verify: VerifyMode::Off,
        tv: TvMode::Off,
        fired: Cell::new(0),
    }
}
