//! Execution memoization over the mutant space — content-addressed run
//! replay.
//!
//! Validation executes many runs that are provably replays of each other:
//! JoNM mutants that never enter their mutated method behave — step for
//! step — exactly like the seed, duplicate mutants repeat earlier runs
//! verbatim, and interpreter reference runs repeat across mutants whose
//! difference the interpreter never reaches. [`ExecMemo`] recognizes
//! those replays *before* running them and serves the recorded
//! [`ExecutionResult`] instead.
//!
//! # Soundness argument
//!
//! The VM is deterministic: a run is a pure function of (a) the program
//! text it consults and (b) the behavioral configuration facets captured
//! by [`VmConfig::exec_fingerprint`]. A recorded run's *footprint* is
//! the set of program fragments it could possibly have consulted:
//!
//! * the content+linkage digest ([`cse_bytecode::MethodDigest::key`]) of
//!   every method the run **entered** (per-method invocation counts from
//!   [`cse_vm::WarmthProfile`]), plus the entry point and `clinit`;
//! * the *compilation-unit* digest ([`cse_bytecode::ProgramDigests::units`])
//!   of every method the run **JIT-compiled** (from the
//!   [`cse_vm::TraceEvent::Compiled`] events), which covers the static
//!   call closure the inliner can read.
//!
//! By induction over execution steps, a run on a different program that
//! agrees on the entire footprint follows the identical trajectory: each
//! step consults only code already proven equal, so it transitions to
//! the same state and the next consultation is again inside the
//! footprint. The replayed result is therefore bit-identical — output,
//! outcome, events, statistics (including the fired-bug mask and the
//! IR-verifier defects) — with one documented exception:
//! `stats.code_cache_hits` measures shared-artifact-cache temperature,
//! which legitimately depends on what ran earlier.
//!
//! Runs that may be truncated or non-deterministic are never recorded:
//! wall-clock-limited runs, chaos-injection runs, watchdog-fired runs,
//! panicking runs, and runs whose event log hit the `max_events` cap
//! (the footprint would under-approximate the compiled set).
//!
//! # Cross-checking
//!
//! Memoization is on by default ([`ExecCachePolicy::On`]);
//! [`ExecCachePolicy::Check`] re-executes every hit and asserts the
//! replay is exact. Campaign digests are bit-identical with the cache on,
//! off, or checking — [`crate::campaign::CampaignResult::digest`]
//! excludes the hit counters, and hits still count as `vm_invocations`.

use cse_bytecode::{BProgram, ProgramDigests};
use cse_vm::{ExecutionResult, TraceEvent, VmConfig, WarmthProfile};

/// Execution-memoization policy for validation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecCachePolicy {
    On,
    Off,
    /// Memoize, but re-execute every hit and assert the recorded result
    /// is a bit-exact replay (modulo `code_cache_hits`). Panics on a
    /// mismatch.
    Check,
}

impl ExecCachePolicy {
    /// Whether lookups and recording happen at all.
    pub fn enabled(self) -> bool {
        self != ExecCachePolicy::Off
    }

    /// Whether hits must be re-executed and compared.
    pub fn checking(self) -> bool {
        self == ExecCachePolicy::Check
    }
}

/// One recorded run: the config fingerprint, the program footprint it
/// consulted, and the result to replay.
struct MemoEntry {
    /// [`VmConfig::exec_fingerprint`] of the recording config.
    exec_fp: u64,
    /// Whole-program digest — the fast path for duplicate programs.
    program: u64,
    /// `(method index, expected MethodDigest::key())` for every entered
    /// method (plus entry and clinit), sorted by index.
    methods: Vec<(u32, u64)>,
    /// `(method index, expected unit digest)` for every compiled root,
    /// sorted by index.
    units: Vec<(u32, u64)>,
    result: ExecutionResult,
}

impl MemoEntry {
    /// Whether `digests` agrees with this entry's entire footprint.
    fn matches(&self, digests: &ProgramDigests) -> bool {
        if self.program == digests.program {
            return true;
        }
        self.methods
            .iter()
            .all(|&(m, key)| digests.methods.get(m as usize).is_some_and(|d| d.key() == key))
            && self
                .units
                .iter()
                .all(|&(m, unit)| digests.units.get(m as usize).copied() == Some(unit))
    }
}

/// A per-seed execution-memoization table (see the module docs). Scoped
/// to one seed's validation: the seed and its JoNM mutants share method
/// numbering, which is what makes footprint indices comparable, and the
/// per-seed scope keeps hits independent of worker scheduling (the
/// campaign digest cannot depend on `jobs`).
pub struct ExecMemo {
    policy: ExecCachePolicy,
    entries: Vec<MemoEntry>,
    /// Runs served from the memo (under `Check`, hits that survived the
    /// re-execution comparison).
    pub hits: u64,
    /// Lookups that fell through to a real execution.
    pub misses: u64,
}

impl ExecMemo {
    pub fn new(policy: ExecCachePolicy) -> ExecMemo {
        ExecMemo { policy, entries: Vec::new(), hits: 0, misses: 0 }
    }

    /// Whether this memo does anything (false under
    /// [`ExecCachePolicy::Off`]).
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// Whether hits must be verified against a fresh execution.
    pub fn checking(&self) -> bool {
        self.policy.checking()
    }

    /// Finds a recorded run that provably replays under `digests` and
    /// `exec_fp`, and returns a clone of its result. Counts a miss when
    /// nothing matches; the caller counts the hit via [`ExecMemo::hit`]
    /// once the replay is accepted (under `Check`, after comparison).
    pub fn lookup(&mut self, digests: &ProgramDigests, exec_fp: u64) -> Option<ExecutionResult> {
        if !self.enabled() {
            return None;
        }
        let found = self
            .entries
            .iter()
            .find(|e| e.exec_fp == exec_fp && e.matches(digests))
            .map(|e| e.result.clone());
        if found.is_none() {
            self.misses += 1;
        }
        found
    }

    /// Counts one served replay.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a completed run, unless the run is ineligible (see the
    /// module docs: chaos/wall-clock configs, watchdog-fired runs, and
    /// event logs at the `max_events` cap are never memoized).
    pub fn record(
        &mut self,
        program: &BProgram,
        digests: &ProgramDigests,
        config: &VmConfig,
        exec_fp: u64,
        result: &ExecutionResult,
        warmth: &WarmthProfile,
    ) {
        if !self.enabled() {
            return;
        }
        if config.chaos_panic_at_ops.is_some()
            || config.wall_clock_limit.is_some()
            || result.stats.watchdog_fired
            || result.events.len() >= config.max_events
        {
            return;
        }
        let mut methods: Vec<u32> = warmth
            .invocations
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(m, _)| m as u32)
            .collect();
        methods.push(program.entry.0);
        if let Some(clinit) = program.clinit {
            methods.push(clinit.0);
        }
        methods.sort_unstable();
        methods.dedup();
        let mut units: Vec<u32> = result
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Compiled { method, .. } => Some(method.0),
                _ => None,
            })
            .collect();
        units.sort_unstable();
        units.dedup();
        self.entries.push(MemoEntry {
            exec_fp,
            program: digests.program,
            methods: methods.into_iter().map(|m| (m, digests.methods[m as usize].key())).collect(),
            units: units.into_iter().map(|m| (m, digests.units[m as usize])).collect(),
            result: result.clone(),
        });
    }
}

/// Renders a run for the `Check`-mode comparison. `code_cache_hits` is
/// masked for the same reason [`crate::space::space_digest`] masks it:
/// it measures shared-cache temperature, which depends on what ran
/// earlier, and a cache hit is observably identical to a fresh compile
/// by the artifact cache's replay contract.
pub(crate) fn render_for_check(result: &ExecutionResult) -> String {
    let mut stats = result.stats;
    stats.code_cache_hits = 0;
    format!(
        "{} | events {:?} | stats {stats:?} | ir_verify {:?} | tv {:?}",
        result.observable(),
        result.events,
        result.ir_verify,
        result.tv
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_vm::supervise::supervised_run_warmth_cached;
    use cse_vm::{SharedArtifactCache, VmKind};

    fn compile(src: &str) -> BProgram {
        let program = cse_lang::parse_and_check(src).unwrap();
        cse_bytecode::compile(&program).unwrap()
    }

    const SEED: &str = r#"
        class T {
            static int hot(int n) {
                int total = 0;
                int i = 0;
                while (i < n) { total = total + i; i = i + 1; }
                return total;
            }
            static int cold(int n) { return n * 3; }
            static void main() {
                int total = 0;
                int j = 0;
                while (j < 400) { total = total + hot(10); j = j + 1; }
                println(total);
            }
        }
    "#;

    fn run_recorded(memo: &mut ExecMemo, program: &BProgram, config: &VmConfig) -> ExecutionResult {
        let shard = SharedArtifactCache::new();
        let artifacts = shard.attach(program);
        let exec_fp = config.exec_fingerprint();
        if let Some(found) = memo.lookup(&artifacts.digests, exec_fp) {
            memo.hit();
            return found;
        }
        let (result, warmth) =
            supervised_run_warmth_cached(program, config.clone(), &artifacts).unwrap();
        memo.record(program, &artifacts.digests, config, exec_fp, &result, &warmth);
        result
    }

    #[test]
    fn duplicate_program_is_served_from_the_memo() {
        let program = compile(SEED);
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let mut memo = ExecMemo::new(ExecCachePolicy::On);
        let first = run_recorded(&mut memo, &program, &config);
        let second = run_recorded(&mut memo, &program, &config);
        assert_eq!(memo.hits, 1);
        assert_eq!(memo.misses, 1);
        assert_eq!(render_for_check(&first), render_for_check(&second));
    }

    #[test]
    fn mutation_outside_the_footprint_hits() {
        // `cold` is never called: mutating it cannot change the run.
        let mutant_src = SEED.replace("return n * 3;", "return n * 5;");
        let seed = compile(SEED);
        let mutant = compile(&mutant_src);
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let mut memo = ExecMemo::new(ExecCachePolicy::On);
        let seed_result = run_recorded(&mut memo, &seed, &config);
        let replayed = run_recorded(&mut memo, &mutant, &config);
        assert_eq!(memo.hits, 1, "the mutant run must replay the seed run");
        assert_eq!(seed_result.observable(), replayed.observable());
        // Cross-check the footprint argument: a real execution agrees.
        let mut fresh_memo = ExecMemo::new(ExecCachePolicy::Off);
        let fresh = run_recorded(&mut fresh_memo, &mutant, &config);
        assert_eq!(render_for_check(&fresh), render_for_check(&replayed));
    }

    #[test]
    fn mutation_inside_the_footprint_misses() {
        let mutant_src = SEED.replace("total = total + i;", "total = total + i + 0;");
        let seed = compile(SEED);
        let mutant = compile(&mutant_src);
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let mut memo = ExecMemo::new(ExecCachePolicy::On);
        run_recorded(&mut memo, &seed, &config);
        run_recorded(&mut memo, &mutant, &config);
        assert_eq!(memo.hits, 0, "a hot-method mutation must never replay");
        assert_eq!(memo.misses, 2);
    }

    #[test]
    fn different_configs_do_not_share_entries() {
        let program = compile(SEED);
        let mut memo = ExecMemo::new(ExecCachePolicy::On);
        run_recorded(&mut memo, &program, &VmConfig::correct(VmKind::HotSpotLike));
        run_recorded(&mut memo, &program, &VmConfig::interpreter_only(VmKind::HotSpotLike));
        assert_eq!(memo.hits, 0);
        assert_eq!(memo.misses, 2);
    }

    #[test]
    fn off_policy_never_records_or_serves() {
        let program = compile(SEED);
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let mut memo = ExecMemo::new(ExecCachePolicy::Off);
        run_recorded(&mut memo, &program, &config);
        run_recorded(&mut memo, &program, &config);
        assert_eq!(memo.hits, 0);
        assert_eq!(memo.misses, 0, "a disabled memo does not even count lookups");
    }

    #[test]
    fn chaos_and_watchdog_runs_are_never_recorded() {
        let program = compile(SEED);
        let mut config = VmConfig::correct(VmKind::HotSpotLike);
        config.chaos_panic_at_ops = Some(u64::MAX);
        let mut memo = ExecMemo::new(ExecCachePolicy::On);
        run_recorded(&mut memo, &program, &config);
        run_recorded(&mut memo, &program, &config);
        assert_eq!(memo.hits, 0, "chaos-config runs must never be memoized");
    }
}
