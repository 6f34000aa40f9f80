//! Execution-memoization soundness: the content-addressed execution
//! cache (`cse_core::memo`) is an execution *strategy*, never an input —
//! a campaign must produce a bit-identical `CampaignResult::digest` with
//! the memo on, off, or in cross-check mode, at every `jobs` setting,
//! with and without injected VM faults. The check mode
//! (`ExecCachePolicy::Check`) re-executes every served run and asserts
//! observable equality.

use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::{ExecCachePolicy, ValidateConfig};
use cse_vm::{VmConfig, VmKind};

/// Campaign digests across every memo policy × `jobs ∈ {1, 4}` cell.
/// `VmConfig::for_kind` carries the kind's default injected bug set, so
/// this is the "injected faults active" run the issue asks for: served
/// results must replay defects and fired-fault masks exactly, or the
/// attribution counters (and hence the digest) drift.
#[test]
fn campaign_digest_is_invariant_under_memo_policy_and_jobs() {
    let base = CampaignConfig::for_kind(VmKind::HotSpotLike, 6);
    let reference = run_campaign(&base.clone().with_exec_cache(ExecCachePolicy::Off));
    let reference_digest = reference.digest(&base);
    assert!(
        !reference.bugs.is_empty(),
        "calibration: the buggy profile must surface discrepancies for this to be a real test"
    );
    for policy in [ExecCachePolicy::On, ExecCachePolicy::Off, ExecCachePolicy::Check] {
        for jobs in [1, 4] {
            let config = base.clone().with_exec_cache(policy).with_jobs(jobs);
            let result = run_campaign(&config);
            assert_eq!(
                reference_digest,
                result.digest(&config),
                "digest drift with exec_cache={policy:?}, jobs={jobs}"
            );
            assert_identical_observables(&reference, &result, policy, jobs);
        }
    }
}

/// Everything observable must match, not just the digest (the digest
/// deliberately masks the four volatile cache counters).
fn assert_identical_observables(
    a: &CampaignResult,
    b: &CampaignResult,
    policy: ExecCachePolicy,
    jobs: usize,
) {
    let label = format!("exec_cache={policy:?}, jobs={jobs}");
    assert_eq!(a.totals.seeds, b.totals.seeds, "{label}: seeds");
    assert_eq!(a.totals.mutants, b.totals.mutants, "{label}: mutants");
    assert_eq!(a.totals.completed, b.totals.completed, "{label}: completed");
    assert_eq!(a.totals.vm_invocations, b.totals.vm_invocations, "{label}: vm_invocations");
    assert_eq!(a.totals.ir_verify_defects, b.totals.ir_verify_defects, "{label}: ir defects");
    assert_eq!(a.cse_seeds, b.cse_seeds, "{label}: cse_seeds");
    assert_eq!(a.unattributed, b.unattributed, "{label}: unattributed");
    assert_eq!(
        a.bugs.keys().collect::<Vec<_>>(),
        b.bugs.keys().collect::<Vec<_>>(),
        "{label}: bug set"
    );
    for (bug, ea) in &a.bugs {
        let eb = &b.bugs[bug];
        assert_eq!(ea.occurrences, eb.occurrences, "{label}: occurrences of {bug:?}");
        assert_eq!(ea.first_seed, eb.first_seed, "{label}: first seed of {bug:?}");
    }
}

/// The memo must actually fire on this workload — a suite that passes
/// because the cache never serves anything proves nothing.
#[test]
fn memo_serves_runs_on_the_fuzzed_corpus() {
    let config =
        CampaignConfig::for_kind(VmKind::HotSpotLike, 6).with_exec_cache(ExecCachePolicy::On);
    let result = run_campaign(&config);
    assert!(
        result.totals.exec_cache_hits > 0,
        "no execution-memo hits across 6 fuzzed seeds (misses: {})",
        result.totals.exec_cache_misses
    );
    let off =
        CampaignConfig::for_kind(VmKind::HotSpotLike, 6).with_exec_cache(ExecCachePolicy::Off);
    let off_result = run_campaign(&off);
    assert_eq!(off_result.totals.exec_cache_hits, 0, "kill switch must disable the memo");
    // The hit/miss split is policy-dependent, but the *sum of decisions*
    // the campaign makes is not: vm_invocations counts served runs too.
    assert_eq!(result.totals.vm_invocations, off_result.totals.vm_invocations);
}

/// Check mode re-executes every served run and asserts observable
/// equality inside `cse_core::memo`; surviving a buggy-profile campaign
/// is the cross-check passing.
#[test]
fn check_mode_cross_checks_served_runs() {
    let config =
        CampaignConfig::for_kind(VmKind::OpenJ9Like, 4).with_exec_cache(ExecCachePolicy::Check);
    let result = run_campaign(&config);
    assert!(
        result.totals.exec_cache_hits > 0,
        "check mode never exercised a served run on this corpus"
    );
}

/// Fault fingerprints partition the cache: the same seed validated under
/// a correct VM and under the buggy profile shares method digests, and
/// the memo must never leak a result across the fault boundary. The
/// correct-VM validation finding zero discrepancies (while the buggy one
/// finds some across the corpus) is exactly that isolation.
#[test]
fn fault_fingerprints_partition_the_memo() {
    for seed_value in 0..6u64 {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let correct = ValidateConfig {
            exec_cache: ExecCachePolicy::On,
            ..ValidateConfig::paper_defaults(VmConfig::correct(VmKind::HotSpotLike))
        };
        let outcome = cse_core::validate::validate(&seed, &correct, seed_value);
        assert!(
            outcome.discrepancies.is_empty(),
            "seed {seed_value}: correct VM reported a discrepancy with the memo on: {:?}",
            outcome.discrepancies[0].kind
        );
        let buggy = ValidateConfig {
            exec_cache: ExecCachePolicy::Check,
            ..ValidateConfig::paper_defaults(VmConfig::for_kind(VmKind::HotSpotLike))
        };
        // Check mode asserts served == fresh internally; a cross-fault
        // leak would trip it (or the correct-VM assert above).
        cse_core::validate::validate(&seed, &buggy, seed_value);
    }
}
