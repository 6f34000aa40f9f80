//! Golden campaign digests: three short HotSpotLike campaigns whose
//! [`CampaignResult::digest`] is pinned to a recorded value.
//!
//! The digest covers every deterministic field of a campaign (bugs,
//! occurrences, reproducers, totals, incidents), and those depend on the
//! exact IR the JIT emits: the order of hoisted instructions, the blocks
//! a pass creates, the ops a compiled body burns. A change meant only to
//! make the JIT faster must therefore leave all three digests alone; this
//! test is what catches a "pure speed-up" that silently changed JIT output.
//!
//! **Re-pinning.** When a change is *meant* to alter what campaigns do
//! (a new pass, a changed heuristic, a different mutator draw), the
//! digests move. Then: explain the cause in the change description,
//! confirm the other invariance suites still pass (jobs, kill/resume,
//! cache and oracle settings), run
//! `cargo test --release --test golden_digests -- --nocapture`, and copy
//! the printed `actual` values into the constants below.

use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::CoveragePolicy;
use cse_vm::{TvMode, VerifyMode, VmConfig, VmKind};

const KIND: VmKind = VmKind::HotSpotLike;

/// Uniform sampling, seeded-bug VM, 8 seeds.
const UNIFORM_DIGEST: u64 = 0xa24f_d4e2_4a59_db07;
/// Coverage-guided scheduling (forced-plan variants), 8 seeds, serial.
const GUIDED_DIGEST: u64 = 0xa5b2_d743_72d5_1a0e;
/// Bug-free VM with the IR verifier and translation validator at
/// `Boundary`, 6 seeds.
const CORRECT_ORACLES_DIGEST: u64 = 0x3c6b_a3e0_c799_8bd3;

fn campaign(vm: VmConfig, seeds: u64, coverage: CoveragePolicy) -> CampaignConfig {
    let mut config = CampaignConfig::for_kind(KIND, seeds).with_coverage(coverage);
    config.vm = vm;
    config
}

fn check(name: &str, config: &CampaignConfig, expected: u64) {
    let result = run_campaign(config);
    assert!(!result.totals.partial, "{name}: campaign must finish its seed range");
    assert!(result.totals.mutants > 0, "{name}: campaign must run mutants");
    let actual = result.digest(config);
    println!("{name}: actual {actual:#018x}");
    assert_eq!(
        actual, expected,
        "{name}: campaign digest changed ({actual:#018x} != {expected:#018x}); \
         see the module docs before re-pinning"
    );
}

#[test]
fn uniform_campaign_digest_is_pinned() {
    let vm = VmConfig::for_kind(KIND);
    check("uniform", &campaign(vm, 8, CoveragePolicy::Off), UNIFORM_DIGEST);
}

#[test]
fn guided_campaign_digest_is_pinned() {
    let vm = VmConfig::for_kind(KIND);
    check("guided", &campaign(vm, 8, CoveragePolicy::Guide), GUIDED_DIGEST);
}

#[test]
fn correct_vm_with_oracles_digest_is_pinned() {
    let vm = VmConfig::correct(KIND).with_verify_ir(VerifyMode::Boundary).with_tv(TvMode::Boundary);
    check("correct_oracles", &campaign(vm, 6, CoveragePolicy::Off), CORRECT_ORACLES_DIGEST);
}
