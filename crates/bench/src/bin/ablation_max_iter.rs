//! Ablation: MAX_ITER (mutants per seed). The paper picked 8 as the
//! cost/effectiveness sweet spot (§4.1); this sweep shows the yield curve.

#![forbid(unsafe_code)]

use cse_core::env;
use cse_core::validate::{validate, ValidateConfig};
use cse_vm::{VmConfig, VmKind};

fn main() {
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(120);
    println!("Ablation: MAX_ITER sweep (OpenJ9-like, {seeds} seeds)\n");
    println!(
        "{:>8} {:>12} {:>14} {:>16}",
        "MAX_ITER", "seeds w/bug", "VM invocations", "bugs/invocation"
    );
    for max_iter in [1usize, 2, 4, 8, 16, 32] {
        let mut hits = 0u64;
        let mut invocations = 0u64;
        for seed_value in 0..seeds {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let mut config = ValidateConfig::paper_defaults(VmConfig::for_kind(VmKind::OpenJ9Like));
            config.max_iter = max_iter;
            config.verify_neutrality = false;
            let outcome = validate(&seed, &config, seed_value);
            if outcome.found_bug() {
                hits += 1;
            }
            invocations += outcome.vm_invocations as u64;
        }
        println!(
            "{max_iter:>8} {hits:>12} {invocations:>14} {:>16.5}",
            hits as f64 / invocations.max(1) as f64
        );
    }
}
