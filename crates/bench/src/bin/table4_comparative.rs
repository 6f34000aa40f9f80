//! Table 4 — the comparative study between CSE and the traditional
//! approach (§4.3), plus the throughput measurement.
//!
//! For each seed on the OpenJ9-like profile (the paper's §4.3 target):
//! run the seed with its default JIT-trace; run it force-compiled
//! (`-Xjit:count=0` — the traditional oracle); run 8 Artemis mutants with
//! their default traces (CSE). Count seeds where each approach spots a
//! discrepancy, and their overlap.

#![forbid(unsafe_code)]

use std::time::Instant;

use cse_core::baseline;
use cse_core::env;
use cse_core::validate::{validate, ValidateConfig};
use cse_vm::{VmConfig, VmKind};

fn main() {
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(400);
    println!("Table 4: comparative study, CSE vs. the traditional approach");
    println!("(OpenJ9-like profile, {seeds} seeds x 8 mutants; CSE_SEEDS to scale)\n");
    let vm = VmConfig::for_kind(VmKind::OpenJ9Like);
    let start = Instant::now();
    let mut mutants = 0u64;
    let mut vm_invocations = 0u64;
    let mut incidents = 0u64;
    let mut cse_hits = 0u64;
    let mut trad_hits = 0u64;
    let mut both = 0u64;
    for seed_value in 0..seeds {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let mut config = ValidateConfig::paper_defaults(vm.clone());
        // The pure Algorithm-1 driver: no reference-interpreter runs, like
        // the paper's tool (neutrality is enforced by the test suite).
        config.verify_neutrality = false;
        let outcome = validate(&seed, &config, seed_value);
        mutants += outcome.mutants_run as u64;
        vm_invocations += outcome.vm_invocations as u64;
        incidents += outcome.incidents.len() as u64;
        let tra = baseline::traditional(&seed, &vm);
        vm_invocations += tra.vm_invocations as u64;
        let cse_found = outcome.found_bug();
        if cse_found {
            cse_hits += 1;
        }
        if tra.discrepancy {
            trad_hits += 1;
        }
        if cse_found && tra.discrepancy {
            both += 1;
        }
    }
    let wall = start.elapsed();
    println!("{:>8} {:>9} {:>6} {:>6} {:>6}", "#Seeds", "#Mutants", "CSE", "Tra.", "Both");
    println!("{seeds:>8} {mutants:>9} {cse_hits:>6} {trad_hits:>6} {both:>6}");
    let cse_only = cse_hits.saturating_sub(both);
    if cse_hits > 0 {
        println!(
            "\n{:.1}% of CSE-found seeds are invisible to the traditional approach",
            100.0 * cse_only as f64 / cse_hits as f64
        );
    }
    println!("\nThroughput (§4.3):");
    println!(
        "  {vm_invocations} VM invocations in {wall:.1?} = {:.2} invocations/second",
        vm_invocations as f64 / wall.as_secs_f64()
    );
    println!(
        "  {:.2} seeds/second, {:.2} mutants/second",
        seeds as f64 / wall.as_secs_f64(),
        mutants as f64 / wall.as_secs_f64()
    );
    if incidents > 0 {
        println!("\n{incidents} harness incident(s) contained (see validate::ValidationOutcome)");
    }
}
