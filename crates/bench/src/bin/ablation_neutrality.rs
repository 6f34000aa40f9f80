//! Ablation: semantics-preserving vs non-neutral mutation (§4.5).
//!
//! A non-neutral mutator cannot use the output oracle at all: every
//! output difference may just be the mutation's own effect. This ablation
//! quantifies the false-positive rate a naive non-neutral mutator would
//! have on a *correct* VM — versus JoNM's zero.

#![forbid(unsafe_code)]

use cse_core::env;
use cse_core::mutate::Artemis;
use cse_core::synth::SynthParams;
use cse_core::validate::compile_checked;
use cse_lang::ast::{Expr, Stmt};
use cse_rng::Rng64;
use cse_vm::{Outcome, Vm, VmConfig, VmKind};

/// A deliberately non-neutral mutator: flips one integer literal.
fn non_neutral_mutate(seed: &cse_lang::Program, rng_seed: u64) -> cse_lang::Program {
    let mut mutant = seed.clone();
    let mut rng = Rng64::seed_from_u64(rng_seed);
    let points = cse_lang::scope::collect_points(&mutant);
    for info in points {
        let stmts = cse_lang::scope::stmts_at_mut(&mut mutant, &info.point);
        if info.point.index < stmts.len() && rng.gen_bool(0.15) {
            if let Stmt::Assign { value: Expr::IntLit(v), .. } = &mut stmts[info.point.index] {
                *v = v.wrapping_add(1);
                return mutant;
            }
        }
    }
    mutant
}

fn main() {
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(100);
    println!("Ablation: neutral (JoNM) vs non-neutral mutation on a CORRECT VM");
    println!("({seeds} seeds; every \"discrepancy\" here is a false positive)\n");
    let vm = VmConfig::correct(VmKind::HotSpotLike);
    let mut jonm_fp = 0u64;
    let mut nonneutral_fp = 0u64;
    for seed_value in 0..seeds {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let seed_bc = compile_checked(&seed);
        let seed_run = Vm::run_program(&seed_bc, vm.clone());
        if matches!(seed_run.outcome, Outcome::Timeout) {
            continue;
        }
        // JoNM mutant.
        let mut artemis = Artemis::new(seed_value, SynthParams::for_kind(VmKind::HotSpotLike));
        let (mutant, _) = artemis.jonm(&seed);
        let run = Vm::run_program(&compile_checked(&mutant), vm.clone());
        if !matches!(run.outcome, Outcome::Timeout) && run.observable() != seed_run.observable() {
            jonm_fp += 1;
        }
        // Non-neutral mutant.
        let mutant = non_neutral_mutate(&seed, seed_value);
        let run = Vm::run_program(&compile_checked(&mutant), vm.clone());
        if !matches!(run.outcome, Outcome::Timeout) && run.observable() != seed_run.observable() {
            nonneutral_fp += 1;
        }
    }
    println!("{:<28} {:>16}", "Mutator", "false positives");
    println!("{:<28} {:>16}", "JoNM (semantics-preserving)", jonm_fp);
    println!("{:<28} {:>16}", "literal-flip (non-neutral)", nonneutral_fp);
    assert_eq!(jonm_fp, 0, "JoNM must never false-positive on a correct VM");
    println!("\nWithout neutrality, the output oracle is unusable (§4.5's design choice).");
}
