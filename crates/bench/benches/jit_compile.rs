//! JIT compile time: `cse_vm::jit::compile` on every function of the
//! JoNM mutant corpus (`cse_bench::jit_corpus`), normal and OSR entries,
//! at tier 1 and at the top tier, reported as µs per compile. Forced
//! compilation plans make campaigns compile-heavy, and this is the cost
//! they pay per compiled function.

#![forbid(unsafe_code)]

use cse_bench::jit_corpus::{self, TIERS};
use cse_bench::stopwatch::bench_function;
use cse_vm::jit::{self, CompileFail};
use cse_vm::FaultInjector;

fn main() {
    let programs = jit_corpus::jonm_mutants(12, 1);
    let faults = FaultInjector::none();
    let profiles: Vec<_> = programs.iter().map(jit_corpus::cold_profiles).collect();
    for tier in TIERS {
        let contexts: Vec<_> = programs
            .iter()
            .zip(&profiles)
            .map(|(program, profiles)| jit_corpus::context(program, profiles, &faults, tier))
            .collect();
        // The units that compile (OSR is impossible at some headers).
        let units: Vec<_> = contexts
            .iter()
            .flat_map(|ctx| jit_corpus::entries(ctx.program).into_iter().map(move |u| (ctx, u)))
            .filter(|(ctx, (method, osr))| {
                !matches!(
                    jit::compile(ctx, *method, *osr, &mut Vec::new(), &mut Vec::new()),
                    Err(CompileFail::OsrUnsupported)
                )
            })
            .collect();
        let median = bench_function(&format!("jit_compile/{tier}_corpus"), || {
            for (ctx, (method, osr)) in &units {
                let _ = std::hint::black_box(jit::compile(
                    ctx,
                    *method,
                    *osr,
                    &mut Vec::new(),
                    &mut Vec::new(),
                ));
            }
        });
        let per_compile = median.as_secs_f64() * 1e6 / units.len() as f64;
        println!("jit_compile/{tier}: {} compiles, {per_compile:.1} µs/compile", units.len());
    }
}
