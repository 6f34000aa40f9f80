//! Table 3 — "Mutation cost of Artemis in seconds".
//!
//! * **Single-run**: one engine boot per mutant — parse the seed source,
//!   resolve/check it, construct the mutation engine, mutate once (the
//!   paper's "complete both source parsing and loop synthesis").
//! * **Large-scale**: the engine and parsed seed are reused across many
//!   mutants, amortizing everything but the mutation itself.
//!
//! The paper reports ~1.65 s single-run vs ~0.16 s large-scale on Spoon;
//! this front end is far lighter, so absolute numbers are milliseconds —
//! the *ratio* (boot cost dominating single runs) is the reproduced shape.

#![forbid(unsafe_code)]

use std::time::Instant;

use cse_core::env;
use cse_core::mutate::Artemis;
use cse_core::synth::SynthParams;
use cse_vm::VmKind;

fn stats(mut samples: Vec<f64>) -> (f64, f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let median = samples[samples.len() / 2];
    (mean, median, samples[0], *samples.last().expect("nonempty"))
}

fn main() {
    let n = env::or_exit(env::SEEDS.read()).unwrap_or(300) as usize;
    println!("Table 3: mutation cost (milliseconds; paper reports seconds on Spoon)\n");
    let fuzz = cse_fuzz::FuzzConfig::default();
    // Pre-render seed sources: single-run mode starts from source text,
    // exactly like invoking the tool afresh per mutant.
    let sources: Vec<String> =
        (0..n).map(|i| cse_lang::pretty::print(&cse_fuzz::generate(i as u64, &fuzz))).collect();

    // Single-run: parse + check + boot + one mutation, per mutant.
    let mut single: Vec<f64> = Vec::with_capacity(n);
    for (i, source) in sources.iter().enumerate() {
        let start = Instant::now();
        let seed = cse_lang::parse_and_check(source).expect("seed re-parses");
        let mut artemis = Artemis::new(i as u64, SynthParams::for_kind(VmKind::HotSpotLike));
        let (mutant, _) = artemis.jonm(&seed);
        std::hint::black_box(&mutant);
        single.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Large-scale: boot once, reuse the parsed seed, generate many mutants.
    let seeds: Vec<cse_lang::Program> =
        sources.iter().map(|s| cse_lang::parse_and_check(s).expect("seed re-parses")).collect();
    let mut artemis = Artemis::new(7, SynthParams::for_kind(VmKind::HotSpotLike));
    let mut large: Vec<f64> = Vec::with_capacity(n);
    for seed in &seeds {
        let start = Instant::now();
        let (mutant, _) = artemis.jonm(seed);
        std::hint::black_box(&mutant);
        large.push(start.elapsed().as_secs_f64() * 1e3);
    }

    println!("{:<12} {:>9} {:>9} {:>9} {:>9}", "", "Mean", "Median", "Min", "Max");
    for (label, samples) in [("Single-run", single), ("Large-scale", large)] {
        let (mean, median, min, max) = stats(samples);
        println!("{label:<12} {mean:>9.3} {median:>9.3} {min:>9.3} {max:>9.3}");
    }
    println!("\n({n} seeds; one mutant each; override count with CSE_SEEDS)");
}
