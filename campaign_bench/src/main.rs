//! The campaign benchmark.
//!
//! ```text
//! campaign-bench --workload <uniform|guided|correct_oracles|triage>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--first-seed <n>] [--seeds <n>] [--out-dir <dir>]
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload's set-up, then repeats
//! its campaign until `--seconds` are used, checks every repetition's
//! output, and reports medians. The campaign window is fixed by
//! `--first-seed`/`--seeds` (defaults per workload), not by `--seed`; see
//! NOTES.md for why. Traced (`--trace 1`), it runs one
//! untraced repetition and then replays the seed window layer by layer
//! (see `trace.rs`). Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! check exits with status 1. See NOTES.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod checks;
mod proc;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;
use workload::{run_rep, setup, Rep, Workload};

/// Set-up repeats at least this often, and for at least `MIN_SETUP_S`
/// seconds in all, so its median rests on enough work to be steady.
const MIN_SETUP_REPS: usize = 9;
const MIN_SETUP_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    first_seed: u64,
    seeds: u64,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut get = |flag: &str| -> Result<String, String> {
        raw.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut first_seed, mut seeds, mut out_dir) = (None, None, PathBuf::from(".bench_out"));
    while let Ok(flag) = get("") {
        let value = get(&flag)?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--first-seed" => first_seed = Some(number()?),
            "--seeds" => seeds = Some(number()?.max(1)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (default_first, default_seeds) = workload.default_window();
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        first_seed: first_seed.unwrap_or(default_first),
        seeds: seeds.unwrap_or(default_seeds),
        out_dir,
    })
}

fn main() -> ExitCode {
    // The library reads `CSE_*` knobs from the environment; a benchmark
    // run must not depend on the caller's shell.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CSE_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seeds {}..{} jobs {} cores {} seed {} trace {}",
        args.workload.name(),
        args.first_seed,
        args.first_seed + args.seeds,
        args.workload.jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let metrics =
        if args.trace { traced(&args, &mut checks) } else { untraced(&args, &mut checks) };
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.passed(),
        checks.attempted.max(1),
        checks.failures.len(),
        metrics.join(", ")
    );
    if checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of each repetition, by name and unit. The JSON
/// line carries the gated ones (see `GATED`); all are printed.
fn end_to_end(workload: Workload, rep: &Rep) -> [(&'static str, f64, &'static str); 7] {
    let totals = &rep.result.totals;
    let wall = rep.wall().as_secs_f64();
    [
        ("seeds_per_s", totals.seeds as f64 / wall, "1/s"),
        ("mutants_per_s", totals.mutants as f64 / wall, "1/s"),
        ("bug_hits_per_s", rep.bug_hits() as f64 / wall, "1/s"),
        ("unique_bugs", rep.result.bugs.len() as f64, "count"),
        ("false_alarms", rep.false_alarms(workload) as f64, "count"),
        ("success_frac", rep.success_frac(), "frac"),
        ("vm_runs_per_mutant", rep.vm_runs_per_mutant(), "count"),
    ]
}

/// End-to-end metrics the JSON line reports. `bug_hits_per_s`,
/// `unique_bugs` and `false_alarms` are 0 by construction on some
/// workloads, so they are printed here and reported by the traced run as
/// `oracle.*` instead.
const GATED: [&str; 5] =
    ["seeds_per_s", "mutants_per_s", "success_frac", "setup_s", "vm_runs_per_mutant"];

type Metric = (&'static str, f64, &'static str);

fn print_metric(workload: Workload, (name, value, unit): &Metric) {
    println!("metric {} {name} {value} {unit}", workload.name());
}

fn untraced(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    // Set-up, repeated until it has timed enough work to be steady; the
    // campaign then runs on the first repetition's configuration.
    let mut setup_samples = Vec::new();
    let mut prepared = None;
    while setup_samples.len() < MAX_SETUP_REPS
        && (setup_samples.len() < MIN_SETUP_REPS || setup_samples.iter().sum::<f64>() < MIN_SETUP_S)
    {
        let setup_start = Instant::now();
        let result = setup(args.workload, args.first_seed, args.seeds);
        setup_samples.push(setup_start.elapsed().as_secs_f64());
        match result {
            Ok(this) => {
                prepared.get_or_insert(this);
            }
            Err(e) => {
                checks.check(false, || e);
                return Vec::new();
            }
        }
    }
    let Some((config, corpus)) = prepared else { return Vec::new() };
    println!(
        "corpus {} seeds, {} methods, {} source bytes",
        corpus.len(),
        corpus.iter().map(|e| e.bytecode.methods.len()).sum::<usize>(),
        corpus.iter().map(|e| e.source_bytes).sum::<usize>()
    );
    let mut per_rep: Vec<[Metric; 7]> = Vec::new();
    let mut digests = Vec::new();
    loop {
        let rep = run_rep(args.workload, &config);
        checks.repetition(args.workload, &config, &corpus, &rep);
        if per_rep.is_empty() {
            checks.reproducers(&config, &rep);
        }
        digests.push(rep.digest(&config));
        println!(
            "repetition {} wall {:.3} s digest {:016x}",
            per_rep.len(),
            rep.wall().as_secs_f64(),
            digests[per_rep.len()]
        );
        per_rep.push(end_to_end(args.workload, &rep));
        // Stop once another repetition would overrun by more than half.
        if start.elapsed().as_secs_f64() + rep.wall().as_secs_f64() / 2.0 > args.seconds {
            break;
        }
    }
    checks.digests_agree(&digests);
    digest_history(args, checks, digests[0]);
    println!("repetitions {} set-up repetitions {}", per_rep.len(), setup_samples.len());

    let mut metrics: Vec<Metric> = (0..per_rep[0].len())
        .map(|i| {
            let (name, _, unit) = per_rep[0][i];
            let values: Vec<f64> = per_rep.iter().map(|m| m[i].1).collect();
            (name, proc::median(&values), unit)
        })
        .collect();
    metrics.push(("setup_s", proc::median(&setup_samples), "s"));
    for metric in &metrics {
        print_metric(args.workload, metric);
    }
    metrics.retain(|(name, _, _)| GATED.contains(name));
    metrics
}

fn traced(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let (config, corpus) = match setup(args.workload, args.first_seed, args.seeds) {
        Ok(prepared) => prepared,
        Err(e) => {
            checks.check(false, || e);
            return Vec::new();
        }
    };
    let rep = run_rep(args.workload, &config);
    checks.repetition(args.workload, &config, &corpus, &rep);
    checks.reproducers(&config, &rep);
    digest_history(args, checks, rep.digest(&config));
    for metric in end_to_end(args.workload, &rep) {
        print_metric(args.workload, &metric);
    }

    // Triage runs on every workload's incidents here; only the `triage`
    // workload times it as part of its repetition.
    let (triage, triage_s) = match &rep.triage {
        Some(report) => (report.clone(), rep.triage_wall.as_secs_f64()),
        None => {
            let start = Instant::now();
            let report = cse_core::triage_incidents(
                &rep.result.incidents,
                &workload::triage_config(&config),
                None,
                None,
            );
            (report, start.elapsed().as_secs_f64())
        }
    };
    // The same campaign on one worker: the executor's serial reference,
    // which must give the same digest.
    let serial_wall_s = (config.jobs > 1).then(|| {
        let start = Instant::now();
        let serial = cse_core::campaign::run_campaign(&config.clone().with_jobs(1));
        let wall = start.elapsed().as_secs_f64();
        checks.check(serial.digest(&config) == rep.result.digest(&config), || {
            "campaign digest differs between jobs=1 and the workload's jobs".into()
        });
        wall
    });

    let mut tracer = trace::Tracer::new();
    let start = Instant::now();
    trace::replay(&mut tracer, args.workload, &config);
    let extra = trace::Extra {
        triage: &triage,
        triage_s,
        serial_wall_s,
        replay_wall_s: start.elapsed().as_secs_f64(),
    };
    let metrics = trace::layer_metrics(&tracer, args.workload, &config, &rep, &extra);
    for metric in &metrics {
        print_metric(args.workload, metric);
    }

    let alarms = rep.alarm_lines(args.workload);
    for alarm in &alarms {
        println!("alarm {alarm}");
    }
    let path = args.out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    let alarm_json: Vec<String> =
        alarms.iter().map(|a| format!("{{\"alarm\": \"{}\"}}", json_escape(a))).collect();
    let written = tracer.write(&path, &alarm_json);
    checks.check(written.is_ok(), || format!("cannot write {}: {written:?}", path.display()));
    println!("trace written to {}", path.display());
    metrics
}

/// Checks the run's digest against earlier runs of this executable on the
/// same workload and window.
fn digest_history(args: &Args, checks: &mut Checks, digest: u64) {
    let exe = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let key =
        format!("{} {} {} {:016x}", args.workload.name(), args.first_seed, args.seeds, fnv1a(&exe));
    checks.digest_history(&args.out_dir.join("digests.txt"), &key, digest);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
