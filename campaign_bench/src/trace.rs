//! The traced run. It replays the workload's seed window stage by stage
//! through each layer's public functions and records a span around every
//! call, plus counts at the same boundaries. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cse_core::campaign::CampaignConfig;
use cse_core::validate::{try_compile_checked_mut, validate_compiled_in, ValidateConfig};
use cse_core::{Artemis, ExecCachePolicy, SynthParams, TriageReport};
use cse_vm::{ExecutionResult, Outcome, SharedArtifactCache, TvMode, VerifyMode, Vm, VmConfig};

use crate::proc;
use crate::workload::{pinned, ratio, reference_vm, Rep, Workload, KIND};

/// Mutant op count above which validation always demands a reference
/// run (`validate`'s performance-anomaly slack).
const REFERENCE_OPS_SLACK: u64 = 1_000_000;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The seed whose replay the span belongs to (its request id).
    seed: u64,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }

    fn open(&mut self, name: &'static str, seed: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, parent, seed, start: now, end: now });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(
        &mut self,
        name: &'static str,
        seed: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, seed, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    /// Duration of the most recently opened span, in seconds: the leaf
    /// that `span` has just closed.
    fn last_s(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    fn add(&mut self, counter: &'static str, value: f64) {
        *self.counts.entry(counter).or_insert(0.0) += value;
    }

    fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Writes every span, every count and the extra `lines` (already JSON)
    /// to `path`, one JSON object per line.
    pub fn write(&self, path: &Path, lines: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"seed\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                span.name,
                span.seed,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\": \"{name}\", \"value\": {value}}}")?;
        }
        for line in lines {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Replays the campaign's seed window one layer call at a time, in two
/// passes so that the probes do not disturb the timed validation. The
/// first pass generates and front-ends each seed, then times its seed run
/// and `validate_compiled_in`. The second probes the mutant pipeline call
/// by call: JoNM, the mutant front end, the mutant run, the reference
/// runs validation would demand, and the same mutant with the IR verifier
/// and TV armed and off. Guided campaigns re-expand corpus entries under
/// forced plans; the replay visits the natural seeds under the baseline
/// plan.
pub fn replay(tracer: &mut Tracer, workload: Workload, config: &CampaignConfig) {
    let mut vm = config.vm.clone();
    vm.coverage = workload == Workload::Guided;
    let vconfig = ValidateConfig {
        max_iter: config.max_iter,
        vm: vm.clone(),
        params: SynthParams::for_kind(KIND),
        verify_neutrality: true,
        exec_cache: ExecCachePolicy::On,
    };
    let shard = SharedArtifactCache::new();
    let mut validated = Vec::new();
    for seed in config.first_seed..config.first_seed + config.seeds {
        let root = tracer.open("seed", seed, None);
        let generated =
            tracer.span("fuzz.generate", seed, root, || cse_fuzz::generate(seed, &config.fuzz));
        let source = tracer.span("lang.print", seed, root, || cse_lang::pretty::print(&generated));
        tracer.add("lang.bytes", source.len() as f64);
        let parsed = tracer.span("lang.parse", seed, root, || cse_lang::parse(&source));
        let checked = parsed.and_then(|mut program| {
            tracer.span("lang.typeck", seed, root, || cse_lang::typeck::check(&mut program))?;
            tracer.span("bytecode.compile", seed, root, || cse_bytecode::compile(&program))
        });
        let Ok(bytecode) = checked else {
            tracer.add("replay.skipped_seeds", 1.0);
            tracer.close(root);
            continue;
        };
        tracer.add("bytecode.methods", bytecode.methods.len() as f64);
        let bytecode = Arc::new(bytecode);
        let seed_run =
            tracer.span("vm.seed_run", seed, root, || Vm::run_program(&bytecode, vm.clone()));
        let outcome = tracer.span("core.validate", seed, root, || {
            validate_compiled_in(&generated, Ok(bytecode.clone()), &vconfig, seed, |_| {}, &shard)
        });
        let reference_runs = outcome.vm_invocations.saturating_sub(1 + outcome.mutants_run);
        tracer.add("core.validate.reference_runs", reference_runs as f64);
        tracer.close(root);
        validated.push((seed, generated, bytecode, seed_run));
    }

    let armed = pinned(vm.clone(), VerifyMode::Boundary, TvMode::Boundary);
    let off = pinned(vm.clone(), VerifyMode::Off, TvMode::Off);
    for (seed, generated, bytecode, seed_run) in validated {
        let root = tracer.open("mutants", seed, None);
        let mut seed_reference_due = !is_own_reference(&seed_run);
        let seed_observable = seed_run.observable();
        let mut artemis = Artemis::new(seed, vconfig.params.clone());
        for _ in 0..vconfig.max_iter {
            let (mut mutant, applied) =
                tracer.span("core.jonm", seed, root, || artemis.jonm(&generated));
            if applied.is_empty() {
                continue;
            }
            tracer.add("core.jonm.mutants", 1.0);
            let compiled = tracer
                .span("core.mutant_frontend", seed, root, || try_compile_checked_mut(&mut mutant));
            let Ok(mutant_bytecode) = compiled else {
                tracer.add("core.mutant_frontend.failures", 1.0);
                continue;
            };
            let run = tracer.span("vm.mutant_run", seed, root, || {
                Vm::run_program(&mutant_bytecode, vm.clone())
            });
            let run_s = tracer.last_s();
            tracer.add("vm.mutant_run.ops", run.stats.total_ops() as f64);
            tracer.add(
                "vm.mutant_run.compilations",
                f64::from(run.stats.compilations + run.stats.osr_compilations),
            );
            // Validation's lazy-reference rule: only a mutant that could
            // change a verdict demands interpreter runs of itself and,
            // once per seed, of the seed.
            let needs_reference = run.outcome.is_resource_exhausted()
                || run.stats.total_ops() > REFERENCE_OPS_SLACK
                || run.observable() != seed_observable;
            if needs_reference && !is_own_reference(&run) {
                reference_probe(tracer, seed, root, &mutant_bytecode);
            }
            if needs_reference && seed_reference_due {
                seed_reference_due = false;
                reference_probe(tracer, seed, root, &bytecode);
            }
            // Oracle overhead: the mutant with the IR verifier and TV armed
            // and with both off. Where the workload VM already is one of
            // the two, its timed run above stands in for it.
            for (oracles, counter) in [(&armed, "vm.oracle_armed_s"), (&off, "vm.oracle_off_s")] {
                let seconds = if same_oracles(&vm, oracles) {
                    run_s
                } else {
                    tracer.span("vm.oracle_run", seed, root, || {
                        Vm::run_program(&mutant_bytecode, oracles.clone())
                    });
                    tracer.last_s()
                };
                tracer.add(counter, seconds);
            }
        }
        tracer.close(root);
    }
}

fn same_oracles(a: &VmConfig, b: &VmConfig) -> bool {
    a.verify_ir == b.verify_ir && a.tv == b.tv
}

/// A run that never touched the JIT is its own interpreter reference.
fn is_own_reference(run: &ExecutionResult) -> bool {
    run.stats.compilations == 0
        && run.stats.osr_compilations == 0
        && run.stats.jit_ops == 0
        && !matches!(run.outcome, Outcome::Crash(_))
}

fn reference_probe(tracer: &mut Tracer, seed: u64, root: usize, bytecode: &cse_bytecode::BProgram) {
    let run =
        tracer.span("vm.reference_run", seed, root, || Vm::run_program(bytecode, reference_vm()));
    tracer.add("vm.reference_run.interp_ops", run.stats.interp_ops as f64);
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Timings the traced run takes besides the replay's spans.
pub struct Extra<'a> {
    /// Triage of the repetition's incidents: the timed one on the
    /// `triage` workload, a separate call elsewhere.
    pub triage: &'a TriageReport,
    pub triage_s: f64,
    /// Serial seed work: wall time of the same campaign at `jobs = 1`
    /// where the workload runs more workers (a guided schedule cannot be
    /// replayed seed by seed); `None` takes the replay's per-seed spans.
    pub serial_wall_s: Option<f64>,
    pub replay_wall_s: f64,
}

/// Derives every per-layer metric from the replay's spans and counts, one
/// untraced repetition `rep` of the same window, and `extra`.
pub fn layer_metrics(
    tracer: &Tracer,
    workload: Workload,
    config: &CampaignConfig,
    rep: &Rep,
    extra: &Extra<'_>,
) -> Vec<Metric> {
    let total = |name| tracer.total_s(name);
    let count = |name| tracer.count(name);
    let totals = &rep.result.totals;
    let campaign_wall_s = rep.campaign_wall.as_secs_f64();
    let jobs = config.jobs as f64;

    let validate_ms: Vec<f64> =
        tracer.durations_s("core.validate").iter().map(|s| s * 1e3).collect();
    let probed = total("vm.seed_run")
        + total("core.jonm")
        + total("core.mutant_frontend")
        + total("vm.mutant_run")
        + total("vm.reference_run");
    let front_end_s = total("lang.parse") + total("lang.typeck");

    let coverage = rep.result.coverage.as_ref();
    let cells = coverage.map_or(0.0, |c| f64::from(c.cells()));
    let execs = coverage.map_or(0.0, |c| c.execs as f64);

    let serial_s = extra.serial_wall_s.unwrap_or_else(|| {
        total("fuzz.generate")
            + total("lang.typeck")
            + total("bytecode.compile")
            + total("core.validate")
    });
    let triage = extra.triage;
    let triaged = || triage.reports.iter().chain(&triage.suppressed);
    let reduce_steps = triaged().map(|r| r.reduce_steps).sum::<usize>() as f64;
    let original_bytes = triaged().map(|r| r.original_bytes).sum::<usize>() as f64;
    let reduced_bytes = triaged().map(|r| r.reduced_bytes).sum::<usize>() as f64;
    let triage_s = extra.triage_s;

    vec![
        ("fuzz.generate_s", total("fuzz.generate"), "s"),
        ("lang.parse_s", total("lang.parse"), "s"),
        ("lang.typeck_s", total("lang.typeck"), "s"),
        ("lang.kb_per_s", ratio(count("lang.bytes") / 1024.0, front_end_s), "KiB/s"),
        ("bytecode.compile_s", total("bytecode.compile"), "s"),
        ("bytecode.methods", count("bytecode.methods"), "count"),
        ("core.jonm_s", total("core.jonm"), "s"),
        ("core.jonm.mutants", count("core.jonm.mutants"), "count"),
        ("core.mutant_frontend_s", total("core.mutant_frontend"), "s"),
        ("core.mutant_frontend.failures", count("core.mutant_frontend.failures"), "count"),
        ("vm.seed_run_s", total("vm.seed_run"), "s"),
        ("vm.mutant_run_s", total("vm.mutant_run"), "s"),
        ("vm.mutant_run.ops", count("vm.mutant_run.ops"), "count"),
        ("vm.mutant_run.compilations", count("vm.mutant_run.compilations"), "count"),
        ("vm.reference_run_s", total("vm.reference_run"), "s"),
        (
            "vm.reference_run.mops",
            ratio(count("vm.reference_run.interp_ops") / 1e6, total("vm.reference_run")),
            "Mops/s",
        ),
        ("core.validate.reference_runs", count("core.validate.reference_runs"), "count"),
        ("core.validate_s", total("core.validate"), "s"),
        ("core.validate.p50_ms", proc::quantile(&validate_ms, 0.5), "ms"),
        ("core.validate.p75_ms", proc::quantile(&validate_ms, 0.75), "ms"),
        ("core.validate.other_s", total("core.validate") - probed, "s"),
        ("vm.oracle_overhead_s", count("vm.oracle_armed_s") - count("vm.oracle_off_s"), "s"),
        (
            "core.memo.hit_frac",
            ratio(
                totals.exec_cache_hits as f64,
                (totals.exec_cache_hits + totals.exec_cache_misses) as f64,
            ),
            "frac",
        ),
        (
            "vm.artifact_cache.hit_frac",
            ratio(
                totals.artifact_cache_hits as f64,
                (totals.artifact_cache_hits + totals.artifact_cache_misses) as f64,
            ),
            "frac",
        ),
        ("core.coverage.cells", cells, "count"),
        ("core.coverage.corpus", coverage.map_or(0.0, |c| c.corpus.len() as f64), "count"),
        ("core.coverage.new_cells_per_1k_execs", ratio(cells * 1000.0, execs), "cells/kexec"),
        ("core.executor.cpu_util", ratio(rep.campaign_cpu_s, jobs * campaign_wall_s), "frac"),
        ("core.executor.speedup", ratio(serial_s, campaign_wall_s), "x"),
        ("core.campaign.other_s", campaign_wall_s - serial_s / jobs, "s"),
        ("core.triage_s", triage_s, "s"),
        ("core.triage.reports", triage.reports.len() as f64, "count"),
        ("core.triage.duplicates", triage.duplicates() as f64, "count"),
        ("core.triage.unreproducible", triage.suppressed.len() as f64, "count"),
        ("reduce.steps", reduce_steps, "count"),
        ("reduce.steps_per_s", ratio(reduce_steps, triage_s), "1/s"),
        ("reduce.size_frac", ratio(reduced_bytes, original_bytes), "frac"),
        ("mem.peak_rss_mb", proc::peak_rss_mb(), "MiB"),
        (
            "trace.overhead_frac",
            ratio(extra.replay_wall_s - campaign_wall_s, campaign_wall_s),
            "frac",
        ),
        ("oracle.bug_hits_per_s", ratio(rep.bug_hits() as f64, rep.wall().as_secs_f64()), "1/s"),
        ("oracle.unique_bugs", rep.result.bugs.len() as f64, "count"),
        ("oracle.false_alarms", rep.false_alarms(workload) as f64, "count"),
    ]
}
