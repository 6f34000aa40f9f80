//! The four workloads: campaign configuration, seed window, the timed
//! set-up, and one timed campaign repetition.

use std::time::{Duration, Instant};

use cse_bytecode::BProgram;
use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::{CoveragePolicy, ExecCachePolicy, IncidentPhase, TriageConfig, TriageReport};
use cse_vm::{TvMode, VerifyMode, VmConfig, VmKind};

use crate::proc;

/// Every workload runs the HotSpot-like profile.
pub const KIND: VmKind = VmKind::HotSpotLike;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Buggy VM, uniform sampling, one worker: the paper's campaign.
    Uniform,
    /// Buggy VM, coverage-guided scheduling, two workers.
    Guided,
    /// Bug-free VM with the IR verifier and translation validator armed.
    CorrectOracles,
    /// Buggy VM with the translation validator armed, then incident triage.
    Triage,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Uniform, Workload::Guided, Workload::CorrectOracles, Workload::Triage];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Guided => "guided",
            Workload::CorrectOracles => "correct_oracles",
            Workload::Triage => "triage",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Default seed window: `(first_seed, seed count)`.
    pub fn default_window(self) -> (u64, u64) {
        match self {
            Workload::Triage => (0, 12),
            Workload::Uniform | Workload::Guided => (0, 48),
            Workload::CorrectOracles => (0, 24),
        }
    }

    pub fn jobs(self) -> usize {
        match self {
            Workload::Guided => 2,
            _ => 1,
        }
    }

    /// Whether the VM carries no seeded bugs, so every oracle report is a
    /// false alarm.
    pub fn bug_free(self) -> bool {
        self == Workload::CorrectOracles
    }

    /// Whether the timed repetition includes `triage_incidents`.
    pub fn triages(self) -> bool {
        self == Workload::Triage
    }

    /// The campaign configuration. Every knob that the library would
    /// otherwise read from the environment is set explicitly.
    pub fn config(self, first_seed: u64, seeds: u64) -> CampaignConfig {
        let vm = match self {
            Workload::Uniform | Workload::Guided => {
                pinned(VmConfig::for_kind(KIND), VerifyMode::Off, TvMode::Off)
            }
            Workload::CorrectOracles => {
                pinned(VmConfig::correct(KIND), VerifyMode::Boundary, TvMode::Boundary)
            }
            Workload::Triage => pinned(VmConfig::for_kind(KIND), VerifyMode::Off, TvMode::Boundary),
        };
        let coverage = match self {
            Workload::Guided => CoveragePolicy::Guide,
            _ => CoveragePolicy::Off,
        };
        let mut config = CampaignConfig::for_kind(KIND, seeds)
            .with_jobs(self.jobs())
            .with_exec_cache(ExecCachePolicy::On)
            .with_coverage(coverage);
        config.first_seed = first_seed;
        config.vm = vm;
        config
    }
}

/// Pins the VM budgets and oracle modes that `VmConfig` constructors
/// default from the environment.
pub fn pinned(mut vm: VmConfig, verify_ir: VerifyMode, tv: TvMode) -> VmConfig {
    vm.fuel = 40_000_000;
    vm.max_heap_bytes = 256 * 1024 * 1024;
    vm.stack_limit = 512;
    vm.verify_ir = verify_ir;
    vm.tv = tv;
    vm
}

/// The interpreter-only reference VM, pinned like the workload VMs.
pub fn reference_vm() -> VmConfig {
    let mut vm = pinned(VmConfig::correct(KIND), VerifyMode::Off, TvMode::Off);
    vm.jit_enabled = false;
    vm
}

/// Triage settings for a campaign, written out instead of read from the
/// environment (the values `TriageConfig::for_campaign` defaults to).
pub fn triage_config(config: &CampaignConfig) -> TriageConfig {
    let mut vm = config.vm.clone();
    vm.wall_clock_limit = None;
    vm.chaos_panic_at_ops = None;
    TriageConfig { vm, max_reduce_steps: 1000, reruns: 3, retries: 1, jobs: config.jobs }
}

/// One seed of the window, front-ended.
pub struct CorpusEntry {
    pub seed: u64,
    pub source_bytes: usize,
    pub bytecode: BProgram,
}

/// Set-up: builds the configuration and generates plus front-ends the
/// window's seed corpus (`generate` → `print` → `parse` → `check` →
/// `compile`). Fails if any seed does not front-end.
pub fn setup(
    workload: Workload,
    first_seed: u64,
    seeds: u64,
) -> Result<(CampaignConfig, Vec<CorpusEntry>), String> {
    let config = workload.config(first_seed, seeds);
    let mut corpus = Vec::with_capacity(seeds as usize);
    for seed in first_seed..first_seed + seeds {
        let generated = cse_fuzz::generate(seed, &config.fuzz);
        let source = cse_lang::pretty::print(&generated);
        let mut program =
            cse_lang::parse(&source).map_err(|e| format!("seed {seed}: parse failed: {e}"))?;
        cse_lang::typeck::check(&mut program)
            .map_err(|e| format!("seed {seed}: type check failed: {e}"))?;
        let bytecode = cse_bytecode::compile(&program)
            .map_err(|e| format!("seed {seed}: compile failed: {e}"))?;
        corpus.push(CorpusEntry { seed, source_bytes: source.len(), bytecode });
    }
    Ok((config, corpus))
}

/// One timed campaign repetition (plus triage on the `triage` workload).
pub struct Rep {
    pub result: CampaignResult,
    pub triage: Option<TriageReport>,
    /// Wall time of `run_campaign` alone.
    pub campaign_wall: Duration,
    /// Wall time of `triage_incidents` (zero when not run).
    pub triage_wall: Duration,
    /// Process CPU-seconds spent in `run_campaign`.
    pub campaign_cpu_s: f64,
}

impl Rep {
    /// The time the end-to-end rates are taken over.
    pub fn wall(&self) -> Duration {
        self.campaign_wall + self.triage_wall
    }

    /// Campaign digest, extended with the triage report's digest.
    pub fn digest(&self, config: &CampaignConfig) -> u64 {
        let digest = self.result.digest(config);
        match &self.triage {
            Some(report) => digest.rotate_left(17) ^ report.digest(),
            None => digest,
        }
    }

    /// Attributed discrepancies (the paper's objective).
    pub fn bug_hits(&self) -> u64 {
        self.result.bugs.values().map(|e| e.occurrences as u64).sum()
    }

    /// Oracle reports that no armed seeded bug explains: unattributed
    /// differential discrepancies, plus every IR-verifier and TV defect on
    /// a bug-free VM.
    pub fn false_alarms(&self, workload: Workload) -> u64 {
        let totals = &self.result.totals;
        let mut alarms = self.result.unattributed as u64;
        if workload.bug_free() {
            alarms += totals.ir_verify_defects + totals.tv_defects;
        }
        alarms
    }

    /// Mutants that reached an oracle verdict over mutants attempted.
    pub fn success_frac(&self) -> f64 {
        let totals = &self.result.totals;
        ratio(totals.completed as f64, (totals.mutants + totals.mutant_compile_failures) as f64)
    }

    pub fn vm_runs_per_mutant(&self) -> f64 {
        let totals = &self.result.totals;
        ratio(totals.vm_invocations as f64, totals.mutants as f64)
    }

    /// Alarm lines for the trace output: one per IR-verifier or TV defect
    /// on a bug-free VM, as `seed method pass first-line`.
    pub fn alarm_lines(&self, workload: Workload) -> Vec<String> {
        if !workload.bug_free() {
            return Vec::new();
        }
        let mut lines = Vec::new();
        for incident in &self.result.incidents {
            if !matches!(incident.phase, IncidentPhase::TvDefect | IncidentPhase::IrVerifyDefect) {
                continue;
            }
            // Each defect report's first line reads `method: after pass: …`;
            // IR dumps follow on lines of their own.
            for line in incident.payload.lines() {
                let Some((method, rest)) = line.split_once(": after ") else { continue };
                let pass = rest.split(':').next().unwrap_or("");
                lines.push(format!(
                    "seed={} oracle={} method={method} pass={pass} {line}",
                    incident.seed,
                    incident.phase.name()
                ));
            }
        }
        lines
    }
}

pub fn run_rep(workload: Workload, config: &CampaignConfig) -> Rep {
    let cpu_before = proc::cpu_seconds();
    let start = Instant::now();
    let result = run_campaign(config);
    let campaign_wall = start.elapsed();
    let campaign_cpu_s = proc::cpu_seconds() - cpu_before;
    let (triage, triage_wall) = if workload.triages() {
        let start = Instant::now();
        let report =
            cse_core::triage_incidents(&result.incidents, &triage_config(config), None, None);
        (Some(report), start.elapsed())
    } else {
        (None, Duration::ZERO)
    };
    Rep { result, triage, campaign_wall, triage_wall, campaign_cpu_s }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
