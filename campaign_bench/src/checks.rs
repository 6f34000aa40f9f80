//! Output checks. Every repetition's result is checked; any failure makes
//! the run report `"correct": false` and exit non-zero.

use std::path::Path;

use cse_core::campaign::CampaignConfig;
use cse_core::validate::{is_performance_anomaly, timeout_is_performance_bug};
use cse_core::IncidentPhase;
use cse_vm::{ForcedPlan, Outcome, Tier, Vm};

use crate::workload::{reference_vm, CorpusEntry, Rep, Workload};

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The checks every repetition must pass.
    pub fn repetition(
        &mut self,
        workload: Workload,
        config: &CampaignConfig,
        corpus: &[CorpusEntry],
        rep: &Rep,
    ) {
        let result = &rep.result;
        let totals = &result.totals;
        self.check(totals.mutants == totals.completed + totals.discarded, || {
            format!(
                "mutants_run {} != completed {} + discarded {}",
                totals.mutants, totals.completed, totals.discarded
            )
        });
        self.check(!totals.partial && totals.seeds == corpus.len() as u64, || {
            format!("campaign processed {} of {} seeds", totals.seeds, corpus.len())
        });
        // Set-up front-ended every seed, so the campaign must too.
        let seed_compile =
            result.incidents.iter().filter(|i| i.phase == IncidentPhase::SeedCompile);
        self.check(seed_compile.count() == 0, || "a set-up seed failed in the campaign".into());
        for (bug, evidence) in &result.bugs {
            self.check(config.vm.faults.active(*bug), || {
                format!("found bug {bug:?} is not armed on the workload VM")
            });
            self.check(corpus.iter().any(|entry| entry.seed == evidence.first_seed), || {
                format!(
                    "bug {bug:?} was first found on seed {}, outside the window",
                    evidence.first_seed
                )
            });
        }
        if workload.bug_free() {
            self.check(result.bugs.is_empty() && result.unattributed == 0, || {
                format!(
                    "bug-free VM reported {} bugs and {} unattributed discrepancies",
                    result.bugs.len(),
                    result.unattributed
                )
            });
        }
        if let Some(report) = &rep.triage {
            self.check(report.incidents == result.incidents.len(), || {
                format!("triage saw {} of {} incidents", report.incidents, result.incidents.len())
            });
        }
    }

    /// Re-runs every reproducer on the workload VM: it must still diverge
    /// from the interpreter-only reference, or be a performance anomaly.
    /// Guided campaigns validate under forced plans, so each reproducer
    /// gets the baseline plan and both forced plans before it fails.
    pub fn reproducers(&mut self, config: &CampaignConfig, rep: &Rep) {
        for evidence in rep.result.bugs.values() {
            let diverges = reproducer_diverges(&evidence.reproducer, config);
            self.check(diverges == Ok(true), || {
                format!(
                    "reproducer of {:?} (seed {}) no longer diverges: {diverges:?}",
                    evidence.bug, evidence.first_seed
                )
            });
        }
    }

    /// Every repetition of a workload in this run must give one digest.
    pub fn digests_agree(&mut self, digests: &[u64]) {
        let first = digests.first().copied();
        self.check(digests.iter().all(|d| Some(*d) == first), || {
            format!("campaign digest changed between repetitions: {digests:x?}")
        });
    }

    /// The digest must also match every earlier run of the same binary on
    /// the same workload and window. Runs are keyed by a hash of the
    /// benchmark executable, so a rebuilt program starts a fresh history
    /// and a legitimate digest change never needs a benchmark edit.
    pub fn digest_history(&mut self, history: &Path, key: &str, digest: u64) {
        let line = format!("{key} {digest:016x}");
        let previous = std::fs::read_to_string(history).unwrap_or_default();
        let earlier = previous.lines().find(|l| l.rsplit_once(' ').map(|(k, _)| k) == Some(key));
        match earlier {
            Some(earlier) => self.check(earlier == line, || {
                format!("campaign digest {digest:016x} differs from an earlier run: {earlier}")
            }),
            None => {
                let written = history
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(history, format!("{previous}{line}\n")));
                self.check(written.is_ok(), || format!("cannot record digest: {written:?}"));
            }
        }
    }
}

fn reproducer_diverges(source: &str, config: &CampaignConfig) -> Result<bool, String> {
    let program = cse_lang::parse_and_check(source).map_err(|e| e.to_string())?;
    let bytecode = cse_bytecode::compile(&program).map_err(|e| e.to_string())?;
    let reference = Vm::run_program(&bytecode, reference_vm());
    let plans = [None, Some(ForcedPlan::all(config.vm.top_tier())), Some(ForcedPlan::all(Tier(1)))];
    Ok(plans.into_iter().any(|plan| {
        let mut vm = config.vm.clone();
        vm.plan = plan;
        let run = Vm::run_program(&bytecode, vm.clone());
        run.crashed()
            || is_performance_anomaly(run.stats.total_ops(), reference.stats.total_ops())
            || (matches!(run.outcome, Outcome::Timeout)
                && timeout_is_performance_bug(Some(&reference), vm.fuel))
            || (!run.outcome.is_resource_exhausted() && run.observable() != reference.observable())
    }))
}
