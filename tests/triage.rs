//! Acceptance tests for automated incident triage: in-campaign
//! reduction, signature-based dedup, flakiness re-execution, and
//! digest stability across worker counts.

use std::path::{Path, PathBuf};

use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::supervisor::{parse_repro, ChaosConfig, HarnessIncident, IncidentPhase};
use cse_core::{shrink_plan, signature_of, triage_incidents, TriageConfig, Verdict};
use cse_reduce::{reduce_with, ReduceConfig};
use cse_vm::supervise::supervised_run;
use cse_vm::{ExecMode, ForcedPlan, TvMode, VmConfig, VmKind};

/// A unique scratch directory per test (tests share one process).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cse-triage-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn chaos_campaign(jobs: usize, dir: &Path) -> CampaignConfig {
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 5).with_jobs(jobs);
    config.supervisor.chaos = Some(ChaosConfig { panic_on_seed: 2, after_ops: 1_000 });
    config.supervisor.quarantine_dir = Some(dir.to_path_buf());
    let mut triage = TriageConfig::for_campaign(&config);
    triage.max_reduce_steps = 300;
    triage.reruns = 2;
    config.triage = Some(triage);
    config
}

/// The headline acceptance criterion: on a seeded-fault campaign, every
/// quarantined incident is triaged into a reduced, deduplicated,
/// classified report, and both the campaign digest and the triage
/// report are bit-identical for `jobs ∈ {1, 4}`.
#[test]
fn chaos_campaign_triage_is_complete_and_job_count_invariant() {
    let dir1 = scratch("campaign-j1");
    let dir4 = scratch("campaign-j4");
    let config1 = chaos_campaign(1, &dir1);
    let config4 = chaos_campaign(4, &dir4);
    let r1 = run_campaign(&config1);
    let r4 = run_campaign(&config4);

    // Identical digests and identical triage renderings across jobs.
    assert_eq!(r1.digest(&config1), r4.digest(&config4));
    let t1 = r1.triage.as_ref().expect("triage ran");
    let t4 = r4.triage.as_ref().expect("triage ran");
    assert_eq!(t1.render(), t4.render());
    assert_eq!(t1.digest(), t4.digest());

    // 100% of quarantined incidents are accounted for: every incident
    // lands in exactly one signature group (promoted or suppressed).
    assert!(!r1.incidents.is_empty(), "the chaos seed must quarantine incidents");
    let grouped: usize = t1.reports.iter().chain(&t1.suppressed).map(|rep| rep.occurrences).sum();
    assert_eq!(grouped, r1.incidents.len(), "triage must cover every incident");

    // The chaos panic reproduces deterministically, carries the original
    // signature, and its repro was strictly reduced.
    assert!(!t1.reports.is_empty(), "the chaos panic must be promoted");
    for report in &t1.reports {
        assert_eq!(report.verdict, Verdict::Deterministic);
        assert_eq!(report.reruns_matched, report.reruns_total);
        assert!(
            report.reduced_bytes < report.original_bytes,
            "repro must shrink: {} -> {} bytes",
            report.original_bytes,
            report.reduced_bytes
        );
        let sig = signature_of(
            r1.incidents.iter().find(|i| signature_of(i) == report.signature).expect("member"),
        );
        assert_eq!(sig, report.signature, "reduction must preserve the signature");
        // The reduced repro was persisted next to the quarantined input.
        let repro = dir1.join(format!("triage_{:016x}.mj", report.signature.stable_hash()));
        assert!(repro.exists(), "missing reduced repro {}", repro.display());
    }

    // The digest-bearing counters agree with the report.
    assert_eq!(r1.totals.triage_reports, t1.reports.len() as u64);
    assert_eq!(r1.totals.triage_duplicates, t1.duplicates() as u64);
    assert_eq!(r1.totals.triage_unreproducible, t1.suppressed.len() as u64);
}

/// Re-running a finished, checkpointed campaign recomputes the same
/// triage verdicts and the same digest (triage is deterministic, so it
/// is recomputed on resume rather than checkpointed).
#[test]
fn resumed_finished_campaign_reproduces_triage_digest() {
    let dir = scratch("resume");
    let mut config = chaos_campaign(1, &dir);
    config.supervisor.checkpoint_path = Some(dir.join("campaign.checkpoint"));
    let first = run_campaign(&config);
    let resumed = run_campaign(&config);
    assert_eq!(first.digest(&config), resumed.digest(&config));
    assert_eq!(
        first.triage.as_ref().map(|t| t.digest()),
        resumed.triage.as_ref().map(|t| t.digest())
    );
    assert_eq!(first.totals.triage_reports, resumed.totals.triage_reports);
}

/// The reducer's step budget is a hard bound: an adversarial predicate
/// that accepts everything cannot make reduction run away.
#[test]
fn reduce_step_budget_terminates_adversarial_inputs() {
    let program = cse_fuzz::generate(3, &cse_fuzz::FuzzConfig::default());
    let mut calls = 0usize;
    let outcome = reduce_with(&program, ReduceConfig { max_steps: 10 }, &mut |_| {
        calls += 1;
        true
    });
    assert!(outcome.budget_exhausted, "an accept-all predicate must exhaust the budget");
    // Typecheck-rejected candidates charge a step without reaching the
    // predicate, so predicate calls never exceed steps.
    assert!(calls <= outcome.steps, "{calls} predicate calls > {} steps", outcome.steps);
    assert!(outcome.steps <= 10, "budget overrun: {} steps", outcome.steps);
    // A flip-flopping predicate is bounded just the same.
    let mut flip = false;
    let outcome = reduce_with(&program, ReduceConfig { max_steps: 25 }, &mut |_| {
        flip = !flip;
        flip
    });
    assert!(outcome.steps <= 25);
}

/// Reduction reaches a fixed point: reducing an already-reduced program
/// changes nothing.
#[test]
fn reduction_is_idempotent() {
    let program = cse_fuzz::generate(5, &cse_fuzz::FuzzConfig::default());
    let mut keep = |p: &cse_lang::Program| cse_lang::pretty::print(p).contains("println");
    let once = reduce_with(&program, ReduceConfig { max_steps: 2_000 }, &mut keep);
    assert!(!once.budget_exhausted, "syntactic reduction must reach a fixed point");
    let twice = reduce_with(&once.program, ReduceConfig { max_steps: 2_000 }, &mut keep);
    assert_eq!(
        cse_lang::pretty::print(&once.program),
        cse_lang::pretty::print(&twice.program),
        "second reduction must be a no-op"
    );
}

/// Using cse-reduce as a library against a seeded fault: the repro of a
/// deterministic injected panic shrinks well below the original seed.
#[test]
fn seeded_fault_repro_shrinks_below_threshold() {
    let program = cse_fuzz::generate(2, &cse_fuzz::FuzzConfig::default());
    let original = cse_lang::pretty::print(&program);
    let mut vm = VmConfig::correct(VmKind::HotSpotLike);
    vm.chaos_panic_at_ops = Some(500); // the seeded fault
    let mut trips_fault = |p: &cse_lang::Program| {
        let Ok(bytecode) = cse_core::validate::try_compile_checked(p) else { return false };
        matches!(supervised_run(&bytecode, vm.clone()), Err(panic) if panic.payload.contains("chaos"))
    };
    assert!(trips_fault(&program), "the seed must trip the fault");
    let outcome = reduce_with(&program, ReduceConfig { max_steps: 400 }, &mut trips_fault);
    let reduced = cse_lang::pretty::print(&outcome.program);
    assert!(trips_fault(&outcome.program), "signature must survive reduction");
    assert!(
        reduced.len() * 2 < original.len(),
        "repro must shrink below half: {} -> {} bytes",
        original.len(),
        reduced.len()
    );
}

/// Compilation-space coordinate shrinking: irrelevant forced-plan pins
/// are dropped, the load-bearing pin survives, and the walk is bounded.
#[test]
fn forced_plan_shrinks_to_the_load_bearing_pin() {
    let mut plan = ForcedPlan::all_interpreted();
    for method in 0..6u32 {
        plan.set(cse_bytecode::MethodId(method), 0, ExecMode::Interpret);
    }
    let load_bearing = (cse_bytecode::MethodId(3), 0);
    let shrunk =
        shrink_plan(&plan, 100, &mut |candidate| candidate.per_call.contains_key(&load_bearing));
    assert_eq!(shrunk.per_call.len(), 1, "only the load-bearing pin survives");
    assert!(shrunk.per_call.contains_key(&load_bearing));
    assert_eq!(shrunk.default, None, "the default mode is dropped when irrelevant");

    // The step budget bounds the walk even when everything is kept.
    let kept = shrink_plan(&plan, 2, &mut |_| false);
    assert_eq!(kept.per_call.len(), plan.per_call.len());
}

/// Direct pipeline check: a reproducing incident is promoted with a
/// deterministic verdict and its signature intact; quarantine file names
/// carry the signature hash so same-seed incidents never collide.
#[test]
fn reproducing_incident_is_promoted_with_signature_preserved() {
    let seed_program = cse_fuzz::generate(7, &cse_fuzz::FuzzConfig::default());
    let incident = HarnessIncident {
        phase: IncidentPhase::SeedRun,
        seed: 7,
        rng_seed: 7,
        iteration: None,
        payload: "chaos: injected VM panic after 50 burned ops".to_string(),
        source: Some(cse_lang::pretty::print(&seed_program)),
    };
    let tcfg = TriageConfig {
        vm: VmConfig::correct(VmKind::HotSpotLike),
        max_reduce_steps: 200,
        reruns: 2,
        retries: 1,
        jobs: 1,
    };
    let chaos = Some(ChaosConfig { panic_on_seed: 7, after_ops: 50 });
    let dir = scratch("pipeline");
    let report = triage_incidents(std::slice::from_ref(&incident), &tcfg, chaos, Some(&dir));
    assert_eq!(report.reports.len(), 1);
    let triaged = &report.reports[0];
    assert_eq!(triaged.verdict, Verdict::Deterministic);
    assert_eq!(triaged.signature, signature_of(&incident));
    assert!(triaged.reduced_bytes < triaged.original_bytes);

    // Same seed + phase, different payloads → different quarantine files.
    let mut other = incident.clone();
    other.payload = "a completely different failure".to_string();
    let qdir = scratch("pipeline-quarantine");
    let vm = VmConfig::correct(VmKind::HotSpotLike);
    let a = cse_core::supervisor::quarantine_incident(&qdir, &incident, &vm).expect("write");
    let b = cse_core::supervisor::quarantine_incident(&qdir, &other, &vm).expect("write");
    assert_ne!(a, b, "signature hash must keep same-seed incidents from overwriting");
}

/// A translation-validation incident read back from its quarantine file
/// replays with TV armed, so triage promotes it. Seed 7 of the bug-free
/// HotSpotLike VM under `TvMode::Boundary` yields one `TvDefect` incident
/// (a validator false alarm, which is exactly what must replay). With
/// the oracle off the replay cannot reproduce it and triage suppresses
/// it, so the repro header must carry the oracle modes.
#[test]
fn quarantined_tv_incident_replays_with_its_oracle_armed() {
    let dir = scratch("tv-repro");
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 1);
    config.first_seed = 7;
    config.vm = VmConfig::correct(VmKind::HotSpotLike).with_tv(TvMode::Boundary);
    config.supervisor.quarantine_dir = Some(dir.clone());
    let result = run_campaign(&config);
    assert_eq!(result.incidents.len(), 1, "calibration: seed 7 yields one TV incident");
    assert_eq!(result.incidents[0].phase, IncidentPhase::TvDefect);

    let path = std::fs::read_dir(&dir)
        .expect("quarantine dir")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("incident_"))
        })
        .expect("incident repro file");
    let text = std::fs::read_to_string(path).expect("read repro");
    let (incident, vm) = parse_repro(&text).expect("parse repro");
    assert_eq!(signature_of(&incident), signature_of(&result.incidents[0]));
    assert_eq!(incident.source, result.incidents[0].source);
    assert_eq!(vm.tv, TvMode::Boundary);

    let triage = |vm: VmConfig| {
        let tcfg = TriageConfig { vm, max_reduce_steps: 50, reruns: 1, retries: 1, jobs: 1 };
        triage_incidents(std::slice::from_ref(&incident), &tcfg, None, None)
    };
    let armed = triage(vm.clone());
    assert_eq!((armed.reports.len(), armed.suppressed.len()), (1, 0), "{}", armed.render());
    let unarmed = triage(vm.with_tv(TvMode::Off));
    assert_eq!((unarmed.reports.len(), unarmed.suppressed.len()), (0, 1), "{}", unarmed.render());
    std::fs::remove_dir_all(&dir).ok();
}
