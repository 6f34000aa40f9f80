//! The `CSE_*` environment knobs of the command-line binaries, parsed in
//! one place.
//!
//! The library crates never read the environment: a VM run is a function
//! of its `VmConfig` and a campaign of its [`CampaignConfig`]. A binary
//! that exposes a knob reads it here, from `main`, and applies it to the
//! config it builds. A malformed value is an error naming the variable
//! and its accepted values; binaries exit on it (see [`or_exit`]) instead
//! of running with a silently different setting. The README's knob table
//! lists which binary reads which knob.

use std::path::PathBuf;
use std::time::Duration;

use cse_vm::{TvMode, VerifyMode};

use crate::campaign::CampaignConfig;
use crate::coverage::CoveragePolicy;
use crate::memo::ExecCachePolicy;
use crate::supervisor::{ChaosConfig, SupervisorConfig};

/// One environment knob: its variable, the accepted values (for error
/// messages), and a pure parser.
pub struct Knob<T> {
    var: &'static str,
    accepted: &'static str,
    parser: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    /// Parses `value` as this knob's setting; the error names the
    /// variable and its accepted values.
    pub fn parse(&self, value: &str) -> Result<T, String> {
        (self.parser)(value).ok_or_else(|| self.error(value))
    }

    /// Reads the knob from the process environment; `Ok(None)` when the
    /// variable is unset.
    pub fn read(&self) -> Result<Option<T>, String> {
        match std::env::var_os(self.var) {
            None => Ok(None),
            Some(raw) => match raw.to_str() {
                Some(value) => self.parse(value).map(Some),
                None => Err(self.error(&raw.to_string_lossy())),
            },
        }
    }

    fn error(&self, value: &str) -> String {
        format!("{}={value:?} is not valid; accepted values: {}", self.var, self.accepted)
    }
}

const COUNT: &str = "a non-negative integer";

pub const SEEDS: Knob<u64> = Knob { var: "CSE_SEEDS", accepted: COUNT, parser: count };
pub const JOBS: Knob<usize> = Knob { var: "CSE_JOBS", accepted: COUNT, parser: count };
pub const DEADLINE_SECS: Knob<u64> =
    Knob { var: "CSE_DEADLINE_SECS", accepted: COUNT, parser: count };
pub const CHECKPOINT_DIR: Knob<PathBuf> =
    Knob { var: "CSE_CHECKPOINT_DIR", accepted: "a directory", parser: path };
pub const QUARANTINE_DIR: Knob<PathBuf> =
    Knob { var: "CSE_QUARANTINE_DIR", accepted: "a directory", parser: path };
pub const TRIAGE_STEPS: Knob<usize> =
    Knob { var: "CSE_TRIAGE_STEPS", accepted: COUNT, parser: count };
pub const TRIAGE_RERUNS: Knob<usize> =
    Knob { var: "CSE_TRIAGE_RERUNS", accepted: COUNT, parser: count };
pub const TRIAGE_CHAOS: Knob<ChaosConfig> =
    Knob { var: "CSE_TRIAGE_CHAOS", accepted: "seed,after_ops", parser: chaos };
pub const VERIFY_IR: Knob<VerifyMode> =
    Knob { var: "CSE_VERIFY_IR", accepted: "off, boundary, each", parser: verify_mode };
pub const TV: Knob<TvMode> =
    Knob { var: "CSE_TV", accepted: "off, boundary, each", parser: tv_mode };
pub const EXEC_CACHE: Knob<ExecCachePolicy> =
    Knob { var: "CSE_EXEC_CACHE", accepted: "on (1), off (0), check", parser: exec_cache };
pub const COVERAGE: Knob<CoveragePolicy> =
    Knob { var: "CSE_COVERAGE", accepted: "off, collect, guide", parser: coverage };

fn count<T: std::str::FromStr>(value: &str) -> Option<T> {
    value.parse().ok()
}

fn chaos(value: &str) -> Option<ChaosConfig> {
    let (seed, ops) = value.split_once(',')?;
    Some(ChaosConfig { panic_on_seed: seed.parse().ok()?, after_ops: ops.parse().ok()? })
}

fn path(value: &str) -> Option<PathBuf> {
    Some(PathBuf::from(value))
}

fn verify_mode(value: &str) -> Option<VerifyMode> {
    match value {
        "" | "off" => Some(VerifyMode::Off),
        "boundary" => Some(VerifyMode::Boundary),
        "each" => Some(VerifyMode::Each),
        _ => None,
    }
}

fn tv_mode(value: &str) -> Option<TvMode> {
    match value {
        "" | "off" => Some(TvMode::Off),
        "boundary" => Some(TvMode::Boundary),
        "each" => Some(TvMode::Each),
        _ => None,
    }
}

fn exec_cache(value: &str) -> Option<ExecCachePolicy> {
    match value {
        "" | "1" | "on" => Some(ExecCachePolicy::On),
        "0" | "off" => Some(ExecCachePolicy::Off),
        "check" => Some(ExecCachePolicy::Check),
        _ => None,
    }
}

fn coverage(value: &str) -> Option<CoveragePolicy> {
    match value {
        "" | "off" => Some(CoveragePolicy::Off),
        "collect" => Some(CoveragePolicy::Collect),
        "guide" => Some(CoveragePolicy::Guide),
        _ => None,
    }
}

/// Applies the oracle and policy knobs (`CSE_VERIFY_IR`, `CSE_TV`,
/// `CSE_EXEC_CACHE`, `CSE_COVERAGE`) that are set to `config`; unset
/// knobs leave its fields alone.
pub fn apply(config: &mut CampaignConfig) -> Result<(), String> {
    if let Some(mode) = VERIFY_IR.read()? {
        config.vm.verify_ir = mode;
    }
    if let Some(mode) = TV.read()? {
        config.vm.tv = mode;
    }
    if let Some(policy) = EXEC_CACHE.read()? {
        config.exec_cache = policy;
    }
    if let Some(policy) = COVERAGE.read()? {
        config.coverage = policy;
    }
    Ok(())
}

/// Supervision settings for one VM profile's campaign:
/// `CSE_CHECKPOINT_DIR` (a checkpoint per profile every 16 seeds, resumed
/// on restart), `CSE_QUARANTINE_DIR` (repro files, one subdirectory per
/// profile) and `CSE_DEADLINE_SECS` (wall-clock budget; an expired
/// campaign reports partial totals and resumes from its checkpoint).
pub fn supervisor(profile: &str) -> Result<SupervisorConfig, String> {
    let mut sup = SupervisorConfig::default();
    if let Some(dir) = CHECKPOINT_DIR.read()? {
        sup.checkpoint_path = Some(dir.join(format!("{profile}.checkpoint")));
        sup.checkpoint_every = 16;
    }
    if let Some(dir) = QUARANTINE_DIR.read()? {
        sup.quarantine_dir = Some(dir.join(profile));
    }
    sup.deadline = DEADLINE_SECS.read()?.map(Duration::from_secs);
    Ok(sup)
}

/// Unwraps a knob result in a binary's `main`: on an error, prints it and
/// exits with status 2.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_modes_accept_todays_spellings() {
        for (value, mode) in [
            ("off", VerifyMode::Off),
            ("", VerifyMode::Off),
            ("boundary", VerifyMode::Boundary),
            ("each", VerifyMode::Each),
        ] {
            assert_eq!(VERIFY_IR.parse(value), Ok(mode), "CSE_VERIFY_IR={value:?}");
        }
        for (value, mode) in [
            ("off", TvMode::Off),
            ("", TvMode::Off),
            ("boundary", TvMode::Boundary),
            ("each", TvMode::Each),
        ] {
            assert_eq!(TV.parse(value), Ok(mode), "CSE_TV={value:?}");
        }
    }

    #[test]
    fn policies_accept_todays_spellings() {
        for (value, policy) in [
            ("0", ExecCachePolicy::Off),
            ("off", ExecCachePolicy::Off),
            ("1", ExecCachePolicy::On),
            ("on", ExecCachePolicy::On),
            ("", ExecCachePolicy::On),
            ("check", ExecCachePolicy::Check),
        ] {
            assert_eq!(EXEC_CACHE.parse(value), Ok(policy), "CSE_EXEC_CACHE={value:?}");
        }
        for (value, policy) in [
            ("off", CoveragePolicy::Off),
            ("", CoveragePolicy::Off),
            ("collect", CoveragePolicy::Collect),
            ("guide", CoveragePolicy::Guide),
        ] {
            assert_eq!(COVERAGE.parse(value), Ok(policy), "CSE_COVERAGE={value:?}");
        }
    }

    #[test]
    fn numbers_and_paths_parse() {
        assert_eq!(SEEDS.parse("48"), Ok(48));
        assert_eq!(JOBS.parse("4"), Ok(4));
        assert_eq!(DEADLINE_SECS.parse("3"), Ok(3));
        assert_eq!(CHECKPOINT_DIR.parse("/tmp/ck"), Ok(PathBuf::from("/tmp/ck")));
        assert_eq!(QUARANTINE_DIR.parse("q"), Ok(PathBuf::from("q")));
        assert_eq!(TRIAGE_STEPS.parse("200"), Ok(200));
        assert_eq!(TRIAGE_RERUNS.parse("2"), Ok(2));
        let chaos = TRIAGE_CHAOS.parse("2,1000").unwrap();
        assert_eq!((chaos.panic_on_seed, chaos.after_ops), (2, 1000));
    }

    #[test]
    fn malformed_values_are_rejected_with_the_variable_and_accepted_values() {
        let message = TV.parse("eahc").unwrap_err();
        assert_eq!(message, "CSE_TV=\"eahc\" is not valid; accepted values: off, boundary, each");
        assert!(VERIFY_IR.parse("Each").is_err());
        assert!(EXEC_CACHE.parse("yes").is_err());
        assert!(COVERAGE.parse("guided").is_err());
        assert!(SEEDS.parse("12k").is_err());
        assert!(JOBS.parse("-1").is_err());
        assert!(DEADLINE_SECS.parse("3s").is_err());
        assert!(TRIAGE_STEPS.parse("many").is_err());
        assert!(TRIAGE_RERUNS.parse("").is_err());
        assert!(TRIAGE_CHAOS.parse("2").is_err());
        assert_eq!(
            JOBS.parse("four"),
            Err(format!("CSE_JOBS=\"four\" is not valid; accepted values: {COUNT}"))
        );
    }
}
