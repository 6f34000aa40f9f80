//! Coverage smoke driver: runs one campaign under the `CSE_COVERAGE`
//! policy and reports the merged JIT-behavior coverage.
//!
//! ```text
//! coverage [kind]                    # default: hotspot
//! ```
//!
//! Environment:
//! * `CSE_COVERAGE` — `off|collect|guide` (the knob under test)
//! * `CSE_SEEDS`    — campaign seed budget (default 12)
//! * `CSE_JOBS`     — worker threads (default 1)
//! * `CSE_VERIFY_IR`, `CSE_TV`, `CSE_EXEC_CACHE` — as for every campaign
//!   binary (see `cse_core::env`)
//!
//! Output is line-oriented for scripting (`ci.sh` asserts on it):
//! `cells N` is the merged global map's covered-cell count, `corpus N`
//! the minimized live corpus size, `digest X` the campaign digest.

use std::process::ExitCode;

use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::core::env;
use artemis_cse::vm::VmKind;

fn main() -> ExitCode {
    let kind = match std::env::args().nth(1).as_deref() {
        None | Some("hotspot") => VmKind::HotSpotLike,
        Some("openj9") => VmKind::OpenJ9Like,
        Some("art") => VmKind::ArtLike,
        Some(other) => {
            eprintln!("coverage: unknown VM kind `{other}` (want hotspot|openj9|art)");
            return ExitCode::FAILURE;
        }
    };
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(12);
    let jobs = env::or_exit(env::JOBS.read()).unwrap_or(1);
    let mut config = CampaignConfig::for_kind(kind, seeds).with_jobs(jobs);
    env::or_exit(env::apply(&mut config));
    let result = run_campaign(&config);

    println!("kind {kind:?}");
    println!("seeds {}", result.totals.seeds);
    println!("mutants {}", result.totals.mutants);
    println!("bugs {}", result.bugs.len());
    println!("digest {:016x}", result.digest(&config));
    match &result.coverage {
        Some(state) => {
            println!("cells {}", state.cells());
            println!("corpus {}", state.corpus.len());
            println!("execs {}", state.execs);
            let per_1k = if state.execs == 0 {
                0.0
            } else {
                f64::from(state.cells()) * 1000.0 / state.execs as f64
            };
            println!("cells_per_1k_execs {per_1k:.2}");
            for (i, name) in ["baseline", "force_top", "force_t1"].iter().enumerate() {
                println!(
                    "variant {name} runs {} new_cells {}",
                    state.variant_runs[i], state.variant_new[i]
                );
            }
        }
        None => println!("cells 0"),
    }
    ExitCode::SUCCESS
}
