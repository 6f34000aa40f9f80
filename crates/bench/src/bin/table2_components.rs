//! Table 2 — "Affected JIT compiler components by reported crashes".
//!
//! Classifies the crash bugs found by a campaign per affected component
//! for the HotSpot-like and OpenJ9-like profiles (the paper excludes VMs
//! with fewer than 10 crashes; ART is reported for context here).

#![forbid(unsafe_code)]

use cse_bench::{row, ALL_KINDS};
use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::env;

fn main() {
    let seeds = env::or_exit(env::SEEDS.read()).unwrap_or(400);
    println!("Table 2: crash bugs per affected JIT component");
    println!("({seeds} seeds per VM; counts are crash *occurrences*, dedup in parens)\n");
    for kind in ALL_KINDS {
        let mut config = CampaignConfig::for_kind(kind, seeds);
        env::or_exit(env::apply(&mut config));
        let result = run_campaign(&config);
        println!("--- {kind} ---");
        let widths = [28, 14, 8];
        println!("{}", row(&["Component", "#crashes", "unique"], &widths));
        let mut by_component: std::collections::BTreeMap<_, (usize, usize)> =
            std::collections::BTreeMap::new();
        for evidence in result.bugs.values() {
            if evidence.symptom == cse_vm::Symptom::Crash {
                let entry = by_component.entry(evidence.component).or_insert((0, 0));
                entry.0 += evidence.occurrences;
                entry.1 += 1;
            }
        }
        for (component, (occurrences, unique)) in &by_component {
            println!(
                "{}",
                row(
                    &[&component.to_string(), &occurrences.to_string(), &unique.to_string()],
                    &widths
                )
            );
        }
        let total: usize = by_component.values().map(|(o, _)| o).sum();
        println!("{}\n", row(&["(total)", &total.to_string(), ""], &widths));
    }
}
