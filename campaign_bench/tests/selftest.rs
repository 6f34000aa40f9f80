//! Tiny-size self-test of the benchmark: every workload on two seeds,
//! untraced and traced, must pass its output checks and print every
//! metric with its unit; a failed output check must exit non-zero.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_campaign-bench");
const WORKLOADS: [&str; 4] = ["uniform", "guided", "correct_oracles", "triage"];

/// The eight end-to-end metrics every run prints, with their units.
const PRINTED: [(&str, &str); 8] = [
    ("seeds_per_s", "1/s"),
    ("mutants_per_s", "1/s"),
    ("bug_hits_per_s", "1/s"),
    ("unique_bugs", "count"),
    ("false_alarms", "count"),
    ("success_frac", "frac"),
    ("setup_s", "s"),
    ("vm_runs_per_mutant", "count"),
];

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(workload: &str, trace: bool, seeds: &str, out_dir: &Path) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--first-seed", "0", "--seeds", seeds])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("benchmark binary runs")
}

/// `(name, unit)` of every metric declared under `section` in the
/// repository's BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |object: &str, key: &str| {
        let needle = format!("\"{key}\": \"");
        let at = object.find(&needle).expect("metric field") + needle.len();
        object[at..].split('"').next().unwrap_or_default().to_string()
    };
    body.split('{').skip(1).map(|object| (field(object, "name"), field(object, "unit"))).collect()
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or_default().to_string()
}

/// The unit the JSON result line gives `name`, if it reports it.
fn json_unit(line: &str, name: &str) -> Option<String> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let unit = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    Some(rest[unit..].split('"').next()?.to_string())
}

fn assert_run_reports(workload: &str, trace: bool) {
    let output = run(workload, trace, "2", &out_dir(&format!("{workload}-{trace}")));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = last_line(&output);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    let section = if trace { "per_layer" } else { "end_to_end" };
    for (name, unit) in declared(section) {
        assert_eq!(json_unit(&line, &name).as_deref(), Some(unit.as_str()), "{name} in {line}");
    }
    // The traced run prints every end-to-end metric but `setup_s`, plus
    // every per-layer metric.
    let per_layer = if trace { declared("per_layer") } else { Vec::new() };
    let eight = PRINTED.iter().filter(|(name, _)| !trace || *name != "setup_s");
    for (name, unit) in eight.map(|(n, u)| (n.to_string(), u.to_string())).chain(per_layer) {
        let prefix = format!("metric {workload} {name} ");
        let found =
            stdout.lines().any(|l| l.starts_with(&prefix) && l.ends_with(&format!(" {unit}")));
        assert!(found, "{workload} trace={trace} does not print {name} in {unit}:\n{stdout}");
    }
}

#[test]
fn uniform_reports_every_metric() {
    assert_run_reports("uniform", false);
    assert_run_reports("uniform", true);
}

#[test]
fn guided_reports_every_metric() {
    assert_run_reports("guided", false);
    assert_run_reports("guided", true);
}

#[test]
fn correct_oracles_reports_every_metric() {
    assert_run_reports("correct_oracles", false);
    assert_run_reports("correct_oracles", true);
}

#[test]
fn triage_reports_every_metric() {
    assert_run_reports("triage", false);
    assert_run_reports("triage", true);
}

#[test]
fn workloads_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    for workload in WORKLOADS {
        assert!(text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")), "{workload}");
    }
}

#[test]
fn a_failed_output_check_exits_non_zero() {
    let dir = out_dir("failed-check");
    assert!(run("uniform", false, "1", &dir).status.success());
    // Corrupt the recorded digest: the next run's cross-run digest check
    // must fail.
    let history = dir.join("digests.txt");
    let recorded = std::fs::read_to_string(&history).expect("digest history is written");
    let (key, digest) = recorded.trim_end().rsplit_once(' ').expect("key and digest");
    let flipped = if digest.starts_with('0') { "1" } else { "0" };
    std::fs::write(&history, format!("{key} {flipped}{}\n", &digest[1..])).unwrap();
    let output = run("uniform", false, "1", &dir);
    assert!(!output.status.success(), "a corrupted digest history must fail the run");
    assert!(last_line(&output).starts_with("{\"correct\": false, "), "{}", last_line(&output));
    assert!(String::from_utf8_lossy(&output.stderr).contains("check failed: campaign digest"));
}
