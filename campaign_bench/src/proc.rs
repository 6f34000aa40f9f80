//! Process counters from `/proc/self` and the order statistics the
//! benchmark reports, using only the standard library.

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU-seconds of the whole process (every thread,
/// exited ones included), or 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // `comm` (field 2) may hold spaces; fields after its closing paren
    // start at `state` (field 3), so utime/stime (14/15) are at 11/12.
    let Some(after_comm) = stat.rfind(')').map(|at| &stat[at + 1..]) else { return 0.0 };
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
