//! A minimal timing harness for the `benches/` entry points.
//!
//! The workspace must build with no network access, so the benches cannot
//! depend on criterion. This module provides the small subset the bench
//! files need: warmup, repeated timed runs, and a median-of-samples
//! report in criterion-like layout. Scale sample counts with
//! `CSE_BENCH_SAMPLES` (default 10).

use std::time::{Duration, Instant};

/// Samples per benchmark (override with `CSE_BENCH_SAMPLES`).
pub fn samples() -> usize {
    std::env::var("CSE_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(10).max(1)
}

/// Times `f` repeatedly, prints `name  median ± spread`, and returns the
/// median.
///
/// The return value of `f` is passed through `std::hint::black_box` so
/// the optimizer cannot elide the measured work.
pub fn bench_function<T>(name: &str, mut f: impl FnMut() -> T) -> Duration {
    // One warmup run so lazy statics / first-touch costs don't skew the
    // first sample.
    std::hint::black_box(f());
    let n = samples();
    let mut times: Vec<Duration> = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    let median = times[times.len() / 2];
    let min = times[0];
    let max = times[times.len() - 1];
    println!("{name:<44} {median:>12.2?}   [{min:.2?} .. {max:.2?}] ({n} samples)");
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut runs = 0;
        bench_function("stopwatch/self_test", || {
            runs += 1;
            runs
        });
        // warmup + samples() timed runs.
        assert_eq!(runs, 1 + samples());
    }
}
