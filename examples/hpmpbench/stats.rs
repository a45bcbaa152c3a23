//! Host-clock helpers: timer calibration, batch timing, order statistics,
//! and peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Calls timed between one pair of `Instant::now()` reads. One read costs
/// tens of nanoseconds, so sub-microsecond work is only ever timed in
/// batches this large.
pub const BATCH: usize = 256;

/// The cost of one `Instant::now()` in ns: the median over 16 runs of
/// 4096 back-to-back reads. Batch timings subtract it once per batch.
pub fn calibrate_timer_ns() -> f64 {
    const READS: u32 = 4096;
    let mut per_read: Vec<f64> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut per_read)
}

/// Timed passes [`best_batches`] makes over the same inputs.
pub const PASSES: usize = 5;

/// Runs `f` over `inputs[..steady_from]` untimed (state warm-up), then over
/// the rest in batches of [`BATCH`], returning each batch's ns with the
/// calibrated timer cost removed.
pub fn time_batches<T>(
    inputs: &[T],
    steady_from: usize,
    timer_ns: f64,
    mut f: impl FnMut(&T),
) -> Vec<f64> {
    inputs[..steady_from].iter().for_each(&mut f);
    inputs[steady_from..]
        .chunks(BATCH)
        .map(|chunk| {
            let t0 = Instant::now();
            chunk.iter().for_each(&mut f);
            (t0.elapsed().as_nanos() as f64 - timer_ns).max(0.0)
        })
        .collect()
}

/// Makes [`PASSES`] passes, each returning per-batch times of the same
/// batches, and sums each batch's fastest time: an estimate of the work's
/// cost with host contention filtered out, comparable to a best window.
pub fn best_batches(mut pass: impl FnMut() -> Vec<f64>) -> f64 {
    let mut best = pass();
    for _ in 1..PASSES {
        for (b, ns) in best.iter_mut().zip(pass()) {
            *b = b.min(ns);
        }
    }
    best.iter().sum()
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// The nearest-rank `p`-quantile (`p` in `[0, 1]`) of `values`; 0 when
/// empty. Sorts in place.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The smallest of `values`, or 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0, so an unexercised layer reads 0
/// instead of NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
