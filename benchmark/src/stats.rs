//! How the benchmark reads a clock on a host that does not hold still:
//! host-speed calibration, medians and percentiles, and the two ways a probe
//! times a call.

use std::collections::BTreeMap;
use std::time::Instant;

/// What [`calibrate`] reads on this host (2.1 GHz Xeon, 2 vCPUs) when the
/// vCPU is left alone.
pub const REFERENCE_NS: f64 = 10_500.0;

/// Nanoseconds a fixed piece of work takes on this thread right now: eight
/// clones of a 16-entry `BTreeMap<String, String>` — allocation, copying and
/// pointer chasing, the mix the store's hot path is made of, and `std` only,
/// so no change to the repo can move it. The fastest of three passes, so that
/// an interrupt or a cold cache is not taken for the host's speed.
pub fn calibrate() -> f64 {
    thread_local! {
        static MAP: BTreeMap<String, String> =
            (0..16).map(|i| (format!("k{i}"), format!("u{i:06}_w9_000000"))).collect();
    }
    MAP.with(|map| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..8 {
                    std::hint::black_box(map.clone());
                }
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// The factor that turns a time measured between two [`calibrate`] readings
/// into the time it would have taken on an undisturbed vCPU.
///
/// This shared host runs each vCPU at one of two speeds, about 1.5x apart,
/// and switches between them every few seconds — or stays in one for an
/// hour (two independent spin loops show the same; nothing else runs in the
/// VM). No median, quartile or minimum of raw times is steady under that:
/// each follows whichever speed was commoner during the run. So every timed
/// stretch of tens of milliseconds is bracketed by two readings and scaled by
/// `REFERENCE_NS / their mean`. A reading is ~30 us, and it is the same code
/// on parent and change, so it cannot favour either.
pub fn host_speed(before: f64, after: f64) -> f64 {
    REFERENCE_NS / ((before + after) / 2.0)
}

/// Run `f`; return its value and how long it took in reference nanoseconds
/// (wall-clock time scaled by [`host_speed`]).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = calibrate();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    (out, ns * host_speed(before, calibrate()))
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice, which callers report as "no sample".
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of ascending `sorted`, or `None` unless at least ten
/// samples lie beyond it on both sides: a percentile with fewer is one
/// scheduler hiccup, not a property of the program.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    let n = sorted.len();
    let idx = ((n as f64) * q) as usize;
    if idx < 10 || n < idx + 11 {
        return None;
    }
    Some(sorted[idx])
}

/// Reference nanoseconds per call of `f`: the median of 15 blocks, each
/// sized to run for about half a millisecond. For calls that leave no state
/// behind.
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut block = |iters: u64| {
        timed(|| {
            for _ in 0..iters {
                f();
            }
        })
        .1
    };
    let mut iters = 1u64;
    while iters < 1 << 20 && block(iters) < 500_000.0 {
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..15).map(|_| block(iters) / iters as f64).collect();
    median(&per_call)
}

/// Reference nanoseconds per call of `op`: the median of 201 calls timed one
/// by one, with an untimed `reset` before each. For calls whose cost depends
/// on state they change (a log that grows).
pub fn time_each_ns(mut reset: impl FnMut(), mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            reset();
            timed(&mut op).1
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        // p99 of 1000: index 990, nine samples beyond it — one short.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u32> = (0..1100).collect();
        assert_eq!(percentile(&v, 0.99), Some(1089));
        // The rule is symmetric: a median of 20 samples is not a median.
        let v: Vec<u32> = (0..20).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<u32> = (0..21).collect();
        assert_eq!(percentile(&v, 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_slow_host_scales_times_down_and_a_reference_host_not_at_all() {
        assert_eq!(host_speed(REFERENCE_NS, REFERENCE_NS), 1.0);
        // Readings 1.5x the reference: 150 ns measured were 100 ns of work.
        let speed = host_speed(1.4 * REFERENCE_NS, 1.6 * REFERENCE_NS);
        assert!((150.0 * speed - 100.0).abs() < 1e-9);
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn timers_return_positive_per_call_costs() {
        let mut x = 0u64;
        assert!(time_ns(|| x = std::hint::black_box(x + 1)) > 0.0);
        let mut resets = 0;
        assert!(time_each_ns(|| resets += 1, || {}) >= 0.0);
        assert_eq!(resets, 201);
        let ((), ns) = timed(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(ns > 0.0);
    }
}
