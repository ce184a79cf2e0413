//! Workload-generator properties: Zipfian skew tracks theta, the stream
//! is a pure function of `(seed, worker, i)`, and the op mix honours the
//! configured ratios (including the burst-phase reweighting).

use proptest::prelude::*;
use txfix_bench::workload::{Workload, WorkloadCfg, WorkloadOp, Zipfian};
use txfix_stm::chaos::splitmix64;

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The analytic probability of rank `r` under `(n, theta)`.
fn analytic(n: usize, theta: f64, r: usize) -> f64 {
    let w = |r: usize| 1.0 / ((r + 1) as f64).powf(theta);
    let total: f64 = (0..n).map(w).sum();
    w(r) / total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empirical rank frequencies track the analytic Zipfian pmf for the
    /// configured theta, across seeds and skews.
    #[test]
    fn zipfian_rank_frequency_tracks_theta(
        seed in any::<u64>(),
        theta_milli in 0u64..1401,
    ) {
        let theta = theta_milli as f64 / 1000.0;
        let n = 32;
        let z = Zipfian::new(n, theta);
        let samples = 8000u64;
        let mut counts = vec![0u64; n];
        let mut state = splitmix64(seed);
        for _ in 0..samples {
            state = splitmix64(state);
            counts[z.sample(unit(state))] += 1;
        }
        // Head rank and the top-quartile mass both within sampling noise
        // of the analytic values (std err ~0.005 at these sizes).
        let head = counts[0] as f64 / samples as f64;
        prop_assert!(
            (head - analytic(n, theta, 0)).abs() < 0.03,
            "rank-0 frequency {head} vs analytic {}", analytic(n, theta, 0)
        );
        let top: f64 = counts[..n / 4].iter().sum::<u64>() as f64 / samples as f64;
        let top_want: f64 = (0..n / 4).map(|r| analytic(n, theta, r)).sum();
        prop_assert!((top - top_want).abs() < 0.03, "top-quartile {top} vs {top_want}");
        // Higher theta concentrates: the head must not be *less* likely
        // than uniform by more than noise.
        prop_assert!(head + 0.03 >= 1.0 / n as f64);
    }

    /// Same `(seed, worker, i)` always yields the same op; a different
    /// seed yields a different stream.
    #[test]
    fn workload_stream_is_deterministic(seed in any::<u64>()) {
        let a = Workload::new(WorkloadCfg::default());
        let b = Workload::new(WorkloadCfg::default());
        let stream =
            |w: &Workload, s: u64| (0..3).flat_map(|wk| (0..200).map(move |i| (wk, i)))
                .map(|(wk, i)| w.op(s, wk, i)).collect::<Vec<_>>();
        prop_assert_eq!(stream(&a, seed), stream(&b, seed));
        prop_assert_ne!(stream(&a, seed), stream(&a, seed ^ 1));
    }
}

fn kind_counts(wl: &Workload, seed: u64, n: u64) -> [f64; 4] {
    let mut c = [0u64; 4];
    for w in 0..4 {
        for i in 0..n {
            match wl.op(seed, w, i) {
                WorkloadOp::Get(_) => c[0] += 1,
                WorkloadOp::Put(..) => c[1] += 1,
                WorkloadOp::Delete(_) => c[2] += 1,
                WorkloadOp::Scan(_) => c[3] += 1,
            }
        }
    }
    let total = (4 * n) as f64;
    c.map(|x| x as f64 / total)
}

#[test]
fn mix_ratios_are_honoured_without_bursts() {
    let cfg = WorkloadCfg { burst_len: 0, ..WorkloadCfg::default() };
    let wl = Workload::new(cfg);
    let got = kind_counts(&wl, 0xA11CE, 5000);
    let m = cfg.mix;
    let total = (m.get + m.put + m.delete + m.scan) as f64;
    for (i, w) in [m.get, m.put, m.delete, m.scan].iter().enumerate() {
        let want = *w as f64 / total;
        assert!(
            (got[i] - want).abs() < 0.015,
            "op kind {i}: frequency {} vs configured {want}",
            got[i]
        );
    }
}

#[test]
fn burst_phases_blend_the_mix_as_configured() {
    // With bursts on, the expected blend is the per-phase mix weighted by
    // time spent in each phase (burst triples write weights).
    let cfg = WorkloadCfg::default();
    let wl = Workload::new(cfg);
    let got = kind_counts(&wl, 0xB00 + 7, 6400);
    let frac_burst = cfg.burst_len as f64 / cfg.burst_period as f64;
    let expect = |quiet: u32, burst: u32, quiet_total: f64, burst_total: f64| {
        (1.0 - frac_burst) * quiet as f64 / quiet_total + frac_burst * burst as f64 / burst_total
    };
    let m = cfg.mix;
    let quiet_total = (m.get + m.put + m.delete + m.scan) as f64;
    let burst_total = (m.get + 3 * m.put + 3 * m.delete + m.scan) as f64;
    let cases = [(m.get, m.get), (m.put, 3 * m.put), (m.delete, 3 * m.delete), (m.scan, m.scan)];
    for (i, (q, b)) in cases.iter().enumerate() {
        let want = expect(*q, *b, quiet_total, burst_total);
        assert!(
            (got[i] - want).abs() < 0.015,
            "op kind {i}: frequency {} vs blended expectation {want}",
            got[i]
        );
    }
}

#[test]
fn sessions_hash_into_the_user_population() {
    let cfg = WorkloadCfg { users: 10, ..WorkloadCfg::default() };
    let wl = Workload::new(cfg);
    // All ops of one session map to one user; sessions spread over users.
    let mut seen = std::collections::BTreeSet::new();
    for session in 0..50u64 {
        let i0 = session * cfg.session_len;
        let u = wl.user_of(1, 0, i0);
        assert!(u < cfg.users);
        for k in 1..cfg.session_len {
            assert_eq!(wl.user_of(1, 0, i0 + k), u, "session must keep its user");
        }
        seen.insert(u);
    }
    assert!(seen.len() >= 5, "50 sessions over 10 users must hit several users");
}
