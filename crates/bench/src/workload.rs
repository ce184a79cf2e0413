//! The open-loop workload generator behind `txfix kv`.
//!
//! Stateless and seeded: op `i` of worker `w` under seed `s` is a pure
//! function of `(s, w, i)` and the config, so any slice of the stream
//! can be regenerated anywhere — the property the determinism harness
//! and the oracle tests lean on. The ingredients:
//!
//! * **Zipfian keys** with tunable `theta` ([`Zipfian`]), computed with
//!   the crate-local deterministic `ln`/`exp` (plain IEEE adds and
//!   multiplies only — no libm, so the sampled stream is bit-identical
//!   across platforms);
//! * **mixed op ratios** ([`Mix`], `get:put:delete:scan` weights);
//! * **bursty phases**: the first [`WorkloadCfg::burst_len`] ops of
//!   every [`WorkloadCfg::burst_period`] form a burst that skews hotter
//!   (higher effective theta) and more write-heavy;
//! * **a simulated-user session model**: ops belong to sessions of
//!   [`WorkloadCfg::session_len`] consecutive ops; each session is
//!   hashed to one of [`WorkloadCfg::users`] logical users (scaling to
//!   millions of users costs nothing — there is no per-user state), and
//!   a slice of each session's ops revisits that user's home key.

use txfix_stm::chaos::splitmix64;

// ---- deterministic float math --------------------------------------------
//
// `f64::powf` goes through libm, whose results differ across libc
// implementations. The Zipfian table must not: these `ln`/`exp` use only
// IEEE-exact operations (+, -, *, /, bit twiddling), which round
// identically on every conforming platform.

const LN_2: f64 = std::f64::consts::LN_2;

/// Natural log for finite `x > 0`, via exponent split plus the atanh
/// series on the mantissa.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mantissa = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    // ln(m) = 2 atanh((m-1)/(m+1)); |t| <= 1/3 on m in [1, 2).
    let t = (mantissa - 1.0) / (mantissa + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 0u32;
    loop {
        let add = term / (2 * k + 1) as f64;
        sum += add;
        if add.abs() < 1e-18 {
            break;
        }
        term *= t2;
        k += 1;
    }
    exp as f64 * LN_2 + 2.0 * sum
}

/// `e^y` for moderate `y`, via power-of-two range reduction plus the
/// Taylor series.
fn det_exp(y: f64) -> f64 {
    debug_assert!(y.is_finite() && y.abs() < 700.0);
    let k = (y / LN_2).round();
    let r = y - k * LN_2;
    let mut term = 1.0;
    let mut sum = 1.0;
    let mut n = 1u32;
    loop {
        term *= r / n as f64;
        sum += term;
        if term.abs() < 1e-18 {
            break;
        }
        n += 1;
    }
    // 2^k assembled from bits (k is small here: |y| < 700 ⇒ |k| < 1011).
    sum * f64::from_bits(((1023 + k as i64) as u64) << 52)
}

/// `x^p` for `x > 0`.
fn det_pow(x: f64, p: f64) -> f64 {
    if p == 0.0 {
        1.0
    } else {
        det_exp(p * det_ln(x))
    }
}

fn unit(x: u64) -> f64 {
    // 53 high bits → [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---- Zipfian --------------------------------------------------------------

/// A Zipfian sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `(r+1)^-theta`. `theta = 0` is uniform;
/// higher theta is more skewed.
pub struct Zipfian {
    cdf: Vec<f64>,
}

impl Zipfian {
    /// Precompute the CDF for `n` ranks at skew `theta`.
    pub fn new(n: usize, theta: f64) -> Zipfian {
        assert!(n >= 1 && (0.0..=8.0).contains(&theta), "unreasonable zipfian shape");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / det_pow((r + 1) as f64, theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipfian { cdf }
    }

    /// The rank for a uniform draw `u01` in `[0, 1)`.
    pub fn sample(&self, u01: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u01).min(self.cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Never empty (n >= 1).
    pub fn is_empty(&self) -> bool {
        false
    }
}

// ---- mix ------------------------------------------------------------------

/// Relative op weights, `get:put:delete:scan`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Weight of point reads.
    pub get: u32,
    /// Weight of puts.
    pub put: u32,
    /// Weight of deletes.
    pub delete: u32,
    /// Weight of whole-shard scans.
    pub scan: u32,
}

impl Default for Mix {
    fn default() -> Mix {
        Mix { get: 80, put: 15, delete: 3, scan: 2 }
    }
}

impl Mix {
    /// The weights as `"get:put:delete:scan"`, e.g. `"80:15:3:2"`.
    pub fn name(&self) -> String {
        format!("{}:{}:{}:{}", self.get, self.put, self.delete, self.scan)
    }

    fn total(&self) -> u64 {
        (self.get + self.put + self.delete + self.scan) as u64
    }

    /// The burst-phase variant: writes weigh triple.
    fn burst(&self) -> Mix {
        Mix { get: self.get, put: self.put * 3, delete: self.delete * 3, scan: self.scan }
    }
}

// ---- the generator --------------------------------------------------------

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Key-space size (key `k<rank>`; rank 0 is hottest).
    pub keys: u64,
    /// Logical user population sessions hash into.
    pub users: u64,
    /// Zipfian skew over keys.
    pub theta: f64,
    /// Op-type weights.
    pub mix: Mix,
    /// Consecutive ops per user session.
    pub session_len: u64,
    /// Ops per burst cycle.
    pub burst_period: u64,
    /// Burst ops at the head of each cycle (hotter and write-heavier).
    pub burst_len: u64,
}

impl Default for WorkloadCfg {
    fn default() -> WorkloadCfg {
        WorkloadCfg {
            keys: 256,
            users: 1_000_000,
            theta: 0.9,
            mix: Mix::default(),
            session_len: 8,
            burst_period: 64,
            burst_len: 16,
        }
    }
}

/// One generated op. `Scan` carries a draw the driver maps onto a shard
/// (the generator does not know the shard count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Point read.
    Get(String),
    /// Put; the value encodes user, worker and index, so lost updates
    /// are attributable.
    Put(String, String),
    /// Delete.
    Delete(String),
    /// Whole-shard scan; the driver picks shard `draw % shards`.
    Scan(u64),
}

/// The seeded open-loop generator.
pub struct Workload {
    cfg: WorkloadCfg,
    zipf: Zipfian,
    zipf_burst: Zipfian,
    mix_burst: Mix,
}

impl Workload {
    /// Precompute the samplers for `cfg`.
    pub fn new(cfg: WorkloadCfg) -> Workload {
        assert!(cfg.keys >= 1 && cfg.users >= 1 && cfg.session_len >= 1);
        assert!(cfg.burst_period >= 1 && cfg.burst_len <= cfg.burst_period);
        Workload {
            cfg,
            zipf: Zipfian::new(cfg.keys as usize, cfg.theta),
            // Bursts concentrate: effectively hotter keyspace.
            zipf_burst: Zipfian::new(cfg.keys as usize, cfg.theta + 0.4),
            mix_burst: cfg.mix.burst(),
        }
    }

    /// The config in force.
    pub fn cfg(&self) -> &WorkloadCfg {
        &self.cfg
    }

    /// Whether op `i` of any worker falls in a burst phase.
    pub fn in_burst(&self, i: u64) -> bool {
        i % self.cfg.burst_period < self.cfg.burst_len
    }

    /// The logical user behind op `i` of `worker` under `seed`.
    pub fn user_of(&self, seed: u64, worker: u64, i: u64) -> u64 {
        let session = i / self.cfg.session_len;
        splitmix64(seed ^ splitmix64(worker.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ session))
            % self.cfg.users
    }

    /// Op `i` of `worker` under `seed` — pure in all three.
    pub fn op(&self, seed: u64, worker: u64, i: u64) -> WorkloadOp {
        let h = splitmix64(
            seed ^ splitmix64(
                worker.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
            ),
        );
        let burst = self.in_burst(i);
        let mix = if burst { &self.mix_burst } else { &self.cfg.mix };
        let user = self.user_of(seed, worker, i);
        // Key choice: mostly Zipfian (hotter during bursts); one op in
        // four revisits the session user's home key.
        let rank = if splitmix64(h ^ 0x005E_5510).is_multiple_of(4) {
            splitmix64(user ^ 0x40FE) % self.cfg.keys
        } else {
            let u01 = unit(splitmix64(h ^ 0x21BF));
            let z = if burst { &self.zipf_burst } else { &self.zipf };
            z.sample(u01) as u64
        };
        let key = format!("k{rank}");
        let mut roll = splitmix64(h ^ 0x3015) % mix.total();
        if roll < mix.get as u64 {
            return WorkloadOp::Get(key);
        }
        roll -= mix.get as u64;
        if roll < mix.put as u64 {
            return WorkloadOp::Put(key, format!("u{user}_w{worker}_{i}"));
        }
        roll -= mix.put as u64;
        if roll < mix.delete as u64 {
            return WorkloadOp::Delete(key);
        }
        WorkloadOp::Scan(splitmix64(h ^ 0x5CA2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_math_matches_libm_closely() {
        for x in [1.0e-6, 0.3, 1.0, 2.0, 10.0, 12345.678] {
            assert!((det_ln(x) - x.ln()).abs() <= 1e-12 * x.ln().abs().max(1.0), "{x}");
        }
        for y in [-20.0, -1.0, 0.0, 0.5, 1.0, 30.0] {
            assert!((det_exp(y) - y.exp()).abs() <= 1e-12 * y.exp(), "{y}");
        }
        assert_eq!(det_pow(7.0, 0.0), 1.0);
        assert!((det_pow(2.0, 10.0) - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn zipfian_theta_zero_is_uniform_and_cdf_is_monotone() {
        let z = Zipfian::new(16, 0.0);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999), 15);
        assert_eq!(z.sample(0.5), 8);
        let z = Zipfian::new(64, 1.2);
        let mut last = 0;
        for i in 0..1000 {
            let r = z.sample(i as f64 / 1000.0);
            assert!(r >= last, "cdf sampling must be monotone");
            last = r;
        }
    }
}
