//! Per-site runtime observability: the metrics layer behind `txfix stress`.
//!
//! The runtime's one counter registry: it answers "how much did the
//! runtime do" and "*which* atomic block paid for it" from the same slots.
//! Every transaction can carry a [`SiteId`] — a static label interned
//! once per call site (`Txn::build().site("apache_i")`) — and the runtime
//! attributes commits, aborts split by cause, attempt and latency
//! histograms, backoff time, irrevocable entries, revocable-lock traffic
//! and x-call counts to that site. A global registry holds one fixed slot
//! of atomics per site, so recording is lock-free; [`snapshot`] copies the
//! registry into a plain [`ObsSnapshot`] with counter-wise
//! [`delta`](ObsSnapshot::delta) semantics.
//!
//! ## Cost when disabled
//!
//! The layer is **off by default** and follows the [`hooks`] contract:
//! every hook begins with a single relaxed load of the arming word's
//! [`OBS`] bit and returns immediately when it is clear. No timestamps are taken, no
//! thread-locals touched, no buckets computed. The `stm_overhead` criterion
//! bench keeps this honest (within 5% of the pre-metrics baseline).
//!
//! ## Histograms
//!
//! Attempt counts and commit latencies are recorded into fixed log₂-bucket
//! histograms: value `v` lands in the bucket of its bit length, so bucket
//! `i` covers `[2^(i-1), 2^i)` (bucket 0 holds zero). Percentiles
//! ([`HistogramSnapshot::percentile`]) are estimated as the midpoint of the
//! bucket containing the requested rank — exact enough to separate a 2 µs
//! commit from a 2 ms one, which is what the stress driver needs.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ConflictKind;
use crate::hooks::{self, OBS};

/// Number of per-site slots in the static registry. Interning more sites
/// than this folds the excess into the unattributed slot 0 (no panic, no
/// allocation on the hot path).
pub const MAX_SITES: usize = 64;

/// Number of log₂ buckets in each histogram. Bucket `i` covers values of
/// bit length `i`, so 64 buckets cover the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Identity of one static transaction call site.
///
/// Obtained from [`intern`]; `SiteId::UNATTRIBUTED` (slot 0) is the
/// default for transactions built without [`site`](crate::TxnBuilder::site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub(crate) u32);

impl SiteId {
    /// The catch-all site for transactions without an explicit label.
    pub const UNATTRIBUTED: SiteId = SiteId(0);

    /// The registry slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Intern `name`, returning the same [`SiteId`] for the same name every
/// time. Names are expected to be static string literals at `atomic` call
/// sites; interning takes a registry lock and is not meant for hot paths:
/// [`TxnBuilder::site`](crate::TxnBuilder::site) calls it every time, so
/// build a site's `TxnBuilder` once, keep it, and `run` it per operation.
pub fn intern(name: &'static str) -> SiteId {
    let mut names = NAMES.lock();
    ensure_slot0(&mut names);
    if let Some(i) = names.iter().position(|n| *n == name) {
        return SiteId(i as u32);
    }
    if names.len() >= MAX_SITES {
        return SiteId::UNATTRIBUTED;
    }
    names.push(name);
    SiteId((names.len() - 1) as u32)
}

fn ensure_slot0(names: &mut Vec<&'static str>) {
    if names.is_empty() {
        names.push("(unattributed)");
    }
}

/// The registered name of `site` (`"(unattributed)"` for slot 0).
pub fn site_name(site: SiteId) -> &'static str {
    NAMES.lock().get(site.index()).copied().unwrap_or("(unattributed)")
}

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn registered_sites() -> usize {
    let names = NAMES.lock();
    names.len().max(1)
}

// ---- the enable gate ------------------------------------------------------

// `enable`/`disable` are the one arming path that bypasses the
// `hooks::arm` guard: the stress driver and the benchmark turn metrics on
// for a whole process, which must not hold the arming lock. A test that
// needs metrics on and must not overlap an armed one takes `arm(OBS)`.

/// Turn metrics recording on, process-wide (sets the [`OBS`] bit).
pub fn enable() {
    ensure_slot0(&mut NAMES.lock());
    hooks::set(OBS);
}

/// Turn metrics recording off. Already-accumulated counters are kept.
pub fn disable() {
    hooks::clear(OBS);
}

/// Zero every counter and histogram. Site names stay interned (ids remain
/// valid).
pub fn reset() {
    for slot in SITES.iter() {
        slot.reset();
    }
}

// ---- per-site slots -------------------------------------------------------

/// One histogram of fixed log₂ buckets.
struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    const fn new() -> Histogram {
        Histogram { buckets: [ZERO; HIST_BUCKETS] }
    }

    #[inline]
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The log₂ bucket a value lands in: its bit length (zero → bucket 0).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Occupancy per log₂ bucket (see [`bucket_index`]).
    pub counts: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { counts: [0; HIST_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the midpoint of the
    /// bucket containing that rank, or 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = bucket_floor(i);
                let hi = if i == 0 { 0 } else { bucket_floor(i + 1).saturating_sub(1) };
                return lo + (hi - lo) / 2;
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }

    /// Bucket-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        HistogramSnapshot { counts }
    }
}

macro_rules! site_counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        struct SiteSlot {
            $($name: AtomicU64,)+
            attempts: Histogram,
            latency_ns: Histogram,
        }

        impl SiteSlot {
            const fn new() -> SiteSlot {
                SiteSlot {
                    $($name: AtomicU64::new(0),)+
                    attempts: Histogram::new(),
                    latency_ns: Histogram::new(),
                }
            }

            fn snapshot(&self, site: SiteId) -> SiteSnapshot {
                SiteSnapshot {
                    site,
                    name: site_name(site),
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    attempts: self.attempts.snapshot(),
                    latency_ns: self.latency_ns.snapshot(),
                }
            }

            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
                self.attempts.reset();
                self.latency_ns.reset();
            }
        }

        /// A point-in-time copy of one site's metrics.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct SiteSnapshot {
            /// The site's id.
            pub site: SiteId,
            /// The site's interned name.
            pub name: &'static str,
            $($(#[$doc])* pub $name: u64,)+
            /// Attempts-per-committed-transaction histogram.
            pub attempts: HistogramSnapshot,
            /// Wall-clock latency (ns) of each `atomic` call, begin to
            /// successful commit.
            pub latency_ns: HistogramSnapshot,
        }

        impl SiteSnapshot {
            /// Counter-wise difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &SiteSnapshot) -> SiteSnapshot {
                SiteSnapshot {
                    site: self.site,
                    name: self.name,
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                    attempts: self.attempts.delta(&earlier.attempts),
                    latency_ns: self.latency_ns.delta(&earlier.latency_ns),
                }
            }
        }
    };
}

site_counters! {
    /// Transactions that committed.
    commits,
    /// Aborts from read-set validation failure.
    aborts_validation,
    /// Aborts from a busy ownership record.
    aborts_orec,
    /// Explicit `restart` aborts.
    aborts_restart,
    /// Deadlock-victim aborts.
    aborts_deadlock,
    /// External-kill aborts.
    aborts_killed,
    /// Capacity-bound aborts.
    aborts_capacity,
    /// `retry` operations that blocked.
    retries,
    /// Commit-before-wait suspensions.
    waits,
    /// Transactions that became irrevocable.
    irrevocable,
    /// Total nanoseconds spent in inter-attempt backoff.
    backoff_ns,
    /// Revocable lock acquisitions inside this site's transactions.
    lock_acquisitions,
    /// Revocable lock revocations (preemptions) inside this site's
    /// transactions.
    lock_revocations,
    /// Deferred x-call operations enlisted inside this site's transactions.
    xcalls,
    /// Escalation-ladder rung promotions (hardware → optimistic → stronger
    /// backoff → serial) taken by this site's transactions.
    escalations,
    /// Faults injected by the [`chaos`](crate::chaos) layer while this site
    /// was the thread's current transaction site.
    faults_injected,
}

static SITES: [SiteSlot; MAX_SITES] = [const { SiteSlot::new() }; MAX_SITES];

impl SiteSnapshot {
    /// Total aborts of all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_validation
            + self.aborts_orec
            + self.aborts_restart
            + self.aborts_deadlock
            + self.aborts_killed
            + self.aborts_capacity
    }

    /// Aborts as a fraction of attempted commits (`aborts / (commits +
    /// aborts)`), 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.total_aborts();
        let denom = self.commits + aborts;
        if denom == 0 {
            0.0
        } else {
            aborts as f64 / denom as f64
        }
    }
}

/// A point-in-time copy of every registered site's metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// One entry per interned site, index-aligned with [`SiteId`].
    pub sites: Vec<SiteSnapshot>,
}

impl ObsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating). Sites interned
    /// after `earlier` was taken are kept as-is.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        ObsSnapshot {
            sites: self
                .sites
                .iter()
                .map(|s| match earlier.sites.get(s.site.index()) {
                    Some(e) => s.delta(e),
                    None => *s,
                })
                .collect(),
        }
    }

    /// The snapshot for a specific site, if it was registered.
    pub fn site(&self, site: SiteId) -> Option<&SiteSnapshot> {
        self.sites.get(site.index())
    }
}

/// Copy the registry. Each counter is read with a separate relaxed load,
/// so a snapshot taken while transactions are in flight can split one
/// logical commit across two snapshots; use [`delta`](ObsSnapshot::delta)
/// over quiescent boundaries (or pause load) for exact accounting.
pub fn snapshot() -> ObsSnapshot {
    let n = registered_sites().min(MAX_SITES);
    ObsSnapshot { sites: (0..n).map(|i| SITES[i].snapshot(SiteId(i as u32))).collect() }
}

// ---- hot-path hooks -------------------------------------------------------

macro_rules! note_fns {
    ($($name:ident => $field:ident),+ $(,)?) => {
        $(#[inline]
        pub(crate) fn $name(site: SiteId) {
            if hooks::armed(OBS) {
                SITES[site.index()].$field.fetch_add(1, Ordering::Relaxed);
            }
        })+
    };
}

note_fns! {
    note_restart => aborts_restart,
    note_deadlock => aborts_deadlock,
    note_killed => aborts_killed,
    note_capacity => aborts_capacity,
    note_retry_blocked => retries,
    note_wait => waits,
    note_irrevocable => irrevocable,
    note_escalation => escalations,
}

/// Record a successful commit: bumps the commit counter and feeds the
/// attempt and latency histograms.
#[inline]
pub(crate) fn note_commit(site: SiteId, attempts: u64, latency_ns: u64) {
    if !hooks::armed(OBS) {
        return;
    }
    let slot = &SITES[site.index()];
    slot.commits.fetch_add(1, Ordering::Relaxed);
    slot.attempts.record(attempts);
    slot.latency_ns.record(latency_ns);
}

/// Record a conflict abort, split by cause.
#[inline]
pub(crate) fn note_conflict(site: SiteId, kind: ConflictKind) {
    if !hooks::armed(OBS) {
        return;
    }
    let slot = &SITES[site.index()];
    match kind {
        ConflictKind::ReadValidation => slot.aborts_validation.fetch_add(1, Ordering::Relaxed),
        ConflictKind::OrecBusy => slot.aborts_orec.fetch_add(1, Ordering::Relaxed),
    };
}

/// Record time spent backing off between attempts.
#[inline]
pub(crate) fn note_backoff(site: SiteId, ns: u64) {
    if hooks::armed(OBS) {
        SITES[site.index()].backoff_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

// ---- cross-crate hooks (txlock, xcall) ------------------------------------

thread_local! {
    static CURRENT_SITE: Cell<u32> = const { Cell::new(0) };
}

/// Scope guard restoring the thread's previous site on drop.
pub(crate) struct SiteScope {
    prev: Option<u32>,
}

/// Mark `site` as the thread's current transaction site for the life of the
/// returned guard, so hooks from other layers (locks, x-calls) attribute to
/// it. A no-op (no thread-local touched) while metrics are disabled.
pub(crate) fn enter_site(site: SiteId) -> SiteScope {
    if !hooks::armed(OBS) {
        return SiteScope { prev: None };
    }
    let prev = CURRENT_SITE.with(|c| c.replace(site.0));
    SiteScope { prev: Some(prev) }
}

impl Drop for SiteScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CURRENT_SITE.with(|c| c.set(prev));
        }
    }
}

fn current_site() -> SiteId {
    SiteId(CURRENT_SITE.with(|c| c.get()))
}

/// Hook for `txfix-txlock`: a revocable lock was acquired inside the
/// current thread's transaction (or outside any, which attributes to the
/// unattributed site).
#[inline]
pub fn note_lock_acquired() {
    if hooks::armed(OBS) {
        SITES[current_site().index()].lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hook for `txfix-txlock`: a revocable lock was revoked (its holder
/// preempted by the deadlock detector).
#[inline]
pub fn note_lock_revoked() {
    if hooks::armed(OBS) {
        SITES[current_site().index()].lock_revocations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hook for `txfix-xcall`: a deferred x-call operation was enlisted in the
/// current thread's transaction.
#[inline]
pub fn note_xcall() {
    if hooks::armed(OBS) {
        SITES[current_site().index()].xcalls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hook for [`chaos`](crate::chaos): a fault fired. Attributed like the
/// lock hooks, via the thread's current site, because injection points live
/// in `txlock` and `xcall` as well as the STM core.
#[inline]
pub(crate) fn note_fault_injected() {
    if hooks::armed(OBS) {
        SITES[current_site().index()].faults_injected.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        // Bucket 0 holds only zero; bucket i covers [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS - 1 {
            let lo = bucket_floor(i);
            assert_eq!(bucket_index(lo), i, "floor of bucket {i}");
            assert_eq!(bucket_index(lo * 2 - 1), i, "ceiling of bucket {i}");
            assert_eq!(bucket_index(lo * 2), i + 1, "first value past bucket {i}");
        }
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total(), 10);
        assert_eq!(s.percentile(0.5), 1, "p50 in the ones bucket");
        let p99 = s.percentile(0.99);
        assert!((512..1024).contains(&p99), "p99 in the bucket of 1000, got {p99}");
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn disabled_hooks_record_nothing() {
        let _g = hooks::arm(0);
        let before = snapshot();
        let site = intern("obs_test_disabled");
        note_commit(site, 3, 500);
        note_conflict(site, ConflictKind::OrecBusy);
        let after = snapshot();
        if let (Some(b), Some(a)) = (before.site(site), after.site(site)) {
            assert_eq!(a.delta(b).commits, 0);
        }
    }

    #[test]
    fn enabled_hooks_attribute_to_the_site() {
        let _armed = hooks::arm(OBS);
        let site = intern("obs_test_enabled");
        let before = snapshot();
        note_commit(site, 2, 300);
        note_conflict(site, ConflictKind::ReadValidation);
        note_conflict(site, ConflictKind::OrecBusy);
        note_backoff(site, 42);
        note_irrevocable(site);
        let after = snapshot();
        let d = after.site(site).unwrap().delta(before.site(site).unwrap());
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts_validation, 1);
        assert_eq!(d.aborts_orec, 1);
        assert_eq!(d.backoff_ns, 42);
        assert_eq!(d.irrevocable, 1);
        assert_eq!(d.total_aborts(), 2);
        assert!((d.abort_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(d.attempts.total(), 1);
        assert_eq!(d.latency_ns.total(), 1);
        assert_eq!(d.name, "obs_test_enabled");
    }

    #[test]
    fn interning_is_idempotent_and_bounded() {
        let a = intern("obs_test_idem");
        let b = intern("obs_test_idem");
        assert_eq!(a, b);
        assert_eq!(site_name(a), "obs_test_idem");
    }

    #[test]
    fn lock_hooks_attribute_to_current_site() {
        let _armed = hooks::arm(OBS);
        let site = intern("obs_test_locks");
        let before = snapshot();
        {
            let _scope = enter_site(site);
            note_lock_acquired();
            note_lock_revoked();
            note_xcall();
        }
        note_lock_acquired(); // outside the scope: unattributed
        let after = snapshot();
        let d = after.site(site).unwrap().delta(before.site(site).unwrap());
        assert_eq!(d.lock_acquisitions, 1);
        assert_eq!(d.lock_revocations, 1);
        assert_eq!(d.xcalls, 1);
        let d0 = after.sites[0].delta(&before.sites[0]);
        assert!(d0.lock_acquisitions >= 1);
    }
}
