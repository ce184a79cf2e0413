//! The crash-recovery sweep engine behind `txfix crash`.
//!
//! [`run_crash_sweep`] is the one checker. For each cell of a
//! [`CrashSubject`] × fault [`Schedule`] it runs the subject's scripted
//! workload in crash-point *record* mode to learn every `(label,
//! hit-count)` the run crosses, then reruns it once per `(label, hit,
//! image)` with that crash point armed: the firing hit freezes the
//! simulated durable world, the filesystem takes a seeded crash image
//! ([`SimFs::crash`]), the world thaws, and the subject recovers and
//! checks its invariants against what the workload knows it did.
//! Everything derives from the run seed through `splitmix64`, so reports
//! are bit-for-bit reproducible.
//!
//! The product subject is the KV store (`txfix-kvstore`'s `crash`
//! module): every mode must be clean at every crash point, so a cell is
//! `ok` iff nothing is flagged. A planted bug is a feature-gated canary
//! (`wal_skip_fsync`, `wal_commit_before_fsync`), armed by `txfix canary`
//! around this same sweep, which must then flag something.

use std::sync::Arc;
use txfix_core::json::{Json, ToJson};
use txfix_stm::chaos::{self, splitmix64, FaultPlan};
use txfix_xcall::{crashpoint, SimFs, BLOCK_BYTES};

/// Default run seed (matches the other seeded sweeps).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// One thing whose crash recovery the engine can sweep.
pub trait CrashSubject {
    /// One row of the sweep: a concurrency mode.
    type Cell: Copy;
    /// What the workload knows it did: the oracle recovery is checked by.
    type Facts;

    /// Report schema identifier.
    const SCHEMA: &'static str;
    /// The report's JSON keys for the row list and for a row's name.
    const KEYS: (&'static str, &'static str);
    /// An extra report header field, if the subject has one.
    const HEADER: Option<(&'static str, u64)> = None;

    /// Stable report name of `cell`.
    fn cell_name(cell: Self::Cell) -> &'static str;

    /// Run the scripted workload on a fresh filesystem, ending at the
    /// subject's quiesce crash point. Must be deterministic: the same
    /// cell (and fault plan) crosses the same crash-point sequence every
    /// run, which is what makes `(label, hit)` a replayable coordinate.
    fn run(cell: Self::Cell) -> (Arc<SimFs>, Self::Facts);

    /// Recover from the crashed `fs` and return every invariant the
    /// recovered state violates (empty = clean).
    fn recover_and_check(cell: Self::Cell, fs: &Arc<SimFs>, facts: &Self::Facts) -> Vec<String>;
}

/// Which concurrent-fault backdrop the workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// No injected faults: the crash is the only adversity.
    Clean,
    /// `chaos` faults at the file x-calls: transactions restart mid-
    /// protocol while crash points are armed.
    XcallFaults,
}

impl Schedule {
    /// Every schedule.
    pub const ALL: [Schedule; 2] = [Schedule::Clean, Schedule::XcallFaults];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Clean => "clean",
            Schedule::XcallFaults => "xcall_faults",
        }
    }

    /// The schedule's row of [`chaos::SCHEDULES`] as a plan. `clean` is
    /// deliberately not a row: the chaos layer stays disarmed.
    fn plan(self, seed: u64) -> Option<FaultPlan> {
        FaultPlan::named(self.name(), splitmix64(seed ^ 0xFA01_7AB1E))
    }
}

/// Crash images (seeded flush subsets) drawn per `(label, hit)`.
pub const IMAGES_PER_POINT: u64 = 2;

/// What to sweep.
pub struct CrashConfig<C> {
    /// Run seed; every trigger coin and crash image derives from it.
    pub seed: u64,
    /// The subject's cells to drive.
    pub cells: Vec<C>,
    /// Fault backdrops to compose with.
    pub schedules: Vec<Schedule>,
}

impl<C> CrashConfig<C> {
    /// `cells` under `seed` against both schedules.
    pub fn full(seed: u64, cells: Vec<C>) -> CrashConfig<C> {
        CrashConfig { seed, cells, schedules: Schedule::ALL.to_vec() }
    }
}

/// One `(hit, image)` draw that violated an invariant.
pub struct Failure {
    /// Which hit ordinal of the label crashed.
    pub hit: u64,
    /// Which crash-image draw.
    pub image: u64,
    /// The invariant violations recovery exhibited.
    pub violations: Vec<String>,
}

/// All draws for one crash-point label.
pub struct PointOutcome {
    /// The crash-point label.
    pub label: String,
    /// Hits in the record pass (= crash instants swept).
    pub hits: u64,
    /// The draws that violated an invariant (empty = clean label).
    pub failures: Vec<Failure>,
}

/// One cell × schedule of the sweep.
pub struct ScheduleOutcome {
    /// The fault backdrop.
    pub schedule: Schedule,
    /// Total armed crash runs executed.
    pub runs: u64,
    /// Per-label outcomes, in first-seen order.
    pub points: Vec<PointOutcome>,
    /// Labels with at least one failing draw.
    pub flagged: Vec<String>,
    /// Clean at every crash point (nothing flagged).
    pub ok: bool,
}

/// One cell's outcomes across the schedules.
pub struct CellOutcome {
    /// The cell's report name.
    pub name: &'static str,
    /// One outcome per schedule.
    pub schedules: Vec<ScheduleOutcome>,
    /// Every schedule is clean.
    pub ok: bool,
}

/// A crash-sweep report, labelled by the subject that produced it.
pub struct CrashReport {
    /// [`CrashSubject::SCHEMA`].
    pub schema: &'static str,
    /// [`CrashSubject::KEYS`].
    pub keys: (&'static str, &'static str),
    /// [`CrashSubject::HEADER`].
    pub header: Option<(&'static str, u64)>,
    /// Run seed.
    pub seed: u64,
    /// Per-cell outcomes.
    pub cells: Vec<CellOutcome>,
    /// Every cell is clean.
    pub ok: bool,
}

impl ToJson for CrashReport {
    fn to_json_value(&self) -> Json {
        let failure = |f: &Failure| {
            Json::obj([
                ("hit", Json::int(f.hit)),
                ("image", Json::int(f.image)),
                ("violations", Json::strings(&f.violations)),
            ])
        };
        let point = |p: &PointOutcome| {
            Json::obj([
                ("label", Json::str(&p.label)),
                ("hits", Json::int(p.hits)),
                ("failures", Json::list(p.failures.iter().map(failure))),
            ])
        };
        let schedule = |s: &ScheduleOutcome| {
            Json::obj([
                ("schedule", Json::str(s.schedule.name())),
                ("runs", Json::int(s.runs)),
                ("points", Json::list(s.points.iter().map(point))),
                ("flagged", Json::strings(&s.flagged)),
                ("ok", Json::Bool(s.ok)),
            ])
        };
        let cell = |c: &CellOutcome| {
            Json::obj([
                (self.keys.1, Json::str(c.name)),
                // Every cell must be clean; the key keeps reports stable.
                ("expected_clean", Json::Bool(true)),
                ("schedules", Json::list(c.schedules.iter().map(schedule))),
                ("ok", Json::Bool(c.ok)),
            ])
        };
        let mut fields = vec![
            ("schema", Json::str(self.schema)),
            ("seed", Json::int(self.seed)),
            ("block_bytes", Json::int(BLOCK_BYTES as u64)),
            ("images_per_point", Json::int(IMAGES_PER_POINT)),
            (self.keys.0, Json::list(self.cells.iter().map(cell))),
            ("ok", Json::Bool(self.ok)),
        ];
        fields.extend(self.header.map(|(key, n)| (key, Json::int(n))));
        Json::obj(fields)
    }
}

impl CrashReport {
    /// Human-readable table, one row per cell × schedule.
    pub fn table(&self) -> String {
        let names = self.cells.iter().map(|c| c.name.len());
        let width = names.chain([self.keys.1.len()]).max().unwrap_or(0) + 1;
        let mut out = format!(
            "{:<width$} {:<13} {:>6} {:>6} {:>8}  {}\n",
            self.keys.1, "schedule", "points", "runs", "failures", "verdict"
        );
        for c in &self.cells {
            for s in &c.schedules {
                let failures: usize = s.points.iter().map(|p| p.failures.len()).sum();
                let verdict = if s.ok {
                    "ok (clean at every crash point)".to_owned()
                } else {
                    format!("FAIL (flagged: {})", s.flagged.join(", "))
                };
                let (schedule, points) = (s.schedule.name(), s.points.len());
                out.push_str(&format!(
                    "{:<width$} {schedule:<13} {points:>6} {:>6} {failures:>8}  {verdict}\n",
                    c.name, s.runs
                ));
            }
        }
        out.push_str(&format!("\ncrash sweep: {}", if self.ok { "ok" } else { "FAILED" }));
        out
    }
}

fn run_armed<S: CrashSubject>(
    cell: S::Cell,
    plan: Option<&FaultPlan>,
    label: &str,
    hit: u64,
    seed: u64,
    image: u64,
) -> Vec<String> {
    let _chaos = plan.map(chaos::scoped);
    let session = crashpoint::arm(label, hit);
    let (fs, facts) = S::run(cell);
    let fired = crashpoint::fired();
    // Which unflushed blocks the kernel happened to write back before
    // this crash: a fresh coin per (seed, label, hit, image).
    let image_seed = splitmix64(
        seed ^ crashpoint::label_hash(label) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ image,
    );
    fs.crash(image_seed);
    drop(session); // thaw: recovery is post-crash code and runs unfrozen
    let mut violations = S::recover_and_check(cell, &fs, &facts);
    if fired.is_none() {
        violations.push(format!(
            "harness: crash point {label} hit {hit} did not fire (nondeterministic workload?)"
        ));
    }
    violations
}

/// Run the crash-recovery sweep of subject `S`. Takes process-global
/// crash-point and chaos state; callers must not run it concurrently
/// with other armed harnesses.
pub fn run_crash_sweep<S: CrashSubject>(cfg: &CrashConfig<S::Cell>) -> CrashReport {
    let mut cells = Vec::new();
    for &cell in &cfg.cells {
        let mut schedules = Vec::new();
        for &schedule in &cfg.schedules {
            let plan = schedule.plan(cfg.seed);
            // Record pass: learn the crash-point universe of this cell.
            let universe = {
                let _chaos = plan.as_ref().map(chaos::scoped);
                let _session = crashpoint::record();
                let _ = S::run(cell);
                crashpoint::recording()
            };
            let mut runs = 0u64;
            let mut points = Vec::new();
            for (label, hits) in universe {
                let mut failures = Vec::new();
                for hit in 1..=hits {
                    for image in 0..IMAGES_PER_POINT {
                        runs += 1;
                        let violations =
                            run_armed::<S>(cell, plan.as_ref(), &label, hit, cfg.seed, image);
                        if !violations.is_empty() {
                            failures.push(Failure { hit, image, violations });
                        }
                    }
                }
                points.push(PointOutcome { label, hits, failures });
            }
            let flagged: Vec<String> =
                points.iter().filter(|p| !p.failures.is_empty()).map(|p| p.label.clone()).collect();
            let ok = flagged.is_empty();
            schedules.push(ScheduleOutcome { schedule, runs, points, flagged, ok });
        }
        let ok = schedules.iter().all(|s| s.ok);
        cells.push(CellOutcome { name: S::cell_name(cell), schedules, ok });
    }
    CrashReport {
        schema: S::SCHEMA,
        keys: S::KEYS,
        header: S::HEADER,
        seed: cfg.seed,
        ok: cells.iter().all(|c| c.ok),
        cells,
    }
}
