//! The canary mutation sweep behind `txfix canary`.
//!
//! A *canary* is one feature-gated bug planted at a real hazard
//! site inside the runtime substrates (see [`txfix_stm::canary`] for the
//! registry and the sites). This module arms one canary at a time and
//! runs it through the five detection layers the repository ships —
//!
//! - **analyze**: the trace recorder + replay passes
//!   ([`txfix_analyze::analyze_scenario`]), including the detector-
//!   integrity passes in [`txfix_analyze::integrity`];
//! - **lint**: the static critical-section analyzer — honestly *blind* to
//!   every runtime canary (it models the source summaries, not the
//!   mutated binary), recorded as `probed: false` so the matrix never
//!   overstates static coverage;
//! - **explore**: deterministic schedule exploration
//!   ([`txfix_explore`]), which must find a failing schedule when the
//!   mutation can only strike under a particular interleaving;
//! - **chaos**: deterministic single-threaded micro-probes with value
//!   oracles, for mutations whose damage is visible without concurrency;
//! - **crash**: the crash-recovery checker
//!   ([`txfix_wal::checker::run_crash_sweep`]), for mutations whose
//!   damage is only visible in what survives a simulated crash — a
//!   skipped fsync leaves every pre-crash observation intact.
//!
//! Each canary carries an expected [`HazardClass`]; a layer *catches* the
//! canary when it reports a failure of that class. The sweep asserts
//! every canary is caught by at least one layer and emits the
//! `txfix-canary-v1` capability matrix (`CANARY_stm.json`).
//!
//! Every probe is deterministic by construction — an armed canary fires
//! on every visit to its site, explore probes use DFS, chaos probes are
//! single-threaded, crash probes derive every crash image from the seed
//! — so the matrix is bit-for-bit reproducible across seeded runs (CI
//! compares two).

use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_core::HazardClass;
use txfix_corpus::{scenario_by_key, Outcome, RunResult, ScheduledRun, Variant};
use txfix_explore::{explore_build, explore_variant};
use txfix_stm::canary::{self, Canary};
use txfix_stm::{atomic, TVar, Txn, TxnError};
use txfix_txlock::TxMutex;
use txfix_xcall::{SimFs, SimPipe, XFile, XPipe};

use std::fmt::Write as _;

/// What one detection layer saw for one armed canary.
#[derive(Clone, Debug)]
pub struct LayerProbe {
    /// Layer name: `analyze`, `lint`, `explore`, `chaos` or `crash`.
    pub layer: &'static str,
    /// Whether the layer was exercised against this canary at all. A
    /// `false` records a *structural* blind spot (with the reason in
    /// `evidence`), not a failed probe.
    pub probed: bool,
    /// Whether the layer reported a failure of the expected class.
    pub caught: bool,
    /// The failure message that caught it, or why it was missed/skipped.
    pub evidence: String,
}

/// One canary's complete trip through the detection layers.
#[derive(Clone, Debug)]
pub struct CanaryOutcome {
    /// Which planted bug this is.
    pub canary: Canary,
    /// The hazard class a detector is expected to file it under.
    pub expected: HazardClass,
    /// One probe per layer, in `analyze, lint, explore, chaos, crash`
    /// order.
    pub probes: Vec<LayerProbe>,
}

impl CanaryOutcome {
    /// Whether at least one layer caught the canary.
    pub fn caught(&self) -> bool {
        self.probes.iter().any(|p| p.caught)
    }

    /// The layers that caught it, in probe order.
    pub fn caught_by(&self) -> Vec<&'static str> {
        self.probes.iter().filter(|p| p.caught).map(|p| p.layer).collect()
    }
}

/// The full sweep: the detection-capability matrix.
#[derive(Clone, Debug)]
pub struct CanaryReport {
    /// Seed of the sweep. Only the crash probes read it: it derives
    /// their crash images.
    pub seed: u64,
    /// One outcome per swept canary, in [`Canary::ALL`] order.
    pub outcomes: Vec<CanaryOutcome>,
}

impl CanaryReport {
    /// The sweep's verdict: every canary caught by at least one layer.
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(CanaryOutcome::caught)
    }

    /// Human-readable matrix: one row per canary, then one per probe.
    pub fn table(&self) -> String {
        let mut table = format!("{:26} {:12} {:8} caught by", "canary", "class", "caught");
        for o in &self.outcomes {
            let by = o.caught_by();
            let _ = write!(
                table,
                "\n{:26} {:12} {:8} {}",
                o.canary.name(),
                class_name(o.expected),
                if o.caught() { "yes" } else { "UNCAUGHT" },
                if by.is_empty() { "-".to_string() } else { by.join(", ") }
            );
            for p in &o.probes {
                let verdict = match (p.probed, p.caught) {
                    (_, true) => "caught",
                    (true, false) => "missed",
                    (false, false) => "not probed",
                };
                let _ = write!(table, "\n{:28}{:8} {:10} {}", "", p.layer, verdict, p.evidence);
            }
        }
        table
    }
}

/// Stable snake-case name for a hazard class (matrix vocabulary).
pub fn class_name(c: HazardClass) -> &'static str {
    match c {
        HazardClass::LockCycle => "lock_cycle",
        HazardClass::WaitCycle => "wait_cycle",
        HazardClass::SharedData => "shared_data",
        HazardClass::LostWakeup => "lost_wakeup",
    }
}

/// The hazard class each canary's detection must be filed under.
pub fn expected_class(c: Canary) -> HazardClass {
    match c {
        Canary::StmSkipWriteback
        | Canary::StmSkipValidation
        | Canary::StmStaleStamp
        | Canary::XcallSkipUndo
        | Canary::XcallDoubleCompensate
        | Canary::WalSkipFsync
        | Canary::WalCommitBeforeFsync
        | Canary::SchedOutOfTurn => HazardClass::SharedData,
        Canary::StmNotifyReorder => HazardClass::LostWakeup,
        Canary::LockDropRelease | Canary::LockSkipLockdep | Canary::LockReacquireInRevoke => {
            HazardClass::LockCycle
        }
    }
}

/// Map a dynamic failure message to the hazard class it evidences.
///
/// Deadlock stops and lock-discipline panics are lock-order hazards;
/// wakeup-related messages are lost wakeups; everything else (lost
/// updates, value-oracle misses, turnstile breaches) is unserialized
/// shared data.
fn classify(msg: &str) -> HazardClass {
    if msg.starts_with("deadlock:")
        || msg.contains("released by non-owner")
        || msg.contains("acquired twice")
        || msg.contains("lock-order")
    {
        HazardClass::LockCycle
    } else if msg.contains("wakeup") {
        HazardClass::LostWakeup
    } else {
        HazardClass::SharedData
    }
}

fn not_probed(layer: &'static str, why: &str) -> LayerProbe {
    LayerProbe { layer, probed: false, caught: false, evidence: why.to_string() }
}

fn lint_blind() -> LayerProbe {
    not_probed(
        "lint",
        "static summaries model the source, not the mutated binary; runtime canaries are \
         invisible to the lint layer by design",
    )
}

fn crash_blind() -> LayerProbe {
    not_probed(
        "crash",
        "the crash checker audits the durable WAL image; this site damages volatile state \
         that no crash image records",
    )
}

/// Run a corpus scenario variant under `analyze` with the canary armed.
fn analyze_probe(c: Canary, key: &str, variant: Variant) -> LayerProbe {
    let expected = expected_class(c);
    let _armed = canary::scoped(c);
    let report = txfix_analyze::analyze_scenario(key, variant)
        .unwrap_or_else(|| panic!("canary probe references unknown scenario {key}"));
    let hit = report.findings.iter().find(|f| f.kind.class() == expected);
    match hit {
        Some(f) => LayerProbe {
            layer: "analyze",
            probed: true,
            caught: true,
            evidence: f.explanation.clone(),
        },
        None => LayerProbe {
            layer: "analyze",
            probed: true,
            caught: false,
            evidence: format!(
                "{key}/{}: trace replay reports no {} finding — the mutated run leaves a \
                 well-formed trace",
                variant.name(),
                class_name(expected)
            ),
        },
    }
}

/// Run a scheduled corpus scenario variant under `explore` with the
/// canary armed.
fn explore_probe(c: Canary, key: &str, variant: Variant) -> LayerProbe {
    let expected = expected_class(c);
    let build = scenario_by_key(key)
        .unwrap_or_else(|| panic!("canary probe references unknown scenario {key}"))
        .scheduled;
    let _armed = canary::scoped(c);
    let entry = explore_variant(key, build, variant);
    let missed = format!(
        "{key}/{}: every explored schedule survives ({} schedules, exhausted: {}) — \
         the mutation does not perturb execution",
        variant.name(),
        entry.schedules,
        entry.exhausted
    );
    explore_verdict(expected, entry.failure.map(|f| f.message), missed)
}

/// The verdict both explore probes share: a failure of the `expected`
/// class is caught, any other failure is the wrong class, and no failure
/// is a miss that `missed` explains.
fn explore_verdict(expected: HazardClass, failure: Option<String>, missed: String) -> LayerProbe {
    let (caught, evidence) = match failure {
        Some(msg) if classify(&msg) == expected => (true, msg),
        Some(msg) => (
            false,
            format!(
                "failure found but of the wrong class (expected {}): {msg}",
                class_name(expected)
            ),
        ),
        None => (false, missed),
    };
    LayerProbe { layer: "explore", probed: true, caught, evidence }
}

/// The ad-hoc revocation-window probe for
/// [`Canary::LockReacquireInRevoke`]: two transactions take two revocable
/// locks in opposite orders, so some schedule forms a cycle, the deadlock
/// detector victimizes one, and its revocation runs the buggy
/// release/re-acquire window. If a waiter slips into the window, the
/// victim's final release panics — which exploration reports as the bug.
fn revoke_probe(c: Canary) -> LayerProbe {
    let expected = expected_class(c);
    let build = |_v: Variant| {
        let nested = |first: &TxMutex<u32>, second: &TxMutex<u32>| {
            atomic(|txn| {
                first.lock_tx(txn)?;
                second.lock_tx(txn)?;
                Ok(())
            });
        };
        ScheduledRun::pair(
            (TxMutex::new("canary.revoke.a", 0u32), TxMutex::new("canary.revoke.b", 0u32)),
            move |(a, b)| nested(a, b),
            move |(a, b)| nested(b, a),
            // The bug manifests as a lock-discipline panic, not as a
            // state violation.
            |_| Outcome::Correct,
        )
    };
    let _armed = canary::scoped(c);
    let ex = explore_build(&build, Variant::Buggy);
    let failure = ex.failure.and_then(|o| match o.result {
        RunResult::Bug(m) => Some(m),
        _ => None,
    });
    let missed = format!(
        "opposite-order lock_tx probe survives every explored schedule ({} schedules)",
        ex.schedules
    );
    explore_verdict(expected, failure, missed)
}

/// Run a deterministic single-threaded micro-probe with the canary
/// armed. The probe returns `Some(violation)` when its value oracle is
/// broken.
fn chaos_probe(c: Canary, probe: fn() -> Option<String>, description: &str) -> LayerProbe {
    let _armed = canary::scoped(c);
    match probe() {
        Some(violation) => {
            LayerProbe { layer: "chaos", probed: true, caught: true, evidence: violation }
        }
        None => LayerProbe {
            layer: "chaos",
            probed: true,
            caught: false,
            evidence: format!("{description}: all invariants held"),
        },
    }
}

/// Run the KV store's crash-recovery sweep (`tm` mode, no fault
/// backdrop) with the canary armed. The store is clean at every crash
/// point by construction, so any flagged point is the canary's doing — a
/// pretend-success or missing fsync turns "records durable before the
/// marker" into a lie the seeded crash images expose.
fn crash_probe(c: Canary, seed: u64) -> LayerProbe {
    use txfix_kvstore::{KvStore, Mode};
    use txfix_wal::checker::{run_crash_sweep, CrashConfig, Schedule};
    let _armed = canary::scoped(c);
    let report = run_crash_sweep::<KvStore>(&CrashConfig {
        seed,
        cells: vec![Mode::Tm],
        schedules: vec![Schedule::Clean],
    });
    let mut flagged = Vec::new();
    let mut evidence = None;
    for v in &report.cells {
        for s in &v.schedules {
            flagged.extend(s.flagged.iter().cloned());
            evidence = evidence.or_else(|| {
                s.points
                    .iter()
                    .flat_map(|p| &p.failures)
                    .flat_map(|f| &f.violations)
                    .next()
                    .cloned()
            });
        }
    }
    match evidence {
        Some(violation) => LayerProbe {
            layer: "crash",
            probed: true,
            caught: true,
            evidence: format!("kv store flagged at {}: {violation}", flagged.join(", ")),
        },
        None => LayerProbe {
            layer: "crash",
            probed: true,
            caught: false,
            evidence: "the kv store recovered cleanly at every crash point — the mutated \
                       fsync path left nothing for a crash to lose"
                .to_string(),
        },
    }
}

/// Value oracle: ten committed transactional increments must be visible.
fn oracle_counter() -> Option<String> {
    let v = TVar::new(0u64);
    for _ in 0..10 {
        atomic(|txn| v.modify(txn, |x| x + 1));
    }
    let got = v.load();
    (got != 10).then(|| {
        format!(
            "value oracle: 10 committed transactional increments left the TVar at {got}, \
             expected 10 — write-back was silently dropped"
        )
    })
}

/// Compensation oracle: a cancelled transaction must leave no deferred
/// file operations (nor its ownership stamp) behind.
fn oracle_xfile_undo() -> Option<String> {
    let fs = SimFs::new();
    let xf = XFile::open_or_create(&fs, "canary.log");
    let res = Txn::build().try_run(|txn| {
        xf.x_append(txn, b"payload")?;
        txn.cancel::<()>()
    });
    assert!(
        matches!(res, Err(TxnError::Cancelled)),
        "probe transaction must cancel terminally, got {res:?}"
    );
    xf.pending_snapshot().map(|(_, ops)| {
        format!(
            "compensation oracle: a cancelled transaction left {ops} deferred op(s) and its \
             ownership stamp on the x-file — the undo hook never ran"
        )
    })
}

/// Compensation oracle: aborting a 1-byte compensated read from a 2-byte
/// pipe must restore exactly 2 buffered bytes.
fn oracle_pipe_unread() -> Option<String> {
    let pipe = SimPipe::new(16);
    pipe.write(b"ab");
    let xp = XPipe::new(pipe.clone());
    let res = Txn::build().try_run(|txn| {
        let got = xp.x_try_read(txn, 1)?;
        assert_eq!(got.as_deref(), Some(&b"a"[..]), "probe read must consume one byte");
        txn.cancel::<()>()
    });
    assert!(
        matches!(res, Err(TxnError::Cancelled)),
        "probe transaction must cancel terminally, got {res:?}"
    );
    let buffered = pipe.buffered();
    (buffered != 2).then(|| {
        format!(
            "compensation oracle: the pipe holds {buffered} bytes after the abort, expected 2 \
             — the consumed byte was pushed back more than once"
        )
    })
}

/// Arm `c` and run it through all four detection layers.
pub fn run_canary(c: Canary, seed: u64) -> CanaryOutcome {
    let expected = expected_class(c);
    let probes = match c {
        Canary::StmSkipWriteback => vec![
            // The documented analyze gap: a skipped write-back leaves a
            // perfectly well-formed trace (committed transactions are
            // mutually serialized), so trace replay cannot see it. The
            // probe stays in the matrix to pin that blindness.
            analyze_probe(c, "av_stats_race", Variant::TmFix),
            lint_blind(),
            explore_probe(c, "av_stats_race", Variant::TmFix),
            chaos_probe(c, oracle_counter, "10 increments then read back"),
            crash_blind(),
        ],
        Canary::StmSkipValidation | Canary::StmStaleStamp => vec![
            not_probed(
                "analyze",
                "only manifests when a racing schedule crosses the commit window; analyze \
                 records the one pinned schedule, the lowest-slot one for a TM fix, which \
                 never does",
            ),
            lint_blind(),
            explore_probe(c, "av_stats_race", Variant::TmFix),
            not_probed(
                "chaos",
                "invisible single-threaded: validation only matters under \
                 contention",
            ),
            crash_blind(),
        ],
        Canary::StmNotifyReorder => vec![
            analyze_probe(c, "av_stats_race", Variant::TmFix),
            lint_blind(),
            not_probed(
                "explore",
                "a TL2 commit is one step at scheduler granularity; the reorder is internal \
                 to it and produces no schedulable interleaving",
            ),
            not_probed(
                "chaos",
                "no blocked waiter exists single-threaded, so the early wakeup \
                 has nobody to strand",
            ),
            crash_blind(),
        ],
        Canary::LockDropRelease => vec![
            not_probed(
                "analyze",
                "the leaked lock stops the pinned schedule as a deadlock; that stop is \
                 explore's evidence, not a trace finding",
            ),
            lint_blind(),
            explore_probe(c, "dl_local_lock_order", Variant::DevFix),
            not_probed("chaos", "the leaked lock would hang the probe thread"),
            crash_blind(),
        ],
        Canary::LockSkipLockdep => vec![
            analyze_probe(c, "dl_local_lock_order", Variant::DevFix),
            lint_blind(),
            // Documented explore gap: the mutation changes only what the
            // validator records, never the execution, so no schedule can
            // fail.
            explore_probe(c, "dl_local_lock_order", Variant::DevFix),
            not_probed("chaos", "execution is unchanged; there is no invariant to violate"),
            crash_blind(),
        ],
        Canary::LockReacquireInRevoke => vec![
            not_probed(
                "analyze",
                "needs a revocation forced at a precise point; no row's pinned schedule \
                 steers a waiter into the window",
            ),
            lint_blind(),
            revoke_probe(c),
            not_probed("chaos", "needs a second thread waiting inside the revocation window"),
            crash_blind(),
        ],
        Canary::XcallSkipUndo => vec![
            not_probed("analyze", "deferred-op buffers are not traced objects"),
            lint_blind(),
            not_probed("explore", "no scheduled scenario cancels an x-call transaction"),
            chaos_probe(c, oracle_xfile_undo, "cancelled x-append then audit pending ops"),
            crash_blind(),
        ],
        Canary::XcallDoubleCompensate => vec![
            not_probed("analyze", "pipe buffers are not traced objects"),
            lint_blind(),
            not_probed("explore", "no scheduled scenario aborts a compensated read"),
            chaos_probe(
                c,
                oracle_pipe_unread,
                "cancelled 1-byte read from a 2-byte pipe then audit",
            ),
            crash_blind(),
        ],
        Canary::SchedOutOfTurn => vec![
            not_probed("analyze", "the trace recorder never sees the scheduler's decision log"),
            lint_blind(),
            explore_probe(c, "av_stats_race", Variant::TmFix),
            not_probed("chaos", "only scheduled runs have a turnstile to breach"),
            crash_blind(),
        ],
        Canary::WalSkipFsync | Canary::WalCommitBeforeFsync => vec![
            not_probed("analyze", "deferred sync application is not a traced object"),
            lint_blind(),
            not_probed("explore", "no scheduled scenario drives the WAL durability path"),
            not_probed(
                "chaos",
                if c == Canary::WalSkipFsync {
                    "a pretend-success fsync is invisible to any pre-crash observation: reads, \
                     value oracles and compensation audits all see the intact page cache"
                } else {
                    "a missing record sync is invisible to any pre-crash observation: the \
                     final sync makes the whole batch durable before anyone can look"
                },
            ),
            crash_probe(c, seed),
        ],
    };
    CanaryOutcome { canary: c, expected, probes }
}

/// Sweep `selected` canaries (in the given order) with `seed`.
pub fn run_canaries(selected: &[Canary], seed: u64) -> CanaryReport {
    CanaryReport { seed, outcomes: selected.iter().map(|&c| run_canary(c, seed)).collect() }
}

/// `txfix canary`: run the selected canaries through every layer.
#[derive(Default)]
pub struct CanarySweep;

impl SweepRunner for CanarySweep {
    fn usage(&self) -> &'static str {
        crate::cli::CANARY_USAGE
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("CANARY_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("canary", Canary::ALL.map(Canary::name)))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let swept = args.pick(&Canary::ALL, Canary::name);
        let report = run_canaries(&swept, args.seed.unwrap_or(0xC0FFEE));
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok(),
            failure: "some canaries went uncaught by every detection layer",
        })
    }
}

impl ToJson for LayerProbe {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("layer", Json::str(self.layer)),
            ("probed", Json::Bool(self.probed)),
            ("caught", Json::Bool(self.caught)),
            ("evidence", Json::str(self.evidence.clone())),
        ])
    }
}

impl ToJson for CanaryOutcome {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("canary", Json::str(self.canary.name())),
            ("site", Json::str(self.canary.site())),
            ("expected_class", Json::str(class_name(self.expected))),
            ("caught", Json::Bool(self.caught())),
            ("caught_by", Json::strings(self.caught_by())),
            ("layers", Json::list(self.probes.iter().map(ToJson::to_json_value))),
        ])
    }
}

impl ToJson for CanaryReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("schema", Json::str("txfix-canary-v1")),
            ("seed", Json::int(self.seed)),
            ("ok", Json::Bool(self.ok())),
            ("canaries", Json::list(self.outcomes.iter().map(ToJson::to_json_value))),
        ])
    }
}
