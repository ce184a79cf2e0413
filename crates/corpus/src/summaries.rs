//! The hand-written half of the static model: critical-section
//! summaries of the buggy code and the developers' fix for the 18
//! executable scenarios.
//!
//! Each function here is one row's static model: given a `Written`
//! variant it builds that variant's [`ScenarioSummary`] — a declarative
//! model of its lock acquisition order, atomic regions, shared-location
//! accesses and condition-variable traffic — for the static passes in
//! `txfix-static` (`txfix lint`) and fix inference (`txfix autofix`). The
//! TM model is not written here: [`Scenario::summary`](crate::Scenario::summary)
//! derives it as the fix `txfix_static::infer` finds for the buggy model.
//! The buggy models use the **same lock and location names the trace
//! recorder emits**, so static findings can be matched subject-by-subject
//! against the dynamic analyzer's reports; scenarios the recorder does
//! not instrument (the §5.4 application miniatures and the
//! condition-variable scenario) use free names in the same style.
//!
//! The models are deliberately minimal: they keep exactly the structure
//! the bug needs (the nesting that closes a cycle, the dropped lockset,
//! the early notify) and the structure the developers' fix restores, and
//! nothing else. A model is *not* a trace — the passes consider every
//! interleaving of the modeled paths.

use crate::dataset::{bug_by_scenario, keys};
use crate::scenarios::{Variant, SCENARIOS};
use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_static::{lint_summary, LintReport, Path, ScenarioSummary, Summary};

/// The variants a model function writes out by hand.
#[derive(Clone, Copy)]
pub(crate) enum Written {
    Buggy,
    DevFix,
}

impl Written {
    fn name(self) -> &'static str {
        match self {
            Written::Buggy => Variant::Buggy.name(),
            Written::DevFix => Variant::DevFix.name(),
        }
    }
}

/// `txfix lint`: run the static passes over the selected scenarios'
/// summaries and verify the synthesized fix recipes. Lives here rather
/// than in `txfix-static` because this crate is where the analyzer, the
/// corpus keys and [`Variant`] meet (the summaries are written in the
/// analyzer's IR, so the dependency points this way).
#[derive(Default)]
pub struct LintSweep {
    only: Option<Variant>,
}

impl SweepRunner for LintSweep {
    fn usage(&self) -> &'static str {
        "\x20 lint [<key>|--all] [--variant buggy|dev|tm] [--json]\n\
         \x20                              statically analyze critical-section summaries\n\
         \x20                              (default: all three variants) and verify the\n\
         \x20                              synthesized fix recipes; exits nonzero on findings"
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("scenario", keys::ALL))
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        if flag != "--variant" {
            return Ok(Flag::Unknown);
        }
        self.only = Some(value.and_then(Variant::parse).ok_or("--variant takes buggy|dev|tm")?);
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let mut reports: Vec<LintReport> = Vec::new();
        let mut tables = Vec::new();
        for row in args.pick(&SCENARIOS, |s| s.key) {
            let key = row.key;
            let bug = bug_by_scenario(key);
            let analysis = bug.as_ref().map(txfix_core::analyze);
            for v in self.only.map_or(Variant::ALL.to_vec(), |v| vec![v]) {
                let report = lint_summary(&row.summary(v), analysis.as_ref())
                    .map_err(|e| format!("summary for {key} is malformed: {e}"))?;
                tables.push(report.table(bug.as_ref().map(|b| b.id)));
                reports.push(report);
            }
        }
        Ok(SweepOutput {
            rendered: Json::list(reports.iter().map(ToJson::to_json_value)).to_json(),
            table: tables.join("\n"),
            ok: !reports.iter().any(LintReport::has_findings),
            failure: "",
        })
    }
}

/// Mozilla-I (§5.4.1): `js_SetSlotThreadSafe` and `ClaimTitle` nest the
/// title and scope locks in opposite orders.
pub(crate) fn mozilla_i(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::MOZILLA_I, v.name());
    match v {
        Written::Buggy => s
            .path(
                Path::new("set_slot")
                    .acquire("moz1.title")
                    .acquire("moz1.scope")
                    .write("moz1.slot")
                    .release("moz1.scope")
                    .release("moz1.title"),
            )
            .path(
                Path::new("claim_title")
                    .acquire("moz1.scope")
                    .acquire("moz1.title")
                    .write("moz1.slot")
                    .release("moz1.title")
                    .release("moz1.scope"),
            ),
        // The real fix is a release-and-retry dance; the model keeps its
        // essence — both paths end up nesting in one order.
        Written::DevFix => s
            .path(
                Path::new("set_slot")
                    .acquire("moz1.title")
                    .acquire("moz1.scope")
                    .write("moz1.slot")
                    .release("moz1.scope")
                    .release("moz1.title"),
            )
            .path(
                Path::new("claim_title")
                    .acquire("moz1.title")
                    .acquire("moz1.scope")
                    .write("moz1.slot")
                    .release("moz1.scope")
                    .release("moz1.title"),
            ),
    }
    .build()
}

/// Mozilla#54743: the cache and atom-table locks close an AB-BA cycle.
pub(crate) fn dl_cache_atomtable(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::DL_CACHE_ATOMTABLE, v.name());
    match v {
        Written::Buggy => s
            .path(
                Path::new("cache_flush")
                    .acquire("m54743.cache")
                    .write("m54743.cache_data")
                    .acquire("m54743.atomtable")
                    .write("m54743.atom_data")
                    .release("m54743.atomtable")
                    .release("m54743.cache"),
            )
            .path(
                Path::new("atom_sweep")
                    .acquire("m54743.atomtable")
                    .write("m54743.atom_data")
                    .acquire("m54743.cache")
                    .write("m54743.cache_data")
                    .release("m54743.cache")
                    .release("m54743.atomtable"),
            ),
        Written::DevFix => s
            .path(
                Path::new("cache_flush")
                    .acquire("m54743.cache")
                    .write("m54743.cache_data")
                    .acquire("m54743.atomtable")
                    .write("m54743.atom_data")
                    .release("m54743.atomtable")
                    .release("m54743.cache"),
            )
            .path(
                Path::new("atom_sweep")
                    .acquire("m54743.cache")
                    .acquire("m54743.atomtable")
                    .write("m54743.atom_data")
                    .write("m54743.cache_data")
                    .release("m54743.atomtable")
                    .release("m54743.cache"),
            ),
    }
    .build()
}

/// Mozilla#60303: three locks acquired in a rotating order.
pub(crate) fn dl_three_lock_cycle(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::DL_THREE_LOCK_CYCLE, v.name());
    let nested = |name: &str, first: &str, d1: &str, second: &str, d2: &str| {
        Path::new(name)
            .acquire(first)
            .write(d1)
            .acquire(second)
            .write(d2)
            .release(second)
            .release(first)
    };
    match v {
        Written::Buggy => s
            .path(nested("t0", "m60303.l0", "m60303.d0", "m60303.l1", "m60303.d1"))
            .path(nested("t1", "m60303.l1", "m60303.d1", "m60303.l2", "m60303.d2"))
            .path(nested("t2", "m60303.l2", "m60303.d2", "m60303.l0", "m60303.d0")),
        // The developers imposed a global l0 < l1 < l2 order.
        Written::DevFix => s
            .path(nested("t0", "m60303.l0", "m60303.d0", "m60303.l1", "m60303.d1"))
            .path(nested("t1", "m60303.l1", "m60303.d1", "m60303.l2", "m60303.d2"))
            .path(nested("t2", "m60303.l0", "m60303.d0", "m60303.l2", "m60303.d2")),
    }
    .build()
}

/// Mozilla#123930: a state/observer lock inversion the developers fixed
/// by *dropping* the nested acquisition — introducing a deliberate,
/// benign race.
pub(crate) fn dl_intentional_race(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::DL_INTENTIONAL_RACE, v.name());
    match v {
        Written::Buggy => s
            .path(
                Path::new("mutator")
                    .acquire("m123930.state")
                    .write("m123930.state_data")
                    .acquire("m123930.observer")
                    .write("m123930.observer_count")
                    .release("m123930.observer")
                    .release("m123930.state"),
            )
            .path(
                Path::new("notifier")
                    .acquire("m123930.observer")
                    .write("m123930.observer_count")
                    .acquire("m123930.state")
                    .write("m123930.state_data")
                    .release("m123930.state")
                    .release("m123930.observer"),
            ),
        // The racy counter update is modeled as a hardware RMW: the
        // developers' race is benign precisely because it is a single
        // word-sized update, which is the granularity the model (and the
        // recorder) treats as indivisible.
        Written::DevFix => s
            .path(
                Path::new("mutator")
                    .acquire("m123930.state")
                    .write("m123930.state_data")
                    .release("m123930.state")
                    .rmw("m123930.observer_count"),
            )
            .path(
                Path::new("notifier")
                    .acquire("m123930.state")
                    .write("m123930.state_data")
                    .release("m123930.state")
                    .acquire("m123930.observer")
                    .rmw("m123930.observer_count")
                    .release("m123930.observer"),
            ),
    }
    .build()
}

/// Apache-I (§5.4.2): the listener sleeps on the idle-worker condition
/// variable while holding the timeout mutex, which every worker needs
/// before it can notify — a lock-and-wait cycle no lock graph sees.
pub(crate) fn apache_i(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::APACHE_I, v.name());
    let worker = || {
        Path::new("worker")
            .acquire("apache1.queue_lock")
            .write("apache1.idle")
            .notify("apache1.idle_cv")
            .release("apache1.queue_lock")
            .acquire("apache1.timeout_mutex")
            .write("apache1.timeouts")
            .release("apache1.timeout_mutex")
    };
    match v {
        Written::Buggy => s
            .path(
                Path::new("listener")
                    .acquire("apache1.timeout_mutex")
                    .write("apache1.timeouts")
                    .acquire("apache1.queue_lock")
                    .read("apache1.idle")
                    .wait("apache1.idle_cv", "apache1.queue_lock", "apache1.idle")
                    .read("apache1.idle")
                    .write("apache1.idle")
                    .release("apache1.queue_lock")
                    .release("apache1.timeout_mutex"),
            )
            .path(worker()),
        // The developers moved the timeout work out from under the wait.
        Written::DevFix => s
            .path(
                Path::new("listener")
                    .acquire("apache1.queue_lock")
                    .read("apache1.idle")
                    .wait("apache1.idle_cv", "apache1.queue_lock", "apache1.idle")
                    .read("apache1.idle")
                    .write("apache1.idle")
                    .release("apache1.queue_lock")
                    .acquire("apache1.timeout_mutex")
                    .write("apache1.timeouts")
                    .release("apache1.timeout_mutex"),
            )
            .path(worker()),
    }
    .build()
}

/// Apache#11600: two local mutexes acquired in both orders.
pub(crate) fn dl_local_lock_order(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::DL_LOCAL_LOCK_ORDER, v.name());
    match v {
        Written::Buggy => s
            .path(
                Path::new("p0")
                    .acquire("a11600.mutex_a")
                    .write("a11600.data_a")
                    .acquire("a11600.mutex_b")
                    .write("a11600.data_b")
                    .release("a11600.mutex_b")
                    .release("a11600.mutex_a"),
            )
            .path(
                Path::new("p1")
                    .acquire("a11600.mutex_b")
                    .write("a11600.data_b")
                    .acquire("a11600.mutex_a")
                    .write("a11600.data_a")
                    .release("a11600.mutex_a")
                    .release("a11600.mutex_b"),
            ),
        Written::DevFix => s
            .path(
                Path::new("p0")
                    .acquire("a11600.mutex_a")
                    .write("a11600.data_a")
                    .acquire("a11600.mutex_b")
                    .write("a11600.data_b")
                    .release("a11600.mutex_b")
                    .release("a11600.mutex_a"),
            )
            .path(
                Path::new("p1")
                    .acquire("a11600.mutex_a")
                    .acquire("a11600.mutex_b")
                    .write("a11600.data_b")
                    .write("a11600.data_a")
                    .release("a11600.mutex_b")
                    .release("a11600.mutex_a"),
            ),
    }
    .build()
}

/// MySQL#3155: two table locks taken in statement order, which differs
/// between concurrent statements.
pub(crate) fn dl_mysql_table_pair(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::DL_MYSQL_TABLE_PAIR, v.name());
    match v {
        Written::Buggy => s
            .path(
                Path::new("stmt_ab")
                    .acquire("my3155.table1")
                    .write("my3155.rows1")
                    .acquire("my3155.table2")
                    .write("my3155.rows2")
                    .release("my3155.table2")
                    .release("my3155.table1"),
            )
            .path(
                Path::new("stmt_ba")
                    .acquire("my3155.table2")
                    .write("my3155.rows2")
                    .acquire("my3155.table1")
                    .write("my3155.rows1")
                    .release("my3155.table1")
                    .release("my3155.table2"),
            ),
        Written::DevFix => s
            .path(
                Path::new("stmt_ab")
                    .acquire("my3155.table1")
                    .write("my3155.rows1")
                    .acquire("my3155.table2")
                    .write("my3155.rows2")
                    .release("my3155.table2")
                    .release("my3155.table1"),
            )
            .path(
                Path::new("stmt_ba")
                    .acquire("my3155.table1")
                    .acquire("my3155.table2")
                    .write("my3155.rows2")
                    .write("my3155.rows1")
                    .release("my3155.table2")
                    .release("my3155.table1"),
            ),
    }
    .build()
}

/// Mozilla#133773/#18025: one client protects the cache counter with the
/// wrong (unrelated) lock, so the "protected" sections never exclude
/// each other.
pub(crate) fn av_wrong_lock(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_WRONG_LOCK, v.name());
    let right = |lock: &str| {
        Path::new("evictor")
            .acquire(lock)
            .read("m133773.cache_count")
            .write("m133773.cache_count")
            .release(lock)
    };
    match v {
        Written::Buggy => s.path(right("m133773.cache_lock")).path(
            Path::new("inserter")
                .acquire("m133773.unrelated_lock")
                .read("m133773.cache_count")
                .write("m133773.cache_count")
                .release("m133773.unrelated_lock"),
        ),
        Written::DevFix => s.path(right("m133773.cache_lock")).path(
            Path::new("inserter")
                .acquire("m133773.cache_lock")
                .read("m133773.cache_count")
                .write("m133773.cache_count")
                .release("m133773.cache_lock"),
        ),
    }
    .build()
}

/// Mozilla#90994-style: check-then-decrement of a reference count with
/// no synchronization at all.
pub(crate) fn av_refcount_race(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_REFCOUNT_RACE, v.name());
    let bare = |name: &str| Path::new(name).read("m.refcount").write("m.refcount");
    match v {
        Written::Buggy => s.path(bare("releaser")).path(bare("adopter")),
        // The developers switched to an atomic fetch-and-add.
        Written::DevFix => s
            .path(Path::new("releaser").rmw("m.refcount"))
            .path(Path::new("adopter").rmw("m.refcount")),
    }
    .build()
}

/// Mozilla#52271-style: unsynchronized check-then-initialize of a lazy
/// singleton.
pub(crate) fn av_lazy_init(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_LAZY_INIT, v.name());
    let bare = |name: &str| Path::new(name).read("m52271.initialized").write("m52271.initialized");
    let locked = |name: &str| {
        Path::new(name)
            .acquire("m52271.init_lock")
            .read("m52271.initialized")
            .write("m52271.initialized")
            .release("m52271.init_lock")
    };
    match v {
        Written::Buggy => s.path(bare("first_user")).path(bare("second_user")),
        Written::DevFix => s.path(locked("first_user")).path(locked("second_user")),
    }
    .build()
}

/// Mozilla#91106-style: the producer notifies the consumer's condition
/// variable *before* it has published the item — a waiter that checks
/// its predicate in between goes back to sleep forever.
pub(crate) fn av_cv_partial(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_CV_PARTIAL, v.name());
    let consumer = || {
        Path::new("consumer")
            .acquire("m91106.monitor")
            .read("m91106.items")
            .wait("m91106.cv", "m91106.monitor", "m91106.items")
            .read("m91106.items")
            .write("m91106.items")
            .release("m91106.monitor")
    };
    match v {
        Written::Buggy => s.path(consumer()).path(
            Path::new("producer")
                .notify("m91106.cv")
                .acquire("m91106.monitor")
                .write("m91106.items")
                .release("m91106.monitor"),
        ),
        Written::DevFix => s.path(consumer()).path(
            Path::new("producer")
                .acquire("m91106.monitor")
                .write("m91106.items")
                .notify("m91106.cv")
                .release("m91106.monitor"),
        ),
    }
    .build()
}

/// Apache#25520: worker scoreboard slots updated with no lock.
pub(crate) fn av_scoreboard(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_SCOREBOARD, v.name());
    let bare = |name: &str| Path::new(name).read("a25520.slot").write("a25520.slot");
    let locked = |name: &str| {
        Path::new(name)
            .acquire("a25520.scoreboard_lock")
            .read("a25520.slot")
            .write("a25520.slot")
            .release("a25520.scoreboard_lock")
    };
    match v {
        Written::Buggy => s.path(bare("worker")).path(bare("reaper")),
        Written::DevFix => s.path(locked("worker")).path(locked("reaper")),
    }
    .build()
}

/// Apache-II (§5.4.3): the buffered log writer reads the cursor, copies
/// bytes, and bumps the cursor — two writers interleaving tear both the
/// cursor and the buffer/cursor invariant.
pub(crate) fn apache_ii(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::APACHE_II, v.name())
        .group(&["apache2.log_buf", "apache2.log_cursor"]);
    let bare = |name: &str| {
        Path::new(name)
            .read("apache2.log_cursor")
            .write("apache2.log_buf")
            .write("apache2.log_cursor")
    };
    let locked = |name: &str| {
        Path::new(name)
            .acquire("apache2.log_lock")
            .read("apache2.log_cursor")
            .write("apache2.log_buf")
            .write("apache2.log_cursor")
            .release("apache2.log_lock")
    };
    match v {
        Written::Buggy => s.path(bare("writer1")).path(bare("writer2")),
        Written::DevFix => s.path(locked("writer1")).path(locked("writer2")),
    }
    .build()
}

/// Apache#31017: the request/byte counter pair must move together, but
/// each update is its own unsynchronized store.
pub(crate) fn av_pair_invariant(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_PAIR_INVARIANT, v.name())
        .group(&["a31017.requests", "a31017.bytes"]);
    match v {
        Written::Buggy => s
            .path(Path::new("updater").write("a31017.requests").write("a31017.bytes"))
            .path(Path::new("reporter").read("a31017.requests").read("a31017.bytes")),
        Written::DevFix => s
            .path(
                Path::new("updater")
                    .acquire("a31017.stats_lock")
                    .write("a31017.requests")
                    .write("a31017.bytes")
                    .release("a31017.stats_lock"),
            )
            .path(
                Path::new("reporter")
                    .acquire("a31017.stats_lock")
                    .read("a31017.requests")
                    .read("a31017.bytes")
                    .release("a31017.stats_lock"),
            ),
    }
    .build()
}

/// Apache#29850: read the shared sequence number, emit the log line,
/// bump the sequence — all unsynchronized.
pub(crate) fn av_log_sequence(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_LOG_SEQUENCE, v.name());
    let bare =
        |name: &str| Path::new(name).read("a29850.seq").write("a29850.log").write("a29850.seq");
    let locked = |name: &str| {
        Path::new(name)
            .acquire("a29850.writer_lock")
            .read("a29850.seq")
            .write("a29850.log")
            .write("a29850.seq")
            .release("a29850.writer_lock")
    };
    match v {
        Written::Buggy => s.path(bare("req1")).path(bare("req2")),
        Written::DevFix => s.path(locked("req1")).path(locked("req2")),
    }
    .build()
}

/// MySQL#12228: statistics counters updated without the status lock the
/// rest of the server uses.
pub(crate) fn av_stats_race(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_STATS_RACE, v.name());
    let bare = |name: &str| Path::new(name).read("my12228.queries").write("my12228.queries");
    let locked = |name: &str| {
        Path::new(name)
            .acquire("my12228.lock_status")
            .read("my12228.queries")
            .write("my12228.queries")
            .release("my12228.lock_status")
    };
    match v {
        Written::Buggy => s.path(bare("conn1")).path(bare("conn2")),
        Written::DevFix => s.path(locked("conn1")).path(locked("conn2")),
    }
    .build()
}

/// MySQL-I (§5.4.4): delete-all drops `lock_open` before writing the
/// binlog, so a concurrent insert can slip between table change and log
/// record — the table/binlog invariant tears.
pub(crate) fn mysql_i(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::MYSQL_I, v.name()).group(&["mysql1.table", "mysql1.binlog"]);
    let insert = || {
        Path::new("insert")
            .acquire("mysql1.lock_open")
            .write("mysql1.table")
            .write("mysql1.binlog")
            .release("mysql1.lock_open")
    };
    match v {
        Written::Buggy => s
            .path(
                Path::new("delete_all")
                    .acquire("mysql1.lock_open")
                    .read("mysql1.table")
                    .write("mysql1.table")
                    .release("mysql1.lock_open")
                    .write("mysql1.binlog"),
            )
            .path(insert()),
        Written::DevFix => s
            .path(
                Path::new("delete_all")
                    .acquire("mysql1.lock_open")
                    .read("mysql1.table")
                    .write("mysql1.table")
                    .write("mysql1.binlog")
                    .release("mysql1.lock_open"),
            )
            .path(insert()),
    }
    .build()
}

/// MySQL#16582: a hand-rolled version-check/redo mechanism — read the
/// version, write the value, bump the version, with no synchronization
/// underneath.
pub(crate) fn av_adhoc_retry(v: Written) -> ScenarioSummary {
    let s = Summary::new(crate::keys::AV_ADHOC_RETRY, v.name());
    let bare = |name: &str| {
        Path::new(name).read("my16582.version").write("my16582.value").write("my16582.version")
    };
    match v {
        Written::Buggy => s.path(bare("updater1")).path(bare("updater2")),
        // The developers collapsed the check/update into one CAS-style
        // atomic word operation.
        Written::DevFix => s
            .path(Path::new("updater1").rmw("my16582.record"))
            .path(Path::new("updater2").rmw("my16582.record")),
    }
    .build()
}
