//! The 60-bug dataset.
//!
//! Every aggregate stated in the paper's prose is reproduced exactly (and
//! asserted by this crate's tests): 60 bugs = 22 deadlocks + 38 atomicity
//! violations; 43 TM-fixable (12 DL + 31 AV); 9 deadlocks fixed by Recipe
//! 1 (6 of them simplified by Recipe 3, 3 non-preemptible), 3 more only by
//! Recipe 3; 22 AVs with completely missing synchronization, 17 of them
//! fixable by Recipe 2, 12 with a single atomic block (9 easy + 3 medium);
//! downcalls 5×CV (all Mozilla), 2×retry, 8×I/O, 7×long-action; 34 TM
//! fixes preferred; 18 fixes implemented (7 DL + 11 AV); 5 unfixable
//! deadlocks span non-preemptible multi-module code.
//!
//! Bug IDs that the paper names are used verbatim (`synthetic_id: false`);
//! the rest of the per-bug table is not public, so the remaining entries
//! are reconstructed to be consistent with every stated aggregate
//! (`synthetic_id: true`). See DESIGN.md §2.

use txfix_core::{App, BugChars, BugKind, BugRecord, DevFix, Difficulty, Downcalls, MissingSync};

/// Scenario keys for the 18 implemented fixes (see [`crate::scenarios`]).
pub mod keys {
    /// Mozilla-I: SpiderMonkey title-locking deadlock (§5.4.1).
    pub const MOZILLA_I: &str = "mozilla_i";
    /// Mozilla#54743: cache vs. atom-table AB-BA deadlock.
    pub const DL_CACHE_ATOMTABLE: &str = "dl_cache_atomtable";
    /// Mozilla#60303: three-lock cycle.
    pub const DL_THREE_LOCK_CYCLE: &str = "dl_three_lock_cycle";
    /// Mozilla#123930: deadlock the developers fixed by introducing a race.
    pub const DL_INTENTIONAL_RACE: &str = "dl_intentional_race";
    /// Apache-I: listener/worker lock-and-wait deadlock (§5.4.2).
    pub const APACHE_I: &str = "apache_i";
    /// Apache lock-order inversion fixable locally (the dev-preferred one).
    pub const DL_LOCAL_LOCK_ORDER: &str = "dl_local_lock_order";
    /// MySQL storage-engine table-pair lock inversion.
    pub const DL_MYSQL_TABLE_PAIR: &str = "dl_mysql_table_pair";
    /// Mozilla#133773/#18025: fix used the wrong lock.
    pub const AV_WRONG_LOCK: &str = "av_wrong_lock";
    /// Mozilla: reference-count check/decrement race.
    pub const AV_REFCOUNT_RACE: &str = "av_refcount_race";
    /// Mozilla: lazily-initialized singleton double initialization.
    pub const AV_LAZY_INIT: &str = "av_lazy_init";
    /// Mozilla: partially synchronized producer with condition variable.
    pub const AV_CV_PARTIAL: &str = "av_cv_partial";
    /// Apache#25520: scoreboard slot race.
    pub const AV_SCOREBOARD: &str = "av_scoreboard";
    /// Apache-II: buffered log writer (§5.4.3).
    pub const APACHE_II: &str = "apache_ii";
    /// Apache: two-field invariant updated non-atomically.
    pub const AV_PAIR_INVARIANT: &str = "av_pair_invariant";
    /// Apache: request/log sequence number race (deferred I/O).
    pub const AV_LOG_SEQUENCE: &str = "av_log_sequence";
    /// MySQL: statistics counters updated without the intended lock.
    pub const AV_STATS_RACE: &str = "av_stats_race";
    /// MySQL-I: delete-all vs. binlog ordering (§5.4.4).
    pub const MYSQL_I: &str = "mysql_i";
    /// MySQL#16582: hand-rolled conflict-check/abort/redo mechanism.
    pub const AV_ADHOC_RETRY: &str = "av_adhoc_retry";

    /// All 18 keys: the key column of [`SCENARIOS`](crate::SCENARIOS).
    pub const ALL: [&str; 18] = {
        let mut all = [""; 18];
        let mut i = 0;
        while i < all.len() {
            all[i] = crate::SCENARIOS[i].key;
            i += 1;
        }
        all
    };
}

const NO_DC: Downcalls = Downcalls::NONE;

#[allow(clippy::too_many_arguments)]
fn rec(
    id: &'static str,
    app: App,
    kind: BugKind,
    synthetic_id: bool,
    summary: &'static str,
    chars: BugChars,
    dev: (Difficulty, u32, u8),
    scenario: Option<&'static str>,
) -> BugRecord {
    BugRecord {
        id,
        app,
        kind,
        synthetic_id,
        summary,
        chars,
        dev_fix: DevFix { difficulty: dev.0, loc: dev.1, attempts: dev.2 },
        scenario,
    }
}

/// The full 60-bug dataset, in stable order (deadlocks first).
pub fn all_bugs() -> Vec<BugRecord> {
    use App::{Apache, Mozilla, MySql};
    use BugKind::{AtomicityViolation as Av, Deadlock as Dl};
    use Difficulty::{Easy, Hard, Medium};

    let dc = |condvar: bool, retry: bool, io: bool, long_action: bool, library: bool| Downcalls {
        condvar,
        retry,
        io,
        long_action,
        library,
    };

    vec![
        // ---------------- Mozilla deadlocks (13) -------------------------
        rec(
            "Mozilla#49816",
            Mozilla,
            Dl,
            true,
            "SpiderMonkey title-locking: claim object scope while holding setSlotLock (Mozilla-I)",
            BugChars {
                lock_cycle: true,
                fix_sites: 15,
                downcalls: dc(false, false, false, true, true),
                fix_extra_benefits: true, // retires ownership protocol, fixes 4 later bugs
                ..Default::default()
            },
            (Hard, 110, 2),
            Some(keys::MOZILLA_I),
        ),
        rec(
            "Mozilla#54743",
            Mozilla,
            Dl,
            false,
            "cache lock vs. atom-table lock acquired in opposite orders",
            BugChars { lock_cycle: true, fix_sites: 4, ..Default::default() },
            (Hard, 60, 3),
            Some(keys::DL_CACHE_ATOMTABLE),
        ),
        rec(
            "Mozilla#60303",
            Mozilla,
            Dl,
            false,
            "three locks acquired in a rotating order across threads",
            BugChars { lock_cycle: true, fix_sites: 5, ..Default::default() },
            (Hard, 45, 2),
            Some(keys::DL_THREE_LOCK_CYCLE),
        ),
        rec(
            "Mozilla#90994",
            Mozilla,
            Dl,
            false,
            "lock pair held across file I/O (non-preemptible section)",
            BugChars {
                lock_cycle: true,
                non_preemptible: true,
                fix_sites: 8,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Hard, 70, 2),
            None,
        ),
        rec(
            "Mozilla#123930",
            Mozilla,
            Dl,
            false,
            "deadlock the developers fixed by intentionally introducing a data race",
            BugChars { lock_cycle: true, fix_sites: 2, ..Default::default() },
            (Hard, 25, 2),
            Some(keys::DL_INTENTIONAL_RACE),
        ),
        rec(
            "Mozilla#79054",
            Mozilla,
            Dl,
            false,
            "wait on a condition variable with a second lock held",
            BugChars {
                cv_wait: true,
                fix_sites: 3,
                downcalls: dc(true, false, false, false, false),
                ..Default::default()
            },
            (Hard, 55, 3),
            None,
        ),
        rec(
            "Mozilla#110137",
            Mozilla,
            Dl,
            true,
            "condition wait that must become an abort-and-retry (no commit-before-wait fit)",
            BugChars {
                cv_wait: true,
                fix_sites: 2,
                downcalls: dc(false, true, false, false, false),
                fix_extra_benefits: true,
                ..Default::default()
            },
            (Hard, 40, 2),
            None,
        ),
        rec(
            "Mozilla#65146",
            Mozilla,
            Dl,
            false,
            "nested monitor lockout: waiter can only be signalled by a thread needing its lock",
            BugChars { cv_wait: true, two_way_communication: true, ..Default::default() },
            (Hard, 80, 3),
            None,
        ),
        rec(
            "Mozilla#88331",
            Mozilla,
            Dl,
            true,
            "two-way handshake between decoder and consumer threads",
            BugChars { cv_wait: true, two_way_communication: true, ..Default::default() },
            (Hard, 65, 2),
            None,
        ),
        rec(
            "Mozilla#27486",
            Mozilla,
            Dl,
            false,
            "thread waits for a signal from a component that was already destroyed",
            BugChars { design_flaw: true, ..Default::default() },
            (Medium, 30, 1),
            None,
        ),
        rec(
            "Mozilla#102764",
            Mozilla,
            Dl,
            true,
            "shutdown path waits on a thread pool that was never started",
            BugChars { design_flaw: true, ..Default::default() },
            (Hard, 50, 2),
            None,
        ),
        rec(
            "Mozilla#71035",
            Mozilla,
            Dl,
            true,
            "lock cycle across NSPR and layout modules with irreversible effects held",
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
            (Hard, 90, 2),
            None,
        ),
        rec(
            "Mozilla#143981",
            Mozilla,
            Dl,
            true,
            "lock cycle through a third-party plugin that cannot be modified",
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
            (Hard, 40, 1),
            None,
        ),
        // ---------------- Apache deadlocks (5) ---------------------------
        rec(
            "Apache#42031",
            Apache,
            Dl,
            true,
            "listener holds timeout mutex while waiting for an idle worker (Apache-I)",
            BugChars {
                cv_wait: true,
                fix_sites: 2,
                downcalls: dc(false, true, false, false, false),
                fix_extra_benefits: true, // no compensation code needed
                ..Default::default()
            },
            (Hard, 32, 4),
            Some(keys::APACHE_I),
        ),
        rec(
            "Apache#11600",
            Apache,
            Dl,
            true,
            "two locks acquired out of order within a single function",
            BugChars { lock_cycle: true, fix_sites: 2, ..Default::default() },
            (Easy, 6, 1),
            Some(keys::DL_LOCAL_LOCK_ORDER),
        ),
        rec(
            "Apache#33447",
            Apache,
            Dl,
            true,
            "mutex pair held across a cache rebuild (cannot roll back)",
            BugChars {
                lock_cycle: true,
                non_preemptible: true,
                fix_sites: 5,
                ..Default::default()
            },
            (Hard, 40, 2),
            None,
        ),
        rec(
            "Apache#52110",
            Apache,
            Dl,
            true,
            "cycle between core and mod_ssl locks around blocking I/O",
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
            (Hard, 55, 3),
            None,
        ),
        rec(
            "Apache#39814",
            Apache,
            Dl,
            true,
            "cycle between APR pools and module cleanup handlers",
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
            (Medium, 25, 1),
            None,
        ),
        // ---------------- MySQL deadlocks (4) ----------------------------
        rec(
            "MySQL#3155",
            MySql,
            Dl,
            true,
            "two tables locked in query order vs. index order",
            BugChars { lock_cycle: true, fix_sites: 3, ..Default::default() },
            (Medium, 20, 1),
            Some(keys::DL_MYSQL_TABLE_PAIR),
        ),
        rec(
            "MySQL#19278",
            MySql,
            Dl,
            true,
            "table lock pair held across binlog flush (non-preemptible)",
            BugChars {
                lock_cycle: true,
                non_preemptible: true,
                fix_sites: 6,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Medium, 30, 1),
            None,
        ),
        rec(
            "MySQL#28771",
            MySql,
            Dl,
            true,
            "cycle spanning server core and storage-engine plugin locks",
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
            (Hard, 60, 2),
            None,
        ),
        rec(
            "MySQL#44062",
            MySql,
            Dl,
            true,
            "replication thread waits for an event purged at startup",
            BugChars { design_flaw: true, ..Default::default() },
            (Hard, 45, 2),
            None,
        ),
        // ---------------- Mozilla atomicity violations (20) --------------
        rec(
            "Mozilla#133773",
            Mozilla,
            Av,
            false,
            "atomicity fix from Mozilla#18025 used the wrong lock; found four years later",
            BugChars {
                missing_sync: Some(MissingSync::WrongLock),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 18, 2),
            Some(keys::AV_WRONG_LOCK),
        ),
        rec(
            "Mozilla#18025",
            Mozilla,
            Av,
            false,
            "necko cache field guarded by the wrong lock",
            BugChars {
                missing_sync: Some(MissingSync::WrongLock),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 12, 1),
            None,
        ),
        rec(
            "Mozilla#73291",
            Mozilla,
            Av,
            true,
            "reference count checked then decremented non-atomically",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 15, 1),
            Some(keys::AV_REFCOUNT_RACE),
        ),
        rec(
            "Mozilla#52271",
            Mozilla,
            Av,
            true,
            "lazily initialized service constructed twice under races",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Hard, 35, 2),
            Some(keys::AV_LAZY_INIT),
        ),
        rec(
            "Mozilla#64508",
            Mozilla,
            Av,
            true,
            "history entry list re-read after unlocked window",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 22, 1),
            None,
        ),
        rec(
            "Mozilla#81204",
            Mozilla,
            Av,
            true,
            "download progress file updated by two threads without order",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Medium, 16, 1),
            None,
        ),
        rec(
            "Mozilla#97612",
            Mozilla,
            Av,
            true,
            "atomic block must call into the necko module transactionally",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, false, false, true),
                ..Default::default()
            },
            (Hard, 40, 2),
            None,
        ),
        rec(
            "Mozilla#105110",
            Mozilla,
            Av,
            true,
            "single block but spans a JS GC trigger (library + long action)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, false, true, true),
                ..Default::default()
            },
            (Medium, 28, 1),
            None,
        ),
        rec(
            "Mozilla#120358",
            Mozilla,
            Av,
            true,
            "six call sites mutate the image cache without synchronization",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                fix_sites: 6,
                downcalls: dc(false, false, false, true, false),
                ..Default::default()
            },
            (Hard, 60, 2),
            None,
        ),
        rec(
            "Mozilla#58229",
            Mozilla,
            Av,
            true,
            "twelve scattered accessors of the security context (very long sections)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                fix_sites: 12,
                downcalls: dc(false, false, false, true, false),
                ..Default::default()
            },
            (Hard, 95, 3),
            None,
        ),
        rec(
            "Mozilla#86455",
            Mozilla,
            Av,
            true,
            "five timer-callback sites race on the shared timer wheel",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                fix_sites: 5,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Hard, 50, 2),
            None,
        ),
        rec(
            "Mozilla#91106",
            Mozilla,
            Av,
            true,
            "producer updates queue outside the consumer's lock; wait inside fix (CV)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: dc(true, false, false, false, false),
                ..Default::default()
            },
            (Hard, 45, 2),
            Some(keys::AV_CV_PARTIAL),
        ),
        rec(
            "Mozilla#77690",
            Mozilla,
            Av,
            true,
            "event queue drained while observer registration is mid-update (CV)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 3,
                downcalls: dc(true, false, false, false, false),
                ..Default::default()
            },
            (Hard, 38, 2),
            None,
        ),
        rec(
            "Mozilla#99416",
            Mozilla,
            Av,
            true,
            "notification mask read outside the monitor that signals it (CV)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: dc(true, false, false, false, false),
                ..Default::default()
            },
            (Medium, 20, 1),
            None,
        ),
        rec(
            "Mozilla#113552",
            Mozilla,
            Av,
            true,
            "paint suppression flag raced against a long reflow (CV + long action)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: dc(true, false, false, true, false),
                ..Default::default()
            },
            (Hard, 42, 2),
            None,
        ),
        rec(
            "Mozilla#69808",
            Mozilla,
            Av,
            true,
            "hand-rolled ownership flag on the DNS record raced with eviction",
            BugChars {
                missing_sync: Some(MissingSync::AdHoc),
                fix_sites: 3,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Hard, 48, 2),
            None,
        ),
        rec(
            "Mozilla#19421",
            Mozilla,
            Av,
            false,
            "lock held while loading a URL, callback fires on completion (long latency)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                long_latency_callback: true,
                ..Default::default()
            },
            (Hard, 70, 2),
            None,
        ),
        rec(
            "Mozilla#124755",
            Mozilla,
            Av,
            true,
            "profile migration must run atomically AND exactly once",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                exactly_once: true,
                ..Default::default()
            },
            (Medium, 26, 1),
            None,
        ),
        rec(
            "Mozilla#72965",
            Mozilla,
            Av,
            false,
            "lost notifications waiting for I/O to arrive (kernel/process atomicity)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                cross_process_io: true,
                ..Default::default()
            },
            (Hard, 52, 3),
            None,
        ),
        rec(
            "Mozilla#135277",
            Mozilla,
            Av,
            true,
            "favicon fetch result applied atomically with a network round trip",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                long_latency_callback: true,
                ..Default::default()
            },
            (Medium, 24, 1),
            None,
        ),
        // ---------------- Apache atomicity violations (9) ----------------
        rec(
            "Apache#25520",
            Apache,
            Av,
            false,
            "scoreboard slot updated without a lock; fix needed lock declarations in two other places",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 20, 1),
            Some(keys::AV_SCOREBOARD),
        ),
        rec(
            "Apache#42361",
            Apache,
            Av,
            true,
            "ap_buffered_log_writer: two threads advance outputCount concurrently (Apache-II)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Medium, 20, 1),
            Some(keys::APACHE_II),
        ),
        rec(
            "Apache#31017",
            Apache,
            Av,
            true,
            "request count and byte count updated as two independent stores",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Hard, 30, 2),
            Some(keys::AV_PAIR_INVARIANT),
        ),
        rec(
            "Apache#48550",
            Apache,
            Av,
            true,
            "atomic block calls into mod_cache helpers (library downcall)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, false, false, true),
                ..Default::default()
            },
            (Hard, 33, 2),
            None,
        ),
        rec(
            "Apache#36220",
            Apache,
            Av,
            true,
            "seven sites update the connection table; flush interleaves (multi-block, I/O)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                fix_sites: 7,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Medium, 35, 1),
            None,
        ),
        rec(
            "Apache#29850",
            Apache,
            Av,
            true,
            "log sequence number advanced outside the writer's critical section",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Medium, 22, 1),
            Some(keys::AV_LOG_SEQUENCE),
        ),
        rec(
            "Apache#40945",
            Apache,
            Av,
            true,
            "worker recycling path skips the queue lock taken everywhere else",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                fix_sites: 4,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 28, 1),
            None,
        ),
        rec(
            "Apache#23796",
            Apache,
            Av,
            true,
            "config reload guarded by the pool lock instead of the vhost lock",
            BugChars {
                missing_sync: Some(MissingSync::WrongLock),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 14, 1),
            None,
        ),
        rec(
            "Apache#7617",
            Apache,
            Av,
            false,
            "two processes race reading from the same pipe (cross-process I/O atomicity)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                cross_process_io: true,
                ..Default::default()
            },
            (Hard, 44, 2),
            None,
        ),
        // ---------------- MySQL atomicity violations (9) -----------------
        rec(
            "MySQL#12228",
            MySql,
            Av,
            true,
            "handler statistics counters updated with no synchronization",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 18, 1),
            Some(keys::AV_STATS_RACE),
        ),
        rec(
            "MySQL#25073",
            MySql,
            Av,
            true,
            "query-cache invalidation races with concurrent lookup",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Easy, 10, 1),
            None,
        ),
        rec(
            "MySQL#30591",
            MySql,
            Av,
            true,
            "five key-cache touchpoints race with the flush thread (I/O + long scan)",
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                fix_sites: 5,
                downcalls: dc(false, false, true, true, false),
                ..Default::default()
            },
            (Hard, 55, 2),
            None,
        ),
        rec(
            "MySQL#9953",
            MySql,
            Av,
            true,
            "optimized DELETE releases lock_open before writing the binlog (MySQL-I)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                single_atomic_block: true,
                fix_sites: 1,
                downcalls: dc(false, false, true, false, false),
                ..Default::default()
            },
            (Hard, 103, 1),
            Some(keys::MYSQL_I),
        ),
        rec(
            "MySQL#16582",
            MySql,
            Av,
            false,
            "hand-rolled conflict checking, abort, rollback and re-execution instead of locks",
            BugChars {
                missing_sync: Some(MissingSync::AdHoc),
                fix_sites: 3,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Hard, 103, 2),
            Some(keys::AV_ADHOC_RETRY),
        ),
        rec(
            "MySQL#21287",
            MySql,
            Av,
            true,
            "slow-query log toggles bypass the lock held by writers",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                fix_sites: 4,
                downcalls: NO_DC,
                ..Default::default()
            },
            (Medium, 26, 1),
            None,
        ),
        rec(
            "MySQL#33814",
            MySql,
            Av,
            true,
            "table-cache eviction uses the wrong lock around a long scan",
            BugChars {
                missing_sync: Some(MissingSync::WrongLock),
                single_atomic_block: true,
                fix_sites: 2,
                downcalls: dc(false, false, false, true, false),
                ..Default::default()
            },
            (Hard, 36, 2),
            None,
        ),
        rec(
            "MySQL#14712",
            MySql,
            Av,
            true,
            "two server processes interleave on the shared error-log pipe",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                cross_process_io: true,
                ..Default::default()
            },
            (Hard, 40, 2),
            None,
        ),
        rec(
            "MySQL#27350",
            MySql,
            Av,
            true,
            "dump thread must atomically snapshot and stream (long-latency callback)",
            BugChars {
                missing_sync: Some(MissingSync::Partial),
                long_latency_callback: true,
                ..Default::default()
            },
            (Medium, 30, 1),
            None,
        ),
    ]
}

/// Look up one bug by ID.
pub fn bug_by_id(id: &str) -> Option<BugRecord> {
    all_bugs().into_iter().find(|b| b.id == id)
}

/// Look up the bug implemented by a scenario key.
pub fn bug_by_scenario(key: &str) -> Option<BugRecord> {
    all_bugs().into_iter().find(|b| b.scenario == Some(key))
}
