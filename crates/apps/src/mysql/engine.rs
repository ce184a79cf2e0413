//! The MiniDb engine: three variants of the `DELETE FROM t` path.
//!
//! | variant | delete path | matches |
//! |---|---|---|
//! | [`MysqlVariant::Buggy`] | release `lock_open` before logging | the shipped optimization |
//! | [`MysqlVariant::DevFix`] | extend `lock_open` over delete + log | the obvious lock fix the paper judges *hard* (needs understanding of MySQL's most contended lock) |
//! | [`MysqlVariant::TmRecipe4`] | atomic/lock-serialized section around delete + log | the paper's Recipe 4 fix (easy, local to the rare delete-all path) |

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txfix_core::wrap_unprotected_atomic;
use txfix_stm::sched;
use txfix_stm::trace::TracedCell;
use txfix_tmsync::{SerialDomain, SerialMutex};

/// One table row.
pub type Row = (u64, i64);

/// A binlog record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinlogEntry {
    /// `INSERT INTO <table> VALUES (id, val)`.
    Insert {
        /// Table index.
        table: usize,
        /// Row id.
        id: u64,
        /// Row value.
        val: i64,
    },
    /// `DELETE FROM <table>` (delete all rows).
    DeleteAll {
        /// Table index.
        table: usize,
    },
}

/// Which delete-path implementation the engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MysqlVariant {
    /// Unlock `lock_open` before logging (the bug).
    Buggy,
    /// Hold `lock_open` across delete + log.
    DevFix,
    /// Recipe 4: wrap delete + log in an atomic section serialized against
    /// every lock critical section.
    TmRecipe4,
}

/// The in-memory database.
pub struct MiniDb {
    variant: MysqlVariant,
    domain: Arc<SerialDomain>,
    /// The global table-cache lock; every query's critical sections run
    /// under it (in shared domain mode so Recipe 4 can serialize against
    /// them).
    lock_open: SerialMutex<()>,
    tables: Vec<SerialMutex<Vec<Row>>>,
    binlog: Mutex<Vec<BinlogEntry>>,
    /// Version stamp of the binlog, bumped once per appended record. The
    /// correct paths bump it atomically inside their critical sections; the
    /// buggy delete bumps it with a plain read-then-write outside any lock,
    /// which is exactly the unserialized window the analyzers (and the
    /// deterministic scheduler) need to observe.
    binlog_stamp: TracedCell,
    /// Spin-width of the buggy unlock-to-log window (tests widen it).
    racy_window_spins: u32,
    /// Simulated per-row storage-engine work.
    row_cost_spins: u32,
}

impl fmt::Debug for MiniDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MiniDb")
            .field("variant", &self.variant)
            .field("tables", &self.tables.len())
            .field("binlog_len", &self.binlog.lock().len())
            .finish()
    }
}

fn spin(n: u32) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

impl MiniDb {
    /// Create a database with `tables` empty tables.
    pub fn new(variant: MysqlVariant, tables: usize) -> MiniDb {
        let domain = SerialDomain::new();
        MiniDb {
            variant,
            lock_open: SerialMutex::new(domain.clone(), ()),
            tables: (0..tables).map(|_| SerialMutex::new(domain.clone(), Vec::new())).collect(),
            domain,
            binlog: Mutex::new(Vec::new()),
            binlog_stamp: TracedCell::new("mysql1.binlog", 0),
            racy_window_spins: 0,
            row_cost_spins: 200,
        }
    }

    /// Widen the buggy unlock-to-log window (test determinism).
    pub fn with_racy_window(mut self, spins: u32) -> MiniDb {
        self.racy_window_spins = spins;
        self
    }

    /// Set the simulated per-row storage-engine work (spin iterations).
    /// Benchmarks raise this so table work dominates lock overhead, as in
    /// a real storage engine.
    pub fn with_row_cost(mut self, spins: u32) -> MiniDb {
        self.row_cost_spins = spins;
        self
    }

    /// The engine variant.
    pub fn variant(&self) -> MysqlVariant {
        self.variant
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// `INSERT INTO tables[t] VALUES (id, val)` — the *correct* path: a
    /// brief `lock_open` (table-cache lookup) and then the table's logical
    /// lock held across the physical insert **and** its binlog record, so
    /// operations on different tables proceed in parallel (all variants
    /// share this path).
    pub fn insert(&self, t: usize, id: u64, val: i64) {
        {
            let _open = self.lock_open.lock();
        }
        let mut rows = self.tables[t].lock();
        spin(self.row_cost_spins);
        rows.push((id, val));
        self.binlog.lock().push(BinlogEntry::Insert { table: t, id, val });
        self.binlog_stamp.fetch_add(1);
    }

    /// `DELETE FROM tables[t]` — the buggy/fixed path, per variant.
    pub fn delete_all(&self, t: usize) {
        match self.variant {
            MysqlVariant::Buggy => self.delete_all_hooked(t, || spin(self.racy_window_spins)),
            MysqlVariant::DevFix => {
                // The un-optimized path: table lock held through the log
                // write, like the insert path. Requires understanding the
                // table-locking discipline (judged hard), but deletes on
                // different tables still run in parallel.
                {
                    let _open = self.lock_open.lock();
                }
                let mut rows = self.tables[t].lock();
                spin(self.row_cost_spins);
                rows.clear();
                self.binlog.lock().push(BinlogEntry::DeleteAll { table: t });
                self.binlog_stamp.fetch_add(1);
            }
            MysqlVariant::TmRecipe4 => {
                // Recipe 4: local to this (rare) operation, no knowledge of
                // the locking discipline required — the atomic section is
                // serialized against EVERY lock critical section in the
                // domain, which is also why it costs concurrency (§5.4.4's
                // ~50% result).
                wrap_unprotected_atomic(&self.domain, |_txn| {
                    // Domain held exclusively: the per-table lock below is
                    // uncontended and only satisfies the type system.
                    let mut rows = self.tables[t].lock();
                    spin(self.row_cost_spins);
                    rows.clear();
                    drop(rows);
                    self.binlog.lock().push(BinlogEntry::DeleteAll { table: t });
                    self.binlog_stamp.fetch_add(1);
                    Ok(())
                });
            }
        }
    }

    /// Like [`delete_all`](MiniDb::delete_all), but runs `window` at the
    /// point where the buggy variant has dropped the table's logical lock
    /// and not yet written the binlog — a deterministic stand-in for "a
    /// concurrent INSERT executes right here". For the fixed variants no
    /// such point exists, so `window` runs before the (atomic) operation.
    pub fn delete_all_hooked(&self, t: usize, window: impl FnOnce()) {
        match self.variant {
            MysqlVariant::Buggy => {
                // The shipped optimization: drop logical isolation over the
                // table before the binlog write.
                {
                    let _open = self.lock_open.lock();
                }
                // Clearing the table and reading the binlog version are one
                // scheduler step, so the window opens after the read.
                let logged = {
                    let _one_step = sched::atomic_section();
                    let mut rows = self.tables[t].lock();
                    spin(self.row_cost_spins);
                    rows.clear();
                    drop(rows); // table lock released here — too early!
                    self.binlog_stamp.load()
                };
                window(); // the INSERT (and its log record) lands here
                self.binlog_stamp.store(logged + 1);
                self.binlog.lock().push(BinlogEntry::DeleteAll { table: t });
            }
            MysqlVariant::DevFix | MysqlVariant::TmRecipe4 => {
                window();
                self.delete_all(t);
            }
        }
    }

    /// Snapshot of table `t`.
    pub fn rows(&self, t: usize) -> Vec<Row> {
        self.tables[t].lock().clone()
    }

    /// Snapshot of the binlog.
    pub fn binlog(&self) -> Vec<BinlogEntry> {
        self.binlog.lock().clone()
    }
}

/// Whether `db`'s tables match a replay of its binlog — the invariant the
/// MySQL-I bug breaks.
pub fn consistent_with_binlog(db: &MiniDb) -> bool {
    let replayed = replay_binlog(&db.binlog(), db.table_count());
    (0..db.table_count()).all(|t| {
        let mut actual = db.rows(t);
        let mut expect = replayed[t].clone();
        actual.sort_unstable();
        expect.sort_unstable();
        actual == expect
    })
}

/// Replay a binlog into per-table row sets (what a replica would compute).
pub fn replay_binlog(entries: &[BinlogEntry], tables: usize) -> Vec<Vec<Row>> {
    let mut state: Vec<Vec<Row>> = vec![Vec::new(); tables];
    for e in entries {
        match *e {
            BinlogEntry::Insert { table, id, val } => state[table].push((id, val)),
            BinlogEntry::DeleteAll { table } => state[table].clear(),
        }
    }
    state
}

/// Workload parameters for the MySQL-I reproduction.
#[derive(Clone, Copy, Debug)]
pub struct MysqlWorkload {
    /// Insert threads.
    pub insert_threads: usize,
    /// Inserts per thread.
    pub inserts_per_thread: u64,
    /// Delete-all threads.
    pub delete_threads: usize,
    /// Delete-all operations per delete thread.
    pub deletes_per_thread: u64,
    /// Tables.
    pub tables: usize,
}

impl Default for MysqlWorkload {
    fn default() -> Self {
        MysqlWorkload {
            insert_threads: 4,
            inserts_per_thread: 400,
            delete_threads: 1,
            deletes_per_thread: 40,
            tables: 4,
        }
    }
}

/// Outcome of a workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct MysqlOutcome {
    /// Whether the server's final tables diverge from a binlog replay —
    /// the MySQL-I atomicity violation observed.
    pub replay_divergence: bool,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Total queries executed.
    pub queries: u64,
}

/// Run concurrent INSERT / DELETE-all traffic against `db` and check the
/// binlog-replay invariant.
pub fn run_mysql_workload(db: &MiniDb, w: &MysqlWorkload) -> MysqlOutcome {
    assert!(db.table_count() >= w.tables);
    let next_id = AtomicU64::new(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for it in 0..w.insert_threads {
            let db = &db;
            let next_id = &next_id;
            s.spawn(move || {
                for i in 0..w.inserts_per_thread {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let t = (it as u64 + i) as usize % w.tables;
                    db.insert(t, id, (i as i64) * 3 + it as i64);
                }
            });
        }
        for dt in 0..w.delete_threads {
            let db = &db;
            s.spawn(move || {
                for i in 0..w.deletes_per_thread {
                    let t = (dt as u64 + i) as usize % w.tables;
                    db.delete_all(t);
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let replayed = replay_binlog(&db.binlog(), w.tables);
    let mut divergence = false;
    for (t, replay) in replayed.iter().enumerate() {
        let mut actual = db.rows(t);
        let mut expect = replay.clone();
        actual.sort_unstable();
        expect.sort_unstable();
        if actual != expect {
            divergence = true;
        }
    }
    MysqlOutcome {
        replay_divergence: divergence,
        elapsed,
        queries: (w.insert_threads as u64 * w.inserts_per_thread)
            + (w.delete_threads as u64 * w.deletes_per_thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_replay_agree_sequentially() {
        let db = MiniDb::new(MysqlVariant::Buggy, 2);
        db.insert(0, 1, 10);
        db.insert(1, 2, 20);
        db.delete_all(0);
        db.insert(0, 3, 30);
        let replayed = replay_binlog(&db.binlog(), 2);
        assert_eq!(replayed[0], db.rows(0));
        assert_eq!(replayed[1], db.rows(1));
    }

    #[test]
    fn buggy_variant_diverges_with_insert_in_window() {
        let db = MiniDb::new(MysqlVariant::Buggy, 1);
        db.insert(0, 1, 10);
        db.insert(0, 2, 20);
        // The INSERT that executes between the delete's unlock and its log
        // record (paper Figure 5's interleaving).
        db.delete_all_hooked(0, || db.insert(0, 99, 99));
        assert!(!consistent_with_binlog(&db), "expected binlog/table divergence");
        // The server kept the row, but a replica replaying the log drops it.
        assert_eq!(db.rows(0), vec![(99, 99)]);
        assert_eq!(replay_binlog(&db.binlog(), 1)[0], Vec::<Row>::new());
    }

    #[test]
    fn fixed_variants_stay_consistent_with_insert_near_window() {
        for v in [MysqlVariant::DevFix, MysqlVariant::TmRecipe4] {
            let db = MiniDb::new(v, 1);
            db.insert(0, 1, 10);
            db.delete_all_hooked(0, || db.insert(0, 99, 99));
            assert!(consistent_with_binlog(&db), "{v:?} diverged");
        }
    }

    #[test]
    fn dev_fix_never_diverges() {
        let db = MiniDb::new(MysqlVariant::DevFix, 2).with_racy_window(20_000);
        let out = run_mysql_workload(&db, &MysqlWorkload { tables: 2, ..Default::default() });
        assert!(!out.replay_divergence);
    }

    #[test]
    fn recipe4_fix_never_diverges() {
        let db = MiniDb::new(MysqlVariant::TmRecipe4, 2).with_racy_window(20_000);
        let out = run_mysql_workload(&db, &MysqlWorkload { tables: 2, ..Default::default() });
        assert!(!out.replay_divergence);
    }

    #[test]
    fn replay_handles_interleaved_tables() {
        let log = vec![
            BinlogEntry::Insert { table: 0, id: 1, val: 1 },
            BinlogEntry::Insert { table: 1, id: 2, val: 2 },
            BinlogEntry::DeleteAll { table: 0 },
            BinlogEntry::Insert { table: 0, id: 3, val: 3 },
        ];
        let state = replay_binlog(&log, 2);
        assert_eq!(state[0], vec![(3, 3)]);
        assert_eq!(state[1], vec![(2, 2)]);
    }
}
