//! Case-study performance comparisons (paper §5.4, Table 4).
//!
//! Each runner drives the developer-fixed and TM-fixed variants of one
//! case study with the same workload and reports throughput relative to
//! the developers' fix — the paper's metric. Absolute numbers depend on
//! the host; the *shape* (who wins, by roughly what factor) is the
//! reproduction target recorded in EXPERIMENTS.md.
//!
//! This module is the only code that measures a Table 4 case study:
//! [`cases()`] runs all four, and `table4` prints from it. Each row's
//! fixed cells (cause, characteristics, LOC) and each variant's paper
//! figure sit beside the runner that measures it.

use std::time::{Duration, Instant};
use txfix_apps::apache::buffered_log::{make_record, RECORD_LEN};
use txfix_apps::apache::{
    run_apache1, Apache1Config, Apache1Variant, LockedBufferedLog, LogWriter, TmBufferedLog,
};
use txfix_apps::mysql::{MiniDb, MysqlVariant};
use txfix_apps::spidermonkey::{
    run_script_workload, HwModelStore, ObjectStore, OwnershipMode, OwnershipStore, PreemptStore,
    ScriptParams, StmStore,
};
use txfix_xcall::SimFs;

/// One measured variant.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Variant label.
    pub name: &'static str,
    /// Operations per second (higher is better).
    pub ops_per_sec: f64,
    /// Throughput relative to the developers' fix (1.0 = parity).
    pub relative_to_dev: f64,
    /// The paper's figure for this variant relative to the developers'
    /// fix, if it reports one.
    pub paper_relative: Option<f64>,
}

/// One Table 4 row: the paper's fixed cells plus the measured variants.
#[derive(Clone, Debug)]
pub struct CaseComparison {
    /// Case-study id, Table 4's "Bug ID" (e.g. "Mozilla-I").
    pub case: &'static str,
    /// Bug class: "DL" (deadlock) or "AV" (atomicity violation).
    pub cause: &'static str,
    /// Table 4's "Characteristics" cell.
    pub characteristics: &'static str,
    /// Recipe used by the TM fix.
    pub recipe: &'static str,
    /// Size of the paper's TM fix in lines of code.
    pub loc: u32,
    /// Measured variants (first entry is the developers' fix, second the
    /// primary TM fix).
    pub measurements: Vec<Measurement>,
}

impl CaseComparison {
    fn primary(&self) -> Option<&Measurement> {
        self.measurements.get(1)
    }

    /// The paper's headline figure: the primary TM fix relative to the
    /// developers' fix.
    pub fn paper_relative(&self) -> f64 {
        self.primary().and_then(|m| m.paper_relative).unwrap_or(f64::NAN)
    }

    /// The headline measured relative performance: the primary TM fix
    /// vs. the developers' fix.
    pub fn measured_relative(&self) -> f64 {
        self.primary().map_or(f64::NAN, |m| m.relative_to_dev)
    }

    /// Render a small report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} ({}) — paper: TM at {:.1}% of developer fix\n",
            self.case,
            self.recipe,
            self.paper_relative() * 100.0
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "  {:38} {:>12.0} ops/s   {:>6.1}% of dev fix\n",
                m.name,
                m.ops_per_sec,
                m.relative_to_dev * 100.0
            ));
        }
        out
    }
}

/// Run the four case studies in Table 4's row order.
pub fn cases() -> [CaseComparison; 4] {
    [mozilla_i_comparison(), apache_i_comparison(), apache_ii_comparison(), mysql_i_comparison()]
}

/// Best-of-N throughput: repeated runs damp single-core scheduler noise
/// (the best run is the least interfered-with one).
fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n.max(1)).map(|_| f()).fold(0.0f64, f64::max)
}

/// Turn `(name, paper figure, ops/s)` rows, developers' fix first, into
/// measurements relative to that fix.
fn relative(raw: Vec<(&'static str, Option<f64>, f64)>) -> Vec<Measurement> {
    let dev = raw.first().map_or(1.0, |r| r.2);
    raw.into_iter()
        .map(|(name, paper_relative, ops)| Measurement {
            name,
            ops_per_sec: ops,
            relative_to_dev: if dev > 0.0 { ops / dev } else { f64::NAN },
            paper_relative,
        })
        .collect()
}

/// Mozilla-I (§5.4.1): four interpreter threads over the shared runtime.
///
/// Measured variants: developers' fix (ownership protocol with
/// drop-before-block), Recipe 1 on the native STM, Recipe 1 on the
/// hardware model, Recipe 3 preemption. The hardware row is the only
/// modelled one: there is no HTM to run.
fn mozilla_i_comparison() -> CaseComparison {
    let params = ScriptParams {
        threads: 4,
        objects_per_thread: 8,
        slots: 8,
        shared_objects: 4,
        iterations: 4_000,
        cross_object_period: 64,
        // Calibrated interpreter work per op: property accesses are a large
        // minority of a SunSpider iteration, not all of it.
        compute_ns: 250,
    };
    let total = params.total_objects();

    let run = |store: &dyn ObjectStore| -> f64 {
        best_of(3, || {
            let out = run_script_workload(store, &params);
            assert_eq!(out.abandoned, 0, "{}", store.variant_name());
            out.ops_per_sec
        })
    };

    let dev = OwnershipStore::new(OwnershipMode::DevFix, total, params.slots);
    let sw = StmStore::new(total, params.slots);
    let hw = HwModelStore::new(total, params.slots);
    let pre = PreemptStore::new(total, params.slots);

    CaseComparison {
        case: "Mozilla-I",
        cause: "DL",
        characteristics: "involves locks only",
        recipe: "recipe 1 (and 3)",
        loc: 23,
        measurements: relative(vec![
            ("developer fix (ownership protocol)", None, run(&dev)),
            ("recipe 1, native STM", Some(0.21), run(&sw)),
            ("recipe 1, hardware TM (modelled)", Some(0.993), run(&hw)),
            ("recipe 3, preemptible locks", Some(0.85), run(&pre)),
        ]),
    }
}

/// Apache-I (§5.4.2): saturated listener/worker handoff. Paper: TM fix at
/// ~78–85% of the developers' fix under stress.
fn apache_i_comparison() -> CaseComparison {
    let connections = 300;
    let base = Apache1Config {
        workers: 4,
        connections,
        process_cost: Duration::from_micros(20),
        ..Default::default()
    };
    let run = |variant| -> f64 {
        best_of(3, || {
            let out = run_apache1(&Apache1Config { variant, ..base });
            assert!(!out.deadlocked);
            assert_eq!(out.completed, connections);
            out.completed as f64 / out.elapsed.as_secs_f64().max(1e-9)
        })
    };
    CaseComparison {
        case: "Apache-I",
        cause: "DL",
        characteristics: "involves lock and wait",
        recipe: "recipe 3",
        loc: 32,
        measurements: relative(vec![
            ("developer fix (unlock before wait)", None, run(Apache1Variant::DevFix)),
            ("recipe 3 (revocable lock + retry)", Some(0.85), run(Apache1Variant::TmFix)),
        ]),
    }
}

/// Apache-II (§5.4.3): request loop with one buffered-log write per
/// request, against the developers' per-log locks.
fn apache_ii_comparison() -> CaseComparison {
    const THREADS: usize = 4;
    let requests = 1_000u64;
    // Parsing, handler dispatch and response generation dwarf the log
    // append in a real request; `ab` measures whole requests (~80µs/request
    // ≈ 12.5k req/s, typical for static content on one core).
    let request_work = Duration::from_micros(80);

    let run = |log: &dyn LogWriter| -> f64 {
        best_of(3, || {
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    s.spawn(move || {
                        for i in 0..requests {
                            // Serve the (simulated) request, then log it.
                            busy(request_work);
                            log.write_record(&make_record(t, i));
                        }
                    });
                }
            });
            log.flush();
            (THREADS as u64 * requests) as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
    };

    let fs = SimFs::new();
    let dev = LockedBufferedLog::new(&fs, "dev.log", 64 * RECORD_LEN);
    let tm = TmBufferedLog::new(&fs, "tm.log", 64 * RECORD_LEN);
    CaseComparison {
        case: "Apache-II",
        cause: "AV",
        characteristics: "complete missing synchronization",
        recipe: "recipe 2",
        loc: 20,
        measurements: relative(vec![
            ("developer fix (per-log lock)", None, run(&dev)),
            ("recipe 2 (atomic block + x-call)", Some(0.965), run(&tm)),
        ]),
    }
}

/// MySQL-I (§5.4.4): repeated delete-all on different tables plus insert
/// traffic. Paper: TM fix at ~50% of the developers' fix on the delete
/// stress — Recipe 4's atomic/lock serialization costs *concurrency*:
/// deletes on different tables run in parallel under per-table locks but
/// strictly serially under the domain-exclusive atomic section. Measured
/// as wall-clock throughput of one thread per table, so the loss is only
/// as large as the host's parallelism (none on one core).
fn mysql_i_comparison() -> CaseComparison {
    const TABLES: usize = 4;
    let deletes = 400u64;
    let run = |variant| -> f64 {
        // Raise the per-row engine work so the table section dominates
        // lock overhead, as it does in a real storage engine.
        let db = MiniDb::new(variant, TABLES).with_row_cost(4_000);
        for t in 0..TABLES {
            for i in 0..8 {
                db.insert(t, i, i as i64);
            }
        }
        let start = Instant::now();
        std::thread::scope(|s| {
            for dt in 0..TABLES {
                let db = &db;
                s.spawn(move || {
                    for i in 0..deletes {
                        db.delete_all(dt);
                        db.insert(dt, i, i as i64);
                        db.insert(dt, i + deletes, i as i64);
                    }
                });
            }
        });
        (TABLES as u64 * deletes * 3) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    CaseComparison {
        case: "MySQL-I",
        cause: "AV",
        characteristics: "partial missing synchronization",
        recipe: "recipe 4",
        loc: 103,
        measurements: relative(vec![
            ("developer fix (table lock through log)", None, run(MysqlVariant::DevFix)),
            ("recipe 4 (atomic/lock serialization)", Some(0.50), run(MysqlVariant::TmRecipe4)),
        ]),
    }
}

fn busy(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_stm::hooks;

    #[test]
    fn quick_comparisons_produce_sane_relatives() {
        let _g = hooks::arm(0);
        let cases = cases();
        // Table 4's fixed cells: id, cause, LOC and every paper figure,
        // developers' fix first (it has none).
        let fixed: Vec<_> = cases
            .iter()
            .map(|c| {
                let paper: Vec<_> = c.measurements.iter().map(|m| m.paper_relative).collect();
                (c.case, c.cause, c.loc, paper)
            })
            .collect();
        assert_eq!(
            fixed,
            [
                ("Mozilla-I", "DL", 23, vec![None, Some(0.21), Some(0.993), Some(0.85)]),
                ("Apache-I", "DL", 32, vec![None, Some(0.85)]),
                ("Apache-II", "AV", 20, vec![None, Some(0.965)]),
                ("MySQL-I", "AV", 103, vec![None, Some(0.50)]),
            ]
        );
        for c in &cases {
            assert_eq!(c.paper_relative(), c.measurements[1].paper_relative.unwrap());
            assert!((c.measurements[0].relative_to_dev - 1.0).abs() < 1e-9);
            for m in &c.measurements {
                assert!(m.ops_per_sec > 0.0, "{}: {m:?}", c.case);
                assert!(m.relative_to_dev.is_finite());
            }
            assert!(!c.render().is_empty());
        }
    }

    #[test]
    fn tm_fixes_cost_performance_in_the_paper_direction() {
        let _g = hooks::arm(0);
        // Shape assertions (generous bounds — CI machines vary): the
        // Recipe 1 fix on the native STM is markedly slower than the
        // developers' fix, and Recipe 4 costs concurrency on the delete
        // stress wherever there is concurrency to cost.
        let m = mozilla_i_comparison();
        let sw = &m.measurements[1];
        assert!(
            sw.relative_to_dev < 0.8,
            "the native STM should be well below the dev fix, got {:.2}",
            sw.relative_to_dev
        );
        let hw = &m.measurements[2];
        assert!(hw.relative_to_dev > sw.relative_to_dev, "hardware model should beat the STM");

        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            eprintln!("MySQL-I shape skipped: one core has no parallelism for recipe 4 to lose");
            return;
        }
        let my = mysql_i_comparison();
        assert!(
            my.measured_relative() < 0.95,
            "recipe 4 serialization should cost concurrency, got {:.2}",
            my.measured_relative()
        );
    }
}
