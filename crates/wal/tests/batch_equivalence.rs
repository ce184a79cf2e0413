//! `Wal::x_log_ops` queues its whole commit protocol as one `x_queue`
//! batch — one entry into the log file's isolation lock per commit. These
//! tests hold it against the protocol spelled out as single x-calls (how
//! it was written before batching): same file bytes, same crash points in
//! the same places, same x-call count, same fault sites, same undo.
//!
//! Crash points, chaos plans and obs counters are process-global, so every
//! test here holds the arming guard (`hooks::arm(0)`).

use txfix_stm::chaos::{self, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::hooks::{self, Armed};
use txfix_stm::{obs, StmResult, Txn};
use txfix_wal::{Wal, WalOp, WalVariant, AFTER_COMMIT_WRITE};
use txfix_xcall::{crashpoint, SimFs};

type LogFn = fn(&Wal, &mut Txn, u64, &[WalOp]) -> StmResult<()>;

/// The commit protocol, one x-call per step.
fn stepwise(wal: &Wal, txn: &mut Txn, txid: u64, ops: &[WalOp]) -> StmResult<()> {
    let file = wal.file();
    for op in ops {
        let line = match op {
            WalOp::Put(k, v) => format!("P {txid} {k} {v} ;\n"),
            WalOp::Delete(k) => format!("D {txid} {k} ;\n"),
        };
        file.x_append(txn, line.as_bytes())?;
    }
    file.x_sync(txn)?;
    file.x_append(txn, format!("C {txid} ;\n").as_bytes())?;
    file.x_crash_point(txn, AFTER_COMMIT_WRITE)?;
    file.x_sync(txn)
}

fn put(k: &str, v: &str) -> WalOp {
    WalOp::Put(k.to_owned(), v.to_owned())
}

fn cases() -> Vec<Vec<WalOp>> {
    let delete = WalOp::Delete("k1".to_owned());
    vec![vec![put("k1", "v1")], vec![delete.clone()], vec![put("a", "a1"), delete, put("b", "b1")]]
}

/// `(cached bytes, durable bytes)` of the log.
type Image = (Vec<u8>, Vec<u8>);

fn image(wal: &Wal) -> Image {
    (wal.file().file().read_all(), wal.file().file().durable_snapshot())
}

fn xcalls() -> u64 {
    obs::snapshot().sites.iter().map(|s| s.xcalls).sum()
}

/// Everything one committed `log` call leaves behind: the crash points it
/// crossed (label, hits — first-seen order), the x-calls it counted, its
/// final image, and the image a crash at each of those points would keep.
fn observe(ops: &[WalOp], log: LogFn) -> (Vec<(String, u64)>, u64, Vec<Image>) {
    let commit = |session: Armed| {
        let fs = SimFs::new();
        let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
        txfix_stm::atomic(|txn| log(&wal, txn, 7, ops));
        let seen = crashpoint::recording();
        let img = image(&wal);
        drop(session);
        (seen, img)
    };
    obs::enable();
    let before = xcalls();
    let (seen, final_image) = commit(crashpoint::record());
    let counted = xcalls() - before;
    obs::disable();
    let mut images = vec![final_image];
    for (label, hits) in &seen {
        for hit in 1..=*hits {
            images.push(commit(crashpoint::arm(label, hit)).1);
        }
    }
    (seen, counted, images)
}

#[test]
fn batched_protocol_matches_the_stepwise_one_at_every_crash_point() {
    let _g = hooks::arm(0);
    for ops in cases() {
        let got = observe(&ops, Wal::x_log_ops);
        assert_eq!(got, observe(&ops, stepwise), "{ops:?}");
        let (seen, counted, _) = got;
        // One x-call per record, one per sync (two), one for the marker
        // line; the planted crash point is not an x-call.
        assert_eq!(counted, ops.len() as u64 + 3, "{ops:?}");
        let hits = |label: &str| seen.iter().find(|(l, _)| l == label).map(|(_, n)| *n);
        assert_eq!(hits("xfile_apply"), Some(counted + 1), "one per deferred op");
        assert_eq!(hits(AFTER_COMMIT_WRITE), Some(1));
    }
}

#[test]
fn a_fault_at_each_site_of_a_put_undoes_the_whole_batch() {
    let _g = hooks::arm(0);
    let ops = [put("k1", "v1")];
    let fs = SimFs::new();
    let clean = Wal::open(&fs, "clean", WalVariant::Fixed);
    txfix_stm::atomic(|txn| clean.x_log_ops(txn, 7, &ops));
    // A put is four x-calls (record, sync, marker, sync): fail each once.
    for site in 1..=4 {
        let wal = Wal::open(&fs, &format!("faulted{site}"), WalVariant::Fixed);
        let plan = FaultPlan::new(1).with(InjectionPoint::XcallFile, Trigger::Nth(site));
        let armed = chaos::scoped(&plan);
        let ((), report) = Txn::build().run(|txn| {
            let logged = wal.x_log_ops(txn, 7, &ops);
            if logged.is_err() {
                assert!(wal.file().file().is_empty(), "nothing is applied before commit");
            }
            logged
        });
        drop(armed);
        assert_eq!(report.attempts, 2, "site {site}: one injected abort, then the commit");
        assert_eq!(wal.file().pending_snapshot(), Some((0, 0)), "site {site}: undo left state");
        assert_eq!(image(&wal), image(&clean), "site {site}");
    }
}
