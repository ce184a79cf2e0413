//! End-to-end checks of the crash-sweep engine on a fake subject, and of
//! the crash model under the WAL protocol: at every crash point the image
//! a crash would keep is a legal flush subset of the page cache. The KV
//! store's sweep is checked in `crates/kvstore/tests/crash.rs`.
//!
//! The crash-point registry and chaos layer are process-global, so every
//! test here holds the arming guard (`hooks::arm(0)`).

use std::sync::Arc;
use txfix_core::json::ToJson;
use txfix_stm::{atomic, hooks, Txn};
use txfix_wal::checker::{run_crash_sweep, CrashConfig, CrashSubject, Schedule, IMAGES_PER_POINT};
use txfix_wal::{Wal, WalOp, WalVariant, AFTER_COMMIT_WRITE};
use txfix_xcall::{crashpoint, SimFs, BLOCK_BYTES};

/// A fake subject with a bug of its own: it acknowledges its one record
/// *before* syncing it, with a crash point in the window. Its `flaky` cell
/// also crosses a label the armed runs then skip.
struct AckBeforeSync;

const ACK_WINDOW: &str = "fake_acked_unsynced";
const RECORD: [u8; 4 * BLOCK_BYTES] = [b'r'; 4 * BLOCK_BYTES];

impl CrashSubject for AckBeforeSync {
    type Cell = bool;
    type Facts = bool;

    const SCHEMA: &'static str = "fake-crash-v1";
    const KEYS: (&'static str, &'static str) = ("cells", "cell");

    fn cell_name(flaky: bool) -> &'static str {
        ["steady", "flaky"][usize::from(flaky)]
    }

    fn run(flaky: bool) -> (Arc<SimFs>, bool) {
        let fs = SimFs::new();
        let file = fs.open_or_create("fake.log");
        file.append(&RECORD);
        let acked = !crashpoint::is_frozen();
        crashpoint::crash_point(ACK_WINDOW);
        if flaky && !crashpoint::recording().is_empty() {
            crashpoint::crash_point("fake_record_pass_only");
        }
        file.sync_all();
        crashpoint::crash_point("fake_quiesce");
        (fs, acked)
    }

    fn recover_and_check(_: bool, fs: &Arc<SimFs>, acked: &bool) -> Vec<String> {
        let survived = fs.open("fake.log").is_ok_and(|f| f.read_all() == RECORD);
        if *acked && !survived {
            vec!["durability: acknowledged record lost".to_owned()]
        } else {
            Vec::new()
        }
    }
}

/// The engine on its own, away from the real subject: it flags exactly
/// the labels inside the fake's ack→sync window, counts its runs,
/// reproduces per seed, and reports an armed run that never fired.
#[test]
fn engine_sweeps_a_fake_subject() {
    let _g = hooks::arm(0);
    let cfg =
        |seed| CrashConfig { seed, cells: vec![false, true], schedules: vec![Schedule::Clean] };
    let report = run_crash_sweep::<AckBeforeSync>(&cfg(5));
    assert!(!report.ok, "the ack window must be flagged:\n{}", report.table());
    for cell in &report.cells {
        let s = &cell.schedules[0];
        let hits = s.points.iter().map(|p| p.hits).sum::<u64>();
        assert_eq!(s.runs, hits * IMAGES_PER_POINT, "{}", cell.name);
    }
    let steady = &report.cells[0].schedules[0];
    assert_eq!(steady.flagged, [ACK_WINDOW, "simos_file_sync"]);
    let flaky = &report.cells[1].schedules[0];
    assert_eq!(flaky.flagged, [ACK_WINDOW, "fake_record_pass_only", "simos_file_sync"]);
    let skipped = &flaky.points.iter().find(|p| p.label == "fake_record_pass_only").unwrap();
    assert_eq!(
        skipped.failures.len() as u64,
        IMAGES_PER_POINT,
        "every armed draw of the skipped label is reported"
    );
    for f in &skipped.failures {
        assert_eq!(f.violations.len(), 1);
        assert!(f.violations[0].starts_with("harness: crash point fake_record_pass_only hit 1"));
        assert!(f.violations[0].contains("did not fire"));
    }
    let doc = report.to_json();
    assert!(doc.contains(r#""schema":"fake-crash-v1""#) && doc.contains(r#""cell":"steady""#));
    assert_eq!(doc, run_crash_sweep::<AckBeforeSync>(&cfg(5)).to_json());
    assert_ne!(doc, run_crash_sweep::<AckBeforeSync>(&cfg(6)).to_json());
}

/// At *every* crash point of a WAL workload, the crash image the model
/// would take is a legal flush subset of the page cache — block-granular,
/// each block either the durable content or the cached content, never a
/// blend.
#[test]
fn crash_image_is_a_legal_flush_subset_at_every_crash_point() {
    let _g = hooks::arm(0);
    // Record pass: learn the labels this workload passes through.
    let universe = {
        let session = crashpoint::record();
        run_wal_workload();
        let u = crashpoint::recording();
        drop(session);
        u
    };
    assert!(
        universe.iter().any(|(l, _)| l == AFTER_COMMIT_WRITE),
        "the WAL protocol must plant its commit window: {universe:?}"
    );
    for (label, hits) in &universe {
        for hit in 1..=*hits {
            let session = crashpoint::arm(label, hit);
            let fs = run_wal_workload();
            assert!(crashpoint::fired().is_some(), "{label} hit {hit} must fire");
            let file = fs.open(WAL_PATH).unwrap();
            let cached = file.read_all();
            let durable = file.durable_snapshot();
            for seed in [0u64, 7, 1234] {
                let img = file.crash_image(seed);
                assert_flush_subset(&img, &durable, &cached, label, hit, seed);
            }
            drop(session);
        }
    }
}

const WAL_PATH: &str = "wal/kv.log";

/// Two committed batches around a cancelled one, values long enough that
/// each batch spans several blocks.
fn run_wal_workload() -> Arc<SimFs> {
    let fs = SimFs::new();
    let wal = Wal::open(&fs, WAL_PATH, WalVariant::Fixed);
    let puts = |pairs: &[(&str, &str)]| -> Vec<WalOp> {
        pairs.iter().map(|&(k, v)| WalOp::Put(k.to_owned(), v.to_owned())).collect()
    };
    atomic(|txn| {
        wal.x_log_ops(txn, 1, &puts(&[("a", "a1_kkkkkkkkkkkk"), ("b", "b1_kkkkkkkkkkkk")]))
    });
    let _ = Txn::build().try_run(|txn| {
        wal.x_log_ops(txn, 2, &puts(&[("a", "poisoned_value")]))?;
        txn.cancel::<()>()
    });
    atomic(|txn| wal.x_log_ops(txn, 3, &puts(&[("c", "c3_kkkkkkkkkkkk")])));
    crashpoint::crash_point("wal_quiesce");
    fs
}

fn assert_flush_subset(
    img: &[u8],
    durable: &[u8],
    cached: &[u8],
    label: &str,
    hit: u64,
    seed: u64,
) {
    assert!(
        img.len() >= durable.len() && img.len() <= cached.len().max(durable.len()),
        "image length out of range at {label}#{hit} seed {seed}"
    );
    for b in 0..img.len().div_ceil(BLOCK_BYTES) {
        let s = b * BLOCK_BYTES;
        let e = ((b + 1) * BLOCK_BYTES).min(img.len());
        let pad = |src: &[u8]| -> Vec<u8> {
            let mut v = vec![0u8; e - s];
            if src.len() > s {
                let ce = src.len().min(e);
                v[..ce - s].copy_from_slice(&src[s..ce]);
            }
            v
        };
        assert!(
            img[s..e] == pad(durable)[..] || img[s..e] == pad(cached)[..],
            "block {b} at {label}#{hit} seed {seed} blends durable and cached content"
        );
    }
}
