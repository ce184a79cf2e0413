//! End-to-end checks of the KV crash sweep: the store's recovery
//! invariants (per-shard atomicity, durability of acked batches, no
//! resurrection past a truncating checkpoint) hold at every crash point,
//! and the report is deterministic per seed.
//!
//! The crash-point registry and chaos layer are process-global, so every
//! test here holds the arming guard (`hooks::arm(0)`). The full matrix lives behind `txfix
//! crash kvstore`; these smokes run a reduced config per mode.

use txfix_core::json::ToJson;
use txfix_kvstore::{KvStore, Mode};
use txfix_stm::hooks;
use txfix_wal::checker::{run_crash_sweep, CrashConfig, CrashReport, Schedule};

fn reduced(mode: Mode, schedule: Schedule, seed: u64) -> CrashReport {
    run_crash_sweep::<KvStore>(&CrashConfig { seed, cells: vec![mode], schedules: vec![schedule] })
}

#[test]
fn every_mode_recovers_cleanly_at_every_crash_point() {
    let _g = hooks::arm(0);
    for mode in Mode::ALL {
        let report = reduced(mode, Schedule::Clean, 11);
        assert!(report.ok, "{} verdict:\n{}", mode.name(), report.table());
        let m = &report.cells[0];
        for s in &m.schedules {
            assert!(s.flagged.is_empty(), "{} flagged at {:?}", mode.name(), s.flagged);
            assert!(s.runs > 0, "sweep must actually visit crash points");
        }
    }
}

#[test]
fn recovery_survives_an_xcall_fault_backdrop() {
    let _g = hooks::arm(0);
    let report = reduced(Mode::Tm, Schedule::XcallFaults, 12);
    assert!(report.ok, "verdict:\n{}", report.table());
}

#[test]
fn the_kv_crash_report_is_deterministic_per_seed() {
    let _g = hooks::arm(0);
    let a = reduced(Mode::Hybrid, Schedule::Clean, 13).to_json();
    let b = reduced(Mode::Hybrid, Schedule::Clean, 13).to_json();
    assert_eq!(a, b);
    let c = reduced(Mode::Hybrid, Schedule::Clean, 14).to_json();
    assert_ne!(a, c, "a different seed must draw different crash images");
}
