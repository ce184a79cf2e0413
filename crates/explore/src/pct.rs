//! PCT-style randomized priority scheduling (Burckhardt et al.,
//! "A Randomized Scheduler with Probabilistic Guarantees of Finding
//! Bugs", ASPLOS 2010).
//!
//! Each schedule assigns every thread a random priority and always runs
//! the highest-priority runnable thread; `DEPTH - 1` priority *change
//! points* are scattered over the expected step range, and when the step
//! counter crosses one, the currently running thread's priority drops
//! below everyone's, forcing a preemption exactly there. A bug of
//! preemption depth `d` is found with probability ≥ 1/(n·k^(d-1)) per
//! schedule, so a seeded loop of a few hundred schedules reliably digs
//! out shallow races — without enumerating the whole space like DFS.
//!
//! Everything derives deterministically from `(seed, schedule index)` via
//! the same splitmix64 mix the chaos layer uses, so a failing schedule
//! replays from its decision trace alone.

use txfix_stm::chaos::splitmix64;
use txfix_stm::sched::{Pick, Picker};

/// The preemption bound `d`: number of priority change points + 1.
const DEPTH: u64 = 3;

/// How many scheduling steps a corpus run takes, roughly; change points
/// are scattered uniformly over `[1, STEPS_HINT]`.
const STEPS_HINT: u64 = 64;

/// Build the picker for schedule number `index` of a PCT run from base
/// `seed`.
pub fn pct_picker(seed: u64, index: u64) -> Picker {
    let base = splitmix64(seed ^ splitmix64(index.wrapping_add(0x9E37_79B9)));
    // Priority change points (step numbers). Duplicates are harmless —
    // the drop just fires once.
    let changes: Vec<u64> =
        (0..DEPTH - 1).map(|k| splitmix64(base ^ (0xC0FF_EE00 + k)) % STEPS_HINT + 1).collect();
    let mut step: u64 = 0;
    let mut demotions: u64 = 0;
    // Per-slot priority overrides from change-point demotions; base
    // priorities derive statically from the seed. Demoted priorities are
    // below every base priority, and later demotions rank below earlier
    // ones (the PCT ordering).
    let mut demoted: Vec<Option<u64>> = Vec::new();
    Box::new(move |cands| {
        step += 1;
        let prio = |slot: usize, demoted: &[Option<u64>]| -> u64 {
            match demoted.get(slot).copied().flatten() {
                Some(d) => d,
                // Keep base priorities above the demotion band.
                None => (splitmix64(base ^ (slot as u64)) | (1 << 63)).max(1 << 63),
            }
        };
        // Highest-priority runnable candidate.
        let best = |demoted: &[Option<u64>]| -> usize {
            let mut bi = 0;
            for i in 1..cands.len() {
                if prio(cands[i].0, demoted) > prio(cands[bi].0, demoted) {
                    bi = i;
                }
            }
            bi
        };
        let mut choice = best(&demoted);
        if changes.contains(&step) {
            // Demote the thread that would run; later demotions sink lower.
            let slot = cands[choice].0;
            if demoted.len() <= slot {
                demoted.resize(slot + 1, None);
            }
            demotions += 1;
            demoted[slot] = Some(u64::MAX / 2 - demotions);
            choice = best(&demoted);
        }
        Pick::Choose(choice)
    })
}
