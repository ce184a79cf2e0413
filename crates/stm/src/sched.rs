//! A cooperative deterministic scheduler for systematic schedule
//! exploration (`txfix explore`).
//!
//! While [`run_workers`] drives a *run*, every thread it spawned is
//! registered with the scheduler, and every synchronization layer in the workspace — this
//! STM's `TVar` reads/writes and commits, `txfix-txlock`'s acquire and
//! release paths, `txfix-tmsync`'s condition variables and serial domains,
//! and the chaos injection points — funnels through [`yield_point`] before
//! performing its operation. Exactly one registered thread runs at a time;
//! at each yield the scheduler consults a pluggable *picker* (installed by
//! the `txfix-explore` strategies: exhaustive DFS with sleep sets, or
//! PCT-style random priorities) to decide which thread's next operation
//! executes. The full decision sequence is recorded, so any execution —
//! in particular a failing one — replays bit-for-bit by feeding the same
//! decisions back through a replay picker.
//!
//! Like the [`trace`](crate::trace) recorder and the
//! [`chaos`](crate::chaos) layer, the scheduler is **off by default and
//! zero-cost when disabled**: every hook starts with one relaxed load of
//! the [`hooks`] word (its [`SCHED`] bit), and threads that never
//! registered (every thread in a normal test or production run) are never
//! touched even while a run is active.
//!
//! # Blocking model
//!
//! Controlled threads never block on OS primitives. Every blocking point
//! parks through [`WaitQueue`](crate::WaitQueue), which calls
//! [`block_on`] with the resource id of the op it waits to retry (a lock
//! acquisition, a condvar wait, the retry notifier); a wake calls
//! [`signal`], which makes the waiters runnable again (a lock's waiters
//! re-try their acquisition when next scheduled, so handoff order remains
//! a scheduling decision). A notify that finds no registered waiter wakes
//! nobody, which is exactly the lost-wakeup semantics the explorer needs
//! to observe. When every registered thread is blocked the scheduler
//! declares a deadlock, stops the run, and reports the blocked operations.
//!
//! # Granularity
//!
//! Yield points sit *before* their operation, outside the runtime's
//! internal critical sections: a `TVar` read is one step, and so is a
//! whole commit. This loses behaviour: the atomic loads and stores inside
//! one step (orec words, the clock, the value cell) never interleave
//! here. The three opacity windows the commit and read paths once had
//! (stamp before lock, version-then-writer re-check, unvalidated
//! extension) each lay inside one step; no exploration or canary saw
//! them, only the real-thread `tests/opacity.rs`.
//!
//! An irrevocable transaction — which holds the global serialization
//! lock — never yields at all, which both models serial-mode semantics
//! and guarantees no thread is ever parked while holding a lock another
//! controlled thread might need through an OS wait.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::hooks::{self, SCHED};

/// Resource-id tag for `TVar` ids (see [`SyncOp::resource`]). `TVar`,
/// lock and traced-object counters are independent, so raw ids collide;
/// tags keep the dependence relation honest. Direct (non-transactional)
/// `TVar` accesses pass `id | VAR_TAG` through `Shared*` themselves so
/// they conflict with transactional accesses of the same variable.
pub(crate) const VAR_TAG: u64 = 1 << 61;
/// Resource-id tag for `txfix-txlock` lock ids.
const LOCK_TAG: u64 = 1 << 62;

/// The resource id [`block_on`] uses for the STM retry notifier: a
/// `Txn::retry` parks here and every writing commit signals it.
pub const RES_NOTIFIER: u64 = (1 << 60) | 1;

/// One schedulable operation, as announced at a [`yield_point`].
///
/// The payload identifies the resource the operation touches, which is
/// what the explorer's partial-order reduction keys on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// A transaction attempt begins.
    TxnBegin,
    /// A transactional read of the `TVar` with this id.
    TxnRead(u64),
    /// A transactional write of the `TVar` with this id.
    TxnWrite(u64),
    /// A transaction validates and publishes (one atomic step).
    TxnCommit,
    /// An acquisition attempt on the lock with this id.
    LockAcquire(u64),
    /// A release of the lock with this id.
    LockRelease(u64),
    /// Parking on the condition variable with this id.
    CvWait(u64),
    /// Signalling the condition variable with this id.
    CvNotify(u64),
    /// A non-transactional shared read (traced cell, direct `TVar` load).
    SharedRead(u64),
    /// A non-transactional shared write.
    SharedWrite(u64),
    /// An armed chaos injection point (the discriminant of
    /// [`chaos::InjectionPoint`](crate::chaos::InjectionPoint)).
    ChaosPoint(u32),
    /// Parked on a runtime rendezvous (retry notifier, wait point).
    Park(u64),
    /// Entry into a serial-domain critical section or atomic region. The
    /// body executes suppressed (one scheduler step) with a footprint the
    /// scheduler cannot see, so the op has no resource and is
    /// conservatively dependent on everything.
    SerialSection(u64),
}

impl SyncOp {
    /// The resource this operation touches, in a tagged namespace shared
    /// by all layers; `None` means "potentially anything" (conservative).
    pub fn resource(self) -> Option<u64> {
        match self {
            SyncOp::TxnRead(v) | SyncOp::TxnWrite(v) => Some(v | VAR_TAG),
            SyncOp::LockAcquire(l) | SyncOp::LockRelease(l) => Some(l | LOCK_TAG),
            SyncOp::CvWait(c) | SyncOp::CvNotify(c) => Some(c),
            SyncOp::SharedRead(o) | SyncOp::SharedWrite(o) => Some(o),
            SyncOp::Park(r) => Some(r),
            SyncOp::TxnBegin
            | SyncOp::TxnCommit
            | SyncOp::ChaosPoint(_)
            | SyncOp::SerialSection(_) => None,
        }
    }

    /// Whether the operation can change the state of its resource.
    pub fn writes(self) -> bool {
        match self {
            SyncOp::TxnWrite(_)
            | SyncOp::SharedWrite(_)
            | SyncOp::LockAcquire(_)
            | SyncOp::LockRelease(_)
            | SyncOp::CvNotify(_)
            | SyncOp::SerialSection(_) => true,
            SyncOp::TxnRead(_)
            | SyncOp::SharedRead(_)
            | SyncOp::CvWait(_)
            | SyncOp::Park(_)
            | SyncOp::TxnBegin
            | SyncOp::TxnCommit
            | SyncOp::ChaosPoint(_) => false,
        }
    }

    /// Whether two operations are *dependent*: executing them in either
    /// order can lead to different states. Conservative — operations with
    /// no resource (begin, commit, chaos) depend on everything — which
    /// keeps the sleep-set reduction sound at the cost of some pruning.
    pub fn dependent(self, other: SyncOp) -> bool {
        match (self.resource(), other.resource()) {
            (Some(a), Some(b)) => a == b && (self.writes() || other.writes()),
            _ => true,
        }
    }
}

impl fmt::Display for SyncOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Strip the namespace tag bits: the kind word already names the
        // namespace, and small numbers read better in decision dumps.
        let id = |r: u64| r & !(0xF << 60);
        match *self {
            SyncOp::TxnBegin => write!(f, "txn-begin"),
            SyncOp::TxnRead(v) => write!(f, "txn-read(tvar#{})", id(v)),
            SyncOp::TxnWrite(v) => write!(f, "txn-write(tvar#{})", id(v)),
            SyncOp::TxnCommit => write!(f, "txn-commit"),
            SyncOp::LockAcquire(l) => write!(f, "lock-acquire(lock#{})", id(l)),
            SyncOp::LockRelease(l) => write!(f, "lock-release(lock#{})", id(l)),
            SyncOp::CvWait(c) => write!(f, "cv-wait(cv#{})", id(c)),
            SyncOp::CvNotify(c) => write!(f, "cv-notify(cv#{})", id(c)),
            SyncOp::SharedRead(o) => write!(f, "read(obj#{})", id(o)),
            SyncOp::SharedWrite(o) => write!(f, "write(obj#{})", id(o)),
            SyncOp::ChaosPoint(p) => write!(f, "chaos({p})"),
            SyncOp::Park(r) => write!(f, "park(res#{})", id(r)),
            SyncOp::SerialSection(o) => write!(f, "serial-section(obj#{})", id(o)),
        }
    }
}

/// What the picker wants done with a decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Run the candidate at this index (into the candidates slice).
    Choose(usize),
    /// Abandon the execution: every continuation from here is already
    /// covered (the sleep-set "all candidates asleep" case). The run stops
    /// and is reported as pruned, not as a pass or failure.
    Prune,
    /// Stop the execution because the picker cannot follow its schedule
    /// here (a replayed trace names a candidate that does not exist); the
    /// message becomes [`StopReason::Diverged`].
    Diverge(String),
}

/// The scheduling policy: given the runnable candidates (thread slot and
/// the operation each wants to execute, sorted by slot), choose one. The
/// picker is invoked for *every* decision, including forced ones with a
/// single candidate, so replay pickers stay in step with their trace.
pub type Picker = Box<dyn FnMut(&[(usize, SyncOp)]) -> Pick + Send>;

/// One recorded scheduling decision.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The runnable candidates at this point (slot, pending op), sorted
    /// by slot.
    pub candidates: Vec<(usize, SyncOp)>,
    /// Index into `candidates` of the thread that ran.
    pub chosen: usize,
}

/// Why a run stopped before every thread finished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every live thread was blocked: a deadlock (or lost wakeup). The
    /// payload describes each blocked thread's pending operation.
    Deadlock(Vec<String>),
    /// The per-schedule step bound was exceeded (a livelock, or a bound
    /// set too low for the program).
    StepLimit,
    /// The picker abandoned the execution as redundant.
    Pruned,
    /// A controlled thread panicked; the payload is the panic message.
    Panic(String),
    /// The picker could not follow its schedule ([`Pick::Diverge`]).
    Diverged(String),
}

/// The complete record of one scheduled execution.
#[derive(Clone, Debug, Default)]
pub struct RunLog {
    /// Every scheduling decision, in order.
    pub decisions: Vec<Decision>,
    /// The executed operations `(slot, op)`, in order — the sequence
    /// replay determinism is judged on.
    pub events: Vec<(usize, SyncOp)>,
    /// Scheduling steps taken.
    pub steps: u64,
    /// Why the run stopped early, if it did.
    pub stop: Option<StopReason>,
}

impl RunLog {
    /// The chosen-candidate-index sequence: together with the strategy
    /// seed this is the `(seed, trace)` pair that replays the execution.
    pub fn trace(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }

    /// Context switches: adjacent decisions that moved to a different
    /// thread (the "preemptions" a minimizer drives down).
    pub fn preemptions(&self) -> u64 {
        self.events.windows(2).filter(|w| w[0].0 != w[1].0).count() as u64
    }

    /// Turnstile integrity: every executed operation must be the candidate
    /// the matching decision record announced. A healthy scheduler can
    /// never diverge — the two are written under one lock — so any
    /// divergence means an operation ran out of turnstile order and the
    /// recorded schedule no longer describes the execution. Returns the
    /// first divergence as a fixed-format diagnostic.
    pub fn turnstile_breach(&self) -> Option<String> {
        for (i, (d, executed)) in self.decisions.iter().zip(self.events.iter()).enumerate() {
            let announced = d.candidates[d.chosen];
            if announced != *executed {
                return Some(format!(
                    "turnstile breach at step {i}: announced thread {} ({}), executed thread {} ({})",
                    announced.0, announced.1, executed.0, executed.1
                ));
            }
        }
        None
    }
}

/// Render a decision trace in the compact `a.b.c` form printed on failure
/// and accepted back by replay.
pub fn format_trace(trace: &[usize]) -> String {
    trace.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(".")
}

/// The unwind payload a stopped run throws through controlled threads.
/// [`run_workers`] catches it as "the schedule ended here", not as a
/// worker failure.
struct SchedStop;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Spawned, has not reached its first yield point yet.
    NotStarted,
    /// Parked at a yield point, wants to execute the operation.
    Ready(SyncOp),
    /// Executing between yield points (exactly one thread at a time).
    Running,
    /// Parked on a resource until someone signals it; `true` if the wait
    /// can time out (see [`block_on_timeout`]).
    Blocked(u64, SyncOp, bool),
    /// Finished.
    Done,
}

struct Inner {
    phase: Vec<Phase>,
    picker: Picker,
    decisions: Vec<Decision>,
    events: Vec<(usize, SyncOp)>,
    steps: u64,
    max_steps: u64,
    stop: Option<StopReason>,
    /// Per-run canonical resource ids, keyed by the raw (process-global)
    /// id. Raw ids come from global counters, so a scenario rebuilt for
    /// re-execution gets fresh ones; canonical ids are assigned inside
    /// [`schedule`] in slot order, which makes the operation stream a
    /// pure function of the schedule — what stateless DFS re-execution
    /// and bit-for-bit replay both require. (Assigning at the
    /// announcement point instead would order ids by worker startup, an
    /// OS artifact: before the start gate opens, threads announce their
    /// first ops in whatever order the OS ran them.)
    canon: std::collections::HashMap<u64, u64>,
    /// The slot whose timed wait [`schedule`] just ended, until that
    /// thread reads it in [`block_on_timeout`].
    timed_out: Option<usize>,
}

impl Inner {
    fn canon_id(&mut self, raw: u64) -> u64 {
        if let Some(&c) = self.canon.get(&raw) {
            return c;
        }
        // Keep the namespace tag bits so canonical ids stay distinct
        // across layers and readable in decision dumps.
        let c = (raw & TAG_MASK) | (self.canon.len() as u64 + 1);
        self.canon.insert(raw, c);
        c
    }

    fn canon_op(&mut self, op: SyncOp) -> SyncOp {
        use SyncOp::*;
        match op {
            TxnRead(r) => TxnRead(self.canon_id(r)),
            TxnWrite(r) => TxnWrite(self.canon_id(r)),
            LockAcquire(r) => LockAcquire(self.canon_id(r)),
            LockRelease(r) => LockRelease(self.canon_id(r)),
            CvWait(r) => CvWait(self.canon_id(r)),
            CvNotify(r) => CvNotify(self.canon_id(r)),
            SharedRead(r) => SharedRead(self.canon_id(r)),
            SharedWrite(r) => SharedWrite(self.canon_id(r)),
            Park(r) => Park(self.canon_id(r)),
            SerialSection(r) => SerialSection(self.canon_id(r)),
            TxnBegin | TxnCommit | ChaosPoint(_) => op,
        }
    }
}

/// The namespace tag bits of a resource id (see `VAR_TAG` & friends).
const TAG_MASK: u64 = 0xF << 60;

static STATE: Mutex<Option<Inner>> = Mutex::new(None);
static TURNSTILE: Condvar = Condvar::new();

thread_local! {
    /// This thread's slot in the active run, if registered.
    static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    /// Depth of atomic sections (yields suppressed while > 0).
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// Whether the calling thread is currently under scheduler control.
/// [`WaitQueue`](crate::WaitQueue) branches on this to decide between
/// [`block_on`] and an OS wait. One relaxed load when no run is active.
#[inline]
pub fn is_controlled() -> bool {
    hooks::armed(SCHED) && SLOT.with(|s| s.get().is_some()) && SUPPRESS.with(|s| s.get() == 0)
}

/// Scheduling steps taken so far in the active run, or 0 when no run is
/// active. Harnesses use this as a deterministic virtual clock: elapsed
/// steps across an operation are a pure function of the schedule, so
/// latency measured in steps survives byte-compare across machines.
pub fn current_steps() -> u64 {
    STATE.lock().as_ref().map(|i| i.steps).unwrap_or(0)
}

/// Whether the calling thread is a registered worker of a scheduled run.
pub(crate) fn is_worker() -> bool {
    SLOT.with(|s| s.get().is_some())
}

#[inline]
fn controlled_slot() -> Option<usize> {
    if !hooks::armed(SCHED) {
        return None;
    }
    if SUPPRESS.with(|s| s.get() != 0) {
        return None;
    }
    SLOT.with(|s| s.get())
}

/// RAII guard for a section that must execute without yields (serial
/// domains, irrevocable bodies). While any such guard is alive on a
/// thread, the thread behaves as uncontrolled: hooks no-op and blocking
/// paths use their OS waits.
pub struct AtomicSection(());

impl Drop for AtomicSection {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get() - 1));
    }
}

/// Enter a no-yield section (see [`AtomicSection`]).
pub fn atomic_section() -> AtomicSection {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    AtomicSection(())
}

/// Run `f` holding the [`SCHED`] guard ([`hooks::arm`], re-entrant), so
/// a harness that drives several scheduled runs keeps every other
/// thread's armed runs out until it is done.
pub fn run_exclusively<T>(f: impl FnOnce() -> T) -> T {
    let _armed = hooks::arm(SCHED);
    f()
}

/// Run `workers` as one scheduled run: one registered thread per slot, a
/// per-schedule step bound, and `picker` deciding every step. Returns
/// each worker's value and the run's record.
///
/// Call from an uncontrolled thread; the run holds the [`SCHED`] guard
/// ([`hooks::arm`]), so a worker must never arm (`arm` panics there). A
/// worker that panics aborts the run: its slot yields `None` and the
/// [`RunLog`]'s stop reason carries the message. A worker the scheduler
/// tears down (deadlock, prune, step limit, another worker's panic) also
/// yields `None`. Runs are process-global: a nested run on the driving
/// thread panics.
pub fn run_workers<'a, R: Send + 'a>(
    workers: Vec<Box<dyn FnOnce() -> R + Send + 'a>>,
    max_steps: u64,
    picker: Picker,
) -> (Vec<Option<R>>, RunLog) {
    let _armed = hooks::arm(SCHED);
    let mut state = STATE.lock();
    assert!(state.is_none(), "a scheduler run is already active");
    *state = Some(Inner {
        phase: vec![Phase::NotStarted; workers.len()],
        picker,
        decisions: Vec::new(),
        events: Vec::new(),
        steps: 0,
        max_steps,
        stop: None,
        canon: std::collections::HashMap::new(),
        timed_out: None,
    });
    drop(state);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(slot, body)| {
                s.spawn(move || {
                    // The worker runs freely until its first yield point;
                    // the first decision waits for every slot to arrive
                    // (or finish), so startup order is not a hidden
                    // schedule dimension.
                    SLOT.with(|s| s.set(Some(slot)));
                    match catch_unwind(AssertUnwindSafe(body)) {
                        Ok(r) => {
                            finish();
                            Some(r)
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<SchedStop>().is_none() {
                                abort_run(panic_message(payload.as_ref()));
                            }
                            None
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(None)).collect()
    });
    let run = STATE.lock().take().expect("the run's state outlives its workers");
    (
        results,
        RunLog { decisions: run.decisions, events: run.events, steps: run.steps, stop: run.stop },
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mark the calling worker finished and hand the token to the next
/// thread. Also safe to call while the run is stopping.
fn finish() {
    let Some(me) = controlled_slot() else {
        return;
    };
    SLOT.with(|s| s.set(None));
    let mut g = STATE.lock();
    let Some(inner) = g.as_mut() else {
        return;
    };
    inner.phase[me] = Phase::Done;
    if inner.stop.is_none() {
        schedule(inner);
    }
    TURNSTILE.notify_all();
}

/// Stop the run because a controlled thread panicked with `message`;
/// every other thread unwinds with [`SchedStop`] at its next hook.
fn abort_run(message: String) {
    let mut g = STATE.lock();
    if let Some(inner) = g.as_mut() {
        if inner.stop.is_none() {
            inner.stop = Some(StopReason::Panic(message));
        }
    }
    TURNSTILE.notify_all();
}

/// Announce the next operation and wait for this thread's turn to run it.
/// No-op for uncontrolled threads. Unwinds back to [`run_workers`] if
/// the run stops while parked.
#[inline]
pub fn yield_point(op: SyncOp) {
    if hooks::armed(SCHED) {
        yield_slow(op);
    }
}

#[cold]
fn yield_slow(op: SyncOp) {
    let Some(me) = controlled_slot() else {
        return;
    };
    let mut g = STATE.lock();
    let Some(inner) = g.as_mut() else {
        return;
    };
    if inner.stop.is_some() {
        drop(g);
        stop_unwind();
    }
    inner.phase[me] = Phase::Ready(op);
    schedule(inner);
    wait_for_turn(g, me);
}

/// Park the calling thread on `res` until a [`signal`] makes it runnable
/// and the scheduler picks it again. `op` labels what the thread will do
/// when it resumes (e.g. retry a lock acquisition). Returns normally when
/// rescheduled — the caller re-checks its condition — or unwinds back to
/// [`run_workers`] if the run stops (deadlock, budget, panic).
pub fn block_on(res: u64, op: SyncOp) {
    park(res, op, false);
}

/// [`block_on`] for a wait that has a timeout. The scheduler has no
/// clock, so the timeout fires where only a clock could still end the
/// wait: when every live thread is blocked, the scheduler wakes the
/// lowest-slot timed waiter instead of stopping the run as a deadlock.
/// Returns `true` if the wait timed out, `false` if a [`signal`] ended it
/// (or the caller is uncontrolled).
pub fn block_on_timeout(res: u64, op: SyncOp) -> bool {
    let Some(me) = park(res, op, true) else {
        return false;
    };
    let mut g = STATE.lock();
    let Some(inner) = g.as_mut() else {
        return false;
    };
    let timed_out = inner.timed_out == Some(me);
    if timed_out {
        inner.timed_out = None;
    }
    timed_out
}

/// Block the calling thread on `res` (see [`block_on`]); returns its slot
/// once rescheduled, or `None` if it is not controlled.
fn park(res: u64, op: SyncOp, timed: bool) -> Option<usize> {
    let me = controlled_slot()?;
    let mut g = STATE.lock();
    let inner = g.as_mut()?;
    if inner.stop.is_some() {
        drop(g);
        stop_unwind();
    }
    inner.phase[me] = Phase::Blocked(res, op, timed);
    schedule(inner);
    wait_for_turn(g, me);
    Some(me)
}

/// Make every thread parked on `res` runnable again. Callable from any
/// thread (controlled or not); a no-op when no run is active.
#[inline]
pub fn signal(res: u64) {
    if hooks::armed(SCHED) {
        wake(Some(res));
    }
}

/// Make *every* blocked thread runnable (used by revocation paths, where
/// a kill must wake its victim regardless of what it is parked on).
pub fn wake_all() {
    if hooks::armed(SCHED) {
        wake(None);
    }
}

/// Make the threads blocked on `res` (every blocked thread for `None`)
/// runnable.
#[cold]
fn wake(res: Option<u64>) {
    let mut g = STATE.lock();
    let Some(inner) = g.as_mut() else {
        return;
    };
    for phase in inner.phase.iter_mut() {
        if let Phase::Blocked(r, op, _) = *phase {
            if res.is_none_or(|res| r == res) {
                *phase = Phase::Ready(op);
            }
        }
    }
    // If the signaller is uncontrolled there may be no Running thread;
    // give the newly runnable ones a chance immediately.
    if inner.stop.is_none() && !inner.phase.iter().any(|p| matches!(p, Phase::Running)) {
        schedule(inner);
    }
    TURNSTILE.notify_all();
}

/// Park until it is `me`'s turn (or the run stops). Consumes the guard.
fn wait_for_turn(mut g: parking_lot::MutexGuard<'_, Option<Inner>>, me: usize) {
    loop {
        let Some(inner) = g.as_mut() else {
            return;
        };
        if inner.stop.is_some() {
            drop(g);
            stop_unwind();
        }
        if matches!(inner.phase[me], Phase::Running) {
            return;
        }
        TURNSTILE.wait(&mut g);
    }
}

/// Leave scheduler control and unwind. The slot is cleared *first* so
/// hooks reached during the unwind (RAII lock releases and transaction
/// rollbacks) fall through to their normal uncontrolled behaviour instead
/// of re-entering the scheduler mid-unwind.
fn stop_unwind() -> ! {
    SLOT.with(|s| s.set(None));
    std::panic::resume_unwind(Box::new(SchedStop));
}

/// Pick the next thread to run. Caller holds the state lock; there must
/// be no `Running` thread. No-op until every slot has started (the start
/// gate) and after a stop.
fn schedule(inner: &mut Inner) {
    if inner.stop.is_some() {
        return;
    }
    if inner.phase.iter().any(|p| matches!(p, Phase::NotStarted)) {
        return; // start gate: wait for every worker's first yield
    }
    // Phases hold *raw* resource ids; canonicalize here, in slot order,
    // so id assignment is a pure function of the schedule (announcement
    // order races with worker startup — see `Inner::canon`).
    let mut candidates: Vec<(usize, SyncOp)> = Vec::new();
    for i in 0..inner.phase.len() {
        if let Phase::Ready(op) = inner.phase[i] {
            candidates.push((i, inner.canon_op(op)));
        }
    }
    if candidates.is_empty() {
        // Nothing can run: a timed wait ends here, as a clock would end it.
        let timed = inner.phase.iter().position(|p| matches!(p, Phase::Blocked(_, _, true)));
        if let Some(i) = timed {
            if let Phase::Blocked(_, op, _) = inner.phase[i] {
                inner.phase[i] = Phase::Ready(op);
                inner.timed_out = Some(i);
                candidates.push((i, inner.canon_op(op)));
            }
        }
    }
    if candidates.is_empty() {
        let mut blocked: Vec<String> = Vec::new();
        for i in 0..inner.phase.len() {
            if let Phase::Blocked(_, op, _) = inner.phase[i] {
                let op = inner.canon_op(op);
                blocked.push(format!("thread {i} blocked at {op}"));
            }
        }
        if !blocked.is_empty() {
            // Live threads exist but none can run: deadlock / lost wakeup.
            inner.stop = Some(StopReason::Deadlock(blocked));
            TURNSTILE.notify_all();
        }
        return; // all Done: the run is over
    }
    inner.steps += 1;
    if inner.steps > inner.max_steps {
        inner.stop = Some(StopReason::StepLimit);
        TURNSTILE.notify_all();
        return;
    }
    let chosen = match (inner.picker)(&candidates) {
        Pick::Choose(i) => {
            assert!(i < candidates.len(), "picker chose candidate {i} of {}", candidates.len());
            i
        }
        Pick::Prune => {
            inner.stop = Some(StopReason::Pruned);
            TURNSTILE.notify_all();
            return;
        }
        Pick::Diverge(msg) => {
            inner.stop = Some(StopReason::Diverged(msg));
            TURNSTILE.notify_all();
            return;
        }
    };
    #[cfg(not(feature = "canary-sched"))]
    let run_index = chosen;
    // Canary: execute a different ready candidate than the one the
    // decision record announces — one op runs out of turnstile order.
    // The record keeps the picker's choice, so the executed event stream
    // silently diverges from the announced schedule.
    #[cfg(feature = "canary-sched")]
    let run_index =
        if candidates.len() > 1 && crate::canary::fire(crate::canary::Canary::SchedOutOfTurn) {
            (chosen + 1) % candidates.len()
        } else {
            chosen
        };
    let (slot, op) = candidates[run_index];
    inner.decisions.push(Decision { candidates, chosen });
    inner.events.push((slot, op));
    inner.phase[slot] = Phase::Running;
    TURNSTILE.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependence_is_resource_keyed() {
        assert!(SyncOp::SharedWrite(1).dependent(SyncOp::SharedRead(1)));
        assert!(!SyncOp::SharedWrite(1).dependent(SyncOp::SharedRead(2)));
        assert!(!SyncOp::SharedRead(1).dependent(SyncOp::SharedRead(1)));
        // Tagged namespaces: tvar#1 and lock#1 are different resources.
        assert!(!SyncOp::TxnWrite(1).dependent(SyncOp::LockAcquire(1)));
        // No-resource ops conservatively depend on everything.
        assert!(SyncOp::TxnCommit.dependent(SyncOp::SharedRead(7)));
    }

    /// Slot 0 waits on resource 7 with a timeout; slot 1 takes one step
    /// and then signals 7 or not. Returns slot 0's `timed_out` and the
    /// stop reason.
    fn timed_wait(signal_it: bool) -> (Option<bool>, Option<StopReason>) {
        let workers: Vec<Box<dyn FnOnce() -> bool + Send>> = vec![
            Box::new(|| block_on_timeout(7, SyncOp::Park(7))),
            Box::new(move || {
                yield_point(SyncOp::SharedWrite(1));
                if signal_it {
                    signal(7);
                }
                false
            }),
        ];
        let (results, log) =
            run_exclusively(|| run_workers(workers, 100, Box::new(|_| Pick::Choose(0))));
        (results[0], log.stop)
    }

    #[test]
    fn a_timed_wait_times_out_only_when_nothing_else_can_run() {
        assert_eq!(timed_wait(true), (Some(false), None), "a signal ends the wait");
        assert_eq!(timed_wait(false), (Some(true), None), "no deadlock stop: the wait times out");
    }

    #[test]
    fn hooks_are_noops_off_run() {
        // Must not deadlock or panic on an unregistered thread.
        yield_point(SyncOp::TxnBegin);
        block_on(1, SyncOp::Park(1));
        assert!(!block_on_timeout(1, SyncOp::Park(1)));
        signal(1);
        wake_all();
        finish();
        assert!(!is_controlled());
    }
}
