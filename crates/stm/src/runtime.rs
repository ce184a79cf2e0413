//! The transaction entry points: the [`TxnBuilder`] (and its [`atomic`] /
//! [`atomic_relaxed`] convenience wrappers) execute a transaction body
//! until it commits, handling conflicts, explicit aborts, blocking retry,
//! commit-before-wait and capacity overflow.

use crate::chaos;
use crate::contention::Backoff;
use crate::error::{Abort, ConflictKind, StmResult, TxnError};
use crate::hooks::{self, OBS};
use crate::obs;
use crate::obs::SiteId;
use crate::sched::{self, SyncOp};
use crate::trace;
use crate::txn::{Txn, TxnKind, TxnOptions};
use crate::wait::EventCount;
use std::time::{Duration, Instant};

/// Upper bound on one blocking interval of [`Txn::retry`]; on timeout the
/// transaction re-executes anyway (guards against missed notifications in
/// user code).
const RETRY_TIMEOUT: Duration = Duration::from_millis(50);

/// Upper bound on one blocking interval of a commit-before-wait
/// ([`Txn::wait_on`]); the re-executed body re-checks its predicate, so a
/// timeout is a spurious wakeup, and a lost wakeup a slow loop, not a hang.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// The retry notifier: every writing commit bumps it, and a blocked
/// [`Txn::retry`] re-checks its read set on each bump. One epoch for all
/// variables admits spurious wakeups (cheap), never lost ones.
static RETRY_EVENTS: EventCount = EventCount::new(SyncOp::Park(sched::RES_NOTIFIER));

/// Announce that a commit published new values.
pub(crate) fn notify_retriers() {
    // The bump is a recordable sync event: `txfix analyze` checks that it
    // happens *after* the committing transaction's write-back (a notify
    // from inside a still-open transaction is a lost-wakeup hazard — the
    // waiter can revalidate against unpublished state).
    trace::emit(trace::EventKind::RetryNotify);
    RETRY_EVENTS.notify();
}

/// Diagnostic information about one completed `atomic` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnReport {
    /// Total body executions, including the committing one.
    pub attempts: u64,
    /// Whether the committing attempt was irrevocable.
    pub committed_irrevocably: bool,
    /// Times the transaction blocked in `retry`.
    pub blocked_retries: u64,
    /// Times the transaction committed-and-waited on a wait point.
    pub waits: u64,
    /// Aborts caused by deadlock victimization or external kills.
    pub preemptions: u64,
    /// The degradation rung the committing attempt ran on.
    pub committed_rung: EscalationRung,
    /// Rung promotions taken before the commit (0 when the first rung won).
    pub escalations: u64,
}

/// One rung of the graceful-degradation ladder: how much optimism a
/// transaction attempt still has.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EscalationRung {
    /// The modelled best-effort hardware TM (the paper's §5.4.1 LogTM-SE):
    /// speculation under the [`TxnBuilder::capacity`] bounds. Only a
    /// transaction whose builder sets `capacity` starts here, and only
    /// this rung enforces the bounds; with an [`EscalationPolicy`] a
    /// capacity overflow falls back to unbounded software speculation.
    Hardware,
    /// Plain speculation, backing off on the plain ladder.
    #[default]
    Optimistic,
    /// Still speculating, but backing off within 4× wider windows, which
    /// drain the contention that is defeating optimism.
    StrongerBackoff,
    /// Give up on concurrency: the attempt becomes irrevocable at begin,
    /// holding the global serialization lock exclusively, so it cannot
    /// conflict and commits exactly once.
    Serial,
}

impl EscalationRung {
    /// Stable machine-readable name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            EscalationRung::Hardware => "hardware",
            EscalationRung::Optimistic => "optimistic",
            EscalationRung::StrongerBackoff => "stronger_backoff",
            EscalationRung::Serial => "serial",
        }
    }

    /// The next rung up; [`Serial`](EscalationRung::Serial) is absorbing.
    pub fn next(self) -> EscalationRung {
        match self {
            EscalationRung::Hardware => EscalationRung::Optimistic,
            EscalationRung::Optimistic => EscalationRung::StrongerBackoff,
            EscalationRung::StrongerBackoff | EscalationRung::Serial => EscalationRung::Serial,
        }
    }
}

/// When to climb the degradation ladder ("On the Cost of Concurrency in
/// Transactional Memory": knowing when to stop paying for optimism).
///
/// A transaction with a policy starts on
/// [`Optimistic`](EscalationRung::Optimistic) — or, if its builder sets
/// [`capacity`](TxnBuilder::capacity), on
/// [`Hardware`](EscalationRung::Hardware) for its first attempt only, so a
/// capacity overflow is one failed attempt (no backoff) and the next runs
/// unbounded. After `backoff_after` failed attempts it re-runs with
/// stronger backoff, after `serial_after` failed attempts — or as soon as
/// `deadline` has elapsed since the `atomic` call began — it takes the
/// serial rung, where the commit is unconditional. The ladder guarantees
/// *eventual commit within the attempt budget* for bodies that do not
/// themselves fail terminally (`cancel`): the serial rung cannot conflict,
/// and injected faults never target irrevocable attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Failed attempts before moving to stronger backoff.
    pub backoff_after: u64,
    /// Failed attempts before moving to serial mode (the attempt budget).
    pub serial_after: u64,
    /// Wall-clock bound; when it elapses the next attempt jumps straight to
    /// serial regardless of the attempt counters.
    pub deadline: Option<Duration>,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        EscalationPolicy { backoff_after: 4, serial_after: 16, deadline: None }
    }
}

/// Fluent configuration for a transaction, obtained from [`Txn::build`].
///
/// The builder is the single way to configure a transaction; terminal
/// methods [`run`](TxnBuilder::run) and [`try_run`](TxnBuilder::try_run)
/// execute a body under the accumulated options. It is `Clone` and can be
/// stored and reused — every `run` from the same builder starts a fresh
/// transaction.
///
/// # Examples
///
/// ```
/// use txfix_stm::{Txn, TVar};
///
/// let hits = TVar::new(0u64);
/// let (value, report) = Txn::build()
///     .site("docs_example")
///     .run(|txn| hits.modify(txn, |h| h + 1).map(|()| 1u64));
/// assert_eq!(value, 1);
/// assert!(report.attempts >= 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TxnBuilder {
    opts: TxnOptions,
}

impl Txn {
    /// Start configuring a transaction.
    pub fn build() -> TxnBuilder {
        TxnBuilder::default()
    }
}

impl TxnBuilder {
    /// Make the transaction *relaxed*: it may contain unsafe operations via
    /// [`Txn::unsafe_op`] at the cost of becoming irrevocable.
    pub fn relaxed(mut self) -> Self {
        self.opts.kind = TxnKind::Relaxed;
        self
    }

    /// Bound the read and write sets of the first rung, the hardware TM
    /// model ([`EscalationRung::Hardware`]). Without an
    /// [`escalation`](TxnBuilder::escalation) policy every attempt runs
    /// there and an overflow is terminal ([`TxnError::Capacity`]); with
    /// one, an overflow falls back to unbounded software speculation.
    pub fn capacity(mut self, reads: usize, writes: usize) -> Self {
        self.opts.read_capacity = Some(reads);
        self.opts.write_capacity = Some(writes);
        self
    }

    /// Install a graceful-degradation ladder (see [`EscalationPolicy`]).
    pub fn escalation(mut self, policy: EscalationPolicy) -> Self {
        self.opts.escalation = Some(policy);
        self
    }

    /// Label transactions from this builder for per-site metrics
    /// attribution (see [`crate::obs`]). Interns `name` on first use.
    pub fn site(mut self, name: &'static str) -> Self {
        self.opts.site = obs::intern(name);
        self
    }

    /// Execute `body` as a transaction, retrying until it commits, and
    /// return its result together with a [`TxnReport`].
    ///
    /// # Panics
    ///
    /// Panics on terminal failure — the body cancelled, or a capacity
    /// bound was hit. Use [`try_run`](TxnBuilder::try_run) to observe
    /// those as errors.
    pub fn run<T>(&self, body: impl FnMut(&mut Txn) -> StmResult<T>) -> (T, TxnReport) {
        self.try_run(body).expect("transaction failed terminally; use try_run to handle this")
    }

    /// Execute `body` as a transaction, retrying until it commits or fails
    /// terminally.
    ///
    /// # Errors
    ///
    /// - [`TxnError::Cancelled`] if the body cancelled;
    /// - [`TxnError::Capacity`] if a capacity bound was exceeded and no
    ///   escalation policy is set.
    pub fn try_run<T>(
        &self,
        body: impl FnMut(&mut Txn) -> StmResult<T>,
    ) -> Result<(T, TxnReport), TxnError> {
        atomic_report(&self.opts, body)
    }
}

/// Execute `body` as an atomic transaction, retrying until it commits, and
/// return its result.
///
/// This is the reproduction of the paper's `atomic { ... }` language
/// construct, and a thin wrapper over [`Txn::build`]. The body may be
/// re-executed many times; it must confine its side effects to
/// transactional operations (reads/writes of [`TVar`](crate::TVar)s,
/// revocable locks, x-calls, hooks).
///
/// # Examples
///
/// ```
/// use txfix_stm::{atomic, TVar};
///
/// let a = TVar::new(1u32);
/// let b = TVar::new(2u32);
/// let sum = atomic(|txn| {
///     let x = a.read(txn)?;
///     let y = b.read(txn)?;
///     b.write(txn, x + y)?;
///     Ok(x + y)
/// });
/// assert_eq!(sum, 3);
/// assert_eq!(b.load(), 3);
/// ```
///
/// # Panics
///
/// Panics if the body calls [`Txn::cancel`]; use
/// [`TxnBuilder::try_run`] to observe cancellation as an error.
pub fn atomic<T>(body: impl FnMut(&mut Txn) -> StmResult<T>) -> T {
    Txn::build().run(body).0
}

/// Execute `body` as a *relaxed* transaction, which may perform unsafe
/// operations via [`Txn::unsafe_op`] at the cost of irrevocability. A thin
/// wrapper over [`Txn::build`]`.relaxed()`.
///
/// # Panics
///
/// Panics if the body calls [`Txn::cancel`].
pub fn atomic_relaxed<T>(body: impl FnMut(&mut Txn) -> StmResult<T>) -> T {
    Txn::build().relaxed().run(body).0
}

/// The retry loop shared by every entry point.
pub(crate) fn atomic_report<T>(
    opts: &TxnOptions,
    mut body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> Result<(T, TxnReport), TxnError> {
    let mut backoff = Backoff::default();
    let mut report = TxnReport::default();
    let mut rung = if opts.read_capacity.is_some() {
        EscalationRung::Hardware
    } else {
        EscalationRung::Optimistic
    };
    // One relaxed load when metrics are off; the timestamp and the
    // current-site scope exist only on the enabled path. A second timestamp
    // exists only when a wall-clock deadline is configured.
    let started = if hooks::armed(OBS) { Some(Instant::now()) } else { None };
    let deadline_from = opts.escalation.and_then(|e| e.deadline.map(|d| (Instant::now(), d)));
    let _site_scope = obs::enter_site(opts.site);

    loop {
        report.attempts += 1;

        if let Some(policy) = opts.escalation {
            let failed = report.attempts - 1;
            let deadline_hit = matches!(deadline_from, Some((t0, d)) if t0.elapsed() >= d);
            let target = if failed >= policy.serial_after || deadline_hit {
                EscalationRung::Serial
            } else if failed >= policy.backoff_after {
                EscalationRung::StrongerBackoff
            } else if failed == 0 {
                EscalationRung::Hardware
            } else {
                EscalationRung::Optimistic
            };
            while rung < target {
                rung = rung.next();
                report.escalations += 1;
                obs::note_escalation(opts.site);
                if rung == EscalationRung::StrongerBackoff {
                    backoff = Backoff::stronger();
                }
            }
        }

        // Chaos: a forced conflict before the body runs. The serial rung is
        // exempt so the ladder's eventual-commit guarantee holds even under
        // a plan that fails every begin.
        if rung != EscalationRung::Serial && chaos::should_inject(chaos::InjectionPoint::TxnBegin) {
            handle_abort(
                Abort::Conflict(ConflictKind::ReadValidation),
                &mut backoff,
                &mut report,
                opts,
            )?;
            continue;
        }

        let mut txn = Txn::begin(opts, report.attempts, rung == EscalationRung::Hardware);
        if rung == EscalationRung::Serial {
            // At begin the read set is empty, so the irrevocability switch
            // cannot fail validation.
            txn.become_irrevocable().expect("irrevocable switch at begin cannot fail validation");
        }
        let outcome = body(&mut txn);

        match outcome {
            Ok(value) => match txn.commit() {
                Ok(()) => {
                    report.committed_irrevocably = txn.was_irrevocable();
                    report.committed_rung = rung;
                    if let Some(started) = started {
                        obs::note_commit(
                            opts.site,
                            report.attempts,
                            started.elapsed().as_nanos() as u64,
                        );
                    }
                    return Ok((value, report));
                }
                Err(abort) => {
                    txn.abort();
                    handle_abort(abort, &mut backoff, &mut report, opts)?;
                }
            },
            Err(Abort::Wait(events)) => {
                // Commit-before-wait: publish the work done so far, then
                // block, then re-execute the body as a fresh transaction.
                // The epoch is sampled while the work is still private, so
                // a notify the commit makes possible is never lost.
                let ticket = events.epoch();
                match txn.commit() {
                    Ok(()) => {
                        obs::note_wait(opts.site);
                        report.waits += 1;
                        // The commit succeeded, so contention pressure is
                        // gone: the next attempt starts with fresh backoff.
                        backoff.reset();
                        events.wait_past(ticket, WAIT_TIMEOUT);
                    }
                    Err(abort) => {
                        txn.abort();
                        handle_abort(abort, &mut backoff, &mut report, opts)?;
                    }
                }
            }
            Err(Abort::Retry) => {
                obs::note_retry_blocked(opts.site);
                report.blocked_retries += 1;
                let snapshot = txn.take_read_snapshot();
                txn.abort();
                if snapshot.is_empty() {
                    // Retrying with an empty read set would block forever;
                    // treat as plain backoff so the caller's loop progresses.
                    backoff_wait(&mut backoff, opts.site);
                } else {
                    // Block until a commit changes the read set. A fresh
                    // epoch before each check makes a commit elsewhere
                    // cost one wakeup, not a spin. Under the scheduler a
                    // retry no explored commit ever ends is reported as a
                    // deadlock; on OS threads a slice with no commit at
                    // all re-executes the body anyway.
                    loop {
                        let seen = RETRY_EVENTS.epoch();
                        if snapshot.changed() || !RETRY_EVENTS.wait_past(seen, RETRY_TIMEOUT) {
                            break;
                        }
                    }
                }
            }
            Err(abort) => {
                txn.abort();
                handle_abort(abort, &mut backoff, &mut report, opts)?;
            }
        }
    }
}

fn handle_abort(
    abort: Abort,
    backoff: &mut Backoff,
    report: &mut TxnReport,
    opts: &TxnOptions,
) -> Result<(), TxnError> {
    let site = opts.site;
    match abort {
        Abort::Conflict(kind) => {
            obs::note_conflict(site, kind);
            // A lost read validation means the writer that beat this
            // attempt has already committed, so the next snapshot holds
            // its write: the first such loss re-runs at once. The second
            // sleeps, which keeps two writers on one hot variable taking
            // turns.
            if !(kind == ConflictKind::ReadValidation && backoff.skip_first()) {
                backoff_wait(backoff, site);
            }
            Ok(())
        }
        Abort::Restart => {
            obs::note_restart(site);
            Ok(())
        }
        Abort::Deadlock => {
            obs::note_deadlock(site);
            report.preemptions += 1;
            backoff_wait(backoff, site);
            Ok(())
        }
        Abort::Killed => {
            obs::note_killed(site);
            report.preemptions += 1;
            backoff_wait(backoff, site);
            Ok(())
        }
        Abort::Cancel => Err(TxnError::Cancelled),
        Abort::Capacity(kind) => {
            obs::note_capacity(site);
            // With a ladder the overflow is one failed attempt: the next
            // one climbs off the hardware rung, so there is nothing to
            // back off from.
            match opts.escalation {
                Some(_) => Ok(()),
                None => Err(TxnError::Capacity { kind, attempts: report.attempts }),
            }
        }
        Abort::Retry | Abort::Wait(_) => {
            unreachable!("retry/wait are handled before generic abort handling")
        }
    }
}

/// Back off between attempts, attributing the time to `site` when metrics
/// are on (disabled cost: one relaxed load).
fn backoff_wait(backoff: &mut Backoff, site: SiteId) {
    if sched::is_controlled() {
        // Wall-clock backoff is meaningless under a deterministic
        // scheduler (and would stall the whole run); the next attempt's
        // begin yield is the contention-ordering decision instead.
        return;
    }
    if hooks::armed(OBS) {
        let started = Instant::now();
        backoff.wait();
        obs::note_backoff(site, started.elapsed().as_nanos() as u64);
    } else {
        backoff.wait();
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::orec::stripe_for;
    use crate::TVar;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// CPU time the calling thread has run, from the kernel's per-thread
    /// scheduler statistics (first field, nanoseconds).
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok()).expect("run time");
        Duration::from_nanos(ns)
    }

    #[test]
    fn a_blocked_retry_sleeps_through_commits_to_other_stripes() {
        let watched = TVar::new(0u64);
        let other = std::iter::repeat_with(|| TVar::new(0u64))
            .find(|v| !std::ptr::eq(stripe_for(v.id().0), stripe_for(watched.id().0)))
            .expect("the stripe table has more than one stripe");
        const BLOCKED: Duration = Duration::from_millis(400);
        let retrying = AtomicBool::new(false);
        std::thread::scope(|s| {
            let retrier = s.spawn(|| {
                let start = thread_cpu();
                atomic(|txn| {
                    if watched.read(txn)? != 0 {
                        return Ok(());
                    }
                    retrying.store(true, Ordering::SeqCst);
                    txn.retry()
                });
                thread_cpu() - start
            });
            while !retrying.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Let the retrier get from its body to the park: a commit that
            // lands first is one the retry already saw.
            std::thread::sleep(Duration::from_millis(20));
            // A commit the retrier did not read: it may wake the retrier
            // once, but must not keep it awake.
            atomic(|txn| other.write(txn, 1));
            std::thread::sleep(BLOCKED);
            atomic(|txn| watched.write(txn, 1));
            let cpu = retrier.join().unwrap();
            assert!(cpu < BLOCKED / 10, "a blocked retry burned {cpu:?} of CPU in {BLOCKED:?}");
        });
    }
}
