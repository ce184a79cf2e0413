//! The transaction descriptor: read/write sets, validation, commit and
//! abort, irrevocability, and integration hooks for external resources
//! (revocable locks, transactional I/O).
//!
//! ## Commit path
//!
//! Writes are buffered (TL2-style write-back) and there is one commit
//! protocol, [`Txn::commit`], for both rungs: hold the serialization lock
//! (shared, or the exclusive guard an irrevocable transaction already
//! owns), lock the write set's orec stripes in canonical (stripe-index)
//! order, obtain a write stamp from the [`crate::clock`] (*after* the
//! locks — the clock's safety contract), validate the read set
//! (revocable only: nothing can have committed under an irrevocable
//! transaction), publish the buffered values (each swaps its cell's
//! pointer and retires the value it replaces), stamp and release the
//! stripes, then run a [`crate::reclaim`] pass. A stripe is therefore
//! held only between that lock loop and that unlock loop, inside a serial
//! guard, with no yield point and no value's `Drop` in between. Read-only
//! transactions commit without touching any of that:
//! every read was checked against `rv` when it was made, and the read
//! that triggers a snapshot extension is re-validated *after* the
//! extension, because it was sampled before the new `rv` and is not yet in
//! the read set the extension walks.
//!
//! Set lookups are O(1): a per-transaction 128-bit Bloom filter over each
//! of the read and write sets answers the common misses (first read of a
//! variable, read of a never-written variable) with two bit tests, and a
//! filter hit falls back to a short scan. Repeated reads of the same
//! variable dedup against the existing entry instead of growing the read
//! set, so validation cost is proportional to *distinct* variables read.

use crate::chaos;
use crate::clock;
use crate::error::{Abort, CapacityKind, ConflictKind, StmResult};
use crate::obs;
use crate::obs::SiteId;
use crate::reclaim;
use crate::sched;
use crate::serial;
use crate::trace;
use crate::tvar::{Boxed, VarInner};
use crate::wait::EventCount;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

type OrecRef = &'static crate::orec::Orec;

static NEXT_TXN_SERIAL: AtomicU64 = AtomicU64::new(1);

/// Serials are handed to threads in chunks so beginning a transaction does
/// not touch a shared cache line. Uniqueness is all that matters to the
/// consumers (orec writer fields, lockdep nodes, trace identity).
const SERIAL_CHUNK: u64 = 256;

thread_local! {
    /// (next, end] of this thread's unissued serial chunk.
    static SERIAL_POOL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn next_serial() -> u64 {
    SERIAL_POOL.with(|p| {
        let (next, end) = p.get();
        if next == end {
            let base = NEXT_TXN_SERIAL.fetch_add(SERIAL_CHUNK, Ordering::Relaxed);
            p.set((base + 1, base + SERIAL_CHUNK));
            base
        } else {
            p.set((next + 1, end));
            next
        }
    })
}

/// Whether a transaction is *atomic* or *relaxed* (paper §5.1, following
/// the C++ TM semantics work it cites).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// May contain only transactionally safe operations; always speculates
    /// and can therefore use `retry`/`restart`.
    #[default]
    Atomic,
    /// May contain unsafe operations (arbitrary side effects) via
    /// [`Txn::unsafe_op`], at the cost of becoming irrevocable.
    Relaxed,
}

/// Configuration for one transaction, assembled by
/// [`TxnBuilder`](crate::TxnBuilder). Internal: call sites configure
/// transactions exclusively through the builder.
#[derive(Clone, Debug)]
pub struct TxnOptions {
    /// Atomic (default) or relaxed transaction.
    pub kind: TxnKind,
    /// Hardware-rung bound on distinct variables read (`None` = unbounded,
    /// and the transaction never runs on the hardware rung).
    pub read_capacity: Option<usize>,
    /// Hardware-rung bound on distinct variables written.
    pub write_capacity: Option<usize>,
    /// Metrics attribution site (see [`crate::obs`]).
    pub site: SiteId,
    /// Graceful-degradation ladder (see
    /// [`EscalationPolicy`](crate::EscalationPolicy)); `None` = stay
    /// optimistic forever.
    pub escalation: Option<crate::runtime::EscalationPolicy>,
}

impl Default for TxnOptions {
    fn default() -> Self {
        TxnOptions {
            kind: TxnKind::Atomic,
            read_capacity: None,
            write_capacity: None,
            site: SiteId::UNATTRIBUTED,
            escalation: None,
        }
    }
}

/// An external resource that finishes with a transaction: a revocable lock
/// ([`Txn::enlist`]) or a file's deferred I/O ([`Txn::defer`]). The runtime
/// invokes exactly one of the two callbacks, on the transaction's thread.
pub trait TxResource: Send + Sync {
    /// The transaction committed; release/apply the resource.
    fn commit(&self, txn_serial: u64);
    /// The transaction aborted; roll the resource back.
    fn abort(&self, txn_serial: u64);
}

/// Shared flag with which an external party (a deadlock detector) can
/// request that a running transaction abort at its next transactional
/// operation.
#[derive(Clone, Debug)]
pub struct KillHandle {
    flag: Arc<AtomicBool>,
    serial: u64,
}

impl KillHandle {
    /// Request the owning transaction abort with [`Abort::Killed`].
    pub fn kill(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a kill has been requested.
    pub fn is_killed(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Serial number of the transaction attempt this handle refers to.
    pub fn serial(&self) -> u64 {
        self.serial
    }
}

struct ReadEntry {
    orec: OrecRef,
    id: u64,
    version: u64,
}

struct WriteEntry {
    var: Arc<VarInner>,
    value: Boxed,
}

/// Two bits per id in a 128-bit Bloom filter; a miss (any bit clear) is a
/// definitive "not in set", a hit falls back to a scan.
#[inline]
fn filter_bits(id: u64) -> u128 {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (1u128 << (h >> 57)) | (1u128 << ((h >> 50) & 127))
}

/// One completion action: commit runs the list forwards, abort backwards,
/// each skipping the other phase's closures.
enum Hook {
    Commit(Box<dyn FnOnce()>),
    Abort(Box<dyn FnOnce()>),
    Deferred(Arc<dyn TxResource>),
}

/// A snapshot of a transaction's read set, used to block `retry` until a
/// read variable changes.
pub(crate) struct ReadSnapshot(Vec<(OrecRef, u64)>);

impl ReadSnapshot {
    /// Whether any read stripe has a different committed version than the
    /// one the transaction observed (a busy orec counts as "changing").
    pub(crate) fn changed(&self) -> bool {
        self.0.iter().any(|(o, ver)| o.writer() != 0 || o.version() != *ver)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// An in-flight memory transaction.
///
/// Obtained from [`atomic`](crate::atomic) and friends; not constructible
/// directly. All transactional reads, writes, lock acquisitions and I/O go
/// through methods that take `&mut Txn`, which statically prevents using a
/// transaction from two threads or after it finished.
pub struct Txn {
    serial: u64,
    rv: u64,
    kind: TxnKind,
    attempt: u64,
    site: SiteId,
    read_set: Vec<ReadEntry>,
    write_set: Vec<WriteEntry>,
    /// Bloom filter over read-set ids (duplicate-read dedup).
    read_filter: u128,
    /// Bloom filter over `write_set` ids (read-after-write lookup).
    write_filter: u128,
    hooks: Vec<Hook>,
    resources: Vec<Arc<dyn TxResource>>,
    /// Created on first [`kill_handle`](Txn::kill_handle) request; most
    /// transactions never pay the allocation.
    kill_flag: OnceLock<Arc<AtomicBool>>,
    irrevocable: Option<serial::ExclusiveGuard>,
    was_irrevocable: bool,
    read_capacity: Option<usize>,
    write_capacity: Option<usize>,
    finished: bool,
    /// Canary: this commit already bumped the retry notifier *before*
    /// write-back (the planted reordering), so the normal post-publish
    /// notification must be suppressed to keep the mutation a true
    /// reorder rather than a duplicate.
    #[cfg(feature = "canary")]
    canary_notified_early: bool,
}

impl fmt::Debug for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("serial", &self.serial)
            .field("rv", &self.rv)
            .field("kind", &self.kind)
            .field("attempt", &self.attempt)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .field("irrevocable", &self.irrevocable.is_some())
            .finish()
    }
}

impl Txn {
    /// Begin one attempt; the capacity bounds apply only to an attempt on
    /// the `hardware` rung.
    pub(crate) fn begin(opts: &TxnOptions, attempt: u64, hardware: bool) -> Txn {
        sched::yield_point(sched::SyncOp::TxnBegin);
        let serial = next_serial();
        trace::emit(trace::EventKind::TxnBegin { serial });
        Txn {
            serial,
            rv: clock::begin_stamp(),
            kind: opts.kind,
            site: opts.site,
            attempt,
            read_set: Vec::new(),
            write_set: Vec::new(),
            read_filter: 0,
            write_filter: 0,
            hooks: Vec::new(),
            resources: Vec::new(),
            kill_flag: OnceLock::new(),
            irrevocable: None,
            was_irrevocable: false,
            read_capacity: opts.read_capacity.filter(|_| hardware),
            write_capacity: opts.write_capacity.filter(|_| hardware),
            finished: false,
            #[cfg(feature = "canary")]
            canary_notified_early: false,
        }
    }

    /// Unique serial number of this transaction attempt.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// 1-based attempt number within the enclosing `atomic` call.
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// The transaction's kind (atomic or relaxed).
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// Whether the transaction has become irrevocable.
    pub fn is_irrevocable(&self) -> bool {
        self.irrevocable.is_some()
    }

    /// Whether the transaction became irrevocable at any point in its life
    /// (remains `true` after an irrevocable commit releases the lock).
    pub fn was_irrevocable(&self) -> bool {
        self.was_irrevocable
    }

    /// A handle external parties (deadlock detectors) can use to abort this
    /// transaction.
    pub fn kill_handle(&self) -> KillHandle {
        let flag = self.kill_flag.get_or_init(|| Arc::new(AtomicBool::new(false)));
        KillHandle { flag: flag.clone(), serial: self.serial }
    }

    /// Check for an external kill request.
    ///
    /// # Errors
    ///
    /// [`Abort::Killed`] if a kill was requested and the transaction is not
    /// irrevocable (an irrevocable transaction can no longer roll back, so
    /// kills are ignored).
    pub fn check_killed(&self) -> StmResult<()> {
        let killed = self.kill_flag.get().is_some_and(|f| f.load(Ordering::SeqCst));
        if self.irrevocable.is_none() && killed {
            return Err(Abort::Killed);
        }
        Ok(())
    }

    // ---- reads and writes -------------------------------------------------

    /// Index into `write_set` for `id`, or `None` — O(1) via the write
    /// Bloom filter for the common miss.
    #[inline]
    fn write_slot(&self, id: u64, bits: u128) -> Option<usize> {
        if self.write_filter & bits != bits {
            return None;
        }
        self.write_set.iter().rposition(|w| w.var.id == id)
    }

    /// The one transactional read. A write-set hit hands `f` the buffered
    /// value. Otherwise the read opens a [`reclaim`] window at epoch `rv`,
    /// loads the committed pointer between the orec checks, does its
    /// bookkeeping (snapshot extension and re-validation, duplicate check,
    /// read-set push), runs `f` on the accepted pointer and closes the
    /// window. A commit never waits for `f`; `f` must not touch a `TVar`,
    /// block or yield, because the open window pins every writer's garbage.
    pub(crate) fn read_raw<R>(
        &mut self,
        var: &VarInner,
        f: impl FnOnce(*const ()) -> R,
    ) -> StmResult<R> {
        // Irrevocable bodies never yield: they hold the global serial lock,
        // so parking them could strand an OS-blocked peer (and serial mode
        // is semantically one atomic step anyway).
        if self.irrevocable.is_none() {
            sched::yield_point(sched::SyncOp::TxnRead(var.id));
        }
        self.check_killed()?;
        // Chaos: a forced validation failure on the read path. Irrevocable
        // transactions are exempt — like kills — because they cannot roll
        // back.
        if self.irrevocable.is_none() && chaos::should_inject(chaos::InjectionPoint::TxnRead) {
            return Err(Abort::Conflict(ConflictKind::ReadValidation));
        }
        let bits = filter_bits(var.id);
        if let Some(i) = self.write_slot(var.id, bits) {
            self.trace_access(var.id, trace::AccessKind::Read);
            return Ok(f(Arc::as_ptr(&self.write_set[i].value).cast()));
        }
        reclaim::pinned(self.rv, || self.read_committed(var, bits, f))
    }

    /// [`read_raw`](Txn::read_raw)'s committed-value half, inside its
    /// window.
    fn read_committed<R>(
        &mut self,
        var: &VarInner,
        bits: u128,
        f: impl FnOnce(*const ()) -> R,
    ) -> StmResult<R> {
        let (value, version) = var.read_consistent()?;
        if version > self.rv {
            self.extend_rv()?;
            // The triggering read was sampled before the new `rv` and is
            // not in the read set the extension just walked: a writer that
            // locked and stamped at or below the new `rv` but has not
            // written back yet would make it stale-but-accepted, and a
            // read-only commit never validates again.
            debug_assert!(version <= self.rv, "stripe version {version} leads the clock");
            if !var.orec.validate(version, self.serial) {
                return Err(Abort::Conflict(ConflictKind::ReadValidation));
            }
        }
        // Duplicate read: dedup against the existing entry instead of
        // growing the read set.
        if self.read_filter & bits == bits {
            if let Some(e) = self.read_set.iter().rev().find(|e| e.id == var.id) {
                if e.version == version {
                    self.trace_access(var.id, trace::AccessKind::Read);
                    return Ok(f(value));
                }
                // The stripe moved since the first read of this variable:
                // the recorded entry can no longer validate, so the
                // transaction is doomed — abort now instead of at commit.
                return Err(Abort::Conflict(ConflictKind::ReadValidation));
            }
        }
        if let Some(cap) = self.read_capacity {
            if self.read_set.len() >= cap {
                return Err(Abort::Capacity(CapacityKind::ReadSet));
            }
        }
        self.read_set.push(ReadEntry { orec: var.orec, id: var.id, version });
        self.read_filter |= bits;
        self.trace_access(var.id, trace::AccessKind::Read);
        Ok(f(value))
    }

    pub(crate) fn write_raw(&mut self, var: &Arc<VarInner>, value: Boxed) -> StmResult<()> {
        if self.irrevocable.is_none() {
            sched::yield_point(sched::SyncOp::TxnWrite(var.id));
        }
        self.check_killed()?;
        let bits = filter_bits(var.id);
        if let Some(i) = self.write_slot(var.id, bits) {
            self.write_set[i].value = value;
            self.trace_access(var.id, trace::AccessKind::Write);
            return Ok(());
        }
        if let Some(cap) = self.write_capacity {
            if self.write_set.len() >= cap {
                return Err(Abort::Capacity(CapacityKind::WriteSet));
            }
        }
        self.write_set.push(WriteEntry { var: var.clone(), value });
        self.write_filter |= bits;
        self.trace_access(var.id, trace::AccessKind::Write);
        Ok(())
    }

    #[inline]
    fn trace_access(&self, var: u64, kind: trace::AccessKind) {
        trace::emit(trace::EventKind::TxnAccess { serial: self.serial, var, kind });
    }

    /// Advance the read version to the current clock by revalidating every
    /// read made so far (TL2 lazy snapshot extension).
    fn extend_rv(&mut self) -> StmResult<()> {
        let new_rv = clock::now();
        for e in &self.read_set {
            if !e.orec.validate(e.version, self.serial) {
                return Err(Abort::Conflict(ConflictKind::ReadValidation));
            }
        }
        self.rv = new_rv;
        Ok(())
    }

    // ---- control flow ------------------------------------------------------

    /// Abort and block until another transaction changes a variable in this
    /// transaction's read set, then re-execute (Harris-style `retry`; the
    /// paper uses it to replace condition-variable waits in Recipe 3).
    ///
    /// Returns an `Err` unconditionally so it composes with `?`:
    /// `return txn.retry();`.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is irrevocable — an inevitable transaction
    /// cannot speculate and therefore cannot roll back to wait.
    pub fn retry<T>(&mut self) -> StmResult<T> {
        assert!(
            self.irrevocable.is_none(),
            "retry inside an irrevocable transaction is not possible: it cannot roll back"
        );
        Err(Abort::Retry)
    }

    /// Explicitly abort and immediately re-execute (the paper's `abort`
    /// statement).
    ///
    /// # Panics
    ///
    /// Panics if the transaction is irrevocable.
    pub fn restart<T>(&mut self) -> StmResult<T> {
        assert!(
            self.irrevocable.is_none(),
            "restart inside an irrevocable transaction is not possible: it cannot roll back"
        );
        Err(Abort::Restart)
    }

    /// Abort and make the enclosing [`try_run`](crate::TxnBuilder::try_run)
    /// return [`TxnError::Cancelled`](crate::TxnError::Cancelled) without
    /// re-executing.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is irrevocable.
    pub fn cancel<T>(&mut self) -> StmResult<T> {
        assert!(
            self.irrevocable.is_none(),
            "cancel inside an irrevocable transaction is not possible: it cannot roll back"
        );
        Err(Abort::Cancel)
    }

    /// Commit the transaction's effects so far, block until `events` is
    /// notified after the commit, and re-execute the body
    /// (commit-before-wait).
    ///
    /// Returns an `Err` unconditionally so it composes with `?`.
    pub fn wait_on<T>(&mut self, events: Arc<EventCount>) -> StmResult<T> {
        Err(Abort::Wait(events))
    }

    /// Make the transaction irrevocable (inevitable): it can no longer
    /// abort, and all other commits are excluded until it finishes. Used
    /// before operations whose side effects cannot be rolled back.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the read set is no longer valid at the moment
    /// of the switch (the transaction re-executes and can try again).
    pub fn become_irrevocable(&mut self) -> StmResult<()> {
        if self.irrevocable.is_some() {
            return Ok(());
        }
        self.check_killed()?;
        let guard = serial::exclusive();
        // With the serial lock held exclusively no commit is in flight, so
        // validation is stable.
        for e in &self.read_set {
            if !e.orec.validate(e.version, self.serial) {
                drop(guard);
                return Err(Abort::Conflict(ConflictKind::ReadValidation));
            }
        }
        self.rv = clock::now();
        self.irrevocable = Some(guard);
        self.was_irrevocable = true;
        obs::note_irrevocable(self.site);
        Ok(())
    }

    /// Run an operation with arbitrary, non-undoable side effects.
    ///
    /// Only allowed in [`TxnKind::Relaxed`] transactions; makes the
    /// transaction irrevocable first, so the side effect happens at most
    /// once.
    ///
    /// # Errors
    ///
    /// Propagates the conflict from [`become_irrevocable`](Txn::become_irrevocable).
    ///
    /// # Panics
    ///
    /// Panics if called inside a [`TxnKind::Atomic`] transaction; atomic
    /// transactions must contain only transactionally safe operations.
    pub fn unsafe_op<T>(&mut self, f: impl FnOnce() -> T) -> StmResult<T> {
        assert_eq!(
            self.kind,
            TxnKind::Relaxed,
            "unsafe operation inside an atomic transaction; use a relaxed transaction \
             or a transactionally safe equivalent (xcall)"
        );
        self.become_irrevocable()?;
        Ok(f())
    }

    // ---- hooks and resources ----------------------------------------------

    /// Register an action to run if (and only if) the transaction commits,
    /// after its writes are published. Actions run in registration order —
    /// this is what deferred transactional I/O relies on.
    pub fn on_commit(&mut self, f: impl FnOnce() + 'static) {
        self.hooks.push(Hook::Commit(Box::new(f)));
    }

    /// Register a compensating action to run if the transaction aborts.
    /// Actions run in reverse registration order (undo-log order).
    pub fn on_abort(&mut self, f: impl FnOnce() + 'static) {
        self.hooks.push(Hook::Abort(Box::new(f)));
    }

    /// Register a resource that finishes among the hooks: it commits in
    /// order with the `on_commit` actions, aborts in reverse with the
    /// `on_abort` ones, and always before any enlisted resource.
    pub fn defer(&mut self, resource: Arc<dyn TxResource>) {
        self.hooks.push(Hook::Deferred(resource));
    }

    /// Enlist an external resource; exactly one of
    /// [`TxResource::commit`]/[`TxResource::abort`] will be called.
    pub fn enlist(&mut self, resource: Arc<dyn TxResource>) {
        self.resources.push(resource);
    }

    // ---- lifecycle ---------------------------------------------------------

    pub(crate) fn take_read_snapshot(&self) -> ReadSnapshot {
        ReadSnapshot(self.read_set.iter().map(|e| (e.orec, e.version)).collect())
    }

    /// Attempt to commit. On success all writes are published atomically,
    /// resources are committed and commit hooks run. On failure the caller
    /// must invoke [`abort`](Txn::abort). One protocol serves both rungs;
    /// an irrevocable commit skips the steps that can fail.
    pub(crate) fn commit(&mut self) -> StmResult<()> {
        assert!(!self.finished, "transaction used after completion");
        let revocable = self.irrevocable.is_none();
        // One yield before the whole lock-validate-publish sequence: a TL2
        // commit is linearizable, so it is a single step at scheduler
        // granularity and never parks holding orecs or the serial lock.
        if revocable {
            sched::yield_point(sched::SyncOp::TxnCommit);
        }
        // Note: the kill flag is deliberately NOT checked here. A kill is an
        // advisory deadlock-breaking signal; a transaction that reached its
        // commit point is no longer blocking anyone, and validation decides
        // whether the commit is consistent. Aborting at commit would also
        // re-execute non-isolated lock-protected mutations (Recipe 3 uses
        // transactions "only for rollback and not isolation").

        // Chaos: a forced abort on entry to commit, before any orec is
        // taken (models losing validation to a racing committer).
        if revocable && chaos::should_inject(chaos::InjectionPoint::TxnPreCommit) {
            return Err(Abort::Conflict(ConflictKind::ReadValidation));
        }

        if self.write_set.is_empty() {
            // Read-only: every read was validated against rv when made,
            // each rv extension re-validated the reads before it, and the
            // read that triggered the extension was re-validated after it
            // (`read_raw`) — so the snapshot is already consistent.
            self.irrevocable = None;
            self.finish_success(false);
            return Ok(());
        }

        // An irrevocable transaction already holds the lock exclusively.
        let shared = revocable.then(serial::shared);

        // Lock stripes in canonical (stripe-index) order so
        // committer/committer deadlock is structurally impossible. Under
        // the exclusive lock this cannot fail — stripes are only ever held
        // inside a serial guard — but it still happens: non-transactional
        // readers use the stripe seqlock, and publishing a value without
        // the lock can hand them a new value under the old version stamp.
        // A one-entry write set (every KV write) is its own stripe list.
        let mut many: Vec<OrecRef>;
        let stripes: &[OrecRef] = match &self.write_set[..] {
            [w] => std::slice::from_ref(&w.var.orec),
            writes => {
                many = writes.iter().map(|w| w.var.orec).collect();
                many.sort_by_key(|o| o.index());
                many.dedup_by_key(|o| o.index());
                &many
            }
        };
        let serial = self.serial;
        let unlock = |held: &[OrecRef]| held.iter().for_each(|o| o.unlock(serial));
        for (k, o) in stripes.iter().enumerate() {
            if !o.try_lock(serial) {
                assert!(revocable, "orec stripe held under the exclusive serial lock");
                unlock(&stripes[..k]);
                return Err(Abort::Conflict(ConflictKind::OrecBusy));
            }
        }

        // Write stamp *after* the locks (the clock's safety contract).
        let wv = clock::commit_stamp();

        // Canary: commit with a stale version stamp — publish the values
        // but leave every stripe at its *pre-commit* version, so a
        // concurrent reader's validation still matches and the conflict
        // goes unseen.
        #[cfg(feature = "canary")]
        let stale_stamp = crate::canary::fire(crate::canary::Canary::StmStaleStamp);

        if revocable {
            for e in &self.read_set {
                // Canary: skip read-set validation for this orec — a stale
                // read no longer aborts the commit.
                #[cfg(feature = "canary")]
                if crate::canary::fire(crate::canary::Canary::StmSkipValidation) {
                    continue;
                }
                if !e.orec.validate(e.version, serial) {
                    unlock(stripes);
                    return Err(Abort::Conflict(ConflictKind::ReadValidation));
                }
            }

            // Chaos: die at the worst possible moment — validated, orecs
            // locked, nothing published yet. The unlock must leave no
            // trace of the attempt.
            if chaos::should_inject(chaos::InjectionPoint::TxnWriteback) {
                unlock(stripes);
                return Err(Abort::Conflict(ConflictKind::OrecBusy));
            }
        }

        // Canary: bump the retry notifier *before* the write-back loop
        // (and suppress the normal post-publish bump): a retrying waiter
        // can wake, revalidate against the still-unpublished state, and
        // sleep through the only wakeup for the real update.
        #[cfg(feature = "canary")]
        if crate::canary::fire(crate::canary::Canary::StmNotifyReorder) {
            crate::runtime::notify_retriers();
            self.canary_notified_early = true;
        }

        for w in &self.write_set {
            // Canary: skip this TVar's write-back entirely — the
            // transaction still reports success (silent lost update).
            #[cfg(feature = "canary")]
            if crate::canary::fire(crate::canary::Canary::StmSkipWriteback) {
                continue;
            }
            w.var.publish(w.value.clone(), wv);
        }
        #[cfg(feature = "canary")]
        let do_stamp = !stale_stamp;
        #[cfg(not(feature = "canary"))]
        let do_stamp = true;
        if do_stamp {
            for o in stripes {
                o.stamp_release(wv);
            }
        }
        unlock(stripes);
        drop(shared);
        self.irrevocable = None;
        reclaim::collect();

        self.finish_success(true);
        Ok(())
    }

    fn finish_success(&mut self, wrote: bool) {
        self.finished = true;
        trace::emit(trace::EventKind::TxnCommit { serial: self.serial });
        // Deferred actions (e.g. x-call I/O) run first, while enlisted
        // resources — revocable locks in particular — are still held, so
        // the deferred effects stay inside the isolation the locks provide.
        for h in self.hooks.drain(..) {
            match h {
                Hook::Commit(f) => f(),
                Hook::Deferred(r) => r.commit(self.serial),
                Hook::Abort(_) => {}
            }
        }
        for r in self.resources.drain(..) {
            r.commit(self.serial);
        }
        #[cfg(feature = "canary")]
        let wrote = wrote && !std::mem::replace(&mut self.canary_notified_early, false);
        if wrote {
            crate::runtime::notify_retriers();
        }
    }

    /// Roll back: release resources and run compensations. Safe to call at
    /// most once; the runtime does this for every non-committed outcome.
    pub(crate) fn abort(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        trace::emit(trace::EventKind::TxnAbort { serial: self.serial });
        // An irrevocable transaction normally cannot reach here (its commit
        // is infallible and retry/restart/cancel panic first), but a panic
        // unwinding through the body can: writes are still only buffered at
        // that point, so releasing the serial lock and compensating is safe.
        self.irrevocable = None;
        // Compensations run in reverse (undo-log) order while resources —
        // locks — are still held, then the resources are rolled back.
        for h in self.hooks.drain(..).rev() {
            match h {
                Hook::Abort(f) => f(),
                Hook::Deferred(r) => r.abort(self.serial),
                Hook::Commit(_) => {}
            }
        }
        for r in self.resources.drain(..).rev() {
            r.abort(self.serial);
        }
        self.read_set.clear();
        self.write_set.clear();
        self.read_filter = 0;
        self.write_filter = 0;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            // A panic unwound through the transaction body: roll back so
            // locks and compensations are not leaked.
            self.abort();
        }
    }
}
