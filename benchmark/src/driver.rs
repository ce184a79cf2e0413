//! The closed-loop driver: real OS threads, wall-clock time, one store per
//! mode.
//!
//! A run of one mode is: set-up (open + preload every key + checkpoint), one
//! discarded warm-up round, the measured rounds, one un-truncated tail
//! round, then `SimFs::crash` and a reopen that must reproduce the pre-crash
//! state. A round is `ops_per_client` ops per client from the seeded
//! generator, then a timed reopen (what recovery would cost now), then
//! `checkpoint_and_truncate` on every shard: the checkpoint cadence is the
//! flush policy, and it is fixed. Clients wait for each reply before sending
//! the next op (the store is an embedded library), so a slower store
//! receives less load. Every time recorded is in reference nanoseconds
//! (`stats::host_speed`).

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use txfix_bench::pool::pin_worker_rng;
use txfix_bench::workload::{Workload, WorkloadOp};
use txfix_kvstore::model::{check_history, Event, ModelOp, ModelResult};
use txfix_kvstore::page::PAGE_BYTES;
use txfix_kvstore::{KvConfig, KvError, KvStore, Mode, OpStats};
use txfix_xcall::SimFs;

use crate::spec::{WorkloadSpec, CLIENTS};
use crate::stats::{calibrate, host_speed, median, timed};
use crate::trace::{Span, Trace, OP_SPANS_KEPT_PER_CLIENT_ROUND};

/// Op kinds, in the order of the generator's `get:put:delete:scan` mix.
pub const GET: usize = 0;
pub const PUT: usize = 1;
pub const DELETE: usize = 2;
pub const SCAN: usize = 3;
const SPAN_NAMES: [&str; 4] = ["store.get", "store.put", "store.delete", "store.scan"];

/// A time-budgeted run still measures this many rounds of every mode.
const MIN_ROUNDS: usize = 3;

/// How many measured rounds each mode runs.
#[derive(Clone, Copy)]
pub enum Rounds {
    /// Until this much time has gone into measured rounds, over all modes
    /// (`--seconds`).
    Budget(Duration),
    /// Exactly this many (traced runs, `--smoke`).
    Fixed(usize),
}

/// Everything a run of one workload shares across modes.
pub struct Plan<'a> {
    pub spec: &'a WorkloadSpec,
    pub workload: Workload,
    pub seed: u64,
    /// `spec.ops_per_client`, or a fiftieth of it under `--smoke`.
    pub ops_per_client: u64,
    /// Zero of every timestamp.
    pub epoch: Instant,
}

impl Plan<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn config(&self, mode: Mode) -> KvConfig {
        KvConfig::new(mode, self.spec.shards)
    }
}

/// What one mode's run measured. Sums and samples cover the measured
/// rounds only, except `attempted`/`failed`, which cover everything. Every
/// time is in reference nanoseconds (`stats::host_speed`).
#[derive(Default)]
pub struct ModeRun {
    pub setup_s: Vec<f64>,
    /// Measured rounds.
    pub rounds: usize,
    /// `slice_ns[k]`: how long the `k`-th slice of a client's round took,
    /// one sample per client and round.
    pub slice_ns: Vec<Vec<f64>>,
    /// Every host-speed factor the clients' slices were scaled by.
    pub host_speed: Vec<f64>,
    /// Per round: `checkpoint_and_truncate` over all shards.
    pub checkpoint_ms: Vec<f64>,
    /// Per-op latency by kind, pooled over clients and rounds.
    pub lat_ns: [Vec<u32>; 4],
    pub recover_s: Vec<f64>,
    /// Ops issued (preload, warm-up and tail included) plus checks made.
    pub attempted: u64,
    /// Ops that returned an error plus checks that failed.
    pub failed: u64,
    pub ops: u64,
    pub attempts: u64,
    pub escalations: u64,
    pub serial_commits: u64,
    /// Key + value bytes of acknowledged puts and deletes.
    pub user_bytes: u64,
    /// Bytes appended to the shard WALs.
    pub wal_bytes: u64,
    pub flushed_pages: u64,
    /// Shard 0 right after set-up: the shape the page probes replay.
    pub shard0_preload: BTreeMap<String, String>,
    pub history_events: u64,
}

impl ModeRun {
    /// Ops per second of a round, checkpoint included. A round's op time is
    /// the sum over its slices of each slice's median time over clients and
    /// rounds: slices, because one pair of calibration readings cannot speak
    /// for a whole half-second round.
    pub fn ops_per_s(&self) -> f64 {
        let ops_ns: f64 = self.slice_ns.iter().map(|s| median(s)).sum();
        let round_ops = self.ops as f64 / self.rounds as f64;
        round_ops / (ops_ns + median(&self.checkpoint_ms) * 1e6) * 1e9
    }

    /// Bytes written to storage per byte of user data acknowledged; 0 when
    /// the workload writes nothing.
    pub fn write_amp(&self) -> f64 {
        if self.user_bytes == 0 {
            return 0.0;
        }
        (self.wal_bytes + self.flushed_pages * PAGE_BYTES as u64) as f64 / self.user_bytes as f64
    }
}

/// The value a key is preloaded with: as long as the generator's values
/// (`u<user>_w<worker>_<i>`), so bucket clones cost what they will cost.
fn preload_value(rank: u64) -> String {
    format!("u{rank:06}_w9_000000")
}

/// Enough samples of set-up (which lasts from a millisecond to a third of
/// a second): at least three, and until 0.3 s have gone into it.
fn enough(samples: &[f64]) -> bool {
    samples.len() >= 3 && samples.iter().sum::<f64>() >= 0.3
}

fn model_op(op: &WorkloadOp) -> ModelOp {
    match op {
        WorkloadOp::Get(k) => ModelOp::Get(k.clone()),
        WorkloadOp::Put(k, v) => ModelOp::Put(k.clone(), v.clone()),
        WorkloadOp::Delete(k) => ModelOp::Delete(k.clone()),
        WorkloadOp::Scan(_) => ModelOp::Scan,
    }
}

/// Issue `op`; returns its kind, the user bytes it carries, and the reply.
fn exec(kv: &KvStore, op: &WorkloadOp) -> (usize, u64, Result<(OpStats, ModelResult), KvError>) {
    match op {
        WorkloadOp::Get(k) => (GET, 0, kv.get(k).map(|r| (r.stats, ModelResult::Value(r.value)))),
        WorkloadOp::Put(k, v) => (
            PUT,
            (k.len() + v.len()) as u64,
            kv.put(k, v).map(|r| (r.stats, ModelResult::Value(r.value))),
        ),
        WorkloadOp::Delete(k) => {
            (DELETE, k.len() as u64, kv.delete(k).map(|r| (r.stats, ModelResult::Value(r.value))))
        }
        WorkloadOp::Scan(draw) => {
            let shard = (draw % kv.config().shards as u64) as usize;
            (SCAN, 0, kv.scan(shard).map(|r| (r.stats, ModelResult::Snapshot(r.value))))
        }
    }
}

#[derive(Default)]
struct ClientOut {
    /// `(kind, end_ns)` per op; within a slice an op starts where the
    /// previous one ended.
    samples: Vec<(u8, u64)>,
    /// `(start_ns, host speed)` per slice.
    slices: Vec<(u64, f64)>,
    events: Vec<Event>,
    errors: u64,
    attempts: u64,
    escalations: u64,
    serial_commits: u64,
    user_bytes: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    WarmUp,
    Measured,
    Tail,
}

/// One mode's store while it is being driven.
struct Driver<'p> {
    plan: &'p Plan<'p>,
    mode: Mode,
    fs: Arc<SimFs>,
    store: KvStore,
    run: ModeRun,
    /// Every reply so far, when tracing (the history the oracle replays).
    events: Vec<Event>,
    next_round: u64,
}

/// Open a fresh store, preload every key, checkpoint every shard.
fn setup(
    plan: &Plan,
    mode: Mode,
    run: &mut ModeRun,
    mut events: Option<&mut Vec<Event>>,
) -> (Arc<SimFs>, KvStore) {
    let fs = SimFs::new();
    let mut store = KvStore::open(&fs, plan.config(mode));
    for rank in 0..plan.spec.keys {
        let op = WorkloadOp::Put(format!("k{rank}"), preload_value(rank));
        run.attempted += 1;
        match exec(&store, &op).2 {
            Ok((stats, result)) => {
                if let Some(events) = events.as_deref_mut() {
                    events.push(Event {
                        shard: stats.shard,
                        version: stats.version,
                        op: model_op(&op),
                        result,
                    });
                }
            }
            Err(_) => run.failed += 1,
        }
    }
    for s in 0..plan.spec.shards {
        store.checkpoint_and_truncate(s);
    }
    (fs, store)
}

/// Every client issues ops `first..first + ops_per_client` of its stream,
/// slice by slice, each slice between two calibration readings.
fn drive_clients(
    plan: &Plan,
    kv: &KvStore,
    first: u64,
    slice_len: usize,
    record: bool,
) -> Vec<ClientOut> {
    let n = plan.ops_per_client;
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || {
                    pin_worker_rng(plan.seed, client as usize);
                    // Generated before the clock starts: the generator is
                    // not the system under test.
                    let ops: Vec<WorkloadOp> = (first..first + n)
                        .map(|i| plan.workload.op(plan.seed, client, i))
                        .collect();
                    let mut out = ClientOut::default();
                    out.samples.reserve_exact(ops.len());
                    barrier.wait();
                    let mut reading = calibrate();
                    for slice in ops.chunks(slice_len) {
                        let slice_start = plan.now_ns();
                        for op in slice {
                            let (kind, bytes, reply) = exec(kv, op);
                            match reply {
                                Ok((stats, result)) => {
                                    out.attempts += stats.attempts;
                                    out.escalations += stats.escalations;
                                    out.serial_commits += stats.serialized as u64;
                                    out.user_bytes += bytes;
                                    if record {
                                        out.events.push(Event {
                                            shard: stats.shard,
                                            version: stats.version,
                                            op: model_op(op),
                                            result,
                                        });
                                    }
                                }
                                Err(_) => out.errors += 1,
                            }
                            out.samples.push((kind as u8, plan.now_ns()));
                        }
                        let next = calibrate();
                        out.slices.push((slice_start, host_speed(reading, next)));
                        reading = next;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

impl<'p> Driver<'p> {
    /// Set up `mode`'s store (the first `setup_s` sample).
    fn new(plan: &'p Plan<'p>, mode: Mode, trace: &mut Trace) -> Driver<'p> {
        let mut run = ModeRun::default();
        let mut events = Vec::new();
        let span = trace.open(format!("{}.setup", mode.name()), None);
        let record = trace.enabled().then_some(&mut events);
        let ((fs, store), ns) = timed(|| setup(plan, mode, &mut run, record));
        run.setup_s.push(ns / 1e9);
        trace.close(span);
        run.shard0_preload = store.shard_snapshot(0);
        Driver { plan, mode, fs, store, run, events, next_round: 0 }
    }

    /// One round: every client issues its ops, then (except on the tail)
    /// every shard is checkpointed and its WAL truncated. Returns how long
    /// all of it took.
    fn round(&mut self, phase: Phase, trace: &mut Trace) -> Duration {
        let started = Instant::now();
        let plan = self.plan;
        let n = plan.ops_per_client;
        let first = self.next_round * n;
        self.next_round += 1;
        let what = match phase {
            Phase::WarmUp => "warmup_round",
            Phase::Measured => "round",
            Phase::Tail => "tail_round",
        };
        let span = trace.open(format!("{}.{what}", self.mode.name()), None);

        let slice_len = (n / plan.spec.slices).max(1) as usize;
        let outs = drive_clients(plan, &self.store, first, slice_len, trace.enabled());
        let shards = plan.spec.shards;
        let wal_bytes: u64 = (0..shards)
            .map(|s| self.fs.open_or_create(&format!("kv_shard{s}.wal")).len() as u64)
            .sum();

        // What a crash here would cost: checkpoint + this round's WAL.
        if phase == Phase::Measured {
            self.timed_reopen(trace, span);
        }
        let mut flushed = 0;
        if phase != Phase::Tail {
            let before: u64 = (0..shards).map(|s| self.store.pool_stats(s).flushed_pages).sum();
            let ckpt_span = trace.open("store.checkpoint", span);
            let ((), ckpt_ns) = timed(|| {
                for s in 0..shards {
                    self.store.checkpoint_and_truncate(s);
                }
            });
            trace.close(ckpt_span);
            let after: u64 = (0..shards).map(|s| self.store.pool_stats(s).flushed_pages).sum();
            flushed = after - before;
            if phase == Phase::Measured {
                self.run.checkpoint_ms.push(ckpt_ns / 1e6);
            }
        }
        // Set-up is repeated beside the rounds, not in one burst at the
        // start, so that its samples see the host in more than one mood.
        if phase == Phase::Measured && !enough(&self.run.setup_s) {
            let setup_span = trace.open("setup", span);
            let (_, ns) = timed(|| setup(plan, self.mode, &mut self.run, None));
            self.run.setup_s.push(ns / 1e9);
            trace.close(setup_span);
        }
        trace.close(span);

        let run = &mut self.run;
        let measured = phase == Phase::Measured;
        run.attempted += n * CLIENTS as u64;
        if measured {
            run.rounds += 1;
            run.ops += n * CLIENTS as u64;
            run.wal_bytes += wal_bytes;
            run.flushed_pages += flushed;
        }
        run.slice_ns.resize(n.div_ceil(slice_len as u64) as usize, Vec::new());
        for (client, out) in outs.into_iter().enumerate() {
            run.failed += out.errors;
            if measured {
                run.attempts += out.attempts;
                run.escalations += out.escalations;
                run.serial_commits += out.serial_commits;
                run.user_bytes += out.user_bytes;
            }
            let slices = out.samples.chunks(slice_len).zip(out.slices);
            for (k, (samples, (slice_start, speed))) in slices.enumerate() {
                let mut start_ns = slice_start;
                for (j, &(kind, end_ns)) in samples.iter().enumerate() {
                    if measured {
                        let ns = (end_ns - start_ns) as f64 * speed;
                        run.lat_ns[kind as usize].push(ns.min(u32::MAX as f64) as u32);
                    }
                    if trace.enabled() {
                        let j = (k * slice_len + j) as u64;
                        let op = Span {
                            name: SPAN_NAMES[kind as usize].into(),
                            start_ns,
                            end_ns,
                            parent: span,
                            op_id: Some((client as u64) << 32 | (first + j)),
                        };
                        trace.op_span(op, j < OP_SPANS_KEPT_PER_CLIENT_ROUND);
                    }
                    start_ns = end_ns;
                }
                if measured {
                    run.slice_ns[k].push((start_ns - slice_start) as f64 * speed);
                    run.host_speed.push(speed);
                }
            }
            self.events.extend(out.events);
        }
        started.elapsed()
    }

    /// One `recover_s` sample: open a second store over the same files, as
    /// recovery would. Opening only reads them.
    fn timed_reopen(&mut self, trace: &mut Trace, parent: Option<u32>) -> KvStore {
        let span = trace.open("store.open", parent);
        let (reopened, ns) = timed(|| KvStore::open(&self.fs, self.plan.config(self.mode)));
        self.run.recover_s.push(ns / 1e9);
        trace.close(span);
        reopened
    }

    /// Crash the filesystem (unflushed bytes are gone — reopening without
    /// this would read the simulated page cache and prove nothing), reopen,
    /// and compare every shard with what the store held before.
    fn crash_and_recover(mut self, trace: &mut Trace) -> ModeRun {
        let shards = self.plan.spec.shards;
        let want: Vec<_> = (0..shards).map(|s| self.store.shard_snapshot(s)).collect();
        self.fs.crash(self.plan.seed);
        let reopened = self.timed_reopen(trace, None);
        self.run.attempted += shards as u64;
        self.run.failed += recovery_mismatches(&want, &reopened);
        if trace.enabled() {
            self.run.attempted += 1;
            self.run.history_events = self.events.len() as u64;
            if let Err(why) = check_history(&self.events) {
                eprintln!("kvbench: {} history diverged: {why}", self.mode.name());
                self.run.failed += 1;
            }
        }
        self.run
    }
}

/// Shards of `reopened` that differ from what was acknowledged.
pub fn recovery_mismatches(want: &[BTreeMap<String, String>], reopened: &KvStore) -> u64 {
    want.iter().enumerate().filter(|(s, w)| reopened.shard_snapshot(*s) != **w).count() as u64
}

/// Run `modes` of the plan's workload, each on its own store, from an empty
/// filesystem to the post-crash reopen; one [`ModeRun`] per mode, in order.
/// The modes take turns round by round, so that a slow stretch of the host
/// falls on all of them and on few rounds of each. With an enabled trace,
/// every call is recorded as a span and every reply as a history event that
/// `check_history` must accept.
pub fn run_modes(plan: &Plan, modes: &[Mode], rounds: Rounds, trace: &mut Trace) -> Vec<ModeRun> {
    let mut drivers: Vec<Driver> = modes.iter().map(|&m| Driver::new(plan, m, trace)).collect();
    // The first round runs cold (allocator, caches): never measured.
    for d in &mut drivers {
        d.round(Phase::WarmUp, trace);
    }
    let mut spent = Duration::ZERO;
    let mut last = Duration::ZERO;
    for done in 0.. {
        let stop = match rounds {
            Rounds::Fixed(n) => done >= n,
            Rounds::Budget(b) => done >= MIN_ROUNDS && spent + last / 2 > b,
        };
        if stop {
            break;
        }
        last = drivers.iter_mut().map(|d| d.round(Phase::Measured, trace)).sum();
        spent += last;
    }
    // The tail round leaves a WAL for recovery to replay.
    for d in &mut drivers {
        d.round(Phase::Tail, trace);
    }
    drivers.into_iter().map(|d| d.crash_and_recover(trace)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn tiny_plan(name: &str) -> Plan<'static> {
        let spec = workload(name).unwrap();
        Plan {
            spec,
            workload: Workload::new(spec.cfg()),
            seed: 3,
            ops_per_client: 200,
            epoch: Instant::now(),
        }
    }

    #[test]
    fn a_run_is_clean_and_counts_what_it_planned() {
        let plan = tiny_plan("contended_mix");
        for mode in Mode::ALL {
            let mut trace = Trace::new(plan.epoch);
            let run = run_modes(&plan, &[mode], Rounds::Fixed(2), &mut trace).remove(0);
            assert_eq!(run.failed, 0, "{}", mode.name());
            assert_eq!(run.ops, 2 * 200 * CLIENTS as u64);
            assert_eq!(run.rounds, 2);
            assert_eq!(run.slice_ns.len(), 1);
            assert!(run.slice_ns.iter().all(|s| s.len() == 2 * CLIENTS));
            assert!(run.ops_per_s() > 0.0);
            assert_eq!(run.lat_ns.iter().map(Vec::len).sum::<usize>() as u64, run.ops);
            // Preload of the last set-up + warm-up, two rounds and tail.
            assert_eq!(run.history_events, 64 + 4 * 200 * CLIENTS as u64);
            assert!(run.write_amp() > 1.0);
            let op_spans = trace.spans.iter().filter(|s| s.op_id.is_some()).count() as u64;
            assert_eq!(op_spans, 4 * 200 * CLIENTS as u64);
        }
    }

    #[test]
    fn a_corrupted_expectation_fails_the_recovery_check() {
        let plan = tiny_plan("write_durable");
        let mut run = ModeRun::default();
        let (fs, store) = setup(&plan, Mode::Tm, &mut run, None);
        store.put("k1", "tail_write").unwrap();
        let mut want: Vec<_> = (0..4).map(|s| store.shard_snapshot(s)).collect();
        drop(store);
        fs.crash(plan.seed);
        let reopened = KvStore::open(&fs, plan.config(Mode::Tm));
        assert_eq!(recovery_mismatches(&want, &reopened), 0);
        want[2].insert("k_never_written".into(), "x".into());
        assert_eq!(recovery_mismatches(&want, &reopened), 1);
    }

    #[test]
    fn a_forged_reply_fails_the_history_check() {
        let plan = tiny_plan("write_durable");
        let mut run = ModeRun::default();
        let mut events = Vec::new();
        setup(&plan, Mode::Tm, &mut run, Some(&mut events));
        assert_eq!(check_history(&events), Ok(256));
        events[7].result = ModelResult::Value(Some("forged".into()));
        assert!(check_history(&events).is_err());
    }
}
