//! In-memory spans, recorded by the benchmark around its calls into the
//! layers and written out once at the end of a traced run.
//!
//! A span's id is its index. Self time of a span = its duration minus the
//! part its children cover. Until the program traces itself, a `store.*`
//! op span has no children; the probes supply the split instead (README).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// Op spans kept per client and round. Every span is counted, but a
/// `read_hot` round is 500 000 ops and a trace file is for reading, so the
/// trace keeps the head of each round.
pub const OP_SPANS_KEPT_PER_CLIENT_ROUND: u64 = 2_500;

pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by all spans of one request: `client << 32 | op index`.
    pub op_id: Option<u64>,
}

pub struct Trace {
    epoch: Instant,
    /// Off in the timed runs: nothing is recorded and `open` returns `None`.
    enabled: bool,
    /// The spans [`Trace::write_json`] writes.
    pub spans: Vec<Span>,
    /// Every span seen, the op spans beyond the cap included.
    pub recorded: u64,
}

impl Trace {
    /// A trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace { epoch, enabled: true, spans: Vec::new(), recorded: 0 }
    }

    /// The trace of an untraced run: records nothing.
    pub fn off() -> Trace {
        Trace { enabled: false, ..Trace::new(Instant::now()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; [`close`](Trace::close) ends it.
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            op_id: None,
        });
        self.recorded += 1;
        Some((self.spans.len() - 1) as u32)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record `f` as a span and return its value.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Count one op's span, and keep it if `keep` (see the cap above).
    pub fn op_span(&mut self, span: Span, keep: bool) {
        self.recorded += 1;
        if keep {
            self.spans.push(span);
        }
    }

    /// Write the trace as JSON, op spans capped per client and round.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{{header}, \"spans_recorded\": {}, \"op_spans_kept_per_client_round\": \
             {OP_SPANS_KEPT_PER_CLIENT_ROUND}, \"spans\": [",
            self.recorded
        );
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op_id\": {}}}",
                if first { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.op_id),
            );
            first = false;
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
