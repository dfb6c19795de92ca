//! In-memory span recorder plus the timing forwarders the traced run
//! wraps around each layer's public trait.
//!
//! Spans are recorded only by this benchmark's own code, around calls
//! into a layer: the library crates are not instrumented. Each span has a
//! name (`layer.op`), start and end on one monotonic clock, the span that
//! caused it, a request id and the thread it ran on. They stay in memory
//! and are written out once, at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oram_cpu::{MissRecord, MissStream};
use oram_dram::{BlockRequest, ChannelStats, ChannelUtilization, EnergyCounters};
use oram_obsv::LivePlane;
use oram_protocol::Block;
use oram_storage::{BatchBreakdown, StorageBackend};
use oram_util::{
    AccessSpan, LiveObserver, MetricId, ServeClass, SharedObserver, SharedTelemetry, TelemetrySink,
    WindowSample,
};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.op`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span worked for (miss index or scheduling round).
    pub request: u64,
    /// Small per-process thread number.
    pub thread: u32,
}

impl Span {
    /// The layer a span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn thread_no() -> u32 {
    THREAD_NO.with(|t| *t)
}

/// Records spans from any thread into one in-memory list.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Thread that created the tracer; spans opened on pool workers with
    /// nothing open on their own thread take its innermost open span as
    /// parent.
    main: u32,
    main_open: AtomicU32,
    request: AtomicU64,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.index);
    }
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            main: thread_no(),
            main_open: AtomicU32::new(NO_PARENT),
            request: AtomicU64::new(0),
        })
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&self, id: u64) {
        self.request.store(id, Ordering::Relaxed);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn open(&self, name: &'static str) -> SpanGuard<'_> {
        let thread = thread_no();
        let parent = STACK.with(|s| s.borrow().last().copied()).unwrap_or_else(|| {
            if thread == self.main {
                NO_PARENT
            } else {
                self.main_open.load(Ordering::Acquire)
            }
        });
        let request = self.request.load(Ordering::Relaxed);
        let index = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            spans.push(Span { name, start_ns, end_ns: 0, parent, request, thread });
            (spans.len() - 1) as u32
        };
        STACK.with(|s| s.borrow_mut().push(index));
        if thread == self.main {
            self.main_open.store(index, Ordering::Release);
        }
        SpanGuard { tracer: self, index }
    }

    fn close(&self, index: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned")[index as usize].end_ns = end_ns;
        let outer = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            s.last().copied().unwrap_or(NO_PARENT)
        });
        if thread_no() == self.main {
            self.main_open.store(outer, Ordering::Release);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes up to `limit` spans as CSV (one line each, after a header
    /// giving the total), creating the parent directory.
    pub fn write_csv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {} spans, first {} written", spans.len(), spans.len().min(limit))?;
        writeln!(out, "index,name,start_ns,end_ns,parent,request,thread")?;
        for (i, s) in spans.iter().take(limit).enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{i},{},{},{},{parent},{},{}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}

/// Opens a span when tracing is on.
pub fn span<'a>(tracer: &'a Option<Arc<Tracer>>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.as_ref().map(|t| t.open(name))
}

/// Host time of a traced region split by layer.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Duration of the root span.
    pub wall_ns: u64,
    /// Self time per layer (span duration minus the union of its
    /// children's intervals), summed over the layer's spans. The root's
    /// own layer is not included; its self time is `unattributed_ns`.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Self time of the root span: the benchmark's own code between
    /// calls into a layer.
    pub unattributed_ns: u64,
    /// Time children ran in parallel with each other (counted in more
    /// than one child's self time).
    pub parallel_ns: u64,
    /// Self time per span, indexed like the span list.
    pub self_ns: Vec<u64>,
}

impl Breakdown {
    /// Splits the spans under `root` (inclusive). Fails when a span is
    /// still open, when a child is not inside its parent's interval, or
    /// when two children on one thread overlap.
    pub fn of(spans: &[Span], root: usize) -> Result<Breakdown, String> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.end_ns == 0 {
                return Err(format!("span {i} ({}) never closed", s.name));
            }
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut b = Breakdown { self_ns: vec![0; spans.len()], ..Breakdown::default() };
        b.wall_ns = spans[root].dur();
        let mut todo = vec![root];
        let mut intervals: Vec<(u64, u64, u32)> = Vec::new();
        while let Some(i) = todo.pop() {
            let p = spans[i];
            intervals.clear();
            for &c in &children[i] {
                let s = spans[c as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "{} span {c} escapes its parent {} span {i}",
                        s.name, p.name
                    ));
                }
                intervals.push((s.start_ns, s.end_ns, s.thread));
                todo.push(c as usize);
            }
            intervals.sort_unstable();
            let (mut covered, mut sum) = (0u64, 0u64);
            let mut cur: Option<(u64, u64)> = None;
            let mut last_end_on_thread: BTreeMap<u32, u64> = BTreeMap::new();
            for &(start, end, thread) in &intervals {
                sum += end - start;
                let prev = last_end_on_thread.entry(thread).or_insert(0);
                if start < *prev {
                    return Err(format!(
                        "overlapping siblings on thread {thread} under {} span {i}",
                        p.name
                    ));
                }
                *prev = end;
                cur = match cur {
                    Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            let own = p.dur() - covered;
            b.self_ns[i] = own;
            b.parallel_ns += sum - covered;
            if i == root {
                b.unattributed_ns = own;
            } else {
                *b.layer_self_ns.entry(p.layer()).or_insert(0) += own;
            }
        }
        Ok(b)
    }

    /// Host-time conservation: layer self times plus unattributed time,
    /// less parallel overlap, against the wall time measured outside the
    /// tracer. Returns the relative error.
    pub fn conservation_error(&self, outside_wall_ns: u64) -> f64 {
        let parts: u64 = self.layer_self_ns.values().sum::<u64>() + self.unattributed_ns;
        (parts as f64 - self.parallel_ns as f64 - outside_wall_ns as f64).abs()
            / outside_wall_ns.max(1) as f64
    }

    /// Self time of one layer (0 when it recorded no span).
    pub fn layer(&self, name: &str) -> u64 {
        self.layer_self_ns.get(name).copied().unwrap_or(0)
    }
}

/// A [`StorageBackend`] forwarder that counts batches and blocks, and
/// records a `storage.batch` span around each batch when tracing is on.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    tracer: Option<Arc<Tracer>>,
    /// Batches serviced.
    pub batches: u64,
    /// Block requests serviced.
    pub blocks: u64,
}

impl<B: StorageBackend> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B, tracer: Option<Arc<Tracer>>) -> Self {
        TimedBackend { inner, tracer, batches: 0, blocks: 0 }
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        self.batches += 1;
        self.blocks += reqs.len() as u64;
        let _span = span(&self.tracer, "storage.batch");
        self.inner.service_batch_into(now, reqs, occupy_bus, finishes);
    }

    fn last_batch_breakdown(&self) -> Option<BatchBreakdown> {
        self.inner.last_batch_breakdown()
    }

    fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.inner.set_observer(observer);
    }

    fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.inner.set_telemetry(telemetry);
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }

    fn utilization(&self) -> Vec<ChannelUtilization> {
        self.inner.utilization()
    }

    fn wants_payloads(&self) -> bool {
        self.inner.wants_payloads()
    }

    fn persist_bucket(&mut self, bucket: u64, slots: &[Block]) {
        self.inner.persist_bucket(bucket, slots);
    }
}

/// Requests per host-time chunk.
pub const CHUNK: u64 = 1000;

/// A [`MissStream`] forwarder that stamps the host clock every
/// [`CHUNK`] misses, and records a `workloads.next_miss` span around
/// each pull when tracing is on.
#[derive(Debug)]
pub struct TimedStream<S> {
    inner: S,
    tracer: Option<Arc<Tracer>>,
    pulled: u64,
    /// Host clock at the start and after every [`CHUNK`] misses.
    pub marks: Vec<Instant>,
}

impl<S: MissStream> TimedStream<S> {
    /// Wraps `inner`, expecting about `len` misses.
    pub fn new(inner: S, len: u64, tracer: Option<Arc<Tracer>>) -> Self {
        let mut marks = Vec::with_capacity((len / CHUNK + 2) as usize);
        marks.push(Instant::now());
        TimedStream { inner, tracer, pulled: 0, marks }
    }
}

impl<S: MissStream> MissStream for TimedStream<S> {
    fn next_miss(&mut self) -> Option<MissRecord> {
        if self.pulled > 0 && self.pulled.is_multiple_of(CHUNK) {
            self.marks.push(Instant::now());
        }
        if let Some(t) = &self.tracer {
            t.set_request(self.pulled);
        }
        let _span = span(&self.tracer, "workloads.next_miss");
        let miss = self.inner.next_miss();
        self.pulled += u64::from(miss.is_some());
        miss
    }
}

/// A [`LiveObserver`] + [`TelemetrySink`] forwarder around the live
/// plane: counts completions (for host-time chunks) and records an
/// `obsv.record` span around each forwarded call when tracing is on.
#[derive(Debug)]
pub struct TimedLive {
    plane: Arc<Mutex<LivePlane>>,
    tracer: Option<Arc<Tracer>>,
    /// Completions forwarded so far.
    pub completions: Arc<AtomicU64>,
}

impl TimedLive {
    /// Wraps `plane`.
    pub fn new(plane: Arc<Mutex<LivePlane>>, tracer: Option<Arc<Tracer>>) -> Self {
        TimedLive { plane, tracer, completions: Arc::new(AtomicU64::new(0)) }
    }

    fn with_plane(&self, f: impl FnOnce(&mut LivePlane)) {
        let _span = span(&self.tracer, "obsv.record");
        f(&mut self.plane.lock().expect("live plane poisoned"));
    }
}

impl LiveObserver for TimedLive {
    fn request_complete(
        &mut self,
        now: u64,
        tenant: u32,
        shard: u32,
        class: ServeClass,
        latency: u64,
        coalesced: bool,
    ) {
        self.completions.fetch_add(1, Ordering::Relaxed);
        self.with_plane(|p| p.request_complete(now, tenant, shard, class, latency, coalesced));
    }

    fn request_rejected(&mut self, now: u64, tenant: u32) {
        self.with_plane(|p| p.request_rejected(now, tenant));
    }

    fn request_admitted(&mut self, now: u64, tenant: u32) {
        self.with_plane(|p| p.request_admitted(now, tenant));
    }
}

impl TelemetrySink for TimedLive {
    fn count(&mut self, id: MetricId, delta: u64) {
        self.with_plane(|p| p.count(id, delta));
    }

    fn sample(&mut self, id: MetricId, value: u64) {
        self.with_plane(|p| p.sample(id, value));
    }

    fn span(&mut self, span: &AccessSpan) {
        self.with_plane(|p| p.span(span));
    }

    fn window(&mut self, w: &WindowSample) {
        self.with_plane(|p| p.window(w));
    }
}
