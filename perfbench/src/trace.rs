//! Spans recorded from outside the program, around calls into its
//! public transport traits.
//!
//! The wrappers implement `ClientTransport`, `ServerTransport` and
//! `BatchServerTransport` over the real transports. While their shared
//! switch is on, each call records a span (start and end on one clock,
//! plus the DNS wire id of the message it carried) into a buffer the
//! wrapper owns; nothing is locked or written out while the workload
//! runs. Shard-side wrappers hand their buffers back when the shard
//! thread drops them, and the benchmark joins client and shard spans on
//! the wire id afterwards. Untraced runs spawn the shards without
//! wrappers; only `resolve_mix`'s client keeps its wrapper, switched
//! off, at the cost of one atomic load per exchange.

use crate::Report;
use eum_authd::{
    BatchDatagram, BatchServerTransport, ClientTransport, Datagram, ServerTransport, ShardCounters,
};
use eum_telemetry::{HistogramSnapshot, Registry};
use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Messages kept per traced run for the wire-codec and mapping timings.
pub const CAPTURE: usize = 2048;

/// The on/off switch and clock every wrapper of one run shares.
#[derive(Clone)]
pub struct Tracer {
    on: Arc<AtomicBool>,
    base: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: Arc::new(AtomicBool::new(false)),
            base: Instant::now(),
        }
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// Nanoseconds since the run's clock base.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u16,
    pub start: u64,
    pub end: u64,
    /// For shard serve spans: answered from the authd cache.
    pub hit: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The DNS wire id of a message (0 for a runt).
pub fn wire_id(bytes: &[u8]) -> u16 {
    match bytes {
        [a, b, ..] => u16::from_be_bytes([*a, *b]),
        _ => 0,
    }
}

/// One query the shard served, kept for the codec and mapping timings.
pub struct Captured {
    pub query: Vec<u8>,
    pub reply: Vec<u8>,
    pub hit: bool,
    pub server_ip: Option<Ipv4Addr>,
    pub resolver_ip: Ipv4Addr,
}

/// Everything a shard-side wrapper recorded.
#[derive(Default)]
pub struct ShardTrace {
    /// Receive to reply, per served query.
    pub serve: Vec<Span>,
    /// Receive calls and the time spent inside them (waiting included).
    pub recv_calls: u64,
    pub recv_ns: u64,
    /// Batched transports: receive calls that returned datagrams, their
    /// time, and the datagrams they returned.
    pub batches: u64,
    pub batch_ns: u64,
    pub batch_fill: u64,
    /// Batched transports: flush calls and their time.
    pub flushes: u64,
    pub flush_ns: u64,
    pub captured: Vec<Captured>,
}

impl ShardTrace {
    /// (total ns, count) of the serve spans that were (or were not)
    /// answered from the authd cache.
    pub fn serve_totals(&self, hit: bool) -> (f64, f64) {
        let spans = self.serve.iter().filter(|s| s.hit == hit);
        let (sum, n) = spans.fold((0u64, 0u64), |(sum, n), s| (sum + s.dur(), n + 1));
        (sum as f64, n as f64)
    }
}

/// Shared cell the benchmark fills with the shard's live counters once
/// the server is spawned; the wrappers read the hit counter from it.
pub type CountersCell = Arc<OnceLock<Arc<ShardCounters>>>;

/// Tracks the shard's cumulative cache-hit counter so each reply can be
/// classified. The shard bumps the counter before it hands the reply to
/// the transport, on the same thread.
struct HitProbe {
    counters: CountersCell,
    last: u64,
}

impl HitProbe {
    fn took_hit(&mut self) -> bool {
        let now = self
            .counters
            .get()
            .map(|c| c.cache_hits.load(Ordering::Relaxed))
            .unwrap_or(0);
        let hit = now != self.last;
        self.last = now;
        hit
    }
}

struct Pending {
    id: u16,
    start: u64,
    query: Option<Vec<u8>>,
    server_ip: Option<Ipv4Addr>,
    resolver_ip: Ipv4Addr,
}

/// [`ServerTransport`] wrapper recording receive waits and serve spans.
pub struct TracingServer<T> {
    inner: T,
    tracer: Tracer,
    probe: HitProbe,
    pending: Option<Pending>,
    trace: ShardTrace,
    done: Option<Sender<ShardTrace>>,
}

impl<T> TracingServer<T> {
    pub fn new(inner: T, tracer: Tracer, counters: CountersCell, done: Sender<ShardTrace>) -> Self {
        TracingServer {
            inner,
            tracer,
            probe: HitProbe { counters, last: 0 },
            pending: None,
            trace: ShardTrace::default(),
            done: Some(done),
        }
    }
}

fn wants_capture(trace: &ShardTrace) -> bool {
    trace.captured.len() < CAPTURE
}

impl<T: ServerTransport> ServerTransport for TracingServer<T> {
    type Peer = T::Peer;

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Datagram<Self::Peer>>> {
        if !self.tracer.on() {
            return self.inner.recv(timeout);
        }
        let t0 = Instant::now();
        let r = self.inner.recv(timeout);
        let t1 = Instant::now();
        self.trace.recv_calls += 1;
        self.trace.recv_ns += t1.duration_since(t0).as_nanos() as u64;
        if let Ok(Some(dg)) = &r {
            self.pending = Some(Pending {
                id: wire_id(&dg.payload),
                start: self.tracer.ns(t1),
                query: wants_capture(&self.trace).then(|| dg.payload.clone()),
                server_ip: dg.server_ip,
                resolver_ip: dg.resolver_ip,
            });
        }
        r
    }

    fn send(&mut self, peer: &Self::Peer, payload: &[u8]) -> io::Result<()> {
        let hit = self.probe.took_hit();
        if let Some(p) = self.pending.take() {
            let end = self.tracer.ns(Instant::now());
            self.trace.serve.push(Span {
                id: p.id,
                start: p.start,
                end,
                hit,
            });
            if let Some(query) = p.query {
                self.trace.captured.push(Captured {
                    query,
                    reply: payload.to_vec(),
                    hit,
                    server_ip: p.server_ip,
                    resolver_ip: p.resolver_ip,
                });
            }
        }
        self.inner.send(peer, payload)
    }
}

impl<T> Drop for TracingServer<T> {
    fn drop(&mut self) {
        if let Some(tx) = self.done.take() {
            let _ = tx.send(std::mem::take(&mut self.trace));
        }
    }
}

/// [`BatchServerTransport`] wrapper recording batch receive and flush
/// calls and a serve span per datagram (from `datagram(i)` to
/// `stage_reply(i)`).
pub struct TracingBatch<T> {
    inner: T,
    tracer: Tracer,
    probe: HitProbe,
    current: Cell<(u16, u64)>,
    capture: RefCell<Option<Vec<u8>>>,
    trace: ShardTrace,
    done: Option<Sender<ShardTrace>>,
}

impl<T> TracingBatch<T> {
    pub fn new(inner: T, tracer: Tracer, counters: CountersCell, done: Sender<ShardTrace>) -> Self {
        TracingBatch {
            inner,
            tracer,
            probe: HitProbe { counters, last: 0 },
            current: Cell::new((0, 0)),
            capture: RefCell::new(None),
            trace: ShardTrace::default(),
            done: Some(done),
        }
    }
}

impl<T: BatchServerTransport> BatchServerTransport for TracingBatch<T> {
    fn on_thread_start(&mut self) {
        self.inner.on_thread_start();
    }

    fn recv_batch(&mut self, timeout: Duration) -> io::Result<usize> {
        if !self.tracer.on() {
            return self.inner.recv_batch(timeout);
        }
        let t0 = Instant::now();
        let r = self.inner.recv_batch(timeout);
        let ns = t0.elapsed().as_nanos() as u64;
        self.trace.recv_calls += 1;
        self.trace.recv_ns += ns;
        if let Ok(n) = r {
            if n > 0 {
                self.trace.batches += 1;
                self.trace.batch_ns += ns;
                self.trace.batch_fill += n as u64;
            }
        }
        r
    }

    fn datagram(&self, i: usize) -> BatchDatagram<'_> {
        let dg = self.inner.datagram(i);
        if self.tracer.on() {
            self.current
                .set((wire_id(dg.payload), self.tracer.ns(Instant::now())));
            if wants_capture(&self.trace) {
                *self.capture.borrow_mut() = Some(dg.payload.to_vec());
            }
        }
        dg
    }

    fn stage_reply(&mut self, i: usize, reply: &[u8]) {
        let hit = self.probe.took_hit();
        if self.tracer.on() {
            let (id, start) = self.current.get();
            let end = self.tracer.ns(Instant::now());
            self.trace.serve.push(Span {
                id,
                start,
                end,
                hit,
            });
            if let Some(query) = self.capture.borrow_mut().take() {
                self.trace.captured.push(Captured {
                    query,
                    reply: reply.to_vec(),
                    hit,
                    server_ip: None,
                    resolver_ip: Ipv4Addr::LOCALHOST,
                });
            }
        }
        self.inner.stage_reply(i, reply);
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.tracer.on() {
            return self.inner.flush();
        }
        let t0 = Instant::now();
        let r = self.inner.flush();
        self.trace.flushes += 1;
        self.trace.flush_ns += t0.elapsed().as_nanos() as u64;
        r
    }
}

impl<T> Drop for TracingBatch<T> {
    fn drop(&mut self) {
        if let Some(tx) = self.done.take() {
            let _ = tx.send(std::mem::take(&mut self.trace));
        }
    }
}

/// [`ClientTransport`] wrapper recording one span per exchange.
pub struct TracingClient<C> {
    inner: C,
    tracer: Tracer,
    pub spans: Vec<Span>,
}

impl<C> TracingClient<C> {
    pub fn new(inner: C, tracer: Tracer) -> Self {
        TracingClient {
            inner,
            tracer,
            spans: Vec::new(),
        }
    }
}

impl<C: ClientTransport> ClientTransport for TracingClient<C> {
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        if !self.tracer.on() {
            return self
                .inner
                .exchange(shard, server_ip, resolver_ip, payload, timeout);
        }
        let t0 = Instant::now();
        let r = self
            .inner
            .exchange(shard, server_ip, resolver_ip, payload, timeout);
        let t1 = Instant::now();
        self.spans.push(Span {
            id: wire_id(payload),
            start: self.tracer.ns(t0),
            end: self.tracer.ns(t1),
            hit: false,
        });
        r
    }

    fn exchange_stream(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        self.inner
            .exchange_stream(shard, server_ip, resolver_ip, payload, timeout)
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }
}

/// The authd stage histograms traced runs enable, as (metric, family).
const STAGES: [(&str, &str); 4] = [
    ("authd.stage.decode_ns", "eum_authd_stage_decode_ns"),
    ("authd.stage.cache_ns", "eum_authd_stage_cache_ns"),
    ("authd.stage.route_ns", "eum_authd_stage_route_ns"),
    ("authd.stage.encode_ns", "eum_authd_stage_encode_ns"),
];

/// Every stage histogram of `reg` now, in [`STAGES`] order.
pub fn stage_snapshot(reg: &Registry) -> Vec<HistogramSnapshot> {
    STAGES
        .iter()
        .map(|(_, family)| reg.histogram_striped(family, "", &[], 1).snapshot())
        .collect()
}

/// Sets every `authd.stage.*` metric to the mean of what its histogram
/// recorded since `before` (a [`stage_snapshot`]).
pub fn set_stages(report: &mut Report, reg: &Registry, before: &[HistogramSnapshot]) {
    let now = stage_snapshot(reg);
    for (((metric, _), now), before) in STAGES.iter().zip(&now).zip(before) {
        report.set(metric, now.delta_since(before).mean());
    }
}

/// Writes the first `limit` spans of each named list as JSON lines to
/// `perfbench/out/<workload>.trace.jsonl` (relative to the working
/// directory). The in-memory lists are complete; the file is a bounded
/// head of them for inspection. Errors are reported, not fatal.
pub fn write_spans(workload: &str, lists: &[(&str, &[Span])], limit: usize) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let write = || -> io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        for (layer, spans) in lists {
            for s in spans.iter().take(limit) {
                writeln!(
                    f,
                    "{{\"layer\":\"{layer}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"hit\":{}}}",
                    s.id, s.start, s.end, s.hit
                )?;
            }
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("# could not write {}: {e}", path.display());
    }
}
