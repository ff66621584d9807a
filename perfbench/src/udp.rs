//! The two workloads that talk to authd directly over a UDP socket: one
//! batched shard (`ReuseportUdpTransport` via `AuthServer::spawn_batched`)
//! and one client thread with one socket.
//!
//! * `authd_udp` — closed loop: a fixed window of pre-encoded queries in
//!   flight. Nearly all the work is authd's cache-hit path and eum-net's
//!   `recvmmsg`/`sendmmsg` path.
//! * `map_churn` — the same closed loop while a control-plane thread
//!   applies seeded CDN events and republishes the map incrementally.

use crate::stats::{median, ns_between, ratio, secs, sub_seed, Samples, SplitMix};
use crate::trace::{
    set_stages, stage_snapshot, write_spans, CountersCell, ShardTrace, Tracer, TracingBatch,
};
use crate::world::{
    authd_hit_ratio, set_publication_layers, summarize, timed_setups, with_control_plane,
    AnswerCheck, CdnEvent, Event, Quality, RssBaseline, World,
};
use crate::{micro, Args, Report};
use eum_authd::{AuthServer, ServerConfig, ShardReport, SnapshotHandle, TelemetryConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{decode_message_into, encode_message, Message, QueryContext, Question, RData, Rcode};
use eum_ldns::QueryPlan;
use eum_net::{BatchConfig, ReuseportUdpTransport};
use eum_telemetry::Registry;
use std::collections::{BTreeSet, HashMap};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct pre-encoded queries the client cycles through. They all fit
/// the authd answer cache (65,536 entries).
const QUERIES: usize = 32_768;
/// Share of queries sent without ECS (answered by resolver address).
const PLAIN_SHARE: f64 = 0.10;
/// Queries in flight.
const WINDOW: usize = 32;
/// Window after each publication the post-publication hit ratio covers.
const POST_PUBLISH_WINDOW_NS: u64 = 20_000_000;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One pre-encoded query.
struct Query {
    block: usize,
    client: Ipv4Addr,
    name: u16,
    ecs: bool,
    wire: Vec<u8>,
}

struct Rig {
    world: World,
    queries: Vec<Query>,
    snaps: SnapshotHandle,
    server: AuthServer,
    sock: UdpSocket,
    shard_trace: Receiver<ShardTrace>,
    tracer: Tracer,
    registry: Option<Arc<Registry>>,
}

impl Rig {
    fn new(seed: u64, traced: bool) -> Rig {
        let world = World::small();
        let plan = QueryPlan::generate(&world.net, &world.domains, sub_seed(seed, 1), QUERIES);
        let name_idx: HashMap<&eum_dns::DnsName, u16> = world
            .domains
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n, i as u16))
            .collect();
        let mut rng = SplitMix::new(sub_seed(seed, 2));
        let queries = plan
            .queries
            .iter()
            .map(|q| {
                let ecs = (rng.next_u64() as f64 / u64::MAX as f64) >= PLAIN_SHARE;
                let msg = Message::query(
                    0,
                    Question::a(q.qname.clone()),
                    ecs.then(|| OptData::with_ecs(EcsOption::query(q.client, 24))),
                );
                Query {
                    block: world
                        .block_of(q.client)
                        .expect("plan clients are block addresses"),
                    client: q.client,
                    name: name_idx[&q.qname],
                    ecs,
                    wire: encode_message(&msg),
                }
            })
            .collect();
        let snaps = SnapshotHandle::new(world.map.clone_for_publish());
        let (transports, addrs) =
            ReuseportUdpTransport::bind_shards(1, &BatchConfig::default()).expect("bind shard");
        let tracer = Tracer::new();
        let (tx, shard_trace) = channel();
        let counters: CountersCell = Default::default();
        let mut cfg = ServerConfig::new(world.low_ns);
        let registry = traced.then(|| Arc::new(Registry::new()));
        if let Some(r) = &registry {
            cfg = cfg.with_telemetry(TelemetryConfig::metrics(r.clone()));
        }
        let server = if traced {
            let wrapped = transports
                .into_iter()
                .map(|t| TracingBatch::new(t, tracer.clone(), counters.clone(), tx.clone()))
                .collect();
            AuthServer::spawn_batched(wrapped, snaps.clone(), cfg)
        } else {
            drop(tx);
            AuthServer::spawn_batched(transports, snaps.clone(), cfg)
        };
        let _ = counters.set(server.counters()[0].clone());
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind client");
        sock.connect(addrs[0]).expect("connect client");
        let rig = Rig {
            world,
            queries,
            snaps,
            server,
            sock,
            shard_trace,
            tracer,
            registry,
        };
        rig.warm();
        rig
    }

    /// Sends every distinct query once, [`WINDOW`] at a time, so the
    /// authd cache holds all of them before timing starts.
    fn warm(&self) {
        self.sock
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut buf = [0u8; 4096];
        for window in self.queries.chunks(WINDOW) {
            for q in window {
                self.sock.send(&q.wire).expect("send warm-up query");
            }
            for _ in window {
                let _ = self.sock.recv(&mut buf);
            }
        }
    }

    fn shutdown(self) -> (World, Vec<ShardReport>, ShardTrace) {
        let reports = self.server.stop_join();
        let trace = self.shard_trace.try_recv().unwrap_or_default();
        (self.world, reports, trace)
    }
}

/// One answered query as the client saw it.
#[derive(Clone, Copy)]
struct Answer {
    query: u32,
    ips: [u32; 2],
    /// Publications finished when the query was sent / answered.
    pub_sent: u32,
    pub_recv: u32,
}

/// What the client loop measured.
struct Segment {
    latency: Samples,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
}

/// Per-query checks done as each reply arrives: id, QR bit, rcode,
/// answer records and the echoed ECS source.
fn check_reply(msg: &Message, q: &Query, id: u16, report: &mut Report) -> Option<[u32; 2]> {
    if msg.id != id || !msg.flags.qr {
        report.error(format!(
            "reply id {} qr {} for query id {id}",
            msg.id, msg.flags.qr
        ));
        return None;
    }
    if msg.flags.rcode != Rcode::NoError {
        return None;
    }
    let mut ips = [0u32; 2];
    let mut n = 0;
    for r in &msg.answers {
        if let RData::A(ip) = r.rdata {
            if n < 2 {
                ips[n] = u32::from(ip);
            }
            n += 1;
        }
    }
    if n == 0 {
        return None;
    }
    let echoed = msg.ecs().map(|e| (e.addr, e.source_prefix));
    let sent = q.ecs.then(|| (EcsOption::query(q.client, 24).addr, 24u8));
    if echoed != sent {
        report.error(format!("query {id}: ECS echo {echoed:?}, sent {sent:?}"));
    }
    Some(ips)
}

/// Closed loop with [`WINDOW`] queries in flight. With `published`,
/// each answer also records how many publications had finished when its
/// query was sent and when its reply arrived.
fn closed_loop(
    queries: &[Query],
    sock: &UdpSocket,
    seconds: f64,
    published: Option<&AtomicU32>,
    report: &mut Report,
) -> Segment {
    let publications = || published.map_or(0, |p| p.load(Ordering::SeqCst));
    let cap = (seconds * 300_000.0) as usize + 1024;
    let mut latency = Samples::with_capacity(cap);
    let mut answers = Vec::with_capacity(cap);
    let mut sent_at = vec![Instant::now(); 65_536];
    let mut query_of = vec![0u32; 65_536];
    let mut pub_of = vec![0u32; 65_536];
    let mut out = vec![0u8; 4096];
    let mut buf = [0u8; 4096];
    let mut msg = Message::default();
    sock.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let n_q = queries.len();
    let limit = Duration::from_secs_f64(seconds);
    let mut seq: u64 = 0;
    let mut outstanding = 0usize;
    let (mut failed, mut attempted) = (0u64, 0u64);
    let start = Instant::now();
    let mut send = |seq: u64, sent_at: &mut [Instant], query_of: &mut [u32], pub_of: &mut [u32]| {
        let qi = (seq % n_q as u64) as usize;
        let q = &queries[qi];
        let id = (seq & 0xFFFF) as u16;
        out.clear();
        out.extend_from_slice(&q.wire);
        out[..2].copy_from_slice(&id.to_be_bytes());
        query_of[id as usize] = qi as u32;
        pub_of[id as usize] = publications();
        sent_at[id as usize] = Instant::now();
        sock.send(&out).expect("send query");
    };
    while outstanding < WINDOW {
        send(seq, &mut sent_at, &mut query_of, &mut pub_of);
        seq += 1;
        outstanding += 1;
        attempted += 1;
    }
    let mut sending = true;
    while outstanding > 0 {
        let len = match sock.recv(&mut buf) {
            Ok(len) => len,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Lost replies: count the whole window as failed and stop.
                failed += outstanding as u64;
                break;
            }
            Err(e) => panic!("client recv: {e}"),
        };
        let now = Instant::now();
        let pub_recv = publications();
        outstanding -= 1;
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        latency.push(ns_between(sent_at[id as usize], now));
        let qi = query_of[id as usize];
        let ok = decode_message_into(&buf[..len], &mut msg).is_ok();
        match ok
            .then(|| check_reply(&msg, &queries[qi as usize], id, report))
            .flatten()
        {
            Some(ips) => answers.push(Answer {
                query: qi,
                ips,
                pub_sent: pub_of[id as usize],
                pub_recv,
            }),
            None => failed += 1,
        }
        sending = sending && now.duration_since(start) < limit;
        if sending {
            send(seq, &mut sent_at, &mut query_of, &mut pub_of);
            seq += 1;
            outstanding += 1;
            attempted += 1;
        }
    }
    let elapsed_s = secs(start);
    Segment {
        latency,
        answers,
        attempted,
        failed,
        elapsed_s,
    }
}

/// Checks closed-loop answers against the mapping layer's answer on the
/// published snapshot and tallies answer quality.
fn check_reference(rig: &Rig, seg: &Segment, report: &mut Report) -> Quality {
    let snap = rig.snaps.current();
    let mut check = AnswerCheck::new(&rig.world, &snap.map, report);
    for a in &seg.answers {
        let q = &rig.queries[a.query as usize];
        let ecs_client = q.ecs.then_some(q.client);
        let op = a.query as u64;
        let resolver = Ipv4Addr::LOCALHOST;
        check.check(op, q.name, resolver, ecs_client, &a.ips, Some(q.block));
    }
    check.quality
}

fn setup(args: &Args) -> (Rig, Vec<f64>) {
    timed_setups(
        SETUP_REPS,
        || Rig::new(args.seed, args.trace),
        |old| {
            old.shutdown();
        },
    )
}

/// Sets the end-to-end metrics a UDP segment yields; returns the p99 in
/// ns.
fn set_end_to_end(
    report: &mut Report,
    seg: &mut Segment,
    setups: &[f64],
    quality: (f64, f64),
) -> u64 {
    report.attempted = seg.attempted;
    report.failed = seg.failed;
    report.set("setup_s", median(setups));
    let (p50, p99) = (seg.latency.quantile(0.50), seg.latency.quantile(0.99));
    report.set("throughput_qps", seg.latency.len() as f64 / seg.elapsed_s);
    report.set("latency_p50_us", p50 as f64 / 1e3);
    report.set("latency_p99_us", p99 as f64 / 1e3);
    report.set("answer_rtt_ms", quality.0);
    report.set("mapping_distance_mi", quality.1);
    // Each answer costs exactly the one datagram the client sent: there
    // is no resolver between client and authd on these workloads.
    report.set(
        "amplification",
        ratio(seg.attempted as f64, seg.latency.len() as f64),
    );
    p99
}

/// Per-layer metrics of a batched shard's trace.
fn set_shard_layers(report: &mut Report, shard: &ShardTrace, shards: &[ShardReport]) -> f64 {
    let (hit_ns, n_hit) = shard.serve_totals(true);
    let (miss_ns, n_miss) = shard.serve_totals(false);
    let served = n_hit + n_miss;
    report.set("authd.recv_wait_ns", ratio(shard.recv_ns as f64, served));
    report.set("authd.serve_hit_ns", ratio(hit_ns, n_hit));
    report.set("authd.serve_miss_ns", ratio(miss_ns, n_miss));
    report.set("authd.hit_ratio", ratio(n_hit, served));
    report.set(
        "authd.keyed_evictions",
        shards
            .iter()
            .map(|s| s.cache.keyed_invalidations)
            .sum::<u64>() as f64,
    );
    report.set(
        "net.recv_batch_ns",
        ratio(shard.batch_ns as f64, shard.batches as f64),
    );
    report.set(
        "net.flush_ns",
        ratio(shard.flush_ns as f64, shard.flushes as f64),
    );
    report.set(
        "net.batch_fill",
        ratio(shard.batch_fill as f64, shard.batches as f64),
    );
    report.set(
        "net.syscalls_per_query",
        ratio((shard.recv_calls + shard.flushes) as f64, served),
    );
    // Per query: serve span plus its share of the batch receive and
    // flush calls. The closed loop keeps a window in flight, so these
    // are compared with the time per query (1 / throughput), not with
    // one query's latency.
    ratio(
        hit_ns + miss_ns + shard.batch_ns as f64 + shard.flush_ns as f64,
        served,
    )
}

pub fn run_authd_udp(args: &Args) -> Report {
    let mut report = Report::default();
    let rss = RssBaseline::now();
    let (mut rig, setups) = setup(args);
    // The control plane republishes the serving world's map into a
    // handle nothing serves from, so the served map never changes.
    let unserved = SnapshotHandle::new(rig.world.map.clone_for_publish());
    if args.trace {
        let half = args.seconds / 2.0;
        let reg = rig.registry.clone().expect("traced rigs carry a registry");
        let ((reference, seg, before), events) =
            with_control_plane(&mut rig.world, &unserved, args.seed, &rig.tracer, |_| {
                let reference = closed_loop(&rig.queries, &rig.sock, half, None, &mut report);
                let before = stage_snapshot(&reg);
                rig.tracer.set(true);
                let seg = closed_loop(&rig.queries, &rig.sock, half, None, &mut report);
                rig.tracer.set(false);
                (reference, seg, before)
            });
        let mut reference = reference;
        set_stages(&mut report, &reg, &before);
        check_reference(&rig, &reference, &mut report);
        check_reference(&rig, &seg, &mut report);
        report.attempted = reference.attempted + seg.attempted;
        report.failed = reference.failed + seg.failed;
        let snap = rig.snaps.current();
        let low_ns = rig.world.low_ns;
        let (world, shards, shard) = rig.shutdown();
        let layers = set_shard_layers(&mut report, &shard, &shards);
        finish_traced(&mut report, &shard, &snap.map, low_ns, &events, &world);
        let ref_qps = reference.latency.len() as f64 / reference.elapsed_s;
        let traced_qps = seg.latency.len() as f64 / seg.elapsed_s;
        report.set("trace.overhead", ratio(ref_qps, traced_qps));
        report.set("trace.unattributed_ns", 1e9 / ref_qps - layers);
        println!(
            "# authd_udp traced: {} queries, {} serve spans, {} batches, e2e untraced mean {:.0} ns, p99 {} ns",
            seg.attempted,
            shard.serve.len(),
            shard.batches,
            reference.latency.mean(),
            reference.latency.quantile(0.99)
        );
        write_spans("authd_udp", &[("authd.serve", &shard.serve)], 20_000);
        return report;
    }
    let ((mut seg, peak_rss), events) =
        with_control_plane(&mut rig.world, &unserved, args.seed, &rig.tracer, |_| {
            let seg = closed_loop(&rig.queries, &rig.sock, args.seconds, None, &mut report);
            (seg, rss.peak_mb())
        });
    let quality = check_reference(&rig, &seg, &mut report).finish(&rig.world);
    let (_, shards, _) = rig.shutdown();
    let p99 = set_end_to_end(&mut report, &mut seg, &setups, quality);
    println!(
        "# authd_udp: {} answers, {} samples beyond p99, authd hit ratio {:.4}, {} publications",
        seg.latency.len(),
        seg.latency.count_above(p99),
        authd_hit_ratio(&shards),
        events.len()
    );
    report.set("publish_ms", summarize(&events).total_ms);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Codec, mapping, publication and set-up layers common to the traced
/// UDP runs.
fn finish_traced(
    report: &mut Report,
    shard: &ShardTrace,
    map: &eum_mapping::MappingSystem,
    low_ns: Ipv4Addr,
    events: &[Event],
    world: &World,
) {
    let (dec, enc) = micro::codec_ns(&shard.captured);
    report.set("dns.decode_ns", dec);
    report.set("dns.encode_ns", enc);
    report.set(
        "mapping.answer_ns",
        micro::answer_ns(&shard.captured, map, low_ns),
    );
    set_publication_layers(report, events);
    report.set("mapping.build_ms", world.build_ms);
    report.set("netmodel.generate_ms", world.generate_ms);
}

/// No answer to a query sent after the publication that killed cluster X
/// names X while X stays dead up to the answer.
fn check_dead_clusters(world: &World, events: &[Event], seg: &Segment, report: &mut Report) {
    let mut dead = BTreeSet::new();
    let mut dead_after = vec![dead.clone()];
    for e in events {
        match &e.event {
            CdnEvent::Kill(c) => {
                dead.insert(*c);
            }
            CdnEvent::Revive(c) => {
                dead.remove(c);
            }
            CdnEvent::Rescore(_) => {}
        }
        dead_after.push(dead.clone());
    }
    for a in &seg.answers {
        for ip in a.ips.iter().filter(|&&ip| ip != 0) {
            let ip = Ipv4Addr::from(*ip);
            let Some(c) = world.cluster_of(ip) else {
                report.error(format!("{ip} is not a CDN server"));
                continue;
            };
            let lo = a.pub_sent as usize;
            let hi = (a.pub_recv as usize).min(dead_after.len() - 1);
            if lo <= hi && (lo..=hi).all(|s| dead_after[s].contains(&c)) {
                report.error(format!(
                    "query {} sent after publication {lo} was answered with dead cluster {c:?}",
                    a.query
                ));
            }
        }
    }
}

/// The incrementally maintained map answers every (block, name) and
/// every (resolver, name) exactly like a from-scratch rebuild of the
/// same CDN state.
fn check_incremental_equals_full(world: &World, report: &mut Report) {
    let mut fresh = world.map.clone_for_publish();
    let t = Instant::now();
    fresh.rebuild(&world.net, &world.cdn);
    println!(
        "# map_churn: full rebuild for the end-of-run check took {:.1} ms",
        secs(t) * 1e3
    );
    let answer =
        |map: &eum_mapping::MappingSystem, name: usize, resolver, ecs: Option<Ipv4Addr>| {
            let q = Message::query(
                0,
                Question::a(world.domains[name].0.clone()),
                ecs.map(|c| OptData::with_ecs(EcsOption::query(c, 24))),
            );
            let ctx = QueryContext {
                resolver_ip: resolver,
                now_ms: 0,
            };
            let r = map.answer(world.low_ns, &q, &ctx);
            let ips: Vec<Ipv4Addr> = r
                .answers
                .iter()
                .filter_map(|a| match a.rdata {
                    RData::A(ip) => Some(ip),
                    _ => None,
                })
                .collect();
            (r.flags.rcode, ips, r.ecs().map(|e| e.scope_prefix))
        };
    let mut mismatches = 0usize;
    for name in 0..world.domains.len() {
        for b in &world.net.blocks {
            let c = Some(b.client_ip());
            if answer(&world.map, name, Ipv4Addr::LOCALHOST, c)
                != answer(&fresh, name, Ipv4Addr::LOCALHOST, c)
            {
                mismatches += 1;
            }
        }
        for r in &world.net.resolvers {
            if answer(&world.map, name, r.ip, None) != answer(&fresh, name, r.ip, None) {
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        report.error(format!(
            "incremental map differs from a full rebuild on {mismatches} (client, name) pairs"
        ));
    }
}

pub fn run_map_churn(args: &Args) -> Report {
    let mut report = Report::default();
    let rss = RssBaseline::now();
    let (rig, setups) = setup(args);
    let Rig {
        mut world,
        queries,
        snaps,
        server,
        sock,
        shard_trace,
        tracer,
        registry,
    } = rig;
    let stages_before = registry.as_ref().map(|r| stage_snapshot(r));
    let ((reference, mut seg, peak_rss), events) =
        with_control_plane(&mut world, &snaps, args.seed, &tracer, |published| {
            let half = args.seconds / 2.0;
            let reference = args
                .trace
                .then(|| closed_loop(&queries, &sock, half, Some(published), &mut report));
            tracer.set(args.trace);
            let seconds = if args.trace { half } else { args.seconds };
            let seg = closed_loop(&queries, &sock, seconds, Some(published), &mut report);
            tracer.set(false);
            (reference, seg, rss.peak_mb())
        });
    check_dead_clusters(&world, &events, &seg, &mut report);
    if let Some(r) = &reference {
        check_dead_clusters(&world, &events, r, &mut report);
    }
    check_incremental_equals_full(&world, &mut report);
    let reports = server.stop_join();
    let shard = shard_trace.try_recv().unwrap_or_default();
    let fulls = events.iter().filter(|e| e.cost.full).count();
    let clears: u64 = reports.iter().map(|r| r.cache.generation_clears).sum();
    let evictions: u64 = reports.iter().map(|r| r.cache.keyed_invalidations).sum();
    println!(
        "# map_churn: {} sent, {} answered, {} publications ({} full), {clears} cache clears, {evictions} keyed evictions",
        seg.attempted,
        seg.latency.len(),
        events.len(),
        fulls,
    );
    if args.trace {
        let reference = reference.expect("traced runs have a reference half");
        report.attempted = reference.attempted + seg.attempted;
        report.failed = reference.failed + seg.failed;
        let reg = registry.expect("traced rigs carry a registry");
        set_stages(&mut report, &reg, stages_before.as_ref().expect("traced"));
        let layers = set_shard_layers(&mut report, &shard, &reports);
        // Hit ratio of the serve spans that started within the window
        // after each publication.
        let (mut hits, mut n) = (0u64, 0u64);
        for e in &events {
            for s in shard
                .serve
                .iter()
                .filter(|s| s.start >= e.done_ns && s.start < e.done_ns + POST_PUBLISH_WINDOW_NS)
            {
                n += 1;
                hits += s.hit as u64;
            }
        }
        report.set("authd.post_publish_hit_ratio", ratio(hits as f64, n as f64));
        let snap = snaps.current();
        finish_traced(
            &mut report,
            &shard,
            &snap.map,
            world.low_ns,
            &events,
            &world,
        );
        let ref_qps = reference.latency.len() as f64 / reference.elapsed_s;
        let traced_qps = seg.latency.len() as f64 / seg.elapsed_s;
        report.set("trace.overhead", ratio(ref_qps, traced_qps));
        report.set("trace.unattributed_ns", 1e9 / ref_qps - layers);
        write_spans("map_churn", &[("authd.serve", &shard.serve)], 20_000);
        return report;
    }
    let quality = churn_quality(&world, &queries, &seg);
    let p99 = set_end_to_end(&mut report, &mut seg, &setups, quality);
    println!(
        "# map_churn: {} samples, {} beyond p99",
        seg.latency.len(),
        seg.latency.count_above(p99)
    );
    report.set("publish_ms", summarize(&events).total_ms);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Answer quality of the churn run (clusters may be dead by the time
/// the quality is tallied; the answer is what the client got).
fn churn_quality(world: &World, queries: &[Query], seg: &Segment) -> (f64, f64) {
    let mut q = Quality::default();
    for a in &seg.answers {
        if let Some(c) = world.cluster_of(Ipv4Addr::from(a.ips[0])) {
            q.add(queries[a.query as usize].block, c);
        }
    }
    q.finish(world)
}
