//! `resolve_mix`: the whole client → ldns → authd path, closed loop.
//!
//! One client thread drives one `Ldns` per resolver site through
//! `Ldns::resolve`, over the in-process channel to one authd shard
//! started with `AuthServer::spawn`. Queries follow a demand-weighted
//! `QueryPlan`; public-resolver sites send ECS, every other site does
//! not (the post-roll-out state). The resolvers' clock is virtual and
//! advances a fixed step per query, so answer TTLs expire while the run
//! goes on and the ldns cache keeps a steady miss share.

use crate::stats::{median, ns_between, ratio, secs, sub_seed, Samples};
use crate::trace::{
    set_stages, stage_snapshot, write_spans, CountersCell, ShardTrace, Span, Tracer, TracingClient,
    TracingServer,
};
use crate::world::{
    authd_hit_ratio, set_publication_layers, summarize, timed_setups, with_control_plane,
    AnswerCheck, Quality, RssBaseline, World,
};
use crate::{micro, Args, Report};
use eum_authd::{
    channel_transports, AuthServer, ChannelClient, ServerConfig, ShardReport, SnapshotHandle,
    TelemetryConfig,
};
use eum_dns::{DnsName, Rcode};
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig, QueryPlan};
use eum_telemetry::Registry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planned queries; the run cycles through them while virtual time
/// keeps advancing.
const PLAN_LEN: usize = 1_000_000;
/// Queries per `QueryPlan::generate` call (each with its own sub-seed).
const PLAN_CHUNK: usize = 50_000;
/// Untimed queries that bring the caches to their steady state.
const WARMUP: usize = 200_000;
/// Virtual time between consecutive queries.
const VIRTUAL_STEP: Duration = Duration::from_millis(50);
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One planned query, compacted.
#[derive(Clone, Copy)]
struct Op {
    ldns: u16,
    name: u16,
    client: Ipv4Addr,
}

/// Everything the timed loop drives. The world it was built from is
/// kept apart, for the control plane to republish from while the loop
/// runs.
struct Rig {
    names: Vec<DnsName>,
    ops: Vec<Op>,
    ecs: Vec<bool>,
    fleet: Vec<Ldns>,
    snaps: SnapshotHandle,
    server: AuthServer,
    client: TracingClient<ChannelClient>,
    shard_trace: Receiver<ShardTrace>,
    tracer: Tracer,
    registry: Option<Arc<Registry>>,
    epoch: Instant,
    next: usize,
    top: Ipv4Addr,
}

impl Rig {
    /// World generation, map build, plan generation, server spawn and
    /// warm-up: everything `setup_s` covers.
    fn new(seed: u64, traced: bool) -> (World, Rig) {
        let world = World::small();
        let names: Vec<DnsName> = world.domains.iter().map(|(n, _)| n.clone()).collect();
        let name_idx: HashMap<&DnsName, u16> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i as u16))
            .collect();
        let mut ops = Vec::with_capacity(PLAN_LEN);
        for chunk in 0..PLAN_LEN / PLAN_CHUNK {
            let plan = QueryPlan::generate(
                &world.net,
                &world.domains,
                sub_seed(seed, chunk as u64),
                PLAN_CHUNK,
            );
            ops.extend(plan.queries.iter().map(|q| Op {
                ldns: q.resolver.index() as u16,
                name: name_idx[&q.qname],
                client: q.client,
            }));
        }
        let ecs: Vec<bool> = world
            .net
            .resolvers
            .iter()
            .map(|r| world.net.is_public_resolver(r.id))
            .collect();
        let top = world.map.top_level_ip();
        let snaps = SnapshotHandle::new(world.map.clone_for_publish());
        let tracer = Tracer::new();
        let (tx, shard_trace) = channel();
        let counters: CountersCell = Default::default();
        let (transports, connector) = channel_transports(1);
        let mut cfg = ServerConfig::new(top);
        let registry = traced.then(|| Arc::new(Registry::new()));
        if let Some(r) = &registry {
            cfg = cfg.with_telemetry(TelemetryConfig::metrics(r.clone()));
        }
        let server = if traced {
            let wrapped = transports
                .into_iter()
                .map(|t| TracingServer::new(t, tracer.clone(), counters.clone(), tx.clone()))
                .collect();
            AuthServer::spawn(wrapped, snaps.clone(), cfg)
        } else {
            drop(tx);
            AuthServer::spawn(transports, snaps.clone(), cfg)
        };
        let _ = counters.set(server.counters()[0].clone());
        let epoch = Instant::now();
        let fleet = world
            .net
            .resolvers
            .iter()
            .map(|r| {
                let policy = if ecs[r.id.index()] {
                    EcsPolicy::Always
                } else {
                    EcsPolicy::Off
                };
                Ldns::new(LdnsConfig::new(r.ip, policy), epoch)
            })
            .collect();
        let client = TracingClient::new(ChannelClient::new(connector), tracer.clone());
        let mut rig = Rig {
            names,
            ops,
            ecs,
            fleet,
            snaps,
            server,
            client,
            shard_trace,
            tracer,
            registry,
            epoch,
            next: 0,
            top,
        };
        for _ in 0..WARMUP {
            rig.step();
        }
        (world, rig)
    }

    /// Resolves the next planned query.
    #[inline]
    fn step(&mut self) -> (usize, eum_ldns::Resolved) {
        let idx = self.next;
        self.next += 1;
        let op = self.ops[idx % PLAN_LEN];
        let now = self.epoch + VIRTUAL_STEP * idx as u32;
        let r = self.fleet[op.ldns as usize].resolve(
            &mut self.client,
            0,
            self.top,
            &self.names[op.name as usize],
            op.client,
            now,
        );
        (idx, r)
    }

    fn fleet_totals(&self) -> FleetTotals {
        let mut t = FleetTotals::default();
        for l in &self.fleet {
            let s = l.stats();
            t.downstream += s.downstream_queries;
            t.hits += s.downstream_cache_hits;
            t.upstream += s.upstream_queries;
            t.expirations += l.cache().stats().expirations;
        }
        t
    }

    fn shutdown(self) -> (Vec<ShardReport>, ShardTrace, Vec<Span>) {
        let Rig {
            server,
            client,
            shard_trace,
            ..
        } = self;
        let spans = client.spans;
        let reports = server.stop_join();
        let trace = shard_trace.try_recv().unwrap_or_default();
        (reports, trace, spans)
    }
}

#[derive(Default, Clone, Copy)]
struct FleetTotals {
    downstream: u64,
    hits: u64,
    upstream: u64,
    expirations: u64,
}

/// One timed segment's outcome.
struct Segment {
    latency: Samples,
    /// (plan position, up to two answered addresses; 0 = none).
    answers: Vec<(u32, [u32; 2])>,
    /// Resolve spans (traced segments only).
    resolves: Vec<Span>,
    failed: u64,
    elapsed_s: f64,
    before: FleetTotals,
    after: FleetTotals,
}

fn run_segment(rig: &mut Rig, seconds: f64, traced: bool) -> Segment {
    let cap = (seconds * 400_000.0) as usize + 1024;
    let mut latency = Samples::with_capacity(cap);
    let mut answers = Vec::with_capacity(cap);
    let mut resolves = Vec::new();
    let mut failed = 0u64;
    let before = rig.fleet_totals();
    rig.tracer.set(traced);
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        if n.is_multiple_of(64) && start.elapsed() >= limit {
            break;
        }
        let t0 = Instant::now();
        let (idx, r) = rig.step();
        let t1 = Instant::now();
        latency.push(ns_between(t0, t1));
        if traced {
            resolves.push(Span {
                id: 0,
                start: rig.tracer.ns(t0),
                end: rig.tracer.ns(t1),
                hit: r.from_cache,
            });
        }
        let mut ips = [0u32; 2];
        if r.rcode == Rcode::NoError && !r.ips.is_empty() {
            for (slot, ip) in ips.iter_mut().zip(&r.ips) {
                *slot = u32::from(*ip);
            }
        } else {
            failed += 1;
        }
        answers.push((idx as u32, ips));
        n += 1;
    }
    let elapsed_s = secs(start);
    rig.tracer.set(false);
    Segment {
        latency,
        answers,
        resolves,
        failed,
        elapsed_s,
        before,
        after: rig.fleet_totals(),
    }
}

/// Checks every answer against the mapping layer's own answer on the
/// published snapshot and tallies answer quality.
fn check_answers(world: &World, rig: &Rig, seg: &Segment, report: &mut Report) -> Quality {
    let snap = rig.snaps.current();
    let mut check = AnswerCheck::new(world, &snap.map, report);
    for &(idx, ips) in &seg.answers {
        if ips[0] == 0 {
            continue;
        }
        let op = rig.ops[idx as usize % PLAN_LEN];
        let resolver = world.net.resolvers[op.ldns as usize].ip;
        let ecs_client = rig.ecs[op.ldns as usize].then_some(op.client);
        let block = world.block_of(op.client);
        check.check(idx as u64, op.name, resolver, ecs_client, &ips, block);
    }
    check.quality
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let rss = RssBaseline::now();
    let ((mut world, mut rig), setups) = timed_setups(
        SETUP_REPS,
        || Rig::new(args.seed, args.trace),
        |(_, old)| {
            old.shutdown();
        },
    );
    // The control plane republishes into a handle nothing serves from,
    // so the served map never changes.
    let unserved = SnapshotHandle::new(world.map.clone_for_publish());
    let tracer = rig.tracer.clone();
    if args.trace {
        let reg = rig.registry.clone().expect("traced rigs carry a registry");
        let half = args.seconds / 2.0;
        let ((reference, seg, stages_before), events) =
            with_control_plane(&mut world, &unserved, args.seed, &tracer, |_| {
                let reference = run_segment(&mut rig, half, false);
                let stages_before = stage_snapshot(&reg);
                let seg = run_segment(&mut rig, half, true);
                (reference, seg, stages_before)
            });
        set_stages(&mut report, &reg, &stages_before);
        report_traced(&world, rig, &reference, &seg, &events, &mut report);
        return report;
    }

    let ((seg, peak_rss), events) =
        with_control_plane(&mut world, &unserved, args.seed, &tracer, |_| {
            let seg = run_segment(&mut rig, args.seconds, false);
            (seg, rss.peak_mb())
        });
    let quality = check_answers(&world, &rig, &seg, &mut report);
    let (rtt, miles) = quality.finish(&world);
    let (shards, _, _) = rig.shutdown();

    let mut lat = seg.latency;
    let ops = lat.len() as u64;
    let (p50, p99) = (lat.quantile(0.50), lat.quantile(0.99));
    report.attempted = ops;
    report.failed = seg.failed;
    let down = seg.after.downstream - seg.before.downstream;
    let hits = seg.after.hits - seg.before.hits;
    let up = seg.after.upstream - seg.before.upstream;
    println!(
        "# resolve_mix: {} resolutions, {} samples beyond p99, ldns hit ratio {:.4}, authd hit ratio {:.4}, {} publications",
        ops,
        lat.count_above(p99),
        ratio(hits as f64, down as f64),
        authd_hit_ratio(&shards),
        events.len(),
    );
    report.set("setup_s", median(&setups));
    report.set("throughput_qps", ops as f64 / seg.elapsed_s);
    report.set("latency_p50_us", p50 as f64 / 1e3);
    report.set("latency_p99_us", p99 as f64 / 1e3);
    report.set("answer_rtt_ms", rtt);
    report.set("mapping_distance_mi", miles);
    report.set("amplification", ratio(up as f64, down as f64));
    report.set("publish_ms", summarize(&events).total_ms);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// The per-layer breakdown of a traced run: an untraced reference half
/// (`reference`) and a traced half (`seg`).
fn report_traced(
    world: &World,
    rig: Rig,
    reference: &Segment,
    seg: &Segment,
    events: &[crate::world::Event],
    report: &mut Report,
) {
    let _ = check_answers(world, &rig, reference, report);
    let _ = check_answers(world, &rig, seg, report);
    report.attempted = (reference.latency.len() + seg.latency.len()) as u64;
    report.failed = reference.failed + seg.failed;

    let snap = rig.snaps.current();
    let top = rig.top;
    let (shards, shard, exchanges) = rig.shutdown();

    // ldns: resolve span minus the exchange spans inside it.
    let mut self_ns = 0u64;
    let mut j = 0usize;
    for r in &seg.resolves {
        let mut inner = 0u64;
        while j < exchanges.len() && exchanges[j].end <= r.end {
            if exchanges[j].start >= r.start {
                inner += exchanges[j].dur();
            }
            j += 1;
        }
        self_ns += r.dur().saturating_sub(inner);
    }
    let resolutions = seg.resolves.len() as f64;
    let d = |f: fn(&FleetTotals) -> u64| (f(&seg.after) - f(&seg.before)) as f64;
    let down = d(|t| t.downstream);
    let hits = d(|t| t.hits);
    let up = d(|t| t.upstream);
    report.set("ldns.self_ns", ratio(self_ns as f64, resolutions));
    report.set("ldns.hit_ratio", ratio(hits, down));
    report.set("ldns.upstream_per_miss", ratio(up, down - hits));
    report.set("ldns.expirations", d(|t| t.expirations));

    // authd: join exchanges and serve spans on the wire id, in order. A
    // span cut by the switch flipping mid-call exists on one side only,
    // so a short look-ahead skips it.
    let mut channel_ns = 0u64;
    let mut joined = 0u64;
    let mut k = 0usize;
    for x in &exchanges {
        let window = shard.serve.len().min(k + 4);
        if let Some(off) = shard.serve[k..window].iter().position(|s| s.id == x.id) {
            let s = &shard.serve[k + off];
            channel_ns += x.dur().saturating_sub(s.dur());
            joined += 1;
            k += off + 1;
        }
    }
    let unjoined = exchanges.len() as u64 - joined;
    if unjoined > 2 {
        report.error(format!(
            "span join: {} exchanges, {} serve spans, {unjoined} exchanges without a serve span",
            exchanges.len(),
            shard.serve.len()
        ));
    }
    let (hit_ns, n_hit) = shard.serve_totals(true);
    let (miss_ns, n_miss) = shard.serve_totals(false);
    let served = n_hit + n_miss;
    report.set("authd.channel_ns", ratio(channel_ns as f64, joined as f64));
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

    let (dec, enc) = micro::codec_ns(&shard.captured);
    report.set("dns.decode_ns", dec);
    report.set("dns.encode_ns", enc);
    report.set(
        "mapping.answer_ns",
        micro::answer_ns(&shard.captured, &snap.map, top),
    );
    set_publication_layers(report, events);
    report.set("mapping.build_ms", world.build_ms);
    report.set("netmodel.generate_ms", world.generate_ms);

    let ref_qps = reference.latency.len() as f64 / reference.elapsed_s;
    let traced_qps = seg.latency.len() as f64 / seg.elapsed_s;
    report.set("trace.overhead", ratio(ref_qps, traced_qps));
    let per_res = ratio(exchanges.len() as f64, resolutions);
    let layers = ratio(self_ns as f64, resolutions)
        + per_res * (ratio(channel_ns as f64, joined as f64) + ratio(hit_ns + miss_ns, served));
    report.set("trace.unattributed_ns", reference.latency.mean() - layers);
    println!(
        "# resolve_mix traced: {} resolutions, {} exchanges, {} serve spans, e2e untraced mean {:.0} ns, layer sum {:.0} ns",
        seg.resolves.len(),
        exchanges.len(),
        shard.serve.len(),
        reference.latency.mean(),
        layers
    );
    write_spans(
        "resolve_mix",
        &[
            ("ldns.resolve", &seg.resolves),
            ("client.exchange", &exchanges),
            ("authd.serve", &shard.serve),
        ],
        20_000,
    );
}
