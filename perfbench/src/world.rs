//! The generated world every serving workload runs against, the
//! reference answers outputs are checked with, the answer-quality
//! accounting, and the seeded control-plane events that republish the
//! map.

use crate::stats::{median, ratio, sub_seed, SplitMix};
use crate::trace::Tracer;
use crate::Report;
use eum_authd::{ShardReport, SnapshotHandle};
use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ClusterId, ContentCatalog, DeployConfig,
};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{DnsName, Message, QueryContext, Question, RData};
use eum_mapping::{MappingConfig, MappingPolicy, MappingSystem, RescoreHints, UnitId};
use eum_netmodel::{Endpoint, Internet, InternetConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Seed of the generated Internet, CDN and catalog. The world is fixed
/// so that run-to-run differences come from the code, not from a
/// different topology; `--seed` drives the traffic and event schedules
/// laid over it.
pub const WORLD_SEED: u64 = 0x5EED_0E0A;

/// CDN deployment locations in the serving workloads' world.
pub const CLUSTERS: usize = 40;

/// One generated world plus the lookup tables the checks need.
pub struct World {
    pub net: Internet,
    pub cdn: CdnPlatform,
    /// The control plane's map: it keeps the incremental-rebuild caches;
    /// shards serve `clone_for_publish` copies of it.
    pub map: MappingSystem,
    /// The catalog's CDN hostnames and their popularity weights.
    pub domains: Vec<(DnsName, f64)>,
    /// Block index by the /24 network of its client address.
    block_of24: HashMap<u32, usize>,
    /// A low-level (cluster) name server the direct-to-authd workloads
    /// query.
    pub low_ns: Ipv4Addr,
    /// Wall time of `Internet::generate`, ms.
    pub generate_ms: f64,
    /// Wall time of `MappingSystem::build`, ms.
    pub build_ms: f64,
}

impl World {
    /// The serving workloads' world: the `small` Internet (about 1.3k
    /// client blocks behind 136 resolver sites), 40 clusters of 8
    /// servers, and the paper's 160-domain catalog, mapped end-user.
    pub fn small() -> World {
        let t = Instant::now();
        let mut net = Internet::generate(InternetConfig::small(WORLD_SEED));
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let sites = deployment_universe(WORLD_SEED, CLUSTERS);
        let cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
        let catalog = ContentCatalog::generate(&CatalogConfig::paper(WORLD_SEED));
        let t = Instant::now();
        let map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            "cdn.example".parse().expect("static name"),
            MappingConfig {
                policy: MappingPolicy::end_user_default(),
                max_ping_targets: 400,
                ..MappingConfig::default()
            },
        );
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        World::from_parts(net, cdn, map, &catalog, generate_ms, build_ms)
    }

    /// Wraps an already built world (for example a `Scenario`'s).
    pub fn from_parts(
        net: Internet,
        cdn: CdnPlatform,
        map: MappingSystem,
        catalog: &ContentCatalog,
        generate_ms: f64,
        build_ms: f64,
    ) -> World {
        let domains = catalog
            .domains
            .iter()
            .map(|d| (d.cdn_name.clone(), d.popularity))
            .collect();
        let block_of24 = net
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (u32::from(b.client_ip()) >> 8, i))
            .collect();
        let low_ns = map.ns_ips()[1];
        World {
            net,
            cdn,
            map,
            domains,
            block_of24,
            low_ns,
            generate_ms,
            build_ms,
        }
    }

    /// The block a client address belongs to.
    pub fn block_of(&self, client: Ipv4Addr) -> Option<usize> {
        self.block_of24.get(&(u32::from(client) >> 8)).copied()
    }

    /// The cluster owning a serving address, if it is a CDN server.
    pub fn cluster_of(&self, ip: Ipv4Addr) -> Option<ClusterId> {
        self.cdn
            .server_by_ip(ip)
            .map(|s| self.cdn.server(s).cluster)
    }
}

/// The cluster `map` answers with for `qname` asked of a low-level name
/// server by `resolver`, carrying `ecs_client`'s /24 when given. This is
/// the reference serving outputs are checked against: the mapping
/// layer's own answer, computed without the caches, wire codec or
/// transports in between.
fn reference_cluster(
    world: &World,
    map: &MappingSystem,
    qname: &DnsName,
    resolver: Ipv4Addr,
    ecs_client: Option<Ipv4Addr>,
) -> Option<ClusterId> {
    let q = Message::query(
        0,
        Question::a(qname.clone()),
        ecs_client.map(|c| OptData::with_ecs(EcsOption::query(c, 24))),
    );
    let ctx = QueryContext {
        resolver_ip: resolver,
        now_ms: 0,
    };
    let resp = map.answer(world.low_ns, &q, &ctx);
    resp.answers.iter().find_map(|r| match r.rdata {
        RData::A(ip) => world.cluster_of(ip),
        _ => None,
    })
}

/// The output check every serving workload applies to its answers, and
/// the answer-quality tally of the answers that pass it.
pub struct AnswerCheck<'a> {
    world: &'a World,
    /// The published map the answers were served from.
    map: &'a MappingSystem,
    /// Reference cluster by (name, /24 or resolver address, ECS).
    memo: HashMap<(u16, u32, bool), Option<ClusterId>>,
    report: &'a mut Report,
    pub quality: Quality,
}

impl<'a> AnswerCheck<'a> {
    /// Checks answers served from `map`, recording violations in
    /// `report`.
    pub fn new(
        world: &'a World,
        map: &'a MappingSystem,
        report: &'a mut Report,
    ) -> AnswerCheck<'a> {
        AnswerCheck {
            world,
            map,
            memo: HashMap::new(),
            report,
            quality: Quality::default(),
        }
    }

    /// Checks one answer to domain `name` asked by `resolver` (carrying
    /// `ecs_client`'s /24 when given) for a client in `block`: `ips`
    /// (0 = no address) must all be servers of one live cluster, and
    /// that cluster must be the one the mapping layer gives.
    pub fn check(
        &mut self,
        op: u64,
        name: u16,
        resolver: Ipv4Addr,
        ecs_client: Option<Ipv4Addr>,
        ips: &[u32],
        block: Option<usize>,
    ) {
        let world = self.world;
        let report = &mut *self.report;
        let mut cluster = None;
        for ip in ips.iter().filter(|&&ip| ip != 0) {
            let ip = Ipv4Addr::from(*ip);
            match world.cluster_of(ip) {
                Some(c) if world.cdn.cluster(c).alive => {
                    if cluster.is_some_and(|prev| prev != c) {
                        report.error(format!("op {op}: answer spans two clusters"));
                    }
                    cluster = Some(c);
                }
                _ => report.error(format!("op {op}: {ip} is not a live CDN server")),
            }
        }
        let Some(c) = cluster else { return };
        let key = match ecs_client {
            Some(client) => (name, u32::from(client) >> 8, true),
            None => (name, u32::from(resolver), false),
        };
        let map = self.map;
        let expected = *self.memo.entry(key).or_insert_with(|| {
            reference_cluster(
                world,
                map,
                &world.domains[name as usize].0,
                resolver,
                ecs_client,
            )
        });
        if Some(c) != expected {
            report.error(format!(
                "op {op}: answered cluster {c:?}, mapping layer says {expected:?}"
            ));
        }
        if let Some(b) = block {
            self.quality.add(b, c);
        }
    }
}

/// Runs `reps` full set-ups, retiring each before the next, and keeps
/// the last; returns it with each set-up's wall time in seconds, whose
/// median is `setup_s`.
pub fn timed_setups<R>(
    reps: usize,
    mut build: impl FnMut() -> R,
    mut retire: impl FnMut(R),
) -> (R, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = last.take() {
            retire(old);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Answer quality seen by clients: how far (in RTT and in miles) each
/// answered cluster is from the asking client's block. Operations are
/// tallied per (block, cluster) pair and the latency model is evaluated
/// once per pair.
#[derive(Default)]
pub struct Quality {
    pairs: HashMap<(usize, u32), u64>,
}

impl Quality {
    pub fn add(&mut self, block: usize, cluster: ClusterId) {
        *self.pairs.entry((block, cluster.0)).or_insert(0) += 1;
    }

    /// (mean RTT ms, mean great-circle miles) over every tallied answer.
    pub fn finish(&self, world: &World) -> (f64, f64) {
        let mut n = 0u64;
        let (mut rtt, mut miles) = (0.0f64, 0.0f64);
        for (&(b, c), &count) in &self.pairs {
            let block = &world.net.blocks[b];
            let ep: Endpoint = block.endpoint();
            let cl = world.cdn.cluster_endpoint(ClusterId(c));
            rtt += world.net.latency.rtt_ms(&ep, &cl) * count as f64;
            miles += block.loc.distance_miles(&cl.loc) * count as f64;
            n += count;
        }
        if n == 0 {
            return (0.0, 0.0);
        }
        (rtt / n as f64, miles / n as f64)
    }
}

/// One seeded CDN event.
#[derive(Debug, Clone)]
pub enum CdnEvent {
    Kill(ClusterId),
    Revive(ClusterId),
    Rescore(RescoreHints),
}

/// Draws CDN events in a fixed cycle of kinds: a cluster dies, about 1%
/// of the resolver units (seeded) get rescore hints, the dead cluster
/// revives. The fixed cycle keeps the mix of event costs the
/// same in every run. The escape cluster (the fallback
/// for unknown resolvers) never dies, so every publication stays keyed.
pub struct EventPlanner {
    rng: SplitMix,
    step: usize,
    /// Kill victims: every cluster but the escape cluster, in a seeded
    /// order that repeats, so each dies about equally often in a run.
    victims: Vec<ClusterId>,
    kills: usize,
    dead: Option<ClusterId>,
}

impl EventPlanner {
    pub fn new(seed: u64, world: &World) -> EventPlanner {
        let mut rng = SplitMix::new(seed);
        let mut victims: Vec<ClusterId> = (1..world.cdn.cluster_count() as u32)
            .map(ClusterId)
            .collect();
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.below(i + 1));
        }
        EventPlanner {
            rng,
            step: 0,
            victims,
            kills: 0,
            dead: None,
        }
    }

    pub fn next(&mut self, world: &World) -> CdnEvent {
        self.step += 1;
        match (self.step % 3, self.dead.take()) {
            (1, None) => {
                let c = self.victims[self.kills % self.victims.len()];
                self.kills += 1;
                self.dead = Some(c);
                CdnEvent::Kill(c)
            }
            (0, Some(c)) => CdnEvent::Revive(c),
            (_, dead) => {
                self.dead = dead;
                // Hints go to resolver (NS) units: an end-user unit hint
                // that touches a ping-target block forces a full
                // rebuild, and on this world almost every 1% sample of
                // end-user units does.
                let ns = world.map.ns_units().len();
                let mut hints = RescoreHints::default();
                for _ in 0..(ns / 100).max(1) {
                    hints.ns.push(UnitId(self.rng.below(ns) as u32));
                }
                CdnEvent::Rescore(hints)
            }
        }
    }
}

/// Costs of one publication, from the CDN event to the published
/// generation.
#[derive(Debug, Clone, Copy)]
pub struct Publication {
    pub total_us: f64,
    pub rebuild_us: f64,
    pub clone_us: f64,
    pub publish_us: f64,
    pub units_changed: usize,
    pub full: bool,
}

/// Applies `ev` to the CDN and republishes: `rebuild_incremental`, then
/// `clone_for_publish`, then `publish_delta`, each timed.
pub fn apply_and_publish(world: &mut World, ev: &CdnEvent, snaps: &SnapshotHandle) -> Publication {
    let t0 = Instant::now();
    let hints = match ev {
        CdnEvent::Kill(c) => {
            world.cdn.set_cluster_alive(*c, false);
            RescoreHints::default()
        }
        CdnEvent::Revive(c) => {
            world.cdn.set_cluster_alive(*c, true);
            RescoreHints::default()
        }
        CdnEvent::Rescore(h) => h.clone(),
    };
    let t1 = Instant::now();
    let delta = world
        .map
        .rebuild_incremental(&world.net, &world.cdn, &hints);
    let t2 = Instant::now();
    let copy = world.map.clone_for_publish();
    let t3 = Instant::now();
    let units_changed = delta.units_changed();
    let full = delta.is_full();
    snaps.publish_delta(copy, delta);
    let t4 = Instant::now();
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    Publication {
        total_us: us(t0, t4),
        rebuild_us: us(t1, t2),
        clone_us: us(t2, t3),
        publish_us: us(t3, t4),
        units_changed,
        full,
    }
}

/// Control-plane sleep between CDN events.
pub const CADENCE: Duration = Duration::from_millis(100);
/// Sub-seed stream of the control plane's CDN events.
const CONTROL_PLANE_STREAM: u64 = 0xC0;

/// A publication the control plane finished.
pub struct Event {
    pub event: CdnEvent,
    /// When `publish_delta` returned, on the run's trace clock.
    pub done_ns: u64,
    pub cost: Publication,
}

/// Runs `work` on the calling thread while a control-plane thread (on
/// its own CPU when one is free, see [`crate::cpu`]) sleeps
/// [`CADENCE`], applies the next seeded CDN event to `world` and
/// republishes into `snaps`, over and over; the events are drawn from
/// the run's `seed`. Every workload runs one, so `publish_ms` is
/// measured on every workload, spread over the whole run; only
/// `map_churn` serves the snapshots it publishes. `work` gets
/// the count of finished publications, stored after each
/// `publish_delta` returns. When `work` is done the control plane stops
/// and revives any cluster it left dead, so `world` ends fully alive.
pub fn with_control_plane<R>(
    world: &mut World,
    snaps: &SnapshotHandle,
    seed: u64,
    tracer: &Tracer,
    work: impl FnOnce(&AtomicU32) -> R,
) -> (R, Vec<Event>) {
    let published = AtomicU32::new(0);
    let stop = AtomicBool::new(false);
    let mut log = Vec::new();
    let result = std::thread::scope(|scope| {
        let cp = scope.spawn(|| {
            crate::cpu::control_plane();
            let mut planner = EventPlanner::new(sub_seed(seed, CONTROL_PLANE_STREAM), world);
            'run: loop {
                let wake = Instant::now() + CADENCE;
                while Instant::now() < wake {
                    if stop.load(Ordering::SeqCst) {
                        break 'run;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let event = planner.next(world);
                let cost = apply_and_publish(world, &event, snaps);
                log.push(Event {
                    event,
                    done_ns: tracer.ns(Instant::now()),
                    cost,
                });
                published.store(log.len() as u32, Ordering::SeqCst);
            }
            if let Some(c) = planner.dead.take() {
                apply_and_publish(world, &CdnEvent::Revive(c), snaps);
            }
        });
        let result = work(&published);
        stop.store(true, Ordering::SeqCst);
        cp.join().expect("control plane panicked");
        result
    });
    (result, log)
}

/// Per-layer summary of a list of publications (medians).
pub struct PublishSummary {
    pub total_ms: f64,
    pub rebuild_us: f64,
    pub clone_us: f64,
    pub publish_us: f64,
    pub units_changed: f64,
}

pub fn summarize(events: &[Event]) -> PublishSummary {
    let col =
        |f: fn(&Publication) -> f64| median(&events.iter().map(|e| f(&e.cost)).collect::<Vec<_>>());
    PublishSummary {
        total_ms: col(|p| p.total_us) / 1e3,
        rebuild_us: col(|p| p.rebuild_us),
        clone_us: col(|p| p.clone_us),
        publish_us: col(|p| p.publish_us),
        units_changed: col(|p| p.units_changed as f64),
    }
}

/// Sets the publication per-layer metrics from a run's publications.
pub fn set_publication_layers(report: &mut Report, events: &[Event]) {
    let s = summarize(events);
    report.set("mapping.rebuild_incremental_us", s.rebuild_us);
    report.set("mapping.clone_for_publish_us", s.clone_us);
    report.set("mapping.units_changed", s.units_changed);
    report.set("authd.snapshot.publish_delta_us", s.publish_us);
}

/// Answer-cache hit ratio over the shards' whole lives.
pub fn authd_hit_ratio(shards: &[ShardReport]) -> f64 {
    let hits: u64 = shards.iter().map(|s| s.cache.hits).sum();
    let misses: u64 = shards.iter().map(|s| s.cache.misses).sum();
    ratio(hits as f64, (hits + misses) as f64)
}

/// The baseline `peak_rss_mb` is measured from: the process's resident
/// set (`VmRSS`) before a workload builds what it measures.
pub struct RssBaseline(f64);

impl RssBaseline {
    pub fn now() -> RssBaseline {
        RssBaseline(status_mb("VmRSS:"))
    }

    /// How far the process's peak resident set (`VmHWM`) has risen above
    /// the baseline, MB. Read right after the timed segment, before the
    /// end-of-run checks allocate.
    pub fn peak_mb(&self) -> f64 {
        status_mb("VmHWM:") - self.0
    }
}

/// A size field of `/proc/self/status`, MB (0 when unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
