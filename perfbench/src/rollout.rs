//! `rollout_replay`: the analytic model layer (eum-sim, with the model
//! resolver and its ECS cache) replaying the paper's §4 roll-out.
//!
//! Each replay is `Scenario::build` on a fixed tiny world followed by
//! `run_rollout` with the traffic seed derived from `--seed`. The run
//! replays until its time is up, and at least [`DISTINCT`] times; the
//! first [`DISTINCT`] replays use distinct traffic sub-seeds and their
//! quality figures are averaged.

use crate::stats::{median, nearest_rank, secs, sub_seed};
use crate::trace::Tracer;
use crate::world::{set_publication_layers, summarize, with_control_plane, RssBaseline, World};
use crate::{Args, Report};
use eum_sim::{Metric, RolloutReport, Scenario, ScenarioConfig};
use std::time::{Duration, Instant};

/// Seed of the fixed tiny world the replays run on.
const TINY_WORLD: u64 = 0x402;
/// Distinct traffic sub-seeds per run.
const DISTINCT: usize = 8;

/// The paper's roll-out outcomes from one replay.
struct Outcome {
    distance: (f64, f64),
    rtt: (f64, f64),
    public_rate: (f64, f64),
    failed_views: u64,
    rum_samples: usize,
    dns_lookups: u64,
}

fn outcome(r: &RolloutReport) -> Outcome {
    let ((_, pre_public), (_, post_public)) = r.query_rate_change();
    Outcome {
        distance: r.before_after(Metric::MappingDistance, true),
        rtt: r.before_after(Metric::Rtt, true),
        public_rate: (pre_public, post_public),
        failed_views: r.failed_views,
        rum_samples: r.rum.len(),
        dns_lookups: r.counters.rows().iter().map(|row| row.1).sum(),
    }
}

/// The roll-out must do what the paper reports: closer and faster
/// mapping for qualified high-expectation clients, more queries from
/// public resolvers (Fig. 23), and no failed page views.
fn check(o: &Outcome, i: usize, report: &mut Report) {
    // Written so that a NaN (an empty window) fails the check too.
    let fell = |(pre, post): (f64, f64)| post < pre;
    let rose = |(pre, post): (f64, f64)| post > pre;
    if !fell(o.distance) {
        report.error(format!(
            "replay {i}: mapping distance {:?} did not fall",
            o.distance
        ));
    }
    if !fell(o.rtt) {
        report.error(format!("replay {i}: RTT {:?} did not fall", o.rtt));
    }
    if !rose(o.public_rate) {
        report.error(format!(
            "replay {i}: public-resolver query rate {:?} did not rise",
            o.public_rate
        ));
    }
    if o.failed_views != 0 {
        report.error(format!("replay {i}: {} failed views", o.failed_views));
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let limit = Duration::from_secs_f64(args.seconds);
    // The control plane republishes on a replica of the replay world, so
    // `publish_ms` is measured here too.
    let s = Scenario::build(ScenarioConfig::tiny(TINY_WORLD));
    let mut replica = World::from_parts(s.net, s.cdn, s.mapping, &s.catalog, 0.0, 0.0);
    let snaps = eum_authd::SnapshotHandle::new(replica.map.clone_for_publish());
    // `peak_rss_mb` counts the replays' memory, not the replica's.
    let rss = RssBaseline::now();
    let mut setups = Vec::new();
    let mut replays = Vec::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    let (_, events) = with_control_plane(&mut replica, &snaps, args.seed, &Tracer::new(), |_| {
        while replays.len() < DISTINCT || start.elapsed() < limit {
            let i = replays.len();
            let t = Instant::now();
            let mut s = Scenario::build(ScenarioConfig::tiny(TINY_WORLD));
            setups.push(secs(t));
            s.cfg.seed = sub_seed(args.seed, (i % DISTINCT) as u64);
            let t = Instant::now();
            let r = s.run_rollout();
            replays.push(secs(t));
            let o = outcome(&r);
            check(&o, i, &mut report);
            if i < DISTINCT {
                outcomes.push(o);
            }
        }
    });
    let wall = secs(start);
    report.attempted = replays.len() as u64;

    let n = outcomes.len() as f64;
    let avg = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    let mut sorted = replays.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let lookups: u64 = outcomes.iter().map(|o| o.dns_lookups).sum();
    let replay_time: f64 = replays[..outcomes.len()].iter().sum();
    println!(
        "# rollout_replay: {} replays, median {:.3} s, post distance {:.1} mi, post RTT {:.2} ms",
        replays.len(),
        median(&replays),
        avg(|o| o.distance.1),
        avg(|o| o.rtt.1)
    );
    if args.trace {
        report.set("sim.rum_samples", avg(|o| o.rum_samples as f64));
        report.set("sim.dns_lookups", avg(|o| o.dns_lookups as f64));
        let (generate_ms, build_ms) = time_world_build();
        report.set("mapping.build_ms", build_ms);
        report.set("netmodel.generate_ms", generate_ms);
        set_publication_layers(&mut report, &events);
        // Only whole calls are timed here: the share of wall time
        // outside the timed build and replay calls, and the replay time
        // no layer span splits further.
        let timed: f64 = setups.iter().sum::<f64>() + replays.iter().sum::<f64>();
        report.set("trace.overhead", wall / timed);
        report.set("trace.unattributed_ns", median(&replays) * 1e9);
        return report;
    }
    report.set("setup_s", median(&setups));
    report.set("throughput_qps", lookups as f64 / replay_time);
    report.set("latency_p50_us", nearest_rank(&sorted, 0.50) * 1e6);
    report.set("latency_p99_us", nearest_rank(&sorted, 0.99) * 1e6);
    report.set("answer_rtt_ms", avg(|o| o.rtt.1));
    report.set("mapping_distance_mi", avg(|o| o.distance.1));
    report.set("amplification", avg(|o| o.public_rate.1 / o.public_rate.0));
    report.set("publish_ms", summarize(&events).total_ms);
    report.set("peak_rss_mb", rss.peak_mb());
    report
}

/// (Internet generation ms, mapping build ms) of the tiny world, timed
/// call by call outside `Scenario::build`.
fn time_world_build() -> (f64, f64) {
    let cfg = ScenarioConfig::tiny(TINY_WORLD);
    let t = Instant::now();
    let mut net = eum_netmodel::Internet::generate(cfg.internet.clone());
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let sites = eum_cdn::deployment_universe(cfg.seed, cfg.n_clusters);
    let cdn = eum_cdn::CdnPlatform::deploy(
        &mut net,
        &sites,
        &eum_cdn::DeployConfig {
            servers_per_cluster: cfg.servers_per_cluster,
            cache_objects_per_server: cfg.cache_objects,
            cluster_capacity: 1.0,
        },
    );
    let catalog = eum_cdn::ContentCatalog::generate(&cfg.catalog);
    let t = Instant::now();
    let _map = eum_mapping::MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().expect("static name"),
        cfg.mapping.clone(),
    );
    (generate_ms, t.elapsed().as_secs_f64() * 1e3)
}
