//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! eum-perfbench --workload <resolve_mix|authd_udp|map_churn|rollout_replay>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and prints every end-to-end
//! metric; `--trace 1` runs an untraced reference segment and then a
//! traced one, and prints every per-layer metric. Either way the
//! outputs are checked, and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. All
//! timing happens here, around calls into the program's public API; the
//! program itself is built unmodified.

mod cpu;
mod micro;
mod resolve_mix;
mod rollout;
mod stats;
mod trace;
mod udp;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "q/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("answer_rtt_ms", "ms"),
    ("mapping_distance_mi", "mi"),
    ("amplification", "ratio"),
    ("publish_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ldns.self_ns", "ns"),
    ("ldns.hit_ratio", "ratio"),
    ("ldns.upstream_per_miss", "ratio"),
    ("ldns.expirations", "count"),
    ("authd.channel_ns", "ns"),
    ("authd.recv_wait_ns", "ns"),
    ("authd.serve_hit_ns", "ns"),
    ("authd.serve_miss_ns", "ns"),
    ("authd.hit_ratio", "ratio"),
    ("authd.stage.decode_ns", "ns"),
    ("authd.stage.cache_ns", "ns"),
    ("authd.stage.route_ns", "ns"),
    ("authd.stage.encode_ns", "ns"),
    ("authd.keyed_evictions", "count"),
    ("authd.post_publish_hit_ratio", "ratio"),
    ("authd.snapshot.publish_delta_us", "us"),
    ("net.recv_batch_ns", "ns"),
    ("net.flush_ns", "ns"),
    ("net.batch_fill", "count"),
    ("net.syscalls_per_query", "ratio"),
    ("dns.decode_ns", "ns"),
    ("dns.encode_ns", "ns"),
    ("mapping.answer_ns", "ns"),
    ("mapping.rebuild_incremental_us", "us"),
    ("mapping.clone_for_publish_us", "us"),
    ("mapping.units_changed", "count"),
    ("mapping.build_ms", "ms"),
    ("netmodel.generate_ms", "ms"),
    ("sim.rum_samples", "count"),
    ("sim.dns_lookups", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_ns", "ns"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check violation (the first few are kept verbatim).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        } else if self.errors.len() == 20 {
            self.errors.push("further violations omitted".into());
        }
    }
}

fn host_facts() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("# host: cpus={cpus} kernel={kernel} cpu={model}")
}

fn json(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in table {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in report.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in this run's table"));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        parts.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eum-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu = cpu::confine();
    println!(
        "{} confined_to_cpu={}",
        host_facts(),
        cpu.map_or("none".into(), |c| c.to_string())
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "resolve_mix" => resolve_mix::run(&args),
        "authd_udp" => udp::run_authd_udp(&args),
        "map_churn" => udp::run_map_churn(&args),
        "rollout_replay" => rollout::run(&args),
        other => {
            eprintln!("eum-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        for (name, _) in END_TO_END {
            if !report.metrics.contains_key(name) {
                eprintln!("eum-perfbench: workload did not report {name}");
                return ExitCode::from(1);
            }
        }
    }
    match json(&report, table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eum-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
