//! CPU placement of the benchmark's own threads.
//!
//! The benchmark confines its serving path (client and shard threads)
//! to one CPU, the last one it is allowed. On a shared two-vCPU host,
//! runs whose client and shard threads landed on different vCPUs
//! differed by up to 2x from run to run (43k to 86k resolutions/s on
//! `resolve_mix`), while single-CPU runs repeat within a few percent.
//! The serving figures are therefore per-core costs: threads hand the
//! core to each other instead of running side by side. The control
//! plane runs on another allowed CPU when there is one, as a map
//! builder would in a deployment; sharing the serving core, its
//! publications preempted the serving threads and moved `authd_udp`'s
//! p99 by 24% between runs.

/// CPUs this process was allowed to run on when first asked, from
/// `Cpus_allowed_list` in `/proc/self/status` (e.g. `0-1,4`). Empty when
/// unreadable. Read once: pinning narrows the live list.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(read_allowed)
}

fn read_allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            (Some(Ok(a)), None) => cpus.push(a),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the last allowed CPU (best effort). Returns the CPU.
pub fn confine() -> Option<usize> {
    pin(*allowed().last()?)
}

/// Pins the calling control-plane thread to the first allowed CPU, off
/// the serving CPU, when more than one is allowed (best effort).
pub fn control_plane() -> Option<usize> {
    match allowed() {
        [first, .., _] => pin(*first),
        _ => None,
    }
}

fn pin(cpu: usize) -> Option<usize> {
    match eum_net::sys::pin_current_thread(cpu) {
        Ok(()) => Some(cpu),
        Err(e) => {
            eprintln!("# could not pin to cpu {cpu}: {e}");
            None
        }
    }
}
