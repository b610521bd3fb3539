//! The run record: host facts and process counters read from `/proc`.
//!
//! Process CPU times come from `/proc/self/stat` in clock ticks, taken as
//! the Linux `USER_HZ` of 100 per second (10 ms resolution). The steal
//! share is read from the `cpu` line of `/proc/stat`: time the hypervisor
//! gave this machine's virtual CPUs to someone else, over all time that
//! passed, so a run slowed by a noisy neighbour can be told from a slower
//! program.

use std::time::Instant;

const USER_HZ: f64 = 100.0;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The vendored rayon pool width in force (`WADE_THREADS` or `nproc`).
pub fn pool_width() -> usize {
    rayon::current_num_threads()
}

/// User and system CPU seconds this process has used so far, all threads.
pub fn process_cpu() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / USER_HZ, ticks(12) / USER_HZ)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the machine-wide `cpu` line.
fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = vals.iter().take(8).sum();
    Some((*vals.get(7)?, total))
}

/// The run record, started when the run starts.
pub struct RunRecord {
    started: Instant,
    steal0: Option<(u64, u64)>,
}

impl RunRecord {
    /// Starts the record.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
            steal0: steal_jiffies(),
        }
    }

    /// One line describing the host and the run so far.
    pub fn line(&self, workload: &str, seed: u64, traced: bool) -> String {
        let steal = match (self.steal0, steal_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "unknown".to_string(),
        };
        let (user, sys) = process_cpu();
        format!(
            "run: workload={workload} seed={seed} trace={} nproc={} pool_width={} \
             wall_s={:.3} cpu_user_s={user:.2} cpu_sys_s={sys:.2} cpu_steal_share={steal} \
             peak_rss_mib={:.1}",
            u8::from(traced),
            nproc(),
            pool_width(),
            self.started.elapsed().as_secs_f64(),
            peak_rss_mib(),
        )
    }
}
