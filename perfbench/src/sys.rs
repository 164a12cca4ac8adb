//! Readings the benchmark takes from `/proc`: per-thread scheduler time,
//! process CPU time and peak resident memory, plus the run header.

use std::time::Instant;

/// Scheduler accounting of the calling thread, from
/// `/proc/thread-self/schedstat`: nanoseconds on a CPU and nanoseconds
/// runnable but waiting for one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

impl Sched {
    /// Reads zeros where the kernel exposes no schedstat.
    pub fn now() -> Sched {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut it = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        Sched {
            cpu_ns: it.next().unwrap_or(0),
            runq_ns: it.next().unwrap_or(0),
        }
    }
}

/// A point in time on the calling thread: wall clock and scheduler state.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub t: Instant,
    pub sched: Sched,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            t: Instant::now(),
            sched: Sched::now(),
        }
    }
}

/// One thread's time between two marks, split into on-CPU, waiting for a
/// CPU (runqueue) and the rest (blocked, here: waiting for the peer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    pub wall_s: f64,
    pub busy_s: f64,
    pub runq_s: f64,
}

impl Interval {
    pub fn between(a: &Mark, b: &Mark) -> Interval {
        Interval {
            wall_s: b.t.duration_since(a.t).as_secs_f64(),
            busy_s: b.sched.cpu_ns.saturating_sub(a.sched.cpu_ns) as f64 * 1e-9,
            runq_s: b.sched.runq_ns.saturating_sub(a.sched.runq_ns) as f64 * 1e-9,
        }
    }

    /// Time neither on a CPU nor queued for one: blocked on the peer.
    pub fn blocked_s(&self) -> f64 {
        (self.wall_s - self.busy_s - self.runq_s).max(0.0)
    }
}

/// User plus system CPU seconds of the whole process, threads that have
/// already exited included (`/proc/self/stat`, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    ticks as f64 / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The commit the benchmark runs on, read from `.git` in the working
/// directory only (never from a parent directory); "unknown" outside a
/// git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| {
                // A packed ref: look it up in packed-refs.
                std::fs::read_to_string(".git/packed-refs")
                    .unwrap_or_default()
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                    .unwrap_or_else(|| "unknown".into())
            }),
        None => head,
    }
}

/// The run header: what the numbers were measured on.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let f = secyan_crypto::cpu::features();
    format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {}, \"cpu_features\": {{\"sse2\": {}, \"ssse3\": {}, \
         \"avx2\": {}, \"pclmulqdq\": {}, \"aes\": {}}}, \"worker_threads\": {}, \
         \"force_scalar_env\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {}}}",
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        f.sse2,
        f.ssse3,
        f.avx2,
        f.pclmulqdq,
        f.aes,
        secyan_par::threads(),
        std::env::var_os("SECYAN_FORCE_SCALAR").is_some(),
        u8::from(trace),
    )
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile, `q` in [0, 1] (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// SplitMix64: derives independent per-purpose seeds from the run seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
