//! Host facts: memory and scheduler counters from `/proc`, the memcpy roof,
//! and the provenance stamped on every result.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// A `kB` field of a `/proc/.../status` file, in MB.
fn status_mb(path: &str, field: &str) -> f64 {
    let text = fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size of the process now.
pub fn rss_mb() -> f64 {
    status_mb("/proc/self/status", "VmRSS:")
}

/// Peak resident set size of the process so far.
pub fn peak_rss_mb() -> f64 {
    status_mb("/proc/self/status", "VmHWM:")
}

/// Scheduler counters of the calling OS thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
    /// Time on a CPU.
    pub oncpu_ns: u64,
    /// Time runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl Sched {
    /// Read `/proc/thread-self/{status,schedstat}`. Missing files read as 0.
    pub fn now() -> Sched {
        let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
        let switches = status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.split(':').nth(1)?.trim().parse::<u64>().ok())
            .sum();
        let stat = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut f = stat
            .split_whitespace()
            .map(|x| x.parse::<u64>().unwrap_or(0));
        Sched {
            switches,
            oncpu_ns: f.next().unwrap_or(0),
            runq_ns: f.next().unwrap_or(0),
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            switches: self.switches.saturating_sub(earlier.switches),
            oncpu_ns: self.oncpu_ns.saturating_sub(earlier.oncpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }

    pub fn add(&mut self, other: Sched) {
        self.switches += other.switches;
        self.oncpu_ns += other.oncpu_ns;
        self.runq_ns += other.runq_ns;
    }
}

/// Single-thread `memcpy` bandwidth at a working set of `bytes` (half
/// source, half destination), counting bytes read plus bytes written, best
/// of the repetitions that fit in about 0.2 s.
pub fn memcpy_roof_gbps(bytes: usize) -> f64 {
    let half = (bytes / 2).max(1 << 12);
    let src: Vec<u8> = (0..half).map(|i| i as u8).collect();
    let mut dst = vec![0u8; half];
    dst.copy_from_slice(&src);
    let t_end = Instant::now() + Duration::from_millis(200);
    let mut best = f64::MAX;
    let mut reps = 0;
    while reps < 3 || Instant::now() < t_end {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
    }
    2.0 * half as f64 / best / 1e9
}

/// The commit measured, if the benchmark runs in a git checkout:
/// `(hash, dirty)`.
fn git_commit() -> Option<(String, bool)> {
    if !Path::new(".git").exists() {
        return None;
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let head = run(&["rev-parse", "HEAD"])?;
    let dirty = !run(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    Some((head, dirty))
}

/// FNV-1a over the path and bytes of every source file the benchmark is
/// built from, so a result names the exact tree even outside git.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "third_party",
        "hostbench",
    ] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(dir) = fs::read_dir(path) {
        for entry in dir.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            if name != "target" && name != "results" {
                collect(&p, out);
            }
        }
    }
}

/// `(steal, total)` CPU time of the host so far, in clock ticks, from the
/// aggregate line of `/proc/stat`.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Host CPU time around one op, from two reads of `/proc/stat`: clock
/// ticks stolen by other tenants of the virtual host, all ticks, and how
/// long the interval lasted.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    pub stolen: u64,
    pub total: u64,
    pub span: Duration,
}

/// Where a [`Steal`] measurement starts.
pub struct StealMark((u64, u64), Instant);

impl Steal {
    pub fn mark() -> StealMark {
        StealMark(cpu_steal_ticks(), Instant::now())
    }

    /// The host CPU time since `mark`.
    pub fn since(StealMark((stolen, total), at): StealMark) -> Steal {
        let (s, t) = cpu_steal_ticks();
        Steal {
            stolen: s - stolen,
            total: t - total,
            span: at.elapsed(),
        }
    }
}

fn mem_total_mb() -> f64 {
    status_mb("/proc/meminfo", "MemTotal:")
}

/// The provenance record printed before every result, as one JSON object.
pub fn provenance(workload: &str, seed: u64, ws_bytes: usize, roof_gbps: f64) -> String {
    let (commit, dirty) = match git_commit() {
        Some((c, d)) => (format!("\"{c}\""), d.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"commit\": {commit}, \"dirty\": {dirty}, \
         \"source_digest\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"nproc\": {nproc}, \"mem_total_mb\": {:.0}, \"workers\": {}, \
         \"working_set_bytes\": {ws_bytes}, \"memcpy_roof_gbps\": {roof_gbps}}}}}",
        source_digest(),
        mem_total_mb(),
        crate::spec::WORKERS,
    )
}
