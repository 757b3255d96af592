//! Per-thread CPU time and wakeups from `/proc`, thread pinning, keeping a
//! CPU out of idle, and the process's peak resident memory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cumulative counters of one thread.
///
/// Socket traffic goes through `recv`/`send`, which the per-thread `io`
/// file does not count (it counts only `read`/`write`-family calls on
/// files), so the kernel's own per-thread view of a socket server is its
/// CPU time and how often it blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Nanoseconds on CPU (`schedstat`).
    pub cpu_ns: u64,
    /// Times the thread blocked and was woken again
    /// (`status: voluntary_ctxt_switches`).
    pub wakeups: u64,
}

impl ThreadCounters {
    /// Counts since `earlier`.
    pub fn since(self, earlier: ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            wakeups: self.wakeups - earlier.wakeups,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected /proc format: {what}"),
    )
}

/// Reads the counters of the thread whose `/proc` directory is `dir`.
///
/// # Errors
///
/// Fails when the kernel does not expose `schedstat` or `status`.
pub fn read_thread(dir: &Path) -> io::Result<ThreadCounters> {
    let schedstat = fs::read_to_string(dir.join("schedstat"))?;
    let cpu_ns = schedstat
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("schedstat"))?;
    let status = fs::read_to_string(dir.join("status"))?;
    let wakeups = status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:")?.trim().parse().ok())
        .ok_or_else(|| bad("voluntary_ctxt_switches"))?;
    Ok(ThreadCounters { cpu_ns, wakeups })
}

/// The `/proc` directory of the calling thread, valid from any thread.
///
/// # Errors
///
/// Fails when `/proc/thread-self` cannot be resolved.
pub fn current_thread_dir() -> io::Result<PathBuf> {
    let target = fs::read_link("/proc/thread-self")?;
    Ok(Path::new("/proc").join(target))
}

/// The `/proc` directory of this process's thread named `name`, waiting up
/// to a second for it: a thread takes its name only once it runs.
///
/// # Errors
///
/// Fails when no such thread appears.
pub fn find_thread(name: &str) -> io::Result<PathBuf> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        for entry in fs::read_dir("/proc/self/task")? {
            let dir = entry?.path();
            if fs::read_to_string(dir.join("comm")).is_ok_and(|comm| comm.trim_end() == name) {
                // Resolve `self` so the path stays valid when read from
                // another thread.
                let tid = dir.file_name().ok_or_else(|| bad("task entry"))?;
                let pid = fs::read_link("/proc/self")?;
                return Ok(Path::new("/proc").join(pid).join("task").join(tid));
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no thread named {name}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// A thread that spins on one CPU at `SCHED_IDLE` priority: it runs only
/// when nothing else wants that CPU, so the CPU never goes idle. On a
/// virtual machine an idle vCPU is handed back to the hypervisor, and waking
/// it again costs tens of microseconds that vary with the host's load.
#[derive(Debug)]
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl KeepAwake {
    /// Starts the spinner on `cpu`. If the thread cannot be pinned or
    /// lowered to idle priority it exits at once rather than compete.
    pub fn start(cpu: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            const SCHED_IDLE: i32 = 5;
            let priority: i32 = 0;
            // SAFETY: `priority` is a live `struct sched_param`, a single
            // int; the call only reads it.
            let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
            if !(idle && pin_thread(0, cpu)) {
                return;
            }
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        KeepAwake { stop, thread }
    }

    /// Stops and joins the spinner.
    ///
    /// # Errors
    ///
    /// Fails when the spinner panicked.
    pub fn stop(self) -> io::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| io::Error::other("the keep-awake thread panicked"))
    }
}

/// Pins thread `tid` (0 for the calling thread) to CPU `cpu`. Returns
/// whether the kernel accepted the mask; a host with fewer CPUs simply runs
/// unpinned.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its
    // size; the call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or parsed.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .ok_or_else(|| bad("Cpus_allowed_list"))
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for range in list.trim().split(',').filter(|r| !r.is_empty()) {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// The thread id of a `/proc/<pid>/task/<tid>` directory.
pub fn tid_of(dir: &Path) -> Option<i32> {
    dir.file_name()?.to_str()?.parse().ok()
}

/// Time the hypervisor took each CPU away from the virtual machine (`/proc/stat`
/// steal), in milliseconds, indexed by CPU.
///
/// # Errors
///
/// Fails when `/proc/stat` cannot be read.
pub fn steal_ms() -> io::Result<Vec<f64>> {
    let stat = fs::read_to_string("/proc/stat")?;
    Ok(stat
        .lines()
        .filter(|line| line.starts_with("cpu") && line.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|line| {
            // user nice system idle iowait irq softirq steal, in 1/100 s.
            let ticks: f64 = line
                .split_whitespace()
                .nth(8)
                .and_then(|t| t.parse().ok())
                .unwrap_or(0.0);
            ticks * 10.0
        })
        .collect())
}

/// Peak resident set size of the process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .ok_or_else(|| bad("VmHWM"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("\t0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3,7"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list("x"), None);
        assert!(!allowed_cpus().expect("Linux exposes the list").is_empty());
    }
}
