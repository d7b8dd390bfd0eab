//! Host stamp and process memory.

use crate::report::json_str;

/// What a result must carry to be compared with another host's.
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl HostStamp {
    pub fn probe() -> Self {
        HostStamp {
            nproc: nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(&self.git_rev)
        )
    }
}

/// Host CPUs available to this process (1 when the query fails).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process, and no walking up into an enclosing
/// repository). `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_owned)
    })
}

/// Keeps freed memory in the process instead of handing it back to the
/// kernel. By default glibc maps each large allocation afresh and unmaps
/// it on free, and moves that threshold as the process runs, so a
/// set-up's time swings with how many of its pages the kernel has to
/// fault in and zero, which depends on the run's history and other
/// tenants (0.3 ms or 1.5 ms for the same one-slice set-up in one run).
/// With the thresholds pinned, every set-up after the first reuses the
/// heap and is timed on the simulator's own work.
pub fn settle_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // glibc's largest mmap threshold on 64-bit hosts (32 MiB).
        const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
        // SAFETY: mallopt only adjusts allocator parameters; it is called
        // before this process starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
