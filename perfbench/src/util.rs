//! Small measurement helpers: order statistics, process memory, the run's
//! working directory and its provenance stamp.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Time `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, secs(start.elapsed()))
}

/// Median of `values` (the mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Return the allocator's free memory to the system, then reset this
/// process's peak resident set size (VmHWM) to its current resident size,
/// so a later `peak_rss_mb` sees what is live from here on and not what
/// set-up freed.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A scratch directory under `.bench_work/` in the current directory,
/// removed with everything in it when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A fresh (absent) path inside the directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.path.join(name);
        if path.is_dir() {
            let _ = std::fs::remove_dir_all(&path);
        } else if path.exists() {
            let _ = std::fs::remove_file(&path);
        }
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Run `build` `reps` times, pushing each elapsed time onto `times`, and
/// return the last result. Each workload calls it before its timed section
/// and again after it, so the median set-up time spans the whole run rather
/// than its first second.
pub fn time_setups<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (built, s) = timed(&mut build);
        times.push(s);
        last = Some(built?);
    }
    last.ok_or_else(|| "no set-up ran".into())
}

/// Decides how many times a timed section repeats: at least `min_reps`
/// times, and until `seconds` have passed since the budget started.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
}

impl Budget {
    pub fn start(seconds: f64, min_reps: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min_reps,
        }
    }

    pub fn more(&self, reps_done: usize) -> bool {
        reps_done < self.min_reps || secs(self.start.elapsed()) < self.seconds
    }
}

/// The commit of the checkout the benchmark runs in, from
/// `git rev-parse HEAD`, or `none` outside a git checkout.
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "none".into(), |id| id.trim().to_string())
}
