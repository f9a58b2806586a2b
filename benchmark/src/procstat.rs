//! CPU accounting per thread class from `/proc/self/task/*`, sampled from
//! outside the runtime. Every reader returns `None` where `/proc` lacks
//! the file or field; the caller then reports the layer as not measured.

use std::fs;

/// The thread classes of a live group, by the names `gcs-live` gives its
/// threads, plus the benchmark's own main thread (the load generator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadClass {
    Member,
    Pump,
    Timer,
    Generator,
}

pub fn class_of(comm: &str) -> Option<ThreadClass> {
    if comm.starts_with("live-member-") {
        Some(ThreadClass::Member)
    } else if comm.starts_with("live-pump-") {
        Some(ThreadClass::Pump)
    } else if comm == "live-timer" {
        Some(ThreadClass::Timer)
    } else if comm == "gcs-benchmark" {
        Some(ThreadClass::Generator)
    } else {
        None
    }
}

/// Cumulative scheduler counters of the threads alive at one instant,
/// summed per class: on-CPU ns, run-queue wait ns, context switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSample {
    pub cpu_ns: [u64; 4],
    pub runq_ns: [u64; 4],
    pub switches: u64,
}

impl ThreadSample {
    /// Reads every thread of this process. A thread that exits between
    /// two samples (a crashed member) drops out of the later one, so
    /// deltas saturate at zero instead of going negative.
    pub fn take() -> Option<ThreadSample> {
        let mut out = ThreadSample::default();
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let dir = entry.ok()?.path();
            // A thread may exit mid-scan; skip it.
            let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            let Ok(sched) = fs::read_to_string(dir.join("schedstat")) else {
                continue;
            };
            let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().ok());
            let (Some(Some(cpu)), Some(Some(runq)), Some(Some(slices))) =
                (fields.next(), fields.next(), fields.next())
            else {
                return None;
            };
            out.switches += slices;
            if let Some(class) = class_of(comm.trim()) {
                out.cpu_ns[class as usize] += cpu;
                out.runq_ns[class as usize] += runq;
            }
        }
        Some(out)
    }

    pub fn cpu_since(&self, earlier: &ThreadSample, class: ThreadClass) -> u64 {
        self.cpu_ns[class as usize].saturating_sub(earlier.cpu_ns[class as usize])
    }

    pub fn runq_since(&self, earlier: &ThreadSample, class: ThreadClass) -> u64 {
        self.runq_ns[class as usize].saturating_sub(earlier.runq_ns[class as usize])
    }
}

/// User + system CPU seconds of the whole process so far, exited threads
/// included (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks).
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after ")".
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_classes() {
        assert_eq!(class_of("live-member-2"), Some(ThreadClass::Member));
        assert_eq!(class_of("live-pump-0"), Some(ThreadClass::Pump));
        assert_eq!(class_of("live-timer"), Some(ThreadClass::Timer));
        assert_eq!(class_of("gcs-benchmark"), Some(ThreadClass::Generator));
        assert_eq!(class_of("cargo"), None);
    }
}
