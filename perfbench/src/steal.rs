//! Steal time: on a virtual machine, time a virtual CPU was ready to run
//! while the hypervisor ran another tenant instead. The program does no
//! work then, and a request in flight simply waits, so a figure taken
//! across stolen time measures the neighbours as well as the program.
//!
//! A sampler thread reads the steal counter of the CPU the run is pinned
//! to every few milliseconds. The run's timeline is cut into quarter
//! seconds, and the end-to-end figures are taken from the *quiet* ones:
//! those whose steal is at most the lowest quartile of steal among the
//! quarter-seconds considered — every steal-free quarter-second when at
//! least a quarter of them were free, else the least-stolen quarter.
//! A slower program is slower in every quarter-second, quiet or not.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The length of one slice of the timeline.
pub const SLICE_NS: u64 = 250_000_000;

/// How often the sampler reads the counter.
const PERIOD: Duration = Duration::from_millis(25);

/// The instant every timestamp of the run counts from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn ns_since_epoch(at: Instant) -> u64 {
    at.duration_since(epoch()).as_nanos() as u64
}

/// The `/proc/stat` line to read: the CPU this process is pinned to, or
/// the machine's total when it may run on several.
fn counter_line() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .unwrap_or("");
    match allowed.parse::<usize>() {
        Ok(cpu) => format!("cpu{cpu} "),
        Err(_) => "cpu ".to_owned(),
    }
}

/// The steal counter (clock ticks) on `line`.
fn read_steal(line: &str) -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat.lines().find(|l| l.starts_with(line))?;
    fields.split_whitespace().nth(8)?.parse().ok()
}

/// A running sampler; [`StealSampler::finish`] stops it.
pub struct StealSampler {
    samples: Arc<Mutex<Vec<(u64, u64)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StealSampler {
    pub fn start() -> StealSampler {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let line = counter_line();
        let thread = {
            let samples = Arc::clone(&samples);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(ticks) = read_steal(&line) else {
                        return;
                    };
                    let at = ns_since_epoch(Instant::now());
                    samples.lock().expect("sampler lock").push((at, ticks));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        StealSampler {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    pub fn finish(mut self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let samples = std::mem::take(&mut *self.samples.lock().expect("sampler lock"));
        StealLog { samples }
    }
}

impl Drop for StealSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The sampled counter: `(ns since the epoch, ticks)`, in time order.
/// Empty where the counter cannot be read; every slice is then quiet.
#[derive(Default)]
pub struct StealLog {
    samples: Vec<(u64, u64)>,
}

impl StealLog {
    /// The counter as of `at_ns`: its last reading at or before then.
    fn at(&self, at_ns: u64) -> u64 {
        let i = self.samples.partition_point(|s| s.0 <= at_ns);
        if i == 0 {
            self.samples.first().map_or(0, |s| s.1)
        } else {
            self.samples[i - 1].1
        }
    }

    /// Which of `spans` (`(from_ns, to_ns)`) are quiet: stolen from at
    /// most the lowest quartile of the steal among them.
    pub fn quiet_spans(&self, spans: &[(u64, u64)]) -> Vec<bool> {
        let ticks: Vec<u64> = spans
            .iter()
            .map(|&(from, to)| self.at(to) - self.at(from))
            .collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        let threshold = sorted
            .get(sorted.len().saturating_sub(1) / 4)
            .copied()
            .unwrap_or(0);
        ticks.iter().map(|&t| t <= threshold).collect()
    }

    /// The quiet slices of the timeline among `slices`.
    pub fn quiet(&self, slices: impl IntoIterator<Item = u64>) -> Quiet {
        let slices: Vec<u64> = slices.into_iter().collect();
        let spans: Vec<(u64, u64)> = slices
            .iter()
            .map(|&s| (s * SLICE_NS, (s + 1) * SLICE_NS))
            .collect();
        let quiet = self.quiet_spans(&spans);
        Quiet {
            slices: slices
                .iter()
                .zip(quiet)
                .filter(|(_, quiet)| *quiet)
                .map(|(s, _)| *s)
                .collect(),
            of: slices.len(),
        }
    }
}

/// The slice of the timeline `at_ns` falls in.
pub fn slice_of(at_ns: u64) -> u64 {
    at_ns / SLICE_NS
}

/// A set of quiet slices, and how many slices they were chosen from.
pub struct Quiet {
    pub slices: std::collections::BTreeSet<u64>,
    pub of: usize,
}

impl Quiet {
    pub fn contains(&self, at_ns: u64) -> bool {
        self.slices.contains(&slice_of(at_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_slices_are_the_least_stolen_quarter_or_every_free_one() {
        // Slices 0..8; the counter reads at every slice boundary.
        let steal_per_slice = [0, 3, 0, 5, 0, 0, 2, 4];
        let mut ticks = 0;
        let mut samples = vec![(0, 0)];
        for (i, stolen) in steal_per_slice.iter().enumerate() {
            ticks += stolen;
            samples.push(((i as u64 + 1) * SLICE_NS, ticks));
        }
        let log = StealLog { samples };
        let quiet = log.quiet(0..8);
        assert_eq!(quiet.of, 8);
        assert_eq!(
            quiet.slices.iter().copied().collect::<Vec<_>>(),
            [0, 2, 4, 5]
        );
        assert!(quiet.contains(SLICE_NS / 2) && !quiet.contains(SLICE_NS + 1));

        // No free slice: the least-stolen quarter (ties included).
        let quiet = log.quiet([1, 3, 6, 7]);
        assert_eq!(quiet.slices.iter().copied().collect::<Vec<_>>(), [6]);

        // Spans that are not slices: the same rule.
        let spans = [
            (0, SLICE_NS),
            (0, 2 * SLICE_NS),
            (3 * SLICE_NS, 4 * SLICE_NS),
        ];
        assert_eq!(log.quiet_spans(&spans), [true, false, false]);

        // Nothing sampled: every slice is quiet.
        assert_eq!(StealLog::default().quiet(0..4).slices.len(), 4);
    }
}
