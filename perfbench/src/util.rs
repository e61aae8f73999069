//! Small shared helpers: a seeded RNG, order statistics, file-system
//! sizes, peak memory, and the metric table every workload fills.

use std::path::Path;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE2C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Seed of every simulated clip's content. Clip content is fixed so
/// that runs with different `--seed`s do the same work; the seed varies
/// order, layout and query parameters.
pub const CONTENT_SEED: u64 = 2007;

/// Completions per second, as the interquartile mean over whole
/// one-second windows of the run (the plain mean for runs under four
/// seconds): a short stall on a shared host moves it less than a mean
/// over the whole run would.
pub fn windowed_rate(done_s: &[f64], wall_s: f64) -> f64 {
    let windows = wall_s.floor() as usize;
    if windows < 4 {
        return done_s.len() as f64 / wall_s;
    }
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    counts.sort_by(f64::total_cmp);
    let mid = &counts[windows / 4..windows - windows / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency summary: the median and the highest whole percentile
/// (at most p99) that still has at least ten samples beyond it. With
/// fewer than 20 samples no such percentile above the median exists,
/// and the tail falls back to the median.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: u32,
    pub tail: f64,
}

pub fn latency(values: &[f64]) -> Latency {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = median(&v);
    let tail_pct = if n > 10 {
        ((100 * (n - 10)) / n).min(99) as u32
    } else {
        0
    };
    if tail_pct <= 50 {
        return Latency {
            samples: n,
            p50,
            tail_pct: 50,
            tail: p50,
        };
    }
    // Nearest rank: the smallest value with at least `pct`% of the
    // sample at or below it; by the choice of `pct` at least ten
    // samples lie beyond it.
    let rank = (tail_pct as usize * n).div_ceil(100);
    Latency {
        samples: n,
        p50,
        tail_pct,
        tail: v[rank - 1],
    }
}

/// Total size in bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies a directory tree (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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

/// Busy and steal ticks summed over all CPUs since boot, from the first
/// line of `/proc/stat` (zeros where that file does not exist).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let t: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let get = |i: usize| t.get(i).copied().unwrap_or(0);
    // user, nice, system, irq, softirq; steal.
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

/// Times an interval and the share of runnable CPU time the hypervisor
/// gave to other guests meanwhile (`steal` in `/proc/stat`). On a shared
/// VM that share swings from 0 to a third between runs; CPU-bound work
/// slows by exactly `1 / (1 - share)`, so [`Stopwatch::available_s`]
/// reports the time the interval took on the CPU time it was given.
pub struct Stopwatch {
    started: Instant,
    busy: u64,
    steal: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let (busy, steal) = cpu_ticks();
        Stopwatch {
            started: Instant::now(),
            busy,
            steal,
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stolen share of runnable CPU time since [`Stopwatch::start`].
    pub fn steal_share(&self) -> f64 {
        let (busy, steal) = cpu_ticks();
        let busy = busy.saturating_sub(self.busy) as f64;
        let steal = steal.saturating_sub(self.steal) as f64;
        if busy + steal > 0.0 {
            steal / (busy + steal)
        } else {
            0.0
        }
    }

    /// Wall time scaled by the unstolen share: for CPU-bound work, the
    /// time the interval would have taken with no CPU stolen.
    pub fn available_s(&self) -> f64 {
        let wall = self.wall_s();
        wall * (1.0 - self.steal_share())
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Operation accounting shared by every workload: a failed operation is
/// an error reply, an I/O error, a timeout or a wrong answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = latency(&v);
        assert_eq!(l.tail_pct, 99);
        assert_eq!(l.tail, 990.0);
        assert!(v.iter().filter(|&&x| x > l.tail).count() >= 10);

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = latency(&v);
        assert_eq!(l.tail_pct, 95);
        assert_eq!(v.iter().filter(|&&x| x > l.tail).count(), 10);

        let l = latency(&[3.0, 1.0, 2.0]);
        assert_eq!((l.p50, l.tail, l.tail_pct), (2.0, 2.0, 50));
    }

    #[test]
    fn windowed_rate_drops_outlying_windows() {
        // Ten seconds at 10/s, one of them stalled to 0 and one at 30.
        let mut done: Vec<f64> = (0..100).map(|i| f64::from(i) / 10.0).collect();
        done.retain(|t| !(3.0..4.0).contains(t));
        done.extend((0..20).map(|i| 7.0 + f64::from(i) / 40.0));
        assert_eq!(windowed_rate(&done, 10.0), 10.0);
        assert_eq!(windowed_rate(&done[..5], 2.0), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
