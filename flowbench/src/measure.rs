//! Measurement helpers: sample summaries, process memory, the clock's
//! own cost, and the run manifest's environment fields.

use std::hint::black_box;
use std::time::Instant;

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so figures here and in `prove.py` agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Summarises `values`; an empty sample summarises to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                median: x,
                q1: x,
                q3: x,
                samples: n,
            };
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            samples: n,
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Median of the best quarter of a sample (at least one value; 0 when
/// empty): the figure an end-to-end timing reports. On a shared host,
/// interference from other tenants only ever slows a repetition, and
/// it comes in phases of seconds, so the run's median moves with the
/// host while its faster repetitions track the program.
pub fn best_quarter(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    match better {
        Better::Higher => v.sort_by(|a, b| b.total_cmp(a)),
        Better::Lower => v.sort_by(f64::total_cmp),
    }
    median(&v[..v.len().div_ceil(4)])
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MiB.
///
/// # Panics
/// Panics where procfs does not report the field: peak memory is an
/// end-to-end metric, so a host without it cannot run the benchmark.
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads peak memory from /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"));
    kib / 1024.0
}

/// Cost of one empty timed span (`Instant::now()` then `elapsed()`),
/// in nanoseconds: the lowest batch mean, since interference from the
/// host only ever adds to it. The traced adapters take it off every
/// call they measured.
pub fn clock_cost_ns() -> f64 {
    const CALLS: u32 = 10_000;
    (0..15)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..CALLS {
                let t = Instant::now();
                total += black_box(t.elapsed()).as_nanos();
            }
            total as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Worker budget: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Commit the benchmark runs on, read from `.git` in the working
/// directory; `"unknown"` in a checkout that is not a git repository.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn best_quarter_takes_the_median_of_the_best_quarter() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(best_quarter(&v, Better::Higher), 18.0);
        assert_eq!(best_quarter(&v, Better::Lower), 3.0);
        // Fewer than four values: the single best one.
        assert_eq!(best_quarter(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
        assert_eq!(best_quarter(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best_quarter(&[], Better::Lower), 0.0);
    }
}
