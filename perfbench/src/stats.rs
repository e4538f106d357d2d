//! Sample summaries, the output digest, and process probes read from
//! `/proc/self`.

use std::time::Instant;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order). Quantiles interpolate linearly
    /// between order statistics; an empty slice yields all zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if s.is_empty() {
                return 0.0;
            }
            let pos = p * (s.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Summary {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
            p90: q(0.9),
            max: s.last().copied().unwrap_or(0.0),
            n: s.len(),
        }
    }

    /// Every statistic multiplied by `by`, to change the unit.
    pub fn scaled(self, by: f64) -> Summary {
        Summary {
            median: self.median * by,
            q1: self.q1 * by,
            q3: self.q3 * by,
            p90: self.p90 * by,
            max: self.max * by,
            n: self.n,
        }
    }
}

/// Time `op` over `samples` batches of `batch` calls each and summarise
/// the per-call cost in nanoseconds. One untimed batch runs first so
/// caches, allocations and lazily-built state are warm.
pub fn per_op_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> Summary {
    for _ in 0..batch {
        op();
    }
    let per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    Summary::of(&per_op)
}

/// FNV-1a, 64-bit: the digest printed for each workload's result JSON, so
/// a speed-only change can show that it left the output byte-identical.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
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

/// CPU time (user + system, all threads) this process has used, in
/// seconds, or 0 when `/proc` is unavailable. Assumes the usual 100 Hz
/// clock tick.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Worker threads the experiment layer fans out to (`par_run` uses the
/// same call).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_interpolates_order_statistics() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
