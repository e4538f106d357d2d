//! Time-weighted series with bounded, self-downsampling buckets.

use bpp_json::{Json, ToJson};

/// Default bucket budget for a [`Timeline`]; past this the series merges
/// adjacent buckets and doubles its stride, so memory stays O(1) in run
/// length while resolution degrades by at most 2x per doubling.
pub const DEFAULT_MAX_BUCKETS: usize = 512;

/// One fixed-width bucket of a [`Timeline`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    /// Integral of the held value over the covered span.
    weighted_sum: f64,
    /// Total simulated time covered inside this bucket.
    span: f64,
    /// Maximum value held at any point inside this bucket.
    max: f64,
}

/// A step-function series sampled against simulated time.
///
/// `update(t, v)` records that the observed quantity becomes `v` at time
/// `t`; the previous value is credited for the interval since the previous
/// update, split across fixed-stride buckets. When an update lands past the
/// bucket budget the series *downsamples*: adjacent buckets merge and the
/// stride doubles, repeatedly, until the new time fits. Reports therefore
/// stay small no matter how long the simulation runs.
///
/// A value held for zero simulated time contributes nothing (neither weight
/// nor max) — the series describes what the quantity *was over time*, not
/// which instantaneous values were ever assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    stride: f64,
    max_buckets: usize,
    buckets: Vec<Bucket>,
    last_time: f64,
    last_value: f64,
    primed: bool,
}

impl Timeline {
    /// A series with the given initial bucket stride (simulated seconds)
    /// and the default bucket budget.
    ///
    /// # Panics
    /// Panics unless `stride` is finite and positive — a zero or negative
    /// stride would make every bucket index meaningless.
    pub fn new(stride: f64) -> Self {
        Self::with_max_buckets(stride, DEFAULT_MAX_BUCKETS)
    }

    /// A series with an explicit bucket budget (mostly for tests).
    ///
    /// # Panics
    /// Panics unless `stride` is finite and positive and `max_buckets` is
    /// at least 2 (downsampling merges pairs, so one bucket cannot shrink).
    pub fn with_max_buckets(stride: f64, max_buckets: usize) -> Self {
        assert!(
            stride.is_finite() && stride > 0.0,
            "timeline stride must be finite and positive"
        );
        assert!(max_buckets >= 2, "timeline needs at least two buckets");
        Timeline {
            stride,
            max_buckets,
            buckets: Vec::new(),
            last_time: 0.0,
            last_value: 0.0,
            primed: false,
        }
    }

    /// Record that the observed value becomes `v` at simulated time `t`.
    ///
    /// # Panics
    /// Panics when `t` is non-finite, negative, or moves backwards — a
    /// backwards sample would credit a negative span and silently corrupt
    /// every bucket after it.
    pub fn update(&mut self, t: f64, v: f64) {
        assert!(
            t.is_finite() && t >= 0.0,
            "timeline time must be finite and non-negative"
        );
        if !self.primed {
            self.primed = true;
            self.last_time = t;
            self.last_value = v;
            return;
        }
        assert!(t >= self.last_time, "timeline time must be monotone");
        let (t0, value) = (self.last_time, self.last_value);
        self.accumulate(t0, t, value);
        self.last_time = t;
        self.last_value = v;
    }

    /// Current bucket stride (doubles on every downsampling pass).
    pub fn stride(&self) -> f64 {
        self.stride
    }

    /// A copy with the currently-held value credited up to `t_end`, ready
    /// for reporting. The original keeps accumulating unchanged.
    ///
    /// # Panics
    /// Panics when `t_end` precedes the last recorded update.
    pub fn sealed(&self, t_end: f64) -> Timeline {
        let mut out = self.clone();
        if out.primed && t_end > out.last_time {
            let v = out.last_value;
            out.update(t_end, v);
        }
        out
    }

    /// Time integral of the series: the sum over every credited interval
    /// of its value times its length (seal it first to include the tail).
    pub fn integral(&self) -> f64 {
        self.buckets.iter().map(|b| b.weighted_sum).sum()
    }

    /// The non-empty buckets as `(bucket_start, time_weighted_mean, max)`.
    pub fn points(&self) -> Vec<(f64, f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.span > 0.0)
            .map(|(i, b)| (i as f64 * self.stride, b.weighted_sum / b.span, b.max))
            .collect()
    }

    /// Credit `value` over the interval `[t0, t1)`, splitting across
    /// buckets and downsampling first if `t1` lands past the budget.
    fn accumulate(&mut self, mut t0: f64, t1: f64, value: f64) {
        if t1 <= t0 {
            return;
        }
        while t1 >= self.stride * self.max_buckets as f64 {
            self.downsample();
        }
        while t0 < t1 {
            let idx = ((t0 / self.stride) as usize).min(self.max_buckets - 1);
            if self.buckets.len() <= idx {
                self.buckets.resize(idx + 1, Bucket::default());
            }
            let bucket_end = (idx as f64 + 1.0) * self.stride;
            let seg_end = if bucket_end < t1 { bucket_end } else { t1 };
            let b = &mut self.buckets[idx];
            b.weighted_sum += value * (seg_end - t0);
            b.span += seg_end - t0;
            b.max = b.max.max(value);
            if seg_end <= t0 {
                break;
            }
            t0 = seg_end;
        }
    }

    /// Merge adjacent bucket pairs and double the stride.
    fn downsample(&mut self) {
        let mut merged = Vec::with_capacity(self.buckets.len().div_ceil(2));
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.weighted_sum += second.weighted_sum;
                b.span += second.span;
                b.max = b.max.max(second.max);
            }
            merged.push(b);
        }
        self.buckets = merged;
        self.stride *= 2.0;
    }
}

impl ToJson for Timeline {
    fn to_json(&self) -> Json {
        let points: Vec<Json> = self
            .points()
            .into_iter()
            .map(|(t, mean, max)| {
                Json::object([
                    ("t", t.to_json()),
                    ("mean", mean.to_json()),
                    ("max", max.to_json()),
                ])
            })
            .collect();
        Json::object([
            ("stride", self.stride.to_json()),
            ("points", Json::Arr(points)),
        ])
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn integral_survives_downsampling_and_sealing() {
        let mut tl = Timeline::with_max_buckets(1.0, 2);
        tl.update(0.0, 2.0);
        tl.update(3.0, 5.0); // 2.0 held for 3s, then two merges
        assert_eq!(tl.integral(), 6.0);
        assert_eq!(tl.sealed(4.5).integral(), 13.5);
        assert_eq!(tl.integral(), 6.0, "sealing leaves the original alone");
    }

    #[test]
    fn single_bucket_mean_is_time_weighted() {
        let mut tl = Timeline::new(10.0);
        tl.update(0.0, 2.0);
        tl.update(4.0, 6.0); // 2.0 held for 4s
        tl.update(8.0, 6.0); // 6.0 held for 4s
        let pts = tl.points();
        assert_eq!(pts.len(), 1);
        let (start, mean, max) = pts[0];
        assert_eq!(start, 0.0);
        assert!((mean - 4.0).abs() < 1e-12);
        assert_eq!(max, 6.0);
    }

    #[test]
    fn segments_split_across_bucket_boundaries() {
        let mut tl = Timeline::new(1.0);
        tl.update(0.5, 3.0);
        tl.update(2.5, 3.0); // spans buckets 0, 1, 2
        let pts = tl.points();
        assert_eq!(pts.len(), 3);
        for (_, mean, max) in pts {
            assert!((mean - 3.0).abs() < 1e-12);
            assert_eq!(max, 3.0);
        }
    }

    #[test]
    fn downsampling_doubles_stride_and_preserves_total_weight() {
        let mut tl = Timeline::with_max_buckets(1.0, 4);
        tl.update(0.0, 1.0);
        tl.update(16.0, 1.0); // needs 16 buckets of stride 1 -> two doublings
        assert!(tl.stride() >= 4.0);
        let total_weight: f64 = tl
            .points()
            .iter()
            .map(|(_, mean, _)| mean * tl.stride())
            .sum();
        assert!((total_weight - 16.0).abs() < 1e-9);
    }

    #[test]
    fn sealed_credits_the_open_segment_without_mutating() {
        let mut tl = Timeline::new(100.0);
        tl.update(0.0, 5.0);
        assert!(tl.points().is_empty());
        let sealed = tl.sealed(50.0);
        let pts = sealed.points();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - 5.0).abs() < 1e-12);
        // Original unchanged: still no closed segment.
        assert!(tl.points().is_empty());
    }

    #[test]
    fn zero_width_update_contributes_nothing() {
        let mut tl = Timeline::new(1.0);
        tl.update(0.5, 100.0);
        tl.update(0.5, 1.0); // 100.0 held for zero time
        tl.update(1.0, 1.0);
        let pts = tl.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].2, 1.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn backwards_time_panics() {
        let mut tl = Timeline::new(1.0);
        tl.update(2.0, 1.0);
        tl.update(1.0, 1.0);
    }

    #[test]
    fn json_shape_is_stride_plus_points() {
        let mut tl = Timeline::new(2.0);
        tl.update(0.0, 1.0);
        tl.update(2.0, 1.0);
        let text = bpp_json::to_string(&tl);
        assert_eq!(
            text,
            r#"{"stride":2.0,"points":[{"t":0.0,"mean":1.0,"max":1.0}]}"#
        );
    }
}
