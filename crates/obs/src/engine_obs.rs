//! Engine-side observability hooks.

use crate::report::ObsReport;
use crate::timeline::Timeline;

/// Instrumentation state the event-loop engine drives on every dispatch:
/// a per-label dispatch counter plus a timeline of the scheduler's pending
/// event count (queue depth).
///
/// Labels are `&'static str` supplied by the model's `event_label`; a model
/// has a handful of them, so the counters live in a small `Vec` walked
/// linearly — on the hot path that is a few pointer compares, cheaper than
/// any map, and allocation-free once a label has been seen. Reports sort by
/// label, so output order is independent of first-dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineObs {
    dispatch: Vec<(&'static str, u64)>,
    pending: Timeline,
}

impl EngineObs {
    /// Hooks with a pending-depth timeline of the given bucket stride.
    pub fn new(timeline_stride: f64) -> Self {
        EngineObs {
            dispatch: Vec::new(),
            pending: Timeline::new(timeline_stride),
        }
    }

    /// Record one dispatched event: its label, the simulated time, and the
    /// number of events still pending after the dispatch.
    pub fn on_dispatch(&mut self, label: &'static str, t: f64, pending: usize) {
        // Static labels are usually the *same* static string, so the
        // pointer-equality fast path short-circuits the content compare.
        match self
            .dispatch
            .iter_mut()
            .find(|e| std::ptr::eq(e.0.as_ptr(), label.as_ptr()) || e.0 == label)
        {
            Some(e) => e.1 += 1,
            None => self.dispatch.push((label, 1)),
        }
        self.pending.update(t, pending as f64);
    }

    /// Dispatch count for `label` (zero when never seen).
    pub fn dispatch_count(&self, label: &str) -> u64 {
        self.dispatch
            .iter()
            .find(|e| e.0 == label)
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Fold this state into `report`: counters named
    /// `engine.dispatch.<label>` (in sorted label order) plus an
    /// `engine.pending` timeline sealed at `t_end`.
    pub fn report_into(&self, t_end: f64, report: &mut ObsReport) {
        let mut sorted = self.dispatch.clone();
        sorted.sort_unstable_by_key(|e| e.0);
        for (label, count) in sorted {
            report
                .metrics
                .add(&format!("engine.dispatch.{label}"), count);
        }
        report.add_timeline("engine.pending", self.pending.sealed(t_end));
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn counts_per_label_and_reports_with_prefix() {
        let mut obs = EngineObs::new(10.0);
        obs.on_dispatch("slot", 1.0, 3);
        obs.on_dispatch("slot", 2.0, 3);
        obs.on_dispatch("wake", 3.0, 2);
        assert_eq!(obs.dispatch_count("slot"), 2);
        assert_eq!(obs.dispatch_count("wake"), 1);
        assert_eq!(obs.dispatch_count("absent"), 0);

        let mut report = ObsReport::new();
        obs.report_into(5.0, &mut report);
        assert_eq!(report.metrics.counter("engine.dispatch.slot"), 2);
        assert_eq!(report.metrics.counter("engine.dispatch.wake"), 1);
        assert_eq!(report.timelines.len(), 1);
        assert_eq!(report.timelines[0].0, "engine.pending");
        // Pending depth held at 3 from t=1 to t=3, then 2 until seal at 5.
        let pts = report.timelines[0].1.points();
        assert_eq!(pts.len(), 1);
        let (_, mean, max) = pts[0];
        assert!((mean - (3.0 * 2.0 + 2.0 * 2.0) / 4.0).abs() < 1e-12);
        assert_eq!(max, 3.0);
    }
}
