//! Aggregated observability report.

use bpp_json::{Json, ToJson};

use crate::metrics::Metrics;
use crate::timeline::Timeline;
use crate::trace::TraceRing;

/// Everything the observability layer collected over one run: the metric
/// registry, a set of named (sealed) timelines, and the trace ring.
///
/// Serialize-only by design — a report is an *output* of a simulation, never
/// an input. Timelines are stored as
/// an ordered `Vec` of `(name, series)` pairs; producers push them in a
/// fixed order so the JSON is stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Counter / gauge registry.
    pub metrics: Metrics,
    /// Named timeline series, in producer order.
    pub timelines: Vec<(String, Timeline)>,
    /// Structured trace ring (most recent events).
    pub trace: TraceRing,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named timeline series.
    pub fn add_timeline(&mut self, name: &str, series: Timeline) {
        self.timelines.push((name.to_string(), series));
    }
}

impl ToJson for ObsReport {
    fn to_json(&self) -> Json {
        let timelines = Json::Obj(
            self.timelines
                .iter()
                .map(|(name, series)| (name.clone(), series.to_json()))
                .collect(),
        );
        Json::object([
            ("metrics", self.metrics.to_json()),
            ("timelines", timelines),
            ("trace", self.trace.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_serializes_to_stable_shape() {
        let text = bpp_json::to_string(&ObsReport::new());
        assert_eq!(
            text,
            r#"{"metrics":{"counters":{},"gauges":{}},"timelines":{},"trace":{"capacity":0,"dropped":0,"entries":[]}}"#
        );
    }

    #[test]
    fn timelines_keep_producer_order() {
        let mut report = ObsReport::new();
        report.add_timeline("zeta", Timeline::new(1.0));
        report.add_timeline("alpha", Timeline::new(1.0));
        let text = bpp_json::to_string(&report);
        let zeta = text.find("zeta").expect("zeta present");
        let alpha = text.find("alpha").expect("alpha present");
        assert!(zeta < alpha, "producer order preserved, not sorted");
    }
}
