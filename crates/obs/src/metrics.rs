//! Named counter / gauge registry with deterministic serialization.

use std::collections::BTreeMap;

use bpp_json::{Json, ToJson};

/// Wiring-time handle for one counter: a dense index into the registry's
/// value table, obtained once from [`Metrics::counter_handle`] and then
/// bumped with [`Metrics::inc_handle`] at a cost of one bounds-checked
/// array add — no string hashing or tree walk on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// A registry of monotonically increasing counters and last-value gauges.
///
/// Keys are plain dotted strings (`"server.push_slots"`). Counter values
/// live in a dense `Vec<u64>` indexed by interned [`CounterHandle`]s; a
/// `BTreeMap` maps each name to its slot, so iteration — and therefore
/// JSON output — is in sorted key order, independent of insertion order.
/// Hot paths intern a handle once at wiring time and index the value table
/// directly; the by-name [`Metrics::inc`] / [`Metrics::add`] convenience
/// entry points pay the map lookup each call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Dense counter value table, indexed by [`CounterHandle`].
    values: Vec<u64>,
    /// Name → value-table slot; the sorted iteration order for reports.
    by_name: BTreeMap<String, usize>,
    gauges: BTreeMap<String, f64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, creating its counter at zero on first sight, and
    /// return the handle for O(1) increments. Interning the same name
    /// twice returns the same handle.
    pub fn counter_handle(&mut self, name: &str) -> CounterHandle {
        if let Some(&slot) = self.by_name.get(name) {
            return CounterHandle(slot);
        }
        let slot = self.values.len();
        self.values.push(0);
        self.by_name.insert(name.to_string(), slot);
        CounterHandle(slot)
    }

    /// Increment the counter behind `handle` by one.
    pub fn inc_handle(&mut self, handle: CounterHandle) {
        self.values[handle.0] += 1;
    }

    /// Increment counter `name` by one (creating it at zero first).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `by` (creating it at zero first).
    pub fn add(&mut self, name: &str, by: u64) {
        let handle = self.counter_handle(name);
        self.values[handle.0] += by;
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.by_name
            .get(name)
            .map(|&slot| self.values[slot])
            .unwrap_or(0)
    }

    /// Current value of gauge `name`, if it has been set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// True when no counter or gauge has ever been written (interning a
    /// handle counts as a write, like the old `add(name, 0)`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty() && self.gauges.is_empty()
    }

    /// Iterate counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.by_name
            .iter()
            .map(|(k, &slot)| (k.as_str(), self.values[slot]))
    }

    /// Iterate gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::object([("counters", counters), ("gauges", gauges)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn handles_index_the_same_counter_as_the_name() {
        let mut m = Metrics::new();
        let h = m.counter_handle("hot.path");
        assert_eq!(m.counter("hot.path"), 0, "interning creates at zero");
        m.inc_handle(h);
        m.inc("hot.path");
        assert_eq!(m.counter("hot.path"), 2);
        let h2 = m.counter_handle("hot.path");
        assert_eq!(h, h2, "re-interning returns the same slot");
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let mut m = Metrics::new();
        assert_eq!(m.gauge_value("g"), None);
        m.gauge("g", 1.5);
        m.gauge("g", -2.0);
        assert_eq!(m.gauge_value("g"), Some(-2.0));
    }

    #[test]
    fn json_is_sorted_by_key_regardless_of_insertion_order() {
        let mut m = Metrics::new();
        m.inc("zeta");
        m.inc("alpha");
        m.gauge("mid", 0.25);
        let text = bpp_json::to_string(&m);
        assert_eq!(
            text,
            r#"{"counters":{"alpha":1,"zeta":1},"gauges":{"mid":0.25}}"#
        );
    }

    #[test]
    fn iterators_walk_sorted_keys() {
        let mut m = Metrics::new();
        m.inc("b");
        m.inc("a");
        m.gauge("g", 1.0);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(m.gauges().next(), Some(("g", 1.0)));
    }

    #[test]
    fn is_empty_reflects_any_write() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.gauge("g", 0.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn interning_alone_registers_the_counter() {
        let mut m = Metrics::new();
        m.counter_handle("wired.but.quiet");
        assert!(!m.is_empty());
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, ["wired.but.quiet"]);
    }
}
