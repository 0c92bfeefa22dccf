//! A registry of named counters, gauges, and latency histograms.
//!
//! The always-on half of the telemetry layer: incrementing a counter is a
//! `BTreeMap` lookup plus an add — a name is copied only the first time it
//! is seen — cheap enough to leave enabled on every query.  Names are dotted paths by convention (`plan_cache.hit`,
//! `phase.execute_us`); iteration order is the map's, so snapshots are
//! deterministic and diff cleanly.

use crate::histogram::Histogram;
use excess_core::json::quote_json;
use std::collections::BTreeMap;

/// Named counters (monotone `u64`), gauges (last-write `f64`), and
/// log-bucketed [`Histogram`]s.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(counter) => *counter += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Increment the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one observation into the named histogram (created empty on
    /// first use).
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(value),
        }
    }

    /// The named histogram, if any observation was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold another registry into this one: counters add, histograms
    /// merge bucket-wise ([`Histogram::merge`]), gauges take the other
    /// side's value (last-write semantics, matching
    /// [`Registry::set_gauge`]).  This is how per-session registries
    /// collapse into the server-wide registry when a session closes.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// `{"counters":{…},"gauges":{…},"histograms":{…}}` — deterministic
    /// name order.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote_json(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", quote_json(k), excess_core::json::number(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("{}:{}", quote_json(k), h.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("queries"), 0);
        r.inc("queries");
        r.add("queries", 2);
        assert_eq!(r.counter("queries"), 3);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("threads"), None);
        r.set_gauge("threads", 4.0);
        r.set_gauge("threads", 2.0);
        assert_eq!(r.gauge("threads"), Some(2.0));
    }

    #[test]
    fn histograms_are_created_on_first_observation() {
        let mut r = Registry::new();
        assert!(r.histogram("query_us").is_none());
        r.observe("query_us", 10);
        r.observe("query_us", 20);
        assert_eq!(r.histogram("query_us").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_parses_with_all_three_sections() {
        let mut r = Registry::new();
        r.inc("queries");
        r.set_gauge("threads", 1.0);
        r.observe("query_us", 100);
        let v = excess_core::json::parse_json(&r.to_json()).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("queries").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(v.get("gauges").unwrap().get("threads").is_some());
        let h = v.get("histograms").unwrap().get("query_us").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_overwrites_gauges() {
        let mut a = Registry::new();
        a.inc("queries");
        a.set_gauge("threads", 1.0);
        a.observe("query_us", 10);
        let mut b = Registry::new();
        b.add("queries", 2);
        b.inc("commits");
        b.set_gauge("threads", 4.0);
        b.observe("query_us", 20);
        b.observe("commit_us", 5);
        a.merge(&b);
        assert_eq!(a.counter("queries"), 3);
        assert_eq!(a.counter("commits"), 1);
        assert_eq!(a.gauge("threads"), Some(4.0));
        assert_eq!(a.histogram("query_us").unwrap().count(), 2);
        assert_eq!(a.histogram("commit_us").unwrap().count(), 1);
    }
}
