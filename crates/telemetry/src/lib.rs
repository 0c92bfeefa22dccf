//! Unified telemetry for the EXCESS engine.
//!
//! Four pieces, layered from always-on to opt-in:
//!
//! * [`Registry`] — named counters, gauges, and log-bucketed latency
//!   [`Histogram`]s with exact counts and p50/p95/p99 quantiles.  Cheap
//!   enough to run on every query.
//! * [`FlightRecorder`] — a fixed ring of the last N [`QueryRecord`]s
//!   (query text, plan hash, engine, per-phase timings, kernel choices,
//!   est-vs-actual rows) with a configurable slow-query threshold.
//! * [`FeedbackLog`] — per-plan-node est-vs-actual cardinality error
//!   accumulated from `explain analyze`, quantified as q-error; the
//!   input for future feedback-driven re-optimization.
//! * [`Span`] / [`QueryTrace`] — opt-in structured span trees covering
//!   every layer of a query's life (parse → infer → verify → optimize →
//!   lower → execute, with per-rewrite, per-choice, per-operator and
//!   per-worker children), exportable as nested JSON or Chrome
//!   trace-event format.
//!
//! The crate depends only on `excess-core` (for the JSON helpers and
//!   counter field names), so every other crate can use it without
//!   cycles.  The [`Telemetry`] struct bundles all four for embedding in
//!   the database.
//!
//! # Example
//!
//! ```
//! use excess_telemetry::Registry;
//!
//! let mut reg = Registry::new();
//! reg.inc("queries");
//! reg.add("rows_out", 42);
//! reg.observe("latency_us", 90);
//! reg.observe("latency_us", 1800);
//!
//! assert_eq!(reg.counter("queries"), 1);
//! let lat = reg.histogram("latency_us").unwrap();
//! assert_eq!(lat.count(), 2);
//! assert!(lat.quantile(0.99) >= lat.quantile(0.50));
//! ```

#![forbid(unsafe_code)]

pub mod feedback;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod span;

pub use feedback::{q_error, FeedbackEntry, FeedbackLog};
pub use histogram::{bucket_bound, Histogram, BUCKETS};
pub use recorder::{
    FlightRecorder, QueryRecord, RecorderSettings, DEFAULT_CAPACITY, DEFAULT_SLOW_THRESHOLD_US,
    RECORDER_CAP_ENV, SLOW_MS_ENV,
};
pub use registry::Registry;
pub use span::{QueryTrace, Span};

/// FNV-1a 64-bit hash state — used to fingerprint plans cheaply and
/// deterministically (no `DefaultHasher`, whose output is unspecified
/// across releases).  It is a [`std::fmt::Write`] sink, so a `Debug` or
/// `Display` rendering can be hashed as it is produced, without the
/// `String`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf29ce484222325)
    }
}

impl Fnv1a64 {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.update(bytes);
    h.finish()
}

/// Everything the database embeds: the always-on registry, recorder,
/// and feedback log, plus the opt-in span switch and the last trace it
/// produced.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Always-on counters/gauges/histograms.
    pub registry: Registry,
    /// Always-on ring of recent query records.
    pub recorder: FlightRecorder,
    /// Misestimation history from `explain analyze` and traced runs.
    pub feedback: FeedbackLog,
    /// When true, queries assemble full [`QueryTrace`] span trees.
    pub spans_enabled: bool,
    /// The most recent trace (only populated while spans are enabled).
    pub last_trace: Option<QueryTrace>,
}

impl Telemetry {
    /// Fresh telemetry with default recorder capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// One JSON document with every always-on section:
    /// `{"registry":…,"recorder":…,"feedback":…}`.
    pub fn snapshot_json(&self) -> String {
        format!(
            "{{\"registry\":{},\"recorder\":{},\"feedback\":{}}}",
            self.registry.to_json(),
            self.recorder.to_json(),
            self.feedback.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streamed_rendering_hashes_like_the_rendered_string() {
        use std::fmt::Write;
        let value = (vec![Some("plan"), None], 0.5, 'é');
        let mut h = Fnv1a64::default();
        write!(h, "{value:?}").unwrap();
        assert_eq!(h.finish(), fnv1a64(format!("{value:?}").as_bytes()));
    }

    #[test]
    fn fnv1a64_is_deterministic_and_input_sensitive() {
        assert_eq!(fnv1a64(b"plan"), fnv1a64(b"plan"));
        assert_ne!(fnv1a64(b"plan"), fnv1a64(b"plan2"));
    }

    #[test]
    fn snapshot_parses_with_all_sections() {
        let mut t = Telemetry::new();
        t.registry.inc("queries");
        t.feedback.observe(1, "root", "DE", None, 2.0, 4.0);
        let v = excess_core::json::parse_json(&t.snapshot_json()).unwrap();
        assert!(v.get("registry").is_some());
        assert!(v.get("recorder").is_some());
        assert_eq!(
            v.get("feedback")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            1
        );
    }
}
