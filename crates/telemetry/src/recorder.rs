//! Flight recorder: a fixed-size ring of the last N query records.
//!
//! Always on and cheap — each record is a small struct of timings and
//! labels, pushed after the query finishes.  When the ring is full the
//! oldest record is evicted (FIFO).  Records whose total latency meets
//! the configurable slow-query threshold are flagged so `.slowlog` can
//! filter to just the outliers.

use excess_core::json::quote_json;
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything worth keeping about one finished query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query text or plan label.
    pub query: String,
    /// FNV-1a hash of the physical plan (0 for non-plan statements).
    pub plan_hash: u64,
    /// Rows (occurrences) returned.
    pub rows: u64,
    /// Per-phase timings in microseconds: `(phase name, µs)`.
    pub phase_us: Vec<(&'static str, u64)>,
    /// Physical kernel choices: `(path, kernel)` in path order, shared
    /// with the plan they were formatted from.
    pub kernels: Arc<[(String, String)]>,
    /// Estimated vs actual output rows at the plan root, when known.
    pub est_rows: Option<f64>,
    /// Actual output rows at the plan root (same as `rows` for plans).
    pub actual_rows: Option<u64>,
}

impl QueryRecord {
    /// Total latency: the sum of the phase timings.
    pub fn total_us(&self) -> u64 {
        self.phase_us.iter().map(|(_, us)| us).sum()
    }

    /// Serialize one record.
    pub fn to_json(&self, slow_threshold_us: u64) -> String {
        let phases: Vec<String> = self
            .phase_us
            .iter()
            .map(|(name, us)| format!("\"{name}\":{us}"))
            .collect();
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(path, k)| format!("{}:{}", quote_json(path), quote_json(k)))
            .collect();
        format!(
            "{{\"query\":{},\"plan_hash\":{},\"rows\":{},\
             \"total_us\":{},\"slow\":{},\"phases\":{{{}}},\"kernels\":{{{}}},\
             \"est_rows\":{},\"actual_rows\":{}}}",
            quote_json(&self.query),
            self.plan_hash,
            self.rows,
            self.total_us(),
            self.total_us() >= slow_threshold_us,
            phases.join(","),
            kernels.join(","),
            self.est_rows
                .map_or("null".to_string(), excess_core::json::number),
            self.actual_rows
                .map_or("null".to_string(), |r| r.to_string())
        )
    }
}

/// Ring buffer of the last `capacity` [`QueryRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<QueryRecord>,
    capacity: usize,
    slow_threshold_us: u64,
    recorded: u64,
}

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 128;

/// Default slow-query threshold: 10 ms.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            slow_threshold_us: DEFAULT_SLOW_THRESHOLD_US,
            recorded: 0,
        }
    }

    /// Change the slow-query threshold (microseconds).
    pub fn set_slow_threshold_us(&mut self, us: u64) {
        self.slow_threshold_us = us;
    }

    /// Current slow-query threshold (microseconds).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push a record, evicting the oldest when full.
    pub fn record(&mut self, r: QueryRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(r);
        self.recorded += 1;
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.ring.iter()
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records at or above the slow threshold, oldest first.
    pub fn slow(&self) -> impl Iterator<Item = &QueryRecord> {
        self.ring
            .iter()
            .filter(move |r| r.total_us() >= self.slow_threshold_us)
    }

    /// `{"capacity":…,"recorded":…,"slow_threshold_us":…,"records":[…]}`.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self
            .ring
            .iter()
            .map(|r| r.to_json(self.slow_threshold_us))
            .collect();
        format!(
            "{{\"capacity\":{},\"recorded\":{},\"slow_threshold_us\":{},\"records\":[{}]}}",
            self.capacity,
            self.recorded,
            self.slow_threshold_us,
            records.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(query: &str, us: u64) -> QueryRecord {
        QueryRecord {
            query: query.into(),
            plan_hash: 1,
            rows: 3,
            phase_us: vec![("parse", us / 2), ("execute", us - us / 2)],
            kernels: Arc::new([("root".into(), "scan".into())]),
            est_rows: Some(4.0),
            actual_rows: Some(3),
        }
    }

    #[test]
    fn ring_evicts_fifo_at_capacity() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(rec(&format!("q{i}"), 10));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded(), 5);
        let names: Vec<&str> = fr.records().map(|r| r.query.as_str()).collect();
        assert_eq!(names, ["q2", "q3", "q4"], "oldest evicted first");
    }

    #[test]
    fn slow_filter_respects_threshold() {
        let mut fr = FlightRecorder::new(8);
        fr.set_slow_threshold_us(100);
        fr.record(rec("fast", 50));
        fr.record(rec("slow", 150));
        let slow: Vec<&str> = fr.slow().map(|r| r.query.as_str()).collect();
        assert_eq!(slow, ["slow"]);
    }

    #[test]
    fn total_is_sum_of_phases() {
        assert_eq!(rec("q", 101).total_us(), 101);
    }

    #[test]
    fn json_parses_and_marks_slow_records() {
        let mut fr = FlightRecorder::new(2);
        fr.set_slow_threshold_us(100);
        fr.record(rec("slow one", 200));
        let v = excess_core::json::parse_json(&fr.to_json()).unwrap();
        assert_eq!(v.get("capacity").unwrap().as_f64(), Some(2.0));
        let records = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("slow").unwrap().as_bool(), Some(true));
        assert_eq!(
            records[0]
                .get("phases")
                .unwrap()
                .get("parse")
                .unwrap()
                .as_f64(),
            Some(100.0)
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut fr = FlightRecorder::new(0);
        fr.record(rec("a", 1));
        fr.record(rec("b", 1));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.records().next().unwrap().query, "b");
    }
}
