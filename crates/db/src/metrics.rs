//! Cumulative per-session query metrics.
//!
//! Every evaluation (`run_plan`, `run_lowered`, a pipeline query) and
//! every journaled optimization folds into one [`SessionMetrics`]
//! registry hung off the
//! [`Database`](crate::Database), so a session — a REPL, a benchmark
//! binary, a test — can ask "how much work happened here, and which
//! rewrite rules earned their keep" without instrumenting call sites.

use excess_core::counters::Counters;
use excess_optimizer::RewriteJournal;
use std::collections::BTreeMap;
use std::time::Duration;

/// Cumulative counters for one database session.
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// Plans evaluated (`run_plan`, `run_lowered`, and pipeline queries).
    pub queries: u64,
    /// Queries that ran through the serial evaluator.
    pub serial_queries: u64,
    /// Queries that ran through the partition-parallel engine.
    pub parallel_queries: u64,
    /// Worker count of the most recent parallel execution (0 until one
    /// runs).
    pub workers: usize,
    /// Journaled optimization runs.
    pub optimizations: u64,
    /// Accepted rewrite steps across all journaled optimizations.
    pub rewrites_applied: u64,
    /// Rewrites the soundness gate refused across all journaled
    /// optimizations.
    pub rewrites_refused: u64,
    /// Neighbor plans enumerated across all journaled optimizations.
    pub plans_enumerated: u64,
    /// Times each rewrite rule fired (accepted steps only).
    pub rules_fired: BTreeMap<String, u64>,
    /// Total estimated cost removed by optimization (Σ initial − final).
    pub cost_removed: f64,
    /// Work counters summed over every evaluation.
    pub counters: Counters,
    /// Wall time summed over every evaluation.
    pub eval_wall: Duration,
    /// Configuration warnings surfaced during the session (bad
    /// `EXCESS_THREADS` values, `set_threads(0)` clamps, …), in order.
    pub warnings: Vec<String>,
}

impl SessionMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one (serial) evaluation into the session totals.
    pub fn record_query(&mut self, counters: Counters, wall: Duration) {
        self.record_query_mode(counters, wall, 1);
    }

    /// Fold one evaluation into the session totals, recording whether it
    /// ran serially (`workers <= 1`) or through the parallel engine.
    pub fn record_query_mode(&mut self, counters: Counters, wall: Duration, workers: usize) {
        self.queries += 1;
        self.counters += counters;
        self.eval_wall += wall;
        if workers > 1 {
            self.parallel_queries += 1;
            self.workers = workers;
        } else {
            self.serial_queries += 1;
        }
    }

    /// Fold one journaled optimization run into the session totals.
    pub fn record_journal(&mut self, journal: &RewriteJournal) {
        self.optimizations += 1;
        self.rewrites_applied += journal.steps.len() as u64;
        self.rewrites_refused += journal.refused.len() as u64;
        self.plans_enumerated += journal.plans_enumerated as u64;
        self.cost_removed += journal.initial_cost - journal.final_cost;
        for step in &journal.steps {
            *self.rules_fired.entry(step.rule.to_string()).or_insert(0) += 1;
        }
    }

    /// Record a configuration warning (also counts as session state — the
    /// JSON snapshot and the REPL's `.metrics` both render these).
    pub fn record_warning(&mut self, warning: impl Into<String>) {
        self.warnings.push(warning.into());
    }

    /// Fold another registry into this one — how a closing
    /// [`Session`](crate::session::Session)'s per-connection metrics merge
    /// into the database-wide totals.  Counts and counters add; `workers`
    /// takes the other side's value when it ever ran parallel (most-recent
    /// semantics); warnings append in order.
    pub fn merge(&mut self, other: &SessionMetrics) {
        self.queries += other.queries;
        self.serial_queries += other.serial_queries;
        self.parallel_queries += other.parallel_queries;
        if other.workers > 0 {
            self.workers = other.workers;
        }
        self.optimizations += other.optimizations;
        self.rewrites_applied += other.rewrites_applied;
        self.rewrites_refused += other.rewrites_refused;
        self.plans_enumerated += other.plans_enumerated;
        self.cost_removed += other.cost_removed;
        for (rule, n) in &other.rules_fired {
            *self.rules_fired.entry(rule.clone()).or_insert(0) += n;
        }
        self.counters += other.counters;
        self.eval_wall += other.eval_wall;
        self.warnings.extend(other.warnings.iter().cloned());
    }

    /// Zero everything.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl std::fmt::Display for SessionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries: {} ({:.1} ms total eval time)",
            self.queries,
            self.eval_wall.as_secs_f64() * 1e3
        )?;
        writeln!(f, "work:    {}", self.counters)?;
        if self.parallel_queries > 0 {
            writeln!(
                f,
                "execution: {} serial, {} parallel ({} workers)",
                self.serial_queries, self.parallel_queries, self.workers
            )?;
        }
        writeln!(
            f,
            "optimizer: {} runs, {} rewrites accepted, {} refused, {} plans enumerated, est. cost removed {:.0}",
            self.optimizations,
            self.rewrites_applied,
            self.rewrites_refused,
            self.plans_enumerated,
            self.cost_removed
        )?;
        if !self.warnings.is_empty() {
            writeln!(f, "warnings:")?;
            for w in &self.warnings {
                writeln!(f, "  ! {w}")?;
            }
        }
        if !self.rules_fired.is_empty() {
            // Most-fired first; name breaks ties for determinism.
            let mut by_count: Vec<(&String, &u64)> = self.rules_fired.iter().collect();
            by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            writeln!(f, "rules fired:")?;
            for (rule, n) in by_count {
                writeln!(f, "  {n:>4} × {rule}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_query_accumulates() {
        let mut m = SessionMetrics::new();
        let c = Counters {
            derefs: 3,
            ..Counters::new()
        };
        m.record_query(c, Duration::from_millis(2));
        m.record_query(c, Duration::from_millis(3));
        assert_eq!(m.queries, 2);
        assert_eq!(m.counters.derefs, 6);
        assert_eq!(m.eval_wall, Duration::from_millis(5));
    }

    #[test]
    fn record_query_mode_splits_serial_and_parallel() {
        let mut m = SessionMetrics::new();
        m.record_query(Counters::new(), Duration::ZERO);
        m.record_query_mode(Counters::new(), Duration::ZERO, 4);
        assert_eq!(m.queries, 2);
        assert_eq!(m.serial_queries, 1);
        assert_eq!(m.parallel_queries, 1);
        assert_eq!(m.workers, 4);
        let s = m.to_string();
        assert!(
            s.contains("execution: 1 serial, 1 parallel (4 workers)"),
            "{s}"
        );
    }

    #[test]
    fn merge_adds_counts_and_rule_tallies() {
        let mut a = SessionMetrics::new();
        a.record_query(Counters::new(), Duration::from_millis(1));
        *a.rules_fired.entry("rule8".into()).or_insert(0) += 2;
        let mut b = SessionMetrics::new();
        b.record_query_mode(Counters::new(), Duration::from_millis(2), 4);
        *b.rules_fired.entry("rule8".into()).or_insert(0) += 1;
        *b.rules_fired.entry("rel5".into()).or_insert(0) += 1;
        b.record_warning("w1");
        a.merge(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.serial_queries, 1);
        assert_eq!(a.parallel_queries, 1);
        assert_eq!(a.workers, 4);
        assert_eq!(a.rules_fired["rule8"], 3);
        assert_eq!(a.rules_fired["rel5"], 1);
        assert_eq!(a.eval_wall, Duration::from_millis(3));
        assert_eq!(a.warnings, vec!["w1".to_string()]);
    }

    #[test]
    fn display_mentions_queries_and_work() {
        let mut m = SessionMetrics::new();
        m.record_query(Counters::new(), Duration::ZERO);
        let s = m.to_string();
        assert!(s.contains("queries: 1"), "{s}");
        assert!(s.contains("optimizer: 0 runs"), "{s}");
    }
}
