//! Statistics for cost estimation.
//!
//! Section 6 lists "an investigation of cost functions and useful
//! statistics for complex object data models" as future work; this module
//! is our concrete take, scoped to what the paper's examples need: per
//! top-level-object cardinalities and duplication factors, per-attribute
//! numbers of distinct values (NDV — the ingredient that lets the cost
//! model credit duplicate elimination, Figures 6–8), average nested
//! collection sizes, predicate selectivities, per-exact-type fractions of
//! heterogeneous sets, and the presence of per-type extent indexes
//! (Section 4: "if we have an index on all the Students in P … the need to
//! scan P three times … disappears").

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Statistics about one named top-level object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStats {
    /// Total occurrences (for arrays: length).
    pub rows: f64,
    /// Distinct elements (`rows / distinct` is the duplication factor).
    pub distinct: f64,
    /// Average size of set/array-valued attributes of the elements.
    pub avg_nested: f64,
    /// Number of distinct values per tuple attribute, when the elements
    /// are tuples and the collector has seen the data.  Empty means
    /// unknown — the cost model then falls back to shape heuristics.
    pub attr_ndv: BTreeMap<String, f64>,
}

impl Default for ObjectStats {
    fn default() -> Self {
        ObjectStats {
            rows: 1000.0,
            distinct: 1000.0,
            avg_nested: 8.0,
            attr_ndv: BTreeMap::new(),
        }
    }
}

/// The statistics catalog handed to the cost model.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    /// Per-object statistics.
    pub objects: HashMap<String, ObjectStats>,
    /// Selectivity assumed for predicates with no better information.
    pub default_selectivity: f64,
    /// Nested-collection size assumed when the object is unknown.
    pub default_avg_nested: f64,
    /// Fraction of a heterogeneous set whose exact type is the named type
    /// (keyed by type name; missing types share the remainder).
    pub type_fractions: HashMap<String, f64>,
    /// Per-exact-type extent indexes (enable the Section 4 index-assisted
    /// ⊎ plan): each indexed object with the exact types it is indexed on.
    /// Keyed so that a probe borrows its names.
    pub extent_indexes: BTreeMap<String, BTreeSet<String>>,
}

impl Statistics {
    /// Reasonable defaults (uniform 10% selectivity, nested size 8).
    pub fn new() -> Self {
        Statistics {
            objects: HashMap::new(),
            default_selectivity: 0.1,
            default_avg_nested: 8.0,
            type_fractions: HashMap::new(),
            extent_indexes: BTreeMap::new(),
        }
    }

    /// Record statistics for an object (per-attribute NDVs unknown; use
    /// [`Statistics::set_attr_ndv`] to add them).
    pub fn set_object(&mut self, name: &str, rows: f64, distinct: f64, avg_nested: f64) {
        let attr_ndv = self
            .objects
            .remove(name)
            .map(|o| o.attr_ndv)
            .unwrap_or_default();
        self.objects.insert(
            name.to_string(),
            ObjectStats {
                rows,
                distinct,
                avg_nested,
                attr_ndv,
            },
        );
    }

    /// Record the number of distinct values of one attribute of an
    /// object's tuple elements.
    pub fn set_attr_ndv(&mut self, name: &str, attr: &str, ndv: f64) {
        self.objects
            .entry(name.to_string())
            .or_default()
            .attr_ndv
            .insert(attr.to_string(), ndv);
    }

    /// Statistics for an object (defaults when unknown).
    pub fn object(&self, name: &str) -> ObjectStats {
        self.objects.get(name).cloned().unwrap_or_default()
    }

    /// Fraction of elements whose exact type is `ty` (default: uniform
    /// among `n_known` types, or 0.34 when nothing is known).
    pub fn type_fraction(&self, ty: &str) -> f64 {
        self.type_fractions.get(ty).copied().unwrap_or(0.34)
    }

    /// Is there an extent index on `(object, ty)`?
    pub fn has_extent_index(&self, object: &str, ty: &str) -> bool {
        self.extent_indexes
            .get(object)
            .is_some_and(|types| types.contains(ty))
    }

    /// Declare an extent index.
    pub fn add_extent_index(&mut self, object: &str, ty: &str) {
        self.extent_indexes
            .entry(object.to_string())
            .or_default()
            .insert(ty.to_string());
    }

    /// Fold an observed cardinality from the feedback loop back into the
    /// statistics for `name`: rows snap to the observation while the
    /// distinct count and every per-attribute NDV rescale proportionally
    /// (floored at 1, capped at the new row count), so duplicate-credit
    /// and equi-join selectivities move with the correction instead of
    /// waiting for a full re-`analyze`.  Returns the previous row
    /// estimate.
    pub fn observe_extent_rows(&mut self, name: &str, actual_rows: f64) -> f64 {
        let entry = self.objects.entry(name.to_string()).or_default();
        let before = entry.rows;
        let actual = actual_rows.max(1.0);
        let scale = actual / entry.rows.max(1.0);
        entry.rows = actual;
        entry.distinct = (entry.distinct * scale).clamp(1.0, actual);
        for ndv in entry.attr_ndv.values_mut() {
            *ndv = (*ndv * scale).clamp(1.0, actual);
        }
        before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Statistics::new();
        assert!(s.default_selectivity > 0.0 && s.default_selectivity < 1.0);
        let o = s.object("nope");
        assert!(o.rows > 0.0);
        assert!(o.attr_ndv.is_empty());
    }

    #[test]
    fn object_stats_round_trip() {
        let mut s = Statistics::new();
        s.set_object("Employees", 5000.0, 4800.0, 12.0);
        assert_eq!(s.object("Employees").rows, 5000.0);
        assert_eq!(s.object("Employees").avg_nested, 12.0);
    }

    #[test]
    fn attr_ndv_round_trip_and_survives_set_object() {
        let mut s = Statistics::new();
        s.set_attr_ndv("S", "dept", 10.0);
        s.set_object("S", 1000.0, 100.0, 8.0);
        s.set_attr_ndv("S", "adv", 25.0);
        let o = s.object("S");
        assert_eq!(o.rows, 1000.0);
        assert_eq!(o.attr_ndv.get("dept"), Some(&10.0));
        assert_eq!(o.attr_ndv.get("adv"), Some(&25.0));
    }

    #[test]
    fn observed_rows_rescale_distinct_and_ndvs() {
        let mut s = Statistics::new();
        s.set_object("E", 24.0, 24.0, 8.0);
        s.set_attr_ndv("E", "ename", 6.0);
        let before = s.observe_extent_rows("E", 240.0);
        assert_eq!(before, 24.0);
        let o = s.object("E");
        assert_eq!(o.rows, 240.0);
        assert_eq!(o.distinct, 240.0);
        assert_eq!(o.attr_ndv.get("ename"), Some(&60.0));
        // Shrinking caps NDVs at the new row count and floors at 1.
        s.observe_extent_rows("E", 2.0);
        let o = s.object("E");
        assert_eq!(o.rows, 2.0);
        assert!(o.distinct >= 1.0 && o.distinct <= 2.0);
        assert!(*o.attr_ndv.get("ename").unwrap() <= 2.0);
        // Unknown objects start from the defaults.
        s.observe_extent_rows("new", 50.0);
        assert_eq!(s.object("new").rows, 50.0);
    }

    #[test]
    fn extent_indexes() {
        let mut s = Statistics::new();
        assert!(!s.has_extent_index("P", "Student"));
        s.add_extent_index("P", "Student");
        assert!(s.has_extent_index("P", "Student"));
    }
}
