//! Statistics collection: the concrete realisation of the paper's
//! Section 6 future work ("an investigation of cost functions and useful
//! statistics for complex object data models").
//!
//! For every named top-level object we record total and distinct
//! cardinalities, the average size of nested collection attributes
//! (following references one level, since the dominant EXTRA idiom is
//! `{ ref T }` sets), and — when the elements are tuples — the number of
//! distinct values of each attribute (NDV).  The NDVs are what let the
//! cost model credit duplicate elimination and derive equi-join
//! selectivities, i.e. reproduce the paper's Figure 6→8 reasoning from
//! data rather than hints.  Globally we record the fraction of set
//! elements per exact type, which prices the Section 4 type-filtered
//! scans.

use crate::catalog::DbCatalog;
use excess_core::eval::exact_type_of_parts;
use excess_optimizer::Statistics;
use excess_types::{ObjectStore, TypeRegistry, Value};
use std::collections::{HashMap, HashSet};

/// Compute fresh statistics from the current database state.
pub fn collect_statistics(
    catalog: &DbCatalog,
    registry: &TypeRegistry,
    store: &ObjectStore,
) -> Statistics {
    let mut stats = Statistics::new();
    let mut type_counts: HashMap<String, u64> = HashMap::new();
    let mut total_elems = 0u64;

    for name in catalog.names() {
        let Some(value) = catalog.value(name) else {
            continue;
        };
        let mut attr_values: HashMap<&str, HashSet<&Value>> = HashMap::new();
        let (rows, distinct, nested_sizes) = match value {
            Value::Set(s) => {
                let mut nested = Vec::new();
                for (e, card) in s.iter_counted() {
                    nested.extend(nested_collection_sizes(e, store));
                    record_attr_values(e, store, &mut attr_values);
                    if let Some(ty) = exact_type_of_parts(e, registry, store) {
                        *type_counts
                            .entry(registry.name_of(ty).to_string())
                            .or_insert(0) += card;
                    }
                    total_elems += card;
                }
                (s.len() as f64, s.distinct_len() as f64, nested)
            }
            Value::Array(a) => {
                let nested = a
                    .iter()
                    .inspect(|e| record_attr_values(e, store, &mut attr_values))
                    .flat_map(|e| nested_collection_sizes(e, store))
                    .collect();
                (a.len() as f64, a.len() as f64, nested)
            }
            _ => (1.0, 1.0, Vec::new()),
        };
        let avg_nested = if nested_sizes.is_empty() {
            stats.default_avg_nested
        } else {
            nested_sizes.iter().sum::<f64>() / nested_sizes.len() as f64
        };
        stats.set_object(name, rows.max(1.0), distinct.max(1.0), avg_nested);
        for (attr, values) in attr_values {
            stats.set_attr_ndv(name, attr, values.len() as f64);
        }
    }

    if total_elems > 0 {
        for (ty, n) in type_counts {
            stats
                .type_fractions
                .insert(ty, n as f64 / total_elems as f64);
        }
    }
    stats
}

/// Recompute the statistics for one named object in place — the
/// incremental refresh the committer and the mutation paths use instead
/// of a full [`collect_statistics`] sweep.  The object's entry (rows,
/// distinct, nested sizes, per-attribute NDVs) is replaced wholesale, so
/// stale NDVs for dropped attributes do not survive; the global
/// `type_fractions` are deliberately left alone (they need a whole-store
/// pass and drift slowly).  Returns false — after removing any stale
/// entry — when the catalog has no such object.
pub fn collect_object_statistics(
    catalog: &DbCatalog,
    store: &ObjectStore,
    name: &str,
    stats: &mut Statistics,
) -> bool {
    let Some(value) = catalog.value(name) else {
        stats.objects.remove(name);
        return false;
    };
    let mut attr_values: HashMap<&str, HashSet<&Value>> = HashMap::new();
    let (rows, distinct, nested_sizes) = match value {
        Value::Set(s) => {
            let mut nested = Vec::new();
            for (e, _card) in s.iter_counted() {
                nested.extend(nested_collection_sizes(e, store));
                record_attr_values(e, store, &mut attr_values);
            }
            (s.len() as f64, s.distinct_len() as f64, nested)
        }
        Value::Array(a) => {
            let nested = a
                .iter()
                .inspect(|e| record_attr_values(e, store, &mut attr_values))
                .flat_map(|e| nested_collection_sizes(e, store))
                .collect();
            (a.len() as f64, a.len() as f64, nested)
        }
        _ => (1.0, 1.0, Vec::new()),
    };
    let avg_nested = if nested_sizes.is_empty() {
        stats.default_avg_nested
    } else {
        nested_sizes.iter().sum::<f64>() / nested_sizes.len() as f64
    };
    let mut object = excess_optimizer::ObjectStats {
        rows: rows.max(1.0),
        distinct: distinct.max(1.0),
        avg_nested,
        attr_ndv: Default::default(),
    };
    for (attr, values) in attr_values {
        object
            .attr_ndv
            .insert(attr.to_string(), values.len() as f64);
    }
    stats.objects.insert(name.to_string(), object);
    true
}

/// Record each tuple attribute's value into the per-attribute value sets
/// (following a reference one level, as queries do when they DEREF).  The
/// sets are keyed by the names the tuples lend: this runs once per element
/// of the written extent on every commit.
fn record_attr_values<'a>(
    v: &'a Value,
    store: &'a ObjectStore,
    attrs: &mut HashMap<&'a str, HashSet<&'a Value>>,
) {
    let v = match v {
        Value::Ref(oid) => match store.deref(*oid) {
            Ok(inner) => inner,
            Err(_) => return,
        },
        other => other,
    };
    if let Value::Tuple(t) = v {
        for (f, fv) in t.iter() {
            attrs.entry(f).or_default().insert(fv);
        }
    }
}

/// Sizes of the collection-valued attributes of one element, following a
/// reference one level.
fn nested_collection_sizes(v: &Value, store: &ObjectStore) -> Vec<f64> {
    let v = match v {
        Value::Ref(oid) => match store.deref(*oid) {
            Ok(inner) => inner,
            Err(_) => return Vec::new(),
        },
        other => other,
    };
    match v {
        Value::Tuple(t) => t
            .iter()
            .filter_map(|(_, fv)| match fv {
                Value::Set(s) => Some(s.len() as f64),
                Value::Array(a) => Some(a.len() as f64),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}
