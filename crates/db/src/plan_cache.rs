//! Plan once, serve many: a session's cache of planned queries.
//!
//! The search and the lowering see a plan only through the type registry,
//! the schemas of the objects it names, and — for costs — those objects'
//! statistics (DESIGN.md, *Plan cache*).  An entry therefore keeps, next
//! to the plan, exactly that: the registry it was derived under, and for
//! every object named by the translated plan or by the chosen one its
//! schema and its [`ObjectStats`](excess_optimizer::ObjectStats), plus
//! the statistics' global fields.  A lookup compares them by value with
//! what the request would plan under now, so an entry is *validated* and
//! nothing ever has to invalidate it: a commit, `.refresh`, DDL and a
//! `.reoptimize` overlay are all just "the value differs".

use crate::pipeline::{named_objects, View};
use excess_core::expr::Expr;
use excess_core::physical::PhysicalPlan;
use excess_optimizer::Statistics;
use excess_types::{SchemaType, TypeRegistry};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Entries a cache holds before it is emptied.  Clearing keeps the hit
/// path free of recency bookkeeping; the served workloads send tens of
/// distinct lines.
const CAPACITY: usize = 256;

/// What planning a query produces — all an execution needs and all a
/// cache entry shares.  The search's group picture is deliberately not
/// part of it: a [`MemoSnapshot`](excess_optimizer::MemoSnapshot) holds
/// one expression tree per group, two to three times the rest of an
/// entry, for a picture only `.memo` reads — and because an entry is
/// validated, re-running the search from its key reproduces it.
#[derive(Debug, Clone)]
pub(crate) struct Planned {
    /// The lowered plan; its `logical` tree is the optimized plan.
    pub physical: PhysicalPlan,
    /// [`plan_hash_of`](crate::pipeline::plan_hash_of) the lowered plan.
    pub plan_hash: u64,
}

/// How a run that consulted the cache came by its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// A valid entry: no search, no lowering.
    Hit,
    /// No entry for this translated plan.
    Miss,
    /// An entry derived under schemas or statistics that have since moved.
    Stale,
}

impl CacheUse {
    /// The registry counter this outcome is counted under.
    pub fn metric(self) -> &'static str {
        match self {
            CacheUse::Hit => "plan_cache.hit",
            CacheUse::Miss => "plan_cache.miss",
            CacheUse::Stale => "plan_cache.stale",
        }
    }
}

struct Entry {
    planned: Arc<Planned>,
    /// Compared by pointer: a committed `define type` publishes a new one.
    registry: Arc<TypeRegistry>,
    /// Every object the translated or the chosen plan names, with its
    /// schema.  The chosen plan's names belong here because extent-index
    /// substitution introduces `P::exact::T` objects the translated plan
    /// never mentions, and the lowering reads their statistics.
    schemas: Vec<(String, Option<SchemaType>)>,
    /// The statistics the plan was costed under, projected onto those
    /// objects (the global fields are kept whole).
    stats: Statistics,
}

impl Entry {
    fn is_valid(&self, view: &View<'_>, registry: &Arc<TypeRegistry>) -> bool {
        // Destructured so that a field added to `Statistics` has to be
        // given a comparison here.
        let Statistics {
            objects,
            default_selectivity,
            default_avg_nested,
            type_fractions,
            extent_indexes,
        } = &self.stats;
        let now = view.stats;
        Arc::ptr_eq(&self.registry, registry)
            && *default_selectivity == now.default_selectivity
            && *default_avg_nested == now.default_avg_nested
            && *type_fractions == now.type_fractions
            && *extent_indexes == now.extent_indexes
            && self.schemas.iter().all(|(name, schema)| {
                view.catalog.schema(name) == schema.as_ref()
                    && objects.get(name) == now.objects.get(name)
            })
    }
}

/// Planned queries keyed by the translated plan exactly as the translator
/// produced it (`range of` declarations and method bodies are folded into
/// it, so they need no separate validation).
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: HashMap<Expr, Entry>,
}

impl PlanCache {
    /// The plan cached for `translated` if what it was derived under
    /// still holds in `view`; otherwise why there is none.
    pub fn lookup(
        &self,
        translated: &Expr,
        view: &View<'_>,
        registry: &Arc<TypeRegistry>,
    ) -> Result<Arc<Planned>, CacheUse> {
        match self.entries.get(translated) {
            Some(entry) if entry.is_valid(view, registry) => Ok(entry.planned.clone()),
            Some(_) => Err(CacheUse::Stale),
            None => Err(CacheUse::Miss),
        }
    }

    /// Remember `planned` as the plan of `translated` under `view`,
    /// replacing any entry the key already has.
    pub fn insert(
        &mut self,
        translated: Expr,
        planned: &Arc<Planned>,
        view: &View<'_>,
        registry: &Arc<TypeRegistry>,
    ) {
        let mut names = BTreeSet::new();
        named_objects(&translated, &mut names);
        named_objects(&planned.physical.logical, &mut names);
        let stats = Statistics {
            objects: names
                .iter()
                .filter_map(|name| Some((name.clone(), view.stats.objects.get(name)?.clone())))
                .collect(),
            default_selectivity: view.stats.default_selectivity,
            default_avg_nested: view.stats.default_avg_nested,
            type_fractions: view.stats.type_fractions.clone(),
            extent_indexes: view.stats.extent_indexes.clone(),
        };
        let schemas = names
            .into_iter()
            .map(|name| {
                let schema = view.catalog.schema(&name).cloned();
                (name, schema)
            })
            .collect();
        if self.entries.len() >= CAPACITY && !self.entries.contains_key(&translated) {
            self.entries.clear();
        }
        self.entries.insert(
            translated,
            Entry {
                planned: planned.clone(),
                registry: registry.clone(),
                schemas,
                stats,
            },
        );
    }

    /// Per entry, the objects it is validated against.
    pub fn dependencies(&self) -> Vec<Vec<&str>> {
        self.entries
            .values()
            .map(|e| e.schemas.iter().map(|(name, _)| name.as_str()).collect())
            .collect()
    }
}

/// A session's cache as [`run`](crate::pipeline::run) takes it: with the
/// `Arc` behind the view's registry, which an entry holds on to so that a
/// pointer comparison cannot be fooled by a reused address.
pub(crate) struct CacheRef<'a> {
    pub plans: &'a mut PlanCache,
    pub registry: &'a Arc<TypeRegistry>,
}
