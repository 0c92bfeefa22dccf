//! # excess-exec — serial execution of a lowered EXCESS plan
//!
//! One entry point, [`run`]: evaluate a [`PhysicalPlan`] with the physical
//! interpreter of `excess-core` (the row hash kernels where the lowering
//! chose them, the naive evaluator everywhere else) and hand back the
//! value, the work counters and, when asked, the per-operator profile.
//!
//! The crate is this small on purpose.  It once held a partition-parallel
//! engine, deleted because no served request ran faster on it (DESIGN.md,
//! *Deleted by measurement*); it stays a crate of its own because the
//! benchmark package's lock file records `excess-db → excess-exec` and
//! `excess-exec → {excess-core, excess-types}` as dependency edges, and
//! removing the crate would rewrite that file.
//!
//! ```
//! use excess_core::physical::PhysicalPlan;
//! use excess_core::{CmpOp, Expr, Pred};
//! use excess_exec::{run, Tracing};
//! use excess_types::{ObjectStore, TypeRegistry, Value};
//! use std::collections::HashMap;
//!
//! let reg = TypeRegistry::new();
//! let mut store = ObjectStore::new();
//! let mut cat: HashMap<String, Value> = HashMap::new();
//! cat.insert("S".into(), Value::set((0..100).map(Value::int)));
//! let plan = Expr::named("S").select(Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(50)));
//! // No kernel choices: every node runs the logical operator.  The
//! // optimizer's `lower` pass is what annotates hash kernels.
//! let out = run(&PhysicalPlan::passthrough(plan), &reg, &mut store, &cat, Tracing::Off).unwrap();
//! assert_eq!(out.value, Value::set((50..100).map(Value::int)));
//! assert_eq!(out.counters.occurrences_scanned, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use excess_core::catalog::Catalog;
use excess_core::counters::Counters;
use excess_core::error::EvalResult;
use excess_core::eval::EvalCtx;
use excess_core::physical::{evaluate_physical, PhysicalPlan};
use excess_core::profile::Profile;
use excess_types::{ObjectStore, TypeRegistry, Value};

/// Whether a run records a per-operator profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tracing {
    /// No per-operator profile (counters are still collected).
    #[default]
    Off,
    /// Two clock samples per traced node (exact self/total wall split).
    Precise,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The query result.
    pub value: Value,
    /// Work counters of the evaluation.
    pub counters: Counters,
    /// The per-operator profile, when tracing.
    pub profile: Option<Profile>,
}

/// Evaluate a lowered plan: the hash kernels the plan chose (each behind
/// its own runtime guard), the naive evaluator everywhere else.  A plan
/// with no choices ([`PhysicalPlan::passthrough`]) is the naive evaluator.
pub fn run(
    physical: &PhysicalPlan,
    registry: &TypeRegistry,
    store: &mut ObjectStore,
    catalog: &dyn Catalog,
    tracing: Tracing,
) -> EvalResult<ExecOutcome> {
    let mut ctx = EvalCtx::new(registry, store, catalog);
    if tracing == Tracing::Precise {
        ctx.enable_tracing();
    }
    let value = evaluate_physical(physical, &mut ctx)?;
    Ok(ExecOutcome {
        value,
        counters: ctx.counters,
        profile: ctx.take_profile(),
    })
}
