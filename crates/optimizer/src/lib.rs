//! # excess-optimizer — algebraic transformations and plan search
//!
//! The optimizer half of the paper's contribution: the Appendix's
//! transformation rules (1–28) as a [`rule::Rule`] catalogue, one memoized
//! plan search over it ([`engine::Optimizer::optimize_memo_journaled`], in
//! [`memo`]), a statistics and cost model making the paper's Section 6 "future work" concrete, and
//! the Section 4 overridden-method dispatch strategies
//! ([`dispatch::choose`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dispatch;
pub mod engine;
pub mod lower;
pub mod memo;
pub mod properties;
pub mod rule;
pub mod rules;
pub mod stats;

pub use cost::{
    cost_of, estimate, estimate_nodes, estimate_parallel, estimate_physical, Estimate,
    ParallelEstimate, COLUMNAR_DISCOUNT,
};
pub use dispatch::{build_switch, build_union, choose, DispatchStrategy, MethodImpl};
pub use engine::{
    apply_extent_indexes, apply_extent_indexes_journaled, soundness_violation, JournalStep,
    Neighbor, Optimized, Optimizer, RefusedStep, RewriteJournal, EXTENT_INDEX_RULE,
};
pub use memo::{GroupSummary, MemoRun, MemoSnapshot, MEMO_EXTRACT_RULE, REOPTIMIZE_RULE};

pub use lower::{
    annotate_columnar, elide_proven_guards, lower, lower_journaled, COLUMNAR_RULE,
    HASH_JOIN_MIN_PAIRS, LOWERING_RULE,
};
pub use properties::{apply_property_rewrites, apply_property_rewrites_journaled, PROPERTY_RULE};
pub use rule::{Rule, RuleCtx};
pub use stats::{ObjectStats, Statistics};
