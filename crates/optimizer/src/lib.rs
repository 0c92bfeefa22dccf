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
pub mod rule;
pub mod rules;
pub mod stats;

pub use cost::{cost_of, estimate, estimate_nodes, estimate_physical, Estimate};
pub use dispatch::{build_switch, build_union, choose, DispatchStrategy, MethodImpl};
pub use engine::{
    apply_extent_indexes, apply_extent_indexes_journaled, soundness_violation, JournalStep,
    Neighbor, Optimized, Optimizer, RefusedStep, RewriteJournal,
};
pub use memo::{GroupSummary, MemoRun, MemoSnapshot, MEMO_EXTRACT_RULE};

pub use lower::{lower, lower_journaled, LOWERING_RULE};
pub use rule::{Rule, RuleCtx};
pub use stats::{ObjectStats, Statistics};
