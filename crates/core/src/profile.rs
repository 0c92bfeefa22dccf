//! Per-operator execution profiling (the dynamic half of EXPLAIN ANALYZE).
//!
//! A `TraceSink` hangs off [`EvalCtx`](crate::eval::EvalCtx) and is
//! strictly opt-in: when absent, the evaluator pays a single `Option`
//! check per node and allocates nothing.  When present, it only observes:
//! a traced run evaluates exactly what an untraced one does, kernels and
//! in-place reads included.  Every node the evaluator evaluates as itself
//! is bracketed by `TraceSink::enter` / `TraceSink::exit`, which
//! attribute to that node:
//!
//! * invocation count (a SET_APPLY body runs once per occurrence);
//! * input cardinality (occurrences/elements produced by its child
//!   operators, per invocation) and output cardinality;
//! * the [`Counters`] delta, split into *inclusive* (node + descendants)
//!   and *self* (node alone) — self deltas across the whole span tree sum
//!   exactly to the global counter delta, because per invocation
//!   `self = inclusive − Σ children-inclusive` telescopes;
//! * wall time, with the same inclusive/self split.
//!
//! Two evaluations get no frame of their own, and their work is the
//! enclosing node's.  A *path* (`TUP_EXTRACT`/`DEREF` over an `INPUT` or
//! a constant) that an operator reads in place has no frame below the
//! node that reads it ([`crate::eval::reads_in_place`]).  A fused
//! join-apply's body is not evaluated on the rows it reads off the join's
//! pairs.  The `rel_join` under a fused apply keeps its own frame.
//!
//! Nodes are keyed by their *path* in the [`Expr`] tree — the sequence of
//! child indices (as ordered by [`Expr::children`]) from the root — so a
//! profile can be joined against the static plan shape (and against the
//! cost model's per-node estimates) without any node identity stored in
//! the plan itself.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::counters::Counters;
use crate::expr::Expr;
use crate::render::op_label;
use excess_types::Value;

/// The path of a node in the expression tree: child indices from the root
/// (the root itself is the empty path).  Ordering is lexicographic, which
/// is exactly depth-first preorder.
pub type NodePath = Vec<usize>;

/// Human-readable rendering of a [`NodePath`]: `root` for the empty path,
/// otherwise the dotted child indices in brackets (`[0.2.1]`).  Inference
/// errors and verifier diagnostics both use this, so positions render
/// identically everywhere.
pub fn path_string(path: &[usize]) -> String {
    if path.is_empty() {
        return "root".to_string();
    }
    let parts: Vec<String> = path.iter().map(|i| i.to_string()).collect();
    format!("[{}]", parts.join("."))
}

/// Occurrences in a value, as a profile counts a node's output and the
/// flight recorder a query's: multiset cardinality with duplicates, array
/// length, 1 for anything else.
pub fn rows_of(v: &Value) -> u64 {
    match v {
        Value::Set(s) => s.len(),
        Value::Array(a) => a.len() as u64,
        _ => 1,
    }
}

/// One evaluation frame: a node currently being evaluated.
struct Frame {
    /// Where this node sits in the plan tree.
    path: NodePath,
    /// `children()` of the node, by address, so a recursive `eval` call can
    /// find its own child index with pointer comparisons only.
    child_ptrs: Vec<*const Expr>,
    /// Global counters at entry.
    entry_counters: Counters,
    /// Wall clock at entry.
    entry_instant: Instant,
    /// Σ inclusive counters of completed direct children.
    child_counters: Counters,
    /// Σ inclusive wall time of completed direct children.
    child_wall: Duration,
    /// Σ output cardinality of completed direct children.
    rows_in: u64,
}

/// Token handed out by `TraceSink::enter` and consumed by
/// `TraceSink::exit`; holds the stack depth so mismatches are caught.
#[derive(Debug)]
pub(crate) struct FrameToken(usize);

/// Accumulated statistics for one plan node across all its invocations.
#[derive(Debug, Clone, Default)]
struct NodeAgg {
    label: String,
    calls: u64,
    rows_in: u64,
    rows_out: u64,
    self_counters: Counters,
    total_counters: Counters,
    self_wall: Duration,
    total_wall: Duration,
}

/// Collects the span tree while evaluation runs.
pub(crate) struct TraceSink {
    stack: Vec<Frame>,
    nodes: BTreeMap<NodePath, NodeAgg>,
    /// Global counter delta over all root evaluations seen by this sink.
    total: Counters,
    /// Wall time over all root evaluations.
    total_wall: Duration,
}

impl TraceSink {
    /// An empty sink, ready to record with exact per-frame timestamps
    /// (two clock samples per invocation).
    pub(crate) fn new() -> Self {
        TraceSink {
            stack: Vec::new(),
            nodes: BTreeMap::new(),
            total: Counters::new(),
            total_wall: Duration::ZERO,
        }
    }

    /// Open a frame for `e`.  `counters` is the global counter state at
    /// entry.
    pub(crate) fn enter(&mut self, e: &Expr, counters: Counters) -> FrameToken {
        let path = match self.stack.last_mut() {
            None => Vec::new(),
            Some(parent) => {
                // The evaluator recurses into structural children only, so
                // every frame's path is a path of the plan.
                let idx = parent.child_ptrs.iter().position(|p| std::ptr::eq(*p, e));
                debug_assert!(idx.is_some(), "{e} is not a child of the node above it");
                let idx = idx.unwrap_or(parent.child_ptrs.len());
                let mut p = parent.path.clone();
                p.push(idx);
                p
            }
        };
        let child_ptrs: Vec<*const Expr> =
            e.children().into_iter().map(|c| c as *const Expr).collect();
        self.stack.push(Frame {
            path,
            child_ptrs,
            entry_counters: counters,
            entry_instant: Instant::now(),
            child_counters: Counters::new(),
            child_wall: Duration::ZERO,
            rows_in: 0,
        });
        FrameToken(self.stack.len())
    }

    /// Close the frame opened by `token`, folding this invocation — which
    /// produced `rows_out` occurrences — into the node's aggregate and
    /// crediting the parent frame.
    pub(crate) fn exit(&mut self, token: FrameToken, e: &Expr, rows_out: u64, counters: Counters) {
        assert_eq!(token.0, self.stack.len(), "mismatched TraceSink enter/exit");
        let frame = self.stack.pop().expect("token guarantees a frame");
        let inclusive = counters.diff(&frame.entry_counters);
        let wall = frame.entry_instant.elapsed();
        let self_counters = inclusive.diff(&frame.child_counters);
        let self_wall = wall.saturating_sub(frame.child_wall);

        let agg = self.nodes.entry(frame.path).or_default();
        if agg.calls == 0 {
            agg.label = op_label(e);
        }
        agg.calls += 1;
        agg.rows_in += frame.rows_in;
        agg.rows_out += rows_out;
        agg.self_counters += self_counters;
        agg.total_counters += inclusive;
        agg.self_wall += self_wall;
        agg.total_wall += wall;

        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_counters += inclusive;
                parent.child_wall += wall;
                parent.rows_in += rows_out;
            }
            None => {
                self.total += inclusive;
                self.total_wall += wall;
            }
        }
    }

    /// Freeze the recording into a [`Profile`].  Panics if called while
    /// frames are still open.
    pub(crate) fn finish(self) -> Profile {
        assert!(self.stack.is_empty(), "TraceSink finished with open frames");
        Profile {
            nodes: self
                .nodes
                .into_iter()
                .map(|(path, a)| NodeProfile {
                    path,
                    label: a.label,
                    calls: a.calls,
                    rows_in: a.rows_in,
                    rows_out: a.rows_out,
                    self_counters: a.self_counters,
                    total_counters: a.total_counters,
                    self_wall: a.self_wall,
                    total_wall: a.total_wall,
                })
                .collect(),
            total: self.total,
            total_wall: self.total_wall,
        }
    }
}

/// Execution statistics for one plan node, aggregated over all its
/// invocations during one (or more) evaluations.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Child-index path from the root (empty for the root node).
    pub path: NodePath,
    /// Operator label, as rendered in plan trees (e.g. `DE`, `σ[…]`).
    pub label: String,
    /// Number of times this node was evaluated (bodies under an APPLY run
    /// once per occurrence).
    pub calls: u64,
    /// Total cardinality produced by this node's direct children across
    /// all invocations (1 per scalar/tuple/ref child result; multiset and
    /// array children contribute their occurrence/element count).
    pub rows_in: u64,
    /// Total cardinality this node produced across all invocations.
    pub rows_out: u64,
    /// Counter delta attributable to this node alone.
    pub self_counters: Counters,
    /// Counter delta including all descendant nodes.
    pub total_counters: Counters,
    /// Wall time attributable to this node alone.
    pub self_wall: Duration,
    /// Wall time including all descendant nodes.
    pub total_wall: Duration,
}

/// The result of profiling: one entry per distinct plan node, in
/// depth-first preorder, plus the global totals the per-node self deltas
/// sum to.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-node statistics in preorder (lexicographic path order).
    pub nodes: Vec<NodeProfile>,
    /// Global counter delta observed while tracing (equals the sum of
    /// every node's `self_counters`).
    pub total: Counters,
    /// Global wall time observed while tracing.
    pub total_wall: Duration,
}

impl Profile {
    /// Look up a node by its path.
    pub fn node(&self, path: &[usize]) -> Option<&NodeProfile> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// The root node's statistics (present whenever anything was traced).
    pub fn root(&self) -> Option<&NodeProfile> {
        self.node(&[])
    }

    /// Sum of per-node self counters — by construction equal to
    /// [`Profile::total`]; exposed so tests can assert the invariant.
    pub fn sum_of_self_counters(&self) -> Counters {
        let mut acc = Counters::new();
        for n in &self.nodes {
            acc += n.self_counters;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::{evaluate, EvalCtx};
    use crate::expr::Expr;
    use excess_types::{ObjectStore, TypeRegistry, Value};
    use std::collections::HashMap;

    fn ints(xs: impl IntoIterator<Item = i32>) -> Value {
        Value::set(xs.into_iter().map(Value::int))
    }

    #[test]
    fn profile_attributes_de_input_to_the_de_node() {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let cat: HashMap<String, Value> = HashMap::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        ctx.enable_tracing();

        // DE(SET_APPLY(input, INPUT + 0)) over {1,1,2,3}
        let plan = Expr::lit(ints([1, 1, 2, 3]))
            .set_apply(Expr::input())
            .dup_elim();
        evaluate(&plan, &mut ctx).unwrap();
        let profile = ctx.take_profile().expect("tracing was enabled");

        let root = profile.root().expect("root profiled");
        assert_eq!(root.label, "DE");
        assert_eq!(root.calls, 1);
        assert_eq!(root.rows_in, 4);
        assert_eq!(root.rows_out, 3);
        assert_eq!(root.self_counters.de_input_occurrences, 4);
        assert_eq!(root.self_counters.occurrences_scanned, 0);

        let apply = profile.node(&[0]).expect("SET_APPLY profiled");
        assert_eq!(apply.label, "SET_APPLY");
        assert_eq!(apply.self_counters.occurrences_scanned, 4);
        // The body ran once per occurrence.
        let body = profile.node(&[0, 1]).expect("body profiled");
        assert_eq!(body.calls, 4);
    }

    #[test]
    fn self_deltas_sum_to_global_counters() {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let cat: HashMap<String, Value> = HashMap::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        ctx.enable_tracing();

        let plan = Expr::lit(ints(0..20))
            .set_apply(Expr::input())
            .dup_elim()
            .cross(Expr::lit(ints([1, 2, 3])));
        evaluate(&plan, &mut ctx).unwrap();

        let global = ctx.counters;
        let profile = ctx.take_profile().unwrap();
        assert_eq!(profile.total, global);
        assert_eq!(profile.sum_of_self_counters(), global);
        assert_ne!(
            global,
            crate::counters::Counters::new(),
            "plan should have done some work"
        );
    }

    #[test]
    fn profiling_does_not_change_results_or_counters() {
        let reg = TypeRegistry::new();
        let plan = Expr::lit(ints(0..10)).set_apply(Expr::input()).dup_elim();
        let cat: HashMap<String, Value> = HashMap::new();

        let mut store_a = ObjectStore::new();
        let mut plain = EvalCtx::new(&reg, &mut store_a, &cat);
        let out_plain = evaluate(&plan, &mut plain).unwrap();

        let mut store_b = ObjectStore::new();
        let mut traced = EvalCtx::new(&reg, &mut store_b, &cat);
        traced.enable_tracing();
        let out_traced = evaluate(&plan, &mut traced).unwrap();

        assert_eq!(out_plain, out_traced);
        assert_eq!(plain.counters, traced.counters);
    }

    #[test]
    fn take_profile_is_none_without_opt_in() {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let cat: HashMap<String, Value> = HashMap::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        evaluate(&Expr::lit(ints([1])), &mut ctx).unwrap();
        assert!(ctx.take_profile().is_none());
    }
}
