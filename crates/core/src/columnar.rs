//! Batched (vectorized) kernels over columnar extent chunks.
//!
//! The row evaluator walks a `Named` leaf's value occurrence-at-a-time,
//! pushing each occurrence into the binder environment and evaluating the
//! predicate over `Value` trees.  The kernels here instead consume the
//! extent's [`Chunk`] straight out of the catalog — flat typed columns, no
//! per-occurrence allocation — and produce **exactly** the multiset the
//! row path would, charging **exactly** the same [`Counters`].  The
//! speedup is wall-clock only; the paper's cost arguments (which are
//! counter-based) are untouched.
//!
//! Four kernels, mirroring the hot physical ops:
//!
//! * [`run_scan_filter`] — fused `σ`-over-`Named`: a compiled conjunct
//!   list evaluated per row with typed fast paths (an `int4` column
//!   against an `int4` literal compares register-to-register).
//! * [`columnar_hash_join`] — build/probe on typed key columns with
//!   native `HashMap` keys instead of `Value` comparisons.
//! * [`columnar_group`] — `GRP` keyed by one attribute column.
//! * [`columnar_distinct`] — `DE`; chunk rows are distinct by
//!   construction, so this is a weight reset.
//!
//! # The chunk-safety contract
//!
//! A kernel runs only when the lowering pass annotated the node *and*
//! the runtime re-verification succeeds (the chunk exists, the
//! predicate compiles against its columns, the key columns pass the
//! null-freeness/kind/disjointness guard).  Any refusal returns `None`
//! and the caller falls through to the row evaluator — statistics and
//! stale annotations can cost speed, never correctness.  Three-valued
//! semantics survive because compiled comparisons read the validity
//! bitmaps: a `dne` cell makes the conjunct `F`, an `unk` cell makes it
//! `U`, exactly as [`compare`](crate::ops::predicate::compare).
//! The `in` operator is refused at compile time (it is the one
//! comparison that can raise a sort error, and compiled filters must be
//! total).
//!
//! Kernels are bypassed outright when profiling is enabled: the traced
//! row evaluator brackets every node, and keeping profile shapes
//! (per-operator self times, telescoping sums) identical to PR 1–6 is
//! worth more than a vectorized `EXPLAIN ANALYZE`.

use crate::counters::Counters;
use crate::eval::EvalCtx;
use crate::expr::{CmpOp, Expr, Pred};
use crate::ops::predicate::{self, Truth};
use crate::physical::{conjuncts, split_residual};
use excess_types::{Chunk, Column, ColumnData, MultiSet, Tuple, Value};
use std::collections::HashMap;

/// A batched kernel assignment for one logical node, resolved by node
/// address (see `PhysicalPlan::chunk_table`).
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkKernel {
    /// Fused selection over the chunk of a named extent.
    Scan {
        /// The extent whose chunk the scan reads.
        object: String,
    },
    /// Hash equi-join of two chunked extents on typed key columns.
    HashEquiJoin {
        /// Left extent name.
        left: String,
        /// Right extent name.
        right: String,
        /// Key column on the left chunk.
        left_key: String,
        /// Key column on the right chunk.
        right_key: String,
    },
    /// `GRP` of a chunked extent by one attribute column.
    Group {
        /// The extent whose chunk is grouped.
        object: String,
        /// The grouping attribute.
        key: String,
    },
    /// `DE` of a chunked extent.
    Distinct {
        /// The extent whose chunk is deduplicated.
        object: String,
    },
}

// --------------------------------------------------------------- filters

/// One side of a compiled comparison.
#[derive(Debug, Clone)]
enum Opnd<'p> {
    /// A column of the chunk, by index.
    Col(usize),
    /// A literal from the predicate.
    Lit(&'p Value),
}

/// A compiled conjunct, specialised where the column types allow.
#[derive(Debug, Clone)]
enum CompiledCmp<'p> {
    /// Null-free `int4` column against an `int4` literal.
    IntLit { col: usize, op: CmpOp, lit: i32 },
    /// Null-free string column against a string literal.
    StrLit { col: usize, op: CmpOp, lit: &'p str },
    /// Two null-free `int4` columns.
    IntCols { l: usize, op: CmpOp, r: usize },
    /// The total fallback: reconstruct cell values and defer to
    /// [`predicate::compare`] (nulls included — `value_at` surfaces
    /// them and `compare` applies the Kleene rules).
    Generic { l: Opnd<'p>, op: CmpOp, r: Opnd<'p> },
}

/// A selection predicate compiled against one chunk's columns:
/// conjuncts in the evaluator's left-to-right order, each total
/// (never raising) by construction.
#[derive(Debug, Clone)]
pub struct ScanFilter<'p> {
    cmps: Vec<CompiledCmp<'p>>,
}

/// Is `e` a bare attribute extract `INPUT.f`?  Returns the field.
fn bare_extract(e: &Expr) -> Option<&str> {
    if let Expr::TupExtract(inner, f) = e {
        if matches!(&**inner, Expr::Input(0)) {
            return Some(f);
        }
    }
    None
}

fn operand<'p>(e: &'p Expr, chunk: &Chunk) -> Option<Opnd<'p>> {
    if let Some(f) = bare_extract(e) {
        return chunk.col_index(f).map(Opnd::Col);
    }
    if let Expr::Const(v) = e {
        return Some(Opnd::Lit(v));
    }
    None
}

/// Compile `pred` against `chunk`'s columns, or `None` when the
/// predicate is not chunk-compilable: every conjunct must be an atomic
/// comparison (no `¬`), its operator must not be `in` (the one
/// comparison that can raise), and each operand must be either a bare
/// `INPUT.f` over an existing column or a literal.
pub fn compile_scan_filter<'p>(pred: &'p Pred, chunk: &Chunk) -> Option<ScanFilter<'p>> {
    let mut cmps = Vec::new();
    for c in conjuncts(pred) {
        let Pred::Cmp(l, op, r) = c else {
            return None; // ¬ breaks the flat short-circuit argument
        };
        if *op == CmpOp::In {
            return None; // `in` can raise a sort error; filters must be total
        }
        let (l, r) = (operand(l, chunk)?, operand(r, chunk)?);
        cmps.push(specialise(l, *op, r, chunk));
    }
    Some(ScanFilter { cmps })
}

/// Pick the typed fast path for a conjunct where the columns allow it
/// (null-free typed columns against matching literals or each other).
/// The result is tied to `chunk`'s column layout; a filter must only
/// ever run over the chunk it was compiled against.
fn specialise<'p>(l: Opnd<'p>, op: CmpOp, r: Opnd<'p>, chunk: &Chunk) -> CompiledCmp<'p> {
    match (&l, &r) {
        (Opnd::Col(ci), Opnd::Lit(v)) => {
            let col = col_of(chunk, *ci);
            if col.null_free() {
                if matches!(col.data, ColumnData::Int(_)) {
                    if let Some(lit) = v.as_int() {
                        return CompiledCmp::IntLit { col: *ci, op, lit };
                    }
                }
                if matches!(col.data, ColumnData::Str(_)) {
                    if let Some(lit) = v.as_str() {
                        return CompiledCmp::StrLit { col: *ci, op, lit };
                    }
                }
            }
        }
        (Opnd::Col(a), Opnd::Col(b)) => {
            let (ca, cb) = (col_of(chunk, *a), col_of(chunk, *b));
            if ca.null_free()
                && cb.null_free()
                && matches!(ca.data, ColumnData::Int(_))
                && matches!(cb.data, ColumnData::Int(_))
            {
                return CompiledCmp::IntCols { l: *a, op, r: *b };
            }
        }
        _ => {}
    }
    CompiledCmp::Generic { l, op, r }
}

/// Does `pred` compile against `chunk`?  The lowering pass's static
/// side of the chunk-safety check.
pub fn scan_pred_compiles(pred: &Pred, chunk: &Chunk) -> bool {
    compile_scan_filter(pred, chunk).is_some()
}

fn col_of(chunk: &Chunk, idx: usize) -> &Column {
    &chunk.columns()[idx].1
}

fn ord_truth(op: CmpOp, ord: std::cmp::Ordering) -> Truth {
    use std::cmp::Ordering::*;
    let t = match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::In => unreachable!("`in` is refused at compile time"),
    };
    if t {
        Truth::T
    } else {
        Truth::F
    }
}

fn eval_generic(chunk: &Chunk, l: &Opnd<'_>, op: CmpOp, r: &Opnd<'_>, i: usize) -> Truth {
    // `value_at` materialises nulls as null values, so `compare`'s
    // Kleene rules apply verbatim.  `in` never reaches here, so the
    // `None` (sort-error) case is impossible.
    let lv = match l {
        Opnd::Col(c) => col_of(chunk, *c).value_at(i),
        Opnd::Lit(v) => (*v).clone(),
    };
    let rv = match r {
        Opnd::Col(c) => col_of(chunk, *c).value_at(i),
        Opnd::Lit(v) => (*v).clone(),
    };
    predicate::compare(&lv, op, &rv).expect("`in` refused at compile time")
}

/// Run a compiled filter over rows `lo..hi` of `chunk`, producing the
/// multiset the row evaluator's `σ` would produce over the same rows
/// and charging identical counters: `occurrences_scanned` per
/// occurrence, `comparisons` per conjunct *evaluated* (left-to-right
/// with the `F` short-circuit) per occurrence.  `U` rows contribute
/// `unk` occurrences, as COMP requires.
pub fn run_scan_filter(
    chunk: &Chunk,
    filter: &ScanFilter<'_>,
    lo: usize,
    hi: usize,
    counters: &mut Counters,
) -> MultiSet {
    let cmps = &filter.cmps;
    let weights = chunk.weights();
    let mut out = MultiSet::new();
    for i in lo..hi {
        let w = weights[i];
        counters.occurrences_scanned += w;
        let mut acc = Truth::T;
        for c in cmps {
            counters.comparisons += w;
            let t = match c {
                CompiledCmp::IntLit { col, op, lit } => {
                    let ColumnData::Int(v) = &col_of(chunk, *col).data else {
                        unreachable!("specialised against this chunk")
                    };
                    ord_truth(*op, v[i].cmp(lit))
                }
                CompiledCmp::StrLit { col, op, lit } => {
                    let ColumnData::Str(v) = &col_of(chunk, *col).data else {
                        unreachable!("specialised against this chunk")
                    };
                    ord_truth(*op, v[i].as_str().cmp(lit))
                }
                CompiledCmp::IntCols { l, op, r } => {
                    let (ColumnData::Int(a), ColumnData::Int(b)) =
                        (&col_of(chunk, *l).data, &col_of(chunk, *r).data)
                    else {
                        unreachable!("specialised against this chunk")
                    };
                    ord_truth(*op, a[i].cmp(&b[i]))
                }
                CompiledCmp::Generic { l, op, r } => eval_generic(chunk, l, *op, r, i),
            };
            acc = acc.and(t);
            if acc == Truth::F {
                break;
            }
        }
        match acc {
            Truth::T => out.insert_n(chunk.row_value(i), w),
            Truth::U => out.insert_n(Value::unk(), w),
            Truth::F => {}
        }
    }
    out
}

// ------------------------------------------------------------------ join

/// The chunk-level guard for a columnar hash join — the column-granular
/// analogue of `key_pair_usable`, O(#columns) instead of O(rows):
///
/// * both key columns exist, are null-free, and share one supported
///   typed encoding (`int4` or string);
/// * the key field is absent from the other side;
/// * **all** attribute names are disjoint across the sides, so the
///   concatenated output tuple needs no `TUP_CAT` clash renaming.
pub fn join_keys_usable(left: &Chunk, right: &Chunk, lk: &str, rk: &str) -> bool {
    let (Some(lc), Some(rc)) = (left.col(lk), right.col(rk)) else {
        return false;
    };
    if !lc.null_free() || !rc.null_free() {
        return false;
    }
    let typed_pair = matches!(
        (&lc.data, &rc.data),
        (ColumnData::Int(_), ColumnData::Int(_)) | (ColumnData::Str(_), ColumnData::Str(_))
    );
    if !typed_pair {
        return false;
    }
    left.columns()
        .iter()
        .all(|(n, _)| right.col_index(n).is_none())
}

/// Build/probe a hash equi-join over two chunks, or `None` when the
/// guard refuses (caller falls back to the row hash kernel, then to
/// the nested loop).  Requires an empty residual — the caller only
/// annotates single-conjunct equi-joins — so no predicate is ever
/// evaluated: `occurrences_scanned` is charged per in-bucket pair and
/// `comparisons` stays at zero, exactly like the row hash kernel on
/// the same plan.
pub fn columnar_hash_join(
    left: &Chunk,
    right: &Chunk,
    lk: &str,
    rk: &str,
    counters: &mut Counters,
) -> Option<MultiSet> {
    if !join_keys_usable(left, right, lk, rk) {
        return None;
    }
    let (lw, rw) = (left.weights(), right.weights());
    let mut out = MultiSet::new();
    let mut emit = |i: usize, j: usize| {
        counters.occurrences_scanned += lw[i] * rw[j];
        let mut fields = left.row_fields(i);
        fields.extend(right.row_fields(j));
        out.insert_n(Value::Tuple(Tuple::from_fields(fields)), lw[i] * rw[j]);
    };
    match (
        &left.col(lk).expect("guard checked").data,
        &right.col(rk).expect("guard checked").data,
    ) {
        (ColumnData::Int(lv), ColumnData::Int(rv)) => {
            let mut buckets: HashMap<i32, Vec<usize>> = HashMap::with_capacity(rv.len());
            for (j, k) in rv.iter().enumerate() {
                buckets.entry(*k).or_default().push(j);
            }
            for (i, k) in lv.iter().enumerate() {
                if let Some(matches) = buckets.get(k) {
                    for &j in matches {
                        emit(i, j);
                    }
                }
            }
        }
        (ColumnData::Str(lv), ColumnData::Str(rv)) => {
            let mut buckets: HashMap<&str, Vec<usize>> = HashMap::with_capacity(rv.len());
            for (j, k) in rv.iter().enumerate() {
                buckets.entry(k.as_str()).or_default().push(j);
            }
            for (i, k) in lv.iter().enumerate() {
                if let Some(matches) = buckets.get(k.as_str()) {
                    for &j in matches {
                        emit(i, j);
                    }
                }
            }
        }
        _ => unreachable!("guard admits int/str key pairs only"),
    }
    Some(out)
}

// ----------------------------------------------------------- group / DE

/// `GRP` a chunk by one attribute column, or `None` when the column is
/// missing.  Row semantics preserved: every occurrence charges
/// `occurrences_scanned`, `dne` keys drop their occurrences, `unk` keys
/// collect into one group, groups come out in key order.
pub fn columnar_group(chunk: &Chunk, key: &str, counters: &mut Counters) -> Option<MultiSet> {
    if chunk.is_empty() {
        return Some(MultiSet::new());
    }
    let kcol = chunk.col(key)?;
    let weights = chunk.weights();
    let mut groups: std::collections::BTreeMap<Value, MultiSet> = Default::default();
    for (i, &w) in weights.iter().enumerate() {
        counters.occurrences_scanned += w;
        if kcol.is_dne(i) {
            continue; // an occurrence with no grouping key is dropped
        }
        groups
            .entry(kcol.value_at(i))
            .or_default()
            .insert_n(chunk.row_value(i), w);
    }
    Some(MultiSet::from_occurrences(
        groups.into_values().map(Value::Set),
    ))
}

/// `DE` a chunk.  Rows are the distinct elements by construction, so
/// the output is every row with multiplicity one;
/// `de_input_occurrences` is charged with the total occurrence count,
/// as the row evaluator does.
pub fn columnar_distinct(chunk: &Chunk, counters: &mut Counters) -> MultiSet {
    counters.de_input_occurrences += chunk.total_occurrences();
    let mut out = MultiSet::new();
    for i in 0..chunk.len() {
        out.insert_n(chunk.row_value(i), 1);
    }
    out
}

// ------------------------------------------------- evaluator-side hooks

/// Look up the chunk kernel assigned to node `e`, when batched
/// execution is admissible at all (kernels installed, profiling off).
fn kernel_for<'c>(e: &Expr, ctx: &EvalCtx<'c>) -> Option<ChunkKernel> {
    if ctx.trace.is_some() {
        return None; // keep profile shapes identical to the row path
    }
    ctx.chunk_kernels
        .as_ref()
        .and_then(|t| t.get(&(e as *const Expr as usize)))
        .cloned()
}

fn chunk_of<'a>(ctx: &EvalCtx<'a>, input: &Expr, object: &str) -> Option<&'a Chunk> {
    match input {
        Expr::Named(n) if n == object => {}
        _ => return None, // stale annotation: node shape changed
    }
    let cat = ctx.catalog;
    cat.get_chunk(object)
}

/// `σ`-over-`Named` hook: compile the predicate against the extent's
/// chunk and run the batched filter.  `None` falls through to the row
/// path (no annotation, no chunk, or the predicate refuses to
/// compile); `named_object_scans` is charged exactly once, as the row
/// path's `Named` leaf would.
pub(crate) fn try_select<'a>(
    e: &Expr,
    input: &Expr,
    pred: &Pred,
    ctx: &mut EvalCtx<'a>,
) -> Option<Value> {
    let ChunkKernel::Scan { object } = kernel_for(e, ctx)? else {
        return None;
    };
    let chunk = chunk_of(ctx, input, &object)?;
    if chunk.is_empty() {
        // The row path would scan the (empty) extent and filter nothing.
        ctx.counters.named_object_scans += 1;
        return Some(Value::Set(MultiSet::new()));
    }
    let filter = compile_scan_filter(pred, chunk)?;
    ctx.counters.named_object_scans += 1;
    let out = run_scan_filter(chunk, &filter, 0, chunk.len(), &mut ctx.counters);
    Some(Value::Set(out))
}

/// `rel_join`-over-two-`Named` hook.  `None` falls through to the row
/// path — where the plan's row hash kernel is still installed, so a
/// refused columnar join degrades to the guarded row hash join, then
/// to the nested loop.
pub(crate) fn try_join<'a>(
    e: &Expr,
    left: &Expr,
    right: &Expr,
    pred: &Pred,
    ctx: &mut EvalCtx<'a>,
) -> Option<Value> {
    let ChunkKernel::HashEquiJoin {
        left: lo,
        right: ro,
        left_key,
        right_key,
    } = kernel_for(e, ctx)?
    else {
        return None;
    };
    let lchunk = chunk_of(ctx, left, &lo)?;
    let rchunk = chunk_of(ctx, right, &ro)?;
    // The kernel never evaluates a predicate, so it is only sound when
    // the equi conjunct is the *whole* predicate.
    if !matches!(split_residual(pred, &left_key, &right_key), Some(r) if r.is_empty()) {
        return None;
    }
    // Try the annotated orientation, then the flip, like the row kernel.
    let out = columnar_hash_join(lchunk, rchunk, &left_key, &right_key, &mut ctx.counters)
        .or_else(|| columnar_hash_join(lchunk, rchunk, &right_key, &left_key, &mut ctx.counters))?;
    ctx.counters.named_object_scans += 2;
    Some(Value::Set(out))
}

/// `GRP`-over-`Named` hook, for grouping keys of the form `INPUT.f`.
pub(crate) fn try_group<'a>(
    e: &Expr,
    input: &Expr,
    by: &Expr,
    ctx: &mut EvalCtx<'a>,
) -> Option<Value> {
    let ChunkKernel::Group { object, key } = kernel_for(e, ctx)? else {
        return None;
    };
    if bare_extract(by) != Some(key.as_str()) {
        return None; // stale annotation
    }
    let chunk = chunk_of(ctx, input, &object)?;
    if !chunk.is_empty() && chunk.col(&key).is_none() {
        return None; // refuse before charging anything
    }
    ctx.counters.named_object_scans += 1;
    let groups = columnar_group(chunk, &key, &mut ctx.counters).expect("key column checked");
    Some(Value::Set(groups))
}

/// `DE`-over-`Named` hook.
pub(crate) fn try_distinct<'a>(e: &Expr, input: &Expr, ctx: &mut EvalCtx<'a>) -> Option<Value> {
    let ChunkKernel::Distinct { object } = kernel_for(e, ctx)? else {
        return None;
    };
    let chunk = chunk_of(ctx, input, &object)?;
    ctx.counters.named_object_scans += 1;
    Some(Value::Set(columnar_distinct(chunk, &mut ctx.counters)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ChunkedCatalog;
    use crate::eval::evaluate;
    use crate::physical::{evaluate_physical, PhysChoice, PhysOp, PhysicalPlan};
    use crate::profile::NodePath;
    use excess_types::{ObjectStore, TypeRegistry};
    use std::collections::BTreeMap;

    fn extent(rows: Vec<(Value, u64)>) -> Value {
        let mut s = MultiSet::new();
        for (v, n) in rows {
            s.insert_n(v, n);
        }
        Value::Set(s)
    }

    fn students() -> Value {
        let mut rows = Vec::new();
        for i in 0..40i32 {
            let dept = match i % 7 {
                0 => Value::dne(),
                3 => Value::unk(),
                d => Value::int(d),
            };
            rows.push((
                Value::tuple([
                    ("sname", Value::str(format!("s{i:02}"))),
                    ("sdept", dept),
                    ("sgpa", Value::int(i % 5)),
                ]),
                (i as u64 % 3) + 1,
            ));
        }
        extent(rows)
    }

    fn catalogs() -> (HashMap<String, Value>, ChunkedCatalog) {
        let mut rows = ChunkedCatalog::default();
        rows.put("S", students());
        let mut emps = Vec::new();
        for i in 0..30i32 {
            emps.push((
                Value::tuple([
                    ("ename", Value::str(format!("s{:02}", i % 40))),
                    ("esal", Value::int(1000 + i)),
                ]),
                1,
            ));
        }
        rows.put("E", extent(emps));
        let plain: HashMap<String, Value> = rows.objects.clone().into_iter().collect();
        (plain, rows)
    }

    fn annotated(plan: &Expr, op: PhysOp) -> PhysicalPlan {
        let mut choices: BTreeMap<NodePath, PhysChoice> = BTreeMap::new();
        choices.insert(
            Vec::new(),
            PhysChoice {
                op,
                why: "test".into(),
                est_rows: None,
            },
        );
        PhysicalPlan {
            logical: plan.clone(),
            choices,
            elided_guards: Default::default(),
        }
    }

    fn run_row(plan: &Expr, cat: &dyn crate::catalog::Catalog) -> (Value, Counters) {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, cat);
        let v = evaluate(plan, &mut ctx).expect("row eval");
        (v, ctx.counters)
    }

    fn run_columnar(pp: &PhysicalPlan, cat: &dyn crate::catalog::Catalog) -> (Value, Counters) {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, cat);
        let v = evaluate_physical(pp, &mut ctx).expect("columnar eval");
        (v, ctx.counters)
    }

    #[test]
    fn scan_is_canon_and_counter_identical_including_nulls() {
        let (plain, chunked) = catalogs();
        // sdept has dne (→ F, dropped) and unk (→ unk occurrence) cells,
        // plus a second conjunct exercising the short-circuit accounting.
        let pred = Pred::cmp(Expr::input().extract("sdept"), CmpOp::Eq, Expr::int(2)).and(
            Pred::cmp(Expr::input().extract("sgpa"), CmpOp::Ge, Expr::int(1)),
        );
        let plan = Expr::named("S").select(pred);
        let (vr, cr) = run_row(&plan, &plain);
        let pp = annotated(&plan, PhysOp::ColumnarScan { object: "S".into() });
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc, "columnar scan changed the result");
        assert_eq!(cr, cc, "columnar scan changed the counters");
    }

    #[test]
    fn join_is_canon_and_counter_identical() {
        let (plain, chunked) = catalogs();
        let pred = Pred::cmp(
            Expr::input().extract("sname"),
            CmpOp::Eq,
            Expr::input().extract("ename"),
        );
        let plan = Expr::named("S").rel_join(Expr::named("E"), pred);
        let (vr, _) = run_row(&plan, &plain);
        let pp = annotated(
            &plan,
            PhysOp::ColumnarHashEquiJoin {
                left: "S".into(),
                right: "E".into(),
                left_key: "sname".into(),
                right_key: "ename".into(),
            },
        );
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc, "columnar join changed the result");
        // Counter parity target is the row *hash* kernel on the same plan.
        let row_hash = annotated(
            &plan,
            PhysOp::HashEquiJoin {
                left_key: "sname".into(),
                right_key: "ename".into(),
            },
        );
        let (vh, ch) = run_columnar(&row_hash, &plain);
        assert_eq!(vh, vc);
        assert_eq!(ch, cc, "columnar join must charge like the row hash kernel");
    }

    #[test]
    fn group_and_distinct_match_the_row_path() {
        let (plain, chunked) = catalogs();
        let g = Expr::named("S").group_by(Expr::input().extract("sdept"));
        let (vr, cr) = run_row(&g, &plain);
        let pp = annotated(
            &g,
            PhysOp::ColumnarHashGroup {
                object: "S".into(),
                key: "sdept".into(),
            },
        );
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc, "columnar GRP changed the result");
        assert_eq!(cr, cc, "columnar GRP changed the counters");

        let d = Expr::named("S").dup_elim();
        let (vr, cr) = run_row(&d, &plain);
        let pp = annotated(&d, PhysOp::ColumnarHashDistinct { object: "S".into() });
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc, "columnar DE changed the result");
        assert_eq!(cr, cc, "columnar DE changed the counters");
    }

    #[test]
    fn missing_chunk_or_uncompilable_pred_falls_back_silently() {
        let (plain, _) = catalogs();
        // Catalog without chunks: the annotated plan must still run, via
        // the row path, with row-path counters.
        let pred = Pred::cmp(Expr::input().extract("sgpa"), CmpOp::Ge, Expr::int(2));
        let plan = Expr::named("S").select(pred.clone());
        let (vr, cr) = run_row(&plan, &plain);
        let pp = annotated(&plan, PhysOp::ColumnarScan { object: "S".into() });
        let (vc, cc) = run_columnar(&pp, &plain);
        assert_eq!(vr, vc);
        assert_eq!(cr, cc);

        // `in` refuses to compile: with chunks present the kernel must
        // still fall back, because compiled filters have to be total.
        let (_, chunked) = catalogs();
        let inp = Pred::cmp(
            Expr::input().extract("sgpa"),
            CmpOp::In,
            Expr::Const(Value::set([Value::int(1), Value::int(2)])),
        );
        let plan = Expr::named("S").select(inp);
        let (vr, cr) = run_row(&plan, &plain);
        let pp = annotated(&plan, PhysOp::ColumnarScan { object: "S".into() });
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc);
        assert_eq!(cr, cc);
    }

    #[test]
    fn nullable_key_refuses_columnar_join_but_still_answers() {
        let (plain, chunked) = catalogs();
        // sdept is nullable: the chunk guard must refuse, and the row
        // hash kernel's own guard refuses too, landing on the nested loop.
        let pred = Pred::cmp(
            Expr::input().extract("sdept"),
            CmpOp::Eq,
            Expr::input().extract("esal"),
        );
        let plan = Expr::named("S").rel_join(Expr::named("E"), pred);
        let (vr, cr) = run_row(&plan, &plain);
        let pp = annotated(
            &plan,
            PhysOp::ColumnarHashEquiJoin {
                left: "S".into(),
                right: "E".into(),
                left_key: "sdept".into(),
                right_key: "esal".into(),
            },
        );
        let (vc, cc) = run_columnar(&pp, &chunked);
        assert_eq!(vr, vc);
        assert_eq!(cr, cc, "full fallback must charge nested-loop counters");
    }
}
