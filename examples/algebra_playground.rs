//! Working with the algebra directly: build query trees with the fluent
//! API, evaluate them, inspect work counters, transform them with the rule
//! engine, and decompile them back to EXCESS.
//!
//! ```sh
//! cargo run --example algebra_playground
//! ```

use excess::algebra::expr::{CmpOp, Expr, Func, Pred};
use excess::db::Database;
use excess::optimizer::{Optimizer, RuleCtx, Statistics};
use excess::types::{SchemaType, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.put_object(
        "Orders",
        SchemaType::set(SchemaType::tuple([
            ("item", SchemaType::chars()),
            ("qty", SchemaType::int4()),
            ("price", SchemaType::float4()),
        ])),
        Value::set((0..20).map(|i| {
            Value::tuple([
                ("item", Value::str(format!("item{}", i % 4))),
                ("qty", Value::int(1 + i % 3)),
                ("price", Value::float(9.99 + f64::from(i))),
            ])
        })),
    );

    // σ_{qty ≥ 2} then π item — built with the fluent constructors.
    let plan = Expr::named("Orders")
        .select(Pred::cmp(
            Expr::input().extract("qty"),
            CmpOp::Ge,
            Expr::int(2),
        ))
        .set_apply(Expr::input().extract("item"))
        .dup_elim();
    println!("plan:    {plan}");
    let out = db.run_plan(&plan)?;
    println!("result:  {out}");
    println!("work:    {}\n", db.last_counters());

    // Aggregates: revenue = sum of qty*price per order.
    let revenue = Expr::call(
        Func::Sum,
        vec![Expr::named("Orders").set_apply(Expr::call(
            Func::Mul,
            vec![Expr::input().extract("qty"), Expr::input().extract("price")],
        ))],
    );
    println!("revenue: {}\n", db.run_plan(&revenue)?);

    // Grouping: orders per item, then counts per group.
    let per_item = Expr::named("Orders")
        .group_by(Expr::input().extract("item"))
        .set_apply(Expr::call(Func::Count, vec![Expr::input()]));
    println!("order counts per item: {}\n", db.run_plan(&per_item)?);

    // One manual rewrite step: ask the engine for every applicable
    // transformation of the first plan and show a few.
    let stats = Statistics::new();
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = Optimizer::standard();
    println!("one-step rewrites of the first plan:");
    for (rule, alt) in opt.neighbors(&plan, &ctx).into_iter().take(4) {
        println!("  [{rule}]\n    {alt}");
    }
    let (best, run) = opt.optimize_memo_journaled(&plan, &ctx, &stats);
    println!("\nthe memo's journal:");
    for step in &run.journal.steps {
        println!(
            "  [{}] in g{} (est. cost {:.0} → {:.0})",
            step.rule, step.path[0], step.cost_before, step.cost_after
        );
    }
    println!(
        "memo best ({} alternatives examined):\n  {}",
        best.explored, best.plan
    );
    assert_eq!(db.run_plan(&best.plan)?, out);

    // Equipollence in action: the algebra tree as EXCESS text.
    println!(
        "\ndecompiled to EXCESS:\n  {}",
        excess::lang::decompile(&plan, db.registry())?
    );
    Ok(())
}
