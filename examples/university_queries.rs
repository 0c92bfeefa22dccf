//! Every query from the paper, over the Figure 1 university database:
//! Section 2.2's two examples, Figure 3, Figure 4, and Section 5's two
//! optimization examples — with initial plan, optimized plan, and result.
//!
//! ```sh
//! cargo run --release --example university_queries
//! ```

use excess::db::Database;
use excess::workload::{generate, queries, UniversityParams};

fn show(db: &mut Database, title: &str, src: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("== {title}");
    println!("{}", src.trim());
    // Multi-statement inputs (range decls + retrieve) run through execute;
    // for the plan display use the final retrieve.
    let stmts = excess::lang::parse_program(src)?;
    for s in &stmts[..stmts.len() - 1] {
        db.run_stmt(s)?;
    }
    let excess::lang::ast::Stmt::Retrieve(r) = &stmts[stmts.len() - 1] else {
        return Err("expected a retrieve".into());
    };
    let (plan, _) = db.translate(r)?;
    println!("\n  initial plan:\n    {plan}");
    // The memo journal: every alternative a rule contributed to a group
    // (the path is the group id), whether or not the winner uses it.
    let (optimized, journal) = db.optimize_plan_journaled(&plan);
    for step in &journal.steps {
        println!(
            "  rule fired: {} at {:?} (est. cost {:.0} → {:.0})",
            step.rule, step.path, step.cost_before, step.cost_after
        );
    }
    if optimized != plan {
        println!("  optimized plan:\n    {optimized}");
    } else {
        println!("  (optimizer kept the initial plan)");
    }
    let out = db.run_plan(&optimized)?;
    let rendered = out.to_string();
    let clipped = if rendered.len() > 300 {
        format!("{}… <clipped, {} chars>", &rendered[..300], rendered.len())
    } else {
        rendered
    };
    println!("  counters: {}", db.last_counters());
    println!("  result:   {clipped}\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // floors = 5 so Example 2's `floor = 5` predicate matches.
    let p = UniversityParams {
        floors: 5,
        ..Default::default()
    };
    let mut db = generate(&p)?.db;

    show(
        &mut db,
        "Section 2.2 — kids of 2nd-floor employees",
        queries::SECTION2_KIDS,
    )?;
    show(
        &mut db,
        "Section 2.2 — correlated min-age aggregate",
        queries::SECTION2_MIN_AGE,
    )?;
    show(&mut db, "Figure 3 — TopTen[5]", queries::FIGURE3)?;
    show(&mut db, "Figure 4 — functional join", queries::FIGURE4)?;
    show(&mut db, "Example 1 (Figures 6–8)", queries::EXAMPLE1)?;
    show(&mut db, "Example 2 (Figures 9–11)", queries::EXAMPLE2)?;

    // And the other direction of the equipollence theorem: take Figure 4's
    // algebra tree back to EXCESS source.
    let plan = db.plan_for(queries::FIGURE4)?;
    println!("== Equipollence, direction ii — Figure 4's plan decompiled");
    println!("{}", excess::lang::decompile(&plan, db.registry())?);

    Ok(())
}
