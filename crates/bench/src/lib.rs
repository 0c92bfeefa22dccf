//! # excess-bench — shared fixtures for the paper's figure experiments
//!
//! Plan builders and data generators used by the `report` binary that
//! prints the EXPERIMENTS.md rows, the root tests and the `served-retrieve`
//! benchmark.  Each builder constructs a *specific figure's query tree* so
//! the report compares exactly the plans the paper draws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod example1;
pub mod example2;
pub mod server_mix;

use excess_db::Database;
use excess_types::{SchemaType, Value};

/// A bench database preloaded with an array object `BigArr` of `len`
/// references (Figure 3 scaling) and nothing else.
pub fn array_db(len: usize) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.execute("define type Cell: (name: char[], salary: int4)")
        .unwrap();
    let cell_ty = db.registry().lookup("Cell").unwrap();
    let refs: Vec<Value> = (0..len)
        .map(|i| {
            let v = Value::tuple([
                ("name", Value::str(format!("n{i}"))),
                ("salary", Value::int(i as i32)),
            ]);
            Value::Ref(db.store_mut().create_unchecked(cell_ty, v))
        })
        .collect();
    db.put_object(
        "BigArr",
        SchemaType::array(SchemaType::reference("Cell")),
        Value::array(refs),
    );
    db
}

/// Milliseconds spent running `f` once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median-of-n timing (milliseconds) for the report binary.
pub fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..n.max(1)).map(|_| time_once(&mut f).1).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
