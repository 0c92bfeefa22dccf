//! Human-friendly rendering of query results: multisets of tuples become
//! aligned tables (duplicates shown with a cardinality column), everything
//! else falls back to the value's display form.

use excess_types::Value;

/// Render a result for terminal display.
pub fn format_result(v: &Value) -> String {
    match try_table(v) {
        Some(t) => t,
        None => v.to_string(),
    }
}

/// Render a multiset of same-shaped tuples as a table; `None` when the
/// value is not that shape.
pub(crate) fn try_table(v: &Value) -> Option<String> {
    let set = v.as_set()?;
    if set.is_empty() {
        return Some("(empty)".to_string());
    }
    // All distinct elements must be tuples with identical field names.
    let mut header: Option<Vec<String>> = None;
    for (e, _) in set.iter_counted() {
        let t = e.as_tuple()?;
        let names: Vec<String> = t.field_names().map(str::to_owned).collect();
        match &header {
            None => header = Some(names),
            Some(h) if *h == names => {}
            _ => return None,
        }
    }
    let header = header?;
    let show_card = set.iter_counted().any(|(_, c)| c > 1);
    let mut cols: Vec<Vec<String>> = Vec::new();
    let mut head: Vec<String> = header.clone();
    if show_card {
        head.push("×".to_string());
    }
    cols.push(head);
    for (e, c) in set.iter_counted() {
        let t = e.as_tuple().expect("checked above");
        let mut row: Vec<String> = header
            .iter()
            .map(|n| t.get(n).map(cell).unwrap_or_default())
            .collect();
        if show_card {
            row.push(c.to_string());
        }
        cols.push(row);
    }
    let ncols = cols[0].len();
    let widths: Vec<usize> = (0..ncols)
        .map(|i| cols.iter().map(|r| r[i].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (ri, row) in cols.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}", w = *w))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if ri == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&rule.join("  "));
            out.push('\n');
        }
    }
    out.push_str(&format!("({} rows)\n", set.len()));
    Some(out)
}

fn cell(v: &Value) -> String {
    match v {
        Value::Scalar(excess_types::Scalar::Char(s)) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_become_a_table() {
        let v = Value::set([
            Value::tuple([("name", Value::str("Ada")), ("salary", Value::int(90))]),
            Value::tuple([("name", Value::str("Bo")), ("salary", Value::int(1))]),
        ]);
        let t = try_table(&v).unwrap();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "name  salary");
        assert!(lines[1].starts_with("----"));
        assert!(lines.iter().any(|l| l.starts_with("Ada   90")), "{t}");
        assert!(t.ends_with("(2 rows)\n"));
    }

    #[test]
    fn duplicates_get_a_cardinality_column() {
        let row = Value::tuple([("k", Value::int(1))]);
        let mut s = excess_types::MultiSet::new();
        s.insert_n(row, 3);
        let t = try_table(&Value::Set(s)).unwrap();
        assert!(t.lines().next().unwrap().contains('×'), "{t}");
        assert!(t.contains('3'), "{t}");
        assert!(t.ends_with("(3 rows)\n"));
    }

    #[test]
    fn non_tabular_values_fall_back() {
        assert!(try_table(&Value::int(5)).is_none());
        assert!(try_table(&Value::set([Value::int(1)])).is_none());
        // Mixed shapes fall back too.
        let mixed = Value::set([
            Value::tuple([("a", Value::int(1))]),
            Value::tuple([("b", Value::int(2))]),
        ]);
        assert!(try_table(&mixed).is_none());
        assert_eq!(format_result(&Value::int(5)), "5");
    }

    #[test]
    fn empty_sets_say_so() {
        assert_eq!(try_table(&Value::set([])).unwrap(), "(empty)");
    }
}
