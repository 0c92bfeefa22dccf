//! Structured spans: one tree per query, exportable as JSON or as
//! Chrome trace-event format (load in `chrome://tracing` / Perfetto).
//!
//! A [`Span`] is a named interval with microsecond start/duration,
//! string metadata, numeric attributes, and children.  The database assembles one [`QueryTrace`] per query:
//!
//! ```text
//! query
//! ├── parse
//! ├── infer
//! ├── verify
//! ├── optimize
//! │   ├── rewrite:de-pushdown       (one child per accepted step)
//! │   └── refused:idempotent-σ      (one child per refused step)
//! ├── lower
//! │   └── choose:[0.1] hash-join    (one child per physical choice)
//! └── execute
//!     └── op:DE [0]                 (profile nodes; carry self-counters
//!         └── op:SET_APPLY [0.0]     in `nums` so they telescope)
//! ```
//!
//! The numeric attributes are load-bearing: execute-subtree spans whose
//! `nums` carry per-node *self* counters sum exactly to the query's
//! total counters — the same telescoping invariant the PR 1 profiler
//! guarantees, re-exposed here so `tests/telemetry.rs` can assert it on
//! the span tree alone.

use excess_core::json::{escape_json, quote_json};

/// One named interval in a query's life.
#[derive(Debug, Clone)]
pub struct Span {
    /// Human-readable name (`parse`, `op:DE [0]`, …).
    pub name: String,
    /// Category for trace viewers (`phase`, `rewrite`, `lower`, `op`).
    pub cat: String,
    /// Start offset in microseconds from the trace origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// String attributes (rule names, reasons, operator labels).
    pub meta: Vec<(String, String)>,
    /// Numeric attributes (self-counters, row counts).
    pub nums: Vec<(String, u64)>,
    /// Child spans, nested strictly inside this one.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span with the given name/category/interval.
    pub fn new(
        name: impl Into<String>,
        cat: impl Into<String>,
        start_us: u64,
        dur_us: u64,
    ) -> Self {
        Span {
            name: name.into(),
            cat: cat.into(),
            start_us,
            dur_us,
            meta: Vec::new(),
            nums: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attach a string attribute (builder style).
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Attach a numeric attribute (builder style).
    pub fn with_num(mut self, key: impl Into<String>, value: u64) -> Self {
        self.nums.push((key.into(), value));
        self
    }

    /// Number of spans in this subtree, including self.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// True when the subtree is just this span.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Depth-first preorder visit of the subtree.
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Span)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Sum of a named numeric attribute over the whole subtree.
    pub fn sum_num(&self, key: &str) -> u64 {
        let mut total = 0u64;
        self.walk(&mut |s| {
            for (k, v) in &s.nums {
                if k == key {
                    total += v;
                }
            }
        });
        total
    }

    /// Find the first span in preorder whose name matches.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn to_json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"start_us\":{},\"dur_us\":{}",
            quote_json(&self.name),
            quote_json(&self.cat),
            self.start_us,
            self.dur_us
        ));
        if !self.meta.is_empty() || !self.nums.is_empty() {
            out.push_str(",\"args\":{");
            let mut parts = Vec::with_capacity(self.meta.len() + self.nums.len());
            for (k, v) in &self.meta {
                parts.push(format!("{}:{}", quote_json(k), quote_json(v)));
            }
            for (k, v) in &self.nums {
                parts.push(format!("{}:{v}", quote_json(k)));
            }
            out.push_str(&parts.join(","));
            out.push('}');
        }
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json_into(out);
        }
        out.push_str("]}");
    }

    /// Nested JSON for the subtree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_json_into(&mut out);
        out
    }

    fn to_chrome_into(&self, pid: u32, out: &mut Vec<String>) {
        let mut args = Vec::with_capacity(self.meta.len() + self.nums.len());
        for (k, v) in &self.meta {
            args.push(format!("{}:{}", quote_json(k), quote_json(v)));
        }
        for (k, v) in &self.nums {
            args.push(format!("{}:{v}", quote_json(k)));
        }
        out.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":0,\"args\":{{{}}}}}",
            escape_json(&self.name),
            escape_json(&self.cat),
            self.start_us,
            self.dur_us,
            args.join(",")
        ));
        for c in &self.children {
            c.to_chrome_into(pid, out);
        }
    }
}

/// The span tree for one query, plus identifying metadata.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The query text or plan label.
    pub query: String,
    /// FNV-1a hash of the final physical plan's debug rendering.
    pub plan_hash: u64,
    /// The root `query` span.
    pub root: Span,
}

impl QueryTrace {
    /// Total spans in the trace.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// True when the trace is a single span.
    pub fn is_empty(&self) -> bool {
        self.root.is_empty()
    }

    /// `{"query":…,"plan_hash":"…","root":{…}}`, the hash as 16 hex
    /// digits, as a query response writes it (a JSON number past 2^53
    /// does not survive a reader that holds numbers as `f64`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\":{},\"plan_hash\":\"{:016x}\",\"root\":{}}}",
            quote_json(&self.query),
            self.plan_hash,
            self.root.to_json()
        )
    }

    /// Chrome trace-event format: a JSON array of complete (`"ph":"X"`)
    /// events, one per span, loadable in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quote_json(&format!("excess: {}", self.query))
        )];
        self.root.to_chrome_into(1, &mut events);
        format!("[{}]", events.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::json::parse_json;

    fn sample() -> QueryTrace {
        let mut root = Span::new("query", "phase", 0, 100);
        root.children.push(Span::new("parse", "phase", 0, 10));
        let mut exec = Span::new("execute", "phase", 10, 90);
        exec.children
            .push(Span::new("op:DE [0]", "op", 12, 40).with_num("derefs", 7));
        exec.children
            .push(Span::new("op:SCAN [0.0]", "op", 12, 20).with_num("derefs", 3));
        root.children.push(exec);
        QueryTrace {
            query: "retrieve x".into(),
            plan_hash: 42,
            root,
        }
    }

    #[test]
    fn len_counts_the_subtree() {
        assert_eq!(sample().len(), 5);
    }

    #[test]
    fn sum_num_telescopes_over_the_subtree() {
        let t = sample();
        assert_eq!(t.root.sum_num("derefs"), 10);
        assert_eq!(t.root.find("execute").unwrap().sum_num("derefs"), 10);
        assert_eq!(t.root.find("parse").unwrap().sum_num("derefs"), 0);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let t = sample();
        let v = parse_json(&t.to_json()).unwrap();
        assert_eq!(v.get("query").unwrap().as_str(), Some("retrieve x"));
        assert_eq!(
            v.get("plan_hash").unwrap().as_str(),
            Some("000000000000002a")
        );
        let root = v.get("root").unwrap();
        assert_eq!(root.get("name").unwrap().as_str(), Some("query"));
        assert_eq!(root.get("children").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span_plus_metadata() {
        let t = sample();
        let v = parse_json(&t.to_chrome_trace()).unwrap();
        let events = v.as_arr().unwrap();
        assert_eq!(events.len(), 1 + t.len());
        // All complete events carry the required trace-event keys.
        for e in &events[1..] {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
        // Numeric attributes survive into args.
        let de = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("op:DE [0]"))
            .unwrap();
        assert_eq!(
            de.get("args").unwrap().get("derefs").unwrap().as_f64(),
            Some(7.0)
        );
    }
}
