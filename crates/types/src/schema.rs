//! Schemas: the structural half of a structure `(S, I)`.
//!
//! Section 3.1 defines a schema as a labelled digraph whose nodes are type
//! constructors ("set", "tup", "arr", "ref", "val") and whose edges denote
//! *component-of*, subject to four conditions:
//!
//! 1. (i) "val" nodes have no components;
//! 2. (ii) a node with no components is "val" or "tup" (the empty tuple type
//!    is allowed);
//! 3. (iii) "arr", "set", and "ref" nodes have exactly one component
//!    (homogeneity, modulo inheritance);
//! 4. (iv) `deref(S)` — the graph with edges out of "ref" nodes removed —
//!    must be a forest, so every schema cycle passes through a "ref" node.
//!
//! Two representations are provided:
//!
//! * [`SchemaType`] — the tree-with-symbolic-ref-targets form the engine
//!   works with.  Because a `ref` node's component is represented as a
//!   *type name* rather than an embedded subtree, condition (iv) holds by
//!   construction, and cyclic schemas (`Employee.manager: ref Employee`)
//!   are expressed naturally.
//! * [`SchemaGraph`] — the paper's explicit digraph, with a [`validate`]
//!   checker for conditions (i)–(iv).  Used to reproduce Figure 2 and to
//!   property-test the conditions.
//!
//! [`validate`]: SchemaGraph::validate

use crate::error::{Result, TypeError};
use crate::scalar::ScalarType;
use std::collections::HashMap;
use std::fmt;

/// The engine-facing schema: a tree whose `ref` leaves point at named types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchemaType {
    /// A "val" node of the given scalar type.
    Val(ScalarType),
    /// A "tup" node with named, ordered components.
    Tup(Vec<(String, SchemaType)>),
    /// A "set" node (multiset of the component type).
    Set(Box<SchemaType>),
    /// An "arr" node; `len` is `Some(n)` for EXTRA's fixed-length arrays
    /// (`array [1..n] of T`) and `None` for variable-length arrays.
    Arr {
        /// Element type.
        elem: Box<SchemaType>,
        /// Fixed length, if any.
        len: Option<usize>,
    },
    /// A "ref" node whose single component is the named type (an OID in
    /// `Odom(name)` per Section 3.1 rule (v')).
    Ref(String),
    /// A use of a named type *by value* (nested-relational semantics:
    /// "subordinate entities are treated as values … unless prefaced by
    /// ref").  Resolved through the [`crate::types::TypeRegistry`].
    Named(String),
}

impl SchemaType {
    /// Shorthand: `int4`.
    pub fn int4() -> SchemaType {
        SchemaType::Val(ScalarType::Int4)
    }
    /// Shorthand: `float4`.
    pub fn float4() -> SchemaType {
        SchemaType::Val(ScalarType::Float4)
    }
    /// Shorthand: `char[]`.
    pub fn chars() -> SchemaType {
        SchemaType::Val(ScalarType::Char)
    }
    /// Shorthand: `bool`.
    pub fn boolean() -> SchemaType {
        SchemaType::Val(ScalarType::Bool)
    }
    /// Shorthand: `Date`.
    pub fn date() -> SchemaType {
        SchemaType::Val(ScalarType::Date)
    }
    /// Shorthand: `{ T }`.
    pub fn set(elem: SchemaType) -> SchemaType {
        SchemaType::Set(Box::new(elem))
    }
    /// Shorthand: variable-length `array of T`.
    pub fn array(elem: SchemaType) -> SchemaType {
        SchemaType::Arr {
            elem: Box::new(elem),
            len: None,
        }
    }
    /// Shorthand: fixed-length `array [1..n] of T`.
    pub fn fixed_array(elem: SchemaType, n: usize) -> SchemaType {
        SchemaType::Arr {
            elem: Box::new(elem),
            len: Some(n),
        }
    }
    /// Shorthand: `ref Name`.
    pub fn reference(name: impl Into<String>) -> SchemaType {
        SchemaType::Ref(name.into())
    }
    /// Shorthand: named type by value.
    pub fn named(name: impl Into<String>) -> SchemaType {
        SchemaType::Named(name.into())
    }
    /// Shorthand: tuple type.
    pub fn tuple<I, S>(fields: I) -> SchemaType
    where
        I: IntoIterator<Item = (S, SchemaType)>,
        S: Into<String>,
    {
        SchemaType::Tup(fields.into_iter().map(|(n, t)| (n.into(), t)).collect())
    }

    /// Names of all types this schema mentions (through `Ref`/`Named`).
    pub fn mentioned_types(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_mentions(&mut out);
        out
    }

    fn collect_mentions<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            SchemaType::Val(_) => {}
            SchemaType::Tup(fs) => fs.iter().for_each(|(_, t)| t.collect_mentions(out)),
            SchemaType::Set(t) => t.collect_mentions(out),
            SchemaType::Arr { elem, .. } => elem.collect_mentions(out),
            SchemaType::Ref(n) | SchemaType::Named(n) => out.push(n),
        }
    }
}

impl fmt::Display for SchemaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaType::Val(s) => write!(f, "{s}"),
            SchemaType::Tup(fs) => {
                f.write_str("(")?;
                for (i, (n, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}: {t}")?;
                }
                f.write_str(")")
            }
            SchemaType::Set(t) => write!(f, "{{ {t} }}"),
            SchemaType::Arr { elem, len: None } => write!(f, "array of {elem}"),
            SchemaType::Arr { elem, len: Some(n) } => write!(f, "array [1..{n}] of {elem}"),
            SchemaType::Ref(n) => write!(f, "ref {n}"),
            SchemaType::Named(n) => write!(f, "{n}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit digraph form (the paper's formal definition, used in Figure 2)
// ---------------------------------------------------------------------------

/// Node labels of the schema digraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Multiset constructor.
    Set,
    /// Tuple constructor.
    Tup,
    /// Array constructor.
    Arr,
    /// Reference constructor.
    Ref,
    /// Scalar leaf.
    Val,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeKind::Set => "set",
            NodeKind::Tup => "tup",
            NodeKind::Arr => "arr",
            NodeKind::Ref => "ref",
            NodeKind::Val => "val",
        })
    }
}

/// A node of a [`SchemaGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// Constructor label.
    pub kind: NodeKind,
    /// Unique type name ("Every node has a unique name").
    pub name: String,
}

/// An edge `from → to`: `to` is a component of `from`.  Edges out of "tup"
/// nodes carry the component (field) name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Parent node index.
    pub from: usize,
    /// Component node index.
    pub to: usize,
    /// Field name for tuple components.
    pub field: Option<String>,
}

/// The paper's schema digraph `S = (V, E)` with a distinguished root.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    /// Labelled vertices.
    pub nodes: Vec<GraphNode>,
    /// Component-of edges.
    pub edges: Vec<GraphEdge>,
    /// Index of the distinguished root node.
    pub root: usize,
}

impl SchemaGraph {
    /// Add a node, returning its index.
    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> usize {
        self.nodes.push(GraphNode {
            kind,
            name: name.into(),
        });
        self.nodes.len() - 1
    }

    /// Add a component edge.
    fn add_edge(&mut self, from: usize, to: usize, field: Option<&str>) {
        self.edges.push(GraphEdge {
            from,
            to,
            field: field.map(str::to_owned),
        });
    }

    /// Out-edges of node `i`.
    fn components(&self, i: usize) -> impl Iterator<Item = &GraphEdge> {
        self.edges.iter().filter(move |e| e.from == i)
    }

    /// Check conditions (i)–(iv) of Section 3.1 plus name uniqueness.
    pub fn validate(&self) -> Result<()> {
        // Name uniqueness.
        let mut seen = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(_prev) = seen.insert(&n.name, i) {
                return Err(TypeError::SchemaCondition {
                    condition: "name-uniqueness",
                    detail: format!("duplicate node name `{}`", n.name),
                });
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let out = self.components(i).count();
            match n.kind {
                // (i) val nodes have no components.
                NodeKind::Val if out != 0 => {
                    return Err(TypeError::SchemaCondition {
                        condition: "(i)",
                        detail: format!("val node `{}` has {out} components", n.name),
                    });
                }
                // (iii) arr/set/ref nodes have exactly one component.
                NodeKind::Arr | NodeKind::Set | NodeKind::Ref if out != 1 => {
                    return Err(TypeError::SchemaCondition {
                        condition: "(iii)",
                        detail: format!("{} node `{}` has {out} components", n.kind, n.name),
                    });
                }
                _ => {}
            }
            // (ii) a node with no components is val or tup.
            if out == 0 && !matches!(n.kind, NodeKind::Val | NodeKind::Tup) {
                return Err(TypeError::SchemaCondition {
                    condition: "(ii)",
                    detail: format!("{} node `{}` has no components", n.kind, n.name),
                });
            }
        }
        // (iv) deref(S) must be a forest: drop edges out of ref nodes, then
        // require every node to have at most one parent and no cycles.
        let deref_edges: Vec<&GraphEdge> = self
            .edges
            .iter()
            .filter(|e| self.nodes[e.from].kind != NodeKind::Ref)
            .collect();
        let mut parents = vec![0usize; self.nodes.len()];
        for e in &deref_edges {
            parents[e.to] += 1;
            if parents[e.to] > 1 {
                return Err(TypeError::SchemaCondition {
                    condition: "(iv)",
                    detail: format!(
                        "node `{}` has two parents in deref(S)",
                        self.nodes[e.to].name
                    ),
                });
            }
        }
        // Cycle detection by iterative leaf-stripping (Kahn) on deref(S).
        let mut indeg = parents;
        let mut queue: Vec<usize> = (0..self.nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop() {
            visited += 1;
            for e in deref_edges.iter().filter(|e| e.from == i) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if visited != self.nodes.len() {
            return Err(TypeError::SchemaCondition {
                condition: "(iv)",
                detail: "deref(S) contains a cycle".to_string(),
            });
        }
        Ok(())
    }

    /// Build the digraph for a [`SchemaType`] tree.  `ref` nodes get a
    /// synthetic "val"-like leaf standing for the referenced type (the
    /// target lives in the registry, not in this structure's graph), which
    /// matches the paper's picture in Figure 2 where the ref component is
    /// drawn as a scalar.
    pub fn from_schema_type(root_name: &str, ty: &SchemaType) -> SchemaGraph {
        let mut g = SchemaGraph::default();
        let mut counter = 0usize;
        let root = build(&mut g, root_name, ty, &mut counter);
        g.root = root;
        return g;

        fn build(g: &mut SchemaGraph, name: &str, ty: &SchemaType, counter: &mut usize) -> usize {
            let fresh = |counter: &mut usize, base: &str| {
                *counter += 1;
                format!("{base}${counter}", base = base, counter = *counter)
            };
            match ty {
                SchemaType::Val(_) => g.add_node(NodeKind::Val, name),
                SchemaType::Named(n) => {
                    // By-value use of a named type: a leaf labelled with the
                    // name; expansion happens via the registry.
                    g.add_node(NodeKind::Tup, format!("{name}:{n}"))
                }
                SchemaType::Tup(fields) => {
                    let me = g.add_node(NodeKind::Tup, name);
                    for (fname, fty) in fields {
                        let child_name = fresh(counter, fname);
                        let c = build(g, &child_name, fty, counter);
                        g.add_edge(me, c, Some(fname));
                    }
                    me
                }
                SchemaType::Set(t) => {
                    let me = g.add_node(NodeKind::Set, name);
                    let child_name = fresh(counter, "elem");
                    let c = build(g, &child_name, t, counter);
                    g.add_edge(me, c, None);
                    me
                }
                SchemaType::Arr { elem, .. } => {
                    let me = g.add_node(NodeKind::Arr, name);
                    let child_name = fresh(counter, "elem");
                    let c = build(g, &child_name, elem, counter);
                    g.add_edge(me, c, None);
                    me
                }
                SchemaType::Ref(target) => {
                    let me = g.add_node(NodeKind::Ref, name);
                    let c = g.add_node(NodeKind::Val, fresh(counter, target));
                    g.add_edge(me, c, None);
                    me
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schema of Figure 2: a multiset of 3-tuples, each with a scalar
    /// field, an array-of-scalars field, and a ref-to-scalar field.
    fn figure2() -> SchemaType {
        SchemaType::set(SchemaType::tuple([
            ("f1", SchemaType::int4()),
            ("f2", SchemaType::array(SchemaType::int4())),
            ("f3", SchemaType::reference("Scalar")),
        ]))
    }

    #[test]
    fn figure2_graph_is_valid() {
        let g = SchemaGraph::from_schema_type("root", &figure2());
        g.validate().unwrap();
        assert_eq!(g.nodes[g.root].kind, NodeKind::Set);
    }

    #[test]
    fn condition_i_val_with_component_rejected() {
        let mut g = SchemaGraph::default();
        let v = g.add_node(NodeKind::Val, "v");
        let w = g.add_node(NodeKind::Val, "w");
        g.add_edge(v, w, None);
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            TypeError::SchemaCondition {
                condition: "(i)",
                ..
            }
        ));
    }

    #[test]
    fn condition_ii_childless_set_rejected() {
        let mut g = SchemaGraph::default();
        g.add_node(NodeKind::Set, "s");
        let err = g.validate().unwrap_err();
        // A childless set violates (iii) first (exactly one component).
        assert!(matches!(err, TypeError::SchemaCondition { .. }));
    }

    #[test]
    fn empty_tuple_type_is_allowed() {
        let mut g = SchemaGraph::default();
        g.add_node(NodeKind::Tup, "unit");
        g.validate().unwrap();
    }

    #[test]
    fn condition_iii_two_component_set_rejected() {
        let mut g = SchemaGraph::default();
        let s = g.add_node(NodeKind::Set, "s");
        let a = g.add_node(NodeKind::Val, "a");
        let b = g.add_node(NodeKind::Val, "b");
        g.add_edge(s, a, None);
        g.add_edge(s, b, None);
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            TypeError::SchemaCondition {
                condition: "(iii)",
                ..
            }
        ));
    }

    #[test]
    fn condition_iv_cycle_without_ref_rejected() {
        let mut g = SchemaGraph::default();
        let t1 = g.add_node(NodeKind::Tup, "t1");
        let t2 = g.add_node(NodeKind::Tup, "t2");
        g.add_edge(t1, t2, Some("a"));
        g.add_edge(t2, t1, Some("b"));
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            TypeError::SchemaCondition {
                condition: "(iv)",
                ..
            }
        ));
    }

    #[test]
    fn condition_iv_cycle_through_ref_allowed() {
        // Employee.manager: ref Employee — the cycle passes through a ref
        // node, so deref(S) is a forest.
        let mut g = SchemaGraph::default();
        let emp = g.add_node(NodeKind::Tup, "Employee");
        let mgr = g.add_node(NodeKind::Ref, "manager");
        g.add_edge(emp, mgr, Some("manager"));
        g.add_edge(mgr, emp, None);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = SchemaGraph::default();
        g.add_node(NodeKind::Tup, "x");
        g.add_node(NodeKind::Tup, "x");
        assert!(g.validate().is_err());
    }

    #[test]
    fn shared_subtree_in_deref_rejected() {
        // Two tuples sharing a component by value: not a forest.
        let mut g = SchemaGraph::default();
        let a = g.add_node(NodeKind::Tup, "a");
        let b = g.add_node(NodeKind::Tup, "b");
        let shared = g.add_node(NodeKind::Val, "shared");
        g.add_edge(a, shared, Some("x"));
        g.add_edge(b, shared, Some("y"));
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            TypeError::SchemaCondition {
                condition: "(iv)",
                ..
            }
        ));
    }

    #[test]
    fn display_round_trip_reads_like_extra_ddl() {
        let t = figure2();
        assert_eq!(
            t.to_string(),
            "{ (f1: int4, f2: array of int4, f3: ref Scalar) }"
        );
        assert_eq!(
            SchemaType::fixed_array(SchemaType::reference("Employee"), 10).to_string(),
            "array [1..10] of ref Employee"
        );
    }

    #[test]
    fn mentioned_types_walks_everything() {
        let t = SchemaType::tuple([
            ("a", SchemaType::reference("Dept")),
            ("b", SchemaType::set(SchemaType::named("Person"))),
        ]);
        assert_eq!(t.mentioned_types(), vec!["Dept", "Person"]);
    }
}
