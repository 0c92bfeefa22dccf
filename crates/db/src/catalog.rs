//! The catalog of named, top-level, persistent objects, including the
//! virtual per-exact-type extent objects backing Section 4's indexed
//! dispatch.

use excess_core::catalog::Catalog;
use excess_core::infer::SchemaCatalog;
use excess_types::{Chunk, SchemaType, Value};
use std::collections::HashMap;

/// One named object: its declared schema and current value.
#[derive(Debug, Clone)]
pub struct NamedObject {
    /// Declared schema.
    pub schema: SchemaType,
    /// Current value.
    pub value: Value,
}

/// All named objects plus materialised extent views (`P::exact::T`),
/// with a cache of columnar chunks for extents the columnar pipeline has
/// encoded.  Any write to an object — [`DbCatalog::put`],
/// [`DbCatalog::value_mut`], [`DbCatalog::remove`] — invalidates its
/// chunk, so a cached chunk always decodes to the current value.
#[derive(Debug, Clone, Default)]
pub struct DbCatalog {
    objects: HashMap<String, NamedObject>,
    chunks: HashMap<String, Chunk>,
}

impl DbCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register or replace an object.
    pub fn put(&mut self, name: &str, schema: SchemaType, value: Value) {
        self.chunks.remove(name);
        self.objects
            .insert(name.to_string(), NamedObject { schema, value });
    }

    /// Current value, if present.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.objects.get(name).map(|o| &o.value)
    }

    /// Mutable value access (updates).  Conservatively drops any cached
    /// chunk for the object — the caller may rewrite the value through
    /// the returned reference.
    pub fn value_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.chunks.remove(name);
        self.objects.get_mut(name).map(|o| &mut o.value)
    }

    /// Declared schema, if present.
    pub fn schema(&self, name: &str) -> Option<&SchemaType> {
        self.objects.get(name).map(|o| &o.schema)
    }

    /// Does the object exist?
    pub fn contains(&self, name: &str) -> bool {
        self.objects.contains_key(name)
    }

    /// Remove an object (and any of its extent views).
    pub fn remove(&mut self, name: &str) {
        self.objects.remove(name);
        self.chunks.remove(name);
        let prefix = format!("{name}::exact::");
        self.objects.retain(|k, _| !k.starts_with(&prefix));
        self.chunks.retain(|k, _| !k.starts_with(&prefix));
    }

    /// Cached columnar chunk for an extent, if one has been encoded since
    /// the object last changed.
    pub fn chunk(&self, name: &str) -> Option<&Chunk> {
        self.chunks.get(name)
    }

    /// Install a columnar chunk for an object.  The caller is responsible
    /// for the chunk decoding to the object's current value — use
    /// [`Database::ensure_chunks_for`](crate::Database::ensure_chunks_for)
    /// rather than calling this directly.
    pub fn set_chunk(&mut self, name: &str, chunk: Chunk) {
        self.chunks.insert(name.to_string(), chunk);
    }

    /// Iterate the names that currently have a cached columnar chunk
    /// (extent views included) — what the session layer's committer uses
    /// to re-warm chunks after a write batch, so published generations
    /// keep serving the columnar kernels.
    pub fn chunked_names(&self) -> impl Iterator<Item = &str> {
        self.chunks.keys().map(String::as_str)
    }

    /// Iterate user-visible object names (extent views excluded).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.all_names().filter(|n| !is_extent_view(n))
    }

    /// Iterate every object name, extent views included.
    pub fn all_names(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }
}

/// The name of `object`'s per-exact-type extent view for type `ty`.
pub fn extent_view_name(object: &str, ty: &str) -> String {
    format!("{object}::exact::{ty}")
}

/// Is `name` a per-exact-type extent view (see [`extent_view_name`])?
pub fn is_extent_view(name: &str) -> bool {
    name.contains("::exact::")
}

impl Catalog for DbCatalog {
    fn get_object(&self, name: &str) -> Option<&Value> {
        self.value(name)
    }

    fn get_chunk(&self, name: &str) -> Option<&Chunk> {
        self.chunks.get(name)
    }
}

impl SchemaCatalog for DbCatalog {
    fn object_schema(&self, name: &str) -> Option<SchemaType> {
        self.schema(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cloned catalog shares every value; writing through
    /// [`DbCatalog::value_mut`] copies the written object only, in the
    /// clone only.
    #[test]
    fn value_mut_on_a_clone_leaves_the_original_alone() {
        let ints = || Value::set([Value::int(1), Value::int(2)]);
        let mut original = DbCatalog::new();
        original.put("A", SchemaType::set(SchemaType::int4()), ints());
        original.put("B", SchemaType::set(SchemaType::int4()), ints());
        let mut clone = original.clone();
        let Some(Value::Set(a)) = clone.value_mut("A") else {
            panic!("A is a set");
        };
        a.insert(Value::int(3));
        assert_eq!(original.value("A"), Some(&ints()));
        assert_eq!(clone.value("A").unwrap().as_set().unwrap().len(), 3);
        let (theirs, ours) = (clone.value("B").unwrap(), original.value("B").unwrap());
        assert!(theirs.shares_storage_with(ours));
        assert!(!clone
            .value("A")
            .unwrap()
            .shares_storage_with(original.value("A").unwrap()));
    }
}
