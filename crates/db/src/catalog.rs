//! The catalog of named, top-level, persistent objects, including the
//! virtual per-exact-type extent objects backing Section 4's indexed
//! dispatch.

use excess_core::catalog::Catalog;
use excess_core::infer::SchemaCatalog;
use excess_types::{SchemaType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One named object: its declared schema and current value.
#[derive(Debug, Clone)]
pub struct NamedObject {
    /// Declared schema.
    pub schema: SchemaType,
    /// Current value.
    pub value: Value,
}

/// All named objects plus materialised extent views (`P::exact::T`).
///
/// `Clone` is a reference count: the name map is shared with the original
/// until one side writes.  Every mutator writes through
/// [`Arc::make_mut`], so the first write copies the map — names, schemas
/// and value handles, never the values themselves — once, for the writer.
#[derive(Debug, Clone, Default)]
pub struct DbCatalog {
    objects: Arc<HashMap<String, NamedObject>>,
}

impl DbCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register or replace an object.
    pub fn put(&mut self, name: &str, schema: SchemaType, value: Value) {
        Arc::make_mut(&mut self.objects).insert(name.to_string(), NamedObject { schema, value });
    }

    /// Current value, if present.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.objects.get(name).map(|o| &o.value)
    }

    /// Mutable value access (updates).
    pub fn value_mut(&mut self, name: &str) -> Option<&mut Value> {
        Arc::make_mut(&mut self.objects)
            .get_mut(name)
            .map(|o| &mut o.value)
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
        let objects = Arc::make_mut(&mut self.objects);
        objects.remove(name);
        let prefix = format!("{name}::exact::");
        objects.retain(|k, _| !k.starts_with(&prefix));
    }

    /// `true` iff both catalogs are views of the same name map (see
    /// [`Value::shares_storage_with`]): neither has written since one was
    /// cloned from the other.
    pub fn shares_storage_with(&self, other: &DbCatalog) -> bool {
        Arc::ptr_eq(&self.objects, &other.objects)
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
}

impl SchemaCatalog for DbCatalog {
    fn object_schema(&self, name: &str) -> Option<SchemaType> {
        self.schema(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cloned catalog shares its map until it writes; writing through
    /// [`DbCatalog::value_mut`] then copies the map and the written object
    /// only, in the clone only, and every other value stays shared.
    #[test]
    fn value_mut_on_a_clone_leaves_the_original_alone() {
        let ints = || Value::set([Value::int(1), Value::int(2)]);
        let mut original = DbCatalog::new();
        original.put("A", SchemaType::set(SchemaType::int4()), ints());
        original.put("B", SchemaType::set(SchemaType::int4()), ints());
        let mut clone = original.clone();
        assert!(clone.shares_storage_with(&original));
        let Some(Value::Set(a)) = clone.value_mut("A") else {
            panic!("A is a set");
        };
        a.insert(Value::int(3));
        assert!(!clone.shares_storage_with(&original));
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
