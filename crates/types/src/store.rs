//! The object store: identity, sharing, and type migration.
//!
//! "Complex objects are complex structures in the database …, possibly
//! composed of other structures, that have their own unique identity.  Such
//! objects can be referenced by their identity from anywhere in the
//! database." (Section 2)
//!
//! The store maps OIDs to stored objects.  Each object records its
//! *current* most-specific (exact) type — the information the run-time
//! switch-table dispatch of Section 4 consults — while the OID itself
//! permanently carries its *minting* type, which determines the partition
//! cell `R(n)` and hence domain membership.
//!
//! Type migration (allowed by the domain semantics of Section 3.1) may move
//! an object's exact type to any **descendant-or-self of its minting
//! type**: this keeps every extant `ref A` slot valid, because `Odom(A)`
//! membership depends only on the minting type.

use crate::domain::check_dom;
use crate::error::{Result, TypeError};
use crate::oid::{Oid, OidAllocator, TypeId};
use crate::types::TypeRegistry;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A stored object: its current exact type and its value.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Current most-specific type (drives overridden-method dispatch).
    pub exact_type: TypeId,
    /// The object's value.
    pub value: Value,
}

/// An in-memory heap of objects keyed by OID.
///
/// `Clone` is a reference count: the OID map (and the allocator minting
/// into it) is shared with the original — what a generation, a session's
/// scratch store and a commit's trial database each take.  Every mutator
/// writes through [`Arc::make_mut`], so the first write after a clone
/// copies the map, once, and shares every object's value with the other
/// holders, which keep reading the map they cloned.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    heap: Arc<Heap>,
}

/// What an [`ObjectStore`] shares: the OID map and its allocator.
#[derive(Debug, Clone, Default)]
struct Heap {
    alloc: OidAllocator,
    objects: HashMap<Oid, StoredObject>,
}

impl ObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The heap, to write: copied first iff another store still shares it.
    fn heap_mut(&mut self) -> &mut Heap {
        Arc::make_mut(&mut self.heap)
    }

    /// `true` iff both stores are views of the same OID map (see
    /// [`Value::shares_storage_with`]): neither has written since one was
    /// cloned from the other.
    pub fn shares_storage_with(&self, other: &ObjectStore) -> bool {
        Arc::ptr_eq(&self.heap, &other.heap)
    }

    /// Create an object of named type `ty`, validating `value ∈
    /// DOM(full_body(ty))`, and return its fresh OID.
    pub fn create(&mut self, reg: &TypeRegistry, ty: TypeId, value: Value) -> Result<Oid> {
        let named = crate::schema::SchemaType::named(reg.name_of(ty));
        check_dom(&value, &named, reg)?;
        Ok(self.create_unchecked(ty, value))
    }

    /// Create without domain validation (bulk-load fast path; the workload
    /// generator constructs values it already knows to be well-typed).
    pub fn create_unchecked(&mut self, ty: TypeId, value: Value) -> Oid {
        let heap = self.heap_mut();
        let oid = heap.alloc.mint(ty);
        heap.objects.insert(
            oid,
            StoredObject {
                exact_type: ty,
                value,
            },
        );
        oid
    }

    /// DEREF support: the value of the object `oid` names.
    pub fn deref(&self, oid: Oid) -> Result<&Value> {
        self.heap
            .objects
            .get(&oid)
            .map(|o| &o.value)
            .ok_or_else(|| TypeError::DanglingOid(oid.to_string()))
    }

    /// Current exact type of an object.
    pub fn exact_type(&self, oid: Oid) -> Result<TypeId> {
        self.heap
            .objects
            .get(&oid)
            .map(|o| o.exact_type)
            .ok_or_else(|| TypeError::DanglingOid(oid.to_string()))
    }

    /// Replace an object's value, revalidating against its exact type.
    pub fn update(&mut self, reg: &TypeRegistry, oid: Oid, value: Value) -> Result<()> {
        let exact = self.exact_type(oid)?;
        let named = crate::schema::SchemaType::named(reg.name_of(exact));
        check_dom(&value, &named, reg)?;
        self.heap_mut().objects.get_mut(&oid).unwrap().value = value;
        Ok(())
    }

    /// Migrate an object to a new exact type (with a new value of that
    /// type).  The new type must be a descendant-or-self of the OID's
    /// minting type, so no existing reference can dangle semantically.
    pub fn migrate(
        &mut self,
        reg: &TypeRegistry,
        oid: Oid,
        new_type: TypeId,
        new_value: Value,
    ) -> Result<()> {
        if !self.contains(oid) {
            return Err(TypeError::DanglingOid(oid.to_string()));
        }
        if !reg.is_subtype_or_self(new_type, oid.minted) {
            return Err(TypeError::IllegalMigration {
                from: reg.name_of(oid.minted).to_string(),
                to: reg.name_of(new_type).to_string(),
            });
        }
        let named = crate::schema::SchemaType::named(reg.name_of(new_type));
        check_dom(&new_value, &named, reg)?;
        self.heap_mut().objects.insert(
            oid,
            StoredObject {
                exact_type: new_type,
                value: new_value,
            },
        );
        Ok(())
    }

    /// Delete an object.  References elsewhere become dangling — EXTRA
    /// gives owned objects lifetime guarantees we do not model; detection
    /// is via [`ObjectStore::deref`] returning an error.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        self.heap_mut()
            .objects
            .remove(&oid)
            .map(|_| ())
            .ok_or_else(|| TypeError::DanglingOid(oid.to_string()))
    }

    /// Does the store hold an object with this identity?
    pub fn contains(&self, oid: Oid) -> bool {
        self.heap.objects.contains_key(&oid)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.heap.objects.len()
    }

    /// `true` iff no objects stored.
    pub fn is_empty(&self) -> bool {
        self.heap.objects.is_empty()
    }

    /// Iterate `(oid, object)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &StoredObject)> {
        self.heap.objects.iter().map(|(o, s)| (*o, s))
    }

    /// The set of OIDs reachable from `roots` by following references
    /// through stored values (cycle-safe).
    pub fn reachable_from<'a, I>(&self, roots: I) -> std::collections::HashSet<Oid>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<Oid> = Vec::new();
        for v in roots {
            collect_refs(v, &mut stack);
        }
        while let Some(oid) = stack.pop() {
            if !seen.insert(oid) {
                continue;
            }
            if let Ok(v) = self.deref(oid) {
                collect_refs(v, &mut stack);
            }
        }
        seen
    }

    /// Remove every object not reachable from `roots` — the garbage sweep
    /// implied by EXTRA's ownership semantics ("objects … exist in the
    /// database independently of objects that reference them (except for
    /// their owners)"): once nothing owned by the database reaches an
    /// object, it is gone.  Returns the number of objects removed.
    pub fn sweep_unreachable<'a, I>(&mut self, roots: I) -> usize
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let live = self.reachable_from(roots);
        let before = self.len();
        self.heap_mut().objects.retain(|oid, _| live.contains(oid));
        before - self.len()
    }

    /// OIDs of all objects whose *exact* type is `ty` (used by the
    /// extent indexes backing the ⊎-based dispatch of Section 4).
    pub fn oids_with_exact_type(&self, ty: TypeId) -> Vec<Oid> {
        let mut v: Vec<Oid> = self
            .iter()
            .filter(|(_, s)| s.exact_type == ty)
            .map(|(o, _)| o)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Push every OID appearing anywhere inside `v` onto `out`.
fn collect_refs(v: &Value, out: &mut Vec<Oid>) {
    match v {
        Value::Ref(o) => out.push(*o),
        Value::Tuple(t) => t.iter().for_each(|(_, fv)| collect_refs(fv, out)),
        Value::Set(s) => s.iter_counted().for_each(|(e, _)| collect_refs(e, out)),
        Value::Array(a) => a.iter().for_each(|e| collect_refs(e, out)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaType;

    fn setup() -> (TypeRegistry, TypeId, TypeId) {
        let mut r = TypeRegistry::new();
        let person = r
            .define("Person", SchemaType::tuple([("name", SchemaType::chars())]))
            .unwrap();
        let student = r
            .define_with_supertypes(
                "Student",
                SchemaType::tuple([("gpa", SchemaType::float4())]),
                &["Person"],
            )
            .unwrap();
        (r, person, student)
    }

    fn person(name: &str) -> Value {
        Value::tuple([("name", Value::str(name))])
    }

    fn student(name: &str, gpa: f64) -> Value {
        Value::tuple([("name", Value::str(name)), ("gpa", Value::float(gpa))])
    }

    #[test]
    fn create_and_deref() {
        let (r, p, _) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, p, person("Ann")).unwrap();
        assert_eq!(s.deref(oid).unwrap(), &person("Ann"));
        assert_eq!(s.exact_type(oid).unwrap(), p);
    }

    #[test]
    fn create_validates_domain() {
        let (r, p, _) = setup();
        let mut s = ObjectStore::new();
        assert!(s.create(&r, p, Value::int(3)).is_err());
    }

    #[test]
    fn substitutable_create() {
        // An object of exact type Person may hold a Student-shaped value
        // only if created as a Student; DOM(Person) does include Student
        // tuples, so this is allowed — identity semantics come from the
        // declared type, not the shape.
        let (r, p, _) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, p, student("Sue", 3.9)).unwrap();
        assert_eq!(s.exact_type(oid).unwrap(), p);
    }

    #[test]
    fn dangling_deref_detected() {
        let (r, p, _) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, p, person("Ann")).unwrap();
        s.delete(oid).unwrap();
        assert!(matches!(s.deref(oid), Err(TypeError::DanglingOid(_))));
    }

    #[test]
    fn update_revalidates() {
        let (r, p, _) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, p, person("Ann")).unwrap();
        s.update(&r, oid, person("Anne")).unwrap();
        assert!(s.update(&r, oid, Value::int(1)).is_err());
    }

    #[test]
    fn migration_to_descendant_of_minting_type() {
        // A Person object becomes a Student: allowed (Student is a
        // descendant of the minting type), identity preserved.
        let (r, p, st) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, p, person("Ann")).unwrap();
        s.migrate(&r, oid, st, student("Ann", 3.5)).unwrap();
        assert_eq!(s.exact_type(oid).unwrap(), st);
        assert!(s.contains(oid));
        // Migrating back up to the minting type itself is also fine.
        s.migrate(&r, oid, p, person("Ann")).unwrap();
        assert_eq!(s.exact_type(oid).unwrap(), p);
    }

    #[test]
    fn migration_outside_minting_partition_rejected() {
        // An OID minted in R(Student) may not migrate to plain Person-ness:
        // its partition cell would no longer witness Odom(Student) rules.
        let (r, p, st) = setup();
        let mut s = ObjectStore::new();
        let oid = s.create(&r, st, student("Sue", 3.9)).unwrap();
        let err = s.migrate(&r, oid, p, person("Sue")).unwrap_err();
        assert!(matches!(err, TypeError::IllegalMigration { .. }));
    }

    #[test]
    fn extent_by_exact_type() {
        let (r, p, st) = setup();
        let mut s = ObjectStore::new();
        let o1 = s.create(&r, p, person("A")).unwrap();
        let o2 = s.create(&r, st, student("B", 3.0)).unwrap();
        let o3 = s.create(&r, p, person("C")).unwrap();
        assert_eq!(s.oids_with_exact_type(p), vec![o1, o3]);
        assert_eq!(s.oids_with_exact_type(st), vec![o2]);
        assert_eq!(s.len(), 3);
    }

    /// A clone shares the OID map until one side writes; the write copies
    /// the map for the writer only, and a rejected update copies nothing.
    #[test]
    fn a_clone_shares_the_map_until_one_side_writes() {
        let (r, p, _) = setup();
        let mut original = ObjectStore::new();
        let ann = original.create(&r, p, person("Ann")).unwrap();
        let mut clone = original.clone();
        assert!(clone.shares_storage_with(&original));
        assert!(clone.update(&r, ann, Value::int(1)).is_err());
        assert!(clone.shares_storage_with(&original));
        let bob = clone.create(&r, p, person("Bob")).unwrap();
        assert!(!clone.shares_storage_with(&original));
        assert!(!original.contains(bob));
        assert!(clone
            .deref(ann)
            .unwrap()
            .shares_storage_with(original.deref(ann).unwrap()));
        clone.update(&r, ann, person("Anne")).unwrap();
        assert_eq!(original.deref(ann).unwrap(), &person("Ann"));
    }
}
