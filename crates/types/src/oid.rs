//! Object identifiers and the per-type OID partition `R(n)`.
//!
//! Section 3.1(v) of the paper defines `R(n)`, for any type name `n`, as an
//! infinite subset of the set `R` of all OIDs, such that `R` is
//! **partitioned**: `m != n` implies `R(m) ∩ R(n) = ∅`.  The paper
//! constructs the partition with a decimal-representation trick; we realise
//! it directly as the pair *(minting type, serial number)*: the set of OIDs
//! minted for type `n` is `{ (n, k) | k ∈ ℕ }`, which is countably infinite
//! and disjoint from every other type's set.
//!
//! An OID's *minting type* is fixed for life — it determines which partition
//! cell the identifier belongs to.  The object's *current* most-specific
//! type lives in the [`crate::store::ObjectStore`] and may migrate (the
//! paper notes its domain semantics "allow type migration to occur").

use std::fmt;

/// An opaque numeric identifier for a named type in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// An object identifier: an element of the paper's OID universe `R`.
///
/// Per the partition construction, the OID carries the type it was minted
/// in (`minted`) and a serial unique within that type.  The pair is the
/// identity; its "value is not available to the user" (Section 3.1) — the
/// algebra only ever compares OIDs for equality and dereferences them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    /// The type whose partition cell `R(minted)` this OID belongs to.
    pub minted: TypeId,
    /// Serial number within the partition cell.
    pub serial: u64,
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}#{}", self.minted, self.serial)
    }
}

/// Allocates OIDs, one monotone serial counter per type.
///
/// Each cell `R(n)` is inexhaustible in practice (2^64 serials), which is
/// how we realise OID-domain **rule 1** ("all domains must be infinite")
/// and **rule 2** (the residue after removing all subtypes' cells is still
/// infinite, because the cell for the type itself is never shared).
#[derive(Debug, Default, Clone)]
pub struct OidAllocator {
    next: std::collections::HashMap<TypeId, u64>,
}

impl OidAllocator {
    /// Create an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a fresh OID in `R(ty)`.
    pub fn mint(&mut self, ty: TypeId) -> Oid {
        let serial = self.next.entry(ty).or_insert(0);
        let oid = Oid {
            minted: ty,
            serial: *serial,
        };
        *serial += 1;
        oid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mints_are_unique_within_a_type() {
        let mut a = OidAllocator::new();
        let t = TypeId(1);
        let o1 = a.mint(t);
        let o2 = a.mint(t);
        assert_ne!(o1, o2);
        assert_eq!(o1.minted, o2.minted);
    }

    #[test]
    fn partition_cells_are_disjoint() {
        // Same serial in different types is a different OID: R(m) ∩ R(n) = ∅.
        let mut a = OidAllocator::new();
        let o1 = a.mint(TypeId(1));
        let o2 = a.mint(TypeId(2));
        assert_eq!(o1.serial, o2.serial);
        assert_ne!(o1, o2);
    }

    #[test]
    fn display_is_opaque_but_stable() {
        let o = Oid {
            minted: TypeId(3),
            serial: 9,
        };
        assert_eq!(o.to_string(), "@ty3#9");
    }
}
