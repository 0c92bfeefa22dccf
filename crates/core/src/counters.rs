//! Execution counters: the observable cost metrics behind the paper's
//! optimization claims.
//!
//! The transformation examples in Section 5 argue in terms of *work
//! avoided*: Figure 8 "results in DE operating on |S| + |E| occurrences
//! rather than |S| · |E| occurrences"; Figure 11 means "the dept attribute
//! needs to be DEREF'd only once".  These counters make those quantities
//! measurable so the `F6`–`F11` benchmarks can verify the claims exactly,
//! not just via wall-clock time.

/// Work counters accumulated during evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Occurrences iterated by SET_APPLY / GRP / derived σ and joins
    /// (one per element application: "scan work").
    pub occurrences_scanned: u64,
    /// Array elements iterated by ARR_APPLY and friends.
    pub elements_scanned: u64,
    /// DEREF operations performed.
    pub derefs: u64,
    /// Occurrences fed into DE nodes (Figure 8's headline metric).
    pub de_input_occurrences: u64,
    /// Atomic predicate comparisons evaluated.
    pub comparisons: u64,
    /// OIDs minted by REF.
    pub oids_minted: u64,
    /// Full scans of a named top-level object (Section 4's "scanning P
    /// three times" metric).
    pub named_object_scans: u64,
    /// Cardinality-weighted tuples produced by × / rel_× / rel_join inputs.
    pub pairs_formed: u64,
}

/// Apply `op` to every pair of corresponding fields.
macro_rules! zip_fields {
    ($a:expr, $b:expr, $op:expr) => {
        Counters {
            occurrences_scanned: $op($a.occurrences_scanned, $b.occurrences_scanned),
            elements_scanned: $op($a.elements_scanned, $b.elements_scanned),
            derefs: $op($a.derefs, $b.derefs),
            de_input_occurrences: $op($a.de_input_occurrences, $b.de_input_occurrences),
            comparisons: $op($a.comparisons, $b.comparisons),
            oids_minted: $op($a.oids_minted, $b.oids_minted),
            named_object_scans: $op($a.named_object_scans, $b.named_object_scans),
            pairs_formed: $op($a.pairs_formed, $b.pairs_formed),
        }
    };
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work performed between two snapshots: `after.diff(before)`.
    ///
    /// Counters only ever grow during evaluation, so the saturating
    /// subtraction never actually clamps for (after, before) pairs taken
    /// from the same run; clamping guards against swapped arguments.
    pub fn diff(&self, before: &Counters) -> Counters {
        zip_fields!(self, before, u64::saturating_sub)
    }

    /// Every counter with its field name, in declaration order — the one
    /// place the field list is enumerated, so serializers and telemetry
    /// attributes cannot drift from the struct.
    pub fn named_fields(&self) -> [(&'static str, u64); 8] {
        [
            ("occurrences_scanned", self.occurrences_scanned),
            ("elements_scanned", self.elements_scanned),
            ("derefs", self.derefs),
            ("de_input_occurrences", self.de_input_occurrences),
            ("comparisons", self.comparisons),
            ("oids_minted", self.oids_minted),
            ("named_object_scans", self.named_object_scans),
            ("pairs_formed", self.pairs_formed),
        ]
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, rhs: Counters) -> Counters {
        self.diff(&rhs)
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;

    fn add(self, rhs: Counters) -> Counters {
        zip_fields!(self, rhs, u64::wrapping_add)
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scans={} arr={} derefs={} de_in={} cmps={} mints={} obj_scans={} pairs={}",
            self.occurrences_scanned,
            self.elements_scanned,
            self.derefs,
            self.de_input_occurrences,
            self.comparisons,
            self.oids_minted,
            self.named_object_scans,
            self.pairs_formed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> Counters {
        Counters {
            occurrences_scanned: step,
            elements_scanned: 2 * step,
            derefs: 3 * step,
            de_input_occurrences: 4 * step,
            comparisons: 5 * step,
            oids_minted: 6 * step,
            named_object_scans: 7 * step,
            pairs_formed: 8 * step,
        }
    }

    #[test]
    fn diff_subtracts_every_field() {
        assert_eq!(sample(5).diff(&sample(2)), sample(3));
        assert_eq!(sample(5) - sample(2), sample(3));
    }

    #[test]
    fn diff_saturates_on_swapped_snapshots() {
        assert_eq!(sample(2) - sample(5), Counters::new());
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = sample(1);
        acc += sample(2);
        assert_eq!(acc, sample(3));
        acc += Counters::new();
        assert_eq!(acc, sample(3));
    }

    #[test]
    fn diff_then_add_round_trips() {
        let before = sample(4);
        let after = sample(9);
        assert_eq!(before + (after - before), after);
    }

    #[test]
    fn named_fields_cover_every_counter() {
        let c = sample(1);
        // `sample(1)`'s fields are 1..=8, so a missing or repeated field
        // changes the sum.
        let sum: u64 = c.named_fields().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 36, "a field is missing from named_fields");
        assert_eq!(c.named_fields()[2], ("derefs", 3));
    }

    #[test]
    fn display_lists_all_fields() {
        let c = Counters {
            derefs: 2,
            ..Counters::new()
        };
        let s = c.to_string();
        assert!(s.contains("derefs=2"), "{s}");
        assert!(s.contains("scans=0"), "{s}");
    }
}
