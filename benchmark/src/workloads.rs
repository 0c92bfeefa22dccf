//! The four workloads: which database each serves, which requests its
//! clients send, and the seeded generator that orders them.
//!
//! `--seed` drives everything that varies between runs — request order,
//! predicate literals, the university data and the writer's rows — through
//! the benchmark's own [`Rng`]; the server only ever sees request lines.
//! Why each workload exists is recorded in `../README.md`.

use excess_bench::server_mix::server_mix_db;
use excess_db::Database;
use excess_workload::{queries, university, UniversityParams};
use std::collections::HashMap;

/// `server_mix_db` scale of the three workloads that share it: 120
/// students, 60 employees, 12 referenced departments.
const MIX_SCALE: usize = 120;

/// How many commits a written row lives for before the writer deletes it
/// again, which keeps every extent within this many rows of its seed size.
pub const ROW_LIFETIME: usize = 64;

/// xorshift64*: small, seedable, and owned by the benchmark so the request
/// stream does not change when a library's generator does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // The multiplier spreads small seeds over the state; the state
        // must not be zero.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One kind of request in a workload's mix.
pub struct Kind {
    pub label: &'static str,
    /// Occurrences per block of the sequence.  Weights are chosen so the
    /// mix's p50 and p95 each fall inside one kind's latency range, not in
    /// a gap between two kinds, where they would jump with the round.
    pub weight: usize,
    /// Request text; `{}` takes a literal in `lo..=hi`.
    pub template: &'static str,
    pub literal: Option<(i64, i64)>,
}

const fn fixed(label: &'static str, weight: usize, template: &'static str) -> Kind {
    Kind {
        label,
        weight,
        template,
        literal: None,
    }
}

const fn probe(
    label: &'static str,
    weight: usize,
    template: &'static str,
    lo: i64,
    hi: i64,
) -> Kind {
    Kind {
        label,
        weight,
        template,
        literal: Some((lo, hi)),
    }
}

const F8: &str = "retrieve (S1.sname) where S1.sdept = {}";
const F9: &str = "range of T is S2 retrieve (T.sname) by T.dept.division where T.dept.floor = {}";
const F10: &str = "retrieve (S2.sname) where S2.dept.floor = {}";
const F11: &str = "retrieve unique (S2.dept.division, S2.dept.floor)";

/// Which generated database a workload serves.
#[derive(Clone, Copy, PartialEq)]
pub enum Data {
    /// Both Section 5 example datasets (`S1`, `E1`, `S2` → `Dept2`).
    ServerMix,
    /// The Figure 1 university, seeded from `--seed`.
    University,
}

pub struct Workload {
    pub name: &'static str,
    pub data: Data,
    pub kinds: &'static [Kind],
    /// Blocks in one pass of the sequence; per-layer counts are totals
    /// over exactly one pass, so they do not depend on `--seconds`.
    pub blocks: usize,
    /// A writer client commits beside the reader, which re-pins its
    /// session every [`REFRESH_EVERY`] requests.
    pub concurrent_writer: bool,
}

/// Reader requests between two `.refresh` lines on `mixed_rw`.
pub const REFRESH_EVERY: usize = 16;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "probe",
        data: Data::ServerMix,
        kinds: &[
            probe("f8_selective_probe", 3, F8, 0, 9),
            probe("f10_deref_select", 3, F10, 1, 6),
            probe("f9_deref_group", 1, F9, 1, 6),
            fixed("f11_deref_pair", 1, F11),
        ],
        blocks: 512,
        concurrent_writer: false,
    },
    Workload {
        name: "analytic",
        data: Data::ServerMix,
        kinds: &[
            fixed(
                "f6_join_group_unique",
                1,
                "range of S is S1 range of E is E1 \
                 retrieve unique (S.sdept, E.ename) by S.sdept where S.sadv = E.ename",
            ),
            fixed(
                "join_project",
                1,
                "range of S is S1 range of E is E1 \
                 retrieve (S.sname, E.esal) where S.sadv = E.ename",
            ),
            fixed(
                "join_agg",
                1,
                "range of S is S1 range of E is E1 \
                 retrieve unique (S.sdept, E.esal) where S.sadv = E.ename and E.esal > 1010",
            ),
        ],
        blocks: 32,
        concurrent_writer: false,
    },
    Workload {
        name: "objects",
        data: Data::University,
        kinds: &[
            fixed("section2_kids", 1, queries::SECTION2_KIDS),
            fixed("figure3", 1, queries::FIGURE3),
            fixed("figure4", 1, queries::FIGURE4),
            fixed("query_boss", 1, queries::QUERY_BOSS),
            fixed("query_workload", 1, queries::QUERY_WORKLOAD),
        ],
        blocks: 64,
        concurrent_writer: false,
    },
    Workload {
        name: "mixed_rw",
        data: Data::ServerMix,
        kinds: &[
            probe("f8_selective_probe", 4, F8, 0, 9),
            // Seed salaries are 1000..1060 and writer rows start at 5000,
            // so the answer does not depend on the generation read while
            // the scan still walks whatever the writer has appended.
            probe(
                "e1_salary_probe",
                2,
                "retrieve (E1.ename) where E1.esal = {}",
                1000,
                1059,
            ),
            fixed(
                "f7_unique_by_dept",
                2,
                "retrieve unique (S1.sadv) by S1.sdept",
            ),
        ],
        blocks: 512,
        concurrent_writer: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One pass of a workload's requests, in seeded order.
pub struct Sequence {
    /// Every distinct request line, in order of first use.
    pub distinct: Vec<String>,
    /// Index into `distinct` per request.
    pub order: Vec<usize>,
    /// Index into the workload's `kinds` per distinct line.
    pub kind_of: Vec<usize>,
}

impl Workload {
    /// `blocks` blocks, each holding every kind `weight` times in a
    /// shuffled order, so any window of a few blocks carries the exact mix.
    pub fn sequence(&self, seed: u64, blocks: usize) -> Sequence {
        let mut rng = Rng::new(seed);
        let block: Vec<usize> = self
            .kinds
            .iter()
            .enumerate()
            .flat_map(|(k, kind)| std::iter::repeat_n(k, kind.weight))
            .collect();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut seq = Sequence {
            distinct: Vec::new(),
            order: Vec::new(),
            kind_of: Vec::new(),
        };
        for _ in 0..blocks.max(1) {
            let mut shuffled = block.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for k in shuffled {
                let kind = &self.kinds[k];
                let line = match kind.literal {
                    Some((lo, hi)) => {
                        let literal = lo + rng.below((hi - lo + 1) as u64) as i64;
                        kind.template.replace("{}", &literal.to_string())
                    }
                    None => kind.template.to_string(),
                };
                // One wire line per request: the canned university texts
                // span several.
                let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
                let next = index.len();
                let id = *index.entry(line.clone()).or_insert(next);
                if id == seq.distinct.len() {
                    seq.distinct.push(line);
                    seq.kind_of.push(k);
                }
                seq.order.push(id);
            }
        }
        seq
    }

    /// Generate the workload's database (statistics collected).  Called
    /// once per set-up, once for the oracle and once for the replay check,
    /// each time from scratch.
    pub fn build_db(&self, seed: u64) -> Database {
        match self.data {
            Data::ServerMix => server_mix_db(MIX_SCALE),
            Data::University => {
                let params = UniversityParams {
                    seed,
                    ..UniversityParams::default()
                };
                let mut db = university::generate(&params)
                    .expect("generating the university")
                    .db;
                for methods in [queries::DEFINE_BOSS, queries::DEFINE_WORKLOAD] {
                    db.execute(methods).expect("installing the methods");
                }
                db.collect_stats();
                db
            }
        }
    }

    /// The extent the writer appends to, and a query returning one row per
    /// member of it.
    pub fn written_extent(&self) -> (&'static str, &'static str) {
        match self.data {
            Data::ServerMix => ("E1", "retrieve (E1.ename, E1.esal)"),
            Data::University => ("P", "retrieve (P.ssnum, P.name)"),
        }
    }
}

/// The writer's statements: row `k` is appended by commit `2k` (roughly)
/// and deleted again [`ROW_LIFETIME`] rows later.
pub struct WriterRows {
    data: Data,
    rng: Rng,
    next: usize,
}

impl WriterRows {
    pub fn new(workload: &Workload, seed: u64) -> Self {
        WriterRows {
            data: workload.data,
            rng: Rng::new(seed ^ 0x0057_A17E_5EED),
            next: 0,
        }
    }

    /// The next append, and the delete that retires the row written
    /// [`ROW_LIFETIME`] appends earlier once there is one.
    pub fn next_pair(&mut self) -> (String, Option<String>) {
        let k = self.next;
        self.next += 1;
        let noise = self.rng.below(1000);
        let (extent, key) = match self.data {
            Data::ServerMix => ("E1", "ename"),
            Data::University => ("P", "name"),
        };
        let append = match self.data {
            Data::ServerMix => {
                format!("append to E1 ((ename: \"w{k}\", esal: {}))", 5000 + noise)
            }
            Data::University => format!(
                "append to P (ssnum: {}, name: \"w{k}\", street: \"1 Bench St\", \
                 city: \"Madison\", zip: {}, birthday: date(1960, 1, 1))",
                900_000 + k,
                53_000 + noise
            ),
        };
        let delete = k
            .checked_sub(ROW_LIFETIME)
            .map(|old| format!("delete from {extent} where {extent}.{key} = \"w{old}\""));
        (append, delete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_different_sequence() {
        for w in &WORKLOADS {
            let a = w.sequence(7, 16);
            let b = w.sequence(7, 16);
            assert_eq!(a.order, b.order, "{}", w.name);
            assert_eq!(a.distinct, b.distinct, "{}", w.name);
            let c = w.sequence(8, 16);
            let lines = |s: &Sequence| -> Vec<String> {
                s.order.iter().map(|&i| s.distinct[i].clone()).collect()
            };
            assert_ne!(lines(&a), lines(&c), "{}", w.name);
        }
    }

    #[test]
    fn every_block_carries_the_exact_mix() {
        for w in &WORKLOADS {
            let per_block: usize = w.kinds.iter().map(|k| k.weight).sum();
            let seq = w.sequence(3, 8);
            assert_eq!(seq.order.len(), 8 * per_block);
            for block in seq.order.chunks(per_block) {
                for (k, kind) in w.kinds.iter().enumerate() {
                    let seen = block.iter().filter(|&&i| seq.kind_of[i] == k).count();
                    assert_eq!(seen, kind.weight, "{} {}", w.name, kind.label);
                }
            }
            assert!(seq.distinct.iter().all(|l| !l.contains('\n')));
        }
    }

    #[test]
    fn writer_rows_are_seeded_and_retire_after_their_lifetime() {
        let w = find("mixed_rw").unwrap();
        let mut a = WriterRows::new(w, 5);
        let mut b = WriterRows::new(w, 5);
        let mut c = WriterRows::new(w, 6);
        let mut differs = false;
        for k in 0..ROW_LIFETIME + 3 {
            let (append, delete) = a.next_pair();
            assert_eq!((append.clone(), delete.clone()), b.next_pair());
            differs |= append != c.next_pair().0;
            assert_eq!(delete.is_some(), k >= ROW_LIFETIME, "row {k}");
        }
        assert!(differs, "the seed must reach the writer's rows");
        assert_eq!(
            a.next_pair().1.unwrap(),
            "delete from E1 where E1.ename = \"w3\""
        );
    }
}
