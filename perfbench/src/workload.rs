//! The four workloads and their seeded op streams. The program under
//! test sees only the ops; keys, op choices and prefill order all come
//! from [`crate::rng`].

use crate::rng::{mix, permutation, Rng, ScrambledZipf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointLarge,
    ContendedMixed,
    WireRr,
    WireBulk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointLarge,
        Workload::ContendedMixed,
        Workload::WireRr,
        Workload::WireBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLarge => "point-large",
            Workload::ContendedMixed => "contended-mixed",
            Workload::WireRr => "wire-rr",
            Workload::WireBulk => "wire-bulk",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::PointLarge => Spec {
                keys: 1 << 20,
                zipf: false,
                mix: Mix {
                    get: 80,
                    insert: 10,
                    upsert: 0,
                    delete: 10,
                },
                range_width: 0,
            },
            Workload::ContendedMixed => Spec {
                keys: 1 << 16,
                zipf: true,
                mix: Mix {
                    get: 30,
                    insert: 20,
                    upsert: 20,
                    delete: 20,
                },
                range_width: 256,
            },
            Workload::WireRr => Spec {
                keys: 1 << 16,
                zipf: false,
                mix: Mix {
                    get: 50,
                    insert: 20,
                    upsert: 0,
                    delete: 20,
                },
                range_width: 100,
            },
            Workload::WireBulk => Spec {
                keys: 1 << 16,
                zipf: false,
                mix: Mix {
                    get: 50,
                    insert: 25,
                    upsert: 0,
                    delete: 25,
                },
                range_width: 0,
            },
        }
    }

    pub fn is_wire(self) -> bool {
        matches!(self, Workload::WireRr | Workload::WireBulk)
    }
}

/// Op-kind weights in percent; ranges take the rest of 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u64,
    pub insert: u64,
    pub upsert: u64,
    pub delete: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Key space `0..keys`, prefilled to half.
    pub keys: u64,
    /// Scrambled Zipf θ = 0.99 instead of uniform keys.
    pub zipf: bool,
    pub mix: Mix,
    /// Closed ranges `[lo, lo + width - 1]`.
    pub range_width: u64,
}

/// Shards in every map (the served default).
pub const SHARDS: usize = 8;
/// Point sub-ops per Batch frame on `wire-bulk`.
pub const BATCH_OPS: usize = 64;
/// Batch frames each `wire-bulk` connection keeps in flight: about 4 ms
/// of a worker's work, so a worker does not drain its queue and sleep
/// whenever its client thread briefly loses the CPU (at 8 it did), and
/// half of admission's 4,096 ops per pass.
pub const BATCH_DEPTH: usize = 32;
/// Ops between session refreshes on the in-process workloads.
pub const REFRESH_EVERY: u64 = 256;

/// Stream ids: the prefill order, the Zipf scramble, one per load
/// thread (`THREAD + t`) and the traced run's layer ladder.
const PREFILL: u64 = 1;
const SCRAMBLE: u64 = 2;
pub const LADDER: u64 = 3;
pub const THREAD: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Insert(u64),
    Upsert(u64),
    Delete(u64),
    /// `[lo, hi]`; `snapshot` reads through a fresh cross-shard snapshot.
    Range {
        lo: u64,
        hi: u64,
        snapshot: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Update,
    Range,
}

impl Op {
    pub fn kind(self) -> Kind {
        match self {
            Op::Get(_) => Kind::Get,
            Op::Insert(_) | Op::Upsert(_) | Op::Delete(_) => Kind::Update,
            Op::Range { .. } => Kind::Range,
        }
    }
}

/// The value every write stores under `key`, so any read can be checked.
pub fn value_of(key: u64) -> u64 {
    mix(key ^ 0x5EED_0FBE_AC04)
}

/// The keys inserted before the load starts, in insertion order: half
/// the key space, shuffled (the tree never rebalances, so a sorted
/// prefill would degenerate it into a list).
pub fn prefill_keys(spec: &Spec, seed: u64) -> Vec<u64> {
    let mut keys = permutation(spec.keys, &mut Rng::new(seed, PREFILL));
    keys.truncate((spec.keys / 2) as usize);
    keys
}

/// One stream of ops: deterministic in `(workload, seed, stream)`.
#[derive(Clone, Debug)]
pub struct OpGen {
    spec: Spec,
    rng: Rng,
    zipf: Option<std::sync::Arc<ScrambledZipf>>,
}

impl OpGen {
    pub fn new(
        spec: Spec,
        seed: u64,
        stream: u64,
        zipf: Option<std::sync::Arc<ScrambledZipf>>,
    ) -> Self {
        OpGen {
            spec,
            rng: Rng::new(seed, stream),
            zipf,
        }
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.spec.keys),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let m = self.spec.mix;
        let roll = self.rng.below(100);
        let key = self.key();
        if roll < m.get {
            Op::Get(key)
        } else if roll < m.get + m.insert {
            Op::Insert(key)
        } else if roll < m.get + m.insert + m.upsert {
            Op::Upsert(key)
        } else if roll < m.get + m.insert + m.upsert + m.delete {
            Op::Delete(key)
        } else {
            let hi = (key + self.spec.range_width - 1).min(self.spec.keys - 1);
            let snapshot = self.rng.below(10) == 0;
            Op::Range {
                lo: key,
                hi,
                snapshot: snapshot && self.spec.zipf,
            }
        }
    }
}

/// The scrambled-Zipf key distribution of a workload, shared by its
/// threads (`None` for uniform keys). The scramble is part of the
/// distribution, as YCSB's fixed hash is: the hot keys are the same for
/// every seed, and the seed draws the samples. With a seeded scramble,
/// where the hottest keys fall (their depth in the unbalanced tree, and
/// whether their ranges cross a shard block) moved `contended-mixed`
/// throughput by ~10% from seed to seed.
pub fn zipf_for(spec: &Spec) -> Option<std::sync::Arc<ScrambledZipf>> {
    spec.zipf.then(|| {
        let perm = permutation(spec.keys, &mut Rng::new(0, SCRAMBLE));
        std::sync::Arc::new(ScrambledZipf::new(spec.keys, 0.99, perm))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: usize) -> Vec<Op> {
        let spec = w.spec();
        let mut g = OpGen::new(spec, seed, THREAD, zipf_for(&spec));
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_op_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 42, 5_000), stream(w, 42, 5_000), "{}", w.name());
            assert_ne!(stream(w, 42, 5_000), stream(w, 43, 5_000), "{}", w.name());
            assert_eq!(prefill_keys(&w.spec(), 42), prefill_keys(&w.spec(), 42));
        }
    }

    #[test]
    fn mix_and_ranges_follow_the_spec() {
        let ops = stream(Workload::ContendedMixed, 9, 100_000);
        let ranges: Vec<_> = ops
            .iter()
            .filter_map(|o| match *o {
                Op::Range { lo, hi, snapshot } => Some((lo, hi, snapshot)),
                _ => None,
            })
            .collect();
        let share = ranges.len() as f64 / ops.len() as f64;
        assert!((0.09..0.11).contains(&share), "range share {share}");
        assert!(ranges
            .iter()
            .all(|&(lo, hi, _)| lo <= hi && hi - lo < 256 && hi < 1 << 16));
        let snaps = ranges.iter().filter(|r| r.2).count() as f64 / ranges.len() as f64;
        assert!((0.07..0.13).contains(&snaps), "snapshot share {snaps}");
        assert!(stream(Workload::PointLarge, 9, 10_000)
            .iter()
            .all(|o| o.kind() != Kind::Range
                && matches!(o, Op::Get(k) | Op::Insert(k) | Op::Delete(k) if *k < 1 << 20)));
    }

    #[test]
    fn prefill_is_half_the_key_space_without_repeats() {
        let spec = Workload::WireRr.spec();
        let mut keys = prefill_keys(&spec, 5);
        assert_eq!(keys.len() as u64, spec.keys / 2);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, spec.keys / 2);
    }
}
