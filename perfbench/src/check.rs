//! Output checks and failure accounting.
//!
//! Every answer the program gives is checked against what the workload
//! can know for sure: a read returns either nothing or the value every
//! write stores under that key; a range is strictly ascending inside its
//! bounds; a batch answers each sub-op in place, without errors; and at
//! the end the live count equals the prefill plus successful inserts
//! minus successful deletes. Any violation counts as a failed op.

use crate::workload::{value_of, Op};

/// Diagnostics kept per tally; the count goes on past this.
const MAX_MESSAGES: usize = 8;

#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Successful inserts, counting an upsert that displaced nothing.
    pub inserted: u64,
    pub deleted: u64,
    pub messages: Vec<String>,
}

/// What one op returned, in the program's own terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Value(Option<u64>),
    Inserted(bool),
    Upserted(Option<u64>),
    Deleted(bool),
    /// Range result: the keys/values seen, already checked by
    /// [`Tally::range`]; carries the key count.
    Scanned(u64),
    /// The call itself failed (transport error, Busy, error frame).
    Error(String),
}

impl Tally {
    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg());
        }
    }

    fn value_ok(&mut self, key: u64, got: Option<u64>) {
        if let Some(v) = got {
            if v != value_of(key) {
                self.fail(|| format!("key {key}: got value {v:#x}, expected {:#x}", value_of(key)));
            }
        }
    }

    /// Count one attempted op and check its outcome against the op.
    pub fn record(&mut self, op: Op, outcome: Outcome) {
        self.attempted += 1;
        match (op, outcome) {
            (Op::Get(k), Outcome::Value(v)) => self.value_ok(k, v),
            (Op::Insert(_), Outcome::Inserted(ok)) => self.inserted += ok as u64,
            (Op::Upsert(k), Outcome::Upserted(v)) => {
                self.value_ok(k, v);
                self.inserted += v.is_none() as u64;
            }
            (Op::Delete(_), Outcome::Deleted(ok)) => self.deleted += ok as u64,
            (Op::Range { .. }, Outcome::Scanned(_)) => {}
            (op, Outcome::Error(e)) => self.fail(|| format!("{op:?}: {e}")),
            (op, other) => self.fail(|| format!("{op:?}: mismatched answer {other:?}")),
        }
    }

    /// Walk a range answer for `[lo, hi]`, checking order, bounds and
    /// values; returns the number of entries.
    pub fn range(&mut self, lo: u64, hi: u64, entries: impl Iterator<Item = (u64, u64)>) -> u64 {
        let mut n = 0u64;
        let mut prev: Option<u64> = None;
        let mut bad: Option<String> = None;
        for (k, v) in entries {
            if bad.is_none() {
                if k < lo || k > hi {
                    bad = Some(format!("range [{lo}, {hi}]: key {k} out of bounds"));
                } else if prev.is_some_and(|p| p >= k) {
                    bad = Some(format!("range [{lo}, {hi}]: key {k} after {prev:?}"));
                } else if v != value_of(k) {
                    bad = Some(format!("range [{lo}, {hi}]: key {k} has value {v:#x}"));
                }
            }
            prev = Some(k);
            n += 1;
        }
        if let Some(msg) = bad {
            self.fail(|| msg);
        }
        n
    }

    /// The final live-count check.
    pub fn live_count(&mut self, prefill: u64, actual: u64) {
        let (ins, del) = (self.inserted, self.deleted);
        let expected = prefill + ins - del;
        if actual != expected {
            self.fail(|| {
                format!("live count {actual}, expected {expected} = prefill {prefill} + inserted {ins} - deleted {del}")
            });
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        for m in other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_value_is_counted() {
        let mut t = Tally::default();
        t.record(Op::Get(5), Outcome::Value(Some(value_of(5))));
        t.record(Op::Get(6), Outcome::Value(None));
        assert_eq!(t.failed, 0);
        t.record(Op::Get(5), Outcome::Value(Some(value_of(5) ^ 1)));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(t.messages[0].contains("key 5"), "{:?}", t.messages);
    }

    #[test]
    fn a_disordered_or_escaping_range_is_counted() {
        let mut t = Tally::default();
        let ok = [(3, value_of(3)), (7, value_of(7))];
        assert_eq!(t.range(2, 9, ok.into_iter()), 2);
        assert_eq!(t.failed, 0);
        t.range(2, 9, [(7, value_of(7)), (3, value_of(3))].into_iter());
        t.range(2, 9, [(10, value_of(10))].into_iter());
        assert_eq!(t.failed, 2);
    }

    #[test]
    fn live_count_follows_inserts_deletes_and_fresh_upserts() {
        let mut t = Tally::default();
        t.record(Op::Insert(1), Outcome::Inserted(true));
        t.record(Op::Insert(1), Outcome::Inserted(false));
        t.record(Op::Upsert(2), Outcome::Upserted(None));
        t.record(Op::Upsert(2), Outcome::Upserted(Some(value_of(2))));
        t.record(Op::Delete(9), Outcome::Deleted(true));
        t.live_count(10, 11);
        assert_eq!(t.failed, 0);
        t.live_count(10, 12);
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn errors_and_mismatched_answers_are_counted() {
        let mut t = Tally::default();
        t.record(Op::Delete(1), Outcome::Error("server busy".into()));
        t.record(Op::Get(1), Outcome::Inserted(true));
        assert_eq!((t.attempted, t.failed), (2, 2));
    }
}
