//! The in-process workloads (`point-large`, `contended-mixed`): two
//! threads, each with one `ShardedSession`, over a shared 8-shard map.

use std::time::Instant;

use pnb_shard::{ShardedPnbBst, ShardedSession};

use crate::check::{Outcome, Tally};
use crate::load::{join_all, sampled, tracer_for, LoadOut, Window, THREADS};
use crate::trace::Tracer;
use crate::workload::{value_of, zipf_for, Op, OpGen, Spec, REFRESH_EVERY, SHARDS, THREAD};

pub type Map = ShardedPnbBst<u64, u64>;

/// Build an 8-shard map and insert `keys` in order. A prefill insert
/// that reports the key present is a program fault and is counted.
pub fn build(keys: &[u64], tally: &mut Tally) -> Map {
    let map = Map::new(SHARDS);
    let mut s = map.pin();
    for (i, &k) in keys.iter().enumerate() {
        if !s.insert(k, value_of(k)) {
            tally.fail(|| format!("prefill insert of fresh key {k} reported it present"));
        }
        if i as u64 % REFRESH_EVERY == REFRESH_EVERY - 1 {
            s.refresh();
        }
    }
    drop(s);
    map
}

/// Run one op through a sharded session.
pub fn exec(s: &ShardedSession<'_, u64, u64>, op: Op, tally: &mut Tally) -> Outcome {
    match op {
        Op::Get(k) => Outcome::Value(s.get(&k)),
        Op::Insert(k) => Outcome::Inserted(s.insert(k, value_of(k))),
        Op::Upsert(k) => Outcome::Upserted(s.upsert(k, value_of(k))),
        Op::Delete(k) => Outcome::Deleted(s.delete(&k)),
        Op::Range {
            lo,
            hi,
            snapshot: false,
        } => Outcome::Scanned(tally.range(lo, hi, s.range(lo..=hi))),
        Op::Range {
            lo,
            hi,
            snapshot: true,
        } => {
            let snap = s.snapshot();
            Outcome::Scanned(tally.range(lo, hi, snap.range(lo..=hi)))
        }
    }
}

fn span_name(op: Op) -> &'static str {
    match op {
        Op::Get(_) => "shard.get",
        Op::Insert(_) => "shard.insert",
        Op::Upsert(_) => "shard.upsert",
        Op::Delete(_) => "shard.delete",
        Op::Range {
            snapshot: false, ..
        } => "shard.range",
        Op::Range { snapshot: true, .. } => "shard.snapshot_range",
    }
}

/// The closed loop: `THREADS` threads until the window ends.
pub fn run(map: &Map, spec: Spec, seed: u64, w: &Window, traced: bool) -> (LoadOut, Vec<Tracer>) {
    let zipf = zipf_for(&spec);
    join_all(std::thread::scope(|sc| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let zipf = zipf.clone();
                sc.spawn(move || {
                    let mut gen = OpGen::new(spec, seed, THREAD + t, zipf);
                    let mut out = LoadOut::default();
                    let mut tracer = tracer_for(traced, w, t + 1);
                    let mut s = map.pin();
                    let mut i = 0u64;
                    loop {
                        if i % REFRESH_EVERY == REFRESH_EVERY - 1 {
                            let r0 = Instant::now();
                            s.refresh();
                            let r1 = Instant::now();
                            out.refresh.record((r1 - r0).as_nanos() as u64);
                            if let Some(tr) = tracer.as_mut().filter(|_| r0 >= w.warm_end) {
                                tr.record("epoch.refresh", r0, r1, 0, t << 32 | i);
                            }
                        }
                        let op = gen.next_op();
                        let t0 = Instant::now();
                        if t0 >= w.end {
                            break;
                        }
                        let outcome = exec(&s, op, &mut out.tally);
                        let t1 = Instant::now();
                        if sampled(&tracer, w, t0, i) {
                            if let Some(tr) = tracer.as_mut() {
                                tr.record(span_name(op), t0, t1, 0, t << 32 | i);
                            }
                        }
                        out.op(w, op, outcome, t0, t1);
                        i += 1;
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    }))
}

/// End-of-run checks on a quiescent map: the live count matches the
/// accounting, and the structural invariants hold on every shard.
pub fn final_checks(map: &Map, prefill: u64, tally: &mut Tally) {
    let len = map.len() as u64;
    tally.live_count(prefill, len);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| map.check_invariants())) {
        Ok(n) if n as u64 == len => {}
        Ok(n) => tally.fail(|| format!("check_invariants counted {n} keys, len() {len}")),
        Err(_) => tally.fail(|| "check_invariants failed".to_string()),
    }
}
