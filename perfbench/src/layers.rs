//! The traced run's per-layer measurements.
//!
//! Counters come from the `stats` build. Latencies come from a *layer
//! ladder*: the same seeded request stream driven one rung at a time,
//! each rung calling one layer's public functions, with rungs taking
//! turns request by request so drift on the box hits all of them alike.
//! A layer's cost is the difference between adjacent rungs' medians.
//!
//! | rung   | calls                                                         |
//! |--------|---------------------------------------------------------------|
//! | core   | `pnb_bst::Handle` of the owning shard (`shard_of`/`shard`)    |
//! | shard  | `ShardedSession` (routing, `MergeRange`, snapshots)           |
//! | wire   | `encode_request` → `FrameBuf` + `decode_request` → `handler::handle` → `encode_response` → `FrameBuf` + `decode_response` |
//! | batch  | `ShardedSession::apply_batch_reported` (`wire-bulk` only)     |
//! | socket | `Client` and `ReconnectingClient` at depth 1, `Client::ping`  |
//!
//! A metric reads 0 on a workload that never exercises its layer (e.g.
//! codec on `point-large`, snapshots off `contended-mixed`).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Bound;
use std::time::Instant;

use pnb_bst::{BatchOp, BatchOutcome, BatchReport, StatsSnapshot};
use pnb_server::{
    decode_request, decode_response, encode_request, encode_response, handler, BatchSubOp, Client,
    FrameBuf, ReconnectingClient, ReqBody, Request, RespBody, ServerStats,
};
use pnb_shard::{load_imbalance, Partitioner, ShardOpStats};

use crate::check::{Outcome, Tally};
use crate::hist::Hist;
use crate::inproc::{exec, Map};
use crate::trace::Tracer;
use crate::wire::{check_batch, exec_remote, outcome_of, req_body, sub_op};
use crate::workload::{value_of, Kind, Op, OpGen, Spec, Workload, BATCH_OPS, LADDER, SHARDS};

/// Every per-layer metric: name, unit.
pub const METRICS: [(&str, &str); 32] = [
    ("core.get_ns", "ns"),
    ("core.update_ns", "ns"),
    ("core.range_ns_per_key", "ns/key"),
    ("core.attempts_per_update", "ratio"),
    ("core.helps_per_update", "ratio"),
    ("core.handshake_aborts_per_scan", "ratio"),
    ("core.scan_helps_per_scan", "ratio"),
    ("core.combined_ops", "count"),
    ("core.batch_ops_per_descent", "ratio"),
    ("epoch.refresh_ns", "ns"),
    ("epoch.advance_success_ratio", "ratio"),
    ("epoch.items_freed_per_update", "ratio"),
    ("arena.hit_ratio", "ratio"),
    ("arena.recycled_bytes_per_update", "B"),
    ("shard.get_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.range_ns_per_key", "ns/key"),
    ("shard.range_shards_touched", "shards"),
    ("shard.snapshot_ns", "ns"),
    ("shard.load_imbalance", "ratio"),
    ("codec.encode_request_ns", "ns"),
    ("codec.decode_request_ns", "ns"),
    ("codec.encode_response_ns", "ns"),
    ("codec.decode_response_ns", "ns"),
    ("codec.bytes_per_op", "B"),
    ("handler.handle_ns_per_op", "ns"),
    ("server.ping_rtt_us", "us"),
    ("server.transport_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("server.peak_conn_pending_kb", "KiB"),
    ("client.call_us", "us"),
    ("retry.overhead_us", "us"),
];

/// Ladder requests per workload: enough for stable medians, few enough
/// that the traced run stays well inside its time limit.
fn tree_requests(w: Workload) -> usize {
    match w {
        Workload::WireBulk => 2_000,
        _ => 40_000,
    }
}
const SOCKET_REQUESTS: usize = 2_000;
const PINGS: usize = 300;

pub type Metrics = BTreeMap<&'static str, f64>;

pub fn empty() -> Metrics {
    METRICS.iter().map(|&(n, _)| (n, 0.0)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Tree counters summed over a map's shards.
pub fn tree_stats(map: &Map) -> StatsSnapshot {
    let mut t = StatsSnapshot::default();
    for i in 0..map.shard_count() {
        let s = map.shard(i).stats();
        t.update_attempts += s.update_attempts;
        t.handshake_aborts += s.handshake_aborts;
        t.helps += s.helps;
        t.scans += s.scans;
        t.scan_helps += s.scan_helps;
        t.combined_ops += s.combined_ops;
    }
    t
}

/// Record the core counters over an interval with `updates` update ops.
pub fn core_counters(m: &mut Metrics, before: StatsSnapshot, after: StatsSnapshot, updates: u64) {
    m.insert(
        "core.attempts_per_update",
        ratio(after.update_attempts - before.update_attempts, updates),
    );
    m.insert(
        "core.helps_per_update",
        ratio(after.helps - before.helps, updates),
    );
    let scans = after.scans - before.scans;
    m.insert(
        "core.handshake_aborts_per_scan",
        ratio(after.handshake_aborts - before.handshake_aborts, scans),
    );
    m.insert(
        "core.scan_helps_per_scan",
        ratio(after.scan_helps - before.scan_helps, scans),
    );
    m.insert(
        "core.combined_ops",
        (after.combined_ops - before.combined_ops) as f64,
    );
}

/// Process-global epoch and arena counters (zeros without `stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Global {
    advance_attempts: u64,
    advance_successes: u64,
    items_freed: u64,
    pool_hits: u64,
    pool_misses: u64,
    recycled_bytes: u64,
}

pub fn global() -> Global {
    #[cfg(feature = "stats")]
    {
        let e = pnb_bst::collector_stats();
        let a = pnb_bst::arena_stats();
        Global {
            advance_attempts: e.advance_attempts,
            advance_successes: e.advance_successes,
            items_freed: e.items_freed,
            pool_hits: a.pool_hits,
            pool_misses: a.pool_misses,
            recycled_bytes: a.recycled_bytes,
        }
    }
    #[cfg(not(feature = "stats"))]
    Global::default()
}

pub fn global_counters(m: &mut Metrics, b: Global, a: Global, updates: u64) {
    m.insert(
        "epoch.advance_success_ratio",
        ratio(
            a.advance_successes - b.advance_successes,
            a.advance_attempts - b.advance_attempts,
        ),
    );
    m.insert(
        "epoch.items_freed_per_update",
        ratio(a.items_freed - b.items_freed, updates),
    );
    let hits = a.pool_hits - b.pool_hits;
    m.insert(
        "arena.hit_ratio",
        ratio(hits, hits + a.pool_misses - b.pool_misses),
    );
    m.insert(
        "arena.recycled_bytes_per_update",
        ratio(a.recycled_bytes - b.recycled_bytes, updates),
    );
}

pub fn imbalance(m: &mut Metrics, before: &[u64], after: &[u64]) {
    let d: Vec<ShardOpStats> = before
        .iter()
        .zip(after)
        .map(|(b, a)| ShardOpStats {
            gets: a - b,
            ..Default::default()
        })
        .collect();
    m.insert("shard.load_imbalance", load_imbalance(&d));
}

pub fn shard_totals(map: &Map) -> Vec<u64> {
    map.shard_stats().iter().map(ShardOpStats::total).collect()
}

/// The ladder's request stream: single ops, or `BATCH_OPS`-op batches on
/// `wire-bulk`; drawn from its own stream of the run's seed.
pub fn requests(
    w: Workload,
    spec: Spec,
    seed: u64,
    zipf: Option<std::sync::Arc<crate::rng::ScrambledZipf>>,
) -> Vec<Vec<Op>> {
    let mut gen = OpGen::new(spec, seed, LADDER, zipf);
    let per = if w == Workload::WireBulk {
        BATCH_OPS
    } else {
        1
    };
    (0..tree_requests(w))
        .map(|_| (0..per).map(|_| gen.next_op()).collect())
        .collect()
}

#[derive(Default)]
struct Rungs {
    core_get: Hist,
    core_update: Hist,
    core_range: (u64, u64),
    shard_get: Hist,
    shard_range: (u64, u64),
    widths: (u64, u64),
    snapshot: Hist,
    refresh: Hist,
    batch: BatchReport,
    codec: [Hist; 4],
    handle_per_op: Hist,
    bytes: (u64, u64),
    updates: u64,
}

/// Whether `[lo, hi]` lies in one shard, so the core rung can scan it.
fn single_shard(map: &Map, lo: u64, hi: u64) -> bool {
    let shards =
        map.partitioner()
            .shards_for_range(Bound::Included(&lo), Bound::Included(&hi), SHARDS);
    shards.is_some_and(|mut v| {
        v.dedup();
        v.len() == 1
    })
}

fn core_op(map: &Map, op: Op, r: &mut Rungs, tracer: &mut Tracer, parent: u64, tally: &mut Tally) {
    let key = match op {
        Op::Get(k) | Op::Insert(k) | Op::Upsert(k) | Op::Delete(k) => k,
        Op::Range { lo, hi, .. } if single_shard(map, lo, hi) => lo,
        Op::Range { .. } => return, // multi-shard ranges exist only above this rung
    };
    let h = map.shard(map.shard_of(&key)).pin();
    let t0 = Instant::now();
    let outcome = match op {
        Op::Get(k) => Outcome::Value(h.get(&k)),
        Op::Insert(k) => Outcome::Inserted(h.insert(k, value_of(k))),
        Op::Upsert(k) => Outcome::Upserted(h.upsert(k, value_of(k))),
        Op::Delete(k) => Outcome::Deleted(h.delete(&k)),
        Op::Range { lo, hi, .. } => Outcome::Scanned(tally.range(lo, hi, h.range(lo..=hi))),
    };
    let t1 = Instant::now();
    let ns = (t1 - t0).as_nanos() as u64;
    let name = match op.kind() {
        Kind::Get => {
            r.core_get.record(ns);
            "core.get"
        }
        Kind::Update => {
            r.core_update.record(ns);
            r.updates += 1;
            "core.update"
        }
        Kind::Range => {
            if let Outcome::Scanned(n) = outcome {
                r.core_range.0 += ns;
                r.core_range.1 += n;
            }
            "core.range"
        }
    };
    tracer.record(name, t0, t1, parent, 0);
    tally.record(op, outcome);
}

fn shard_op(map: &Map, op: Op, r: &mut Rungs, tracer: &mut Tracer, parent: u64, tally: &mut Tally) {
    let mut s = map.pin();
    let t0 = Instant::now();
    let outcome = match op {
        Op::Range { lo, hi, snapshot } => {
            let (n, width) = if snapshot {
                let snap = s.snapshot();
                let ts = Instant::now();
                r.snapshot.record((ts - t0).as_nanos() as u64);
                tracer.record("shard.snapshot", t0, ts, parent, 0);
                let m = snap.range(lo..=hi);
                let width = m.width();
                (tally.range(lo, hi, m), width)
            } else {
                let m = s.range(lo..=hi);
                let width = m.width();
                (tally.range(lo, hi, m), width)
            };
            r.widths.0 += width as u64;
            r.widths.1 += 1;
            Outcome::Scanned(n)
        }
        _ => exec(&s, op, tally),
    };
    let t1 = Instant::now();
    let ns = (t1 - t0).as_nanos() as u64;
    let name = match (op.kind(), &outcome) {
        (Kind::Get, _) => {
            r.shard_get.record(ns);
            "shard.get"
        }
        (Kind::Update, _) => {
            r.updates += 1;
            "shard.update"
        }
        (Kind::Range, Outcome::Scanned(n)) => {
            r.shard_range.0 += ns;
            r.shard_range.1 += n;
            "shard.range"
        }
        (Kind::Range, _) => "shard.range",
    };
    tracer.record(name, t0, t1, parent, 0);
    tally.record(op, outcome);
    let r0 = Instant::now();
    s.refresh();
    let r1 = Instant::now();
    r.refresh.record((r1 - r0).as_nanos() as u64);
    tracer.record("epoch.refresh", r0, r1, parent, 0);
}

fn next_frame(bytes: &[u8]) -> Result<pnb_server::Frame, String> {
    let mut fb = FrameBuf::new();
    fb.feed(bytes);
    match fb.next_frame() {
        Ok(Some(f)) => Ok(f),
        Ok(None) => Err("incomplete frame".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn body_of(ops: &[Op]) -> ReqBody {
    match ops {
        [op] => req_body(*op),
        _ => ReqBody::Batch {
            ops: ops.iter().map(|&o| sub_op(o)).collect(),
        },
    }
}

/// The wire path without a socket: codec and handler, each timed.
fn wire_request(
    map: &Map,
    ops: &[Op],
    id: u64,
    r: &mut Rungs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let s = map.pin();
    let stats = ServerStats::default();
    let req = Request {
        id,
        body: body_of(ops),
    };
    let mut t = [Instant::now(); 6];
    let bytes = encode_request(&req);
    t[1] = Instant::now();
    let decoded = next_frame(&bytes).and_then(|f| decode_request(&f).map_err(|e| e.to_string()));
    t[2] = Instant::now();
    let Ok(decoded) = decoded else {
        for &op in ops {
            tally.record(
                op,
                Outcome::Error(format!("request did not decode: {decoded:?}")),
            );
        }
        return;
    };
    let resp = handler::handle(&decoded, &s, &stats, None);
    t[3] = Instant::now();
    let rbytes = encode_response(decoded.body.opcode(), &resp);
    t[4] = Instant::now();
    let back = next_frame(&rbytes).and_then(|f| decode_response(&f).map_err(|e| e.to_string()));
    t[5] = Instant::now();
    let ns = |i: usize| (t[i + 1] - t[i]).as_nanos() as u64;
    for (i, h) in [0usize, 1, 3, 4].into_iter().zip(0..4) {
        r.codec[h].record(ns(i));
    }
    r.handle_per_op.record(ns(2) / ops.len() as u64);
    r.bytes.0 += (bytes.len() + rbytes.len()) as u64;
    r.bytes.1 += ops.len() as u64;
    r.updates += ops.iter().filter(|o| o.kind() == Kind::Update).count() as u64;
    let p = tracer.open("wire.inproc", t[0], 0, id);
    for (i, name) in [
        "codec.encode_request",
        "codec.decode_request",
        "handler.handle",
        "codec.encode_response",
        "codec.decode_response",
    ]
    .into_iter()
    .enumerate()
    {
        tracer.record(name, t[i], t[i + 1], p, id);
    }
    tracer.close(p, t[5]);
    match (back.map(|b| b.body), ops) {
        (Ok(body), [op]) => {
            let outcome = outcome_of(*op, body, tally);
            tally.record(*op, outcome);
        }
        (Ok(RespBody::BatchResults(res)), _) => check_batch(ops, Ok(res), tally),
        (other, _) => {
            for &op in ops {
                tally.record(op, Outcome::Error(format!("response: {other:?}")));
            }
        }
    }
}

fn batch_request(map: &Map, ops: &[Op], r: &mut Rungs, tracer: &mut Tracer, tally: &mut Tally) {
    let s = map.pin();
    let batch: Vec<BatchOp<u64, u64>> = ops
        .iter()
        .map(|&o| match o {
            Op::Get(k) => BatchOp::Get(k),
            Op::Insert(k) => BatchOp::Insert(k, value_of(k)),
            Op::Upsert(k) => BatchOp::Upsert(k, value_of(k)),
            Op::Delete(k) => BatchOp::Delete(k),
            Op::Range { .. } => unreachable!("ranges are not batchable"),
        })
        .collect();
    let t0 = Instant::now();
    let (outs, report) = s.apply_batch_reported(&batch);
    tracer.record("shard.apply_batch", t0, Instant::now(), 0, 0);
    r.batch.merge(report);
    r.updates += ops.iter().filter(|o| o.kind() == Kind::Update).count() as u64;
    for (&op, o) in ops.iter().zip(outs) {
        let outcome = match o {
            BatchOutcome::Get(v) => Outcome::Value(v),
            BatchOutcome::Inserted(b) => Outcome::Inserted(b),
            BatchOutcome::Upserted(v) => Outcome::Upserted(v),
            BatchOutcome::Removed(v) => Outcome::Deleted(v.is_some()),
        };
        tally.record(op, outcome);
    }
}

/// Drive the tree-side rungs over `map` and record their metrics.
/// Returns the number of update ops the rungs issued.
pub fn tree_ladder(
    w: Workload,
    map: &Map,
    reqs: &[Vec<Op>],
    m: &mut Metrics,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> u64 {
    let mut r = Rungs::default();
    let rungs = match w {
        Workload::WireBulk => 4,
        Workload::WireRr => 3,
        _ => 2,
    };
    for (i, ops) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        match i % rungs {
            0 | 1 => {
                let t0 = Instant::now();
                let name = if i % rungs == 0 {
                    "ladder.core"
                } else {
                    "ladder.shard"
                };
                let p = tracer.open(name, t0, 0, id);
                for &op in ops {
                    if i % rungs == 0 {
                        core_op(map, op, &mut r, tracer, p, tally);
                    } else {
                        shard_op(map, op, &mut r, tracer, p, tally);
                    }
                }
                tracer.close(p, Instant::now());
            }
            2 => wire_request(map, ops, id, &mut r, tracer, tally),
            _ => batch_request(map, ops, &mut r, tracer, tally),
        }
    }
    let med = |h: &Hist| h.quantile(0.5);
    m.insert("core.get_ns", med(&r.core_get));
    m.insert("core.update_ns", med(&r.core_update));
    m.insert(
        "core.range_ns_per_key",
        ratio(r.core_range.0, r.core_range.1),
    );
    m.insert("shard.get_ns", med(&r.shard_get));
    m.insert("shard.route_ns", med(&r.shard_get) - med(&r.core_get));
    m.insert(
        "shard.range_ns_per_key",
        ratio(r.shard_range.0, r.shard_range.1),
    );
    m.insert("shard.range_shards_touched", ratio(r.widths.0, r.widths.1));
    m.insert("shard.snapshot_ns", med(&r.snapshot));
    m.insert("core.batch_ops_per_descent", r.batch.ops_per_descent());
    if w.is_wire() {
        m.insert("epoch.refresh_ns", med(&r.refresh));
        for (name, h) in [
            "codec.encode_request_ns",
            "codec.decode_request_ns",
            "codec.encode_response_ns",
            "codec.decode_response_ns",
        ]
        .into_iter()
        .zip(&r.codec)
        {
            m.insert(name, med(h));
        }
        m.insert("handler.handle_ns_per_op", med(&r.handle_per_op));
        m.insert("codec.bytes_per_op", ratio(r.bytes.0, r.bytes.1));
    }
    r.updates
}

/// Depth-1 calls through both clients, then pings, on a server whose
/// load threads have stopped.
pub fn socket_ladder(
    addr: SocketAddr,
    reqs: &[Vec<Op>],
    m: &mut Metrics,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut plain = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut retry = ReconnectingClient::new(addr);
    plain.ping().map_err(|e| e.to_string())?;
    retry.ping().map_err(|e| e.to_string())?;
    let (mut h_plain, mut h_retry, mut h_ping) =
        (Hist::default(), Hist::default(), Hist::default());
    for (i, ops) in reqs.iter().take(SOCKET_REQUESTS).enumerate() {
        let id = 1_000_000 + i as u64;
        let t0 = Instant::now();
        let name = if i % 2 == 0 {
            call(&mut plain, ops, tally);
            "client.call"
        } else {
            call(&mut retry, ops, tally);
            "retry.call"
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        if i % 2 == 0 {
            &mut h_plain
        } else {
            &mut h_retry
        }
        .record(ns);
        tracer.record(name, t0, t1, 0, id);
    }
    for _ in 0..PINGS {
        let t0 = Instant::now();
        if let Err(e) = plain.ping() {
            tally.fail(|| format!("ping: {e}"));
        }
        let t1 = Instant::now();
        h_ping.record((t1 - t0).as_nanos() as u64);
        tracer.record("server.ping", t0, t1, 0, 0);
    }
    let us = |h: &Hist| h.quantile(0.5) / 1e3;
    let codec_handler_ns: f64 = [
        "codec.encode_request_ns",
        "codec.decode_request_ns",
        "codec.encode_response_ns",
        "codec.decode_response_ns",
    ]
    .iter()
    .map(|n| m[n])
    .sum::<f64>()
        + m["handler.handle_ns_per_op"] * reqs.first().map_or(1, Vec::len) as f64;
    m.insert("client.call_us", us(&h_plain));
    m.insert("retry.overhead_us", us(&h_retry) - us(&h_plain));
    m.insert("server.ping_rtt_us", us(&h_ping));
    m.insert("server.transport_us", us(&h_plain) - codec_handler_ns / 1e3);
    Ok(())
}

fn call(c: &mut impl crate::wire::Remote, ops: &[Op], tally: &mut Tally) {
    match ops {
        [op] => {
            let outcome = exec_remote(c, *op, tally);
            tally.record(*op, outcome);
        }
        _ => {
            let subs: Vec<BatchSubOp> = ops.iter().map(|&o| sub_op(o)).collect();
            check_batch(ops, c.batch(&subs), tally);
        }
    }
}
