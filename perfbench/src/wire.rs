//! The wire workloads (`wire-rr`, `wire-bulk`): an in-process `Server`
//! on loopback (8 shards, 2 workers, default admission) driven by two
//! client threads, each with its own connection.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pnb_server::{
    BatchSubOp, BatchSubResult, Client, ClientError, ReconnectingClient, ReqBody, RespBody, Server,
    ServerConfig, ServerStats, ShutdownHandle,
};

use crate::check::{Outcome, Tally};
use crate::load::{join_all, sampled, tracer_for, LoadOut, Window, THREADS};
use crate::trace::Tracer;
use crate::workload::{value_of, Op, OpGen, Spec, BATCH_DEPTH, BATCH_OPS, SHARDS, THREAD};

pub struct Running {
    pub addr: SocketAddr,
    pub stats: Arc<ServerStats>,
    shutdown: ShutdownHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Drain and stop the server, waiting for its threads.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.signal();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

pub fn spawn_server() -> std::io::Result<Running> {
    let cfg = ServerConfig {
        shards: SHARDS,
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg)?;
    let stats = server.stats();
    let (addr, shutdown, join) = server.spawn()?;
    Ok(Running {
        addr,
        stats,
        shutdown,
        join,
    })
}

pub fn sub_op(op: Op) -> BatchSubOp {
    match op {
        Op::Get(key) => BatchSubOp::Get { key },
        Op::Insert(key) => BatchSubOp::Insert {
            key,
            value: value_of(key),
        },
        Op::Upsert(key) => BatchSubOp::Upsert {
            key,
            value: value_of(key),
        },
        Op::Delete(key) => BatchSubOp::Delete { key },
        Op::Range { .. } => unreachable!("ranges are not batchable"),
    }
}

/// The request body a single op travels as.
pub fn req_body(op: Op) -> ReqBody {
    match op {
        Op::Get(key) => ReqBody::Get { key },
        Op::Insert(key) => ReqBody::Insert {
            key,
            value: value_of(key),
        },
        Op::Upsert(key) => ReqBody::Upsert {
            key,
            value: value_of(key),
        },
        Op::Delete(key) => ReqBody::Delete { key },
        Op::Range {
            lo,
            hi,
            snapshot: false,
        } => ReqBody::Range {
            lo,
            hi,
            count_only: false,
        },
        Op::Range {
            lo,
            hi,
            snapshot: true,
        } => ReqBody::SnapshotScan {
            lo,
            hi,
            count_only: false,
        },
    }
}

/// Check a range reply: entries in order and in bounds, and a full
/// count that matches them unless the server flagged truncation.
fn entries(
    tally: &mut Tally,
    lo: u64,
    hi: u64,
    count: u64,
    list: &[(u64, u64)],
    truncated: bool,
) -> Outcome {
    let n = tally.range(lo, hi, list.iter().copied());
    if !truncated && count != n {
        tally.fail(|| format!("range [{lo}, {hi}]: count {count} but {n} entries, not truncated"));
    }
    Outcome::Scanned(n)
}

/// Map a single op's response body to its outcome.
pub fn outcome_of(op: Op, body: RespBody, tally: &mut Tally) -> Outcome {
    match (op, body) {
        (Op::Get(_), RespBody::Value(v)) => Outcome::Value(v),
        (Op::Insert(_), RespBody::Bool(b)) => Outcome::Inserted(b),
        (Op::Upsert(_), RespBody::Displaced(v)) => Outcome::Upserted(v),
        (Op::Delete(_), RespBody::Bool(b)) => Outcome::Deleted(b),
        (
            Op::Range { lo, hi, .. },
            RespBody::Entries {
                count,
                entries: list,
                truncated,
            },
        ) => entries(tally, lo, hi, count, &list, truncated),
        (_, other) => Outcome::Error(format!("unexpected response {other:?}")),
    }
}

/// Check a batch reply: one result per sub-op, each the right shape and
/// none an error. A reply of the wrong length fails every sub-op.
pub fn check_batch(ops: &[Op], reply: Result<Vec<BatchSubResult>, ClientError>, tally: &mut Tally) {
    let results = match reply {
        Ok(r) if r.len() == ops.len() => r,
        Ok(r) => {
            let got = r.len();
            for &op in ops {
                tally.record(
                    op,
                    Outcome::Error(format!(
                        "batch of {} answered with {got} results",
                        ops.len()
                    )),
                );
            }
            return;
        }
        Err(e) => {
            for &op in ops {
                tally.record(op, Outcome::Error(e.to_string()));
            }
            return;
        }
    };
    for (&op, r) in ops.iter().zip(results) {
        let outcome = match (op, r) {
            (Op::Get(_), BatchSubResult::Value(v)) => Outcome::Value(v),
            (Op::Insert(_), BatchSubResult::Bool(b)) => Outcome::Inserted(b),
            (Op::Upsert(_), BatchSubResult::Displaced(v)) => Outcome::Upserted(v),
            (Op::Delete(_), BatchSubResult::Bool(b)) => Outcome::Deleted(b),
            (_, other) => Outcome::Error(format!("batch slot answered {other:?}")),
        };
        tally.record(op, outcome);
    }
}

/// The typed calls both client flavours offer, so the ladder can drive
/// `Client` and `ReconnectingClient` through identical code.
pub trait Remote {
    fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError>;
    fn insert(&mut self, key: u64, value: u64) -> Result<bool, ClientError>;
    fn upsert(&mut self, key: u64, value: u64) -> Result<Option<u64>, ClientError>;
    fn delete(&mut self, key: u64) -> Result<bool, ClientError>;
    fn range_entries(&mut self, lo: u64, hi: u64) -> Result<pnb_server::RangeReply, ClientError>;
    fn snapshot_entries(&mut self, lo: u64, hi: u64)
        -> Result<pnb_server::RangeReply, ClientError>;
    fn batch(&mut self, ops: &[BatchSubOp]) -> Result<Vec<BatchSubResult>, ClientError>;
}

macro_rules! remote_impl {
    ($t:ty) => {
        impl Remote for $t {
            fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
                <$t>::get(self, key)
            }
            fn insert(&mut self, key: u64, value: u64) -> Result<bool, ClientError> {
                <$t>::insert(self, key, value)
            }
            fn upsert(&mut self, key: u64, value: u64) -> Result<Option<u64>, ClientError> {
                <$t>::upsert(self, key, value)
            }
            fn delete(&mut self, key: u64) -> Result<bool, ClientError> {
                <$t>::delete(self, key)
            }
            fn range_entries(
                &mut self,
                lo: u64,
                hi: u64,
            ) -> Result<pnb_server::RangeReply, ClientError> {
                <$t>::range_entries(self, lo, hi)
            }
            fn snapshot_entries(
                &mut self,
                lo: u64,
                hi: u64,
            ) -> Result<pnb_server::RangeReply, ClientError> {
                <$t>::snapshot_entries(self, lo, hi)
            }
            fn batch(&mut self, ops: &[BatchSubOp]) -> Result<Vec<BatchSubResult>, ClientError> {
                <$t>::batch(self, ops)
            }
        }
    };
}
remote_impl!(Client);
remote_impl!(ReconnectingClient);

/// One op over a blocking client at depth 1.
pub fn exec_remote(c: &mut impl Remote, op: Op, tally: &mut Tally) -> Outcome {
    let res = match op {
        Op::Get(k) => c.get(k).map(Outcome::Value),
        Op::Insert(k) => c.insert(k, value_of(k)).map(Outcome::Inserted),
        Op::Upsert(k) => c.upsert(k, value_of(k)).map(Outcome::Upserted),
        Op::Delete(k) => c.delete(k).map(Outcome::Deleted),
        Op::Range { lo, hi, snapshot } => {
            let r = if snapshot {
                c.snapshot_entries(lo, hi)
            } else {
                c.range_entries(lo, hi)
            };
            r.map(|r| entries(tally, lo, hi, r.count, &r.entries, r.truncated))
        }
    };
    res.unwrap_or_else(|e| Outcome::Error(e.to_string()))
}

/// Batch frames the prefill keeps in flight: deep enough that the worker
/// never drains its queue and sleeps between them (at 8 it sometimes
/// did, and set-up time followed the sleeps), and within admission's
/// 4,096 ops per pass.
const PREFILL_DEPTH: usize = 32;

/// Prefill through Batch frames of `BATCH_OPS` inserts, `PREFILL_DEPTH`
/// in flight.
pub fn prefill(addr: SocketAddr, keys: &[u64], tally: &mut Tally) -> Result<(), ClientError> {
    let mut c = Client::connect(addr)?;
    let mut fresh = Tally::default();
    let mut inflight: VecDeque<(u64, Vec<Op>)> = VecDeque::new();
    let mut chunks = keys.chunks(BATCH_OPS);
    loop {
        while inflight.len() < PREFILL_DEPTH {
            let Some(chunk) = chunks.next() else { break };
            let ops: Vec<Op> = chunk.iter().map(|&k| Op::Insert(k)).collect();
            let id = c.send(ReqBody::Batch {
                ops: ops.iter().map(|&o| sub_op(o)).collect(),
            })?;
            inflight.push_back((id, ops));
        }
        let Some((id, ops)) = inflight.pop_front() else {
            break;
        };
        check_batch(&ops, recv_batch(&mut c, id), &mut fresh);
    }
    if fresh.inserted != keys.len() as u64 {
        let n = fresh.inserted;
        tally.fail(|| format!("prefill inserted {n} of {} fresh keys", keys.len()));
    }
    tally.failed += fresh.failed;
    tally.messages.extend(fresh.messages);
    Ok(())
}

/// Receive the reply to Batch request `id`, the next one on the stream.
fn recv_batch(c: &mut Client, id: u64) -> Result<Vec<BatchSubResult>, ClientError> {
    c.recv().and_then(|(got, body)| match body {
        RespBody::BatchResults(r) if got == id => Ok(r),
        other => Err(ClientError::Remote(
            pnb_server::StatusCode::Internal,
            format!("request {id}: reply {got} {other:?}"),
        )),
    })
}

fn rr_span(op: Op) -> &'static str {
    match op {
        Op::Get(_) => "retry.get",
        Op::Insert(_) => "retry.insert",
        Op::Upsert(_) => "retry.upsert",
        Op::Delete(_) => "retry.delete",
        Op::Range { .. } => "retry.range_entries",
    }
}

/// `wire-rr`: each thread drives one `ReconnectingClient` at depth 1.
pub fn run_rr(
    clients: Vec<ReconnectingClient>,
    spec: Spec,
    seed: u64,
    w: &Window,
    traced: bool,
) -> (LoadOut, Vec<Tracer>) {
    join_all(std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut c)| {
                let t = t as u64;
                sc.spawn(move || {
                    let mut gen = OpGen::new(spec, seed, THREAD + t, None);
                    let mut out = LoadOut::default();
                    let mut tracer = tracer_for(traced, w, t + 1);
                    for i in 0u64.. {
                        let op = gen.next_op();
                        let t0 = Instant::now();
                        if t0 >= w.end {
                            break;
                        }
                        let outcome = exec_remote(&mut c, op, &mut out.tally);
                        let t1 = Instant::now();
                        if sampled(&tracer, w, t0, i) {
                            if let Some(tr) = tracer.as_mut() {
                                tr.record(rr_span(op), t0, t1, 0, t << 32 | i);
                            }
                        }
                        out.op(w, op, outcome, t0, t1);
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

/// `wire-bulk`: each thread keeps `BATCH_DEPTH` Batch frames of
/// `BATCH_OPS` point ops in flight on one raw `Client`.
pub fn run_bulk(
    clients: Vec<Client>,
    spec: Spec,
    seed: u64,
    w: &Window,
    traced: bool,
) -> (LoadOut, Vec<Tracer>) {
    join_all(std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut c)| {
                let t = t as u64;
                sc.spawn(move || {
                    let mut gen = OpGen::new(spec, seed, THREAD + t, None);
                    let mut out = LoadOut::default();
                    let mut tracer = tracer_for(traced, w, t + 1);
                    let mut inflight: VecDeque<(u64, Instant, Vec<Op>, u64)> = VecDeque::new();
                    let mut sent = 0u64;
                    loop {
                        while inflight.len() < BATCH_DEPTH && Instant::now() < w.end {
                            let ops: Vec<Op> = (0..BATCH_OPS).map(|_| gen.next_op()).collect();
                            let body = ReqBody::Batch {
                                ops: ops.iter().map(|&o| sub_op(o)).collect(),
                            };
                            let t0 = Instant::now();
                            match c.send(body) {
                                Ok(id) => {
                                    let span = if sampled(&tracer, w, t0, sent) {
                                        let tr = tracer.as_mut().expect("sampled implies traced");
                                        let p = tr.open("client.batch", t0, 0, id);
                                        tr.record("client.send", t0, Instant::now(), p, id);
                                        p
                                    } else {
                                        0
                                    };
                                    inflight.push_back((id, t0, ops, span));
                                    sent += 1;
                                }
                                Err(e) => {
                                    let msg = e.to_string();
                                    for &op in &ops {
                                        out.tally.record(op, Outcome::Error(msg.clone()));
                                    }
                                    break;
                                }
                            }
                        }
                        let Some((id, t0, ops, span)) = inflight.pop_front() else {
                            break;
                        };
                        let reply = recv_batch(&mut c, id);
                        let t1 = Instant::now();
                        let broken = reply.is_err();
                        check_batch(&ops, reply, &mut out.tally);
                        if let Some(tr) = tracer.as_mut() {
                            tr.close(span, t1);
                        }
                        out.batch(w, &ops, t0, t1);
                        if broken {
                            // The stream is out of step; the remaining
                            // in-flight frames cannot be paired.
                            for (_, _, ops, _) in inflight.drain(..) {
                                for &op in &ops {
                                    out.tally.record(
                                        op,
                                        Outcome::Error("connection out of step".into()),
                                    );
                                }
                            }
                            break;
                        }
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

/// The load connections, dialed inside set-up (one ping each, so the
/// timed phase never pays a connect).
pub enum Dialed {
    Rr(Vec<ReconnectingClient>),
    Bulk(Vec<Client>),
}

/// Dial the load connections and a probe connection (for Stats and the
/// final count). The server hands connections to its workers
/// round-robin. On `wire-bulk` the two load connections get one worker
/// each, so both workers run flat out. On `wire-rr` the probe is dialed
/// between them, which puts both depth-1 connections on one worker:
/// with one connection per worker, about half of all requests wait out
/// the worker's idle sleep and the median flips between ~40 µs and
/// ~580 µs from run to run, which no bound can hold.
pub fn dial(addr: SocketAddr, bulk: bool) -> Result<(Dialed, Client), ClientError> {
    let pinged = |mut c: Client| c.ping().map(|()| c);
    if bulk {
        let load = (0..THREADS)
            .map(|_| pinged(Client::connect(addr)?))
            .collect::<Result<_, _>>()?;
        return Ok((Dialed::Bulk(load), pinged(Client::connect(addr)?)?));
    }
    let mut load = Vec::new();
    let mut probe = None;
    for _ in 0..THREADS {
        let mut c = ReconnectingClient::new(addr);
        c.ping()?;
        load.push(c);
        if probe.is_none() {
            probe = Some(pinged(Client::connect(addr)?)?);
        }
    }
    Ok((Dialed::Rr(load), probe.expect("THREADS > 0")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_or_failing_batch_reply_fails_every_sub_op() {
        let ops = [Op::Get(1), Op::Insert(2)];
        let mut t = Tally::default();
        check_batch(
            &ops,
            Ok(vec![
                BatchSubResult::Value(None),
                BatchSubResult::Bool(true),
            ]),
            &mut t,
        );
        assert_eq!((t.attempted, t.failed, t.inserted), (2, 0, 1));
        check_batch(&ops, Ok(vec![BatchSubResult::Value(None)]), &mut t);
        assert_eq!((t.attempted, t.failed), (4, 2));
        let slot_error = BatchSubResult::Error(pnb_server::StatusCode::BadPayload, "junk".into());
        check_batch(
            &ops,
            Ok(vec![BatchSubResult::Value(None), slot_error]),
            &mut t,
        );
        assert_eq!((t.attempted, t.failed), (6, 3));
    }

    #[test]
    fn a_range_reply_whose_count_disagrees_is_counted() {
        let mut t = Tally::default();
        let list = [(3, value_of(3)), (4, value_of(4))];
        entries(&mut t, 0, 9, 2, &list, false);
        entries(&mut t, 0, 9, 5, &list, true); // truncated: count may exceed
        assert_eq!(t.failed, 0);
        entries(&mut t, 0, 9, 3, &list, false);
        assert_eq!(t.failed, 1);
    }
}
