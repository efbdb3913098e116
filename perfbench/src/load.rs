//! What one load thread measures, and the timed-window bookkeeping
//! shared by every workload's closed loop.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::check::{Outcome, Tally};
use crate::hist::Hist;
use crate::trace::Tracer;
use crate::workload::{Kind, Op};

/// Load threads (and connections) per workload: the box has two
/// hardware threads, so anything wider is unverified here.
pub const THREADS: usize = 2;
/// In a traced run, one timed request in this many gets a span.
pub const SAMPLE_EVERY: u64 = 64;
/// Span buffer per tracer.
pub const SPAN_CAP: usize = 60_000;

/// The timed window is cut into this many equal slices. On a shared host
/// the neighbours only ever take CPU away, so a disturbed slice is a slow
/// one: the reported throughput is the upper quartile of the slices'
/// throughputs (each over the time the hypervisor left the guest, see
/// [`guest_secs`]), and each latency quantile the lower quartile of the
/// slices' values. Either holds while a quarter of the window runs
/// undisturbed, where a median flips with whether half of it did.
pub const SLICES: usize = 20;
/// Where among the ranked slices the reported figure sits: the fast side.
const FAST_QUARTILE: f64 = 0.75;

/// The run's clock: an untimed warm-up, then the timed window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub origin: Instant,
    pub warm_end: Instant,
    pub end: Instant,
}

impl Window {
    pub fn starting_now(warmup: Duration, timed: Duration) -> Self {
        let origin = Instant::now();
        Window {
            origin,
            warm_end: origin + warmup,
            end: origin + warmup + timed,
        }
    }

    pub fn slice_secs(&self) -> f64 {
        (self.end - self.warm_end).as_secs_f64() / SLICES as f64
    }

    /// The slice a request issued at `t0` (inside the window) belongs to;
    /// requests drained after the end count in the last slice.
    fn slice(&self, t0: Instant) -> usize {
        (((t0 - self.warm_end).as_secs_f64() / self.slice_secs()) as usize).min(SLICES - 1)
    }
}

#[derive(Clone, Debug, Default)]
pub struct LoadOut {
    /// Every timed request (one op, or one Batch frame).
    pub all: Hist,
    /// `all`, and the ops completed, per slice of the timed window.
    pub slices: [Hist; SLICES],
    pub slice_ops: [u64; SLICES],
    pub get: Hist,
    pub update: Hist,
    pub range: Hist,
    pub batch: Hist,
    /// `ShardedSession::refresh` durations (in-process workloads).
    pub refresh: Hist,
    /// Ops completed in the timed window (a batch counts its sub-ops).
    pub timed_ops: u64,
    /// Keys delivered by timed range scans.
    pub range_keys: u64,
    /// When the last timed request completed.
    pub last: Option<Instant>,
    /// Update and scan ops over warm-up and timed window, the base of
    /// the traced run's per-update and per-scan ratios.
    pub updates: u64,
    pub scans: u64,
    pub tally: Tally,
}

impl LoadOut {
    /// Account one finished single op: check it, and time it if it began
    /// inside the timed window.
    pub fn op(&mut self, w: &Window, op: Op, outcome: Outcome, t0: Instant, t1: Instant) {
        let keys = match outcome {
            Outcome::Scanned(n) => n,
            _ => 0,
        };
        self.tally.record(op, outcome);
        match op.kind() {
            Kind::Update => self.updates += 1,
            Kind::Range => self.scans += 1,
            Kind::Get => {}
        }
        if t0 < w.warm_end {
            return;
        }
        let ns = (t1 - t0).as_nanos() as u64;
        self.timed(w, ns, 1, t0, t1);
        match op.kind() {
            Kind::Get => self.get.record(ns),
            Kind::Update => self.update.record(ns),
            Kind::Range => {
                self.range.record(ns);
                self.range_keys += keys;
            }
        }
    }

    /// Account one finished Batch frame of `ops` sub-ops (already
    /// checked into the tally) sent at `t0`.
    pub fn batch(&mut self, w: &Window, ops: &[Op], t0: Instant, t1: Instant) {
        self.updates += ops.iter().filter(|o| o.kind() == Kind::Update).count() as u64;
        if t0 < w.warm_end {
            return;
        }
        let ns = (t1 - t0).as_nanos() as u64;
        self.batch.record(ns);
        self.timed(w, ns, ops.len() as u64, t0, t1);
    }

    fn timed(&mut self, w: &Window, ns: u64, ops: u64, t0: Instant, t1: Instant) {
        let i = w.slice(t0);
        self.all.record(ns);
        self.slices[i].record(ns);
        self.slice_ops[i] += ops;
        self.timed_ops += ops;
        self.last = Some(t1);
    }

    /// Upper quartile over the slices of their throughput, ops/s, given
    /// each slice's share of stolen CPU time.
    pub fn throughput(&self, w: &Window, steal: &[f64; SLICES]) -> f64 {
        ranked(
            self.slice_ops
                .iter()
                .zip(steal)
                .map(|(&n, &s)| n as f64 / guest_secs(w.slice_secs(), s))
                .collect(),
            FAST_QUARTILE,
        )
    }

    /// Lower quartile over the slices of their `q` quantile, ns.
    pub fn quantile(&self, q: f64) -> f64 {
        ranked(
            self.slices.iter().map(|h| h.quantile(q)).collect(),
            1.0 - FAST_QUARTILE,
        )
    }

    pub fn merge(&mut self, o: LoadOut) {
        for (a, b) in [
            (&mut self.all, &o.all),
            (&mut self.get, &o.get),
            (&mut self.update, &o.update),
            (&mut self.range, &o.range),
            (&mut self.batch, &o.batch),
            (&mut self.refresh, &o.refresh),
        ] {
            a.merge(b);
        }
        for i in 0..SLICES {
            self.slices[i].merge(&o.slices[i]);
            self.slice_ops[i] += o.slice_ops[i];
        }
        self.timed_ops += o.timed_ops;
        self.range_keys += o.range_keys;
        self.last = self.last.max(o.last);
        self.updates += o.updates;
        self.scans += o.scans;
        self.tally.merge(o.tally);
    }

    /// Length of the timed window as the threads actually ran it.
    pub fn timed_secs(&self, w: &Window) -> f64 {
        self.last.map_or(0.0, |l| (l - w.warm_end).as_secs_f64())
    }
}

/// The `q` quantile (a fraction in [0, 1]) of `v`, interpolating
/// linearly between the ranked values.
fn ranked(mut v: Vec<f64>, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} is not a fraction");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos as usize, pos.fract());
    v[i] + (v[(i + 1).min(v.len() - 1)] - v[i]) * frac
}

/// Jiffies of all CPU time and of steal time (time the hypervisor ran
/// other guests on this guest's CPUs), from the first line of /proc/stat.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of the guest's CPU time stolen between two `cpu_jiffies` reads.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64
}

/// The part of `secs` of wall time the hypervisor left to the guest,
/// given the share it stole. Stolen time stalls whatever the guest runs,
/// so a CPU-bound stretch takes that much longer; leaving it out keeps
/// a busy neighbour on the host from reading as a slower program.
pub fn guest_secs(secs: f64, steal: f64) -> f64 {
    secs * (1.0 - steal.min(0.9))
}

/// A stopwatch that reads [`guest_secs`]: wall time less the share of
/// CPU time stolen meanwhile.
pub struct GuestClock {
    start: Instant,
    jiffies: (u64, u64),
}

impl GuestClock {
    pub fn start() -> Self {
        GuestClock {
            jiffies: cpu_jiffies(),
            start: Instant::now(),
        }
    }

    pub fn secs(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        guest_secs(wall, steal_share(self.jiffies, cpu_jiffies()))
    }
}

/// Watch the timed window from a thread that sleeps between the slice
/// boundaries and reads /proc/stat at each; it returns every slice's
/// share of CPU time that the hypervisor stole.
pub fn watch_steal(w: Window) -> JoinHandle<[f64; SLICES]> {
    std::thread::spawn(move || {
        let mut shares = [0.0; SLICES];
        let boundary = |i: usize| w.warm_end + Duration::from_secs_f64(w.slice_secs() * i as f64);
        std::thread::sleep(boundary(0).saturating_duration_since(Instant::now()));
        let mut prev = cpu_jiffies();
        for (i, share) in shares.iter_mut().enumerate() {
            std::thread::sleep(boundary(i + 1).saturating_duration_since(Instant::now()));
            let now = cpu_jiffies();
            *share = steal_share(prev, now);
            prev = now;
        }
        shares
    })
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tracer for load thread `t` when the run is traced.
pub fn tracer_for(traced: bool, w: &Window, lane: u64) -> Option<Tracer> {
    traced.then(|| Tracer::new(w.origin, lane, SPAN_CAP))
}

/// Whether timed request number `i` of a traced run gets a span.
pub fn sampled(tracer: &Option<Tracer>, w: &Window, t0: Instant, i: u64) -> bool {
    tracer.is_some() && t0 >= w.warm_end && i.is_multiple_of(SAMPLE_EVERY)
}

/// Merge what the load threads returned.
pub fn join_all(results: Vec<(LoadOut, Option<Tracer>)>) -> (LoadOut, Vec<Tracer>) {
    let mut out = LoadOut::default();
    let mut tracers = Vec::new();
    for (o, t) in results {
        out.merge(o);
        tracers.extend(t);
    }
    (out, tracers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_interpolates_and_matches_the_median() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(ranked(v.clone(), 0.5), median(v.clone()));
        assert_eq!(ranked(v.clone(), 0.75), 4.0);
        assert_eq!(ranked(v.clone(), 0.0), 1.0);
        assert_eq!(ranked(v.clone(), 1.0), 5.0);
        assert_eq!(ranked(vec![1.0, 2.0], 0.25), 1.25);
    }
}
