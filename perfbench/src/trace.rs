//! In-memory spans for the traced run, written out as JSONL at exit.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented). A span's *self time* is its
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique across the run's tracers; 0 is "no span".
    pub id: u64,
    pub parent: u64,
    /// The request this span belongs to (shared by a request's spans).
    pub req: u64,
}

/// One thread's span buffer. Recording stops silently at `cap` so a
/// long run cannot grow memory without bound.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    cap: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every tracer of the run so timestamps line
    /// up; `lane` keeps span ids of different tracers apart.
    pub fn new(origin: Instant, lane: u64, cap: usize) -> Self {
        Tracer {
            origin,
            id_base: lane << 40,
            cap,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span from timestamps the caller already took;
    /// returns its id (0 when the buffer is full).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        if self.spans.len() >= self.cap {
            return 0;
        }
        let id = self.id_base + self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            req,
        });
        id
    }

    /// Reserve a parent span before its children run; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u64, req: u64) -> u64 {
        self.record(name, start, start, parent, req)
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        if id != 0 {
            let end_ns = self.ns(end);
            self.spans[(id - self.id_base - 1) as usize].end_ns = end_ns;
        }
    }
}

/// Per span name: how many, total duration and total self time (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"id":{},"parent":{},"req":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("parent", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 20, 50),  // overlaps a
            span("c", 4, 1, 90, 120), // runs past the parent
            span("leaf", 5, 2, 12, 14),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["parent"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["a"].self_ns, 18);
        assert_eq!(t["c"].self_ns, 30);
    }

    #[test]
    fn open_close_and_cap() {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 1, 2);
        let p = tr.open("p", origin, 0, 7);
        let c = tr.record("c", origin, Instant::now(), p, 7);
        tr.close(p, Instant::now());
        assert_eq!(tr.record("x", origin, origin, 0, 7), 0);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, p);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns && c != p);
    }
}
