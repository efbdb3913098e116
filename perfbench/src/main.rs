//! perfbench: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace --trace-out <file.jsonl>]
//! ```
//!
//! Prints a human-readable table, then as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Untraced, the
//! metrics are the end-to-end ones; with `--trace` (the `stats` build
//! only) they are the per-layer ones plus the traced run's own
//! `throughput_ops`, from which `run.py` derives the tracing overhead.
//! Exits 1 when any output check failed.

mod check;
mod hist;
mod inproc;
mod layers;
mod load;
mod rng;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

use check::Tally;
use layers::Metrics;
use load::{median, GuestClock, LoadOut, Window, SLICES};
use trace::Tracer;
use workload::{prefill_keys, zipf_for, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut trace_out) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = true,
            "--trace-out" => trace_out = Some(PathBuf::from(val()?)),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    if traced && !cfg!(feature = "stats") {
        return Err("--trace needs the build with the `stats` feature".into());
    }
    if traced && trace_out.is_none() {
        return Err("--trace needs --trace-out".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace_out,
    })
}

/// Set-ups per run; the reported `setup_s` is their median. The first
/// set-up serves the workload; the others run after the workload's peak
/// RSS has been read, so they cannot inflate it.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::PointLarge => 3,
        _ => 7,
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run hands to the report.
struct Outcome {
    setup_s: f64,
    /// Share of CPU time stolen by the hypervisor in each slice.
    steal: [f64; SLICES],
    peak_rss_mib: f64,
    load: LoadOut,
    window: Window,
    tally: Tally,
    layers: Option<Metrics>,
    spans: Vec<trace::Span>,
}

fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).clamp(0.5, 2.0))
}

/// Return a dropped map's memory before the next set-up.
fn release_memory() {
    pnb_bst::collector_drain(4);
    pnb_bst::arena_trim();
}

fn run_inproc(a: &Args) -> Outcome {
    let spec = a.workload.spec();
    let keys = prefill_keys(&spec, a.seed);
    let mut tally = Tally::default();
    let clock = GuestClock::start();
    let map = inproc::build(&keys, &mut tally);
    let mut setups = vec![clock.secs()];
    let traced = a.trace_out.is_some();
    let (tree0, glob0, shards0) = (
        layers::tree_stats(&map),
        layers::global(),
        layers::shard_totals(&map),
    );
    let window = Window::starting_now(warmup(a.seconds), Duration::from_secs_f64(a.seconds));
    let watch = load::watch_steal(window);
    let (mut load, tracers) = inproc::run(&map, spec, a.seed, &window, traced);
    let steal = watch.join().expect("steal watch panicked");
    let mut spans: Vec<trace::Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    let layers = traced.then(|| {
        let mut m = layers::empty();
        layers::core_counters(&mut m, tree0, layers::tree_stats(&map), load.updates);
        layers::global_counters(&mut m, glob0, layers::global(), load.updates);
        layers::imbalance(&mut m, &shards0, &layers::shard_totals(&map));
        m.insert("epoch.refresh_ns", load.refresh.quantile(0.5));
        let mut tr = Tracer::new(window.origin, 0, 400_000);
        let reqs = layers::requests(a.workload, spec, a.seed, zipf_for(&spec));
        layers::tree_ladder(a.workload, &map, &reqs, &mut m, &mut tr, &mut load.tally);
        spans.extend(tr.spans);
        m
    });
    inproc::final_checks(&map, keys.len() as u64, &mut load.tally);
    let peak_rss_mib = peak_rss_mib();
    drop(map);
    for _ in 1..setup_reps(a.workload) {
        release_memory();
        let clock = GuestClock::start();
        let map = inproc::build(&keys, &mut tally);
        setups.push(clock.secs());
        drop(map);
    }
    Outcome {
        setup_s: median(setups),
        steal,
        peak_rss_mib,
        load,
        window,
        tally,
        layers,
        spans,
    }
}

/// Spawn the server, prefill it and dial the load connections.
fn wire_setup(
    bulk: bool,
    keys: &[u64],
    tally: &mut Tally,
) -> Result<(wire::Running, wire::Dialed, pnb_server::Client), String> {
    let server = wire::spawn_server().map_err(|e| format!("server: {e}"))?;
    wire::prefill(server.addr, keys, tally).map_err(|e| format!("prefill: {e}"))?;
    let (dialed, probe) = wire::dial(server.addr, bulk).map_err(|e| format!("dial: {e}"))?;
    Ok((server, dialed, probe))
}

fn run_wire(a: &Args) -> Result<Outcome, String> {
    let spec = a.workload.spec();
    let keys = prefill_keys(&spec, a.seed);
    let bulk = a.workload == Workload::WireBulk;
    let mut tally = Tally::default();
    let clock = GuestClock::start();
    let (server, dialed, mut probe) = wire_setup(bulk, &keys, &mut tally)?;
    let mut setups = vec![clock.secs()];
    let traced = a.trace_out.is_some();
    let shards0 = if traced {
        probe.stats().map_err(|e| e.to_string())?.shard_ops
    } else {
        Vec::new()
    };
    let glob0 = layers::global();
    let window = Window::starting_now(warmup(a.seconds), Duration::from_secs_f64(a.seconds));
    let watch = load::watch_steal(window);
    let (mut load, tracers) = match dialed {
        wire::Dialed::Bulk(c) => wire::run_bulk(c, spec, a.seed, &window, traced),
        wire::Dialed::Rr(c) => wire::run_rr(c, spec, a.seed, &window, traced),
    };
    let steal = watch.join().expect("steal watch panicked");
    let mut spans: Vec<trace::Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    let layers = if traced {
        let mut m = layers::empty();
        layers::global_counters(&mut m, glob0, layers::global(), load.updates);
        let shards1 = probe.stats().map_err(|e| e.to_string())?.shard_ops;
        layers::imbalance(&mut m, &shards0, &shards1);
        let s = server.stats.snapshot();
        m.insert(
            "server.shed_ratio",
            s.shed as f64 / load.tally.attempted.max(1) as f64,
        );
        m.insert(
            "server.peak_conn_pending_kb",
            s.peak_conn_pending_bytes as f64 / 1024.0,
        );
        // Tree-side rungs run on an in-process replica of the served map
        // (same shape, same prefill); the server's own map is private.
        let mut rtally = Tally::default();
        let replica = inproc::build(&keys, &mut rtally);
        let reqs = layers::requests(a.workload, spec, a.seed, None);
        let mut tr = Tracer::new(window.origin, 0, 400_000);
        let before = layers::tree_stats(&replica);
        let updates =
            layers::tree_ladder(a.workload, &replica, &reqs, &mut m, &mut tr, &mut rtally);
        layers::core_counters(&mut m, before, layers::tree_stats(&replica), updates);
        inproc::final_checks(&replica, keys.len() as u64, &mut rtally);
        drop(replica);
        layers::socket_ladder(server.addr, &reqs, &mut m, &mut tr, &mut load.tally)?;
        spans.extend(tr.spans);
        tally.merge(rtally);
        Some(m)
    } else {
        None
    };
    match probe.range_count(0, u64::MAX) {
        Ok(n) => load.tally.live_count(keys.len() as u64, n),
        Err(e) => load.tally.fail(|| format!("final count: {e}")),
    }
    let peak_rss_mib = peak_rss_mib();
    drop(probe);
    server.stop()?;
    for _ in 1..setup_reps(a.workload) {
        let clock = GuestClock::start();
        let (server, dialed, probe) = wire_setup(bulk, &keys, &mut tally)?;
        setups.push(clock.secs());
        drop((dialed, probe));
        server.stop()?;
    }
    Ok(Outcome {
        setup_s: median(setups),
        steal,
        peak_rss_mib,
        load,
        window,
        tally,
        layers,
        spans,
    })
}

fn row(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>16.4} {unit}");
}

fn json_metrics(items: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// JSON has no NaN or infinity; a metric that cannot be computed is 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let res = if a.workload.is_wire() {
        run_wire(&a)
    } else {
        Ok(run_inproc(&a))
    };
    let mut o = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload.name());
            std::process::exit(2);
        }
    };
    let rss = o.peak_rss_mib;
    let tally = {
        let mut t = std::mem::take(&mut o.tally);
        t.merge(std::mem::take(&mut o.load.tally));
        t
    };
    let l = &o.load;
    let secs = l.timed_secs(&o.window);
    let throughput = l.throughput(&o.window, &o.steal);
    let (p50, p95, p99) = (
        l.quantile(0.5) / 1e3,
        l.quantile(0.95) / 1e3,
        l.quantile(0.99) / 1e3,
    );
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;

    println!(
        "{} seed {} ({}{} s timed, {} requests timed, {} hardware threads)",
        a.workload.name(),
        a.seed,
        if o.layers.is_some() { "traced, " } else { "" },
        format_args!("{secs:.2}"),
        l.all.count(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    row("setup_s", o.setup_s, "s");
    row("throughput_ops", throughput, "ops/s");
    let per_slice: Vec<String> = l
        .slice_ops
        .iter()
        .map(|&n| format!("{:.0}", n as f64 / o.window.slice_secs()))
        .collect();
    println!("    per slice, wall clock: {} ops/s", per_slice.join(" "));
    for (name, h) in [
        ("get", &l.get),
        ("update", &l.update),
        ("range", &l.range),
        ("batch", &l.batch),
    ] {
        if h.count() > 0 {
            row(&format!("{name}_p50_us"), h.quantile(0.5) / 1e3, "us");
            row(&format!("{name}_p99_us"), h.quantile(0.99) / 1e3, "us");
        }
    }
    if l.range.count() > 0 {
        row("scan_keys_per_s", l.range_keys as f64 / secs, "keys/s");
    }
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p95_us", 0.95)] {
        let v: Vec<String> = l
            .slices
            .iter()
            .map(|h| format!("{:.3}", h.quantile(q) / 1e3))
            .collect();
        println!("    {name} per slice: {}", v.join(" "));
    }
    row("latency_p50_us", p50, "us");
    row("latency_p95_us", p95, "us");
    row("latency_p99_us", p99, "us");
    row("latency_max_us", l.all.max() as f64 / 1e3, "us");
    row("peak_rss_mb", rss, "MiB");
    row("cpu_steal_pct", 100.0 * median(o.steal.to_vec()), "%");
    let per_slice: Vec<String> = o
        .steal
        .iter()
        .map(|s| format!("{:.1}", 100.0 * s))
        .collect();
    println!("    per slice: {} %", per_slice.join(" "));
    row("failed_ratio", failed_ratio, "");
    for m in &tally.messages {
        println!("  FAILED: {m}");
    }

    let metrics = match (&o.layers, &a.trace_out) {
        (Some(m), Some(path)) => {
            for &(name, unit) in layers::METRICS.iter() {
                row(name, m[name], unit);
            }
            if a.workload.is_wire() {
                // How much of the server's work is codec + handler: per
                // request, against a depth-1 call and against the two
                // workers' time under the timed load.
                let ops = if a.workload == Workload::WireBulk {
                    workload::BATCH_OPS as f64
                } else {
                    1.0
                };
                let us = (m["codec.decode_request_ns"]
                    + m["codec.encode_response_ns"]
                    + m["handler.handle_ns_per_op"] * ops)
                    / 1e3;
                println!(
                    "  codec+handler: {us:.2} us per request = {:.1}% of a depth-1 call, {:.1}% of both workers' time under load",
                    100.0 * us / m["client.call_us"],
                    100.0 * us * throughput / ops / 2e6
                );
            }
            print_self_times(&o.spans);
            if let Err(e) = trace::write_jsonl(path, &o.spans) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(2);
            }
            let mut items: Vec<(&str, f64, &str)> =
                layers::METRICS.iter().map(|&(n, u)| (n, m[n], u)).collect();
            items.push(("throughput_ops", throughput, "ops/s"));
            json_metrics(&items)
        }
        _ => json_metrics(&[
            ("setup_s", o.setup_s, "s"),
            ("throughput_ops", throughput, "ops/s"),
            ("latency_p50_us", p50, "us"),
            ("peak_rss_mb", rss, "MiB"),
        ]),
    };
    let correct = tally.failed == 0 && l.timed_ops > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {metrics}}}"#,
        tally.attempted.max(1),
        tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

fn print_self_times(spans: &[trace::Span]) {
    println!("  self time by span (count, mean total ns, mean self ns):");
    for (name, s) in trace::self_times(spans) {
        let n = s.count.max(1);
        println!(
            "    {name:<26} {:>9} {:>12} {:>12}",
            s.count,
            s.total_ns / n,
            s.self_ns / n
        );
    }
}
