//! Distributed-telemetry overhead and stitching check.
//!
//! Three questions, one artifact:
//!
//! 1. **Overhead** — does shipping telemetry cost throughput? A mux
//!    closed-loop workload runs against two identically-configured SeDs:
//!    one silent, one with a live `TelemetryFlusher` draining its spans
//!    and metric deltas to a collector every 50 ms *during* the run.
//!    Passes interleave (silent, shipping, silent, ...) and compare
//!    medians, so scheduler drift hits both sides equally. The gate:
//!    telemetry-enabled throughput within 10% of disabled (30% in
//!    `--quick` mode on shared CI runners).
//! 2. **Stitching** — a 3-level topology (MA → LA → LA → 2 SeDs), every
//!    component with a private `Obs` flushing to the collector, plus a
//!    client doing the same. After one request and a flush, the collector
//!    must hold ONE trace covering every hop: Finding, Submission, both
//!    agents' estimate windows, Queued, Execution, ResultReturn.
//! 3. **Reactor visibility** — the collector's own Prometheus scrape
//!    (fetched over the wire via the correlated dump) must include the
//!    reactor's tick-latency histogram and queue-depth gauges.
//!
//! Writes `BENCH_telemetry.json` (validated with `bench::validate_json`)
//! and exits non-zero if any gate fails. `--quick` shrinks the workload
//! for the CI gate.

use diet_core::client::RetryPolicy;
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{TcpTopologySpec, TelemetrySpec};
use diet_core::hierarchy::serve_sed_over_tcp_with_config;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::{ServerConfig, TcpSedPool};
use diet_core::{
    serve_collector_over_tcp, Collector, DietClient, TelemetryConfig, TelemetryFlusher,
};
use obs::Obs;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn echo_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    d.set_arg(1, ArgTag::Scalar).unwrap();
    d
}

fn echo_table() -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(echo_desc(), solve).unwrap();
    t
}

fn echo_profile(x: i32) -> Profile {
    let mut p = Profile::alloc(&echo_desc());
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

/// One closed-loop mux pass: `concurrency` callers, `reqs` requests each,
/// all down one multiplexed connection. Every call carries a live trace
/// context, so the SeD records its Queued/Execution/ResultReturn windows —
/// the span traffic whose shipping cost this experiment measures. Returns
/// requests/sec.
fn mux_pass(addr: SocketAddr, concurrency: usize, reqs: usize) -> f64 {
    let pool = Arc::new(TcpSedPool::new());
    pool.register("sed", addr);
    let wall = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|caller| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                for j in 0..reqs {
                    let x = (caller * reqs + j) as i32;
                    // High trace ids so these spans can't collide with the
                    // stitching run's traces in the shared collector.
                    let ctx = obs::TraceCtx {
                        trace_id: 0x5ED0_0000_0000 + x as u64 + 1,
                        parent_span: 0,
                    };
                    let (out, _, _) = pool
                        .call_traced("sed", echo_profile(x), Duration::from_secs(30), ctx)
                        .unwrap_or_else(|e| panic!("request lost: {e}"));
                    assert_eq!(out.get_i32(1).unwrap(), x, "mis-correlated echo");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (concurrency * reqs) as f64 / wall.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct OverheadStats {
    baseline_rps: f64,
    telemetry_rps: f64,
    ratio: f64,
    flush_errors: u64,
    spans_shipped: u64,
}

fn run_overhead(collector_addr: SocketAddr, collector: &Collector, quick: bool) -> OverheadStats {
    // Passes must be long enough (hundreds of ms) that wall-clock noise
    // doesn't dominate the ratio on a shared box.
    let concurrency = if quick { 8 } else { 16 };
    let reqs = if quick { 200 } else { 500 };
    let passes = 5;

    // Two identical SeDs; only one ships telemetry, continuously (50 ms
    // interval), while its workload runs.
    let silent = SedHandle::spawn(SedConfig::new("bench/silent", 1.0), echo_table());
    let silent_srv = serve_sed_over_tcp_with_config(silent.clone(), ServerConfig::default())
        .expect("bind silent SeD");
    let shipping = SedHandle::spawn(SedConfig::new("bench/shipping", 1.0), echo_table());
    let shipping_srv = serve_sed_over_tcp_with_config(shipping.clone(), ServerConfig::default())
        .expect("bind shipping SeD");
    let flusher = TelemetryFlusher::spawn(
        shipping.obs(),
        TelemetryConfig::new(collector_addr, "sed", "bench/shipping")
            .site("bench")
            .interval(Duration::from_millis(50)),
    );

    // Warm both paths, then interleave timed passes.
    mux_pass(silent_srv.local_addr, concurrency, reqs);
    mux_pass(shipping_srv.local_addr, concurrency, reqs);
    let mut base = Vec::new();
    let mut tel = Vec::new();
    for _ in 0..passes {
        base.push(mux_pass(silent_srv.local_addr, concurrency, reqs));
        tel.push(mux_pass(shipping_srv.local_addr, concurrency, reqs));
    }
    flusher.flush_now().expect("final bench flush");

    let spans_shipped = collector
        .sources()
        .iter()
        .find(|(src, _)| src.label == "bench/shipping")
        .map(|(_, h)| h.spans)
        .unwrap_or(0);
    let stats = OverheadStats {
        baseline_rps: median(base),
        telemetry_rps: median(tel),
        ratio: 0.0,
        flush_errors: flusher.flush_errors(),
        spans_shipped,
    };
    drop(flusher);
    silent_srv.stop();
    shipping_srv.stop();
    silent.shutdown();
    shipping.shutdown();
    OverheadStats {
        ratio: stats.telemetry_rps / stats.baseline_rps,
        ..stats
    }
}

struct TraceStats {
    trace_id: u64,
    spans: usize,
    phases_present: Vec<&'static str>,
    hops_present: Vec<&'static str>,
    sources: usize,
}

/// Stand up the 3-level telemetry deployment, run one traced request
/// through every hop, flush, and inspect the stitched result.
fn run_stitching(collector_addr: SocketAddr, collector: &Collector) -> TraceStats {
    let spec = TcpTopologySpec::chain(3, 2);
    let d = spec
        .deploy_with_telemetry(
            Arc::new(RoundRobin::new()),
            |_| echo_table(),
            &TelemetrySpec {
                collector: collector_addr,
                interval: Duration::from_secs(3600), // flushed explicitly
            },
        )
        .expect("deploy 3-level telemetry topology");
    let client_obs = Arc::new(Obs::new());
    let client = DietClient::initialize_distributed(client_obs.clone());
    let client_flusher = TelemetryFlusher::spawn(
        client_obs,
        TelemetryConfig::new(collector_addr, "client", "bench-client")
            .site("bench")
            .interval(Duration::from_secs(3600)),
    );
    let (out, stats) = client
        .call_distributed(
            &d.ma_client,
            &d.pool,
            echo_profile(7),
            &RetryPolicy::default(),
        )
        .expect("traced request");
    assert_eq!(out.get_i32(1).unwrap(), 7);

    assert_eq!(d.flush_telemetry(), 0, "component flushes failed");
    client_flusher.flush_now().expect("client flush");

    let trace = collector.trace(stats.trace_id);
    let phases_present: Vec<&'static str> = [
        "Finding",
        "Submission",
        "AgentEstimate",
        "Queued",
        "Execution",
        "ResultReturn",
    ]
    .into_iter()
    .filter(|p| trace.iter().any(|s| s.name == *p))
    .collect();
    let hops_present: Vec<&'static str> = ["la1", "la2"]
        .into_iter()
        .filter(|hop| {
            trace
                .iter()
                .any(|s| s.name == "AgentEstimate" && s.resource == *hop)
        })
        .collect();
    let out = TraceStats {
        trace_id: stats.trace_id,
        spans: trace.len(),
        phases_present,
        hops_present,
        sources: collector.sources().len(),
    };
    drop(client_flusher);
    d.shutdown();
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let collector = Arc::new(Collector::new());
    let col_server =
        serve_collector_over_tcp(collector.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind collector");
    let col_addr = col_server.local_addr;

    println!("== exp_telemetry: mux throughput with/without live shipping ==");
    let ov = run_overhead(col_addr, &collector, quick);
    println!(
        "  silent {:>9.0} req/s | shipping {:>9.0} req/s | ratio {:.3} \
         ({} spans shipped, {} flush errors)",
        ov.baseline_rps, ov.telemetry_rps, ov.ratio, ov.spans_shipped, ov.flush_errors
    );

    println!("== exp_telemetry: cross-process trace stitching (3-level) ==");
    let tr = run_stitching(col_addr, &collector);
    println!(
        "  trace {:#018x}: {} spans, phases {:?}, agent hops {:?}, {} reporting sources",
        tr.trace_id, tr.spans, tr.phases_present, tr.hops_present, tr.sources
    );

    println!("== exp_telemetry: collector self-scrape ==");
    let pool = TcpSedPool::new();
    pool.register("collector", col_addr);
    let prom = pool
        .dump_metrics_correlated("collector", "", Duration::from_secs(5))
        .expect("collector scrape");
    let reactor_series = [
        "diet_reactor_tick_seconds",
        "diet_reactor_ready_events",
        "diet_reactor_dispatch_depth",
        "diet_reactor_write_queue_bytes",
    ];
    let series_present: Vec<&str> = reactor_series
        .into_iter()
        .filter(|s| prom.contains(*s))
        .collect();
    let topo = pool
        .dump_metrics_correlated("collector", "topology", Duration::from_secs(5))
        .expect("collector topology view");
    println!(
        "  scrape {} bytes, reactor series present: {:?}",
        prom.len(),
        series_present
    );
    print!("{topo}");
    col_server.stop();

    // ---- artifact ----
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"experiment\": \"telemetry\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    json.push_str(&format!(
        "  \"overhead\": {{\"baseline_rps\": {:.1}, \"telemetry_rps\": {:.1}, \
         \"ratio\": {:.4}, \"spans_shipped\": {}, \"flush_errors\": {}}},\n",
        ov.baseline_rps, ov.telemetry_rps, ov.ratio, ov.spans_shipped, ov.flush_errors
    ));
    json.push_str(&format!(
        "  \"stitching\": {{\"spans\": {}, \"phases_present\": [{}], \
         \"agent_hops_present\": [{}], \"reporting_sources\": {}}},\n",
        tr.spans,
        tr.phases_present
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", "),
        tr.hops_present
            .iter()
            .map(|h| format!("\"{h}\""))
            .collect::<Vec<_>>()
            .join(", "),
        tr.sources
    ));
    json.push_str(&format!(
        "  \"collector_scrape\": {{\"bytes\": {}, \"reactor_series_present\": [{}]}}\n}}\n",
        prom.len(),
        series_present
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    bench::validate_json(&json).expect("generated artifact is not valid JSON");

    let path = if quick {
        bench::artifact_dir().join("BENCH_telemetry_quick.json")
    } else {
        std::path::PathBuf::from("BENCH_telemetry.json")
    };
    std::fs::write(&path, &json).expect("failed to write artifact");
    println!("wrote {}", path.display());

    // ---- self-checks (the CI gate runs this binary) ----
    let mut failed = false;
    // Full mode holds the headline 10% bound; quick mode (shared 1-CPU CI
    // runner) keeps a looser 30% band so scheduler noise can't flake the
    // gate while a real shipping-path regression still trips it.
    let floor = if quick { 0.70 } else { 0.90 };
    if ov.ratio < floor {
        eprintln!(
            "FAIL: telemetry-enabled throughput is {:.1}% of disabled (floor {:.0}%)",
            ov.ratio * 100.0,
            floor * 100.0
        );
        failed = true;
    }
    if ov.spans_shipped == 0 {
        eprintln!("FAIL: shipping SeD delivered no spans — overhead run measured nothing");
        failed = true;
    }
    if ov.flush_errors > 0 {
        eprintln!(
            "FAIL: {} telemetry flushes failed during the run",
            ov.flush_errors
        );
        failed = true;
    }
    if tr.phases_present.len() != 6 {
        eprintln!(
            "FAIL: stitched trace covers {:?}, expected all six phases",
            tr.phases_present
        );
        failed = true;
    }
    if tr.hops_present.len() != 2 {
        eprintln!(
            "FAIL: stitched trace shows agent hops {:?}, expected la1 and la2",
            tr.hops_present
        );
        failed = true;
    }
    if series_present.len() != reactor_series.len() {
        eprintln!(
            "FAIL: collector scrape has reactor series {series_present:?}, expected {reactor_series:?}"
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: shipping costs {:.1}% throughput; one trace stitched across {} sources; \
         reactor instrumentation visible in the collector scrape",
        (1.0 - ov.ratio) * 100.0,
        tr.sources
    );
}
