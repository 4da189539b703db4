//! Live Figure 5 — finding time and request latency per request, measured
//! on the real middleware (TCP sockets, SeD workers, retry engine) instead
//! of the campaign simulator, from the observability layer's own traces.
//!
//! The paper's Figure 5 plots both series over the 100 sub-simulations as
//! recorded by LogService; here the vendored `obs` subsystem plays that
//! role: every request carries one trace id end to end, the client/SeD/MA
//! registries feed Prometheus-style counters and histograms, and the span
//! ring buffer exports a Chrome `trace_event` timeline. A SeD is killed
//! mid-campaign so the resubmission path shows up in the counters, exactly
//! like the Grid'5000 node deaths the paper reports.
//!
//! Artifacts (target/experiments/): `live_fig5_finding.csv`,
//! `live_fig5_latency.csv`, `live_metrics.prom`, `live_trace.json`.

use bench::{render_series, series_csv, validate_json, write_artifact};
use cosmogrid::campaign::gantt_from_spans;
use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile};
use diet_core::agent::{AgentNode, HeartbeatMonitor, MasterAgent};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use diet_core::Obs;
use gridsim::trace::TraceKind;
use obs::chrome_trace;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: u32 = 100;
const SEDS: usize = 5;
const PHASES: [&str; 5] = [
    "Finding",
    "Submission",
    "Queued",
    "Execution",
    "ResultReturn",
];

fn quick_profile() -> diet_core::profile::Profile {
    // Instant turnaround (BAD_RESOLUTION) — every measured cost is
    // middleware, which is what Figure 5 plots.
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5");
    zoom1_profile(&nl, 7)
}

fn main() {
    // One shared sink: client, MA, heartbeats and every SeD trace into the
    // same ring buffer and registry, like one LogService feed.
    let shared = Arc::new(Obs::new());

    let seds: Vec<Arc<SedHandle>> = (0..SEDS)
        .map(|i| {
            SedHandle::spawn_with_obs(
                SedConfig::new(&format!("live/{i}"), 1.0),
                cosmology_service_table(),
                shared.clone(),
            )
        })
        .collect();
    let servers: Vec<_> = seds
        .iter()
        .map(|s| serve_sed_over_tcp(s.clone()).expect("bind"))
        .collect();
    let pool = TcpSedPool::new();
    for (sed, srv) in seds.iter().zip(&servers) {
        pool.register(&sed.config.label, srv.local_addr);
    }

    let la = AgentNode::leaf("LA", seds.clone());
    let ma = MasterAgent::new_with_obs("MA", vec![la], Arc::new(RoundRobin::new()), shared.clone());
    let monitor = HeartbeatMonitor::spawn(
        ma.clone(),
        Duration::from_millis(20),
        Duration::from_millis(200),
        3,
    );
    let client = DietClient::initialize_with_obs(ma.clone(), shared.clone());

    // A mid-campaign node death, as on Grid'5000.
    seds[SEDS - 1].faults().kill_at_request(8);

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 3,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        ..RetryPolicy::default()
    };

    let mut finding = Vec::with_capacity(REQUESTS as usize);
    let mut latency = Vec::with_capacity(REQUESTS as usize);
    let mut request_of: HashMap<u64, u32> = HashMap::new();
    for req in 1..=REQUESTS {
        let (out, stats) = client
            .call_over_tcp(&pool, quick_profile(), &policy)
            .unwrap_or_else(|e| panic!("request {req} lost: {e}"));
        assert_eq!(out.get_i32(3).unwrap(), status::BAD_RESOLUTION);
        finding.push((req, stats.finding));
        latency.push((req, stats.latency()));
        request_of.insert(stats.trace_id, req);
    }
    // The burst can drain faster than the first heartbeat interval; let the
    // monitor complete at least one probe round before reading its counters.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while shared.metrics.counter_value("diet_heartbeat_beats_total") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat monitor never probed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    monitor.stop();

    // ---------------------------------------------------------- exporters
    let spans = shared.tracer.snapshot();
    let prom = obs::render_prometheus_multi(&[&shared.metrics]);
    let trace_json = chrome_trace(&spans);
    validate_json(&trace_json).expect("chrome trace must be well-formed JSON");

    // The dump-metrics request over the live TCP transport returns the same
    // registry text a LogService tail would.
    let wire_dump = pool
        .dump_metrics(&seds[0].config.label, Duration::from_secs(5))
        .expect("dump-metrics over TCP");
    assert!(wire_dump.contains("diet_sed_solves_total"));

    // Every request's spans share one trace id covering all five phases.
    let mut phases_by_trace: HashMap<u64, HashSet<&str>> = HashMap::new();
    for s in &spans {
        if request_of.contains_key(&s.trace_id) {
            phases_by_trace
                .entry(s.trace_id)
                .or_default()
                .insert(s.name);
        }
    }
    for (&trace_id, &req) in &request_of {
        let seen = &phases_by_trace[&trace_id];
        for p in PHASES {
            assert!(seen.contains(p), "request {req} trace missing phase {p}");
        }
    }

    // Registry shape: the counters and histograms the acceptance demands.
    let m = &shared.metrics;
    assert_eq!(
        m.counter_value("diet_client_requests_total"),
        REQUESTS as u64
    );
    assert!(m.counter_value("diet_client_resubmissions_total") >= 1);
    assert!(m.counter_value("diet_heartbeat_beats_total") > 0);
    assert!(m.counter_value("diet_sed_solves_total") >= REQUESTS as u64);
    for h in ["diet_client_finding_seconds", "diet_client_latency_seconds"] {
        assert!(
            prom.contains(&format!("{h}_count")) && !prom.contains(&format!("{h}_count 0")),
            "{h} histogram must have non-zero count"
        );
    }

    // ---------------------------------------------------------- reporting
    let fh = m.histogram("diet_client_finding_seconds");
    let lh = m.histogram("diet_client_latency_seconds");
    println!("== live Figure 5: {REQUESTS} requests over {SEDS} SeDs (TCP) ==");
    println!(
        "  finding  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        fh.p50() * 1e3,
        fh.p95() * 1e3,
        fh.p99() * 1e3
    );
    println!(
        "  latency  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        lh.p50() * 1e3,
        lh.p95() * 1e3,
        lh.p99() * 1e3
    );
    println!(
        "  resubmissions {}  seds deregistered {}  spans {} (dropped {})",
        m.counter_value("diet_client_resubmissions_total"),
        m.counter_value("diet_ma_sed_deregistered_total"),
        spans.len(),
        shared.tracer.dropped()
    );

    // The simulator's Gantt analysis works unchanged on the live spans.
    let gantt = gantt_from_spans(&spans, &request_of);
    assert_eq!(
        gantt.per_request(TraceKind::Execution).len(),
        REQUESTS as usize
    );
    println!(
        "\n  live gantt: makespan {:.3} s, per-SeD requests:",
        gantt.makespan()
    );
    for s in gantt.sed_summaries() {
        println!(
            "    {:<10} {:>3} requests, busy {:.3} ms",
            s.resource,
            s.requests,
            s.busy * 1e3
        );
    }

    let head = &finding[..8.min(finding.len())];
    println!("\n  first requests (finding time):");
    print!("{}", render_series(("request", "finding"), head, 1e3, "ms"));

    for (name, header, series) in [
        ("live_fig5_finding.csv", ("request", "finding_s"), &finding),
        ("live_fig5_latency.csv", ("request", "latency_s"), &latency),
    ] {
        if let Some(p) = write_artifact(name, &series_csv(header, series)) {
            println!("  wrote {}", p.display());
        }
    }
    if let Some(p) = write_artifact("live_metrics.prom", &prom) {
        println!("  wrote {}", p.display());
    }
    if let Some(p) = write_artifact("live_trace.json", &trace_json) {
        println!("  wrote {}", p.display());
    }

    for srv in &servers {
        srv.stop();
    }
    for s in &seds[..SEDS - 1] {
        s.shutdown();
    }
    println!("\nlive Figure 5 shape checks passed (all {REQUESTS} requests traced end to end)");
}
