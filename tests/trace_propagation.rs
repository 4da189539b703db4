//! Trace-context propagation across the wire and across failures: one
//! trace id must follow a request from the client through MA finding, the
//! TCP data path, the SeD queue/solve, and the reply — and *survive a
//! resubmission*, so the original attempt and the retried attempt are two
//! span trees under the same trace.
//!
//! This is the live analogue of following one request id through a
//! LogService feed while a Grid'5000 node dies mid-run.

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile};
use diet_core::agent::{AgentNode, MasterAgent};
use diet_core::client::{CallStats, DietClient, RetryPolicy};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use diet_core::Obs;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

fn quick_profile() -> diet_core::profile::Profile {
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5");
    zoom1_profile(&nl, 7)
}

#[test]
fn resubmitted_request_keeps_its_trace_id_across_the_wire() {
    // One shared observability sink so the client's spans and both SeDs'
    // spans land in the same ring buffer.
    let shared = Arc::new(Obs::new());

    let seds: Vec<Arc<SedHandle>> = (0..2)
        .map(|i| {
            SedHandle::spawn_with_obs(
                SedConfig::new(&format!("tp/{i}"), 1.0),
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
    let client = DietClient::initialize_with_obs(ma.clone(), shared.clone());

    // The victim's worker dies while holding its first request, so some
    // early call sees a severed connection and resubmits.
    let victim = &seds[0];
    victim.faults().kill_at_request(1);

    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..RetryPolicy::default()
    };

    let mut resubmitted: Option<CallStats> = None;
    for i in 0..4 {
        let (out, stats) = client
            .call_over_tcp(&pool, quick_profile(), &policy)
            .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
        assert_eq!(out.get_i32(3).unwrap(), status::BAD_RESOLUTION);
        assert_ne!(stats.trace_id, 0, "live calls must be traced");
        if stats.retries >= 1 {
            resubmitted = Some(stats);
            break;
        }
    }
    let stats = resubmitted.expect("the killed SeD must force a resubmission");

    let spans = shared.tracer.snapshot();
    let mine: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == stats.trace_id)
        .collect();

    // Both attempts — original and resubmission — live under ONE trace id
    // with distinct span ids.
    let attempts: Vec<_> = mine.iter().filter(|s| s.name == "attempt").collect();
    assert!(
        attempts.len() >= 2,
        "expected original + resubmitted attempt spans, got {attempts:?}"
    );
    let attempt_ids: HashSet<u64> = attempts.iter().map(|s| s.span_id).collect();
    assert_eq!(
        attempt_ids.len(),
        attempts.len(),
        "each attempt must get a fresh span id"
    );

    // Each attempt shipped data to a *different* SeD (the failed one was
    // excluded on resubmission).
    let submission_targets: HashSet<&str> = mine
        .iter()
        .filter(|s| s.name == "Submission")
        .map(|s| s.resource.as_str())
        .collect();
    assert!(
        submission_targets.len() >= 2,
        "resubmission must target a different SeD: {submission_targets:?}"
    );

    // The SeD-side spans prove the context crossed the TCP frame: Queued,
    // Execution and ResultReturn all carry the client's trace id and parent
    // under one of the client's attempt spans.
    for phase in [
        "Finding",
        "Submission",
        "Queued",
        "Execution",
        "ResultReturn",
    ] {
        assert!(
            mine.iter().any(|s| s.name == phase),
            "trace {:#x} is missing phase {phase}",
            stats.trace_id
        );
    }
    for s in mine
        .iter()
        .filter(|s| matches!(s.name, "Queued" | "Execution" | "ResultReturn"))
    {
        assert!(
            attempt_ids.contains(&s.parent),
            "{} span should parent under an attempt span, got parent {}",
            s.name,
            s.parent
        );
    }

    // The survivor's metrics are reachable over the same TCP transport via
    // the dump-metrics request.
    let dump = pool
        .dump_metrics(&seds[1].config.label, Duration::from_secs(5))
        .expect("dump-metrics over TCP");
    assert!(
        dump.contains("diet_sed_solves_total"),
        "prometheus dump missing solve counter:\n{dump}"
    );

    for srv in &servers {
        srv.stop();
    }
    seds[1].shutdown();
}
