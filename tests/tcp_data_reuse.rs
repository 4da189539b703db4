//! Live DAGDA-style data management over real TCP sockets.
//!
//! The acceptance scenario for the data subsystem, end to end: two SeDs
//! behind real TCP servers, a client that stores a `Persistent` namelist
//! blob via SeD A, and a solve scheduled on SeD B whose profile carries
//! only the data id — B must pull the payload SeD-to-SeD through the
//! replica catalog instead of the client re-shipping it. Then the
//! degradation path: the sole holder of a second blob dies, the heartbeat
//! monitor deregisters it (dropping its catalog entries), and the client
//! repairs the loss by re-shipping its cached copy — zero lost requests.

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{
    cosmology_service_table, namelist_value, status, zoom2_profile, zoom2_profile_ref,
};
use diet_core::agent::{AgentNode, HeartbeatMonitor, MasterAgent};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::codec::{encode_message, Message};
use diet_core::data::Persistence;
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::DataLocal;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick_namelist() -> cosmogrid::namelist::Namelist {
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5");
    nl
}

/// Resolution 7 is not a power of two: the solve returns `BAD_RESOLUTION`
/// instantly — but only after successfully parsing the namelist file, which
/// proves the referenced payload really reached the solver.
fn quick_ref_profile(id: &str) -> diet_core::profile::Profile {
    zoom2_profile_ref(id, 7, 50, [50, 50, 50], 2)
}

#[test]
fn persistent_blob_is_pulled_sed_to_sed_and_reshipped_after_holder_death() {
    let seds: Vec<Arc<SedHandle>> = (0..2)
        .map(|i| {
            SedHandle::spawn(
                SedConfig::new(&format!("dg/{i}"), 1.0),
                cosmology_service_table(),
            )
        })
        .collect();
    let servers: Vec<_> = seds
        .iter()
        .map(|s| serve_sed_over_tcp(s.clone()).expect("bind"))
        .collect();
    let pool = Arc::new(TcpSedPool::new());
    for (sed, srv) in seds.iter().zip(&servers) {
        pool.register(&sed.config.label, srv.local_addr);
    }

    let la = AgentNode::leaf("LA", seds.clone());
    let ma = MasterAgent::new("MA", vec![la], Arc::new(DataLocal::default()));
    let catalog = Arc::new(diet_core::dagda::ReplicaCatalog::new());
    ma.register_catalog(catalog.clone());
    // The pool doubles as each SeD's resolver for SeD-to-SeD pulls.
    for sed in &seds {
        sed.set_resolver(pool.clone());
    }
    let monitor = HeartbeatMonitor::spawn(
        ma.clone(),
        Duration::from_millis(25),
        Duration::from_millis(200),
        2,
    );
    let client = DietClient::initialize(ma.clone());
    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        max_retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..RetryPolicy::default()
    };

    // --- Store the shared namelist once, via SeD A. ---
    let blob = namelist_value(&quick_namelist());
    client
        .store_data_over_tcp(
            &pool,
            "dg/0",
            "nml-shared",
            blob.clone(),
            Persistence::Persistent,
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(catalog.holders("nml-shared"), vec!["dg/0"]);

    // The ref profile ships only the id — the namelist text is not on the
    // wire (while the equivalent inline call carries it whole).
    let ref_frame = encode_message(&Message::Call {
        request_id: 1,
        ctx: obs::TraceCtx::default(),
        profile: quick_ref_profile("nml-shared"),
    });
    let inline_frame = encode_message(&Message::Call {
        request_id: 1,
        ctx: obs::TraceCtx::default(),
        profile: zoom2_profile(&quick_namelist(), 7, 50, [50, 50, 50], 2),
    });
    let needle = b"OUTPUT_PARAMS";
    assert!(
        !ref_frame.windows(needle.len()).any(|w| w == needle),
        "namelist text leaked into the ref call frame"
    );
    assert!(inline_frame.windows(needle.len()).any(|w| w == needle));
    assert!(ref_frame.len() < inline_frame.len());

    // --- A solve forced onto SeD B pulls the blob from A, SeD-to-SeD. ---
    let out = pool
        .call(
            "dg/1",
            quick_ref_profile("nml-shared"),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_i32(8).unwrap(), status::BAD_RESOLUTION);
    // The reply collapses the resolved slot back to the reference: the
    // payload never travels back to the client either.
    assert_eq!(out.values[0].as_data_ref(), Some("nml-shared"));
    let b = seds[1].obs();
    assert_eq!(b.metrics.counter_value("diet_data_misses_total"), 1);
    assert!(b.metrics.counter_value("diet_data_pull_bytes_total") > 0);
    // B re-hosts the replica and publishes itself as a second holder.
    assert_eq!(catalog.holders("nml-shared"), vec!["dg/0", "dg/1"]);

    // A second solve on B is a pure local hit — no new pull.
    let out = pool
        .call(
            "dg/1",
            quick_ref_profile("nml-shared"),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_i32(8).unwrap(), status::BAD_RESOLUTION);
    assert_eq!(b.metrics.counter_value("diet_data_hits_total"), 1);
    assert_eq!(b.metrics.counter_value("diet_data_misses_total"), 1);

    // --- Degradation: the sole holder of a second blob dies. ---
    client
        .store_data_over_tcp(
            &pool,
            "dg/0",
            "nml-solo",
            blob.clone(),
            Persistence::Persistent,
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(catalog.holders("nml-solo"), vec!["dg/0"]);
    seds[0].shutdown();
    servers[0].kill();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ma.deregistered().contains(&"dg/0".to_string()) {
        assert!(
            Instant::now() < deadline,
            "heartbeat monitor never deregistered the dead holder"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Its catalog entries died with it.
    assert!(catalog.locate("nml-solo").is_none());
    assert_eq!(catalog.holders("nml-shared"), vec!["dg/1"]);

    // The client's next call references the lost blob: the surviving SeD
    // cannot resolve it anywhere, the client re-ships its cached copy, and
    // the request completes — zero lost requests.
    let (out, stats) = client
        .call_over_tcp(&pool, quick_ref_profile("nml-solo"), &policy)
        .expect("request referencing lost data must be repaired by re-ship");
    assert_eq!(out.get_i32(8).unwrap(), status::BAD_RESOLUTION);
    assert!(stats.retries >= 1);
    assert_eq!(
        client
            .metrics()
            .counter_value("diet_client_data_reships_total"),
        1
    );
    // The re-shipped blob is hosted (and catalogued) again, on the survivor.
    assert_eq!(catalog.holders("nml-solo"), vec!["dg/1"]);
    assert_eq!(
        client.metrics().counter_value("diet_client_failures_total"),
        0
    );

    monitor.stop();
    for srv in &servers {
        srv.stop();
    }
    seds[1].shutdown();
}
