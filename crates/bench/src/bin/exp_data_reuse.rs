//! Experiment: DAGDA-style data reuse vs. the all-volatile baseline, live.
//!
//! The paper's campaign ships the same namelist/IC file with every one of
//! the 100 `ramsesZoom2` requests. With the data-management subsystem the
//! client stores the shared file once (`Persistent`), every request carries
//! only its id, and SeDs that don't hold it pull it from a replica holder
//! SeD-to-SeD. This experiment runs the same request batch both ways over
//! real TCP sockets and reports client-side bytes-on-the-wire and makespan;
//! the solver outputs must be byte-identical across modes.
//!
//! Artifacts (target/experiments/): `data_reuse.csv`.
//!
//! Usage: `exp_data_reuse [--quick]` (fewer requests in quick mode).

use bench::write_artifact;
use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{
    cosmology_service_table, namelist_value, status, zoom2_profile, zoom2_profile_ref,
};
use diet_core::agent::{AgentNode, MasterAgent};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::codec::{encode_message, Message};
use diet_core::data::Persistence;
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::DataLocal;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use diet_core::Obs;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEDS: usize = 3;

struct ModeResult {
    client_bytes: u64,
    makespan_s: f64,
    tarballs: Vec<bytes::Bytes>,
    pulls: u64,
    hits: u64,
    pull_bytes: u64,
}

fn quick_namelist() -> cosmogrid::namelist::Namelist {
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5");
    nl
}

/// The request batch: same zoom parameters in both modes, varied per
/// request so the batch isn't one repeated simulation.
fn zoom_params(i: usize) -> ([i32; 3], i32) {
    (
        [20 + (i as i32 * 17) % 60, 30 + (i as i32 * 11) % 40, 50],
        1,
    )
}

fn run_mode(persistent: bool, requests: usize) -> ModeResult {
    let shared = Arc::new(Obs::new());
    let seds: Vec<Arc<SedHandle>> = (0..SEDS)
        .map(|i| {
            SedHandle::spawn_with_obs(
                SedConfig::new(&format!("dr/{i}"), 1.0),
                cosmology_service_table(),
                shared.clone(),
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
    let ma = MasterAgent::new_with_obs(
        "MA",
        vec![la],
        Arc::new(DataLocal::default()),
        shared.clone(),
    );
    ma.register_catalog(Arc::new(diet_core::dagda::ReplicaCatalog::new()));
    for sed in &seds {
        sed.set_resolver(pool.clone());
    }
    let client = DietClient::initialize_with_obs(ma.clone(), shared.clone());
    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(120),
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..RetryPolicy::default()
    };

    let nl = quick_namelist();
    let mut client_bytes = 0u64;
    let started = Instant::now();
    if persistent {
        // One-time store: the PutData frame is client wire traffic too.
        let blob = namelist_value(&nl);
        client_bytes += encode_message(&Message::PutData {
            request_id: 1,
            id: "nml".into(),
            mode: Persistence::Persistent,
            value: blob.clone(),
        })
        .len() as u64;
        client
            .store_data_over_tcp(
                &pool,
                "dr/0",
                "nml",
                blob,
                Persistence::Persistent,
                Duration::from_secs(10),
            )
            .expect("store shared namelist");
    }
    let mut tarballs = Vec::with_capacity(requests);
    for i in 0..requests {
        let (center, nb_box) = zoom_params(i);
        let profile = if persistent {
            zoom2_profile_ref("nml", 8, 50, center, nb_box)
        } else {
            zoom2_profile(&nl, 8, 50, center, nb_box)
        };
        // Client-side bytes on the wire: the encoded Call frame.
        client_bytes += encode_message(&Message::Call {
            request_id: i as u64,
            ctx: obs::TraceCtx::default(),
            profile: profile.clone(),
        })
        .len() as u64;
        let (out, _) = client
            .call_over_tcp(&pool, profile, &policy)
            .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
        assert_eq!(out.get_i32(8).unwrap(), status::OK);
        let (_, tar) = out.get_file(7).unwrap();
        tarballs.push(tar.clone());
    }
    let makespan_s = started.elapsed().as_secs_f64();

    let m = &shared.metrics;
    let result = ModeResult {
        client_bytes,
        makespan_s,
        tarballs,
        pulls: m.counter_value("diet_data_misses_total"),
        hits: m.counter_value("diet_data_hits_total"),
        pull_bytes: m.counter_value("diet_data_pull_bytes_total"),
    };
    for srv in &servers {
        srv.stop();
    }
    for s in &seds {
        s.shutdown();
    }
    result
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 6 } else { 24 };

    println!("== data reuse vs volatile baseline: {requests} ramsesZoom2 requests over {SEDS} SeDs (TCP) ==");
    let volatile = run_mode(false, requests);
    let reuse = run_mode(true, requests);

    // Identical science: every request's result tarball is byte-identical
    // whether the namelist travelled inline or as a grid-data reference.
    assert_eq!(volatile.tarballs.len(), reuse.tarballs.len());
    for (i, (a, b)) in volatile.tarballs.iter().zip(&reuse.tarballs).enumerate() {
        assert_eq!(a, b, "request {i}: results differ between modes");
    }

    // The whole point: the client ships the shared file once, not per
    // request, so its wire traffic drops.
    assert!(
        reuse.client_bytes < volatile.client_bytes,
        "reuse did not reduce client bytes: {} vs {}",
        reuse.client_bytes,
        volatile.client_bytes
    );
    // The baseline never touches the data path.
    assert_eq!(volatile.pulls + volatile.hits, 0);
    // Reuse resolves every request from the store: local hits after at most
    // one SeD-to-SeD pull per non-hosting SeD.
    assert!(reuse.pulls <= (SEDS as u64 - 1));
    assert_eq!(reuse.hits + reuse.pulls, requests as u64);

    let saved = volatile.client_bytes - reuse.client_bytes;
    println!(
        "  volatile : {:>9} client bytes, makespan {:>7.2}s",
        volatile.client_bytes, volatile.makespan_s
    );
    println!(
        "  reuse    : {:>9} client bytes, makespan {:>7.2}s  ({} SeD-to-SeD pull(s), {} local hits, {} bytes pulled)",
        reuse.client_bytes, reuse.makespan_s, reuse.pulls, reuse.hits, reuse.pull_bytes
    );
    println!(
        "  client wire traffic reduced by {saved} bytes ({:.1}%), results byte-identical",
        100.0 * saved as f64 / volatile.client_bytes as f64
    );

    let csv = format!(
        "mode,requests,client_bytes,makespan_s,sed_pulls,sed_hits,sed_pull_bytes\n\
         volatile,{requests},{},{:.4},{},{},{}\n\
         reuse,{requests},{},{:.4},{},{},{}\n",
        volatile.client_bytes,
        volatile.makespan_s,
        volatile.pulls,
        volatile.hits,
        volatile.pull_bytes,
        reuse.client_bytes,
        reuse.makespan_s,
        reuse.pulls,
        reuse.hits,
        reuse.pull_bytes,
    );
    if let Some(p) = write_artifact("data_reuse.csv", &csv) {
        println!("  wrote {}", p.display());
    }
    println!("\ndata reuse checks passed ({requests} requests per mode, identical outputs)");
}
