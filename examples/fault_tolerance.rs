//! Fault tolerance on the live path, end to end: three SeDs served over
//! real TCP sockets, one killed mid-burst. The client's retry engine
//! resubmits through the Master Agent, the heartbeat monitor evicts the
//! dead server, and every request completes.
//!
//!     cargo run --release --example fault_tolerance

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile};
use diet_core::client::{DietClient, RetryPolicy};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sched::RoundRobin;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::TcpSedPool;
use diet_core::{AgentNode, HeartbeatMonitor, MasterAgent};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    println!("fault tolerance on the live GridRPC path\n");

    // Three SeDs, each behind its own TCP server (the CORBA role).
    let seds: Vec<Arc<SedHandle>> = ["sed-a", "sed-b", "sed-c"]
        .iter()
        .map(|l| SedHandle::spawn(SedConfig::new(l, 1.0), cosmology_service_table()))
        .collect();
    let servers: Vec<_> = seds
        .iter()
        .map(|s| serve_sed_over_tcp(s.clone()).expect("bind"))
        .collect();
    let pool = TcpSedPool::new();
    for (sed, srv) in seds.iter().zip(&servers) {
        pool.register(&sed.config.label, srv.local_addr);
        println!("  {} serving on {}", sed.config.label, srv.local_addr);
    }

    let ma = MasterAgent::new(
        "MA",
        vec![AgentNode::leaf("LA", seds.clone())],
        Arc::new(RoundRobin::new()),
    );
    let _monitor = HeartbeatMonitor::spawn(
        ma.clone(),
        Duration::from_millis(50),
        Duration::from_millis(250),
        2,
    );
    let client = DietClient::initialize(ma.clone());
    // Real solves run for seconds, so the per-attempt deadline must be
    // solve-scale — the 2 s default suits the instant laptop-scale probes,
    // not a full pipeline run.
    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(120),
        ..RetryPolicy::default()
    };

    // sed-b's worker will crash while holding its 2nd request.
    seds[1].faults().kill_at_request(2);
    println!("\n  armed: sed-b crashes on its 2nd request\n");

    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
    let burst = 9;
    let t0 = Instant::now();
    for i in 0..burst {
        let (out, stats) = client
            .call_over_tcp(&pool, zoom1_profile(&nl, 8), &policy)
            .expect("request must survive the crash");
        let history = client.history();
        let (server, _) = history.last().expect("recorded");
        println!(
            "  call {i}: ok on {server} (status {}, retries {})",
            out.get_i32(3).unwrap(),
            stats.retries,
        );
        assert_eq!(out.get_i32(3).unwrap(), status::OK);
    }
    println!(
        "\n  {burst}/{burst} completed in {:.2}s, zero lost; deregistered: {:?}",
        t0.elapsed().as_secs_f64(),
        ma.deregistered(),
    );
    println!(
        "  sed-b alive: {}, undeliverable replies counted: {}",
        seds[1].is_alive(),
        seds[1].reply_failures(),
    );

    // A hostile client advertises a ~4 GiB frame to a surviving server.
    // The length prefix is rejected before any allocation; the server
    // stays up and keeps answering real calls.
    let addr = servers[0].local_addr;
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&0xFFFF_FFF0u32.to_le_bytes()).expect("write");
    raw.write_all(b"junk").expect("write");
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).unwrap_or(0);
    println!("\n  hostile 4 GiB length prefix -> server closed the connection (read {n} bytes)");
    let (out, _) = client
        .call_over_tcp(&pool, zoom1_profile(&nl, 8), &policy)
        .expect("server must survive the hostile frame");
    assert_eq!(out.get_i32(3).unwrap(), status::OK);
    println!("  next legitimate call still succeeds on the same server");

    // Heartbeat eviction needs no client traffic at all: stop sed-c's
    // worker and wait for the monitor to deregister it.
    seds[2].shutdown();
    let t1 = Instant::now();
    while !ma.deregistered().contains(&"sed-c".to_string()) {
        assert!(t1.elapsed() < Duration::from_secs(5), "heartbeat missed");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "\n  sed-c worker stopped -> heartbeat evicted it in {:.0} ms; {} SeD(s) remain",
        t1.elapsed().as_secs_f64() * 1000.0,
        ma.sed_count(),
    );

    for srv in &servers {
        srv.stop();
    }
    seds[0].shutdown();
    println!("\nevery request survived a mid-burst SeD crash.");
}
