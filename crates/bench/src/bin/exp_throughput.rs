//! Closed-loop throughput sweep over the live TCP serving path.
//!
//! Compares two client/serving models on identical hardware and an
//! identical (near-zero-cost) echo service, so the *middleware* is the
//! thing being measured:
//!
//! * `baseline` — one request per connection (dial, call, reply, close):
//!   the regime the pre-change `TcpSedPool` degenerates to under load,
//!   since its one idle slot per label serves at most one of `c`
//!   concurrent callers. This is the gated comparison.
//! * `pooled` — the pre-change one-slot pool with reuse: its serial best
//!   case, reported for context so the reuse upside stays on the record.
//! * `mux` — the pipelined model: every caller shares one multiplexed
//!   connection per SeD; replies are routed by correlation id.
//!
//! Each concurrency level runs `c` closed-loop callers issuing `R`
//! requests each; requests/sec is total/wall, latencies come from the obs
//! histogram registry (p50/p95/p99). A final overload scenario drives an
//! admission-limited SeD far past its queue bound and shows the explicit
//! `Busy` + capped-jittered-backoff path: every request completes, none
//! time out.
//!
//! An idle-connection sweep then holds {1, 256, 2048} established-but-idle
//! connections against the readiness-driven server while a foreground mux
//! workload runs: idle sockets are reactor registrations, not threads, so
//! foreground requests/sec must stay within 10% across the sweep and the
//! process thread count must not grow with the herd. A churn probe
//! (sequential connect → ping → close under the held herd) pins the
//! acceptor's wake-on-readiness latency.
//!
//! Writes `BENCH_throughput.json` (validated with `bench::validate_json`)
//! and exits non-zero if the concurrency-64 speedup is < 2×, the overload
//! run loses/times-out requests, or the idle sweep violates its rps/thread
//! bounds. `--quick` shrinks the sweep for the CI gate.

use diet_core::client::RetryPolicy;
use diet_core::codec::Message;
use diet_core::data::{DietValue, Persistence};
use diet_core::error::DietError;
use diet_core::hierarchy::serve_sed_over_tcp_with_config;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::{Duplex, ServerConfig, TcpSedPool, TcpTransport};
use obs::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// The pre-change client. The old `TcpSedPool` kept at most ONE idle
/// connection per label: a caller `remove`d it (or dialed fresh), carried
/// exactly one request on it, and re-inserted it on success — closing
/// whatever another caller had returned meanwhile. So at concurrency `c`
/// only one caller can hold the pooled connection; the other `c-1` dial,
/// which is the one-request-per-connection regime this bench gates on.
///
/// `reuse = true` keeps the one-slot pool (the old design's best case —
/// a lone serial caller that always wins the slot); `reuse = false` is
/// the steady-state concurrent miss path (dial per request).
struct BaselineClient {
    addr: SocketAddr,
    reuse: bool,
    slot: Mutex<Option<TcpTransport>>,
    next_id: AtomicU64,
    dials: AtomicU64,
}

impl BaselineClient {
    fn new(addr: SocketAddr, reuse: bool) -> Self {
        BaselineClient {
            addr,
            reuse,
            slot: Mutex::new(None),
            next_id: AtomicU64::new(0),
            dials: AtomicU64::new(0),
        }
    }

    fn call(&self, profile: Profile, deadline: Duration) -> Result<Profile, DietError> {
        let pooled = if self.reuse {
            self.slot.lock().unwrap().take()
        } else {
            None
        };
        let conn = match pooled {
            Some(c) => c,
            None => {
                self.dials.fetch_add(1, Ordering::Relaxed);
                TcpTransport::connect(self.addr)?
            }
        };
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        conn.send(&Message::Call {
            request_id,
            ctx: obs::TraceCtx::default(),
            profile,
        })?;
        let started = Instant::now();
        loop {
            let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                return Err(DietError::Timeout {
                    after_secs: deadline.as_secs_f64(),
                });
            };
            match conn.recv_timeout(remaining)? {
                Some(Message::CallReply {
                    request_id: rid,
                    result,
                    ..
                }) if rid == request_id => {
                    if self.reuse {
                        *self.slot.lock().unwrap() = Some(conn);
                    }
                    return result.map_err(DietError::Rejected);
                }
                Some(_) => continue,
                None => {
                    return Err(DietError::Timeout {
                        after_secs: deadline.as_secs_f64(),
                    })
                }
            }
        }
    }
}

struct ModeStats {
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    dials: u64,
    peak_inflight: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// One request per connection: dial, call, reply, close. What the
    /// pre-change pool degenerates to for all but one concurrent caller.
    Baseline,
    /// The pre-change one-slot pool with reuse — its serial best case.
    Pooled,
    /// The multiplexed pool: every caller shares one pipelined connection.
    Mux,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Pooled => "pooled",
            Mode::Mux => "mux",
        }
    }
}

fn run_mode(
    mode: Mode,
    addr: SocketAddr,
    concurrency: usize,
    requests_per_caller: usize,
    registry: &Registry,
) -> ModeStats {
    let c_label = concurrency.to_string();
    let hist = registry.histogram_with(
        "throughput_latency_seconds",
        &[("mode", mode.label()), ("concurrency", &c_label)],
    );

    let pool = Arc::new(TcpSedPool::new());
    pool.register("sed/0", addr);
    let baseline = Arc::new(BaselineClient::new(addr, mode == Mode::Pooled));

    let wall = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|caller| {
            let pool = pool.clone();
            let baseline = baseline.clone();
            let hist = hist.clone();
            std::thread::spawn(move || {
                for j in 0..requests_per_caller {
                    let x = (caller * requests_per_caller + j) as i32;
                    let t = Instant::now();
                    let out = if mode == Mode::Mux {
                        pool.call("sed/0", echo_profile(x), Duration::from_secs(30))
                    } else {
                        baseline.call(echo_profile(x), Duration::from_secs(30))
                    }
                    .unwrap_or_else(|e| panic!("{} request lost: {e}", mode.label()));
                    hist.observe(t.elapsed().as_secs_f64());
                    assert_eq!(out.get_i32(1).unwrap(), x, "mis-correlated echo");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let total = (concurrency * requests_per_caller) as f64;

    ModeStats {
        rps: total / elapsed,
        p50_ms: hist.p50() * 1e3,
        p95_ms: hist.p95() * 1e3,
        p99_ms: hist.p99() * 1e3,
        dials: if mode == Mode::Mux {
            pool.dials()
        } else {
            baseline.dials.load(Ordering::Relaxed)
        },
        peak_inflight: if mode == Mode::Mux {
            pool.peak_inflight("sed/0")
        } else {
            1
        },
    }
}

struct OverloadStats {
    callers: usize,
    requests: usize,
    busy_bounces: u64,
    timeouts: u64,
    lost: u64,
    sed_busy_total: u64,
}

/// Drive an admission-limited SeD far past its queue bound: every overrun
/// request must bounce with `Busy` and succeed on a later (capped,
/// jittered) retry — the failure mode this replaces is a pile of timeouts.
fn run_overload(quick: bool) -> OverloadStats {
    let sed = SedHandle::spawn(
        SedConfig::new("sed/ov", 1.0).with_admission_limit(4),
        echo_table(),
    );
    sed.faults().set_stall(Duration::from_millis(2));
    let server = serve_sed_over_tcp_with_config(sed.clone(), ServerConfig::default())
        .expect("bind overload server");
    let pool = Arc::new(TcpSedPool::new());
    pool.register("sed/ov", server.local_addr);

    let callers = if quick { 16 } else { 32 };
    let per_caller = if quick { 2 } else { 4 };
    let policy = RetryPolicy {
        max_retries: 40,
        backoff_base: Duration::from_millis(4),
        backoff_cap: Duration::from_millis(100),
        jitter: 0.5,
        ..RetryPolicy::default()
    };

    let busy = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..callers)
        .map(|caller| {
            let pool = pool.clone();
            let busy = busy.clone();
            let timeouts = timeouts.clone();
            let lost = lost.clone();
            std::thread::spawn(move || {
                for j in 0..per_caller {
                    let x = (caller * per_caller + j) as i32;
                    let mut attempt = 0u32;
                    loop {
                        match pool.call("sed/ov", echo_profile(x), Duration::from_secs(30)) {
                            Ok(out) => {
                                assert_eq!(out.get_i32(1).unwrap(), x);
                                break;
                            }
                            Err(DietError::Busy) if attempt < policy.max_retries => {
                                busy.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(policy.backoff_jittered(attempt, x as u64 + 1));
                                attempt += 1;
                            }
                            Err(DietError::Timeout { .. }) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                lost.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(_) => {
                                lost.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = OverloadStats {
        callers,
        requests: callers * per_caller,
        busy_bounces: busy.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        lost: lost.load(Ordering::Relaxed),
        sed_busy_total: sed.obs().metrics.counter_value("diet_sed_busy_total"),
    };
    server.stop();
    sed.shutdown();
    stats
}

struct IdleStats {
    idle: usize,
    rps: f64,
    p99_ms: f64,
    process_threads: usize,
    server_conns: usize,
    churn_p50_ms: f64,
    churn_p99_ms: f64,
}

/// Kernel-reported thread count of this process (clients and server share
/// it here, but the client side contributes a fixed number of threads per
/// sweep level, so growth with the idle herd would be the server's).
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Hold `idle` established connections (each proven live with one
/// ping/pong) while a foreground mux workload runs, then probe accept
/// latency with sequential connect → ping → close churn under the herd.
fn run_idle_sweep(quick: bool) -> Vec<IdleStats> {
    let sed = SedHandle::spawn(SedConfig::new("sed/idle", 1.0), echo_table());
    let server = serve_sed_over_tcp_with_config(
        sed.clone(),
        ServerConfig {
            workers: 8,
            accept_queue: 64,
            faults: None,
            obs: None,
        },
    )
    .expect("bind idle-sweep server");
    let addr = server.local_addr;

    let idle_counts: &[usize] = if quick {
        &[1, 64, 256]
    } else {
        &[1, 256, 2048]
    };
    let concurrency = if quick { 8 } else { 32 };
    let reqs = if quick { 20 } else { 50 };
    let churn_n = if quick { 50 } else { 200 };

    let mut out = Vec::new();
    for &idle in idle_counts {
        let herd: Vec<TcpTransport> = (0..idle)
            .map(|_| {
                let t = TcpTransport::connect(addr).expect("idle dial");
                t.send(&Message::Ping).expect("idle ping");
                match t.recv() {
                    Ok(Message::Pong) => t,
                    other => panic!("idle conn expected Pong, got {other:?}"),
                }
            })
            .collect();
        // Measured here — after the herd is up, before the foreground's
        // transient caller threads — so growth tracks the server side.
        let threads = process_threads();
        let server_conns = server.tracked_connections();

        // One untimed warm-up pass per level (not just once globally): the
        // sweep compares levels against each other, so every level should
        // enter its timed passes equally warm — cold-start costs on the
        // first level, or cache/scheduler drift after a 2048-conn herd-up,
        // would otherwise masquerade as an idle-connection effect.
        run_mode(Mode::Mux, addr, concurrency, reqs, &Registry::new());

        // Median of five foreground passes: the gate compares levels
        // within 10%, tighter than single-run scheduler noise on a shared
        // 1-CPU box.
        let mut passes: Vec<ModeStats> = (0..5)
            .map(|_| run_mode(Mode::Mux, addr, concurrency, reqs, &Registry::new()))
            .collect();
        passes.sort_by(|a, b| a.rps.partial_cmp(&b.rps).unwrap());
        let fg = passes.swap_remove(2);

        let mut churn_ms: Vec<f64> = (0..churn_n)
            .map(|_| {
                let t0 = Instant::now();
                let t = TcpTransport::connect(addr).expect("churn dial");
                t.send(&Message::Ping).expect("churn ping");
                match t.recv() {
                    Ok(Message::Pong) => {}
                    other => panic!("churn expected Pong, got {other:?}"),
                }
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        churn_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());

        out.push(IdleStats {
            idle,
            rps: fg.rps,
            p99_ms: fg.p99_ms,
            process_threads: threads,
            server_conns,
            churn_p50_ms: churn_ms[churn_ms.len() / 2],
            churn_p99_ms: churn_ms[(churn_ms.len() * 99 / 100).min(churn_ms.len() - 1)],
        });
        drop(herd);
    }
    server.stop();
    sed.shutdown();
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep: &[usize] = if quick { &[1, 8, 64] } else { &[1, 4, 16, 64] };
    let requests_per_caller = if quick { 20 } else { 50 };

    // One SeD for both modes. The server pool is sized so the baseline's
    // 64 concurrent connections are never throttled by admission control —
    // the comparison isolates the client/connection model, and the old
    // server was an unbounded thread-per-connection spawn anyway.
    let sed = SedHandle::spawn(SedConfig::new("sed/0", 1.0), echo_table());
    let server = serve_sed_over_tcp_with_config(
        sed.clone(),
        ServerConfig {
            workers: 96,
            accept_queue: 128,
            faults: None,
            obs: None,
        },
    )
    .expect("bind throughput server");
    let addr = server.local_addr;

    let registry = Registry::new();
    println!("== exp_throughput: closed-loop sweep (R = {requests_per_caller}/caller) ==");
    println!(
        "  {:>11} {:>6} {:>12} {:>9} {:>9} {:>9} {:>7} {:>9}",
        "mode", "conc", "req/s", "p50 ms", "p95 ms", "p99 ms", "dials", "inflight"
    );

    let mut rows = Vec::new();
    for &c in sweep {
        let base = run_mode(Mode::Baseline, addr, c, requests_per_caller, &registry);
        let pooled = run_mode(Mode::Pooled, addr, c, requests_per_caller, &registry);
        let mux = run_mode(Mode::Mux, addr, c, requests_per_caller, &registry);
        for (name, s) in [("baseline", &base), ("pooled", &pooled), ("mux", &mux)] {
            println!(
                "  {:>11} {:>6} {:>12.0} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>9}",
                name, c, s.rps, s.p50_ms, s.p95_ms, s.p99_ms, s.dials, s.peak_inflight
            );
        }
        println!("  {:>11} {:>6} {:>12.2}x", "speedup", c, mux.rps / base.rps);
        rows.push((c, base, pooled, mux));
    }
    server.stop();
    sed.shutdown();

    println!("== exp_throughput: overload (admission limit 4) ==");
    let ov = run_overload(quick);
    println!(
        "  {} callers, {} requests: {} Busy bounces ({} observed SeD-side), {} timeouts, {} lost",
        ov.callers, ov.requests, ov.busy_bounces, ov.sed_busy_total, ov.timeouts, ov.lost
    );

    println!("== exp_throughput: idle-connection sweep (foreground mux) ==");
    let idle_rows = run_idle_sweep(quick);
    println!(
        "  {:>6} {:>12} {:>9} {:>8} {:>10} {:>11} {:>11}",
        "idle", "req/s", "p99 ms", "threads", "srv conns", "churn p50", "churn p99"
    );
    for r in &idle_rows {
        println!(
            "  {:>6} {:>12.0} {:>9.3} {:>8} {:>10} {:>9.3}ms {:>9.3}ms",
            r.idle,
            r.rps,
            r.p99_ms,
            r.process_threads,
            r.server_conns,
            r.churn_p50_ms,
            r.churn_p99_ms
        );
    }

    // ---- artifact ----
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"experiment\": \"throughput\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    json.push_str(&format!(
        "  \"requests_per_caller\": {requests_per_caller},\n  \"sweep\": [\n"
    ));
    for (i, (c, base, pooled, mux)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"concurrency\": {c}, \
             \"baseline\": {{\"rps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"dials\": {}}}, \
             \"pooled\": {{\"rps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"dials\": {}}}, \
             \"mux\": {{\"rps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"dials\": {}, \"peak_inflight\": {}}}, \
             \"speedup\": {:.3}}}{}\n",
            base.rps, base.p50_ms, base.p95_ms, base.p99_ms, base.dials,
            pooled.rps, pooled.p50_ms, pooled.p95_ms, pooled.p99_ms, pooled.dials,
            mux.rps, mux.p50_ms, mux.p95_ms, mux.p99_ms, mux.dials, mux.peak_inflight,
            mux.rps / base.rps,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overload\": {{\"callers\": {}, \"requests\": {}, \"busy_bounces\": {}, \
         \"sed_busy_total\": {}, \"timeouts\": {}, \"lost\": {}}},\n",
        ov.callers, ov.requests, ov.busy_bounces, ov.sed_busy_total, ov.timeouts, ov.lost
    ));
    json.push_str("  \"idle_sweep\": [\n");
    for (i, r) in idle_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"idle_connections\": {}, \"foreground_rps\": {:.1}, \
             \"foreground_p99_ms\": {:.4}, \"process_threads\": {}, \
             \"server_tracked_conns\": {}, \"churn_p50_ms\": {:.4}, \
             \"churn_p99_ms\": {:.4}}}{}\n",
            r.idle,
            r.rps,
            r.p99_ms,
            r.process_threads,
            r.server_conns,
            r.churn_p50_ms,
            r.churn_p99_ms,
            if i + 1 == idle_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    bench::validate_json(&json).expect("generated artifact is not valid JSON");

    let path = if quick {
        bench::artifact_dir().join("BENCH_throughput_quick.json")
    } else {
        std::path::PathBuf::from("BENCH_throughput.json")
    };
    std::fs::write(&path, &json).expect("failed to write artifact");
    println!("wrote {}", path.display());

    // ---- self-checks (the CI gate runs this binary) ----
    let (_, base64, _, mux64) = rows
        .iter()
        .find(|(c, _, _, _)| *c == 64)
        .expect("sweep includes concurrency 64");
    let speedup = mux64.rps / base64.rps;
    let mut failed = false;
    if speedup < 2.0 {
        eprintln!("FAIL: concurrency-64 speedup {speedup:.2}x < 2.0x");
        failed = true;
    }
    if mux64.peak_inflight < 8 {
        eprintln!(
            "FAIL: mux peak in-flight {} < 8 — pipelining not engaged",
            mux64.peak_inflight
        );
        failed = true;
    }
    if ov.busy_bounces == 0 || ov.sed_busy_total == 0 {
        eprintln!("FAIL: overload run never produced a Busy rejection");
        failed = true;
    }
    if ov.timeouts > 0 || ov.lost > 0 {
        eprintln!(
            "FAIL: overload run lost {} requests ({} timeouts) — backpressure did not hold",
            ov.lost, ov.timeouts
        );
        failed = true;
    }

    // Idle-herd gates. Full mode holds the headline 10% bound; quick mode
    // (CI on a shared 1-CPU runner) keeps a looser 30% sanity band so
    // scheduler noise can't flake the gate while regressions that matter
    // (thread-per-connection relapse, O(conns) scans) still trip it.
    let rps_min = idle_rows
        .iter()
        .map(|r| r.rps)
        .fold(f64::INFINITY, f64::min);
    let rps_max = idle_rows.iter().map(|r| r.rps).fold(0.0, f64::max);
    let rps_floor = if quick { 0.70 } else { 0.90 };
    if rps_min < rps_floor * rps_max {
        eprintln!(
            "FAIL: foreground rps varies {rps_min:.0}..{rps_max:.0} across idle herd — \
             idle connections are not free (floor {rps_floor})"
        );
        failed = true;
    }
    let t_first = idle_rows.first().map(|r| r.process_threads).unwrap_or(0);
    let t_last = idle_rows.last().map(|r| r.process_threads).unwrap_or(0);
    if t_first > 0 && t_last > t_first + 4 {
        eprintln!(
            "FAIL: process threads grew {t_first} -> {t_last} with the idle herd — \
             serving is not O(workers)"
        );
        failed = true;
    }
    for r in &idle_rows {
        if r.server_conns < r.idle {
            eprintln!(
                "FAIL: server tracks {} conns with {} idle held — registrations lost",
                r.server_conns, r.idle
            );
            failed = true;
        }
        if r.churn_p99_ms > 1000.0 {
            eprintln!(
                "FAIL: churn p99 {:.1}ms at {} idle — acceptor starved",
                r.churn_p99_ms, r.idle
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: {speedup:.2}x at concurrency 64; overload drained via Busy+backoff; \
         idle herd {}..{} conns holds rps within {:.0}% (threads {t_first} -> {t_last})",
        idle_rows.first().map(|r| r.idle).unwrap_or(0),
        idle_rows.last().map(|r| r.idle).unwrap_or(0),
        (1.0 - rps_min / rps_max.max(1.0)) * 100.0
    );
}
