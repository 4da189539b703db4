//! The one deployment shape every workload runs on: a Master Agent over two
//! Local Agents ("sites") with one cosmology SeD each, all over TCP, plus a
//! durable jobserver with two dispatch workers. The client and the jobserver
//! each get their own SeD connection pool and MA stub, as separate
//! processes would; the SeDs and the MA's DAG engine share the deployment's.

use cosmogrid::namelist::{default_run_namelist, Namelist};
use cosmogrid::services::{cosmology_service_table, zoom2_profile};
use cosmogrid::workflow::zoom_fanout_expander;
use diet_core::deploy::{SedSpec, TcpDeployment, TcpSiteSpec, TcpTopologySpec};
use diet_core::hierarchy::RemoteAgentClient;
use diet_core::jobserver::{serve_jobserver_over_tcp, JobClient, JobServer, JobServerConfig};
use diet_core::profile::Profile;
use diet_core::sched::RoundRobin;
use diet_core::transport::{ServerConfig, TcpSedPool, TcpServer};
use diet_core::{DietClient, Obs, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub const SITES: [&str; 2] = ["site-a", "site-b"];
/// Jobserver dispatch workers.
pub const JOB_WORKERS: usize = 2;
/// Per-attempt deadline: the slowest solve here (a 16³ zoom on a loaded
/// two-core host) takes seconds, never minutes.
pub const SOLVE_DEADLINE: Duration = Duration::from_secs(120);
/// The `ramsesZoom2` resolution the SeD rejects at validation (not a power
/// of two): the reply comes back with status `BAD_RESOLUTION` (2) and no
/// solve runs, which makes the call a null call through every other layer.
pub const NULL_RESOLUTION: i32 = 7;
pub const BOX_MPC_H: i32 = 50;
pub const NB_BOX: i32 = 2;

/// The namelist every profile ships. One output time (a = 0.5) besides the
/// final one: the traced replay steps the simulation itself, and with a
/// single intermediate output it takes exactly the steps `Simulation::run`
/// takes (see `replay.rs`).
pub fn namelist(resolution: i32) -> Namelist {
    let mut nl = default_run_namelist(resolution as i64, BOX_MPC_H as f64);
    nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
    nl
}

/// A real nine-argument `ramsesZoom2` profile that the SeD rejects.
pub fn null_profile(centre: [i32; 3]) -> Profile {
    zoom2_profile(&namelist(16), NULL_RESOLUTION, BOX_MPC_H, centre, NB_BOX)
}

pub fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: SOLVE_DEADLINE,
        max_retries: 3,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        jitter: 0.5,
    }
}

pub struct Rig {
    pub d: TcpDeployment,
    pub js: Arc<JobServer>,
    pub js_obs: Arc<Obs>,
    js_server: TcpServer,
    pub job: Arc<JobClient>,
    pub client: DietClient,
    /// The client's own connections to the SeDs.
    pub pool: Arc<TcpSedPool>,
    pub policy: RetryPolicy,
    dir: PathBuf,
}

impl Rig {
    /// Deploy, start the jobserver (state under `dir`), connect the client,
    /// and make one untimed null call on every client connection.
    pub fn up(dir: PathBuf) -> Result<Rig, String> {
        let site = |name: &str| TcpSiteSpec {
            name: name.into(),
            seds: vec![SedSpec {
                label: format!("{name}/0"),
                speed_factor: 1.0,
            }],
            children: vec![],
        };
        let spec = TcpTopologySpec {
            ma_name: "ma".into(),
            ma_seds: vec![],
            sites: SITES.iter().map(|s| site(s)).collect(),
            admission_limit: None,
            child_timeout_ms: 30_000,
        };
        let d = spec
            .deploy(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
            .map_err(|e| format!("deploy: {e}"))?;
        d.dag
            .register_expander("zoom_fanout", zoom_fanout_expander());

        let own_pool = || {
            let pool = TcpSedPool::new();
            for label in d.pool.labels() {
                if let Some(addr) = d.pool.endpoint(&label) {
                    pool.register(&label, addr);
                }
            }
            Arc::new(pool)
        };
        let ma_addr = d.ma_server.local_addr;

        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = JobServerConfig::new(&dir);
        cfg.workers = JOB_WORKERS;
        cfg.retry.attempt_timeout = SOLVE_DEADLINE;
        let js_obs = Arc::new(Obs::new());
        let js = JobServer::spawn(
            cfg,
            RemoteAgentClient::with_timeout("ma", ma_addr, SOLVE_DEADLINE),
            own_pool(),
            js_obs.clone(),
        )
        .map_err(|e| format!("jobserver: {e}"))?;
        let js_server =
            serve_jobserver_over_tcp(js.clone(), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("serve jobserver: {e}"))?;
        let job = JobClient::with_timeout(js_server.local_addr, Duration::from_secs(60));

        let rig = Rig {
            client: DietClient::initialize_distributed(Arc::new(Obs::new())),
            pool: own_pool(),
            policy: policy(),
            d,
            js,
            js_obs,
            js_server,
            job,
            dir,
        };
        rig.touch_connections()?;
        Ok(rig)
    }

    /// One null call per client connection: MA, each SeD, the jobserver.
    fn touch_connections(&self) -> Result<(), String> {
        let (out, _) = self
            .client
            .call_distributed(
                &self.d.ma_client,
                &self.pool,
                null_profile([50, 50, 50]),
                &self.policy,
            )
            .map_err(|e| format!("warm-up call: {e}"))?;
        check_null_reply(&out)?;
        for label in self.pool.labels() {
            let out = self
                .pool
                .call(&label, null_profile([50, 50, 50]), SOLVE_DEADLINE)
                .map_err(|e| format!("warm-up call to {label}: {e}"))?;
            check_null_reply(&out)?;
        }
        // Campaign 0 never exists: the rejection proves the round trip.
        match self.job.progress(0, 0) {
            Err(diet_core::DietError::Rejected(_)) => Ok(()),
            other => Err(format!("warm-up jobserver probe: {other:?}")),
        }
    }

    pub fn ma(&self) -> &RemoteAgentClient {
        &self.d.ma_client
    }

    pub fn labels(&self) -> Vec<String> {
        let mut l = self.pool.labels();
        l.sort();
        l
    }

    pub fn down(self) {
        self.js.shutdown();
        self.js_server.kill();
        self.d.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A null call's reply must carry `BAD_RESOLUTION` in its status argument.
pub fn check_null_reply(out: &Profile) -> Result<(), String> {
    match out.get_i32(8) {
        Ok(cosmogrid::services::status::BAD_RESOLUTION) => Ok(()),
        other => Err(format!("null call replied status {other:?}, expected 2")),
    }
}
