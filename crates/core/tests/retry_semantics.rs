//! One fault table, every resubmission path.
//!
//! The same fault scripts run through the client's in-process retry
//! (`call_with_retry`), its in-process-MA-over-TCP variant
//! (`call_over_tcp`), the fully distributed client (`call_distributed`)
//! and a one-task jobserver campaign. Each row pins, per path, the outcome
//! kind, how many retries (or task attempts) it took, and where the work
//! landed — which says whether the faulty SeD was excluded.
//!
//! The MA schedules with [`FirstLabel`], which always picks the
//! lexicographically first candidate. Without exclusion a resubmission
//! would go straight back to `d1/s0`, so landing on `d1/s1` after a stall
//! proves the label was excluded, and landing on `d1/s0` after `Busy`
//! proves it was not.

use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::{TcpDeployment, TcpTopologySpec};
use diet_core::jobserver::{JobServer, JobServerConfig, TaskPayload, TaskState};
use diet_core::monitor::Estimate;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::Scheduler;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::{DietClient, DietError, Obs, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FAULTY: &str = "d1/s0";
const HEALTHY: &str = "d1/s1";

/// Always the lexicographically first candidate label.
struct FirstLabel;

impl Scheduler for FirstLabel {
    fn select(&self, candidates: &[Estimate]) -> usize {
        (0..candidates.len())
            .min_by(|&a, &b| candidates[a].server.cmp(&candidates[b].server))
            .unwrap()
    }

    fn name(&self) -> &'static str {
        "first-label"
    }
}

/// `echo`: `x -> x + 1`; a negative input fails the solve with status 3
/// (an application rejection, identical on every SeD).
fn table() -> ServiceTable {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let x = p.get_i32(0)?;
        if x < 0 {
            return Ok(3);
        }
        p.set(1, DietValue::ScalarI32(x + 1), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(2);
    t.add(d, solve).unwrap();
    t
}

fn request(x: i32) -> Profile {
    let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
    d.set_arg(0, ArgTag::Scalar).unwrap();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::ScalarI32(x), Persistence::Volatile)
        .unwrap();
    p
}

const MAX_RETRIES: u32 = 4;

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(300),
        max_retries: MAX_RETRIES,
        backoff_base: Duration::from_millis(25),
        backoff_cap: Duration::from_millis(100),
        jitter: 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The faulty SeD answers its first call `Busy`, then serves.
    BusyOnce,
    /// The faulty SeD's worker dies on its first request.
    SedKilled,
    /// The faulty SeD stalls every request past the attempt deadline.
    Stall,
    /// The request itself fails its solve (status 3) wherever it runs.
    AppRejection,
    /// Both SeDs die on their first request.
    AllDead,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    CallWithRetry,
    CallOverTcp,
    CallDistributed,
    Jobserver,
}

/// What one path made of one fault script.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Solved on `label` after `retries` resubmissions (for the jobserver:
    /// `retries + 1` logged dispatch attempts).
    Ok { label: String, retries: u32 },
    /// Returned the failure at once, without resubmitting.
    Fatal,
    /// Gave up after `attempts` attempts (jobserver: terminal failure
    /// after `attempts` logged dispatches).
    Exhausted { attempts: u32 },
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "diet-retry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn deploy() -> TcpDeployment {
    TcpTopologySpec::chain(1, 2)
        .deploy(Arc::new(FirstLabel), |_| table())
        .unwrap()
}

/// Arm `fault` on the deployment. For `BusyOnce` a watcher clears the
/// forced `Busy` as soon as the SeD has answered one.
fn arm(d: &TcpDeployment, fault: Fault) {
    let faulty = d.seds.iter().find(|s| s.config.label == FAULTY).unwrap();
    match fault {
        Fault::BusyOnce => {
            faulty.faults().set_force_busy(true);
            let sed = faulty.clone();
            std::thread::spawn(move || {
                let busy = sed.obs().metrics.counter("diet_sed_busy_total");
                let deadline = Instant::now() + Duration::from_secs(10);
                while busy.get() == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                sed.faults().set_force_busy(false);
            });
        }
        Fault::SedKilled => faulty.faults().kill_at_request(1),
        Fault::Stall => faulty.faults().set_stall(Duration::from_secs(1)),
        Fault::AppRejection => {}
        Fault::AllDead => {
            for s in &d.seds {
                s.faults().kill_at_request(1);
            }
        }
    }
}

fn client_outcome(
    client: &DietClient,
    res: Result<(Profile, diet_core::CallStats), DietError>,
) -> Outcome {
    match res {
        Ok((out, stats)) => {
            assert_eq!(out.get_i32(1).unwrap(), 8);
            let (label, _) = client.history().pop().unwrap();
            Outcome::Ok {
                label,
                retries: stats.retries,
            }
        }
        Err(DietError::RetriesExhausted { attempts, last, .. }) => {
            assert!(
                !last.is_empty(),
                "RetriesExhausted must carry the last error"
            );
            Outcome::Exhausted { attempts }
        }
        Err(DietError::Transport(_) | DietError::Timeout { .. } | DietError::Busy) => {
            panic!("a retryable fault escaped the retry loop: {res:?}")
        }
        Err(_) => Outcome::Fatal,
    }
}

fn run_jobserver(d: &TcpDeployment, x: i32) -> Outcome {
    let dir = tmpdir("js");
    let mut cfg = JobServerConfig::new(&dir);
    cfg.workers = 1;
    cfg.retry = policy();
    cfg.max_task_attempts = 2;
    cfg.heartbeat = None;
    let js = JobServer::spawn(
        cfg,
        d.ma_client.clone(),
        d.pool.clone(),
        Arc::new(Obs::new()),
    )
    .unwrap();
    let (cid, _) = js
        .store()
        .submit("table", vec![TaskPayload::Call(request(x))])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let st = loop {
        let st = js.store().task_status(cid, 0).unwrap();
        if matches!(st.state, TaskState::Done | TaskState::Failed)
            && js.store().summary(cid).unwrap().finished
        {
            break st;
        }
        assert!(Instant::now() < deadline, "task never settled: {st:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    js.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    match st.state {
        TaskState::Done => Outcome::Ok {
            label: st.sed,
            retries: st.attempts - 1,
        },
        _ if st.attempts <= 1 => Outcome::Fatal,
        _ => Outcome::Exhausted {
            attempts: st.attempts,
        },
    }
}

/// Run one fault script through one path on a fresh deployment. Also
/// returns the labels the in-process MA deregistered (blame that reached
/// the MA; empty for the remote-MA paths, which blame by exclusion only).
fn run(fault: Fault, path: Path) -> (Outcome, Vec<String>) {
    let d = deploy();
    arm(&d, fault);
    let x = if fault == Fault::AppRejection { -1 } else { 7 };
    let outcome = match path {
        Path::CallWithRetry => {
            let client = DietClient::initialize(d.ma.clone());
            let res = client.call_with_retry(request(x), &policy());
            client_outcome(&client, res)
        }
        Path::CallOverTcp => {
            let client = DietClient::initialize(d.ma.clone());
            let res = client.call_over_tcp(&d.pool, request(x), &policy());
            client_outcome(&client, res)
        }
        Path::CallDistributed => {
            let client = DietClient::initialize_distributed(Arc::new(Obs::new()));
            let res = client.call_distributed(&d.ma_client, &d.pool, request(x), &policy());
            client_outcome(&client, res)
        }
        Path::Jobserver => run_jobserver(&d, x),
    };
    let deregistered = d.ma.deregistered();
    d.shutdown();
    (outcome, deregistered)
}

fn ok(label: &str, retries: u32) -> Outcome {
    Outcome::Ok {
        label: label.into(),
        retries,
    }
}

/// One row: the fault, then per path the expected outcome and the
/// expected MA deregistrations. `None` marks a path the fault cannot be
/// scripted on.
type Row = (Fault, [Option<(Outcome, Vec<String>)>; 4]);

fn expected() -> Vec<Row> {
    let none = Vec::<String>::new;
    let faulty = || vec![FAULTY.to_string()];
    let both = || vec![FAULTY.to_string(), HEALTHY.to_string()];
    vec![
        // Busy is a wire reply from the SeD's admission control; the
        // in-process SeD handle has none. Everywhere else: back off,
        // blame no one, come back to the same SeD.
        (
            Fault::BusyOnce,
            [
                None,
                Some((ok(FAULTY, 1), none())),
                Some((ok(FAULTY, 1), none())),
                Some((ok(FAULTY, 1), none())),
            ],
        ),
        // A dead SeD is blamed (the in-process MA deregisters it) and
        // the resubmission lands on the survivor.
        (
            Fault::SedKilled,
            [
                Some((ok(HEALTHY, 1), faulty())),
                Some((ok(HEALTHY, 1), faulty())),
                Some((ok(HEALTHY, 1), none())),
                Some((ok(HEALTHY, 1), none())),
            ],
        ),
        // A stall past the attempt deadline blames and excludes the SeD:
        // it is alive, so the first-label scheduler would pick it again
        // if the exclusion were missing. One strike does not deregister.
        (
            Fault::Stall,
            [
                Some((ok(HEALTHY, 1), none())),
                Some((ok(HEALTHY, 1), none())),
                Some((ok(HEALTHY, 1), none())),
                Some((ok(HEALTHY, 1), none())),
            ],
        ),
        // An application rejection fails identically anywhere: no retry,
        // no blame.
        (
            Fault::AppRejection,
            [
                Some((Outcome::Fatal, none())),
                Some((Outcome::Fatal, none())),
                Some((Outcome::Fatal, none())),
                Some((Outcome::Fatal, none())),
            ],
        ),
        // Every SeD dead. The in-process MA runs out of candidates after
        // both are excluded and the call ends there; the remote MA answers
        // "no candidate now", which backs off until the budget is spent;
        // the jobserver spends its task budget (2 dispatches) and fails.
        (
            Fault::AllDead,
            [
                Some((Outcome::Exhausted { attempts: 2 }, both())),
                Some((Outcome::Exhausted { attempts: 2 }, both())),
                Some((
                    Outcome::Exhausted {
                        attempts: MAX_RETRIES + 1,
                    },
                    none(),
                )),
                Some((Outcome::Exhausted { attempts: 2 }, none())),
            ],
        ),
    ]
}

const PATHS: [Path; 4] = [
    Path::CallWithRetry,
    Path::CallOverTcp,
    Path::CallDistributed,
    Path::Jobserver,
];

fn check_row(fault: Fault) {
    let (_, cells) = expected().into_iter().find(|(f, _)| *f == fault).unwrap();
    for (path, want) in PATHS.into_iter().zip(cells) {
        let Some((want_outcome, mut want_dereg)) = want else {
            continue;
        };
        let (got, mut dereg) = run(fault, path);
        assert_eq!(got, want_outcome, "{fault:?} via {path:?}");
        dereg.sort();
        want_dereg.sort();
        assert_eq!(
            dereg, want_dereg,
            "{fault:?} via {path:?}: MA deregistrations"
        );
    }
}

#[test]
fn busy_once_backs_off_without_blame() {
    check_row(Fault::BusyOnce);
}

#[test]
fn killed_sed_is_blamed_and_the_call_lands_elsewhere() {
    check_row(Fault::SedKilled);
}

#[test]
fn stall_past_the_deadline_excludes_the_sed() {
    check_row(Fault::Stall);
}

#[test]
fn application_rejection_is_fatal_everywhere() {
    check_row(Fault::AppRejection);
}

#[test]
fn every_sed_dead_exhausts_the_budget() {
    check_row(Fault::AllDead);
}
