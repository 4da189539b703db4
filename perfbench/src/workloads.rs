//! The four workloads. Each loads one group of layers heavily and the
//! others lightly; the reason for each is next to its definition.
//!
//! Every workload reports the same end-to-end metrics over its own unit of
//! work ("op"); see `README.md` for what `op_ms` and `work_per_s` mean on
//! each.

use crate::layers::{Layers, OpTrace};
use crate::replay;
use crate::rig::{
    check_null_reply, namelist, null_profile, Rig, BOX_MPC_H, NB_BOX, SOLVE_DEADLINE,
};
use crate::stats::{fnv64, Rng};
use bytes::{Bytes, BytesMut};
use cosmogrid::archive;
use cosmogrid::campaign::run_live_campaign;
use cosmogrid::services::{status, zoom1_profile, zoom2_profile};
use cosmogrid::workflow::{CatalogHalo, DagWorkflowReport, ZoomWorkflow};
use diet_core::codec::{decode_profile, encode_profile};
use diet_core::dag::{DagEventRec, DagNodeState, DagOutcome};
use diet_core::data::DietValue;
use diet_core::jobserver::{JobStore, JobStoreConfig, TaskPayload, TaskState};
use diet_core::profile::Profile;
use diet_core::{Obs, TraceCtx};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ZoomWorkflow::run_via_jobserver`'s protocol, dark matter only: part
    /// 1 at 16³ (41 halos), then 4 part-2 zooms at nbBox 2 as one durable
    /// campaign, one campaign at a time. The ROADMAP's unit of truth and the
    /// paper's two-part protocol; >99% of its wall time is
    /// grafic/ramses/galics with particle-heavy zooms on a 32³ PM mesh, so
    /// kernel changes and SeD placement move it and middleware changes
    /// cannot.
    ZoomCampaign,
    /// `ZoomWorkflow::run_dag` through the MA's DAG engine with the
    /// `zoom_fanout` expander: part 1 at 8³ (4 halos), then 4 zooms. The
    /// only workload on the DAG engine and SeD-to-SeD pulls; 512 particles
    /// on the same 32³ mesh make it mesh-bound, so a particle-side kernel
    /// change moves `zoom_campaign` and barely this, while a Poisson
    /// change moves both.
    ZoomDag,
    /// Two closed-loop callers of `call_distributed` with real nine-argument
    /// `ramsesZoom2` profiles the SeD rejects at validation: the paper's
    /// Figure 5 overhead (finding + initiation) with the solve removed.
    RpcOverhead,
    /// One client submits N rejected profiles as one campaign, then waits:
    /// the jobserver's write path (WAL appends, snapshots, a dispatch round
    /// trip per task over the layers `rpc_overhead` reads through). A WAL
    /// group-commit change should move this and leave `rpc_overhead` alone.
    TaskBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZoomCampaign,
        Workload::ZoomDag,
        Workload::RpcOverhead,
        Workload::TaskBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZoomCampaign => "zoom_campaign",
            Workload::ZoomDag => "zoom_dag",
            Workload::RpcOverhead => "rpc_overhead",
            Workload::TaskBurst => "task_burst",
        }
    }
}

/// Resolutions: part 1 and zooms of `zoom_campaign`, `zoom_dag`, and the
/// warm-up pipeline every workload runs.
pub const CAMPAIGN_RES: i32 = 16;
pub const DAG_RES: i32 = 8;
pub const WARMUP_RES: i32 = 8;
/// Zooms per campaign / pipeline, chosen from this many most massive halos.
pub const ZOOMS: usize = 4;
pub const ZOOM_POOL: usize = 8;
/// Tasks per `task_burst` campaign, and the bursts its op metrics cover.
pub const BURST_TASKS: usize = 4000;
const MEASURED_BURSTS: usize = 10;
/// Callers of `rpc_overhead` (at most `nproc` = 2 on the reference host).
pub const RPC_CALLERS: usize = 2;
/// Ops after which `peak_rss_mb` is read: campaigns, pipelines, calls of
/// the first `rpc_overhead` caller, bursts.
const RSS_AFTER: [usize; 4] = [1, 1, 5000, 4];
/// Decomposed null calls of the layer probe.
const PROBE_CALLS: usize = 1000;
/// Tasks fed to the scratch job store.
const STORE_PROBE_TASKS: usize = 1000;
const POLL: Duration = Duration::from_millis(5);
/// No op starts after this much of the run: every run ends well inside 180 s.
const START_BUDGET: Duration = Duration::from_secs(120);

/// Operation accounting: every request the run makes, warm-up included.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// An output check found a wrong answer (not merely a failed request).
    pub wrong: bool,
    pub causes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, cause: String) {
        self.attempted += n;
        self.failed += n;
        self.causes.push(cause);
    }

    pub fn wrong(&mut self, n: u64, cause: String) {
        self.wrong = true;
        self.fail(n, format!("wrong output: {cause}"));
    }
}

/// End-to-end samples of the untraced run.
#[derive(Default)]
pub struct E2e {
    pub op_ms: Vec<f64>,
    /// Per-op rates, or one rate for the whole window (`rpc_overhead`).
    pub rates: Vec<f64>,
    /// Peak RSS once the run has done a fixed amount of work (`RSS_AFTER`),
    /// so that a faster build doing more ops in the window is not charged
    /// for the memory those extra ops hold.
    pub rss_mb: Option<f64>,
}

impl E2e {
    /// Record the peak RSS when `ops` reaches the workload's quota.
    fn note_rss(&mut self, ops: usize, quota: usize) {
        if ops >= quota && self.rss_mb.is_none() {
            self.rss_mb = crate::stats::peak_rss_mb();
        }
    }
}

pub struct Ctx<'a> {
    pub rig: &'a Rig,
    pub rng: Rng,
    pub seconds: f64,
    pub trace: bool,
    pub tally: Tally,
    pub e2e: E2e,
    pub layers: Layers,
    /// A sample of the profiles and job payloads the workload sent, for the
    /// codec and job-store probes.
    profiles: Vec<Profile>,
    payloads: Vec<TaskPayload>,
    digests: Digests,
    pub replays: u32,
    pub replays_matched: u32,
    /// A workload op's solves were replayed (once per traced run).
    replayed_op: bool,
}

impl<'a> Ctx<'a> {
    pub fn new(rig: &'a Rig, seed: u64, seconds: f64, trace: bool, work: &Path) -> Ctx<'a> {
        Ctx {
            rig,
            rng: Rng::new(seed),
            seconds,
            trace,
            tally: Tally::default(),
            e2e: E2e::default(),
            layers: Layers::default(),
            profiles: Vec::new(),
            payloads: Vec::new(),
            digests: Digests::new(work),
            replays: 0,
            replays_matched: 0,
            replayed_op: false,
        }
    }

    fn keep_profile(&mut self, p: &Profile) {
        if self.profiles.len() < 64 {
            self.profiles.push(p.clone());
        }
    }

    fn keep_payload(&mut self, p: &TaskPayload) {
        if self.payloads.len() < 64 {
            self.payloads.push(p.clone());
        }
    }

    fn replayed(&mut self, matched: bool, what: &str) {
        self.replays += 1;
        if matched {
            self.replays_matched += 1;
        } else {
            eprintln!("perfbench: replay of {what} did not reproduce the SeD's catalog");
        }
    }
}

// ------------------------------------------------------------ determinism

/// The determinism contract (the solve is bitwise reproducible), checked
/// across runs of one build: the first run of a build records each part-1
/// catalog digest, later runs of the same build (same executable bytes)
/// must reproduce it.
struct Digests {
    dir: PathBuf,
    build: u64,
    seen: BTreeMap<i32, u64>,
}

impl Digests {
    fn new(work: &Path) -> Digests {
        let build = std::env::current_exe()
            .and_then(std::fs::read)
            .map(|b| fnv64(&b))
            .unwrap_or(0);
        Digests {
            dir: work.join("digests"),
            build,
            seen: BTreeMap::new(),
        }
    }

    fn check(&mut self, resolution: i32, catalog: &[u8]) -> Result<(), String> {
        let d = fnv64(catalog);
        if let Some(&prev) = self.seen.get(&resolution) {
            return if prev == d {
                Ok(())
            } else {
                Err(format!(
                    "{resolution}³ part-1 catalog changed within the run"
                ))
            };
        }
        self.seen.insert(resolution, d);
        let path = self
            .dir
            .join(format!("{:016x}-part1-{resolution}.digest", self.build));
        match std::fs::read_to_string(&path) {
            Ok(s) if s.trim() == format!("{d:016x}") => Ok(()),
            Ok(s) => Err(format!(
                "{resolution}³ part-1 catalog digest {d:016x} differs from an earlier run's {}",
                s.trim()
            )),
            Err(_) => {
                let _ = std::fs::create_dir_all(&self.dir);
                let _ = std::fs::write(&path, format!("{d:016x}\n"));
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------- helpers

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn file_bytes(v: &DietValue) -> Option<&Bytes> {
    match v {
        DietValue::File { data, .. } => Some(data),
        _ => None,
    }
}

/// Data rows (lines after the header) of `name` inside a result tarball.
fn rows(entries: &[archive::Entry], name: &str) -> usize {
    archive::find(entries, name)
        .map(|e| {
            String::from_utf8_lossy(&e.data)
                .lines()
                .count()
                .saturating_sub(1)
        })
        .unwrap_or(0)
}

fn catalog_of(entries: &[archive::Entry]) -> Result<Vec<u8>, String> {
    archive::find(entries, "halos/catalog.txt")
        .map(|e| e.data.to_vec())
        .ok_or_else(|| "result tarball has no halos/catalog.txt".to_string())
}

/// One call split at the layer boundaries the benchmark can reach: the MA's
/// finding (`RemoteAgentClient::submit`) and the direct SeD call
/// (`TcpSedPool::call_traced`), with the SeD's own queue and solve times.
fn decomposed_call(
    rig: &Rig,
    profile: Profile,
    op: &mut OpTrace,
    l: &mut Layers,
) -> Result<Profile, String> {
    let ctx = TraceCtx::default();
    let service = profile.service.clone();
    let (found, find_s) = op.time("hierarchy", || rig.ma().submit(&service, &[], ctx));
    let label = found
        .map_err(|e| format!("finding: {e}"))?
        .ok_or_else(|| "finding: no server available".to_string())?;
    l.sample("hierarchy.find_ms", find_s * 1e3);
    let (reply, call_s) = op.time("transport", || {
        rig.pool.call_traced(&label, profile, SOLVE_DEADLINE, ctx)
    });
    let (out, queue, solve) = reply.map_err(|e| format!("call to {label}: {e}"))?;
    op.reported("sed", op.elapsed_s(), queue + solve);
    l.sample("transport.call_ms", call_s * 1e3);
    l.sample("transport.wire_ms", (call_s - queue - solve).max(0.0) * 1e3);
    l.sample("sed.queue_wait_ms", queue * 1e3);
    l.sample("sed.solve_ms", solve * 1e3);
    l.busy(&label, solve);
    Ok(out)
}

// ----------------------------------------------------------- warm-up

/// Untimed warm-up, identical in every workload: a small null campaign
/// through the jobserver and one small zoom pipeline (part 1 at 8³ plus one
/// zoom) through the DAG engine. It is the "one untimed solve" before
/// timing, and in the traced run it is the light load on the layers the
/// workload itself does not use (DAG engine, data pulls, solve phases).
pub fn warm_up(cx: &mut Ctx) {
    const NULL_TASKS: u64 = 16;
    let tasks: Vec<TaskPayload> = (0..NULL_TASKS)
        .map(|_| TaskPayload::Call(null_profile(cx.rng.centre())))
        .collect();
    let job = &cx.rig.job;
    let t = Instant::now();
    let submitted = job.submit_tasks("warm-up-null", tasks);
    if cx.trace && submitted.is_ok() {
        cx.layers.sample("jobserver.submit_ack_ms", ms_since(t));
    }
    match submitted.and_then(|(cid, _)| job.wait(cid, POLL, Duration::from_secs(60))) {
        Ok((summary, _)) if summary.done == NULL_TASKS && summary.failed == 0 => {
            cx.tally.ok(NULL_TASKS)
        }
        Ok((summary, _)) => cx
            .tally
            .fail(NULL_TASKS, format!("warm-up campaign: {summary:?}")),
        Err(e) => cx.tally.fail(NULL_TASKS, format!("warm-up campaign: {e}")),
    }
    let wf = ZoomWorkflow {
        namelist: namelist(WARMUP_RES),
        resolution: WARMUP_RES,
        size_mpc_h: BOX_MPC_H,
        nb_box: NB_BOX,
        max_zooms: 1,
    };
    pipeline_op(cx, &wf, cx.trace, true, "warm-up pipeline");
}

// ------------------------------------------------------- zoom_campaign

pub fn zoom_campaign(cx: &mut Ctx) {
    let t_run = Instant::now();
    let mut k = 0;
    while more(cx, t_run, k) {
        let pick = cx.rng.choose(ZOOM_POOL, ZOOMS);
        if cx.trace {
            // Same halos twice: untraced, then traced, for trace.overhead.
            campaign_op(cx, k, &pick, false);
            campaign_op(cx, k + 1, &pick, true);
            k += 2;
        } else {
            campaign_op(cx, k, &pick, false);
            k += 1;
        }
    }
}

fn campaign_op(cx: &mut Ctx, k: usize, pick: &[usize], traced: bool) {
    let rig = cx.rig;
    let nl = namelist(CAMPAIGN_RES);
    let part1 = zoom1_profile(&nl, CAMPAIGN_RES);
    cx.keep_profile(&part1);
    let mut op = OpTrace::begin();
    let mut l = Layers::default();

    let reply = if traced {
        decomposed_call(rig, part1, &mut op, &mut l)
    } else {
        rig.client
            .call_distributed(rig.ma(), &rig.pool, part1, &rig.policy)
            .map(|(out, _)| out)
            .map_err(|e| e.to_string())
    };
    let part1_ms = op.elapsed_s() * 1e3;
    let r1 = match reply {
        Ok(r) => r,
        Err(e) => {
            return cx
                .tally
                .fail(1 + ZOOMS as u64, format!("campaign {k} part 1: {e}"))
        }
    };
    match r1.get_i32(3) {
        Ok(status::OK) => {}
        other => {
            return cx.tally.fail(
                1 + ZOOMS as u64,
                format!("campaign {k} part 1 status {other:?}"),
            )
        }
    }
    let tar = match r1.get_file(2) {
        Ok((_, t)) => t.clone(),
        Err(e) => {
            return cx
                .tally
                .wrong(1 + ZOOMS as u64, format!("part-1 tarball: {e}"))
        }
    };
    let (entries, _) = op.time("archive", || archive::unpack(&tar));
    let entries = match entries {
        Ok(e) => e,
        Err(e) => {
            return cx
                .tally
                .wrong(1 + ZOOMS as u64, format!("part-1 tarball: {e}"))
        }
    };
    let catalog = match catalog_of(&entries) {
        Ok(c) => c,
        Err(e) => return cx.tally.wrong(1 + ZOOMS as u64, e),
    };
    let (halos, parse_s) = op.time("workflow", || {
        ZoomWorkflow::parse_catalog(&String::from_utf8_lossy(&catalog))
    });
    if halos.len() < ZOOMS {
        return cx.tally.wrong(
            1 + ZOOMS as u64,
            format!(
                "part 1 found {} halos, expected at least {ZOOMS}",
                halos.len()
            ),
        );
    }
    if let Err(e) = cx.digests.check(CAMPAIGN_RES, &catalog) {
        return cx.tally.wrong(1 + ZOOMS as u64, e);
    }
    cx.tally.ok(1);
    if cx.trace {
        cx.layers.sample("workflow.part1_ms", part1_ms);
    }

    let pool_len = halos.len().min(ZOOM_POOL);
    let targets: Vec<CatalogHalo> = pick.iter().map(|&i| halos[i % pool_len]).collect();
    let tasks: Vec<TaskPayload> = targets
        .iter()
        .map(|h| {
            TaskPayload::Call(zoom2_profile(
                &nl,
                CAMPAIGN_RES,
                BOX_MPC_H,
                h.center_pct,
                NB_BOX,
            ))
        })
        .collect();
    for t in &tasks {
        cx.keep_payload(t);
        if let TaskPayload::Call(p) = t {
            cx.keep_profile(p);
        }
    }
    let name = format!("zoom-campaign-{k}");
    let t_part2 = op.elapsed_s();
    let campaign = if traced {
        let (sub, ack_s) = op.time("jobserver", || rig.job.submit_tasks(&name, tasks));
        l.sample("jobserver.submit_ack_ms", ack_s * 1e3);
        sub.and_then(|(cid, _)| {
            op.time("jobserver", || rig.job.wait(cid, POLL, SOLVE_DEADLINE))
                .0
        })
    } else {
        run_live_campaign(&rig.job, &name, tasks, POLL, SOLVE_DEADLINE)
            .map(|r| (r.summary, r.events))
    };
    let part2_s = op.elapsed_s() - t_part2;
    let (summary, events) = match campaign {
        Ok(c) => c,
        Err(e) => return cx.tally.fail(ZOOMS as u64, format!("campaign {k}: {e}")),
    };
    if summary.done != ZOOMS as u64 || summary.failed != 0 {
        let failed = (ZOOMS as u64)
            .saturating_sub(summary.done)
            .max(summary.failed);
        cx.tally.ok(ZOOMS as u64 - failed);
        return cx.tally.fail(failed, format!("campaign {k}: {summary:?}"));
    }
    cx.tally.ok(ZOOMS as u64);

    if !traced {
        cx.e2e.op_ms.push(op.elapsed_s() * 1e3);
        cx.e2e.rates.push(ZOOMS as f64 / part2_s);
        cx.e2e.note_rss(cx.e2e.op_ms.len(), RSS_AFTER[0]);
        cx.layers.untraced_ms.push(op.elapsed_s() * 1e3);
        return;
    }
    for e in events.iter().filter(|e| e.state == TaskState::Done) {
        l.sample("sed.solve_ms", e.ms as f64);
        l.busy(&e.sed, e.ms as f64 / 1e3);
    }
    l.sample("workflow.catalog_parse_ms", parse_s * 1e3);
    l.finish_op(op);
    cx.layers.merge(l);
    cx.layers.sample(
        "archive.unpack_ms",
        time_ms(|| archive::unpack(&tar).map(|e| e.len())),
    );
    cx.layers.sample(
        "archive.pack_ms",
        time_ms(|| archive::pack(&entries).map(|b| b.len())),
    );
    if !cx.replayed_op {
        cx.replayed_op = true;
        let ok = replay::zoom1(&nl.render(), CAMPAIGN_RES, &catalog, &mut cx.layers);
        cx.replayed(ok, "the campaign's part 1");
    }
}

/// Start another op? At least one (two in the traced run: untraced and
/// traced); after that, only while the next op, expected to take as long as
/// the mean op so far, would end less than half an op past the window. Runs
/// of long ops thus stay near `--seconds` instead of doubling.
fn more(cx: &Ctx, t_run: Instant, done: usize) -> bool {
    let min_ops = if cx.trace { 2 } else { 1 };
    let elapsed = t_run.elapsed().as_secs_f64();
    let mean_op = if done > 0 { elapsed / done as f64 } else { 0.0 };
    done < min_ops || (elapsed + mean_op / 2.0 < cx.seconds && t_run.elapsed() < START_BUDGET)
}

fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    ms_since(t)
}

// ------------------------------------------------------------ zoom_dag

pub fn zoom_dag(cx: &mut Ctx) {
    let wf = ZoomWorkflow {
        namelist: namelist(DAG_RES),
        resolution: DAG_RES,
        size_mpc_h: BOX_MPC_H,
        nb_box: NB_BOX,
        max_zooms: ZOOMS,
    };
    let t_run = Instant::now();
    let mut k = 0;
    while more(cx, t_run, k) {
        let traced = cx.trace && k % 2 == 1;
        pipeline_op(cx, &wf, traced, false, &format!("pipeline {k}"));
        k += 1;
    }
}

/// One zoom pipeline through the DAG engine: `ZoomWorkflow::run_dag`'s
/// submit-and-wait, kept as its two calls so the traced run can see the
/// node events. Outputs are checked by fetching every zoom's tarball by
/// ref, outside the timed window.
fn pipeline_op(cx: &mut Ctx, wf: &ZoomWorkflow, traced: bool, warm_up: bool, what: &str) {
    let rig = cx.rig;
    let spec = wf.dag_spec();
    cx.keep_payload(&TaskPayload::Dag(spec.clone()));
    if let Some(root) = spec.nodes.first() {
        cx.keep_profile(&root.profile);
    }
    let nodes = 1 + wf.max_zooms as u64;
    let mut op = OpTrace::begin();
    let (handle, _) = op.time("dag", || rig.client.submit_dag(rig.ma(), &spec));
    let submitted_s = op.elapsed_s();
    let waited = handle.and_then(|h| {
        op.time("dag", || rig.client.wait_dag(rig.ma(), &h, SOLVE_DEADLINE))
            .0
            .map(|(o, ev)| (h, o, ev))
    });
    let wall_ms = op.elapsed_s() * 1e3;
    let (handle, outcome, events) = match waited {
        Ok(v) => v,
        Err(e) => return cx.tally.fail(nodes, format!("{what}: {e}")),
    };
    let report = DagWorkflowReport::from_outcome(handle.trace_id, outcome.clone());
    if !report.all_succeeded() || report.zooms.len() != wf.max_zooms {
        return cx.tally.fail(
            nodes,
            format!(
                "{what}: ok {} part-1 status {} zooms {:?}",
                report.ok,
                report.part1_status,
                report.zooms.iter().map(|z| z.status).collect::<Vec<_>>()
            ),
        );
    }

    // Output checks: part-1 catalog digest, every zoom's tarball by ref.
    let root = outcome
        .nodes
        .iter()
        .find(|n| n.service == "ramsesZoom1")
        .expect("all_succeeded implies a part-1 node");
    let mut fetched: Vec<(u32, Vec<archive::Entry>)> = Vec::new();
    let mut refs: Vec<(u32, String, String)> = root
        .outputs
        .iter()
        .filter(|(a, _)| *a == 2)
        .map(|(_, id)| (root.node, root.sed.clone(), id.clone()))
        .collect();
    refs.extend(
        report
            .zooms
            .iter()
            .filter_map(|z| z.tar_id.clone().map(|id| (z.node, z.server.clone(), id))),
    );
    if refs.len() != nodes as usize {
        return cx
            .tally
            .wrong(nodes, format!("{what}: {} result refs", refs.len()));
    }
    for (node, sed, id) in &refs {
        let t = Instant::now();
        let got = rig.pool.get_data(sed, id, SOLVE_DEADLINE);
        let pull_ms = ms_since(t);
        let tar = match got.as_ref().map(|(v, _)| file_bytes(v)) {
            Ok(Some(t)) => t.clone(),
            other => {
                return cx
                    .tally
                    .wrong(nodes, format!("{what}: fetch {id}: {other:?}"))
            }
        };
        let t = Instant::now();
        let entries = match archive::unpack(&tar) {
            Ok(entries) => entries,
            Err(e) => return cx.tally.wrong(nodes, format!("{what}: tarball {id}: {e}")),
        };
        if traced {
            cx.layers.sample("archive.unpack_ms", ms_since(t));
            cx.layers.sample("data.pull_ms", pull_ms);
            cx.layers.count("data.pull_bytes", tar.len() as f64);
            cx.layers.sample(
                "archive.pack_ms",
                time_ms(|| archive::pack(&entries).map(|b| b.len())),
            );
        }
        fetched.push((*node, entries));
    }
    let root_catalog = match catalog_of(&fetched[0].1) {
        Ok(c) => c,
        Err(e) => return cx.tally.wrong(nodes, format!("{what}: {e}")),
    };
    if let Err(e) = cx.digests.check(wf.resolution, &root_catalog) {
        return cx.tally.wrong(nodes, e);
    }
    for (node, entries) in &fetched[1..] {
        let (g, t) = (
            rows(entries, "galaxies/catalog.txt"),
            rows(entries, "tree/mergertree.txt"),
        );
        if g == 0 || t == 0 {
            return cx.tally.wrong(
                nodes,
                format!("{what}: zoom node {node} has {g} galaxies, {t} tree nodes"),
            );
        }
    }
    cx.tally.ok(nodes);

    let root_done_ms = events
        .iter()
        .find(|e| e.node == root.node && e.state == DagNodeState::Done)
        .map(|e| e.at_ms as f64)
        .unwrap_or(root.duration_ms as f64);
    if !cx.trace {
        if !warm_up {
            cx.e2e.op_ms.push(wall_ms);
            let part2_s = ((outcome.makespan_ms as f64 - root_done_ms) / 1e3).max(1e-3);
            cx.e2e.rates.push(wf.max_zooms as f64 / part2_s);
            cx.e2e.note_rss(cx.e2e.op_ms.len(), RSS_AFTER[1]);
        }
        return;
    }
    cx.layers
        .sample("workflow.part1_ms", root.duration_ms as f64);
    if !traced {
        cx.layers.untraced_ms.push(wall_ms);
        return;
    }
    dag_layers(
        cx,
        &outcome,
        &events,
        &mut op,
        submitted_s,
        wall_ms,
        !warm_up,
    );
    if !warm_up {
        cx.layers.finish_op(op);
        if cx.replayed_op {
            return;
        }
        cx.replayed_op = true;
    }
    // Replay the warm-up's solves and the first traced pipeline's.
    let nl_text = wf.namelist.render();
    let ok = replay::zoom1(&nl_text, wf.resolution, &root_catalog, &mut cx.layers);
    cx.replayed(ok, &format!("{what} part 1"));
    let t = Instant::now();
    let halos = ZoomWorkflow::parse_catalog(&String::from_utf8_lossy(&root_catalog));
    cx.layers.sample("workflow.catalog_parse_ms", ms_since(t));
    for (node, entries) in &fetched[1..] {
        // The expander numbers zoom nodes after the root, most massive first.
        let Some(h) = halos.get((*node - root.node - 1) as usize) else {
            continue;
        };
        let Ok(expected) = catalog_of(entries) else {
            continue;
        };
        let ok = replay::zoom2(
            &nl_text,
            wf.resolution,
            wf.size_mpc_h,
            h.center_pct,
            wf.nb_box,
            &expected,
            &mut cx.layers,
        );
        cx.replayed(ok, &format!("{what} zoom node {node}"));
    }
}

/// DAG-engine layer numbers from one outcome and its event feed; SeD
/// numbers too when the pipeline is one of the workload's own ops.
fn dag_layers(
    cx: &mut Ctx,
    outcome: &DagOutcome,
    events: &[DagEventRec],
    op: &mut OpTrace,
    submitted_s: f64,
    wall_ms: f64,
    own_op: bool,
) {
    let l = &mut cx.layers;
    let root = outcome.nodes.iter().find(|n| n.service == "ramsesZoom1");
    let longest_zoom = outcome
        .nodes
        .iter()
        .filter(|n| n.service == "ramsesZoom2")
        .map(|n| n.duration_ms)
        .max()
        .unwrap_or(0);
    let critical = root.map(|r| r.duration_ms).unwrap_or(0) + longest_zoom;
    // The makespan as the client saw it: the engine's own is whole ms.
    l.sample("dag.overhead_ms", wall_ms - critical as f64);
    for n in &outcome.nodes {
        l.count("dag.nodes", 1.0);
        l.count("dag.node_attempts", n.attempts as f64);
        if own_op {
            l.sample("sed.solve_ms", n.duration_ms as f64);
            l.busy(&n.sed, n.duration_ms as f64 / 1e3);
        }
    }
    // Node executions as reported spans: Running .. Done, on the op clock.
    let mut running: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        match e.state {
            DagNodeState::Running => {
                running.insert(e.node, e.at_ms);
            }
            DagNodeState::Done => {
                if let Some(start) = running.remove(&e.node) {
                    let end_s = submitted_s + e.at_ms as f64 / 1e3;
                    op.reported("sed", end_s, (e.at_ms - start.min(e.at_ms)) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------- rpc_overhead

pub fn rpc_overhead(cx: &mut Ctx) {
    let rig = cx.rig;
    let profiles: Vec<Profile> = (0..256).map(|_| null_profile(cx.rng.centre())).collect();
    for p in profiles.iter().take(64) {
        cx.keep_profile(p);
        cx.keep_payload(&TaskPayload::Call(p.clone()));
    }
    let seconds = cx.seconds;
    let trace = cx.trace;
    let t_run = Instant::now();
    let results: Vec<Caller> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RPC_CALLERS)
            .map(|c| {
                let profiles = &profiles;
                s.spawn(move || caller(rig, profiles, c, t_run, seconds, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rpc caller thread panicked"))
            .collect()
    });
    let window_s = t_run.elapsed().as_secs_f64();
    let mut latency = Vec::new();
    cx.e2e.rss_mb = results.first().and_then(|r| r.rss_mb);
    for r in results {
        cx.tally.attempted += r.tally.attempted;
        cx.tally.failed += r.tally.failed;
        cx.tally.wrong |= r.tally.wrong;
        cx.tally.causes.extend(r.tally.causes);
        latency.extend(r.latency_ms);
        cx.layers.merge(r.layers);
    }
    if !trace {
        cx.e2e.rates.push(latency.len() as f64 / window_s);
        cx.e2e.op_ms = latency;
    }
}

struct Caller {
    tally: Tally,
    rss_mb: Option<f64>,
    latency_ms: Vec<f64>,
    layers: Layers,
}

/// One closed-loop caller. In the traced run, 250 ms blocks alternate
/// between untraced calls and calls decomposed at the layer boundaries.
fn caller(
    rig: &Rig,
    profiles: &[Profile],
    c: usize,
    t_run: Instant,
    seconds: f64,
    trace: bool,
) -> Caller {
    let mut out = Caller {
        tally: Tally::default(),
        rss_mb: None,
        latency_ms: Vec::new(),
        layers: Layers::default(),
    };
    let mut i = c * 97;
    while t_run.elapsed().as_secs_f64() < seconds {
        let profile = profiles[i % profiles.len()].clone();
        i += 1;
        let traced = trace && (t_run.elapsed().as_secs_f64() / 0.25) as u64 % 2 == 1;
        let t = Instant::now();
        let reply = if traced {
            let mut op = OpTrace::begin();
            let r = decomposed_call(rig, profile, &mut op, &mut out.layers);
            if r.is_ok() {
                out.layers.finish_op(op);
            }
            r
        } else {
            rig.client
                .call_distributed(rig.ma(), &rig.pool, profile, &rig.policy)
                .map(|(p, _)| p)
                .map_err(|e| e.to_string())
        };
        let ms = ms_since(t);
        match reply.map(|p| check_null_reply(&p)) {
            Ok(Ok(())) => {
                out.tally.ok(1);
                if !traced {
                    out.latency_ms.push(ms);
                    out.layers.untraced_ms.push(ms);
                }
                if out.tally.attempted as usize == RSS_AFTER[2] {
                    out.rss_mb = crate::stats::peak_rss_mb();
                }
            }
            Ok(Err(e)) => out.tally.wrong(1, e),
            Err(e) => out.tally.fail(1, e),
        }
    }
    out
}

// ------------------------------------------------------------ task_burst

pub fn task_burst(cx: &mut Ctx) {
    let rig = cx.rig;
    let t_run = Instant::now();
    let mut k = 0;
    while more(cx, t_run, k) {
        let traced = cx.trace && k % 2 == 1;
        let payloads: Vec<TaskPayload> = (0..BURST_TASKS)
            .map(|_| TaskPayload::Call(null_profile(cx.rng.centre())))
            .collect();
        for p in payloads.iter().take(64) {
            cx.keep_payload(p);
            if let TaskPayload::Call(p) = p {
                cx.keep_profile(p);
            }
        }
        let name = format!("burst-{k}");
        let mut op = OpTrace::begin();
        let (sub, _) = op.time("jobserver", || rig.job.submit_tasks(&name, payloads));
        let ack_ms = op.elapsed_s() * 1e3;
        let done = sub.and_then(|(cid, ids)| {
            op.time("jobserver", || rig.job.wait(cid, POLL, SOLVE_DEADLINE))
                .0
                .map(|r| (ids.len(), r))
        });
        let burst_s = op.elapsed_s();
        k += 1;
        let n = BURST_TASKS as u64;
        let (ids, (summary, events)) = match done {
            Ok(v) => v,
            Err(e) => {
                cx.tally.fail(n, format!("burst {}: {e}", k - 1));
                continue;
            }
        };
        if ids != BURST_TASKS || summary.done != n || summary.failed != 0 {
            let failed = n.saturating_sub(summary.done).max(summary.failed);
            cx.tally.ok(n - failed);
            cx.tally
                .fail(failed, format!("burst {}: {summary:?}", k - 1));
            continue;
        }
        cx.tally.ok(n);
        if !cx.trace {
            // Each burst lands on a store holding every earlier one, so
            // the op metrics cover a fixed range of bursts, not however
            // many fit in the window.
            if cx.e2e.op_ms.len() < MEASURED_BURSTS {
                cx.e2e.op_ms.push(burst_s * 1e3);
                cx.e2e.rates.push(n as f64 / burst_s);
            }
            cx.e2e.note_rss(cx.e2e.op_ms.len(), RSS_AFTER[3]);
            continue;
        }
        cx.layers.sample("jobserver.submit_ack_ms", ack_ms);
        if traced {
            for e in events.iter().filter(|e| e.state == TaskState::Done) {
                cx.layers.busy(&e.sed, e.ms as f64 / 1e3);
            }
            cx.layers.finish_op(op);
        } else {
            cx.layers.untraced_ms.push(burst_s * 1e3);
        }
    }
}

// ------------------------------------------------- traced-run epilogue

/// After the timed window of a traced run: the codec and job-store probes
/// on the workload's own profiles and payloads, the layer probe of null
/// calls, and the counters the deployment keeps.
pub fn layer_probes(cx: &mut Ctx, work: &Path) -> Result<Layers, String> {
    let rig = cx.rig;
    // codec: encode/decode each kept profile, many times for microseconds.
    const REPS: usize = 50;
    for p in &cx.profiles {
        let mut buf = BytesMut::new();
        encode_profile(&mut buf, p);
        let bytes = buf.freeze();
        cx.layers.sample("codec.profile_bytes", bytes.len() as f64);
        let t = Instant::now();
        for _ in 0..REPS {
            let mut b = BytesMut::with_capacity(bytes.len());
            encode_profile(&mut b, std::hint::black_box(p));
            std::hint::black_box(b);
        }
        cx.layers
            .sample("codec.profile_encode_us", ms_since(t) * 1e3 / REPS as f64);
        let t = Instant::now();
        for _ in 0..REPS {
            let mut b = bytes.clone();
            let d = decode_profile(&mut b).map_err(|e| format!("decode_profile: {e}"))?;
            std::hint::black_box(d);
        }
        cx.layers
            .sample("codec.profile_decode_us", ms_since(t) * 1e3 / REPS as f64);
    }

    // job store: a scratch store fed the workload's payloads.
    let dir = work.join("scratch-store");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = JobStore::open(&dir, JobStoreConfig::default(), Arc::new(Obs::new()))
            .map_err(|e| format!("scratch store: {e}"))?;
        let payloads: Vec<TaskPayload> = cx
            .payloads
            .iter()
            .cycle()
            .take(STORE_PROBE_TASKS)
            .cloned()
            .collect();
        let n = payloads.len().max(1) as f64;
        let t = Instant::now();
        store
            .submit("scratch", payloads)
            .map_err(|e| format!("scratch submit: {e}"))?;
        cx.layers
            .sample("jobserver.store_submit_us", ms_since(t) * 1e3 / n);
        let label = rig.labels().first().cloned().unwrap_or_default();
        while let Some(claim) = store.next_task(Duration::ZERO) {
            let t = Instant::now();
            let attempt = store
                .dispatched(claim.campaign_id, claim.task_id, claim.epoch, None, &label)
                .ok_or("scratch dispatch went stale")?;
            cx.layers
                .sample("jobserver.store_dispatched_us", ms_since(t) * 1e3);
            let t = Instant::now();
            if !store.complete(
                claim.campaign_id,
                claim.task_id,
                claim.epoch,
                attempt,
                &label,
                1,
            ) {
                return Err("scratch complete went stale".into());
            }
            cx.layers
                .sample("jobserver.store_complete_us", ms_since(t) * 1e3);
        }
        let wal = std::fs::metadata(store.wal_path())
            .map(|m| m.len())
            .unwrap_or(0);
        cx.layers.sample("jobserver.wal_bytes", wal as f64 / n);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Layer probe: decomposed null calls, the fallback for hierarchy,
    // transport and SeD numbers a workload's own ops do not expose.
    let mut probe = Layers::default();
    for i in 0..PROBE_CALLS {
        let mut op = OpTrace::begin();
        let centre = [(i % 101) as i32, 50, 50];
        decomposed_call(rig, null_profile(centre), &mut op, &mut probe)
            .and_then(|p| check_null_reply(&p))
            .map_err(|e| format!("layer probe: {e}"))?;
    }
    Ok(probe)
}
