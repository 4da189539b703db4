//! The repository benchmark: four workloads over one live deployment,
//! timed end to end, and in a separate traced run layer by layer.
//!
//! ```text
//! perfbench --workload <zoom_campaign|zoom_dag|rpc_overhead|task_burst>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.sh`, which
//! builds it first). Scratch state goes under `.bench_work/`. Every output
//! is checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the metric definitions.

mod layers;
mod replay;
mod rig;
mod stats;
mod workloads;

use layers::Layers;
use rig::Rig;
use stats::{json_num, json_str, median};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Ctx, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let name = get("--workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = PathBuf::from(".bench_work");
    let run_dir = work.join(format!("run-{}", std::process::id()));

    // Set up several times and keep the last deployment. The spares stay up
    // until every set-up is timed, then go down together: a teardown waits
    // out the jobserver's heartbeat period, which would otherwise dominate
    // the run's fixed cost.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rigs = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t = Instant::now();
        rigs.push(Rig::up(run_dir.join(format!("jobserver-{k}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rig = rigs.pop().expect("SETUPS > 0");
    std::thread::scope(|s| {
        for spare in rigs {
            s.spawn(move || spare.down());
        }
    });

    let mut cx = Ctx::new(&rig, args.seed, args.seconds, args.trace, &work);
    workloads::warm_up(&mut cx);
    match args.workload {
        Workload::ZoomCampaign => workloads::zoom_campaign(&mut cx),
        Workload::ZoomDag => workloads::zoom_dag(&mut cx),
        Workload::RpcOverhead => workloads::rpc_overhead(&mut cx),
        Workload::TaskBurst => workloads::task_burst(&mut cx),
    }
    let metrics = if args.trace {
        let probe = workloads::layer_probes(&mut cx, &run_dir)?;
        let _ = std::fs::write(
            work.join(format!(
                "trace-{}-seed{}.json",
                args.workload.name(),
                args.seed
            )),
            cx.layers.chrome_trace(),
        );
        layer_metrics(&cx, &probe)
    } else {
        end_to_end_metrics(&cx, &setup_s)?
    };

    let tally = std::mem::take(&mut cx.tally);
    drop(cx);
    rig.down();
    let _ = std::fs::remove_dir_all(&run_dir);

    for cause in tally.causes.iter().take(20) {
        eprintln!("perfbench: failed: {cause}");
    }
    if tally.causes.len() > 20 {
        eprintln!("perfbench: ... {} more failures", tally.causes.len() - 20);
    }
    if tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!("host {}", host_record(args));
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !tally.wrong,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn end_to_end_metrics(cx: &Ctx, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let e = &cx.e2e;
    let need = |v: Option<f64>, what: &str| {
        v.ok_or_else(|| format!("no successful operation to measure {what}"))
    };
    let op_ms = need(median(&e.op_ms), "op_ms")?;
    let ok_ratio = 1.0 - cx.tally.failed as f64 / cx.tally.attempted.max(1) as f64;
    Ok(vec![
        Metric {
            name: "setup_s",
            value: median(setup_s).expect("SETUPS > 0"),
            unit: "s",
        },
        Metric {
            name: "op_ms",
            value: op_ms,
            unit: "ms",
        },
        Metric {
            name: "work_per_s",
            value: need(median(&e.rates), "work_per_s")?,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: need(e.rss_mb.or_else(stats::peak_rss_mb), "peak_rss_mb")?,
            unit: "MB",
        },
        Metric {
            name: "ok_ratio",
            value: ok_ratio,
            unit: "ratio",
        },
    ])
}

fn layer_metrics(cx: &Ctx, probe: &Layers) -> Vec<Metric> {
    let l = &cx.layers;
    let rig = cx.rig;
    // Finding and transport need enough samples for a p99: a workload's
    // own decomposed calls when it makes that many, else the probe's.
    let wire = if l.samples("hierarchy.find_ms").len() >= 1000 {
        l
    } else {
        probe
    };
    // SeD numbers come from the workload's own solves where the outside can
    // see them, else from the probe's null calls.
    let sed = |name: &str| {
        if l.samples(name).is_empty() {
            probe.p50(name)
        } else {
            l.p50(name)
        }
    };
    let labels = rig.labels();
    let imbalance = if l.has_busy() {
        l.busy_imbalance(&labels)
    } else {
        probe.busy_imbalance(&labels)
    };
    let counter = |obs: &obs::Obs, name: &str| obs.metrics.counter_value(name) as f64;
    let nodes = l.total("dag.nodes");
    let attempts = l.total("dag.node_attempts");
    let overhead = match (median(&l.traced_ms), median(&l.untraced_ms)) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => 1.0,
    };
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("hierarchy.find_p50_ms", wire.p50("hierarchy.find_ms"), "ms"),
        m("hierarchy.find_p99_ms", wire.p99("hierarchy.find_ms"), "ms"),
        m("transport.call_ms", wire.p50("transport.call_ms"), "ms"),
        m("transport.wire_ms", wire.p50("transport.wire_ms"), "ms"),
        m("transport.dials", rig.pool.dials() as f64, "count"),
        m(
            "codec.profile_encode_us",
            l.p50("codec.profile_encode_us"),
            "us",
        ),
        m(
            "codec.profile_decode_us",
            l.p50("codec.profile_decode_us"),
            "us",
        ),
        m("codec.profile_bytes", l.p50("codec.profile_bytes"), "B"),
        m("sed.queue_wait_ms", sed("sed.queue_wait_ms"), "ms"),
        m("sed.solve_ms", sed("sed.solve_ms"), "ms"),
        m("sed.busy_imbalance", imbalance, "ratio"),
        m(
            "jobserver.store_submit_us",
            l.p50("jobserver.store_submit_us"),
            "us",
        ),
        m(
            "jobserver.store_dispatched_us",
            l.p50("jobserver.store_dispatched_us"),
            "us",
        ),
        m(
            "jobserver.store_complete_us",
            l.p50("jobserver.store_complete_us"),
            "us",
        ),
        m(
            "jobserver.wal_bytes",
            l.p50("jobserver.wal_bytes"),
            "B/task",
        ),
        m(
            "jobserver.submit_ack_ms",
            l.p50("jobserver.submit_ack_ms"),
            "ms",
        ),
        m(
            "jobserver.dispatches",
            counter(&rig.js_obs, "diet_jobserver_dispatches_total"),
            "count",
        ),
        m(
            "jobserver.resubmissions",
            counter(&rig.js_obs, "diet_jobserver_resubmissions_total"),
            "count",
        ),
        m("dag.overhead_ms", l.p50("dag.overhead_ms"), "ms"),
        m("dag.node_attempts", attempts, "count"),
        m(
            "dag.spec_launches",
            counter(&rig.d.obs, "diet_dag_speculative_launches_total"),
            "count",
        ),
        m(
            "dag.useful_ratio",
            if attempts > 0.0 {
                nodes / attempts
            } else {
                1.0
            },
            "ratio",
        ),
        m("data.pull_ms", l.p50("data.pull_ms"), "ms"),
        m("data.pull_bytes", l.total("data.pull_bytes"), "B"),
        m(
            "data.grid_pull_bytes",
            counter(&rig.d.obs, "diet_data_pull_bytes_total"),
            "B",
        ),
        m("workflow.part1_ms", l.p50("workflow.part1_ms"), "ms"),
        m(
            "workflow.catalog_parse_ms",
            l.p50("workflow.catalog_parse_ms"),
            "ms",
        ),
        m("archive.unpack_ms", l.p50("archive.unpack_ms"), "ms"),
        m("archive.pack_ms", l.p50("archive.pack_ms"), "ms"),
        m("grafic.ics_ms", l.p50("grafic.ics_ms"), "ms"),
        m("ramses.steps", l.total("ramses.steps"), "count"),
        m("ramses.step_ms", l.p50("ramses.step_ms"), "ms"),
        m(
            "ramses.snapshot_encode_ms",
            l.p50("ramses.snapshot_encode_ms"),
            "ms",
        ),
        m("ramses.pm_field_ms", l.p50("ramses.pm_field_ms"), "ms"),
        m("ramses.accel_ms", l.p50("ramses.accel_ms"), "ms"),
        m("ramses.mg_cycles", l.p50("ramses.mg_cycles"), "count"),
        m("ramses.octree_ms", l.p50("ramses.octree_ms"), "ms"),
        m("galics.halo_maker_ms", l.p50("galics.halo_maker_ms"), "ms"),
        m("galics.pipeline_ms", l.p50("galics.pipeline_ms"), "ms"),
        m("galics.halos", l.total("galics.halos"), "count"),
        m(
            "trace.unattributed_share",
            if l.op_wall_s > 0.0 {
                l.op_uncovered_s / l.op_wall_s
            } else {
                0.0
            },
            "ratio",
        ),
        m("trace.overhead", overhead, "ratio"),
        m("trace.replays", cx.replays as f64, "count"),
        m("trace.replays_matched", cx.replays_matched as f64, "count"),
    ]
}

/// The commit, when the run happens inside a git checkout.
fn git_sha(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(root.join(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(root.join(".git").join(r)).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Host and warm-up facts recorded with every result.
fn host_record(args: &Args) -> String {
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{{\"git_sha\": {}, \"available_parallelism\": {par}, \"rayon_threads\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"resolutions\": {{\"zoom_campaign\": {}, \"zoom_dag\": {}, \"warm_up\": {}, \"null_call\": {}}}, \
         \"setups\": {SETUPS}, \"warm_up\": {}}}",
        json_str(&git_sha(Path::new("."))),
        rayon::current_num_threads(),
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        workloads::CAMPAIGN_RES,
        workloads::DAG_RES,
        workloads::WARMUP_RES,
        rig::NULL_RESOLUTION,
        json_str(
            "one null call per client connection (MA, each SeD, jobserver); \
             a 16-task null campaign; one zoom pipeline (part 1 + 1 zoom) via the DAG engine"
        ),
    )
}
