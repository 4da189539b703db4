#!/usr/bin/env sh
# Tier-1 gate, split into named stages so CI (and humans) can run them
# individually:
#
#   ./ci.sh              # run every stage, print per-stage wall-clock times
#   ./ci.sh build test   # run only the named stages, in the given order
#
# Stages: build test lint determinism obs data throughput hierarchy serving
#         telemetry workflow jobserver bench
set -eu

STAGE_NAMES=""
STAGE_TIMES=""

run_stage() {
    name="$1"
    echo "==> stage: $name"
    start=$(date +%s)
    "stage_$name"
    end=$(date +%s)
    STAGE_NAMES="$STAGE_NAMES $name"
    STAGE_TIMES="$STAGE_TIMES $((end - start))"
}

report() {
    echo "==> stage timings (wall-clock seconds)"
    # shellcheck disable=SC2086 # parallel word lists, splitting intended
    set -- $STAGE_TIMES
    for name in $STAGE_NAMES; do
        printf '    %-12s %ss\n' "$name" "$1"
        shift
    done
    # On GitHub Actions, publish the same table as job-summary markdown.
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### ci.sh stage timings"
            echo ""
            echo "| stage | wall-clock (s) |"
            echo "| --- | ---: |"
            # shellcheck disable=SC2086
            set -- $STAGE_TIMES
            for name in $STAGE_NAMES; do
                echo "| $name | $1 |"
                shift
            done
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

stage_build() {
    (set -x; cargo build --release --workspace)
}

stage_test() {
    (set -x; cargo test -q --workspace)
}

stage_lint() {
    (set -x
     cargo fmt --all --check
     cargo clippy --workspace --all-targets -- -D warnings)
    # The workflow file must stay parseable; prefer a real YAML parser when
    # one is around, fall back to a structural sanity grep.
    if command -v python3 >/dev/null 2>&1 && \
       python3 -c 'import yaml' 2>/dev/null; then
        (set -x; python3 -c 'import sys, yaml; yaml.safe_load(open(".github/workflows/ci.yml"))')
    else
        (set -x
         grep -q '^jobs:' .github/workflows/ci.yml
         grep -q 'RAYON_NUM_THREADS' .github/workflows/ci.yml)
    fi
    # This script is part of the gate too: shellcheck when available,
    # otherwise at least a parse check.
    if command -v shellcheck >/dev/null 2>&1; then
        (set -x; shellcheck ci.sh)
    else
        (set -x; sh -n ci.sh)
    fi
    # Drift guard: every stage_* function defined here must be reachable
    # through ALL_STAGES, or `./ci.sh` silently stops running it.
    for fn in $(grep -o '^stage_[a-z_]*' ci.sh | sort -u); do
        name="${fn#stage_}"
        case " $ALL_STAGES " in
            *" $name "*) ;;
            *) echo "ci.sh drift: $fn() is not listed in ALL_STAGES" >&2; exit 1 ;;
        esac
    done
}

stage_determinism() {
    # The full simulation and solver stack must be bitwise-identical at 1
    # and 4 threads (the tests also sweep widths in-process via
    # ThreadPool::install). Plus the kernel-scaling smoke: reduced sweep,
    # validates the JSON artifact and cross-thread-count checksums.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p ramses --test determinism_threads
     RAYON_NUM_THREADS=4 cargo test -q -p ramses --test determinism_threads
     cargo run --release -p bench --bin exp_kernel_scaling -- --quick)
}

stage_obs() {
    # Observability smoke: a live traced campaign over TCP (100 requests,
    # one mid-run SeD kill) that dumps both exporters and self-checks that
    # every request's spans share one trace id across all five phases. The
    # binary validates the Chrome trace with bench::validate_json before
    # writing it; re-check the written artifacts exist and are non-empty.
    (set -x
     cargo run --release -p bench --bin exp_live_fig5
     test -s target/experiments/live_metrics.prom
     test -s target/experiments/live_trace.json
     grep -q 'diet_client_requests_total' target/experiments/live_metrics.prom
     grep -q '"ph":"X"' target/experiments/live_trace.json)
}

stage_data() {
    # Data-management gate: the store/catalog consistency storm and the
    # live SeD-to-SeD transfer + re-ship scenario, at both thread widths;
    # the codec property tests cover GetData/DataReply/PutData frames. Then
    # the data-reuse smoke: the same live zoom batch volatile vs
    # persistent; the binary asserts byte-identical results and reduced
    # client wire traffic.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test data_concurrency --test prop_codec
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test data_concurrency --test prop_codec
     RAYON_NUM_THREADS=1 cargo test -q -p cosmogrid --test tcp_data_reuse
     RAYON_NUM_THREADS=4 cargo test -q -p cosmogrid --test tcp_data_reuse
     cargo run --release -p bench --bin exp_data_reuse -- --quick
     test -s target/experiments/data_reuse.csv
     grep -q '^reuse,' target/experiments/data_reuse.csv)
}

stage_throughput() {
    # Serving-model gate: the pipelined soak (64 concurrent callers on one
    # multiplexed connection, mid-run SeD kill, zero lost or mis-correlated
    # replies) at both thread widths, then the closed-loop throughput sweep.
    # The binary self-checks the >=2x mux-vs-baseline speedup at
    # concurrency 64 and that overload drains via Busy + backoff with zero
    # timeouts, and validates its JSON artifact before writing it.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p cosmogrid --test tcp_throughput
     RAYON_NUM_THREADS=4 cargo test -q -p cosmogrid --test tcp_throughput
     cargo run --release -p bench --bin exp_throughput -- --quick
     test -s target/experiments/BENCH_throughput_quick.json
     grep -q '"speedup"' target/experiments/BENCH_throughput_quick.json)
}

stage_hierarchy() {
    # Distributed-tree gate: MAs/LAs/SeDs as separate TCP processes. The
    # test suite covers the 3-level resolve through two remote hops, the
    # interior-LA kill mid-burst (zero lost requests), MA-to-MA federation,
    # heartbeat mark/restore of whole subtrees, and per-agent Busy
    # admission, at both thread widths. The finding-depth bench self-checks
    # that all submits resolve at depths 1/2/3 and validates its artifact.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test hierarchy_tcp
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test hierarchy_tcp
     cargo run --release -p bench --bin exp_finding_depth -- --quick
     test -s target/experiments/BENCH_finding_quick.json
     grep -q '"finding_p50_ms"' target/experiments/BENCH_finding_quick.json)
}

stage_serving() {
    # Readiness-driven serving-core gate: the adversarial reactor suite
    # (byte-trickled frames, slow-loris under a single worker, mid-frame
    # disconnect pruning, hostile length prefixes) at both thread widths,
    # then the quick throughput run whose idle-connection sweep self-checks
    # that foreground rps holds across a held herd and that the process
    # thread count stays flat.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test reactor_adversarial
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test reactor_adversarial
     cargo run --release -p bench --bin exp_throughput -- --quick
     test -s target/experiments/BENCH_throughput_quick.json
     grep -q '"idle_sweep"' target/experiments/BENCH_throughput_quick.json)
}

stage_telemetry() {
    # Distributed-telemetry gate: the collector suite (every component a
    # private Obs flushing over the wire; the collector must stitch one
    # cross-process trace per request, merge counters to the per-process
    # sums, and expose its own reactor's instrumentation) at both thread
    # widths, then the quick overhead bench, which self-checks that
    # telemetry-enabled mux throughput stays within its floor of disabled
    # and validates its JSON artifact before writing it.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test telemetry_tcp
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test telemetry_tcp
     cargo run --release -p bench --bin exp_telemetry -- --quick
     test -s target/experiments/BENCH_telemetry_quick.json
     grep -q '"stitching"' target/experiments/BENCH_telemetry_quick.json)
}

stage_workflow() {
    # MA-DAG engine gate: the over-the-wire dag suite (SeD-to-SeD-only
    # intermediates, straggler speculation with zero lost dags, event
    # polling + trace stitching, client-disconnect cancellation) and the
    # application-level fan-out tests, at both thread widths, then the
    # quick makespan bench, which self-checks the dag-vs-per-stage speedup
    # floor and that zero intermediate bytes crossed the client link, and
    # validates its JSON artifact before writing it.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test dag_tcp
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test dag_tcp
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --lib dag
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --lib dag
     RAYON_NUM_THREADS=1 cargo test -q -p cosmogrid --lib workflow
     RAYON_NUM_THREADS=4 cargo test -q -p cosmogrid --lib workflow
     cargo run --release -p bench --bin exp_workflow -- --quick
     test -s target/experiments/BENCH_workflow_quick.json
     grep -q '"speedup"' target/experiments/BENCH_workflow_quick.json)
}

stage_jobserver() {
    # Durable-campaign gate: the WAL/snapshot recovery property suite
    # (byte-level torn-tail truncation, snapshot+tail equivalence) and the
    # over-the-wire jobserver suite (mixed campaigns through the MA
    # hierarchy, idempotent resubmission, dead-SeD requeue, restart with
    # zero recompute) at both thread widths, then the crash-recovery
    # experiment: a separate diet_jobserver process SIGKILLed mid-campaign
    # must restart from its log, recompute nothing already Done, and
    # finish. The binary validates its JSON artifact before writing it.
    (set -x
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --test jobserver_log --test jobserver_tcp
     RAYON_NUM_THREADS=4 cargo test -q -p diet-core --test jobserver_log --test jobserver_tcp
     RAYON_NUM_THREADS=1 cargo test -q -p diet-core --lib jobserver
     RAYON_NUM_THREADS=4 cargo test -q -p cosmogrid --test tcp_jobserver
     cargo build --release -p diet-core --bin diet_jobserver
     cargo run --release -p bench --bin exp_jobserver -- --quick
     test -s target/experiments/BENCH_jobserver_quick.json
     grep -q '"recomputed": 0' target/experiments/BENCH_jobserver_quick.json
     grep -q '"failed": 0' target/experiments/BENCH_jobserver_quick.json)
}

stage_bench() {
    # Repository-benchmark gate: compile perfbench against the crates'
    # public API (--locked fails if a crate change would rewrite
    # perfbench/Cargo.lock), then a short run of the two middleware-bound
    # workloads. Each run's last line must report "correct": true and zero
    # failed operations.
    (set -x; cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml)
    mkdir -p target/experiments
    for workload in rpc_overhead task_burst; do
        out="target/experiments/bench_$workload.out"
        (set -x; bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0 > "$out")
        last=$(tail -n 1 "$out")
        case "$last" in
            *'"correct": true'*'"failed": 0,'*) echo "bench $workload: ok" ;;
            *) echo "bench $workload: incorrect or failed ops: $last" >&2; exit 1 ;;
        esac
    done
}

ALL_STAGES="build test lint determinism obs data throughput hierarchy serving telemetry workflow jobserver bench"
if [ $# -eq 0 ]; then
    # shellcheck disable=SC2086 # stage list is a word list by design
    set -- $ALL_STAGES
fi
for stage in "$@"; do
    case " $ALL_STAGES " in
        *" $stage "*) run_stage "$stage" ;;
        *) echo "unknown stage: $stage (expected one of: $ALL_STAGES)" >&2; exit 2 ;;
    esac
done
report
