#!/usr/bin/env bash
# CI gate: static hygiene + format + clippy + tests.
#
# Everything here must pass before merge. Run locally from the workspace
# root:   ./scripts/check.sh        (or: bash scripts/check.sh)
#
# Steps degrade gracefully: if a toolchain component (rustfmt, clippy) is
# not installed, that step is skipped with a warning instead of failing —
# the xtask analyze pass and the test suite always run.

set -u
cd "$(dirname "$0")/.."

failures=0

step() {
    echo
    echo "==> $*"
    if "$@"; then
        echo "    OK"
    else
        echo "    FAILED: $*"
        failures=$((failures + 1))
    fi
}

maybe_step() {
    # maybe_step <probe...> -- <cmd...>: skip (warn) if the probe fails.
    local probe=()
    while [ "$1" != "--" ]; do probe+=("$1"); shift; done
    shift
    if "${probe[@]}" >/dev/null 2>&1; then
        step "$@"
    else
        echo
        echo "==> $* — SKIPPED (${probe[*]} unavailable)"
    fi
}

# 1. Cross-file static analysis (lock order, site names, memory-ordering
#    hygiene; see crates/analyze). Dependency-free, so it works even when
#    the rest of the workspace is broken. Runs before clippy and fails
#    fast; also emits analyze-report.json as a machine-readable artifact
#    for CI annotation.
step cargo run --quiet --package xtask -- analyze --write-report analyze-report.json
if [ "$failures" -ne 0 ]; then
    # Fail fast: span-accurate diagnostics are the most actionable output
    # this script produces; don't bury them under clippy/test noise.
    echo
    echo "check.sh: static analysis failed (see analyze-report.json)"
    exit 1
fi

# 2. Formatting.
maybe_step cargo fmt --version -- cargo fmt --all --check

# 3. Clippy, warnings as errors.
maybe_step cargo clippy --version -- cargo clippy --workspace --all-targets --quiet -- -D warnings

# 4. Build + tests (includes the lockdep stress tests and the PG
#    contention tests in the default debug profile, where lockdep is
#    active).
step cargo build --workspace --quiet
step cargo test --workspace --quiet

# 4b. The repo benchmark is a package of its own (benchmark/, empty
#     [workspace]) that path-depends on nine of these crates; the workspace
#     steps above never compile it, so an API removal here would only
#     surface when the benchmark driver builds it.
step cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

# 4b'. The tool that found the logger's wake-up per record
#      (scripts/thread-cpu.sh: CPU ticks and context switches per thread
#      group, from /proc) must keep working: run it once around a quick
#      benchmark run and require a table with the flushers' row in it.
thread_cpu_table() {
    local out
    if ! out=$(scripts/thread-cpu.sh -c afc-benchmark -d 1 -i 1 \
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload w4k_qd1 --seed 7 --quick 2>&1); then
        echo "$out"
        return 1
    fi
    echo "$out" | sed -n '/^thread-cpu:/,$p'
    echo "$out" | grep -q '^log-flush' || { echo "    no log-flush row"; return 1; }
}
step thread_cpu_table

# 4b''. Modeled time must not go back to costing a core (ROADMAP item 1):
#       the quickstart's QD1 4 KiB write loop prints the `model.*` ledger,
#       and the spin per op it reports is bounded. On the 2-vCPU host the
#       fixed 60 us reserve reads 250-310 us and the calibrated wait
#       110-130 us (ISSUE 21's acceptance figure is 130); the gate sits
#       between the two, far enough from both that a host in its slow
#       state does not trip it.
model_spin() {
    local line spin
    line=$(cargo run --release --quiet --example quickstart | grep '^model: spin ') ||
        { echo "    quickstart printed no 'model: spin' line"; return 1; }
    echo "    $line"
    spin=$(echo "$line" | sed -n 's/^model: spin \([0-9.]*\) us\/op.*/\1/p')
    awk -v s="$spin" 'BEGIN { exit !(s != "" && s + 0 <= 160) }' ||
        { echo "    spin per op '$spin' us is over 160 us"; return 1; }
}
step model_spin

# 4c. Tier-1 must pass every time, not most times (ROADMAP item 0): build
#     the root `consistency` binary once, run it 25 times (all eight tests
#     in parallel, nine tunings each), and stop at the first failure with
#     the iteration number and that run's output.
consistency_loop() {
    local bin out i
    bin=$(cargo test --quiet --test consistency --no-run --message-format=json 2>/dev/null |
        sed -n 's/.*"executable":"\([^"]*consistency-[^"]*\)".*/\1/p' | tail -n 1)
    [ -x "$bin" ] || { echo "    consistency test binary not found"; return 1; }
    for i in $(seq 1 25); do
        if ! out=$("$bin" --quiet 2>&1); then
            echo "    consistency run $i of 25 failed:"
            echo "$out"
            return 1
        fi
    done
}
step consistency_loop

# 5. Fault matrix: the crash-recovery harness, injected-fault suite and
#    the failure-detection/recovery suite (heartbeats, peering, degraded
#    I/O, backfill) run as an explicit pass so a fault-handling
#    regression is named in CI output even when the workspace test step
#    is green-but-skipped.
step cargo test --quiet --package afc-core --test crash_recovery --test fault_matrix --test recovery

# 6. API docs build clean (rustdoc warnings are errors: broken intra-doc
#    links and malformed examples fail the gate).
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# 7. Performance baseline: re-run the deterministic smoke workload and
#    compare IOPS, write amplification (logical and device-level flash)
#    and per-stage p95 latencies against the committed BENCH_baseline.json
#    (>20% regression fails).
step cargo xtask bench-check

# 8. Multi-stream separation record: run the sustained-device overwrite
#    workload with stream separation off and on, and refresh
#    bench_results/streams.json. The off/on ordering claim (separation
#    strictly lowers flash WA) is gated by the seed-pinned device test in
#    step 4; this step records the cluster-level numbers for EXPERIMENTS.md.
step cargo run --release --quiet --package afc-bench --bin baseline -- --write-streams

# 9. Multi-tenant QoS fairness: run the reserved-tenant-vs-noisy-neighbors
#    experiment (QoS on and off), refresh bench_results/qos.json, and fail
#    if the protected tenant's contended p99 blows past the gate
#    (solo p99 × AFC_QOS_P99_FACTOR + AFC_QOS_P99_SLACK_MS, QoS-on must
#    beat QoS-off, nobody starves). bench-check (step 7) applies the same
#    gate to the *committed* qos.json; this step gates a fresh run.
step cargo run --release --quiet --package afc-bench --bin baseline -- --write-qos

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all checks passed"
