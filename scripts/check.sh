#!/usr/bin/env bash
# CI gate: static hygiene + format + clippy + tests.
#
# Everything here must pass before merge. Run locally from the workspace
# root:   ./scripts/check.sh        (or: bash scripts/check.sh)
#
# rustfmt is optional (its step is skipped with a warning when it is not
# installed); clippy is not — it carries the std::sync, println, unwrap and
# discarded-result bans.

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

# 1. Cross-file static analysis (memory-ordering hygiene, op-path
#    blocking; see crates/analyze). Dependency-free, so it works even when
#    the rest of the workspace is broken. Runs before clippy and fails
#    fast. Lock order is checked by lockdep in the debug tests of step 4;
#    unwraps and discarded results by clippy in step 3; fault sites by the
#    compiler (`afc_common::faults::FaultSite`) and by step 4's
#    `fault_matrix::every_fault_site_fires`; metric names by
#    `MetricId::new` in step 4's debug build.
step cargo run --quiet --package xtask -- analyze
if [ "$failures" -ne 0 ]; then
    # Fail fast: span-accurate diagnostics are the most actionable output
    # this script produces; don't bury them under clippy/test noise.
    echo
    echo "check.sh: static analysis failed"
    exit 1
fi

# 2. Formatting.
maybe_step cargo fmt --version -- cargo fmt --all --check

# 3. Clippy, warnings as errors. Mandatory: besides its own lints it
#    enforces what four analyzer rules used to — clippy.toml's
#    `disallowed-types` bans std::sync::{Mutex,RwLock,Condvar} outside
#    lockdep.rs; every library crate denies `clippy::print_stdout` /
#    `print_stderr`; afc-core, afc-journal, afc-filestore and afc-kvstore
#    deny `clippy::unwrap_used` / `expect_used` outside tests
#    (clippy.toml `allow-*-in-tests`); afc-journal, afc-filestore and
#    afc-device deny `clippy::let_underscore_must_use`.
step cargo clippy --workspace --all-targets --quiet -- -D warnings

# 4. Build + tests (includes the lockdep stress tests and the PG
#    contention tests in the default debug profile, where lockdep is
#    active).
step cargo build --workspace --quiet
step cargo test --workspace --quiet

# 4a. The unit tests again in release. Lockdep compiles out and modeled
#     instants land at other moments there, so some failures show only in
#     a release build: a lockdep test that asserted the held set, a test
#     that read a throttle before the instant it frees at. The debug run
#     above never sees them.
step cargo test --release --offline --workspace --lib --quiet

# 4b. The repo benchmark is a package of its own (benchmark/, empty
#     [workspace]) that path-depends on nine of these crates; the workspace
#     steps above never compile it, so an API removal here would only
#     surface when the benchmark driver builds it.
step cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

# 4b'. The tool that found the logger's wake-up per record
#      (scripts/thread-cpu.sh: CPU ticks and context switches per thread
#      group, from /proc) must keep working: run it once around a quick
#      benchmark run and require a table with the flushers' row in it.
#      It also guards five deletions: no thread sleeps through a filestore
#      apply, so an `fs-apply` row means apply worker threads came back;
#      a client session takes every reply on the sending thread, so a
#      `msgr-osd.N-clie` row means a delivery thread toward a client is
#      back (some reply was handed back instead of taken); an AFCeph OSD
#      takes every client request on the client's sending thread, so a
#      `msgr-client.N-o` row means a client→OSD delivery thread is back
#      (some request was handed back instead of taken); an AFCeph OSD
#      takes every `Replicate` and `RepAck` on the sending thread, so a
#      `msgr-osd.N-osd.` row means a delivery thread between OSDs is back
#      (a fault-free run hands neither back); an AFCeph OSD runs every
#      commit continuation on the thread that commits its journal record,
#      so an `osd.N-completio` row means its completion thread is back.
#      And the run is
#      write-only, so nothing waits for an apply: a voluntary switch on the
#      `fs-backstop` row means the backstop wakes with nobody waiting.
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
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | grep -q '^fs-apply'; then
        echo "    an fs-apply row: apply threads are back"
        return 1
    fi
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | grep -q '^msgr-osd\.N-cli'; then
        echo "    a msgr-osd.N-clie row: a delivery thread toward a client is back"
        return 1
    fi
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | grep -q '^msgr-client\.N-o'; then
        echo "    a msgr-client.N-o row: a client->OSD delivery thread is back"
        return 1
    fi
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | grep -q '^msgr-osd\.N-osd'; then
        echo "    a msgr-osd.N-osd. row: a delivery thread between OSDs is back"
        return 1
    fi
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | grep -q '^osd\.N-completio'; then
        echo "    an osd.N-completio row: an AFCeph completion thread is back"
        return 1
    fi
    if echo "$out" | sed -n '/^thread-cpu:/,$p' | awk '$1 == "fs-backstop" && $5 > 0 { f = 1 } END { exit !f }'; then
        echo "    the fs-backstop row switched on a write-only run: it wakes for nobody"
        return 1
    fi
}
step thread_cpu_table

# 4b''. Modeled time must not go back to costing a core (ROADMAP item 1):
#       the quickstart's QD1 4 KiB write loop prints the `model.*` ledger,
#       and the spin per op it reports is bounded. On the 2-vCPU host the
#       fixed 60 us reserve read 250-310 us and the calibrated wait
#       110-130 us. With no thread waiting for a journal record the line
#       read 42-44 us with `nvram 0.0` (65-78 us, nvram ~22, while the
#       committer and the replica waited for each record); with no thread
#       waiting for an apply either it reads about 24 us with `ssd 0.0`
#       (ssd ~18 while apply threads slept through each write). The gate
#       at 60 us catches any of those waits coming back, with room for a
#       host in its slow state.
#       The same line counts the modeled waits per write, which the host
#       cannot blur: one per hop a thread still waits out. One of a
#       write's four hops is (the reply, which the client's waiter waits
#       out); the request is taken on the client's thread, the Replicate
#       on the primary's and the RepAck on the one that runs the replica's
#       sub-op, all of them the client's. 4.01 waits per write while a
#       primary's delivery thread waited for each RepAck, 2.99 while a
#       replica's waited for each Replicate, 1.99 while the primary's
#       client→OSD delivery thread waited for each request, 1.00 since;
#       the gate at 1.1 catches any thread waiting for any of them again.
model_spin() {
    local line spin waits
    line=$(cargo run --release --quiet --example quickstart | grep '^model: spin ') ||
        { echo "    quickstart printed no 'model: spin' line"; return 1; }
    echo "    $line"
    spin=$(echo "$line" | sed -n 's/^model: spin \([0-9.]*\) us\/op.*/\1/p')
    awk -v s="$spin" 'BEGIN { exit !(s != "" && s + 0 <= 60) }' ||
        { echo "    spin per op '$spin' us is over 60 us"; return 1; }
    waits=$(echo "$line" | sed -n 's/.*, \([0-9.]*\) waits\/op .*/\1/p')
    awk -v w="$waits" 'BEGIN { exit !(w != "" && w + 0 <= 1.1) }' ||
        { echo "    waits per write '$waits' is over 1.1"; return 1; }
}
step model_spin

# 4c. Tier-1 must pass every time, not most times (ROADMAP item 0): build
#     a test binary once, run it 25 times, and stop at the first failure
#     with the iteration number and that run's output. Looped: the root
#     `consistency` binary (all seven tests in parallel, nine tunings
#     each), the afc-core binary that times client ops taken on the
#     client's thread against their arrival, the two that count messages
#     taken on their sender's thread, whose counts race the work they
#     count if a count is published late, and the afc-core binary that
#     loses and holds `Replicate`s, whose resends race the writes behind
#     them.
loop25() {
    local name=$1 bin out i
    shift
    bin=$(cargo test --quiet "$@" --test "$name" --no-run --message-format=json 2>/dev/null |
        sed -n "s/.*\"executable\":\"\([^\"]*$name-[^\"]*\)\".*/\1/p" | tail -n 1)
    [ -x "$bin" ] || { echo "    $name test binary not found"; return 1; }
    for i in $(seq 1 25); do
        if ! out=$("$bin" --quiet 2>&1); then
            echo "    $name run $i of 25 failed:"
            echo "$out"
            return 1
        fi
    done
}
step loop25 consistency
step loop25 no_thread_wakes_for_a_client_op --package afc-core
step loop25 no_thread_wakes_for_a_replicate --package afc-core
step loop25 no_thread_wakes_for_a_repack --package afc-core
step loop25 sub_ops_in_pg_order --package afc-core

# 5. Fault matrix: the crash-recovery harness, injected-fault suite, the
#    failure-detection/recovery suite (heartbeats, peering, degraded I/O,
#    backfill) and the PG-lock contention suite (every holder drains)
#    run as an explicit pass so a fault-handling or stranded-op
#    regression is named in CI output even when the workspace test step
#    is green-but-skipped.
step cargo test --quiet --package afc-core --test crash_recovery --test fault_matrix --test recovery --test pg_contention

# 6. API docs build clean (rustdoc warnings are errors: broken intra-doc
#    links — such as one naming an item a change deleted — and malformed
#    examples fail the gate). Offline like every other cargo step here.
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

# 7. Count gate: run the repo benchmark's own binary (benchmark/, the one
#    the pipeline judges the PR with) in quick trace mode on w4k_qd1 and
#    r4k_qd8, require exit code 0 (every read verified, deep scrub clean)
#    and compare the per-op counts a shared host cannot blur — messages,
#    replica sub-ops, journal bytes and entries per flush, filestore txns
#    and data bytes, log records, failed ops — against the `EXPECTED`
#    table in crates/xtask/src/bench_check.rs at 1 %. An intentional
#    count change edits that table. Wall-clock regressions are not judged
#    here: the pipeline's BENCHMARK.json bounds over ten parent/change
#    pairs are where they can be seen.
step cargo xtask bench-check

# 8. Multi-stream separation: run the sustained-device overwrite workload
#    with stream separation off and on, and fail unless separation lowered
#    flash WA at cluster level (the seed-pinned device test in step 4 gates
#    the same ordering on one FTL). `--check-*` saves nothing: the committed
#    bench_results/streams.json is refreshed on purpose, with
#    `--write-streams`, never by a CI run.
step cargo run --release --quiet --package afc-bench --bin baseline -- --check-streams

# 9. Multi-tenant QoS fairness: run the reserved-tenant-vs-noisy-neighbors
#    experiment (QoS on and off), and fail if the protected tenant's
#    contended p99 blows past the gate (solo p99 × 2 + 3 ms, QoS-on must
#    beat QoS-off, nobody starves). Like step 8 it leaves
#    bench_results/qos.json as committed (`--write-qos` refreshes it).
step cargo run --release --quiet --package afc-bench --bin baseline -- --check-qos

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all checks passed"
