#!/usr/bin/env bash
# Where a process's CPU goes, by thread group.
#
#   scripts/thread-cpu.sh [-c comm] [-d delay_s] [-i interval_s] <cmd…>
#
# Runs <cmd…>, reads /proc/<pid>/task/*/{stat,status} twice — delay_s after
# the process starts and interval_s after that — and prints, per group of
# threads whose names differ only in digits (log-flush-0, log-flush-1 →
# log-flush-N): threads, user and system clock ticks, voluntary and
# involuntary context switches between the two samples, and the group's
# share of the process's CPU, largest first. The command's own output
# passes through; the table follows it. Threads born or gone between the
# samples are not counted.
#
#   -c comm   sample the process named comm — <cmd…> itself or a descendant —
#             once it appears, and count delay_s from then (for wrappers
#             such as `cargo run`, which compile first and then exec or
#             spawn the binary)
#   -d        default 6: past set-up and warm-up of a benchmark run
#   -i        default 12
#
# Example (the table behind EXPERIMENTS.md's "where the CPU goes"):
#   scripts/thread-cpu.sh -c afc-benchmark cargo run --release --offline --quiet \
#       --manifest-path benchmark/Cargo.toml -- run --workload w4k_qd16 --seed 7
#
# Exit status: the command's, or 1 if no thread could be sampled twice.

set -u

usage() {
    sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

comm="" delay=6 interval=12
while getopts c:d:i: opt; do
    case $opt in
    c) comm=$OPTARG ;;
    d) delay=$OPTARG ;;
    i) interval=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || usage

# named <pid> <comm>: print <pid> or its first descendant named <comm>.
named() {
    local child
    if [ "$(cat "/proc/$1/comm" 2>/dev/null)" = "$2" ]; then
        echo "$1"
        return 0
    fi
    for child in $(pgrep -P "$1"); do
        named "$child" "$2" && return 0
    done
    return 1
}

# snapshot <pid>: one line per thread — tid group utime stime voluntary involuntary.
snapshot() {
    local task
    for task in "/proc/$1/task"/[0-9]*; do
        awk -v tid="${task##*/}" '
            FNR == 1 && FILENAME ~ /stat$/ { sub(/^.*\) /, ""); user = $12; sys = $13 }
            /^Name:/ { sub(/^Name:[ \t]*/, ""); gsub(/[0-9]+/, "N"); gsub(/ /, "_"); name = $0 }
            /^voluntary_ctxt_switches:/ { vol = $2 }
            /^nonvoluntary_ctxt_switches:/ { invol = $2 }
            END { if (name != "" && user != "") print tid, name, user, sys, vol, invol }
        ' "$task/stat" "$task/status" 2>/dev/null
    done
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$@" &
root=$!
target=$root
if [ -n "$comm" ]; then
    until target=$(named "$root" "$comm"); do
        if ! kill -0 "$root" 2>/dev/null; then
            wait "$root"
            status=$?
            echo "thread-cpu: the command ended before a process named $comm appeared" >&2
            [ "$status" -ne 0 ] && exit "$status"
            exit 1
        fi
        sleep 0.2
    done
fi

sleep "$delay"
snapshot "$target" >"$tmp/first"
sleep "$interval"
snapshot "$target" >"$tmp/second"
wait "$root"
status=$?

echo
echo "thread-cpu: pid $target, ${interval}s between samples, $(getconf CLK_TCK) ticks/s"
awk '
    NR == FNR { user[$1] = $3; sys[$1] = $4; vol[$1] = $5; invol[$1] = $6; next }
    $1 in user {
        threads[$2]++
        du[$2] += $3 - user[$1]; ds[$2] += $4 - sys[$1]
        dv[$2] += $5 - vol[$1]; di[$2] += $6 - invol[$1]
        total += $3 - user[$1] + $4 - sys[$1]
    }
    END {
        for (g in threads)
            printf "%s %d %d %d %d %d %.1f\n", g, threads[g], du[g], ds[g], dv[g], di[g],
                total ? 100 * (du[g] + ds[g]) / total : 0
    }
' "$tmp/first" "$tmp/second" | sort -k7,7nr -k1,1 | awk '
    BEGIN { printf "%-18s %7s %10s %9s %10s %10s %7s\n", "group", "threads", "user_ticks", "sys_ticks", "vol_sw", "invol_sw", "cpu_%" }
    {
        printf "%-18s %7d %10d %9d %10d %10d %7.1f\n", $1, $2, $3, $4, $5, $6, $7
        threads += $2; user += $3; sys += $4; vol += $5; invol += $6
    }
    END {
        if (NR == 0) exit 1
        printf "%-18s %7d %10d %9d %10d %10d %7.1f\n", "total", threads, user, sys, vol, invol, 100
    }
' || {
    echo "thread-cpu: no thread was sampled twice (the process ended within ${delay}+${interval} s? use -d/-i)" >&2
    [ "$status" -ne 0 ] && exit "$status"
    exit 1
}
exit "$status"
