#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run noise and write NOISE.md.

Runs SETS sets of RUNS runs of every workload on one build, interleaved
(A B C A B C ...) so that host drift hits every set alike, each run with
another seed. For every end-to-end metric x workload it reports each set's
median and quartiles, the spread the driver checks (IQR / median, quartiles
as statistics.quantiles(n=4) gives them), and the largest pairwise difference
between set medians, and holds both against the bound in BENCHMARK.json.

    python3 benchmark/noise.py --bin <afc-benchmark binary> [--sets 3] [--runs 10]
                               [--raw benchmark/out/noise.jsonl] [--resume] [--out tables.md]
    python3 benchmark/noise.py --analyse benchmark/out/noise.jsonl   # tables only

Runs in which an op was lost stay in their set and are marked, not dropped.
"""
import argparse
import itertools
import json
import pathlib
import statistics
import subprocess
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def one_run(binary, workload, seed):
    start = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # Kept in the record and named in the tables; it has no metrics.
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
        return {"workload": workload, "seed": seed, "wall_s": wall, "exit": proc.returncode}
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("host:")), "")
    return {"workload": workload, "seed": seed, "wall_s": wall, "host": host,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def measure(args):
    raw = pathlib.Path(args.raw)
    raw.parent.mkdir(parents=True, exist_ok=True)
    # An interrupted measurement is resumed: runs already in the raw file
    # are kept, the rest are appended in the same interleaved order.
    records = [json.loads(l) for l in raw.read_text().splitlines()] if args.resume and raw.exists() else []
    done = {(r["set"], r["run"], r["workload"]) for r in records}
    with raw.open("a" if args.resume else "w") as out:
        for run, (s, name) in itertools.product(range(args.runs), enumerate("ABCDEFGH"[:args.sets])):
            for workload in WORKLOADS:
                if (name, run, workload) in done:
                    continue
                rec = one_run(args.bin, workload, 1000 * (s + 1) + run)
                rec.update(set=name, run=run)
                records.append(rec)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"set {name} run {run} {workload}: {rec['wall_s']:.1f} s, failed {rec.get('failed')}", flush=True)
    return records


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(metric, first, second):
    """Relative amount by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if BOUNDS[metric]["better"] == "lower" else -change


def analyse(records):
    aborted = [r for r in records if "exit" in r]
    records = [r for r in records if "exit" not in r]
    sets = sorted({r["set"] for r in records})
    lines = []
    verdict_ok = True
    for workload in WORKLOADS:
        lines += [f"### {workload}", "",
                  "| metric | unit | " + " | ".join(f"set {s}: median [q1, q3] spread" for s in sets)
                  + " | largest set-to-set difference | bound | bound / difference | verdict |",
                  "|---|---|" + "---|" * len(sets) + "---|---|---|---|"]
        for metric, spec in BOUNDS.items():
            cells, medians, spreads = [], [], []
            for s in sets:
                vals = [r["metrics"][metric] for r in records if r["set"] == s and r["workload"] == workload]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2
                medians.append(q2)
                spreads.append(spread)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {spread:.2%}")
            diff = max((abs(worse(metric, a, b)) for a, b in itertools.permutations(medians, 2)), default=0.0)
            bound = spec["bound"]
            ok = bound >= 2 * diff and (metric == "setup_s" or max(spreads) <= bound)
            steady = metric == "setup_s" or max(spreads) <= bound / 3
            verdict_ok &= ok
            verdict = "ok" if ok and steady else ("ok, spread above bound/3" if ok else "TOO NOISY")
            ratio = "inf" if diff == 0 else f"{bound / diff:.1f}x"
            lines.append(f"| `{metric}` | {spec['unit']} | " + " | ".join(cells)
                         + f" | {diff:.2%} | {bound:.0%} | {ratio} | {verdict} |")
        lost = [r for r in records if r["workload"] == workload and r["failed"]]
        note = ", ".join(f"set {r['set']} run {r['run']} (seed {r['seed']}): {r['failed']} of {r['attempted']}"
                         for r in lost) or "none"
        walls = [r["wall_s"] for r in records if r["workload"] == workload]
        lines += ["", f"Runs with failed ops (kept in their sets): {note}.",
                  f"Wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s.", ""]
    wrong = [r for r in records if not r["correct"]]
    lines.append(f"Runs with wrong outputs: {len(wrong)} of {len(records)}.")
    note = ", ".join(f"set {r['set']} run {r['run']} {r['workload']} (exit {r['exit']})" for r in aborted) or "none"
    lines.append(f"Runs that ended without a result: {note}.")
    verdict_ok &= not aborted
    return "\n".join(lines), verdict_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bin", help="built afc-benchmark binary")
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--raw", default=str(ROOT / "benchmark/out/noise.jsonl"))
    ap.add_argument("--resume", action="store_true", help="keep the runs already in --raw, measure the rest")
    ap.add_argument("--analyse", help="skip measuring; analyse this raw file")
    ap.add_argument("--out", help="write the tables here instead of printing them")
    args = ap.parse_args()
    if args.analyse:
        records = [json.loads(l) for l in pathlib.Path(args.analyse).read_text().splitlines()]
    elif args.bin:
        records = measure(args)
    else:
        ap.error("give --bin or --analyse")
    tables, ok = analyse(records)
    if args.out:
        pathlib.Path(args.out).write_text(tables + "\n")
    else:
        print(tables)
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
