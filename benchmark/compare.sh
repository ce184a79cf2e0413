#!/usr/bin/env bash
# Compare two sets of runs (results.jsonl files written by run.sh).
#
#   benchmark/compare.sh A.jsonl B.jsonl
#
# For every end-to-end metric x workload, B's median is held against A's with
# the metric's own bound from BENCHMARK.json:
#   pass        B is not worse than A by more than the bound
#   regress     B is worse by more than the bound
#   unresolved  a side's quartile spread is wider than the bound, so the runs
#               cannot tell (unless every run of B beats every run of A)
# One row per workload and metric; exits 1 if anything regressed.
set -euo pipefail
here="$(dirname "$0")"
exec python3 - "$here/../BENCHMARK.json" "$@" <<'PY'
import json, statistics, sys

if len(sys.argv) != 4:
    sys.exit("usage: compare.sh A.jsonl B.jsonl")
bench = json.load(open(sys.argv[1]))


def load(path):
    runs = {}
    for line in open(path):
        run = json.loads(line)
        if run["trace"] != 0 or run["smoke"]:
            continue
        for name, m in run["result"]["metrics"].items():
            runs.setdefault((run["workload"], name), []).append(m["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


a, b = load(sys.argv[2]), load(sys.argv[3])
regressed = False
print(f"{'workload':14} {'metric':18} {'A median':>14} {'B median':>14} {'change':>8} {'bound':>6}  verdict")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        key = (w["name"], m["name"])
        if key not in a or key not in b:
            print(f"{key[0]:14} {key[1]:18} {'-':>14} {'-':>14} {'-':>8} {m['bound']:>6}  missing")
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        lower = m["better"] == "lower"
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        all_better = max(b[key]) < min(a[key]) if lower else min(b[key]) > max(a[key])
        if max(spread(a[key]), spread(b[key])) > m["bound"] and not all_better:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict, regressed = "regress", True
        else:
            verdict = "pass"
        print(f"{key[0]:14} {key[1]:18} {ma:14.6g} {mb:14.6g} {-worse:+8.1%} {m['bound']:>6}  {verdict}"
              f"  (n={len(a[key])}/{len(b[key])})")
sys.exit(1 if regressed else 0)
PY
