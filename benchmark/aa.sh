#!/usr/bin/env bash
# A/A check: runs the whole benchmark N times on one commit and compares
# the runs with each other. For every workload x end-to-end metric it
# prints the median, the gap between the two most distant runs, and the
# distance between the quartiles (the spread a driver judges the benchmark
# by), both as shares of the median. Exits nonzero when a spread exceeds
# the metric's bound in BENCHMARK.json, when a run fails, or when
# train_sparse's loss digest differs between runs of one seed. The gap is
# printed and not judged: one disturbed run in five sets it, and on a
# shared box it is two to three times the spread (README.md, Bounds).
#
#   benchmark/aa.sh [N=10]     from the root of the repository, N >= 5
set -euo pipefail

runs="${1:-10}"
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: at least 5 runs" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="target/benchmark/aa"
rm -rf "$out"
mkdir -p "$out"

mapfile -t command < <(python3 -c '
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

failed=0
for i in $(seq 1 "$runs"); do
    for w in $workloads; do
        echo "aa.sh: run $i/$runs $w" >&2
        if ! "${command[@]}" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 \
            >"$out/$w.$i.out" 2>"$out/$w.$i.err"; then
            echo "aa.sh: $w run $i failed, see $out/$w.$i.err" >&2
            failed=1
        fi
    done
done

python3 - "$out" "$runs" <<'EOF' || failed=1
import json, re, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
worst = 0
print(f'{"workload":<14}{"metric":<14}{"median":>16} {"unit":<5}{"gap":>8}{"spread":>8}{"bound":>7}')
for w in (w["name"] for w in spec["workloads"]):
    results = []
    for i in range(1, runs + 1):
        lines = open(f"{out}/{w}.{i}.out").read().strip().splitlines()
        results.append(json.loads(lines[-1]) if lines else None)
    if any(r is None or not r["correct"] or r["failed"] for r in results):
        print(f"{w}: a run was not correct")
        worst = 1
        continue
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        median = statistics.median(values)
        gap = (max(values) - min(values)) / median
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / median
        over = spread > m["bound"]
        worst |= over
        print(f'{w:<14}{m["name"]:<14}{median:>16.6g} {m["unit"]:<5}{gap:>8.4f}{spread:>8.4f}'
              f'{m["bound"]:>7.2f}{"  OVER" if over else ""}')
    if w == "train_sparse":
        digests = {re.search(r"loss_digest (\w+)", open(f"{out}/{w}.{i}.err").read()).group(1)
                   for i in range(1, runs + 1)}
        print(f"{w}: loss digests {sorted(digests)}")
        if len(digests) != 1:
            print(f"{w}: losses differ between runs of one seed")
            worst = 1
sys.exit(worst)
EOF
exit "$failed"
