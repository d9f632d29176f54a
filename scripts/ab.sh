#!/usr/bin/env bash
# The perf gate: builds two revisions and runs the end-to-end benchmark
# (BENCHMARK.json, benchmark/) on both in alternating pairs. Pair i runs
# every workload with --seed i on each side, back to back; which side runs
# first alternates by pair, so a machine that changes speed between pairs
# slows both sides alike.
#
# Prints one markdown row per workload x end-to-end metric: the parent and
# change medians, change/parent, the change's wins of N pairs (ties count
# for neither), the parent's quartile spread as a share of its median, and
# the metric's bound. With ten or more pairs, a cell is marked `gain` when
# the change wins at least 0.9 N pairs and its median moves by more than
# the parent's quartile spread; the mark is information, not a verdict.
# (At three pairs an unchanged cell wins 3/3 one time in eight.)
#
# Exits 1 when a change median is worse than the parent's by more than the
# metric's bound, when a run exits nonzero or reports `correct: false`, or
# when the change side fails a larger share of its operations. Exits 2 on
# bad arguments, or when the two sides' BENCHMARK.json differ in workloads
# or metric names: a benchmark change is a change of its own. The command,
# run_seconds and bounds are the parent's.
#
#   scripts/ab.sh PARENT CHANGE [PAIRS=10]
#
# Both revisions are exported fresh into target/ab/{parent,change} (removed
# on exit) and built before any timing; run logs stay in target/ab/logs.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ] || [ -z "$1" ] || [ -z "$2" ] || ! [[ "${3:-10}" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/ab.sh PARENT CHANGE [PAIRS=10]" >&2
    exit 2
fi
pairs="${3:-10}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
ab="target/ab"
logs="$ab/logs"
# Each side builds into its own checkout; a shared target directory would
# let one side's build overwrite the other's.
unset CARGO_TARGET_DIR

declare -A rev
for side in parent change; do
    arg="$1"
    shift
    if ! rev[$side]="$(git rev-parse --verify --quiet "$arg^{commit}")"; then
        echo "ab.sh: $arg is not a commit" >&2
        exit 2
    fi
done

rm -rf "$ab"
mkdir -p "$logs"
trap 'rm -rf "$ab/parent" "$ab/change"' EXIT
trap 'exit 130' INT TERM
for side in parent change; do
    mkdir "$ab/$side"
    git archive "${rev[$side]}" | tar -x -C "$ab/$side"
done

python3 - "$ab/parent/BENCHMARK.json" "$ab/change/BENCHMARK.json" <<'EOF' || exit 2
import json, sys
try:
    parent, change = (json.load(open(path)) for path in sys.argv[1:])
except (OSError, ValueError) as e:
    sys.exit(f"ab.sh: no readable BENCHMARK.json on both sides: {e}")
for key in ("workloads", "end_to_end"):
    if [x["name"] for x in parent[key]] != [x["name"] for x in change[key]]:
        sys.exit(f"ab.sh: the two BENCHMARK.json list different {key}; "
                 "a benchmark change is a change of its own")
EOF
contract="$ab/parent/BENCHMARK.json"
mapfile -t command < <(python3 -c '
import json, sys
for word in json.load(open(sys.argv[1]))["command"]:
    print(word)' "$contract")
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$contract")"
workloads="$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$contract")"

# The command is `cargo run ... --`; the same words with `build` and
# without the program's arguments build it.
build=()
for word in "${command[@]}"; do
    [ "$word" = "--" ] && break
    [ "$word" = "run" ] && word="build"
    build+=("$word")
done
for side in parent change; do
    echo "ab.sh: building $side ${rev[$side]:0:12}" >&2
    if ! (cd "$ab/$side" && "${build[@]}") >"$logs/build-$side.log" 2>&1; then
        echo "ab.sh: $side does not build, see $logs/build-$side.log" >&2
        exit 1
    fi
done

failed=0
for i in $(seq 1 "$pairs"); do
    order="parent change"
    if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
    for w in $workloads; do
        for side in $order; do
            echo "ab.sh: pair $i/$pairs $w $side" >&2
            if ! (cd "$ab/$side" && "${command[@]}" --workload "$w" --seed "$i" \
                --seconds "$seconds" --trace 0) >"$logs/$side.$w.$i.out" 2>"$logs/$side.$w.$i.err"; then
                echo "ab.sh: $side $w pair $i exited nonzero, see $logs/$side.$w.$i.err" >&2
                failed=1
            fi
        done
    done
done

python3 - "$logs" "$pairs" "$contract" "${rev[parent]:0:12}" "${rev[change]:0:12}" <<'EOF' || failed=1
import json, statistics, sys
logs, pairs, contract, parent_rev, change_rev = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(contract))
bad = []

def result(side, w, i):
    try:
        return json.loads(open(f"{logs}/{side}.{w}.{i}.out").read().strip().splitlines()[-1])
    except (OSError, IndexError, ValueError):
        return None

print(f"### scripts/ab.sh {parent_rev} (parent) vs {change_rev} (change), {pairs} pairs\n")
print("| workload | metric | parent | change | change/parent | wins | parent spread | bound | |")
print("|---|---|--:|--:|--:|--:|--:|--:|---|")
for w in (x["name"] for x in spec["workloads"]):
    runs = {side: [result(side, w, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    for side, results in runs.items():
        for i, r in enumerate(results, 1):
            if r is None or not r["correct"]:
                bad.append(f"{w}: the {side} run of pair {i} is not correct")
    share = {side: sum(r["failed"] for r in results if r) /
             max(1, sum(r["attempted"] for r in results if r)) for side, results in runs.items()}
    if share["change"] > share["parent"]:
        bad.append(f"{w}: failed share {share['parent']:.4g} -> {share['change']:.4g}")
    both = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        if not both:
            print(f"| {w} | {name} | | | | 0/0 | | {bound} | no pair ran |")
            continue
        p = [a["metrics"][name]["value"] for a, _ in both]
        c = [b["metrics"][name]["value"] for _, b in both]
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        q = statistics.quantiles(p, n=4) if len(p) > 1 else [pm, pm, pm]
        ratio = cm / pm if pm else float("nan")
        worse = ratio - 1 if lower else 1 - ratio
        better = pm - cm if lower else cm - pm
        mark = ""
        if worse > bound:
            mark = "**worse than bound**"
            bad.append(f"{w} {name}: change median {cm:.5g} vs parent {pm:.5g} "
                       f"({ratio:.3f}x), worse by more than the {bound} bound")
        elif len(both) >= 10 and wins >= 0.9 * len(both) and better > q[2] - q[0]:
            mark = "gain"
        print(f"| {w} | {name} | {pm:.5g} | {cm:.5g} | {ratio:.3f} | {wins}/{len(both)} "
              f"| {(q[2] - q[0]) / pm if pm else 0:.3f} | {bound} | {mark} |")
for line in bad:
    print(f"ab.sh: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
exit "$failed"
