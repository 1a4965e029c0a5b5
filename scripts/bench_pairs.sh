#!/usr/bin/env bash
# Run the benchmark in pairs on two checkouts, PARENT and CHANGE, and compare
# their end-to-end metrics pair by pair.
#
#   scripts/bench_pairs.sh PARENT CHANGE WORKLOAD PAIRS [FIRST_SEED [SECONDS]]
#
# Pair i runs `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds
# SECONDS --trace 0` in each checkout, with S = FIRST_SEED + i (default 0) and
# SECONDS defaulting to 40.  Even pairs run PARENT first and odd pairs CHANGE
# first, so a drift in the machine's load falls on both sides.  Each run's
# result line is printed as it arrives.  Then, for each end-to-end metric in
# CHANGE's BENCHMARK.json, the script prints:
#   - each pair's change/parent ratio;
#   - their median, and in how many pairs the change did better;
#   - each side's median, with the parent's quartiles.
# It stops at a run that exits non-zero, and exits 1 if a run reports
# `correct: false`.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 6 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD PAIRS [FIRST_SEED [SECONDS]]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
first_seed=${5:-0}
seconds=${6:-40}
results=$(mktemp)
trap 'rm -f "$results"' EXIT

bench() {  # SIDE DIR SEED: one run, its result line appended to $results
    local line
    line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 seed $3: $line"
    echo "$1 $3 $line" >>"$results"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        bench parent "$parent" "$seed"
        bench change "$change" "$seed"
    else
        bench change "$change" "$seed"
        bench parent "$parent" "$seed"
    fi
done

python3 - "$results" "$change/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs = {"parent": {}, "change": {}}
with open(sys.argv[1], encoding="utf-8") as fh:
    for line in fh:
        side, seed, result = line.split(" ", 2)
        runs[side][int(seed)] = json.loads(result)
with open(sys.argv[2], encoding="utf-8") as fh:
    metrics = json.load(fh)["end_to_end"]

seeds = sorted(runs["parent"])
incorrect = [f"{side} seed {seed}" for side in runs for seed in seeds
             if not runs[side][seed]["correct"]]
print(f"\n{len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds] for side in runs}
    ratios = [c / p for p, c in zip(values["parent"], values["change"])]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    q1, _, q3 = (statistics.quantiles(values["parent"], n=4) if len(seeds) > 1
                 else values["parent"] * 3)
    print(f"{name} ({metric['better']} is better, bound {metric['bound']}):")
    print("  ratios " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  median ratio {statistics.median(ratios):.3f}, "
          f"change better in {wins} of {len(seeds)}")
    print(f"  parent {statistics.median(values['parent']):.6g} [{q1:.6g}, {q3:.6g}]"
          f" -> change {statistics.median(values['change']):.6g} {metric['unit']}")
if incorrect:
    print("not correct: " + ", ".join(incorrect))
    sys.exit(1)
print("every run correct")
EOF
