#!/usr/bin/env bash
# The pairing rule of ROADMAP.md in one command: build beliefbench at a
# parent commit and at the working tree, run the two alternately on one
# workload and seed, and print per metric both medians, the parent's
# quartiles and how many pairs the change won — the end-to-end metrics, the
# `session.*` lines, and the `peak_rss_mb.<phase>` laps (the high-water
# mark as it stood after set-up and main loop, after close and after
# reopen: which phase set `peak_rss_mb`).
#
#   scripts/bench-pairs.sh <parent-ref> <workload|all> [seed=42] [pairs=10] [counters]
#
# `all` runs every workload of BENCHMARK.json, one after the other off the
# same pair of builds, and prints one table per workload. With a fifth
# argument `counters`, one `--trace 1` run per side follows each series and
# the program's deterministic counters are printed side by side — and, for
# table1_ingest, the ten `ops.cell_s.*` timings and the ten
# `ops.overhead.*` ratios of those two runs, with `ops.tuples_per_annotation`
# (the per-cell breakdown of `overhead_ratio`).
#
# Each end-to-end metric also gets a verdict, with its bound from
# BENCHMARK.json (a fraction of the parent's median):
#   claim met     the change won at least 9 in 10 pairs and its median is
#                 better than the parent's by more than the parent's
#                 interquartile range;
#   REGRESSION    the change's median is worse than the parent's by more
#                 than the bound;
#   unresolved    either side's interquartile range, as a fraction of its
#                 median, is wider than the bound;
#   within bound  otherwise.
#
# Everything lives under target/bench-pairs/ (ignored by git): the parent's
# files (a `git archive` of the commit, so .git is not touched), one cargo
# target directory per side, and the output of every run.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,30p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
seed=${3:-42}
pairs=${4:-10}
counters=${5:-}

cd "$(git rev-parse --show-toplevel)"
sha=$(git rev-parse --short "$parent_ref^{commit}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "$workload" = all ]; then
    workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$workload
fi
work=target/bench-pairs
parent_src=$work/parent-$sha
mkdir -p "$work"

if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src.tmp"
    git archive "$sha" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi
echo "building parent $sha and the working tree ..." >&2
CARGO_TARGET_DIR=$work/build-parent cargo build --release --quiet \
    --manifest-path "$parent_src/beliefbench/Cargo.toml"
CARGO_TARGET_DIR=$work/build-change cargo build --release --quiet \
    --manifest-path beliefbench/Cargo.toml
# Copies, so that a build started meanwhile cannot swap a binary mid-series.
cp "$work/build-parent/release/beliefbench" "$work/beliefbench-parent"
cp "$work/build-change/release/beliefbench" "$work/beliefbench-change"

run() { # side, output file, extra arguments
    local side=$1 out=$2
    shift 2
    "$work/beliefbench-$side" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" "$@" >"$out" 2>&1 || echo "  $side run failed: $out" >&2
}

for workload in $workloads; do
runs=$work/runs/$workload-$seed
mkdir -p "$runs"
rm -f "$runs"/parent-*.txt "$runs"/change-*.txt "$runs"/traced-*.txt
for i in $(seq 1 "$pairs"); do
    # A B, B A, A B, ...
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$runs/$side-$i.txt" --trace 0
    done
    echo "$workload: pair $i/$pairs done" >&2
done
if [ "$counters" = counters ]; then
    for side in parent change; do
        run "$side" "$runs/traced-$side.txt" --trace 1
    done
fi

python3 - "$runs" "$workload" "$pairs" "$sha" "$seed" <<'PY'
import json, os, statistics, sys

runs, workload, pairs, sha, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
end_to_end = [m["name"] for m in bench["end_to_end"]]
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}

def read(path):
    """Metrics, answer digest and the closing JSON object of one run."""
    metrics, digest, closing = {}, None, {}
    for line in open(path):
        parts = line.split()
        if line.startswith("{"):
            closing = json.loads(line)
        elif len(parts) >= 4 and parts[0] == workload:
            if parts[1] == "answers":
                digest = parts[-1]
            elif parts[1] in end_to_end or parts[1].startswith(("session.", "peak_rss_mb.")):
                try:
                    metrics[parts[1]] = float(parts[2])
                except ValueError:
                    pass
    return metrics, digest, closing

sides = {s: [read(f"{runs}/{s}-{i}.txt") for i in range(1, pairs + 1)] for s in ("parent", "change")}
bad = [(s, i + 1) for s, rs in sides.items() for i, (_, _, c) in enumerate(rs)
       if not c.get("correct") or c.get("failed", 1) != 0]
digests = {d for rs in sides.values() for _, d, _ in rs}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def verdict(name, p, c, wins, lower):
    """The verdict on one end-to-end metric (see the header of this script)."""
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    gain = (pm - cm) if lower else (cm - pm)
    if wins * 10 >= 9 * len(p) and gain > q3 - q1:
        return "claim met"
    if pm and -gain / abs(pm) > bound[name]:
        return "REGRESSION"
    def spread(xs):
        lo, hi = quartiles(xs)
        m = statistics.median(xs)
        return (hi - lo) / abs(m) if m else 0.0
    if max(spread(p), spread(c)) > bound[name]:
        return "unresolved"
    return "within bound"

print(f"{workload}, seed {seed}: parent {sha} vs working tree, {pairs} alternating pairs")
print(f"answers digest: {'identical ' + digests.pop() if len(digests) == 1 else 'DIFFER ' + str(digests)}; "
      f"runs not correct or with failures: {bad or 'none'}")
head = f"{'metric':34} {'parent median':>14} {'parent q1..q3':>25} {'change median':>14} {'change':>8} {'wins':>6}"
print(head)
names = end_to_end + sorted(n for n in sides["parent"][0][0] if n not in end_to_end)
for name in names:
    p = [m[name] for m, _, _ in sides["parent"] if name in m]
    c = [m[name] for m, _, _ in sides["change"] if name in m]
    if len(p) != pairs or len(c) != pairs or not any(p + c):
        continue
    lower = better.get(name, "lower") == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    exact = " exact" if pairs > 1 and len(set(p)) == 1 and len(set(c)) == 1 else ""
    tied = f" ({ties} ties)" if ties else ""
    judged = f"  {verdict(name, p, c, wins, lower)}" if name in bound else ""
    print(f"{name:34} {pm:14.6g} {q1:12.6g}..{q3:<11.6g} {cm:14.6g} {delta:>8} {wins:3}/{pairs}{tied}{exact}{judged}")

traced = {s: f"{runs}/traced-{s}.txt" for s in ("parent", "change")}
if all(os.path.exists(p) for p in traced.values()):
    # The counters that repeat exactly for a seed (ROADMAP: the regression gate).
    exact = ["exec.rows_scanned", "exec.rows_emitted", "exec.columnar_chunks", "exec.spill_bytes",
             "table.seq_scans", "table.rows_read",
             "table.index_probes", "table.transpose_rebuilds", "datalog.plan_cache_hits",
             "datalog.plan_cache_misses", "translate.rules", "magic.rules_out",
             "ops.attempted", "ops.accepted", "worlds.count",
             "wal.bytes", "wal.appends", "snapshot.bytes", "session.rows_returned"]
    def counters(path):
        closing = {}
        for line in open(path):
            if line.startswith("{"):
                closing = json.loads(line)
        return {k: v["value"] for k, v in closing.get("metrics", {}).items()}
    a, b = counters(traced["parent"]), counters(traced["change"])
    print("\ndeterministic counters of one --trace 1 run per side:")
    for name in exact:
        if name in a or name in b:
            mark = "" if a.get(name) == b.get(name) else "   <-- differs"
            print(f"{name:34} {a.get(name, 'n/a'):>16} {b.get(name, 'n/a'):>16}{mark}")
    # table1_ingest times each cell of the Table 1 grid: the wide worlds
    # (m = 100, shallow) are where an index layout that moves entries shows.
    def side_by_side(prefix, title):
        names = [n for n in a if n.startswith(prefix) and a[n] and b.get(n)]
        if names and title:
            print(f"\n{title}")
        for name in names:
            delta = f"{(b[name] - a[name]) / a[name] * 100:+.1f}%"
            print(f"{name:34} {a[name]:16.6g} {b[name]:16.6g} {delta:>8}")
    side_by_side("ops.cell_s.", "timed cells of the same two runs (s; one sample a side, not a pair series):")
    # Deterministic: |R*| / n per cell of the grid, and over the whole grid.
    side_by_side("ops.overhead.", "tuples per annotation per cell of the same two runs (exact):")
    side_by_side("ops.tuples_per_annotation", None)
PY
echo
done
